//! Failure accounting and the printed result.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counts attempted and failed operations. An operation fails on an
/// engine error, a panic, or a check whose outcome disagrees with the
/// ground truth.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages (capped, for the envelope).
    pub errors: Vec<String>,
}

impl Ledger {
    /// Run one operation, catching errors and panics.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, &e);
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                self.fail(what, &format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Record one check; a `false` outcome is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what, &detail());
        }
    }

    fn fail(&mut self, what: &str, msg: &str) {
        self.failed += 1;
        let line = format!("{what}: {msg}");
        eprintln!("perfbench: FAILED {line}");
        if self.errors.len() < 32 {
            self.errors.push(line);
        }
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when no sample was taken (always a failed run).
    pub value: Option<f64>,
    /// Number of samples behind the value.
    pub samples: u64,
}

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print the human-readable metric lines, the run envelope, and — as the
/// last line of standard output — the result object. Returns the result
/// object's text. A missing metric value is reported as `0`.
pub fn print(metrics: &[Metric], ledger: &Ledger, envelope: &str) -> String {
    let failed_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    for m in metrics {
        println!(
            "{:<34} {:>18} {:<6} samples={}",
            m.name,
            m.value.map_or("-".to_string(), |v| format!("{v:.6}")),
            m.unit,
            m.samples
        );
    }
    println!(
        "{:<34} {:>18} {:<6} samples={}",
        "failed_frac",
        format!("{failed_frac:.6}"),
        "1",
        ledger.attempted
    );
    println!("{envelope}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value.unwrap_or(0.0)),
                json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    );
    println!("{result}");
    result
}
