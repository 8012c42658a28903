//! # lowdeg-perfbench
//!
//! The repository benchmark: three workloads over the user path of the
//! `lowdeg` engine — build (T2–T4 preprocessing), first answer, full
//! serial and parallel enumeration (T4), membership tests (T3) and model
//! checking (T1) — timed from outside through public functions only, with
//! every output checked.
//!
//! ```text
//! perfbench --workload <answer-stream|write-rebuild|query-batch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` (binary `perfbench`) prints the end-to-end metrics;
//! `--trace 1` (binary `perfbench-trace`, which installs the counting
//! allocator) calls each layer's public function itself and prints the
//! per-layer metrics. The last line of standard output is the result
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any operation failed. See `perfbench/README.md`.

pub mod alloc;
mod bench;
mod inputs;
mod report;
mod stats;
mod trace;
mod workloads;

use bench::Bench;
use report::{json_num, json_str, Metric};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Threads of the `par_` arms: `min(nproc, 2)`.
fn par_threads() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parsed command line.
struct Args {
    /// The workload to run.
    workload: Workload,
    /// Input seed.
    seed: u64,
    /// Measuring time.
    seconds: f64,
    /// Per-layer (traced) run.
    trace: bool,
}

impl Args {
    /// Parse `--workload --seed --seconds --trace`.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("warm_build_ms", "ms"),
    ("hit_build_ms", "ms"),
    ("first_answer_us", "us"),
    ("answers_per_s", "1/s"),
    ("par_answers_per_s", "1/s"),
    ("delay_p50_ns", "ns"),
    ("delay_p99_ns", "ns"),
    ("test_p50_ns", "ns"),
    ("test_p99_ns", "ns"),
    ("modelcheck_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `VmHWM` of this process in MiB, when `/proc` has it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn end_to_end(b: &Bench) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = match name {
                "peak_rss_mb" => (peak_rss_mb(), 1),
                _ => {
                    let v = b.samples.get(name).map(Vec::as_slice).unwrap_or(&[]);
                    (stats::median(v), v.len() as u64)
                }
            };
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

/// The commit under test: `PERFBENCH_COMMIT` (set by `run.py`), else
/// `unknown`.
fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
}

/// Run one benchmark invocation and return the process exit code.
pub fn main_with(args: Vec<String>, traced: bool) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if args.trace != traced {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            args.trace as u8,
            if args.trace {
                "perfbench-trace"
            } else {
                "perfbench"
            }
        );
        return 2;
    }
    // Library calls that take no explicit pool (the model checker's
    // fallback build, lazy Gaifman graphs) size theirs from this variable:
    // pin them to one thread like every other arm without `par_`.
    std::env::set_var(lowdeg_par::THREADS_ENV, "1");
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut b = Bench::new(args.seed, deadline, par_threads());
    let (metrics, passes, extra) = if args.trace {
        let (metrics, spans) = trace::run(args.workload, &mut b);
        (metrics, 1, format!(", \"spans\": {spans}"))
    } else {
        let passes = workloads::run(args.workload, &mut b);
        let values: Vec<String> = b
            .samples
            .iter()
            .map(|(k, v)| {
                let v: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
                format!("{}: [{}]", json_str(k), v.join(", "))
            })
            .collect();
        (
            end_to_end(&b),
            passes,
            format!(", \"values\": {{{}}}", values.join(", ")),
        )
    };
    for m in &metrics {
        if m.value.is_none() {
            b.ledger
                .check(m.name, false, || "no sample was taken".to_string());
        }
    }
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(m.name), m.samples))
        .collect();
    let latency: Vec<String> = b
        .latency_samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    let failed_frac = b.ledger.failed as f64 / b.ledger.attempted.max(1) as f64;
    let errors: Vec<String> = b.ledger.errors.iter().map(|e| json_str(e)).collect();
    let envelope = format!(
        "{{\"envelope\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"nproc\": {}, \"threads\": {{\"serial\": 1, \"par\": {}}}, \
         \"passes\": {}, \"wall_s\": {}, \"failed_frac\": {}, \"samples\": {{{}}}, \"latency_samples\": {{{}}}, \
         \"errors\": [{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace as u8,
        json_str(&commit()),
        nproc(),
        par_threads(),
        passes,
        json_num(started.elapsed().as_secs_f64()),
        json_num(failed_frac),
        samples.join(", "),
        latency.join(", "),
        errors.join(", ")
    );
    let result = report::print(&metrics, &b.ledger, &envelope);
    if let Ok(dir) = std::env::var("PERFBENCH_OUT") {
        let path = std::path::Path::new(&dir).join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            args.trace as u8
        ));
        let body = format!("{{\"result\": {result}, \"run\": {envelope}{extra}}}\n");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    if b.ledger.failed == 0 {
        0
    } else {
        1
    }
}
