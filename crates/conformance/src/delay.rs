//! The delay-regression gate: Theorem 2.7 in CI-enforceable form.
//!
//! The worst per-output RAM-operation count of the enumerator must not
//! grow with `n` on a fixed degree class. The gate measures it at a small
//! and a large instance of the same workload and fails when the large
//! instance's worst delay exceeds an `O(1)`-style allowance (a constant
//! factor plus an absolute floor that absorbs tiny-`n` noise — the same
//! thresholds as the repository's `delay_ops` tier-1 test).

use crate::json::Json;
use lowdeg_core::{Engine, EngineConfig, SkipMode};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use std::ops::ControlFlow;

/// One gate measurement.
#[derive(Clone, Debug)]
pub struct DelayGate {
    /// Workload query.
    pub query: String,
    /// Skip-table mode measured.
    pub mode: String,
    /// Small instance size.
    pub n_small: usize,
    /// Large instance size.
    pub n_large: usize,
    /// Worst per-output ops at `n_small`.
    pub worst_small: u64,
    /// Worst per-output ops at `n_large`.
    pub worst_large: u64,
    /// The allowance `worst_large` was compared against.
    pub threshold: u64,
    /// Whether the gate passed.
    pub passed: bool,
}

impl DelayGate {
    /// JSON form for the report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("query", Json::Str(self.query.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("n_small", Json::Num(self.n_small as f64)),
            ("n_large", Json::Num(self.n_large as f64)),
            ("worst_small", Json::Num(self.worst_small as f64)),
            ("worst_large", Json::Num(self.worst_large as f64)),
            ("threshold", Json::Num(self.threshold as f64)),
            ("passed", Json::Bool(self.passed)),
        ])
    }
}

fn worst_ops(n: usize, seed: u64, src: &str, mode: SkipMode) -> u64 {
    let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(5)).generate(seed);
    let q = parse_query(s.signature(), src).expect("gate query parses");
    let config = EngineConfig {
        skip_mode: mode,
        eps: Epsilon::new(0.5),
        ..EngineConfig::default()
    };
    let engine = Engine::build_configured(&s, &q, &config, &ParConfig::from_env(), None)
        .expect("gate query is localizable");
    // the streaming visitor: the gate measures the same allocation-free
    // path the throughput benchmark exercises, not the boxed adapter
    let mut worst = 0u64;
    engine.for_each_answer_with_ops(|_, ops| {
        worst = worst.max(ops);
        ControlFlow::Continue(())
    });
    worst
}

/// Run the gate at the two sizes across both the running example and a
/// quantified workload, for every skip mode.
pub fn delay_gates(n_small: usize, n_large: usize, seed: u64) -> Vec<DelayGate> {
    let workloads = [
        "B(x) & R(y) & !E(x, y)",
        "B(x) & (exists z. E(x, z) & R(z))",
    ];
    let mut out = Vec::new();
    for src in workloads {
        // EagerForce is deliberately absent: it disables the engine's
        // preprocessing cost gates (an ablation mode), so at gate-scale
        // instances its E_k materialization costs |E|·d̃² time and memory.
        // The differential loop still covers it at case sizes.
        for (mode, factor, floor) in [(SkipMode::Eager, 4u64, 200u64), (SkipMode::Lazy, 6, 400)] {
            let worst_small = worst_ops(n_small, seed, src, mode);
            let worst_large = worst_ops(n_large, seed + 1, src, mode);
            let threshold = worst_small.saturating_mul(factor).max(floor);
            out.push(DelayGate {
                query: src.to_owned(),
                mode: format!("{mode:?}"),
                n_small,
                n_large,
                worst_small,
                worst_large,
                threshold,
                passed: worst_large <= threshold,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_on_the_honest_engine() {
        // small sizes keep the test cheap; the CI smoke profile runs larger
        let gates = delay_gates(128, 512, 77);
        assert_eq!(gates.len(), 4);
        for g in &gates {
            assert!(
                g.passed,
                "{} [{}]: {} -> {} (threshold {})",
                g.query, g.mode, g.worst_small, g.worst_large, g.threshold
            );
        }
    }
}
