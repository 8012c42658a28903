//! Cold-build vs warm-cache equivalence oracle.
//!
//! The [`ArtifactCache`] memoizes the reduction's *extract* products
//! (Gaifman graph, near-pair store, cluster tuples and canonical encodings)
//! across engine builds. The contract is strict: an engine built through a
//! warm cache must be *observably identical* to one built cold — same
//! count, same enumeration order, same per-clause plan statistics. This
//! oracle builds every case three ways (no cache; through a fresh cache,
//! which populates it; through the now-warm cache) and reports any
//! divergence as a [`Disagreement`] — plugging into the runner's shrink +
//! JSON-witness machinery like `parcheck`.
//!
//! A warm build that never hits the cache would vacuously pass, so the
//! oracle also checks the cache actually served hits on the second build.

use crate::differential::Disagreement;
use crate::parcheck::plan_stats;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};

/// Build `(s, q)` cold and through a warm [`ArtifactCache`]; report every
/// observable difference between the engines.
pub fn cachecheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let eps = Epsilon::default_eps();
    let par = ParConfig::serial();

    for mode in [SkipMode::Eager, SkipMode::Lazy] {
        let tag = format!("{mode:?}");
        let config = EngineConfig {
            skip_mode: mode,
            eps,
            ..EngineConfig::default()
        };
        let cold = match Engine::build_configured(s, q, &config, &par, None) {
            Ok(e) => e,
            Err(_) => continue, // rejection is the differential oracle's business
        };
        let cache = ArtifactCache::new();
        // first cached build populates, second must be served from the cache
        let primed = match Engine::build_configured(s, q, &config, &par, Some(&cache)) {
            Ok(e) => e,
            Err(e) => {
                bad.push(Disagreement {
                    check: "cachecheck-build".into(),
                    detail: format!(
                        "[{tag}] cold build succeeded, cache-priming build failed: {e}"
                    ),
                });
                continue;
            }
        };
        let warm = match Engine::build_configured(s, q, &config, &par, Some(&cache)) {
            Ok(e) => e,
            Err(e) => {
                bad.push(Disagreement {
                    check: "cachecheck-build".into(),
                    detail: format!("[{tag}] cold build succeeded, warm-cache build failed: {e}"),
                });
                continue;
            }
        };
        let (hits, _misses) = cache.stats();
        if q.arity() > 0 && hits == 0 {
            bad.push(Disagreement {
                check: "cachecheck-no-hit".into(),
                detail: format!("[{tag}] second cached build never hit the cache"),
            });
        }

        for (label, cached) in [("primed", &primed), ("warm", &warm)] {
            if cold.count() != cached.count() {
                bad.push(Disagreement {
                    check: "cachecheck-count".into(),
                    detail: format!(
                        "[{tag}] cold count {} vs {label} count {}",
                        cold.count(),
                        cached.count()
                    ),
                });
            }

            let ea: Vec<Vec<Node>> = cold.enumerate().collect();
            let eb: Vec<Vec<Node>> = cached.enumerate().collect();
            if ea != eb {
                let first = ea
                    .iter()
                    .zip(&eb)
                    .position(|(x, y)| x != y)
                    .unwrap_or(ea.len().min(eb.len()));
                bad.push(Disagreement {
                    check: "cachecheck-enumeration-order".into(),
                    detail: format!(
                        "[{tag}] enumeration diverges at output {first}: cold {:?} vs {label} {:?} \
                         ({} vs {} outputs total)",
                        ea.get(first),
                        eb.get(first),
                        ea.len(),
                        eb.len()
                    ),
                });
            }

            if let (Some(ena), Some(enb)) = (cold.enumerator(), cached.enumerator()) {
                let (sa, sb) = (plan_stats(ena), plan_stats(enb));
                if sa != sb {
                    bad.push(Disagreement {
                        check: "cachecheck-plan-stats".into(),
                        detail: format!("[{tag}] plan stats differ: cold {sa:?} vs {label} {sb:?}"),
                    });
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn cold_and_warm_builds_agree() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "B(x) & R(y) & !E(x, y)",
                "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
                "exists z. E(x, z) & E(z, y)",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = cachecheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
    }

    #[test]
    fn one_cache_across_distinct_structures_stays_correct() {
        // a single cache serving two different databases must key them apart
        let cache = ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig::default();
        for seed in [4, 5] {
            let s = ColoredGraphSpec::balanced(26, DegreeClass::Bounded(3)).generate(seed);
            let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
            let cold = Engine::build_configured(&s, &q, &config, &par, None).unwrap();
            let cached = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
            assert_eq!(cold.count(), cached.count(), "seed {seed}");
            let a: Vec<_> = cold.enumerate().collect();
            let b: Vec<_> = cached.enumerate().collect();
            assert_eq!(a, b, "seed {seed}");
        }
        assert!(cache.entries() >= 4, "two structures, two artifact kinds");
    }
}
