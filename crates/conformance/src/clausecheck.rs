//! Clause-sharing oracle: the clause-granular workload planner must be
//! observably identical to uncached solo builds, and must actually share.
//!
//! From a multi-clause case query this oracle derives a *partial-overlap
//! family*: two-clause disjunctions over the query's own canonical
//! clauses, arranged so every clause rides in at least two family members
//! but no two members are the same query (a wheel `c_i ∨ c_{i+1}` for
//! three or more clauses, `{c_0 ∨ c_1, c_0, c_1}` for exactly two). The
//! family builds once through [`Engine::build_workload`] on a fresh
//! [`ArtifactCache`] (clause acceptance sets and combination counts stitch
//! from the cache's clause tier), and each member builds once more on its
//! own without any cache. The contract is strict: per member, both arms
//! must agree on the count, the full enumeration *order*, and the
//! per-clause plan statistics; the planner's distinct-clause count must
//! match the members' normal forms; and — the memo-vacuity check — the
//! workload arm must report clause-tier hits, so a regression that
//! silently stops sharing (and would keep every answer correct) still
//! fails conformance.
//!
//! Members that *fall back* to their original syntax (the normal form
//! failed to localize) keep the bit-identity contract but waive the
//! vacuity check — a fallback build never probes the clause tier.

use crate::differential::Disagreement;
use crate::parcheck::{plan_stats, PlanStats};
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, ClauseForm, Formula, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::BTreeSet;

/// One engine's observable surface, for cross-arm comparison.
struct Observed {
    count: u64,
    answers: Vec<Vec<Node>>,
    stats: Option<Vec<PlanStats>>,
}

fn observe(e: &Engine) -> Observed {
    Observed {
        count: e.count(),
        answers: e.enumerate().collect(),
        stats: e.enumerator().map(plan_stats),
    }
}

/// A family member: the disjunction of the given canonical clauses, over
/// the canonical query's free list and variable table. `None` when the
/// combination fails the [`Query`] well-formedness checks.
fn member(canonical: &Query, clauses: &[&ClauseForm]) -> Option<Query> {
    let formula = if clauses.len() == 1 {
        clauses[0].formula.clone()
    } else {
        Formula::Or(clauses.iter().map(|c| c.formula.clone()).collect())
    };
    Query::new(
        canonical.signature.clone(),
        canonical.free.clone(),
        formula,
        canonical.vars.clone(),
    )
    .ok()
}

/// The partial-overlap family of a normal form with `m ≥ 2` clauses.
fn family(canonical: &Query, clauses: &[ClauseForm]) -> Option<Vec<Query>> {
    let m = clauses.len();
    let mut out = Vec::new();
    if m == 2 {
        out.push(member(canonical, &[&clauses[0], &clauses[1]])?);
        out.push(member(canonical, &[&clauses[0]])?);
        out.push(member(canonical, &[&clauses[1]])?);
    } else {
        for i in 0..m {
            out.push(member(canonical, &[&clauses[i], &clauses[(i + 1) % m]])?);
        }
    }
    Some(out)
}

/// Compare one family member's observables across the two arms.
fn compare(i: usize, shared: &Observed, solo: &Observed, bad: &mut Vec<Disagreement>) {
    if shared.count != solo.count {
        bad.push(Disagreement {
            check: "clausecheck-count".into(),
            detail: format!(
                "member {i}: clause-shared count {} vs solo count {}",
                shared.count, solo.count
            ),
        });
    }
    if shared.answers != solo.answers {
        let first = shared
            .answers
            .iter()
            .zip(&solo.answers)
            .position(|(x, y)| x != y)
            .unwrap_or(shared.answers.len().min(solo.answers.len()));
        bad.push(Disagreement {
            check: "clausecheck-enumeration-order".into(),
            detail: format!(
                "member {i}: enumeration diverges at output {first}: \
                 {:?} vs {:?} ({} vs {} outputs total)",
                shared.answers.get(first),
                solo.answers.get(first),
                shared.answers.len(),
                solo.answers.len()
            ),
        });
    }
    if shared.stats != solo.stats {
        bad.push(Disagreement {
            check: "clausecheck-plan-stats".into(),
            detail: format!(
                "member {i}: plan stats differ: clause-shared {:?} vs solo {:?}",
                shared.stats, solo.stats
            ),
        });
    }
}

/// Run the clause-sharing oracle on one case. Queries whose normal form
/// has fewer than two clauses have nothing to share and are skipped.
pub fn clausecheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let nf = normalize(q);
    if nf.clauses.len() < 2 {
        return bad;
    }
    let Some(members) = family(&nf.query, &nf.clauses) else {
        return bad; // a member failed well-formedness: nothing to compare
    };
    let refs: Vec<&Query> = members.iter().collect();
    let par = ParConfig::serial();
    let config = EngineConfig {
        eps: Epsilon::default_eps(),
        ..EngineConfig::default()
    };

    let shared = Engine::build_workload(s, &refs, &config, &par, &ArtifactCache::new());
    let solo: Result<Vec<Engine>, _> = members
        .iter()
        .map(|m| Engine::build_configured(s, m, &config, &par, None))
        .collect();
    let ((shared_engines, shared_stats), solo_engines) = match (shared, solo) {
        (Err(_), Err(_)) => return bad, // both reject: the differential oracle's business
        (Ok(_), Err(e)) => {
            bad.push(Disagreement {
                check: "clausecheck-build".into(),
                detail: format!("clause-shared arm built but a solo build failed: {e}"),
            });
            return bad;
        }
        (Err(e), Ok(_)) => {
            bad.push(Disagreement {
                check: "clausecheck-build".into(),
                detail: format!("solo builds succeeded but the clause-shared arm failed: {e}"),
            });
            return bad;
        }
        (Ok(a), Ok(b)) => (a, b),
    };

    for (i, (a, b)) in shared_engines.iter().zip(&solo_engines).enumerate() {
        compare(i, &observe(a), &observe(b), &mut bad);
    }
    let distinct_clauses = members
        .iter()
        .flat_map(|m| normalize(m).clauses.into_iter().map(|c| c.fingerprint))
        .collect::<BTreeSet<u64>>()
        .len();
    if shared_stats.distinct_clauses != distinct_clauses {
        bad.push(Disagreement {
            check: "clausecheck-plan-stats".into(),
            detail: format!(
                "distinct-clause decomposition differs: planner {} vs normal forms {}",
                shared_stats.distinct_clauses, distinct_clauses
            ),
        });
    }
    // Memo-vacuity: with every clause riding in ≥ 2 members and no
    // fallback build, the sharing arm must have stitched at least one
    // clause artifact from the tier — bit-identity alone would also pass
    // if sharing silently stopped firing.
    let any_fallback = shared_engines.iter().any(|e| e.normalization().fallback);
    if !any_fallback && shared_stats.distinct_clauses >= 2 && shared_stats.clause_cache_hits == 0 {
        bad.push(Disagreement {
            check: "clausecheck-vacuity".into(),
            detail: format!(
                "partial-overlap family of {} members over {} distinct clauses \
                 produced no clause-tier hits",
                refs.len(),
                shared_stats.distinct_clauses
            ),
        });
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn standing_corpus_is_clean() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "(B(x) & R(y) & !E(x, y)) | (R(x) & G(y) & !E(x, y))",
                "(B(x) & R(y) & !E(x, y)) | (G(x) & B(y) & E(x, y)) | (B(x) & B(y) & !E(x, y))",
                "(exists z. E(x, z) & E(z, y)) | (B(x) & R(y) & !E(x, y))",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = clausecheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
    }

    #[test]
    fn single_clause_queries_are_skipped() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(2)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        assert!(clausecheck_case(&s, &q).is_empty());
    }

    #[test]
    fn family_members_cover_pairwise_overlap() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(2)).generate(1);
        let q = parse_query(
            s.signature(),
            "(B(x) & R(y) & !E(x, y)) | (R(x) & G(y) & !E(x, y)) | (G(x) & B(y) & E(x, y))",
        )
        .unwrap();
        let nf = normalize(&q);
        assert_eq!(nf.clauses.len(), 3);
        let members = family(&nf.query, &nf.clauses).unwrap();
        assert_eq!(members.len(), 3, "a three-clause wheel has three members");
        // every clause fingerprint appears in exactly two members
        for c in &nf.clauses {
            let uses = members
                .iter()
                .filter(|m| {
                    normalize(m)
                        .clauses
                        .iter()
                        .any(|mc| mc.fingerprint == c.fingerprint)
                })
                .count();
            assert_eq!(uses, 2, "clause {:016x} must ride twice", c.fingerprint);
        }
    }
}
