//! Property tests for clause-granular artifact sharing: canonical clause
//! fingerprints must be invariant under conjunct permutation, disjunct
//! reordering and bound-variable renaming, and a build that stitches its
//! Step 5 product from clause-shared cache entries must be bit-identical —
//! count, enumeration order, plan shape — to an independent build, across
//! query shapes × degree classes × skip modes × thread counts.

use lowdeg_core::{ArtifactCache, Engine, EngineConfig, SkipMode};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, parse_query};
use lowdeg_par::ParConfig;
use lowdeg_storage::Node;
use proptest::prelude::*;

/// Conjunct pool: each entry is one clause of the disjunctive queries the
/// suite assembles, given as its conjunct list so the tests can permute
/// the conjuncts without touching the clause's meaning.
const POOL: &[&[&str]] = &[
    &["B(x)", "R(y)", "!E(x, y)"],
    &["B(x)", "B(y)", "!E(x, y)"],
    &["R(x)", "G(y)", "!E(x, y)"],
    &["G(x)", "B(y)", "E(x, y)"],
    &["B(x)", "R(y)", "E(x, y)"],
    &["R(x)", "R(y)", "!E(x, y)"],
];

fn clause_src(conjuncts: &[&str]) -> String {
    format!("({})", conjuncts.join(" & "))
}

fn disjunction(clauses: &[String]) -> String {
    clauses.join(" | ")
}

/// Sorted clause fingerprints of a query's normal form.
fn clause_fps(s: &lowdeg_storage::Structure, src: &str) -> Vec<u64> {
    let q = parse_query(s.signature(), src).expect("pool queries parse");
    let mut fps: Vec<u64> = normalize(&q)
        .clauses
        .iter()
        .map(|c| c.fingerprint)
        .collect();
    fps.sort_unstable();
    fps
}

/// Two distinct pool indices.
fn two_distinct() -> impl Strategy<Value = (usize, usize)> {
    (0..POOL.len(), 0..POOL.len() - 1).prop_map(|(i, j)| (i, if j >= i { j + 1 } else { j }))
}

/// Whether `x` textually precedes `y` in the rendered query. The parser
/// assigns answer columns by *first occurrence* of each free variable, so
/// a permutation that flips this order transposes the answer tuple — a
/// genuinely different query whose fingerprints must differ
/// (fingerprints are free-variable-positional). The permutation oracles
/// only apply to order-preserving rewrites.
fn x_before_y(src: &str) -> bool {
    src.find('x').expect("pool clauses use x") < src.find('y').expect("pool clauses use y")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The canonical clause fingerprints of a disjunction are invariant
    /// under permuting the conjuncts inside each clause and reordering
    /// the disjuncts.
    #[test]
    fn clause_fingerprints_survive_permutations(
        pair in two_distinct(),
        perm_i in (0usize..4).prop_map(|i| [[0usize, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]][i]),
        perm_j in (0usize..4).prop_map(|i| [[0usize, 1, 2], [0, 2, 1], [2, 0, 1], [2, 1, 0]][i]),
        swap in any::<bool>(),
    ) {
        let (ci, cj) = pair;
        let s = ColoredGraphSpec::balanced(8, DegreeClass::Bounded(2)).generate(1);
        let base = disjunction(&[clause_src(POOL[ci]), clause_src(POOL[cj])]);
        let shuffled_i: Vec<&str> = perm_i.iter().map(|&p| POOL[ci][p]).collect();
        let shuffled_j: Vec<&str> = perm_j.iter().map(|&p| POOL[cj][p]).collect();
        let mut clauses = vec![clause_src(&shuffled_i), clause_src(&shuffled_j)];
        if swap {
            clauses.reverse();
        }
        let permuted = disjunction(&clauses);
        if x_before_y(&base) != x_before_y(&permuted) {
            return Ok(()); // assume-skip: answer columns transposed
        }
        prop_assert_eq!(
            clause_fps(&s, &base),
            clause_fps(&s, &permuted),
            "fingerprints drifted: `{}` vs `{}`", base, permuted
        );
    }

    /// Clause fingerprints ignore bound-variable names and double
    /// negation, and a clause keeps its fingerprint regardless of which
    /// sibling clause it is disjoined with (sibling-blindness — the
    /// property that makes cross-query sharing sound).
    #[test]
    fn clause_fingerprints_alpha_invariant_and_sibling_blind(
        pair in two_distinct(),
        ck in 0..POOL.len(),
    ) {
        let (ci, cj) = pair;
        if ck == ci || ck == cj {
            return Ok(()); // assume-skip: need three distinct clauses
        }
        let s = ColoredGraphSpec::balanced(8, DegreeClass::Bounded(2)).generate(1);
        // same clause under bound-var renaming, double negation and
        // conjunct reordering (x's first occurrence kept ahead of y's so
        // the answer columns stay aligned)
        let quantified = "(exists z. E(x, z) & R(z) & B(y))";
        let renamed = "(exists w. !!R(w) & E(x, w) & B(y))";
        let a = clause_fps(&s, &disjunction(&[quantified.into(), clause_src(POOL[ci])]));
        let b = clause_fps(&s, &disjunction(&[renamed.into(), clause_src(POOL[cj])]));
        let shared: Vec<u64> = a.iter().filter(|fp| b.contains(fp)).copied().collect();
        prop_assert_eq!(
            shared.len(), 1,
            "the α-renamed clause must fingerprint identically across sibling contexts"
        );
        // and the sibling clause it rode with keeps its stand-alone fp
        let solo = clause_fps(&s, &clause_src(POOL[ci]));
        prop_assert!(a.contains(&solo[0]));
    }

    /// A clause-shared build is bit-identical to an independent build:
    /// same count, same enumeration order, same plan shape — across query
    /// overlap patterns, degree classes, Eager/Lazy and serial/forced-4.
    #[test]
    fn shared_builds_bit_identical(
        seed in 0u64..64,
        n in 12usize..28,
        degree in 2usize..4,
        pair in two_distinct(),
        ck in 0..POOL.len(),
        eager in any::<bool>(),
        four_threads in any::<bool>(),
    ) {
        let (ci, cj) = pair;
        if ck == ci || ck == cj {
            return Ok(()); // assume-skip: need three distinct clauses
        }
        let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(degree)).generate(seed);
        // two queries overlapping on clause `cj`
        let qa = parse_query(
            s.signature(),
            &disjunction(&[clause_src(POOL[ci]), clause_src(POOL[cj])]),
        ).unwrap();
        let qb = parse_query(
            s.signature(),
            &disjunction(&[clause_src(POOL[cj]), clause_src(POOL[ck])]),
        ).unwrap();
        let par = if four_threads {
            ParConfig::with_threads(4).min_items(1)
        } else {
            ParConfig::serial()
        };
        let mode = if eager { SkipMode::Eager } else { SkipMode::Lazy };
        let config = EngineConfig {
            skip_mode: mode,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let cache = ArtifactCache::new();
        for q in [&qa, &qb] {
            // the uncached build is the reference: no cache, no clause tier
            let independent = Engine::build_configured(&s, q, &config, &par, None)
                .expect("pool queries localize");
            let shared = Engine::build_configured(&s, q, &config, &par, Some(&cache))
                .expect("pool queries localize");
            prop_assert_eq!(shared.count(), independent.count());
            // plan shape before any traversal (watermarks still zero)
            prop_assert_eq!(
                shared.explain().reduction,
                independent.explain().reduction,
                "clause-shared plan must match the independent plan"
            );
            let a: Vec<Vec<Node>> = shared.enumerate().collect();
            let b: Vec<Vec<Node>> = independent.enumerate().collect();
            prop_assert_eq!(a, b, "enumeration order must be bit-identical");
        }
        // non-vacuity: the second build shares clause `cj` with the first
        let (clause_hits, clause_misses, _) = cache.clause_stats();
        prop_assert!(clause_hits >= 1, "overlapping builds must hit the clause tier");
        prop_assert!(clause_misses >= 3, "three distinct clauses build once each");
    }
}

/// Workload-level: `build_workload` on a partial-overlap batch is
/// bit-identical to uncached solo builds of each query, and the sharing
/// statistics prove the clause tier actually fired.
#[test]
fn workload_clause_tier_is_exact_and_non_vacuous() {
    let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(13);
    let sources = [
        "(B(x) & R(y) & !E(x, y)) | (B(x) & B(y) & !E(x, y))",
        "(B(x) & B(y) & !E(x, y)) | (R(x) & G(y) & !E(x, y))",
        "(R(x) & G(y) & !E(x, y)) | (B(x) & R(y) & !E(x, y))",
    ];
    let queries: Vec<_> = sources
        .iter()
        .map(|src| parse_query(s.signature(), src).unwrap())
        .collect();
    let refs: Vec<&lowdeg_logic::Query> = queries.iter().collect();
    let par = ParConfig::serial();
    let config = EngineConfig {
        eps: Epsilon::new(0.5),
        ..EngineConfig::default()
    };
    let (shared, shared_stats) =
        Engine::build_workload(&s, &refs, &config, &par, &ArtifactCache::new()).unwrap();
    let independent: Vec<Engine> = queries
        .iter()
        .map(|q| Engine::build_configured(&s, q, &config, &par, None).unwrap())
        .collect();
    assert_eq!(shared_stats.queries, 3);
    assert_eq!(shared_stats.distinct_cores, 3);
    assert_eq!(
        shared_stats.distinct_clauses, 3,
        "six clause slots fold onto three distinct clauses"
    );
    assert!(
        shared_stats.clause_cache_hits > 0,
        "every clause is shared pairwise: the tier must fire"
    );
    for (a, b) in shared.iter().zip(&independent) {
        assert_eq!(a.count(), b.count());
        let xs: Vec<Vec<Node>> = a.enumerate().collect();
        let ys: Vec<Vec<Node>> = b.enumerate().collect();
        assert_eq!(xs, ys, "workload sharing must not perturb answers");
    }
}
