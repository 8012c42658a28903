//! Whole-query artifact sharing: a build that hits the artifact cache's
//! Step 5 entry adopts the cached reduced query and enumeration plans
//! instead of copying or rebuilding them, and is observably identical to
//! an uncached build — count, answer order, membership tests and the
//! sharded parallel answer order. Plans built under one skip setting are
//! never handed to a build under another.

use lowdeg_core::enumerate::Strategy;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig, SkipMode};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::ops::ControlFlow;

/// One case: a structure, the query the cache is primed with, and a
/// rewrite variant of it (same canonical normal form, different syntax).
struct Case {
    name: &'static str,
    s: Structure,
    prime: &'static str,
    variant: &'static str,
}

fn cases() -> Vec<Case> {
    // Bounded(2) at n = 400 pushes the binary candidate lists over the
    // `(k-1)·d̃` threshold, so the shared plans carry Large levels.
    vec![
        Case {
            name: "running example",
            s: ColoredGraphSpec::balanced(400, DegreeClass::Bounded(2)).generate(5),
            prime: "B(x) & R(y) & !E(x, y)",
            variant: "!!(B(x) & !E(x, y) & R(y))",
        },
        Case {
            name: "ternary scatter",
            s: ColoredGraphSpec::balanced(60, DegreeClass::Bounded(2)).generate(7),
            prime: "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
            variant: "!E(x, y) & !E(x, z) & !E(y, z) & G(z) & R(y) & B(x)",
        },
        Case {
            name: "radius-1 pair disjunction",
            s: ColoredGraphSpec::balanced(400, DegreeClass::Bounded(2)).generate(9),
            prime: "(B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z))) \
                    | (G(x) & B(y) & !E(x, y) & (exists z. E(x, z) & B(z)))",
            variant: "(G(x) & B(y) & !E(x, y) & (exists z. E(x, z) & B(z))) \
                      | (B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z)))",
        },
    ]
}

fn config(skip_mode: SkipMode) -> EngineConfig {
    EngineConfig {
        skip_mode,
        eps: Epsilon::new(0.5),
        ..EngineConfig::default()
    }
}

fn build(s: &Structure, src: &str, cfg: &EngineConfig, cache: Option<&ArtifactCache>) -> Engine {
    let q = parse_query(s.signature(), src).expect("case queries parse");
    Engine::build_configured(s, &q, cfg, &ParConfig::serial(), cache).expect("case queries build")
}

fn answers(e: &Engine) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    e.for_each_answer(|t| {
        out.push(t.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// Pointer identity of the shared per-query artifacts.
fn shares_artifacts(a: &Engine, b: &Engine) -> bool {
    let plans = |e: &Engine| e.enumerator().expect("reduced").plans().as_ptr();
    let clauses = |e: &Engine| e.reduction().expect("reduced").query().clauses.as_ptr();
    std::ptr::eq(plans(a), plans(b)) && std::ptr::eq(clauses(a), clauses(b))
}

/// Every observable output of `hit` equals the uncached `reference`'s.
fn assert_identical(name: &str, s: &Structure, hit: &Engine, reference: &Engine) {
    assert_eq!(hit.count(), reference.count(), "{name}: count");
    let all = answers(reference);
    assert_eq!(answers(hit), all, "{name}: answer order");
    assert_eq!(
        all.len() as u64,
        reference.count(),
        "{name}: count vs answers"
    );
    assert!(!all.is_empty(), "{name}: case must have answers");
    let forced = ParConfig::with_threads(4).min_items(1);
    assert_eq!(hit.par_enumerate(&forced), all, "{name}: parallel order");
    for t in all.iter().step_by(all.len().div_ceil(300)) {
        assert!(hit.test(t), "{name}: answer {t:?} must test true");
    }
    // a deterministic sweep of tuples, mostly non-answers
    let n = s.cardinality() as u64;
    let k = hit.arity();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut non_answers = 0;
    for _ in 0..500 {
        let t: Vec<Node> = (0..k)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Node(((x >> 33) % n) as u32)
            })
            .collect();
        let expected = reference.test(&t);
        non_answers += usize::from(!expected);
        assert_eq!(hit.test(&t), expected, "{name}: test {t:?}");
    }
    assert!(non_answers > 0, "{name}: sweep must probe non-answers");
}

#[test]
fn hit_builds_share_the_step5_product_and_plans() {
    let cfg = config(SkipMode::Eager);
    for case in cases() {
        let cache = ArtifactCache::new();
        let prime = build(&case.s, case.prime, &cfg, Some(&cache));
        let (hits_before, _) = cache.stats();
        let hit = build(&case.s, case.variant, &cfg, Some(&cache));
        assert!(
            cache.stats().0 > hits_before,
            "{}: hit build must hit",
            case.name
        );
        assert_eq!(
            hit.normalization().fingerprint,
            prime.normalization().fingerprint,
            "{}: the variant must share the canonical form",
            case.name
        );
        assert!(
            shares_artifacts(&hit, &prime),
            "{}: hit must adopt the primed plans and reduced query",
            case.name
        );
        assert!(
            hit.enumerator()
                .unwrap()
                .plans()
                .iter()
                .all(|p| p.levels.len()
                    == p.strategies
                        .iter()
                        .filter(|&&s| s == Strategy::Large)
                        .count()),
            "{}: exactly one level per Large position",
            case.name
        );
        // the priming engine may be gone: the cache entry keeps the plans
        drop(prime);
        let again = build(&case.s, case.prime, &cfg, Some(&cache));
        assert!(
            shares_artifacts(&again, &hit),
            "{}: cache holds the plans",
            case.name
        );

        let reference = build(&case.s, case.prime, &cfg, None);
        assert!(
            !shares_artifacts(&reference, &hit),
            "{}: uncached builds own theirs",
            case.name
        );
        assert_identical(case.name, &case.s, &hit, &reference);

        cache.invalidate(case.s.fingerprint());
        assert_eq!(
            cache.entries(),
            0,
            "{}: invalidate empties the cache",
            case.name
        );
        // engines outlive the entry they shared
        assert_identical(case.name, &case.s, &again, &reference);
    }
}

#[test]
fn other_skip_settings_get_their_own_plans() {
    let eager = config(SkipMode::Eager);
    let lazy = config(SkipMode::Lazy);
    let mut large_levels = 0;
    for case in cases() {
        let cache = ArtifactCache::new();
        let primed = build(&case.s, case.prime, &eager, Some(&cache));
        let lazy_hit = build(&case.s, case.variant, &lazy, Some(&cache));
        let plans = |e: &Engine| e.enumerator().unwrap().plans().as_ptr();
        assert!(
            !std::ptr::eq(plans(&lazy_hit), plans(&primed)),
            "{}: Lazy must not adopt Eager plans",
            case.name
        );
        // the reduced query is still the shared one
        assert!(
            std::ptr::eq(
                lazy_hit.reduction().unwrap().query().clauses.as_ptr(),
                primed.reduction().unwrap().query().clauses.as_ptr()
            ),
            "{}: Lazy hit must share the reduced query ({} vs {} clauses)",
            case.name,
            lazy_hit.reduction().unwrap().query().clauses.len(),
            primed.reduction().unwrap().query().clauses.len()
        );
        let reference = build(&case.s, case.prime, &lazy, None);
        let report = |e: &Engine| e.explain().reduction.expect("reduced");
        assert_eq!(
            report(&lazy_hit),
            report(&reference),
            "{}: explain",
            case.name
        );
        assert_eq!(lazy_hit.skip_limits(), reference.skip_limits());
        large_levels += lazy_hit
            .enumerator()
            .unwrap()
            .plans()
            .iter()
            .map(|p| p.levels.len())
            .sum::<usize>();
        assert_identical(case.name, &case.s, &lazy_hit, &reference);
        // the slot keeps the first (Eager) plans: a later Eager hit still
        // shares them, a later Lazy build builds again
        let eager_hit = build(&case.s, case.variant, &eager, Some(&cache));
        assert!(std::ptr::eq(plans(&eager_hit), plans(&primed)));
        let lazy_again = build(&case.s, case.prime, &lazy, Some(&cache));
        assert!(!std::ptr::eq(plans(&lazy_again), plans(&lazy_hit)));
    }
    assert!(large_levels > 0, "the cases must exercise Large levels");
}

#[test]
fn shared_plan_diagnostics_are_maxima_over_sharing_engines() {
    let case = &cases()[0];
    let lazy = config(SkipMode::Lazy);
    let cache = ArtifactCache::new();
    let a = build(&case.s, case.prime, &lazy, Some(&cache));
    let b = build(&case.s, case.variant, &lazy, Some(&cache));
    assert!(shares_artifacts(&a, &b));
    let peaks = |e: &Engine| {
        let r = e.explain().reduction.expect("reduced");
        r.clause_plans
            .iter()
            .map(|c| (c.lazy_memo_peaks.clone(), c.vset_peak))
            .collect::<Vec<_>>()
    };
    let fresh = peaks(&b);
    // a traversal through one engine shows in the other's report
    answers(&a);
    assert_eq!(peaks(&a), peaks(&b));
    assert_ne!(peaks(&b), fresh, "traversal must record watermarks");
}
