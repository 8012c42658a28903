//! Property-based agreement between the parallel answer path and the
//! serial reference.
//!
//! `Engine::par_for_each_answer` / `par_count` / `par_enumerate` cut the
//! concatenated top-level candidate lists of all clauses into tasks, run
//! the per-level skip machinery per task on the `lowdeg-par` pool, and
//! stream the answers back in task order. The contract (DESIGN §14) is
//! bit-identical *order*, not just the same set: at order-depth 0 the
//! forbidden set is empty, so the top level walks its sorted list strictly
//! sequentially and concatenating contiguous slices reproduces the serial
//! walk exactly. This suite asserts that — across all conformance query
//! shapes × the paper's degree classes × both skip modes — against a
//! forced 4-thread pool (`min_items` dropped to 1 so even tiny instances
//! exercise the parallel path), plus `first`, early `Break`,
//! restartability, tasks spanning clause boundaries, an early `Break` on an
//! answer set far too large to hold, and a panicking callback.

use lowdeg_bench::workloads::{colored, degree_classes};
use lowdeg_conformance::{QueryGen, ALL_SHAPES};
use lowdeg_core::{Engine, EngineConfig, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::Node;
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// A 4-thread pool with the per-item threshold dropped to 1: every
/// instance, however small, goes down the parallel path.
fn forced() -> ParConfig {
    ParConfig::with_threads(4).min_items(1)
}

/// Collect up to `limit` answers of the parallel visitor.
fn par_prefix(engine: &Engine, par: &ParConfig, limit: usize) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    engine.par_for_each_answer(par, |t| {
        out.push(t.to_vec());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// One full cross-check of the parallel path against the serial visitor.
fn check_parallel(engine: &Engine, src: &str, mode: SkipMode) -> Result<(), TestCaseError> {
    let par = forced();

    // serial reference
    let mut serial: Vec<Vec<Node>> = Vec::new();
    engine.for_each_answer(|t| {
        serial.push(t.to_vec());
        ControlFlow::Continue(())
    });

    // full parallel pass: bit-identical order, not just the same set
    let parallel = par_prefix(engine, &par, usize::MAX);
    prop_assert_eq!(&parallel, &serial, "`{}` order ({:?})", src, mode);

    // counts across all three routes
    prop_assert_eq!(
        engine.par_count(&par),
        serial.len() as u64,
        "`{}` par_count ({:?})",
        src,
        mode
    );
    prop_assert_eq!(
        engine.count(),
        serial.len() as u64,
        "`{}` count ({:?})",
        src,
        mode
    );

    // par_enumerate materializes the same sequence
    prop_assert_eq!(
        engine.par_enumerate(&par),
        serial.clone(),
        "`{}` par_enumerate ({:?})",
        src,
        mode
    );

    // first answer
    prop_assert_eq!(
        engine.first(),
        serial.first().cloned(),
        "`{}` first ({:?})",
        src,
        mode
    );

    // early Break yields the serial prefix
    for k in [1usize, 2, serial.len().saturating_sub(1).max(1)] {
        let prefix = par_prefix(engine, &par, k);
        let want = &serial[..k.min(serial.len())];
        prop_assert_eq!(
            &prefix[..],
            want,
            "`{}` Break after {} ({:?})",
            src,
            k,
            mode
        );
    }

    // restartability: a second full parallel pass over the same engine
    let again = par_prefix(engine, &par, usize::MAX);
    prop_assert_eq!(&again, &serial, "`{}` restart ({:?})", src, mode);

    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All conformance query shapes × degree classes × skip modes: the
    /// parallel path is observationally identical to serial.
    #[test]
    fn parallel_agrees_with_serial(seed in 0u64..500, n in 16usize..28) {
        let shapes = ALL_SHAPES;
        let mut qg = QueryGen::new(seed);
        for (ci, class) in degree_classes().into_iter().enumerate() {
            let s = colored(n, class, seed.wrapping_add(ci as u64));
            for shape in shapes {
                let src = qg.generate(shape);
                let q = parse_query(s.signature(), &src).expect("generated query parses");
                for mode in [SkipMode::Eager, SkipMode::Lazy] {
                    let config = EngineConfig {
                        skip_mode: mode,
                        eps: Epsilon::new(0.5),
                        ..EngineConfig::default()
                    };
                    // engines may legitimately reject (non-localizable);
                    // that is a skip, not a failure
                    let Ok(engine) =
                        Engine::build_configured(&s, &q, &config, &ParConfig::from_env(), None)
                    else {
                        continue;
                    };
                    check_parallel(&engine, &src, mode)?;
                }
            }
        }
    }
}

/// A serial-width pool (or one below the item threshold) falls back to the
/// delay-accounted serial visitor — same answers through the same API.
#[test]
fn serial_pool_falls_back() {
    let s = colored(24, lowdeg_gen::DegreeClass::Bounded(3), 9);
    let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
    let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
    let serial: Vec<Vec<Node>> = engine.enumerate().collect();
    for par in [ParConfig::serial(), ParConfig::with_threads(4)] {
        assert_eq!(engine.par_enumerate(&par), serial);
        assert_eq!(engine.par_count(&par), serial.len() as u64);
    }
}

/// Sentences answer through the parallel API too: one empty tuple when
/// true, none when false — via the serial fallback.
#[test]
fn sentence_parallel_fallback() {
    let s = colored(20, lowdeg_gen::DegreeClass::Bounded(3), 5);
    let q = parse_query(s.signature(), "exists x y. B(x) & R(y) & E(x, y)").unwrap();
    let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
    let serial: Vec<Vec<Node>> = engine.enumerate().collect();
    assert_eq!(engine.par_enumerate(&forced()), serial);
    assert_eq!(engine.par_count(&forced()), engine.count());
}

/// A disjunction of radius-1 pair clauses reduces to hundreds of graph
/// clauses with one or two outermost candidates each; small pools cut the
/// concatenated lists into far fewer tasks than there are clauses, so most
/// tasks run across clause boundaries. The order must still be the serial
/// one. (Clauses with an empty outermost list are covered by the task
/// planner's unit test: the reduction does not emit them here.)
#[test]
fn tasks_span_clause_boundaries() {
    let s = colored(120, lowdeg_gen::DegreeClass::Bounded(2), 3);
    let q = parse_query(
        s.signature(),
        "(B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z))) \
         | (R(x) & G(y) & !E(x, y) & (exists z. E(x, z) & G(z))) \
         | (B(x) & G(y) & E(x, y) & (exists z. E(y, z) & R(z)))",
    )
    .unwrap();
    let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
    let plans = engine.enumerator().expect("reduced engine").plans();
    // at most threads × 4 tasks at this size: far fewer than clauses
    assert!(plans.len() > 10 * 4 * 4, "{} clauses", plans.len());
    let mut serial: Vec<Vec<Node>> = Vec::new();
    engine.for_each_answer(|t| {
        serial.push(t.to_vec());
        ControlFlow::Continue(())
    });
    assert!(!serial.is_empty());
    for threads in [2, 3, 4] {
        let par = ParConfig::with_threads(threads).min_items(1);
        assert_eq!(
            par_prefix(&engine, &par, usize::MAX),
            serial,
            "threads={threads}"
        );
        assert_eq!(
            engine.par_count(&par),
            serial.len() as u64,
            "threads={threads}"
        );
        let k = serial.len() / 2;
        assert_eq!(
            par_prefix(&engine, &par, k),
            serial[..k],
            "threads={threads}"
        );
    }
}

/// Breaking early on an answer set far too large to hold returns at once:
/// the workers stop within one chunk instead of producing every answer.
#[test]
fn early_break_on_huge_answer_set_returns_promptly() {
    let s = colored(4_400, lowdeg_gen::DegreeClass::Bounded(2), 11);
    let q = parse_query(
        s.signature(),
        "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    )
    .unwrap();
    let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
    assert!(engine.count() >= 1_000_000_000, "count {}", engine.count());
    let mut serial = Vec::new();
    engine.for_each_answer(|t| {
        serial.push(t.to_vec());
        if serial.len() == 10 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    let start = Instant::now();
    let prefix = par_prefix(&engine, &forced(), 10);
    let took = start.elapsed();
    assert_eq!(prefix, serial);
    assert!(took < Duration::from_secs(5), "Break took {took:?}");
}

/// A panic in the callback reaches the caller, and does not leave the
/// caller waiting on workers.
#[test]
fn callback_panic_propagates() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let s = colored(600, lowdeg_gen::DegreeClass::Bounded(3), 4);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        assert!(engine.count() > 10_000);
        let mut seen = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.par_for_each_answer(&forced(), |_| {
                seen += 1;
                if seen == 5_000 {
                    panic!("callback exploded");
                }
                ControlFlow::Continue(())
            })
        }));
        let msg = result
            .expect_err("the panic must propagate")
            .downcast_ref::<&str>()
            .copied();
        tx.send(msg).unwrap();
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the parallel path hung after a callback panic");
    assert_eq!(msg, Some("callback exploded"));
}
