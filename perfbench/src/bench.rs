//! The measuring context shared by the workloads: sample lists, latency
//! histograms, the failure ledger, and the user-path operations every
//! workload times (build, first answer, serial, delay and parallel
//! streams, membership probes, model checking).

use crate::inputs::Rng;
use crate::report::Ledger;
use crate::stats::Hist;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_logic::eval::check_naive;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Instant;

/// How many times each set-up is repeated per pass (its median is
/// `setup_s`).
pub const SETUP_REPS: usize = 3;

/// A p99 needs at least this many samples.
pub const P99_MIN_SAMPLES: u64 = 1000;

/// The state of the [`ArtifactCache`] a timed build claims to run in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheState {
    /// Nothing of the structure is cached: every artifact is built.
    Cold,
    /// The reduction core is cached; the query's own Step 5 acceptance or
    /// count is not.
    Warm,
    /// Every artifact of the query is cached.
    Hit,
}

/// The cache counters a build moves.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheSnap {
    /// Keyed-artifact hits (Gaifman graph, reduction core, Step 5 product).
    pub hits: u64,
    /// Keyed-artifact misses.
    pub misses: u64,
    /// Clause-tier hits.
    pub clause_hits: u64,
    /// Clause-tier misses.
    pub clause_misses: u64,
    /// Counting-memo component hits.
    pub memo_hits: u64,
    /// Counting-memo component misses.
    pub memo_misses: u64,
}

impl CacheSnap {
    /// Read the counters of `cache`.
    pub fn of(cache: &ArtifactCache) -> CacheSnap {
        let (hits, misses) = cache.stats();
        let (clause_hits, clause_misses, _) = cache.clause_stats();
        let (memo_hits, memo_misses, _) = cache.counting_stats();
        CacheSnap {
            hits,
            misses,
            clause_hits,
            clause_misses,
            memo_hits,
            memo_misses,
        }
    }

    /// What moved between `self` (before) and `after`.
    pub fn delta(self, after: CacheSnap) -> CacheSnap {
        CacheSnap {
            hits: after.hits.saturating_sub(self.hits),
            misses: after.misses.saturating_sub(self.misses),
            clause_hits: after.clause_hits.saturating_sub(self.clause_hits),
            clause_misses: after.clause_misses.saturating_sub(self.clause_misses),
            memo_hits: after.memo_hits.saturating_sub(self.memo_hits),
            memo_misses: after.memo_misses.saturating_sub(self.memo_misses),
        }
    }

    /// Whether this delta is the cache state `state` claims: a cold build
    /// is served no artifact; a warm build is served the core and misses
    /// on the query's Step 5 product or count; a hit build misses nothing.
    pub fn shows(&self, state: CacheState) -> bool {
        match state {
            CacheState::Cold => self.hits == 0 && self.misses > 0,
            CacheState::Warm => self.hits > 0 && (self.misses > 0 || self.memo_misses > 0),
            CacheState::Hit => self.misses == 0 && self.clause_misses == 0 && self.memo_misses == 0,
        }
    }
}

/// One full pass over an engine's answers.
pub struct StreamPass {
    /// Answers seen.
    pub count: u64,
    /// Order-sensitive checksum of the answers.
    pub checksum: u64,
    /// Wall time of the pass.
    pub secs: f64,
    /// Every `stride`-th answer, for the naive check and the probes.
    pub sample: Vec<Vec<Node>>,
}

/// Fold one answer into an order-sensitive checksum.
#[inline]
pub fn fold(mut h: u64, answer: &[Node]) -> u64 {
    for n in answer {
        h = (h.rotate_left(5) ^ n.0 as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h.rotate_left(7) ^ 0xff
}

/// The measuring context of one run.
pub struct Bench {
    /// The workload seed.
    pub seed: u64,
    /// When the measured part of the run ends.
    pub deadline: Instant,
    /// The single-thread pool every arm without `par_` uses.
    pub serial: ParConfig,
    /// The pool of the `par_` arms: `min(nproc, 2)` threads.
    pub par: ParConfig,
    /// The engine configuration of every build (the library default).
    pub config: EngineConfig,
    /// Failure accounting.
    pub ledger: Ledger,
    /// Sample lists by metric name: one sample per round.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Values recorded in the current round, by metric name.
    round: BTreeMap<&'static str, Vec<f64>>,
    /// Serial inter-answer wall delays of the current round, ns.
    delay: Hist,
    /// `Engine::test` latencies of the current round, ns.
    test: Hist,
    /// Delays and probe latencies recorded over the whole run.
    pub latency_samples: BTreeMap<&'static str, u64>,
    /// The benchmark's own random choices (probe tuples).
    pub rng: Rng,
}

impl Bench {
    /// A context for `seed` measuring until `deadline`.
    pub fn new(seed: u64, deadline: Instant, par_threads: usize) -> Bench {
        Bench {
            seed,
            deadline,
            serial: ParConfig::serial(),
            par: ParConfig::with_threads(par_threads),
            config: EngineConfig::default(),
            ledger: Ledger::default(),
            samples: BTreeMap::new(),
            round: BTreeMap::new(),
            delay: Hist::default(),
            test: Hist::default(),
            latency_samples: BTreeMap::new(),
            rng: Rng::new(seed, 0x7e57),
        }
    }

    /// Record one value of `metric` in the current round.
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.round.entry(metric).or_default().push(value);
    }

    /// Close the current round: each metric's values in it become one
    /// sample, their mean, and the round's delay and probe histograms one
    /// p50 and one p99 sample each (a p99 only from at least
    /// [`P99_MIN_SAMPLES`] values). A round (a pass, or one version of
    /// `write-rebuild`) holds the same mix of operations every time, so
    /// medians over rounds neither jump between the operations of a mix
    /// nor follow one burst of interference.
    pub fn end_round(&mut self) {
        for (metric, values) in std::mem::take(&mut self.round) {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            self.samples.entry(metric).or_default().push(mean);
        }
        let latencies = [
            ("delay", "delay_p50_ns", "delay_p99_ns", &mut self.delay),
            ("test", "test_p50_ns", "test_p99_ns", &mut self.test),
        ];
        for (name, p50, p99, hist) in latencies {
            let h = std::mem::take(hist);
            *self.latency_samples.entry(name).or_default() += h.len();
            if let Some(v) = h.quantile(0.5) {
                self.samples.entry(p50).or_default().push(v);
            }
            if let Some(v) = h.quantile(0.99).filter(|_| h.len() >= P99_MIN_SAMPLES) {
                self.samples.entry(p99).or_default().push(v);
            }
        }
    }

    /// Whether the measuring time is over.
    pub fn done(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Run `setup` [`SETUP_REPS`] times, recording each wall time as a
    /// `setup_s` sample, and keep the last result.
    pub fn setup<T>(
        &mut self,
        what: &str,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Option<T> {
        let mut out = None;
        for _ in 0..SETUP_REPS {
            drop(out.take());
            let t = Instant::now();
            out = Some(self.ledger.op(what, &mut setup)?);
            self.push("setup_s", t.elapsed().as_secs_f64());
        }
        out
    }

    /// Build `query` through `cache`, check that the cache moved as
    /// `state` claims, and record the wall time under the state's metric
    /// (`build_s`, `warm_build_ms` or `hit_build_ms`).
    pub fn build(
        &mut self,
        what: &str,
        s: &Structure,
        query: &Query,
        cache: &ArtifactCache,
        state: CacheState,
    ) -> Option<Engine> {
        let (config, serial) = (self.config, self.serial);
        let before = CacheSnap::of(cache);
        let t = Instant::now();
        let engine = self.ledger.op(what, || {
            Engine::build_configured(s, query, &config, &serial, Some(cache))
                .map_err(|e| e.to_string())
        });
        let secs = t.elapsed().as_secs_f64();
        let engine = engine?;
        let moved = before.delta(CacheSnap::of(cache));
        self.ledger
            .check(&format!("{what}: cache state"), moved.shows(state), || {
                format!("claimed {state:?}, counters moved {moved:?}")
            });
        match state {
            CacheState::Cold => self.push("build_s", secs),
            CacheState::Warm => self.push("warm_build_ms", secs * 1e3),
            CacheState::Hit => self.push("hit_build_ms", secs * 1e3),
        }
        Some(engine)
    }

    /// Check a count against its ground truth.
    pub fn check_count(&mut self, what: &str, got: u64, expected: u64) {
        self.ledger.check(what, got == expected, || {
            format!("count {got}, expected {expected}")
        });
    }

    /// Time the first answer of a freshly built engine (`first_answer_us`)
    /// and check it against the naive evaluator.
    pub fn first_answer(&mut self, what: &str, engine: &Engine, s: &Structure, query: &Query) {
        let t = Instant::now();
        let first = engine.first();
        self.push("first_answer_us", t.elapsed().as_secs_f64() * 1e6);
        let ok = match &first {
            Some(a) => check_naive(s, query, a),
            None => engine.count() == 0,
        };
        self.ledger
            .check(what, ok, || format!("first answer {first:?} is wrong"));
    }

    /// One timed serial pass over every answer, keeping about `keep`
    /// evenly spaced answers.
    pub fn serial_pass(&mut self, what: &str, engine: &Engine, keep: usize) -> Option<StreamPass> {
        let stride = (engine.count() / keep.max(1) as u64).max(1);
        self.ledger.op(what, || {
            let mut pass = StreamPass {
                count: 0,
                checksum: 0,
                secs: 0.0,
                sample: Vec::with_capacity(keep + 1),
            };
            let mut countdown = 0u64;
            let t = Instant::now();
            engine.for_each_answer(|a| {
                if countdown == 0 {
                    pass.sample.push(a.to_vec());
                    countdown = stride;
                }
                countdown -= 1;
                pass.count += 1;
                pass.checksum = fold(pass.checksum, a);
                ControlFlow::Continue(())
            });
            pass.secs = t.elapsed().as_secs_f64();
            Ok(pass)
        })
    }

    /// One serial pass recording the wall delay before every answer into
    /// the delay histogram. Returns the number of answers.
    pub fn delay_pass(&mut self, what: &str, engine: &Engine) -> Option<u64> {
        let hist = &mut self.delay;
        self.ledger.op(what, || {
            let mut count = 0u64;
            let mut last = Instant::now();
            engine.for_each_answer(|_| {
                let now = Instant::now();
                hist.record(now.duration_since(last).as_nanos() as u64);
                last = now;
                count += 1;
                ControlFlow::Continue(())
            });
            Ok(count)
        })
    }

    /// One timed pass of the sharded parallel stream. Returns `(answers,
    /// checksum, seconds)`.
    pub fn par_pass(&mut self, what: &str, engine: &Engine) -> Option<(u64, u64, f64)> {
        let par = self.par;
        self.ledger.op(what, || {
            let (mut count, mut checksum) = (0u64, 0u64);
            let t = Instant::now();
            engine.par_for_each_answer(&par, |a| {
                count += 1;
                checksum = fold(checksum, a);
                ControlFlow::Continue(())
            });
            Ok((count, checksum, t.elapsed().as_secs_f64()))
        })
    }

    /// `probes` membership tests: even ones on known answers, odd ones on
    /// uniformly random tuples. The probes run back to back, each timed
    /// into the test histogram; then each result is checked against the
    /// naive evaluator.
    pub fn probes(
        &mut self,
        what: &str,
        engine: &Engine,
        s: &Structure,
        query: &Query,
        answers: &[Vec<Node>],
        probes: usize,
    ) {
        let tuples = self.probe_tuples(engine.arity(), s.cardinality(), answers, probes);
        let mut results = Vec::with_capacity(probes);
        for tuple in &tuples {
            let t = Instant::now();
            let got = engine.test(tuple);
            self.test.record(t.elapsed().as_nanos() as u64);
            results.push(got);
        }
        for (tuple, got) in tuples.iter().zip(results) {
            let expected = check_naive(s, query, tuple);
            self.ledger.check(what, got == expected, || {
                format!("test({tuple:?}) = {got}, naive says {expected}")
            });
        }
    }

    /// `count` probe tuples: even ones drawn in turn from `answers`, odd
    /// ones uniformly random over a domain of `n` nodes.
    pub fn probe_tuples(
        &mut self,
        arity: usize,
        n: usize,
        answers: &[Vec<Node>],
        count: usize,
    ) -> Vec<Vec<Node>> {
        (0..count)
            .map(|i| match answers.get((i / 2) % answers.len().max(1)) {
                Some(a) if i % 2 == 0 => a.clone(),
                _ => (0..arity).map(|_| Node(self.rng.below(n) as u32)).collect(),
            })
            .collect()
    }

    /// Check sampled answers against the naive evaluator.
    pub fn check_answers(
        &mut self,
        what: &str,
        s: &Structure,
        query: &Query,
        answers: &[Vec<Node>],
    ) {
        for a in answers {
            self.ledger.check(what, check_naive(s, query, a), || {
                format!("enumerated {a:?} is not an answer")
            });
        }
    }

    /// Time `Engine::model_check` of a closed query (`modelcheck_ms`) and
    /// check its truth value.
    pub fn model_check(&mut self, what: &str, s: &Structure, sentence: &Query, expected: bool) {
        let t = Instant::now();
        let got = self.ledger.op(what, || {
            Engine::model_check(s, sentence).map_err(|e| e.to_string())
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(got) = got {
            self.push("modelcheck_ms", ms);
            self.ledger.check(what, got == expected, || {
                format!("model check {got}, expected {expected}")
            });
        }
    }

    /// Full serial, delay and parallel passes over the engines of `reads`
    /// (one `answers_per_s` and `par_answers_per_s` value over all of them
    /// together), checking counts, the serial/parallel checksums and
    /// sampled answers against each engine's query. Returns the sampled
    /// answers per engine.
    pub fn read_all(
        &mut self,
        what: &str,
        s: &Structure,
        reads: &[(&Engine, &Query)],
        keep: usize,
    ) -> Vec<Vec<Vec<Node>>> {
        let mut kept = Vec::with_capacity(reads.len());
        let (mut answers, mut secs, mut par_answers, mut par_secs) = (0u64, 0.0, 0u64, 0.0);
        for (i, &(engine, query)) in reads.iter().enumerate() {
            let Some(pass) = self.serial_pass(what, engine, keep) else {
                kept.push(Vec::new());
                continue;
            };
            self.check_count(
                &format!("{what} #{i}: streamed count"),
                pass.count,
                engine.count(),
            );
            self.check_answers(
                &format!("{what} #{i}: sampled answer"),
                s,
                query,
                &pass.sample,
            );
            answers += pass.count;
            secs += pass.secs;
            if let Some(c) = self.delay_pass(what, engine) {
                self.check_count(&format!("{what} #{i}: delay-pass count"), c, pass.count);
            }
            if let Some((c, checksum, t)) = self.par_pass(what, engine) {
                self.check_count(&format!("{what} #{i}: parallel count"), c, pass.count);
                self.ledger.check(
                    &format!("{what} #{i}: parallel order"),
                    checksum == pass.checksum,
                    || "serial and parallel streams differ in order".to_string(),
                );
                par_answers += c;
                par_secs += t;
            }
            kept.push(pass.sample);
        }
        if secs > 0.0 {
            self.push("answers_per_s", answers as f64 / secs);
        }
        if par_secs > 0.0 {
            self.push("par_answers_per_s", par_answers as f64 / par_secs);
        }
        kept
    }
}
