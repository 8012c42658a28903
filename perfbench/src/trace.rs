//! The traced run: the benchmark calls each layer's public function
//! itself, records a span around every call, and reports the per-layer
//! metrics. Spans stay in memory and are written out when the run ends.
//!
//! The decomposed build mirrors `Engine::build_configured`:
//! `parse_query`, `normalize`, `localize`, `GaifmanGraph::build_with`,
//! `ArtifactCache::prime_gaifman`, `Reduction::build_clause_keyed`,
//! `count_graph_query_with_adjacency_memo`,
//! `Enumerator::build_full_with_adjacency` and `TestIndex::from_reduction`.
//! Parsing is set-up, and `localize` runs again inside the reduction, so
//! the residue `trace.unattributed_ms` is the untraced
//! `Engine::build_configured` wall time minus the other spans.

use crate::alloc;
use crate::bench::{Bench, CacheSnap, CacheState};
use crate::report::{json_num, json_str, Metric};
use crate::stats::{median, Hist};
use crate::workloads::{self, Workload};
use lowdeg_core::counting::count_graph_query_with_adjacency_memo;
use lowdeg_core::reduction::DEFAULT_COMBINATION_BUDGET;
use lowdeg_core::{
    ArtifactCache, Engine, EngineConfig, Enumerator, Profiler, Reduction, TestIndex,
};
use lowdeg_locality::localize;
use lowdeg_logic::{normalize, parse_query, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{GaifmanGraph, Node, Structure};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("storage.gaifman_ms", "ms"),
    ("storage.gaifman_edges", "count"),
    ("logic.parse_us", "us"),
    ("logic.normalize_us", "us"),
    ("logic.rewrites", "count"),
    ("locality.localize_ms", "ms"),
    ("locality.radius", "count"),
    ("core.reduction_ms", "ms"),
    ("core.reduction.cluster_vertices", "count"),
    ("core.reduction.e_pairs", "count"),
    ("core.reduction.alloc_mb", "MiB"),
    ("core.reduction.retained_mb", "MiB"),
    ("core.counting_ms", "ms"),
    ("core.counting.memo_hits", "count"),
    ("core.counting.memo_misses", "count"),
    ("core.enumerate.build_ms", "ms"),
    ("core.enumerate.skip_entries", "count"),
    ("core.enumerate.retained_mb", "MiB"),
    ("core.enumerate.ops_p50", "count"),
    ("core.enumerate.ops_max", "count"),
    ("core.testing.build_ms", "ms"),
    ("core.testing.probe_ns", "ns"),
    ("core.artifacts.core_hits", "count"),
    ("core.artifacts.core_misses", "count"),
    ("core.artifacts.clause_hits", "count"),
    ("core.artifacts.evictions", "count"),
    ("core.artifacts.hit_ratio", "1"),
    ("core.engine.distinct_cores", "count"),
    ("core.engine.distinct_clauses", "count"),
    ("core.engine.clause_cache_hits", "count"),
    ("core.engine.workload_ms", "ms"),
    ("locality.modelcheck_ms", "ms"),
    ("par.answer_speedup", "1"),
    ("par.build_speedup", "1"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "1"),
];

/// Repetitions of each traced measurement (medians are reported). The
/// decomposed build repeats up to this often while `--seconds` lasts.
const REPS: usize = 3;

/// The layer spans must account for all but this share of the untraced
/// build wall time, or the run fails: a layer function that was renamed,
/// removed or bypassed shows up as residue. Spans may exceed the build:
/// the public counting entry point lacks the engine's clause-combination
/// memo tier, so on `query-batch` the decomposed counting does more work.
pub const RESIDUE_MAX_FRAC: f64 = 0.35;

/// Membership probes timed per batch for `core.testing.probe_ns`.
const PROBE_BATCH: usize = 1000;

const MIB: f64 = 1024.0 * 1024.0;

/// One recorded span.
pub struct Span {
    /// Layer function (or phase) name.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Bytes allocated inside the span.
    pub alloc_bytes: u64,
    /// Bytes freed inside the span.
    pub freed_bytes: u64,
    /// Work counts recorded at the span.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Bytes still held at the end of the span that it allocated.
    fn retained(&self) -> f64 {
        self.alloc_bytes.saturating_sub(self.freed_bytes) as f64
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            alloc_bytes: 0,
            freed_bytes: 0,
            counts: Vec::new(),
        });
        self.stack.push(id);
        let (a0, f0) = (alloc::allocated(), alloc::freed());
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        span.alloc_bytes = alloc::allocated() - a0;
        span.freed_bytes = alloc::freed() - f0;
        self.stack.pop();
        (out, id)
    }

    fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let counts: Vec<String> = s
                    .counts
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                    .collect();
                format!(
                    "{{\"name\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                     \"alloc_bytes\": {}, \"freed_bytes\": {}, \"counts\": {{{}}}}}",
                    json_str(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns,
                    s.alloc_bytes,
                    s.freed_bytes,
                    counts.join(", ")
                )
            })
            .collect();
        format!("[{}]", spans.join(", "))
    }
}

/// Per-repetition sums of the per-layer quantities.
type Acc = BTreeMap<&'static str, f64>;

fn add(acc: &mut Acc, key: &'static str, v: f64) {
    *acc.entry(key).or_insert(0.0) += v;
}

fn max(acc: &mut Acc, key: &'static str, v: f64) {
    let e = acc.entry(key).or_insert(v);
    *e = e.max(v);
}

/// The spans that make up the build (everything but parsing and the
/// stand-alone `localize`).
const BUILD_SPANS: [&str; 7] = [
    "logic.normalize",
    "storage.gaifman",
    "core.artifacts.prime_gaifman",
    "core.reduction",
    "core.counting",
    "core.enumerate.build",
    "core.testing.build",
];

/// The decomposed build of `texts` over a fresh structure and cache.
/// Returns the per-layer sums and each query's count.
fn pipeline(
    t: &mut Tracer,
    par: ParConfig,
    cfg: EngineConfig,
    s: &Structure,
    texts: &[String],
) -> Result<(Acc, Vec<u64>), String> {
    let cache = ArtifactCache::new();
    let mut acc = Acc::new();
    let mut counts = Vec::new();
    let mut gaifman_built = false;
    let (res, root) = t.span("build", |t| -> Result<(), String> {
        for text in texts {
            let (q, id) = t.span("logic.parse", |_| parse_query(s.signature(), text));
            add(&mut acc, "logic.parse_us", t.spans[id].secs() * 1e6);
            let q = q.map_err(|e| format!("{text}: {e}"))?;
            let (nf, id) = t.span("logic.normalize", |_| normalize(&q));
            add(&mut acc, "logic.normalize_us", t.spans[id].secs() * 1e6);
            add(&mut acc, "logic.rewrites", nf.rewrite_names().len() as f64);
            let (local, id) = t.span("locality.localize", |_| localize(s, &nf.query));
            add(&mut acc, "locality.localize_ms", t.spans[id].secs() * 1e3);
            max(
                &mut acc,
                "locality.radius",
                local.map_err(|e| e.to_string())?.radius as f64,
            );
            if !gaifman_built {
                let (g, id) = t.span("storage.gaifman", |_| GaifmanGraph::build_with(s, &par));
                let edges = (g.mean_degree() * g.len() as f64 / 2.0).round();
                t.count(id, "edges", edges);
                add(&mut acc, "storage.gaifman_ms", t.spans[id].secs() * 1e3);
                add(&mut acc, "storage.gaifman_edges", edges);
                s.adopt_gaifman(g);
                gaifman_built = true;
            }
            t.span("core.artifacts.prime_gaifman", |_| {
                cache.prime_gaifman(s, &par)
            });
            let clause_fps: Vec<u64> = nf.clauses.iter().map(|c| c.fingerprint).collect();
            let (red, id) = t.span("core.reduction", |_| {
                Reduction::build_clause_keyed(
                    s,
                    &nf.query,
                    cfg.eps,
                    DEFAULT_COMBINATION_BUDGET,
                    &par,
                    Some(&cache),
                    &Profiler::new(),
                    Some(nf.fingerprint),
                    Some(&clause_fps),
                )
            });
            let red = red.map_err(|e| e.to_string())?;
            let (vertices, pairs) = (
                red.graph().cardinality() as f64,
                red.adjacency().pair_count() as f64,
            );
            t.count(id, "cluster_vertices", vertices);
            t.count(id, "e_pairs", pairs);
            add(&mut acc, "core.reduction_ms", t.spans[id].secs() * 1e3);
            add(
                &mut acc,
                "core.reduction.alloc_mb",
                t.spans[id].alloc_bytes as f64 / MIB,
            );
            add(
                &mut acc,
                "core.reduction.retained_mb",
                t.spans[id].retained() / MIB,
            );
            max(&mut acc, "core.reduction.cluster_vertices", vertices);
            max(&mut acc, "core.reduction.e_pairs", pairs);

            let memo = cache.counting_memo(s.fingerprint(), red.radius(), red.arity(), cfg.eps);
            let (h0, m0) = memo.stats();
            let (count, id) = t.span("core.counting", |_| {
                count_graph_query_with_adjacency_memo(
                    red.graph(),
                    red.query(),
                    red.adjacency(),
                    &par,
                    Some(&memo),
                )
            });
            let count = count.map_err(|e| e.to_string())?;
            let (h1, m1) = memo.stats();
            t.count(id, "memo_hits", (h1 - h0) as f64);
            t.count(id, "memo_misses", (m1 - m0) as f64);
            add(&mut acc, "core.counting_ms", t.spans[id].secs() * 1e3);
            add(&mut acc, "core.counting.memo_hits", (h1 - h0) as f64);
            add(&mut acc, "core.counting.memo_misses", (m1 - m0) as f64);

            let positions =
                cache.position_memo(s.fingerprint(), red.radius(), red.arity(), cfg.eps);
            let (enumerator, id) = t.span("core.enumerate.build", |_| {
                Enumerator::build_full_with_adjacency(
                    red.graph(),
                    red.query(),
                    red.adjacency().clone(),
                    cfg.skip_mode,
                    cfg.eps,
                    cfg.skip_limits(),
                    &par,
                    &Profiler::new(),
                    Some(&positions),
                )
            });
            add(
                &mut acc,
                "core.enumerate.build_ms",
                t.spans[id].secs() * 1e3,
            );
            add(
                &mut acc,
                "core.enumerate.retained_mb",
                t.spans[id].retained() / MIB,
            );
            let (index, id) = t.span("core.testing.build", |_| {
                TestIndex::from_reduction(red, cfg.eps)
            });
            add(&mut acc, "core.testing.build_ms", t.spans[id].secs() * 1e3);
            counts.push(count);
            drop((enumerator, index));
        }
        Ok(())
    });
    res?;
    let build: f64 = t.spans[root..]
        .iter()
        .filter(|sp| BUILD_SPANS.contains(&sp.name))
        .map(Span::secs)
        .sum();
    acc.insert("attributed_ms", build * 1e3);
    let parse: f64 = t.spans[root..]
        .iter()
        .filter(|sp| sp.name == "logic.parse")
        .map(Span::secs)
        .sum();
    acc.insert("build_ms", (t.spans[root].secs() - parse) * 1e3);
    Ok((acc, counts))
}

/// A fresh copy of a workload's input: its structure and the queries it
/// builds cold (parsed), with their texts.
struct Fresh {
    s: Structure,
    texts: Vec<String>,
    queries: Vec<Query>,
}

fn fresh(w: Workload, seed: u64) -> Result<Fresh, String> {
    let (s, texts) = match w {
        Workload::AnswerStream => {
            let inp = workloads::answer_stream_setup(seed)?;
            (inp.s, vec![workloads::RUNNING.text()])
        }
        Workload::WriteRebuild => {
            let inp = workloads::write_rebuild_setup(seed)?;
            let s = inp.versions.into_iter().next().ok_or("no versions")?;
            (s, vec![workloads::scatter(workloads::PERMS[0])])
        }
        Workload::QueryBatch => {
            let inp = workloads::query_batch_setup(seed)?;
            let texts = workloads::PAIRS
                .iter()
                .map(|&(a, c)| {
                    crate::inputs::disjunction(&[workloads::CLAUSES[a], workloads::CLAUSES[c]])
                })
                .collect();
            (inp.s, texts)
        }
    };
    let queries = texts
        .iter()
        .map(|text| parse_query(s.signature(), text).map_err(|e| format!("{text}: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Fresh { s, texts, queries })
}

/// Untraced cold builds of `f.queries`, one after another through one
/// fresh cache, on `par`. Returns the wall time, counts and eager skip
/// table entries.
fn reference(b: &mut Bench, f: &Fresh, par: ParConfig) -> Option<(f64, Vec<u64>, f64)> {
    let config = b.config;
    let cache = ArtifactCache::new();
    let t = Instant::now();
    let engines = b.ledger.op("trace reference build", || {
        f.queries
            .iter()
            .map(|q| Engine::build_configured(&f.s, q, &config, &par, Some(&cache)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())
    });
    let secs = t.elapsed().as_secs_f64();
    let engines = engines?;
    let skip_entries: usize = engines
        .iter()
        .filter_map(|e| e.explain().reduction)
        .flat_map(|r| r.clause_plans)
        .map(|c| c.skip_entries)
        .sum();
    Some((
        secs,
        engines.iter().map(Engine::count).collect(),
        skip_entries as f64,
    ))
}

/// The workload's cache-using build sequence (the same builds, in the
/// same cache states, as the end-to-end run), on one cache.
struct Sequence {
    s: Structure,
    cache: ArtifactCache,
    reads: Vec<(Arc<Engine>, Query)>,
    /// Closed queries with their truth values.
    closures: Vec<(Query, bool)>,
    batch: Vec<Query>,
}

fn sequence(w: Workload, b: &mut Bench) -> Option<Sequence> {
    let seed = b.seed;
    let cache = ArtifactCache::new();
    match w {
        Workload::AnswerStream => {
            let inp = b
                .ledger
                .op("trace setup", || workloads::answer_stream_setup(seed))?;
            let s = &inp.s;
            let e = b.build("trace cold build", s, &inp.query, &cache, CacheState::Cold)?;
            let mut batch = vec![inp.query.clone()];
            for (_, q) in &inp.warm {
                b.build("trace warm build", s, q, &cache, CacheState::Warm);
                batch.push(q.clone());
            }
            for q in &inp.hits {
                b.build("trace hit build", s, q, &cache, CacheState::Hit);
                batch.push(q.clone());
            }
            let expected = e.count() > 0;
            Some(Sequence {
                reads: vec![(Arc::new(e), inp.query.clone())],
                closures: vec![(inp.closure.clone(), expected)],
                batch,
                cache,
                s: inp.s,
            })
        }
        Workload::WriteRebuild => {
            let inp = b
                .ledger
                .op("trace setup", || workloads::write_rebuild_setup(seed))?;
            let mut previous = None;
            let mut expected = false;
            for s in inp.versions.iter().take(2) {
                if let Some(fp) = previous {
                    cache.invalidate(fp);
                }
                previous = Some(s.fingerprint());
                let cold = b.build(
                    "trace cold build",
                    s,
                    &inp.perms[0],
                    &cache,
                    CacheState::Cold,
                );
                expected = cold.is_some_and(|e| e.count() > 0);
                for q in &inp.perms[1..] {
                    b.build("trace warm build", s, q, &cache, CacheState::Warm);
                }
                for q in &inp.hits {
                    b.build("trace hit build", s, q, &cache, CacheState::Hit);
                }
            }
            let s = inp.versions.into_iter().nth(1)?;
            let (config, serial) = (b.config, b.serial);
            let companion = b.ledger.op("trace companion build", || {
                Engine::build_configured(&s, &inp.companion, &config, &serial, Some(&cache))
                    .map_err(|e| e.to_string())
            })?;
            let mut batch = inp.perms.clone();
            batch.extend(inp.hits.iter().cloned());
            Some(Sequence {
                reads: vec![(Arc::new(companion), inp.companion.clone())],
                closures: vec![(inp.closure.clone(), expected)],
                batch,
                cache,
                s,
            })
        }
        Workload::QueryBatch => {
            let inp = b
                .ledger
                .op("trace setup", || workloads::query_batch_setup(seed))?;
            let s = &inp.s;
            let engines = workloads::build_batch(b, s, &inp.batch, &cache)?;
            let engines_nonempty: Vec<bool> = engines.iter().map(|e| e.count() > 0).collect();
            for q in &inp.hits {
                b.build("trace hit build", s, q, &cache, CacheState::Hit);
            }
            for (_, q) in &inp.warm {
                b.build("trace warm build", s, q, &cache, CacheState::Warm);
            }
            Some(Sequence {
                reads: engines.into_iter().zip(inp.batch.iter().cloned()).collect(),
                closures: inp.closures.iter().cloned().zip(engines_nonempty).collect(),
                batch: inp.batch.clone(),
                cache,
                s: inp.s,
            })
        }
    }
}

fn stream_secs(engine: &Engine, par: &ParConfig) -> (f64, u64) {
    let mut n = 0u64;
    let t = Instant::now();
    engine.par_for_each_answer(par, |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    (t.elapsed().as_secs_f64(), n)
}

/// Run the traced measurements of `w`. Returns the per-layer metrics and
/// the span list as JSON.
pub fn run(w: Workload, b: &mut Bench) -> (Vec<Metric>, String) {
    let mut t = Tracer::new();
    let mut m: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let seed = b.seed;

    // Untraced reference builds, and the decomposed build with the
    // counting allocator off and on, each on a fresh structure and cache,
    // interleaved.
    let (mut reference_s, mut layers) = (Vec::new(), Vec::<Acc>::new());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut skip_entries = 0.0;
    let (par, cfg) = (b.serial, b.config);
    'reps: for rep in 0..REPS {
        if rep > 0 && b.done() {
            break;
        }
        let Some(f) = b.ledger.op("trace setup", || fresh(w, seed)) else {
            break;
        };
        let Some((secs, counts, skips)) = reference(b, &f, b.serial) else {
            break;
        };
        reference_s.push(secs);
        skip_entries = skips;
        for traced in [false, true] {
            let Some(f) = b.ledger.op("trace setup", || fresh(w, seed)) else {
                break 'reps;
            };
            let mut scratch = Tracer::new();
            let tracer = if traced { &mut t } else { &mut scratch };
            alloc::set_counting(traced);
            let res = b.ledger.op("trace pipeline", || {
                pipeline(tracer, par, cfg, &f.s, &f.texts)
            });
            alloc::set_counting(false);
            let Some((acc, pipeline_counts)) = res else {
                break 'reps;
            };
            b.ledger
                .check("trace pipeline count", pipeline_counts == counts, || {
                    format!("decomposed counts {pipeline_counts:?}, engine counts {counts:?}")
                });
            if traced {
                traced_s.push(acc["build_ms"]);
                layers.push(acc);
            } else {
                untraced_s.push(acc["build_ms"]);
            }
        }
    }
    let per_rep = |key: &str| -> Vec<f64> {
        layers
            .iter()
            .map(|a| a.get(key).copied().unwrap_or(0.0))
            .collect()
    };
    for (name, _) in PER_LAYER {
        if layers.first().is_some_and(|a| a.contains_key(name)) {
            let v = per_rep(name);
            m.insert(name, (median(&v).unwrap_or(0.0), v.len() as u64));
        }
    }
    if !reference_s.is_empty() {
        m.insert("core.enumerate.skip_entries", (skip_entries, 1));
    }
    if let (Some(reference), Some(attributed), Some(traced), Some(untraced)) = (
        median(&reference_s),
        median(&per_rep("attributed_ms")),
        median(&traced_s),
        median(&untraced_s),
    ) {
        let unattributed = reference * 1e3 - attributed;
        m.insert(
            "trace.unattributed_ms",
            (unattributed, reference_s.len() as u64),
        );
        m.insert(
            "trace.overhead_frac",
            (traced / untraced - 1.0, traced_s.len() as u64),
        );
        let share = unattributed / (reference * 1e3);
        b.ledger
            .check("trace residue", share <= RESIDUE_MAX_FRAC, || {
                format!(
                "layer spans cover {attributed:.1} ms of a {:.1} ms build ({:.0}% unattributed)",
                reference * 1e3,
                share * 100.0
            )
            });
    }

    // The workload's cached build sequence: cache tiers, planner, model
    // check and the answer path of its read engines.
    if let Some(seq) = sequence(w, b) {
        let snap = CacheSnap::of(&seq.cache);
        let probes = snap.hits + snap.misses + snap.clause_hits + snap.clause_misses;
        m.insert("core.artifacts.core_hits", (snap.hits as f64, 1));
        m.insert("core.artifacts.core_misses", (snap.misses as f64, 1));
        m.insert("core.artifacts.clause_hits", (snap.clause_hits as f64, 1));
        m.insert(
            "core.artifacts.evictions",
            (seq.cache.evictions() as f64, 1),
        );
        m.insert(
            "core.artifacts.hit_ratio",
            (
                (snap.hits + snap.clause_hits) as f64 / probes.max(1) as f64,
                probes,
            ),
        );

        if let Some(f) = b.ledger.op("trace setup", || fresh(w, seed)) {
            let refs: Vec<&Query> = seq.batch.iter().collect();
            let (config, serial) = (b.config, b.serial);
            let cache = ArtifactCache::new();
            let (built, id) = t.span("core.engine.workload", |_| {
                Engine::build_workload(&f.s, &refs, &config, &serial, &cache)
            });
            let secs = t.spans[id].secs();
            if let Some((_, stats)) = b
                .ledger
                .op("trace workload build", || built.map_err(|e| e.to_string()))
            {
                m.insert(
                    "core.engine.distinct_cores",
                    (stats.distinct_cores as f64, 1),
                );
                m.insert(
                    "core.engine.distinct_clauses",
                    (stats.distinct_clauses as f64, 1),
                );
                m.insert(
                    "core.engine.clause_cache_hits",
                    (stats.clause_cache_hits as f64, 1),
                );
                m.insert("core.engine.workload_ms", (secs * 1e3, 1));
            }
        }

        let mut mc = Vec::new();
        for _ in 0..REPS {
            for (closure, expected) in seq.closures.iter().take(4) {
                let (got, id) = t.span("locality.modelcheck", |_| {
                    Engine::model_check(&seq.s, closure)
                });
                mc.push(t.spans[id].secs() * 1e3);
                if let Some(got) = b
                    .ledger
                    .op("trace model check", || got.map_err(|e| e.to_string()))
                {
                    let expected = *expected;
                    b.ledger.check("trace model check", got == expected, || {
                        format!("model check {got}")
                    });
                }
            }
        }
        if let Some(x) = median(&mc) {
            m.insert("locality.modelcheck_ms", (x, mc.len() as u64));
        }

        let mut ops = Hist::default();
        let mut probe_ns = Vec::new();
        for (engine, _) in &seq.reads {
            let (sample, _) = t.span("core.enumerate.ops", |_| {
                let mut sample: Vec<Vec<Node>> = Vec::new();
                let stride = (engine.count() / 1000).max(1);
                let mut i = 0u64;
                engine.for_each_answer_with_ops(|a, o| {
                    ops.record(o);
                    if i.is_multiple_of(stride) {
                        sample.push(a.to_vec());
                    }
                    i += 1;
                    ControlFlow::Continue(())
                });
                sample
            });
            let Some(index) = engine.test_index() else {
                continue;
            };
            let tuples = b.probe_tuples(engine.arity(), seq.s.cardinality(), &sample, PROBE_BATCH);
            for _ in 0..REPS {
                let (hits, id) = t.span("core.testing.probe", |_| {
                    tuples
                        .iter()
                        .filter(|tu| index.test(tu).unwrap_or(false))
                        .count()
                });
                std::hint::black_box(hits);
                probe_ns.push(t.spans[id].secs() * 1e9 / PROBE_BATCH as f64);
            }
        }
        if !ops.is_empty() {
            m.insert(
                "core.enumerate.ops_p50",
                (ops.quantile(0.5).unwrap_or(0.0).floor(), ops.len()),
            );
            m.insert("core.enumerate.ops_max", (ops.max() as f64, ops.len()));
        }
        if let Some(x) = median(&probe_ns) {
            m.insert("core.testing.probe_ns", (x, probe_ns.len() as u64));
        }

        // Parallel speed-ups: the answer stream of the read engines, and
        // a cold build, each at 1 thread and at the `par_` thread count.
        let (mut one, mut many) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let (mut a, mut c) = (0.0, 0.0);
            for (engine, _) in &seq.reads {
                let ((s1, n1), _) = t.span("par.stream_serial", |_| {
                    stream_secs(engine, &ParConfig::serial())
                });
                let ((s2, n2), _) = t.span("par.stream_par", |_| stream_secs(engine, &b.par));
                b.ledger.check("trace parallel count", n1 == n2, || {
                    format!("{n1} vs {n2} answers")
                });
                a += s1;
                c += s2;
            }
            one.push(a);
            many.push(c);
        }
        if let (Some(a), Some(c)) = (median(&one), median(&many)) {
            m.insert("par.answer_speedup", (a / c, one.len() as u64));
        }
    }
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (par, out) in [(b.serial, &mut one), (b.par, &mut many)] {
            let Some(f) = b.ledger.op("trace setup", || fresh(w, seed)) else {
                continue;
            };
            let f = Fresh {
                queries: f.queries.into_iter().take(1).collect(),
                ..f
            };
            if let Some((secs, _, _)) = reference(b, &f, par) {
                out.push(secs);
            }
        }
    }
    if let (Some(a), Some(c)) = (median(&one), median(&many)) {
        m.insert("par.build_speedup", (a / c, one.len() as u64));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let got = m.get(name).copied();
            Metric {
                name,
                unit,
                value: got.map(|g| g.0),
                samples: got.map_or(0, |g| g.1),
            }
        })
        .collect();
    (metrics, t.to_json())
}
