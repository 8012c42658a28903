//! Uncached vs warm-cache engine-build wall time → `BENCH_preprocess.json`.
//!
//! ```bash
//! cargo run --release -p lowdeg-bench --bin bench_preprocess             # full scales
//! cargo run --release -p lowdeg-bench --bin bench_preprocess -- quick   # CI smoke
//! cargo run --release -p lowdeg-bench --bin bench_preprocess -- --out p.json
//! LOWDEG_THREADS=4 cargo run --release -p lowdeg-bench --bin bench_preprocess
//! ```
//!
//! Measures the full preprocessing pipeline (Prop 3.3 reduction, Lemma 3.5
//! lattice counting, E_k fixpoint + skip tables) twice per scale: cold, and
//! through a warm [`ArtifactCache`], which serves the reduction's *extract*
//! product (the query-independent core: Gaifman graph, near-pair store,
//! cluster tuples, type interning and the colored graph `G` with its
//! edges) instead of recomputing it. The workload is the ternary
//! scatter query — a reduced clause with `m = 3` negated binary atoms, so
//! the subset-lattice walk covers `2^3` inclusion–exclusion terms.
//!
//! Measurements are interleaved best-of-`REPS` after an untimed warm-up
//! (which also primes the cache), with the within-rep order swapped each
//! rep so allocator/page-cache drift cannot favor either configuration.
//! The worker pool honors `LOWDEG_THREADS`; the effective thread count is
//! recorded in the JSON alongside per-stage timings
//! (`extract → reduce → ie-count → fixpoint → skip-tables`) for both
//! configurations.
//!
//! A final *workload* scale measures the multi-query setting: four
//! color-permuted ternary scatter queries sharing one quantifier-free
//! core, built batched — one [`Engine::build_configured`] per query in
//! sequence through one cache, so one counting memo — versus four
//! independent warm builds (shared core, the memo dropped before each
//! build). The batched path must amortize the lattice walk across the
//! workload.

use lowdeg_bench::workloads::{colored, TERNARY_SCATTER};
use lowdeg_bench::{fmt_dur, time};
use lowdeg_core::{ArtifactCache, BuildProfile, Engine, EngineConfig, Stage};
use lowdeg_gen::DegreeClass;
use lowdeg_index::Epsilon;
use lowdeg_logic::{parse_query, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::Structure;
use std::path::{Path, PathBuf};
use std::time::Duration;

const EPS: f64 = 0.5;
const DEGREE: usize = 2;
const REPS: usize = 3;

/// Four color permutations of the ternary scatter clause. Identical
/// quantifier-free core — same arity, radius and colored graph, so one
/// cached `ReductionCore` serves all four — but distinct clause color
/// assignments, exercising the cross-query counting memo.
const WORKLOAD_QUERIES: [&str; 4] = [
    "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "R(x) & G(y) & B(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "G(x) & B(y) & R(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "B(x) & G(y) & R(z) & !E(x, y) & !E(y, z) & !E(x, z)",
];

struct ConfigResult {
    best: Duration,
    /// Stage profile of the fastest rep.
    profile: BuildProfile,
    count: u64,
}

impl Default for ConfigResult {
    fn default() -> Self {
        ConfigResult {
            best: Duration::MAX,
            profile: BuildProfile::default(),
            count: 0,
        }
    }
}

struct ScaleResult {
    n: usize,
    uncached: ConfigResult,
    cached: ConfigResult,
}

struct WorkloadResult {
    n: usize,
    /// Best wall time for one batched pass over the whole workload.
    batched: Duration,
    /// Best wall time for the same workload built one query at a time with
    /// a warm core but the counting memo dropped before each build.
    independent: Duration,
    counts: Vec<u64>,
}

/// The engine configuration every timed build runs under.
fn config() -> EngineConfig {
    EngineConfig {
        eps: Epsilon::new(EPS),
        ..EngineConfig::default()
    }
}

/// One timed engine build; returns the wall time, the answer count as a
/// cross-configuration checksum, and the per-stage profile.
fn build_once(
    s: &Structure,
    q: &Query,
    par: &ParConfig,
    cache: Option<&ArtifactCache>,
) -> (Duration, u64, BuildProfile) {
    let (engine, dt) =
        time(|| Engine::build_configured(s, q, &config(), par, cache).expect("localizable"));
    (dt, engine.count(), engine.profile().clone())
}

/// Best-of-`REPS` for both configurations, interleaved. The warm-up build
/// doubles as the cache-priming build: every timed cached rep afterwards is
/// served extract artifacts from the warm cache.
fn bench_scale(n: usize, src: &str, par: &ParConfig) -> ScaleResult {
    let s = colored(n, DegreeClass::Bounded(DEGREE), 1400 + n as u64);
    let q = parse_query(s.signature(), src).expect("parses");
    let cache = ArtifactCache::new();
    build_once(&s, &q, par, Some(&cache)); // warm-up, untimed; primes the cache

    let mut uncached = ConfigResult::default();
    let mut cached = ConfigResult::default();
    for rep in 0..REPS {
        // swap the within-rep order each rep to cancel residual drift
        let order: [bool; 2] = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for use_cache in order {
            let (dt, c, profile) = build_once(&s, &q, par, use_cache.then_some(&cache));
            let slot = if use_cache {
                &mut cached
            } else {
                &mut uncached
            };
            if slot.count == 0 {
                slot.count = c;
            }
            assert_eq!(
                c, slot.count,
                "build at n = {n} is not deterministic (cache = {use_cache})"
            );
            if dt < slot.best {
                slot.best = dt;
                slot.profile = profile;
            }
        }
    }
    assert_eq!(
        uncached.count, cached.count,
        "cached and uncached builds disagree on the answer count at n = {n}"
    );
    let (hits, _misses) = cache.stats();
    assert!(hits > 0, "warm reps never hit the cache at n = {n}");
    ScaleResult {
        n,
        uncached,
        cached,
    }
}

/// Batched builds through one cache vs independent warm builds over the
/// four-query workload. Both modes start from a warm core (extract and
/// reduce artifacts cached) and a cold counting memo, so the measured gap
/// is exactly the cross-query sharing of the Lemma 3.5 lattice walk.
fn bench_workload(n: usize, par: &ParConfig) -> WorkloadResult {
    let s = colored(n, DegreeClass::Bounded(DEGREE), 1400 + n as u64);
    let queries: Vec<Query> = WORKLOAD_QUERIES
        .iter()
        .map(|src| parse_query(s.signature(), src).expect("parses"))
        .collect();
    let qrefs: Vec<&Query> = queries.iter().collect();
    let config = config();
    let cache = ArtifactCache::new();
    // one engine per query, in sequence, all through `cache`: every build
    // after the first probes a counting memo warmed by its predecessors
    let build_batch = || -> Vec<u64> {
        qrefs
            .iter()
            .map(|q| {
                Engine::build_configured(&s, q, &config, par, Some(&cache))
                    .expect("localizable")
                    .count()
            })
            .collect()
    };
    // Untimed warm-up: primes the shared core and fixes the reference counts.
    let counts = build_batch();
    let fp = s.fingerprint();

    let mut batched = Duration::MAX;
    let mut independent = Duration::MAX;
    for rep in 0..REPS {
        let order: [bool; 2] = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for batch in order {
            if batch {
                cache.invalidate_counting(fp);
                let (got, dt) = time(build_batch);
                assert_eq!(got, counts, "batched workload counts diverged at n = {n}");
                batched = batched.min(dt);
            } else {
                let (got, dt) = time(|| {
                    qrefs
                        .iter()
                        .map(|q| {
                            // a fresh consumer per query: shared core, private memo
                            cache.invalidate_counting(fp);
                            Engine::build_configured(&s, q, &config, par, Some(&cache))
                                .expect("localizable")
                                .count()
                        })
                        .collect::<Vec<u64>>()
                });
                assert_eq!(
                    got, counts,
                    "independent workload counts diverged at n = {n}"
                );
                independent = independent.min(dt);
            }
        }
    }
    WorkloadResult {
        n,
        batched,
        independent,
        counts,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/bench → repo root
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_preprocess.json")
        });
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let scales: &[usize] = if quick {
        &[1 << 10, 1 << 11]
    } else {
        &[1 << 12, 1 << 13, 1 << 14]
    };
    let par = ParConfig::from_env(); // honors LOWDEG_THREADS
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "preprocess bench: query `{TERNARY_SCATTER}`, degree class bounded({DEGREE}), \
         {} thread(s), {cores} core(s), uncached vs warm artifact cache",
        par.threads()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>12}",
        "n", "uncached", "cached", "speedup", "count"
    );

    let mut results = Vec::new();
    for &n in scales {
        let r = bench_scale(n, TERNARY_SCATTER, &par);
        println!(
            "{n:>8} {:>12} {:>12} {:>8.2}x {:>12}",
            fmt_dur(r.uncached.best),
            fmt_dur(r.cached.best),
            r.uncached.best.as_secs_f64() / r.cached.best.as_secs_f64().max(1e-9),
            r.uncached.count
        );
        println!("{:>8} stages uncached: {}", "", r.uncached.profile);
        println!("{:>8} stages cached:   {}", "", r.cached.profile);
        results.push(r);
    }

    let wl = bench_workload(*scales.last().expect("non-empty scales"), &par);
    println!(
        "workload ({} queries, n = {}): batched {} vs independent {} ({:.2}x)",
        WORKLOAD_QUERIES.len(),
        wl.n,
        fmt_dur(wl.batched),
        fmt_dur(wl.independent),
        wl.independent.as_secs_f64() / wl.batched.as_secs_f64().max(1e-9)
    );

    let json = render_json(&results, &wl, quick, cores, par.threads());
    std::fs::write(&out, json).expect("write BENCH_preprocess.json");
    println!("wrote {}", out.display());

    if let Some(bp) = baseline {
        gate_against_baseline(&results, &wl, &bp);
    }
}

/// Uncached/cached floors enforced by `--baseline` at the largest measured
/// scale: the radix reduce rewrite and the counting memo must hold at
/// least these speedups over the committed pre-rewrite numbers.
const GATE_UNCACHED_SPEEDUP: f64 = 4.0;
const GATE_CACHED_SPEEDUP: f64 = 2.0;
/// Extraction may take at most this share of an uncached build.
const GATE_EXTRACT_RATIO: f64 = 0.4;
/// The Prop 3.3 reduction may take at most this share of an uncached build.
const GATE_REDUCE_RATIO: f64 = 0.5;
/// Batched builds through one cache must beat independent warm builds by
/// this factor.
const GATE_WORKLOAD_SPEEDUP: f64 = 2.0;

/// Pull a `"key": <number>` field out of a JSON chunk (flat numeric fields
/// only — all this binary ever writes).
fn field_f64(chunk: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = chunk.find(&pat)? + pat.len();
    let rest = chunk[i..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The baseline entry for scale `n`: `(uncached_ms, cached_ms, count)`.
fn baseline_scale(text: &str, n: usize) -> Option<(f64, f64, u64)> {
    // each scale entry starts `{"n": <n>,`; scan entry-by-entry
    let mut rest = text;
    while let Some(i) = rest.find("{\"n\":") {
        let chunk_end = rest[i..]
            .find("{\"n\":")
            .and_then(|_| rest[i + 1..].find("{\"n\":").map(|j| i + 1 + j))
            .unwrap_or(rest.len());
        let chunk = &rest[i..chunk_end];
        if field_f64(chunk, "n") == Some(n as f64) {
            return Some((
                field_f64(chunk, "uncached_ms")?,
                field_f64(chunk, "cached_ms")?,
                field_f64(chunk, "count_uncached")? as u64,
            ));
        }
        rest = &rest[chunk_end..];
    }
    None
}

/// Compare the freshly measured largest scale against the committed
/// baseline file and abort (non-zero exit) when any floor is missed:
/// identical answer count, ≥ [`GATE_UNCACHED_SPEEDUP`]× uncached,
/// ≥ [`GATE_CACHED_SPEEDUP`]× warm, extraction at most
/// [`GATE_EXTRACT_RATIO`] and reduction at most [`GATE_REDUCE_RATIO`] of
/// the uncached build, and batched workload builds at least
/// [`GATE_WORKLOAD_SPEEDUP`]× over independent warm builds.
fn gate_against_baseline(results: &[ScaleResult], wl: &WorkloadResult, path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading baseline {}: {e}", path.display()));
    let new = results.last().expect("at least one scale measured");
    let (base_uncached_ms, base_cached_ms, base_count) = baseline_scale(&text, new.n)
        .unwrap_or_else(|| {
            panic!(
                "baseline {} has no complete entry for n = {}",
                path.display(),
                new.n
            )
        });

    assert_eq!(
        new.uncached.count, base_count,
        "answer count changed vs baseline at n = {}: {} vs {}",
        new.n, new.uncached.count, base_count
    );

    let new_uncached_ms = new.uncached.best.as_secs_f64() * 1e3;
    let new_cached_ms = new.cached.best.as_secs_f64() * 1e3;
    let uncached_speedup = base_uncached_ms / new_uncached_ms.max(1e-9);
    let cached_speedup = base_cached_ms / new_cached_ms.max(1e-9);
    let extract_ratio = new.uncached.profile.millis(Stage::Extract) / new_uncached_ms.max(1e-9);
    let reduce_ratio = new.uncached.profile.millis(Stage::Reduce) / new_uncached_ms.max(1e-9);
    let workload_speedup = wl.independent.as_secs_f64() / wl.batched.as_secs_f64().max(1e-9);
    println!(
        "gate at n = {}: uncached {uncached_speedup:.2}x (need >= {GATE_UNCACHED_SPEEDUP}), \
         cached {cached_speedup:.2}x (need >= {GATE_CACHED_SPEEDUP}), \
         extract share {extract_ratio:.3} (need <= {GATE_EXTRACT_RATIO}), \
         reduce share {reduce_ratio:.3} (need <= {GATE_REDUCE_RATIO}), \
         workload {workload_speedup:.2}x (need >= {GATE_WORKLOAD_SPEEDUP})",
        new.n
    );
    assert!(
        uncached_speedup >= GATE_UNCACHED_SPEEDUP,
        "uncached build at n = {} is only {uncached_speedup:.2}x faster than baseline \
         ({new_uncached_ms:.0} ms vs {base_uncached_ms:.0} ms; need {GATE_UNCACHED_SPEEDUP}x)",
        new.n
    );
    assert!(
        cached_speedup >= GATE_CACHED_SPEEDUP,
        "warm build at n = {} is only {cached_speedup:.2}x faster than baseline \
         ({new_cached_ms:.0} ms vs {base_cached_ms:.0} ms; need {GATE_CACHED_SPEEDUP}x)",
        new.n
    );
    assert!(
        extract_ratio <= GATE_EXTRACT_RATIO,
        "extraction takes {extract_ratio:.3} of the uncached build at n = {} \
         (limit {GATE_EXTRACT_RATIO})",
        new.n
    );
    assert!(
        reduce_ratio <= GATE_REDUCE_RATIO,
        "reduction takes {reduce_ratio:.3} of the uncached build at n = {} \
         (limit {GATE_REDUCE_RATIO})",
        new.n
    );
    assert!(
        workload_speedup >= GATE_WORKLOAD_SPEEDUP,
        "batched workload at n = {} is only {workload_speedup:.2}x faster than \
         independent warm builds (need {GATE_WORKLOAD_SPEEDUP}x)",
        wl.n
    );
    println!("gate passed");
}

fn stage_json(p: &BuildProfile) -> String {
    format!(
        "{{\"extract_ms\": {:.3}, \"reduce_ms\": {:.3}, \"ie_count_ms\": {:.3}, \
         \"fixpoint_ms\": {:.3}, \"skip_tables_ms\": {:.3}}}",
        p.millis(Stage::Extract),
        p.millis(Stage::Reduce),
        p.millis(Stage::IeCount),
        p.millis(Stage::Fixpoint),
        p.millis(Stage::SkipTables),
    )
}

fn render_json(
    results: &[ScaleResult],
    wl: &WorkloadResult,
    quick: bool,
    cores: usize,
    threads: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"preprocess\",\n");
    s.push_str(&format!("  \"query\": \"{TERNARY_SCATTER}\",\n"));
    s.push_str(&format!("  \"degree_class\": \"bounded({DEGREE})\",\n"));
    s.push_str(&format!("  \"skip_mode\": \"eager\",\n  \"eps\": {EPS},\n"));
    s.push_str(&format!("  \"reps\": {REPS},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str("  \"scales\": [\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = r.uncached.best.as_secs_f64() / r.cached.best.as_secs_f64().max(1e-9);
        s.push_str(&format!(
            "    {{\"n\": {}, \"uncached_ms\": {:.3}, \"cached_ms\": {:.3}, \
             \"speedup\": {:.3}, \"count_uncached\": {}, \"count_cached\": {},\n     \
             \"stages_uncached\": {},\n     \"stages_cached\": {}}}{}\n",
            r.n,
            r.uncached.best.as_secs_f64() * 1e3,
            r.cached.best.as_secs_f64() * 1e3,
            speedup,
            r.uncached.count,
            r.cached.count,
            stage_json(&r.uncached.profile),
            stage_json(&r.cached.profile),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let counts = wl
        .counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    s.push_str(&format!(
        "  \"workload\": {{\"n\": {}, \"queries\": {}, \"batched_ms\": {:.3}, \
         \"independent_ms\": {:.3}, \"speedup\": {:.3}, \"counts\": [{}]}}\n",
        wl.n,
        WORKLOAD_QUERIES.len(),
        wl.batched.as_secs_f64() * 1e3,
        wl.independent.as_secs_f64() * 1e3,
        wl.independent.as_secs_f64() / wl.batched.as_secs_f64().max(1e-9),
        counts
    ));
    s.push_str("}\n");
    s
}
