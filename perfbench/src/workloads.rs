//! The three workloads. Each pass sets up its inputs from the seed, runs
//! the user path against the engine, checks every output, and records
//! samples; passes repeat until the measuring time is over.

use crate::bench::{Bench, CacheSnap, CacheState};
use crate::inputs::{colored, disjunction, Atom, Graph, Oracle, PairClause, Rng};
use lowdeg_core::{ArtifactCache, Engine};
use lowdeg_logic::{parse_query, Query};
use lowdeg_storage::{Node, Structure};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The running example streamed in full: the answer path.
    AnswerStream,
    /// A ternary query rebuilt after every write to the database.
    WriteRebuild,
    /// A heterogeneous batch of pair disjunctions built together.
    QueryBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AnswerStream,
        Workload::WriteRebuild,
        Workload::QueryBatch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnswerStream => "answer-stream",
            Workload::WriteRebuild => "write-rebuild",
            Workload::QueryBatch => "query-batch",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run passes of `w` until the measuring time is over (at least one).
pub fn run(w: Workload, b: &mut Bench) -> usize {
    let mut store = Store {
        cache: ArtifactCache::new(),
        previous: None,
    };
    let mut passes = 0;
    loop {
        match w {
            Workload::AnswerStream => answer_stream(b),
            Workload::WriteRebuild => write_rebuild(b, &mut store),
            Workload::QueryBatch => query_batch(b),
        }
        b.end_round();
        passes += 1;
        if b.done() {
            return passes;
        }
    }
}

fn parse(s: &Structure, text: &str) -> Result<Query, String> {
    parse_query(s.signature(), text).map_err(|e| format!("{text}: {e}"))
}

/// Answers kept per engine for the naive check and the answer probes.
const KEEP: usize = 1000;
/// Model checks of the closure, and builds of each hit variant, per round
/// of `answer-stream` and `write-rebuild` (their means are the round's
/// `modelcheck_ms` and `hit_build_ms`): both take microseconds to tens of
/// milliseconds, so one run of each per round is mostly noise.
const REPS_PER_ROUND: usize = 5;

// ---------------------------------------------------------------------
// answer-stream

/// Domain size of `answer-stream` (~6 M answers, so every pass streams
/// them in full).
pub const AS_N: usize = 1 << 13;
/// Degree bound of `answer-stream`.
pub const AS_DEGREE: usize = 4;
/// The paper's running example, `B(x) & R(y) & !E(x, y)`.
pub const RUNNING: PairClause = PairClause {
    x: &[Atom::Color("B")],
    y: &[Atom::Color("R")],
    edge: false,
};
/// Color pairs of the running example's warm variants: the reduction
/// core is shared, the Step 5 acceptance is not.
const AS_WARM: [PairClause; 4] = [
    PairClause {
        x: &[Atom::Color("R")],
        y: &[Atom::Color("B")],
        edge: false,
    },
    PairClause {
        x: &[Atom::Color("B")],
        y: &[Atom::Color("G")],
        edge: false,
    },
    PairClause {
        x: &[Atom::Color("G")],
        y: &[Atom::Color("R")],
        edge: false,
    },
    PairClause {
        x: &[Atom::Color("R")],
        y: &[Atom::Color("G")],
        edge: false,
    },
];
const AS_PROBES: usize = 5_000;
/// Rewrite variants of the running example: one canonical form, so all
/// of their artifacts are cached after the cold build.
const AS_HITS: [&str; 4] = [
    "!!(B(x) & R(y) & !E(x, y))",
    "!E(x, y) & B(x) & R(y)",
    "B(x) & !E(x, y) & R(y)",
    "!!!!(B(x) & !E(x, y) & R(y))",
];

/// The inputs of one `answer-stream` pass.
pub struct AnswerStreamInputs {
    /// The structure.
    pub s: Structure,
    /// The running example.
    pub query: Query,
    /// Warm variants with their clauses.
    pub warm: Vec<(PairClause, Query)>,
    /// Rewrite variants of the running example (same canonical form).
    pub hits: Vec<Query>,
    /// The existential closure of the running example.
    pub closure: Query,
}

/// Generate the `answer-stream` inputs for `seed`.
pub fn answer_stream_setup(seed: u64) -> Result<AnswerStreamInputs, String> {
    let s = colored(AS_N, AS_DEGREE, seed);
    let text = RUNNING.text();
    Ok(AnswerStreamInputs {
        query: parse(&s, &text)?,
        warm: AS_WARM
            .iter()
            .map(|c| Ok((*c, parse(&s, &c.text())?)))
            .collect::<Result<_, String>>()?,
        hits: AS_HITS
            .iter()
            .map(|t| parse(&s, t))
            .collect::<Result<_, String>>()?,
        closure: parse(&s, &format!("exists x y. {text}"))?,
        s,
    })
}

fn answer_stream(b: &mut Bench) {
    let seed = b.seed;
    let Some(inp) = b.setup("answer-stream setup", || answer_stream_setup(seed)) else {
        return;
    };
    let oracle = Oracle::new(&inp.s);
    let cache = ArtifactCache::new();
    let (s, query) = (&inp.s, &inp.query);
    let Some(engine) = b.build(
        "answer-stream cold build",
        s,
        query,
        &cache,
        CacheState::Cold,
    ) else {
        return;
    };
    b.check_count(
        "answer-stream count",
        engine.count(),
        oracle.disjunction_count(&[RUNNING]),
    );
    b.first_answer("answer-stream first answer", &engine, s, query);
    let kept = b.read_all("answer-stream read", s, &[(&engine, query)], KEEP);
    b.probes(
        "answer-stream probe",
        &engine,
        s,
        query,
        &kept[0],
        AS_PROBES,
    );
    for (clause, q) in &inp.warm {
        if let Some(e) = b.build("answer-stream warm build", s, q, &cache, CacheState::Warm) {
            b.check_count(
                "answer-stream warm count",
                e.count(),
                oracle.disjunction_count(&[*clause]),
            );
            b.first_answer("answer-stream warm first answer", &e, s, q);
        }
    }
    for q in inp
        .hits
        .iter()
        .cycle()
        .take(inp.hits.len() * REPS_PER_ROUND)
    {
        if let Some(e) = b.build("answer-stream hit build", s, q, &cache, CacheState::Hit) {
            b.check_count("answer-stream hit count", e.count(), engine.count());
            b.first_answer("answer-stream hit first answer", &e, s, q);
        }
    }
    for _ in 0..REPS_PER_ROUND {
        b.model_check(
            "answer-stream model check",
            s,
            &inp.closure,
            engine.count() > 0,
        );
    }
}

// ---------------------------------------------------------------------
// write-rebuild

/// Domain size of `write-rebuild`.
pub const WR_N: usize = 1 << 14;
/// Degree bound of `write-rebuild`.
pub const WR_DEGREE: usize = 2;
/// Versions per pass.
pub const WR_VERSIONS: usize = 4;
/// Edges deleted and inserted by each write.
pub const WR_BATCH: usize = 16;
/// Answers read from the ternary engine after each rebuild.
const WR_PREFIX: u64 = 20_000;
const WR_PROBES: usize = 4_000;
/// Every color permutation of the ternary scatter query; the first is
/// the one built cold.
pub const PERMS: [[&str; 3]; 6] = [
    ["B", "R", "G"],
    ["B", "G", "R"],
    ["R", "B", "G"],
    ["R", "G", "B"],
    ["G", "B", "R"],
    ["G", "R", "B"],
];
/// The binary query read in full after each write: blue-green and
/// red-green nodes that are not adjacent.
pub const COMPANION: PairClause = PairClause {
    x: &[Atom::Color("B"), Atom::Color("G")],
    y: &[Atom::Color("R"), Atom::Color("G")],
    edge: false,
};

/// The ternary scatter query over colors `[a, b, c]`.
pub fn scatter(colors: [&str; 3]) -> String {
    let [a, b, c] = colors;
    format!("{a}(x) & {b}(y) & {c}(z) & !E(x, y) & !E(y, z) & !E(x, z)")
}

/// The inputs of one `write-rebuild` pass.
pub struct WriteRebuildInputs {
    /// The structure after each write.
    pub versions: Vec<Structure>,
    /// The ternary query in every color permutation ([`PERMS`] order).
    pub perms: Vec<Query>,
    /// Rewrite variants of `perms[0]` (same canonical form).
    pub hits: Vec<Query>,
    /// The existential closure of `perms[0]`.
    pub closure: Query,
    /// The binary query read in full.
    pub companion: Query,
}

/// Generate the `write-rebuild` inputs for `seed`: a base graph and
/// [`WR_VERSIONS`] successive writes.
pub fn write_rebuild_setup(seed: u64) -> Result<WriteRebuildInputs, String> {
    let base = colored(WR_N, WR_DEGREE, seed);
    let mut g = Graph::of(&base, WR_DEGREE);
    let mut rng = Rng::new(seed, 0xed17);
    let versions: Vec<Structure> = (0..WR_VERSIONS)
        .map(|_| {
            g.edit(&mut rng, WR_BATCH);
            g.structure()
        })
        .collect();
    let s = &versions[0];
    let [a, b, c] = PERMS[0];
    Ok(WriteRebuildInputs {
        perms: PERMS
            .iter()
            .map(|p| parse(s, &scatter(*p)))
            .collect::<Result<_, String>>()?,
        hits: [
            format!("!E(x, y) & !E(x, z) & !E(y, z) & {c}(z) & {b}(y) & {a}(x)"),
            format!("!!({})", scatter(PERMS[0])),
            format!("{a}(x) & !E(x, y) & {b}(y) & !E(x, z) & !E(y, z) & {c}(z)"),
        ]
        .iter()
        .map(|t| parse(s, t))
        .collect::<Result<_, String>>()?,
        closure: parse(s, &format!("exists x y z. {}", scatter(PERMS[0])))?,
        companion: parse(s, &COMPANION.text())?,
        versions,
    })
}

/// The long-lived cache of `write-rebuild` and the fingerprint of the
/// version it last served.
struct Store {
    cache: ArtifactCache,
    previous: Option<u64>,
}

fn write_rebuild(b: &mut Bench, store: &mut Store) {
    let seed = b.seed;
    let Some(inp) = b.setup("write-rebuild setup", || write_rebuild_setup(seed)) else {
        return;
    };
    let cache = &store.cache;
    for (i, s) in inp.versions.iter().enumerate() {
        if i > 0 && b.done() {
            break;
        }
        if let Some(fp) = store.previous {
            cache.invalidate(fp);
            let left = cache.entries();
            b.ledger.check("write-rebuild invalidate", left == 0, || {
                format!("{left} cache entries survive invalidating the old version")
            });
        }
        store.previous = Some(s.fingerprint());
        let oracle = Oracle::new(s);
        let query = &inp.perms[0];
        let Some(engine) = b.build(
            "write-rebuild cold build",
            s,
            query,
            cache,
            CacheState::Cold,
        ) else {
            continue;
        };
        b.check_count(
            "write-rebuild count",
            engine.count(),
            oracle.scatter3_count(PERMS[0]),
        );
        b.first_answer("write-rebuild first answer", &engine, s, query);
        for _ in 0..REPS_PER_ROUND {
            b.model_check(
                "write-rebuild model check",
                s,
                &inp.closure,
                engine.count() > 0,
            );
        }
        for (colors, q) in PERMS.iter().zip(&inp.perms).skip(1) {
            if let Some(e) = b.build("write-rebuild warm build", s, q, cache, CacheState::Warm) {
                b.check_count(
                    "write-rebuild warm count",
                    e.count(),
                    oracle.scatter3_count(*colors),
                );
                b.first_answer("write-rebuild warm first answer", &e, s, q);
            }
        }
        for q in inp
            .hits
            .iter()
            .cycle()
            .take(inp.hits.len() * REPS_PER_ROUND)
        {
            if let Some(e) = b.build("write-rebuild hit build", s, q, cache, CacheState::Hit) {
                b.check_count("write-rebuild hit count", e.count(), engine.count());
                b.first_answer("write-rebuild hit first answer", &e, s, q);
            }
        }
        let prefix = answer_prefix(&engine, WR_PREFIX, KEEP);
        b.check_answers("write-rebuild prefix answer", s, query, &prefix);
        b.probes("write-rebuild probe", &engine, s, query, &prefix, WR_PROBES);
        drop(engine);

        let (config, serial) = (b.config, b.serial);
        let companion = b.ledger.op("write-rebuild companion build", || {
            Engine::build_configured(s, &inp.companion, &config, &serial, Some(cache))
                .map_err(|e| e.to_string())
        });
        if let Some(e) = companion {
            b.check_count(
                "write-rebuild companion count",
                e.count(),
                oracle.disjunction_count(&[COMPANION]),
            );
            b.first_answer(
                "write-rebuild companion first answer",
                &e,
                s,
                &inp.companion,
            );
            b.read_all(
                "write-rebuild companion read",
                s,
                &[(&e, &inp.companion)],
                KEEP,
            );
        }
        b.end_round();
    }
}

/// The first `len` answers of `engine`, keeping about `keep` of them.
fn answer_prefix(engine: &Engine, len: u64, keep: usize) -> Vec<Vec<Node>> {
    let stride = (len / keep.max(1) as u64).max(1);
    let mut out = Vec::with_capacity(keep + 1);
    let mut seen = 0u64;
    engine.for_each_answer(|a| {
        if seen.is_multiple_of(stride) {
            out.push(a.to_vec());
        }
        seen += 1;
        if seen >= len {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

// ---------------------------------------------------------------------
// query-batch

/// Domain size of `query-batch`.
pub const QB_N: usize = 1 << 11;
/// Degree bound of `query-batch`.
pub const QB_DEGREE: usize = 2;
/// Seven radius-1 clauses over `x, y`.
pub const CLAUSES: [PairClause; 7] = [
    PairClause {
        x: &[Atom::Color("B"), Atom::NeighborColored("R")],
        y: &[Atom::Color("R")],
        edge: false,
    },
    PairClause {
        x: &[Atom::Color("R"), Atom::NeighborColored("G")],
        y: &[Atom::Color("G")],
        edge: false,
    },
    PairClause {
        x: &[Atom::Color("G"), Atom::NeighborColored("B")],
        y: &[Atom::Color("B")],
        edge: false,
    },
    PairClause {
        x: &[Atom::Color("B")],
        y: &[Atom::Color("G"), Atom::NeighborColored("R")],
        edge: true,
    },
    PairClause {
        x: &[Atom::Color("R")],
        y: &[Atom::Color("B"), Atom::NeighborColored("G")],
        edge: true,
    },
    PairClause {
        x: &[Atom::Color("G")],
        y: &[Atom::Color("R"), Atom::NeighborColored("B")],
        edge: true,
    },
    PairClause {
        x: &[Atom::Color("B"), Atom::NeighborColored("B")],
        y: &[Atom::Color("B")],
        edge: false,
    },
];
/// The batch: sixteen distinct clause pairs, every clause in several.
pub const PAIRS: [(usize, usize); 16] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (0, 6),
    (0, 2),
    (1, 3),
    (2, 4),
    (3, 5),
    (4, 6),
    (0, 5),
    (1, 6),
    (0, 3),
    (1, 4),
];
/// The remaining clause pairs, built one by one against the warm cache
/// after the batch, together with each clause on its own.
pub const WARM_PAIRS: [(usize, usize); 5] = [(0, 4), (1, 5), (2, 5), (2, 6), (3, 6)];
/// Engines of the batch whose answers are read in full and probed each
/// round, and whose closures are model-checked: the first four pairs,
/// three with large answer sets and one with a small one. Reading all
/// sixteen would triple a round and leave few rounds per run.
const QB_READS: usize = 4;
const QB_PROBES_PER_QUERY: usize = 1000;

fn pair(p: (usize, usize)) -> [PairClause; 2] {
    [CLAUSES[p.0], CLAUSES[p.1]]
}

/// The inputs of one `query-batch` pass.
pub struct QueryBatchInputs {
    /// The structure.
    pub s: Structure,
    /// The batch, in [`PAIRS`] order.
    pub batch: Vec<Query>,
    /// Each batch query with its disjuncts swapped (same canonical form).
    pub hits: Vec<Query>,
    /// The [`WARM_PAIRS`] queries and the single clauses, with their
    /// clauses.
    pub warm: Vec<(Vec<PairClause>, Query)>,
    /// The existential closure of each batch query.
    pub closures: Vec<Query>,
}

/// Generate the `query-batch` inputs for `seed`.
pub fn query_batch_setup(seed: u64) -> Result<QueryBatchInputs, String> {
    let s = colored(QB_N, QB_DEGREE, seed);
    let texts = |pairs: &[(usize, usize)], swap: bool| -> Result<Vec<Query>, String> {
        pairs
            .iter()
            .map(|&(a, c)| {
                let (a, c) = if swap { (c, a) } else { (a, c) };
                parse(&s, &disjunction(&[CLAUSES[a], CLAUSES[c]]))
            })
            .collect()
    };
    Ok(QueryBatchInputs {
        batch: texts(&PAIRS, false)?,
        hits: texts(&PAIRS, true)?,
        warm: WARM_PAIRS
            .iter()
            .map(|&p| pair(p).to_vec())
            .chain(CLAUSES.iter().map(|c| vec![*c]))
            .map(|clauses| Ok((clauses.clone(), parse(&s, &disjunction(&clauses))?)))
            .collect::<Result<_, String>>()?,
        closures: PAIRS
            .iter()
            .map(|&p| parse(&s, &format!("exists x y. ({})", disjunction(&pair(p)))))
            .collect::<Result<_, String>>()?,
        s,
    })
}

/// Build the whole batch with the workload planner on `cache`, recording
/// `build_s` and checking the cold cache state: the cache starts empty,
/// so every core is built by this call, never served.
pub fn build_batch(
    b: &mut Bench,
    s: &Structure,
    batch: &[Query],
    cache: &ArtifactCache,
) -> Option<Vec<Arc<Engine>>> {
    let (config, serial) = (b.config, b.serial);
    let refs: Vec<&Query> = batch.iter().collect();
    let empty = cache.entries() == 0;
    let before = CacheSnap::of(cache);
    let t = Instant::now();
    let built = b.ledger.op("query-batch workload build", || {
        Engine::build_workload(s, &refs, &config, &serial, cache).map_err(|e| e.to_string())
    });
    let secs = t.elapsed().as_secs_f64();
    let (engines, stats) = built?;
    let moved = before.delta(CacheSnap::of(cache));
    b.ledger.check(
        "query-batch workload build: cache state",
        empty && moved.misses > 0,
        || format!("claimed Cold from an empty cache (empty: {empty}), counters moved {moved:?}"),
    );
    b.ledger.check(
        "query-batch engines",
        stats.queries == batch.len() && engines.len() == batch.len(),
        || format!("{} engines for {} queries", engines.len(), batch.len()),
    );
    b.push("build_s", secs);
    Some(engines)
}

fn query_batch(b: &mut Bench) {
    let seed = b.seed;
    let Some(inp) = b.setup("query-batch setup", || query_batch_setup(seed)) else {
        return;
    };
    let s = &inp.s;
    let oracle = Oracle::new(s);
    let cache = ArtifactCache::new();
    let Some(engines) = build_batch(b, s, &inp.batch, &cache) else {
        return;
    };
    for ((engine, query), p) in engines.iter().zip(&inp.batch).zip(PAIRS) {
        b.check_count(
            "query-batch count",
            engine.count(),
            oracle.disjunction_count(&pair(p)),
        );
        b.first_answer("query-batch first answer", engine, s, query);
    }
    let reads: Vec<(&Engine, &Query)> = engines
        .iter()
        .map(|e| &**e)
        .zip(&inp.batch)
        .take(QB_READS)
        .collect();
    let kept = b.read_all("query-batch read", s, &reads, KEEP / 4);
    for ((engine, query), answers) in reads.iter().zip(&kept) {
        b.probes(
            "query-batch probe",
            engine,
            s,
            query,
            answers,
            QB_PROBES_PER_QUERY,
        );
    }
    for (engine, q) in engines.iter().zip(&inp.hits) {
        if let Some(e) = b.build("query-batch hit build", s, q, &cache, CacheState::Hit) {
            b.check_count("query-batch hit count", e.count(), engine.count());
            b.first_answer("query-batch hit first answer", &e, s, q);
        }
    }
    for (clauses, q) in &inp.warm {
        if let Some(e) = b.build("query-batch warm build", s, q, &cache, CacheState::Warm) {
            b.check_count(
                "query-batch warm count",
                e.count(),
                oracle.disjunction_count(clauses),
            );
            b.first_answer("query-batch warm first answer", &e, s, q);
        }
    }
    for (engine, closure) in engines.iter().zip(&inp.closures).take(QB_READS) {
        b.model_check("query-batch model check", s, closure, engine.count() > 0);
    }
}
