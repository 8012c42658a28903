//! The public façade tying the pipeline together.

use crate::artifacts::{ArtifactCache, BuildProfile, Profiler, Stage};
use crate::counting::count_graph_query_with_combo_memo;
use crate::enumerate::{Enumerator, SkipLimits, SkipMode, VertexStream};
use crate::reduction::{Reduction, DEFAULT_COMBINATION_BUDGET};
use crate::testing::TestIndex;
use crate::EngineError;
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, NormalForm, Query};
use lowdeg_par::{par_map, par_ordered_stream, ParConfig, ORDERED_TASK_RECORDS};
use lowdeg_storage::{Node, Structure};
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Phase-2 prebuild buckets of the workload planner: `(radius, k)` core
/// key → (total modeled cost for the largest-first ordering, group index
/// → clause indices to prebuild under that core).
type ClauseBuckets = BTreeMap<(usize, usize), (u64, BTreeMap<usize, Vec<usize>>)>;

/// Build-time configuration beyond the structure/query pair.
///
/// [`Engine::build`] covers the common case; `EngineConfig` is the
/// explicit form, and the only way to pick a [`SkipMode`], override the
/// eager-machinery cost gates per engine or request the post-build warm-up.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// How the `skip` function is materialized (see [`SkipMode`]).
    pub skip_mode: SkipMode,
    /// The ε of the Storing Theorem tries.
    pub eps: Epsilon,
    /// Override for the `E_k` materialization cost gate
    /// ([`crate::enumerate::EK_COST_LIMIT`]). `None` defers to the
    /// `LOWDEG_EK_COST_LIMIT` environment variable, then the constant.
    pub ek_cost_limit: Option<u64>,
    /// Override for the eager table size gate
    /// ([`crate::enumerate::EAGER_SKIP_LIMIT`]). `None` = the constant.
    pub eager_skip_limit: Option<u64>,
    /// Run the post-build warm-up: prefault the enumeration plans and probe
    /// the first answer, charging both to the `warm-up` build stage instead
    /// of the first delay sample of the real enumeration.
    pub warm_up: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            skip_mode: SkipMode::Eager,
            eps: Epsilon::default_eps(),
            ek_cost_limit: None,
            eager_skip_limit: None,
            warm_up: false,
        }
    }
}

impl EngineConfig {
    /// The effective cost gates: explicit overrides win, then the
    /// environment, then the compiled-in constants.
    pub fn skip_limits(&self) -> SkipLimits {
        let mut limits = SkipLimits::from_env();
        if let Some(v) = self.ek_cost_limit {
            limits.ek_cost_limit = v;
        }
        if let Some(v) = self.eager_skip_limit {
            limits.eager_skip_limit = v;
        }
        limits
    }
}

/// What the query-rewrite normalization pass decided for one build
/// (surfaced by `explain`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizationInfo {
    /// The canonical fingerprint of the normal form — the per-query part
    /// of the Step 5 acceptance and whole-query-count cache keys, shared
    /// by every rewrite variant of the query.
    pub fingerprint: u64,
    /// Stable names of the rewrite passes that changed the query
    /// (empty when the input was already canonical).
    pub rewrites: Vec<&'static str>,
    /// The normalized syntax failed to localize and the engine was built
    /// from the original query instead (without the fingerprinted Step 5
    /// cache key — normalization can perturb *syntactic* localizability).
    pub fallback: bool,
}

/// Sharing statistics from one [`Engine::build_workload`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Queries in the workload.
    pub queries: usize,
    /// Engines actually built — one per distinct quantifier-free core
    /// (normal-form fingerprint), plus one per localize-fallback query.
    pub distinct_cores: usize,
    /// Distinct canonical clause fingerprints across the batch's normal
    /// forms — the unit of Step 5 sharing. Less than the total clause
    /// count whenever queries overlap partially.
    pub distinct_clauses: usize,
    /// Clause-tier cache hits recorded over the whole batch (planner
    /// prebuilds plus per-query assemblies) — how often a clause's Step 5
    /// acceptance set was stitched from the cache instead of rebuilt.
    pub clause_cache_hits: u64,
}

/// A fully preprocessed query over a fixed database: constant-time
/// [`Engine::test`], pseudo-linear [`Engine::count`], constant-delay
/// [`Engine::enumerate`].
///
/// Building the engine runs the Proposition 3.3 reduction (pseudo-linear
/// for low-degree classes); sentences short-circuit through the Theorem 2.4
/// model checker.
#[derive(Debug)]
pub struct Engine {
    arity: usize,
    kind: EngineKind,
    /// Per-stage build timings (all zero for sentences).
    profile: BuildProfile,
    /// The effective eager-machinery cost gates the build ran under
    /// (surfaced by `explain`).
    skip_limits: SkipLimits,
    /// What the normalization pass did.
    normalization: NormalizationInfo,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one engine per query: boxing buys nothing
enum EngineKind {
    /// Arity-0 queries: the truth value is the whole story.
    Sentence { truth: bool },
    /// Arity ≥ 1: the reduced pipeline.
    Reduced {
        test: TestIndex,
        enumerator: Enumerator,
        count: u64,
    },
}

impl Engine {
    /// Preprocess `query` over `structure` with the default configuration
    /// (eager skip tables, no cache); the worker-pool size comes from
    /// `LOWDEG_THREADS`.
    pub fn build(structure: &Structure, query: &Query, eps: Epsilon) -> Result<Self, EngineError> {
        let config = EngineConfig {
            eps,
            ..EngineConfig::default()
        };
        Self::build_configured(structure, query, &config, &ParConfig::from_env(), None)
    }

    /// The build entry point: preprocess `query` under `config` on the
    /// worker pool `par`, optionally fed by a cross-build [`ArtifactCache`].
    ///
    /// The engine is built from the query's canonical normal form
    /// ([`lowdeg_logic::normalize`]). Answer tuples align positionally with
    /// the original query (free variables canonicalize in answer-column
    /// order). Should the canonical syntax fail to localize, the build
    /// retries the original query without the fingerprinted cache keys.
    ///
    /// With a cache, a warm build skips the *extract* stage — the whole
    /// query-independent [`crate::ReductionCore`] (Gaifman graph, near-pair
    /// store, cluster tuples, type interning, colored graph) — and Step 5
    /// acceptance and inclusion–exclusion counts are shared at *clause*
    /// granularity: each clause of the normal form gets its own
    /// fingerprint-keyed acceptance set and signed count, so any two
    /// queries sharing a clause share that clause's work, and rebuilding
    /// any rewrite variant of a query skips both. A *hit* — a build whose
    /// canonical query was built before through the same cache with the
    /// same skip mode and cost gates — goes further: it takes the cached
    /// reduced query, acceptance set, whole-query count and enumeration
    /// plans as they are, behind shared `Arc`s, so it costs the normalize,
    /// a few cache lookups and the localize of the query: O(|query|), not
    /// O(|reduced clauses|). Plan diagnostics such as the lazy-memo peaks
    /// in [`Engine::explain`] then report the maximum over every engine
    /// sharing the plans. The result is
    /// bit-identical to an uncached build (the conformance `cachecheck`
    /// and `clausecheck` oracles enforce this). Per-stage timings are
    /// recorded in [`Engine::profile`].
    ///
    /// The *build* parallelizes (reduction, counting, skip-table
    /// construction) and the built engine is identical for every thread
    /// count. [`Engine::enumerate`] / [`Engine::for_each_answer`] /
    /// [`Engine::test`] stay single-threaded — the constant-delay and
    /// constant-time guarantees are per-operation RAM bounds that threads
    /// cannot (and must not) change; the sharded
    /// [`Engine::par_for_each_answer`] trades the delay guarantee for
    /// throughput while keeping the exact same answer order.
    pub fn build_configured(
        structure: &Structure,
        query: &Query,
        config: &EngineConfig,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
    ) -> Result<Self, EngineError> {
        let nf = normalize(query);
        let mut info = NormalizationInfo {
            fingerprint: nf.fingerprint,
            rewrites: nf.rewrite_names(),
            fallback: false,
        };
        let clause_fps: Vec<u64> = nf.clauses.iter().map(|c| c.fingerprint).collect();
        let keys = Some((nf.fingerprint, clause_fps.as_slice()));
        match Self::build_raw(structure, &nf.query, config, par, cache, keys, info.clone()) {
            // Localizability is decided on syntax; a rewrite that merges or
            // reorders conjuncts can push a query off the syntactic
            // fragment the localizer accepts even though the original
            // parses through it. The original query is the user's contract
            // — build it directly, without the fingerprinted cache keys.
            Err(EngineError::Localize(_)) if !nf.is_trivial() => {
                info.fallback = true;
                Self::build_raw(structure, query, config, par, cache, None, info)
            }
            result => result,
        }
    }

    /// The inner build of `query` as written. `keys` carries the normal
    /// form's fingerprint and its per-clause fingerprints when `query`
    /// *is* that canonical normal form: the reduction then stitches its
    /// Step 5 product from clause-keyed cache entries and the count sums
    /// clause-memoized combination counts, both bit-identical to the
    /// monolithic passes. `None` builds with per-core caching only.
    fn build_raw(
        structure: &Structure,
        query: &Query,
        config: &EngineConfig,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
        keys: Option<(u64, &[u64])>,
        normalization: NormalizationInfo,
    ) -> Result<Self, EngineError> {
        let eps = config.eps;
        let limits = config.skip_limits();
        let arity = query.arity();
        if arity == 0 {
            let truth = lowdeg_locality::model_check(structure, query)?;
            return Ok(Engine {
                arity,
                kind: EngineKind::Sentence { truth },
                profile: BuildProfile::default(),
                skip_limits: limits,
                normalization,
            });
        }
        let query_fp = keys.map(|(fp, _)| fp);
        let profiler = Profiler::new();
        let reduction = Reduction::build_clause_keyed(
            structure,
            query,
            eps,
            DEFAULT_COMBINATION_BUDGET,
            par,
            cache,
            &profiler,
            query_fp,
            keys.map(|(_, fps)| fps),
        )?;
        // The E-adjacency CSR is part of the reduction core (and so of the
        // cached extract product): counting, enumeration and the test
        // paths all share the one copy behind its `Arc`.
        let adjacency = reduction.adjacency().clone();
        // With a cache, the ie-count stage drains into the per-core
        // counting memo: components counted by any earlier build against
        // the same core (this query or another) are probe hits. The count
        // is bit-identical either way — memo entries are exact.
        let memo = cache.map(|c| {
            c.counting_memo(
                structure.fingerprint(),
                reduction.radius(),
                reduction.arity(),
                eps,
            )
        });
        // Declare the C_ι colors so component signatures can erase the
        // injection identities — that is what makes signatures match
        // across queries that permute which position carries which color.
        if let Some(m) = &memo {
            m.set_iota_sizes(reduction.iota_color_sizes());
        }
        // A fingerprinted build against a warm memo can skip the
        // inclusion–exclusion walk outright: the whole-query count was
        // published by the first build of any query in this rewrite class.
        let memoized = match (&memo, query_fp) {
            (Some(m), Some(fp)) => m.query_count(fp),
            _ => None,
        };
        let count = memoized.unwrap_or_else(|| {
            // Clause-granular counting: each graph clause realizes one
            // (partition, types) combination, so clause answer sets are
            // disjoint and the query count is the sum of per-clause counts
            // — memoized under the clause's packed signature so queries
            // sharing a combination share its signed count.
            let c = profiler.time(Stage::IeCount, || {
                count_graph_query_with_combo_memo(
                    reduction.graph(),
                    reduction.query(),
                    reduction.clause_signatures(),
                    &adjacency,
                    par,
                    memo.as_deref(),
                )
                .expect("reduced clauses are well-formed generalized conjunctions")
            });
            if let (Some(m), Some(fp)) = (&memo, query_fp) {
                m.record_query_count(fp, c);
            }
            c
        });
        // Position candidate lists are per-core artifacts: route the
        // enumerator build through the cache-held memo so engines sharing
        // a core share the intersection scans.
        let positions = cache.map(|c| {
            c.position_memo(
                structure.fingerprint(),
                reduction.radius(),
                reduction.arity(),
                eps,
            )
        });
        // The plans are a function of the reduced query and the skip
        // settings: a build whose Step 5 product already carries plans
        // under the same settings (a cache hit) adopts them outright.
        let plans = reduction.enumeration_plans(config.skip_mode, limits, || {
            Enumerator::build_full_with_adjacency(
                reduction.graph(),
                reduction.query(),
                adjacency.clone(),
                config.skip_mode,
                eps,
                limits,
                par,
                &profiler,
                positions.as_deref(),
            )
            .into_plans()
        });
        let enumerator = Enumerator::with_plans(adjacency, plans);
        if config.warm_up {
            enumerator.warm_up(&profiler);
        }
        let test = TestIndex::from_reduction(reduction, eps);
        Ok(Engine {
            arity,
            kind: EngineKind::Reduced {
                test,
                enumerator,
                count,
            },
            profile: profiler.snapshot(),
            skip_limits: limits,
            normalization,
        })
    }

    /// The workload planner: batch-build engines for `queries`, grouping
    /// the batch by shared quantifier-free cores. Queries whose normal
    /// forms agree (same [`NormalizationInfo::fingerprint`]) are rewrite
    /// variants of one canonical query — color permutations, shuffled
    /// conjuncts, renamed bound variables — and answer tuples of the
    /// canonical form align positionally with *every* member's original
    /// syntax, so the group shares **one** engine: its Step 5 acceptance,
    /// count, and enumeration plans are built exactly once. Counts, answer
    /// order, and membership tests are bit-identical to what
    /// [`Engine::build_configured`] would produce per query. Queries that
    /// fall back to their original syntax (localize failure) get an
    /// engine of their own.
    ///
    /// Returns one `Arc<Engine>` per query, in query order (group members
    /// alias the same engine), plus the sharing statistics. Queries build
    /// in order; the first error aborts the batch.
    ///
    /// The batch runs through a two-phase planner. **Phase 1** decomposes
    /// the batch: every query normalizes once, rewrite variants group by
    /// canonical fingerprint, and the distinct canonical *clauses* are
    /// collected with their cross-group sharing structure. **Phase 2**
    /// schedules the shared clauses (those appearing in ≥ 2 distinct
    /// groups) by a cost model — the core's partition × type combination
    /// total weighted by the clause matrix size — and pre-builds each
    /// exactly once, largest-first, into the cache's clause tier on the
    /// worker pool. The per-query assemblies then stitch the cached clause
    /// artifacts instead of re-running the overlapping Step 5 work, and
    /// their counts sum clause-memoized combination counts.
    pub fn build_workload(
        structure: &Structure,
        queries: &[&Query],
        config: &EngineConfig,
        par: &ParConfig,
        cache: &ArtifactCache,
    ) -> Result<(Vec<Arc<Self>>, WorkloadStats), EngineError> {
        use std::collections::BTreeSet;
        let clause_hits_before = cache.clause_stats().0;

        // --- Phase 1: decompose the batch. Normalize every query once,
        // group rewrite variants by canonical fingerprint (first
        // occurrence is the group's representative), and collect the
        // distinct-clause set with its cross-group multiplicities.
        let nfs: Vec<NormalForm> = queries.iter().map(|q| normalize(q)).collect();
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        let mut groups: Vec<usize> = Vec::new(); // representative query index
        for (i, nf) in nfs.iter().enumerate() {
            group_of.entry(nf.fingerprint).or_insert_with(|| {
                groups.push(i);
                groups.len() - 1
            });
        }
        let per_group_fps: Vec<Vec<u64>> = groups
            .iter()
            .map(|&rep| nfs[rep].clauses.iter().map(|c| c.fingerprint).collect())
            .collect();
        let mut multiplicity: HashMap<u64, usize> = HashMap::new();
        let mut distinct_clause_set: BTreeSet<u64> = BTreeSet::new();
        for fps in &per_group_fps {
            for fp in fps.iter().copied().collect::<BTreeSet<u64>>() {
                *multiplicity.entry(fp).or_insert(0) += 1;
                distinct_clause_set.insert(fp);
            }
        }
        let distinct_clauses = distinct_clause_set.len();

        // --- Phase 2: cost-driven prebuild of the shared clauses. Probe
        // each group's modeled per-clause cost through the cached cores,
        // bucket every clause shared by ≥ 2 groups under its `(radius, k)`
        // core key, and issue ONE batched acceptance scan per bucket —
        // every combination's disjoint union assembles once and all of
        // the bucket's clause matrices evaluate against it. Buckets run
        // costliest-total first, so the most expensive shared acceptance
        // artifacts land in the clause tier before any per-query assembly
        // could rebuild them, and a capacity-bounded cache evicts the
        // cheap ones first.
        //
        // (radius, k) → per-group clause indices to prebuild, plus the
        // bucket's total modeled cost for the largest-first ordering.
        let mut buckets: ClauseBuckets = BTreeMap::new();
        let mut planned: BTreeSet<u64> = BTreeSet::new();
        for (gi, &rep) in groups.iter().enumerate() {
            let fps = &per_group_fps[gi];
            let Some(plan) = Reduction::clause_plan(
                structure,
                &nfs[rep].query,
                config.eps,
                par,
                cache,
                fps.len(),
            ) else {
                // Doesn't localize (or misaligns): the per-query build
                // below reports or absorbs it; nothing to share here.
                continue;
            };
            for (ci, (&fp, &cost)) in fps.iter().zip(&plan.costs).enumerate() {
                if multiplicity.get(&fp).copied().unwrap_or(0) >= 2 && planned.insert(fp) {
                    let bucket = buckets
                        .entry((plan.radius, plan.k))
                        .or_insert_with(|| (0, BTreeMap::new()));
                    bucket.0 = bucket.0.saturating_add(cost);
                    bucket.1.entry(gi).or_default().push(ci);
                }
            }
        }
        let mut ordered: Vec<_> = buckets.into_iter().collect();
        ordered.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        for (key, (_, by_group)) in ordered {
            let jobs: Vec<(&Query, &[u64], Vec<usize>)> = by_group
                .into_iter()
                .map(|(gi, indices)| {
                    (
                        &nfs[groups[gi]].query,
                        per_group_fps[gi].as_slice(),
                        indices,
                    )
                })
                .collect();
            // A failing prebuild (budget, localization) is not the
            // planner's to report — the per-query build surfaces it with
            // its query attached.
            let _ = Reduction::prebuild_clause_batch(
                structure,
                config.eps,
                DEFAULT_COMBINATION_BUDGET,
                par,
                cache,
                key,
                &jobs,
            );
        }

        // --- Per-query assembly: build each distinct group once (clause
        // artifacts and combination counts now stitch from the cache),
        // alias group members onto the shared engine.
        let mut shared: HashMap<u64, Arc<Engine>> = HashMap::new();
        let mut engines: Vec<Arc<Engine>> = Vec::with_capacity(queries.len());
        let mut distinct = 0usize;
        for (query, nf) in queries.iter().zip(&nfs) {
            if let Some(engine) = shared.get(&nf.fingerprint) {
                engines.push(Arc::clone(engine));
                continue;
            }
            let engine = Arc::new(Self::build_configured(
                structure,
                query,
                config,
                par,
                Some(cache),
            )?);
            distinct += 1;
            // A fallback engine was built from *this* query's original
            // syntax; another variant's enumeration order could
            // legitimately differ, so it is not shared with the group.
            if !engine.normalization.fallback {
                shared.insert(nf.fingerprint, Arc::clone(&engine));
            }
            engines.push(engine);
        }
        Ok((
            engines,
            WorkloadStats {
                queries: queries.len(),
                distinct_cores: distinct,
                distinct_clauses,
                clause_cache_hits: cache.clause_stats().0.saturating_sub(clause_hits_before),
            },
        ))
    }

    /// What the query-rewrite normalization pass did for this build.
    pub fn normalization(&self) -> &NormalizationInfo {
        &self.normalization
    }

    /// Per-stage build timings (`extract → reduce → ie-count → fixpoint →
    /// skip-tables → warm-up`). On a multi-thread pool the fixpoint /
    /// skip-table stages report cumulative task time, not wall time.
    pub fn profile(&self) -> &BuildProfile {
        &self.profile
    }

    /// Theorem 2.4: model-check a sentence without building any index.
    ///
    /// Primary route: the localization pass (closed parts decided by the
    /// scattered-sentence checker). Fallback: when the sentence is
    /// `∃x̄ body` and the scattered checker rejects its cross-constraints
    /// (e.g. a negated *ternary* atom between clusters), but `body` itself
    /// is a localizable `x̄`-ary query, the sentence is decided by building
    /// the body's reduction and asking for non-emptiness — pseudo-linear
    /// through Theorem 2.5's machinery instead.
    pub fn model_check(structure: &Structure, query: &Query) -> Result<bool, EngineError> {
        match lowdeg_locality::model_check(structure, query) {
            Ok(v) => Ok(v),
            Err(primary_err) => {
                if let lowdeg_logic::Formula::Exists(vs, body) = &query.formula {
                    let free = body.free_vars();
                    let all_quantified = free.iter().all(|v| vs.contains(v)) && !free.is_empty();
                    if all_quantified {
                        let inner = Query::new(
                            query.signature.clone(),
                            free,
                            (**body).clone(),
                            query.vars.clone(),
                        );
                        if let Ok(inner) = inner {
                            if let Ok(reduction) =
                                Reduction::build(structure, &inner, Epsilon::default_eps())
                            {
                                let count = count_graph_query_with_combo_memo(
                                    reduction.graph(),
                                    reduction.query(),
                                    reduction.clause_signatures(),
                                    reduction.adjacency(),
                                    &ParConfig::serial(),
                                    None,
                                )
                                .expect("reduced clauses are well-formed");
                                return Ok(count > 0);
                            }
                        }
                    }
                }
                Err(primary_err.into())
            }
        }
    }

    /// The query's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Theorem 2.5: `|φ(A)|` (precomputed during build; the count itself is
    /// a pseudo-linear pass over the colored graph).
    pub fn count(&self) -> u64 {
        match &self.kind {
            EngineKind::Sentence { truth } => *truth as u64,
            EngineKind::Reduced { count, .. } => *count,
        }
    }

    /// Theorem 2.6: constant-time membership test.
    pub fn test(&self, tuple: &[Node]) -> bool {
        match &self.kind {
            EngineKind::Sentence { truth } => tuple.is_empty() && *truth,
            EngineKind::Reduced { test, .. } => test.test(tuple).unwrap_or(false),
        }
    }

    /// The streaming cursor over `φ(A)` — the zero-allocation core every
    /// enumeration consumer is layered on. Each `advance` overwrites one
    /// reused answer buffer; nothing is heap-allocated per answer (see
    /// [`AnswerStream`]).
    pub fn answers(&self) -> AnswerStream<'_> {
        let kind = match &self.kind {
            EngineKind::Sentence { truth } => StreamKind::Sentence {
                truth: *truth,
                emitted: false,
            },
            EngineKind::Reduced {
                test, enumerator, ..
            } => StreamKind::Reduced {
                stream: enumerator.stream(),
                reduction: test.reduction(),
            },
        };
        AnswerStream {
            kind,
            answer: Vec::with_capacity(self.arity),
            delay: 0,
        }
    }

    /// Theorem 2.7, visitor form: drive the streaming cursor through every
    /// answer, passing each as a borrowed slice into `f`. Return
    /// [`ControlFlow::Break`] to stop early. The whole traversal reuses one
    /// tuple buffer — no per-answer allocation.
    pub fn for_each_answer(&self, mut f: impl FnMut(&[Node]) -> ControlFlow<()>) {
        let mut s = self.answers();
        while s.advance() {
            if f(s.answer()).is_break() {
                return;
            }
        }
    }

    /// As [`Engine::for_each_answer`], also passing the RAM-operation delay
    /// since the previous answer (the quantity Theorem 2.7 bounds by a
    /// constant).
    pub fn for_each_answer_with_ops(&self, mut f: impl FnMut(&[Node], u64) -> ControlFlow<()>) {
        let mut s = self.answers();
        while s.advance() {
            if f(s.answer(), s.last_delay()).is_break() {
                return;
            }
        }
    }

    /// Theorem 2.7, on the worker pool: drive every answer through `f` in
    /// **exactly the serial order** ([`Engine::for_each_answer`]),
    /// streaming as it goes.
    ///
    /// The concatenated outermost candidate lists of all clauses are cut
    /// into weight-balanced tasks (runs of `(clause, lo, hi)` slices, see
    /// [`crate::ClausePlan::iter_slice`]); workers run the per-level skip
    /// machinery per task and hand the answers over in fixed-size chunks,
    /// which this thread drains in task order
    /// ([`lowdeg_par::par_ordered_stream`]) while later tasks are still
    /// being produced. The output is bit-identical to the serial visitor:
    /// the outermost level walks its sorted list in order with an empty
    /// forbidden set, and inner levels depend only on the values fixed
    /// above them (DESIGN §14). What is traded away is the *delay*
    /// guarantee: answers arrive in order but in chunk-sized bursts, so the
    /// delay-accounted reference path stays [`Engine::for_each_answer`].
    ///
    /// Memory stays bounded whatever `|φ(A)|` is: at most `threads × 16`
    /// chunks of 4096 answers are in flight at once. Returning
    /// [`ControlFlow::Break`] stops the drain at that answer, and every
    /// worker stops within one chunk. A panic in `f` propagates after the
    /// workers have stopped. Configurations that would run serially (1
    /// thread, or fewer answers than the pool's cutoff) fall back to the
    /// serial visitor with zero overhead.
    pub fn par_for_each_answer(
        &self,
        par: &ParConfig,
        mut f: impl FnMut(&[Node]) -> ControlFlow<()>,
    ) {
        let arity = self.arity;
        let EngineKind::Reduced {
            test,
            enumerator,
            count,
        } = &self.kind
        else {
            return self.for_each_answer(f);
        };
        if par.is_serial() || par.runs_serial(*count as usize) {
            return self.for_each_answer(f);
        }
        let reduction = test.reduction();
        let plan = TaskPlan::new(enumerator, *count, par.threads());
        par_ordered_stream(
            par,
            plan.tasks(),
            |t, sink| {
                let mut answer: Vec<Node> = Vec::with_capacity(arity);
                for (ci, lo, hi) in plan.segments(t) {
                    let clause = &enumerator.plans()[ci];
                    let mut iter = clause.iter_slice(enumerator.adjacency(), lo, hi);
                    while iter.advance() {
                        let ok = reduction.backward_into(iter.tuple(), &mut answer);
                        assert!(ok, "ψ(G) answers lie in the image of f");
                        sink.push(&answer)?;
                    }
                }
                ControlFlow::Continue(())
            },
            |chunk| {
                for answer in chunk.chunks_exact(arity) {
                    f(answer)?;
                }
                ControlFlow::Continue(())
            },
        );
    }

    /// `|φ(A)|` by parallel traversal. The build-time [`Engine::count`] is
    /// free and exact — this path exists to *measure* the parallel
    /// enumeration machinery (it drives the same task plan as
    /// [`Engine::par_for_each_answer`], skipping answer materialization)
    /// and as an end-to-end cross-check. Serial-falling configurations
    /// return the precomputed count directly.
    pub fn par_count(&self, par: &ParConfig) -> u64 {
        let EngineKind::Reduced {
            enumerator, count, ..
        } = &self.kind
        else {
            return self.count();
        };
        if par.is_serial() || par.runs_serial(*count as usize) {
            return *count;
        }
        let plan = TaskPlan::new(enumerator, *count, par.threads());
        let tasks: Vec<usize> = (0..plan.tasks()).collect();
        // task lists are short (one task per window of answers) and the
        // work per task is not: distribute them unconditionally
        let counts: Vec<u64> = par_map(&par.min_items(1), &tasks, |&t| {
            let mut c = 0u64;
            for (ci, lo, hi) in plan.segments(t) {
                let mut iter = enumerator.plans()[ci].iter_slice(enumerator.adjacency(), lo, hi);
                while iter.advance() {
                    c += 1;
                }
            }
            c
        });
        counts.iter().sum()
    }

    /// Theorem 2.7, parallel and materialized: every answer in exactly the
    /// serial enumeration order (see [`Engine::par_for_each_answer`]).
    pub fn par_enumerate(&self, par: &ParConfig) -> Vec<Vec<Node>> {
        let mut out = Vec::new();
        self.par_for_each_answer(par, |a| {
            out.push(a.to_vec());
            ControlFlow::Continue(())
        });
        out
    }

    /// The effective eager-machinery cost gates this engine was built under
    /// (diagnostics; surfaced by `explain`).
    pub fn skip_limits(&self) -> SkipLimits {
        self.skip_limits
    }

    /// Theorem 2.7: constant-delay enumeration of `φ(A)`.
    ///
    /// A cloning adapter over [`Engine::answers`]: the per-item `Vec` is
    /// the boxed API's copy at the boundary, not part of the emission loop.
    /// Allocation-sensitive callers should use [`Engine::for_each_answer`].
    pub fn enumerate(&self) -> Box<dyn Iterator<Item = Vec<Node>> + '_> {
        let mut s = self.answers();
        Box::new(std::iter::from_fn(move || {
            s.advance().then(|| s.answer().to_vec())
        }))
    }

    /// Theorem 2.7, instrumented: enumerate answers together with the
    /// number of RAM operations since the previous output. The theorem
    /// predicts this delay is bounded by a function of the query and ε
    /// only — independent of `n` (see experiment E4).
    pub fn enumerate_with_ops(&self) -> Box<dyn Iterator<Item = (Vec<Node>, u64)> + '_> {
        let mut s = self.answers();
        Box::new(std::iter::from_fn(move || {
            s.advance().then(|| (s.answer().to_vec(), s.last_delay()))
        }))
    }

    /// Whether the query has any answer (constant time after build: the
    /// count is precomputed).
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The first answer, if any (pseudo-linear preprocessing already done;
    /// this is the paper's "first solution in pseudo-linear time" remark).
    /// Short-circuits the streaming cursor after one answer instead of
    /// constructing the boxed iterator.
    pub fn first(&self) -> Option<Vec<Node>> {
        let mut out = None;
        self.for_each_answer(|a| {
            out = Some(a.to_vec());
            ControlFlow::Break(())
        });
        out
    }

    /// All answers sorted lexicographically.
    ///
    /// This *materializes* the answer set (`O(|q(A)|)` extra memory) — the
    /// constant-delay enumeration order is clause-grouped, not
    /// lexicographic, and whether lexicographic constant-delay enumeration
    /// is possible over low-degree classes is the paper's §5 open problem.
    pub fn enumerate_sorted(&self) -> Vec<Vec<Node>> {
        let mut out: Vec<Vec<Node>> = self.enumerate().collect();
        out.sort_unstable();
        out
    }

    /// The underlying reduction (diagnostics; `None` for sentences).
    pub fn reduction(&self) -> Option<&Reduction> {
        match &self.kind {
            EngineKind::Sentence { .. } => None,
            EngineKind::Reduced { test, .. } => Some(test.reduction()),
        }
    }

    /// The underlying test index (diagnostics; `None` for sentences).
    pub fn test_index(&self) -> Option<&TestIndex> {
        match &self.kind {
            EngineKind::Sentence { .. } => None,
            EngineKind::Reduced { test, .. } => Some(test),
        }
    }

    /// The underlying enumerator (diagnostics; `None` for sentences).
    pub fn enumerator(&self) -> Option<&Enumerator> {
        match &self.kind {
            EngineKind::Sentence { .. } => None,
            EngineKind::Reduced { enumerator, .. } => Some(enumerator),
        }
    }
}

/// The task plan of the parallel answer path: the outermost candidate
/// lists of all clauses, concatenated in clause order, cut into contiguous
/// runs of about equal *weight*. A run may span clause boundaries, so
/// small clauses share one task; clauses with an empty outermost list
/// contribute nothing. Task order is the serial enumeration order, so
/// draining tasks in order reproduces it exactly.
///
/// An outermost candidate weighs one plus the product of the clause's
/// other candidate-list lengths: the number of tuples below it before the
/// distance conditions prune any, which at low degree is close to its
/// answer count. Across the clauses of one query that count varies by an
/// order of magnitude, so cutting by candidates alone makes tasks of very
/// different sizes, and a task much larger than its stream window blocks
/// its producer.
struct TaskPlan {
    /// `offsets[c]` is where clause `c`'s outermost list starts in the
    /// concatenation; the last entry is the total length.
    offsets: Vec<usize>,
    /// Task `t` covers concatenation positions `bounds[t]..bounds[t + 1]`.
    bounds: Vec<usize>,
}

impl TaskPlan {
    /// About one task per [`ORDERED_TASK_RECORDS`] answers, so a task's
    /// answers fit its stream window; at least `threads × 4` for load
    /// balance, and at most one per outermost candidate.
    fn new(enumerator: &Enumerator, count: u64, threads: usize) -> TaskPlan {
        let clauses = enumerator.plans().iter().map(|plan| {
            let top = plan.top_len();
            let tuples: f64 = plan.list_sizes().iter().map(|&l| l as f64).product();
            (top, if top == 0 { 0.0 } else { tuples / top as f64 })
        });
        TaskPlan::from_clauses(clauses, count, threads)
    }

    /// The plan over clauses given as `(outermost list length, tuples per
    /// outermost candidate)`.
    fn from_clauses(
        clauses: impl ExactSizeIterator<Item = (usize, f64)>,
        count: u64,
        threads: usize,
    ) -> TaskPlan {
        let mut offsets = Vec::with_capacity(clauses.len() + 1);
        let mut weights = Vec::with_capacity(clauses.len());
        offsets.push(0);
        for (len, tuples) in clauses {
            offsets.push(offsets[offsets.len() - 1] + len);
            weights.push(1.0 + tuples);
        }
        let total = offsets[offsets.len() - 1];
        let by_count = usize::try_from(count / ORDERED_TASK_RECORDS as u64).unwrap_or(usize::MAX);
        let tasks = by_count.max(threads.saturating_mul(4)).min(total);
        let clause_weight = |c: usize| (offsets[c + 1] - offsets[c]) as f64 * weights[c];
        let total_weight: f64 = (0..weights.len()).map(clause_weight).sum();
        // walk the task boundaries (equal weight steps) and the clauses
        // together; `before` is the weight of the clauses ahead of `c`
        let mut bounds = vec![0];
        let (mut c, mut before) = (0, 0.0);
        for t in 1..tasks {
            let target = total_weight * t as f64 / tasks as f64;
            while c < weights.len() && before + clause_weight(c) <= target {
                before += clause_weight(c);
                c += 1;
            }
            let pos = if c < weights.len() {
                let within = ((target - before) / weights[c]) as usize;
                offsets[c] + within.min(offsets[c + 1] - offsets[c])
            } else {
                total
            };
            if pos > bounds[bounds.len() - 1] && pos < total {
                bounds.push(pos);
            }
        }
        if total > 0 {
            bounds.push(total);
        }
        TaskPlan { offsets, bounds }
    }

    fn tasks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Task `t` as `(clause, lo, hi)` slices of outermost lists, in
    /// enumeration order.
    fn segments(&self, t: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (lo, hi) = (self.bounds[t], self.bounds[t + 1]);
        // the clause holding position `lo` (empty clauses share its offset
        // and sit before it)
        let first = self.offsets.partition_point(|&o| o <= lo).saturating_sub(1);
        (first..self.offsets.len() - 1)
            .take_while(move |&c| self.offsets[c] < hi)
            .filter_map(move |c| {
                let (start, end) = (self.offsets[c], self.offsets[c + 1]);
                let (a, b) = (lo.max(start), hi.min(end));
                (a < b).then(|| (c, a - start, b - start))
            })
    }
}

/// Streaming cursor over `φ(A)` with per-answer delay accounting.
///
/// Wraps the enumerator's [`VertexStream`] and pulls each vertex tuple back
/// through `f⁻¹` into one reused answer buffer
/// ([`Reduction::backward_into`]). The per-answer step performs zero heap
/// allocations: the only allocations over a full traversal are the
/// per-*clause* cursor setups inside [`VertexStream`], bounded by the query,
/// never by the answer count.
pub struct AnswerStream<'a> {
    kind: StreamKind<'a>,
    answer: Vec<Node>,
    delay: u64,
}

#[allow(clippy::large_enum_variant)] // one stream per traversal: boxing buys nothing
enum StreamKind<'a> {
    Sentence {
        truth: bool,
        emitted: bool,
    },
    Reduced {
        stream: VertexStream<'a>,
        reduction: &'a Reduction,
    },
}

impl AnswerStream<'_> {
    /// Advance to the next answer. Returns `true` when one is available
    /// through [`AnswerStream::answer`]; `false` once exhausted (and
    /// forever after).
    pub fn advance(&mut self) -> bool {
        match &mut self.kind {
            StreamKind::Sentence { truth, emitted } => {
                if *truth && !*emitted {
                    *emitted = true;
                    self.answer.clear();
                    self.delay = 1;
                    true
                } else {
                    false
                }
            }
            StreamKind::Reduced { stream, reduction } => {
                if stream.advance() {
                    let ok = reduction.backward_into(stream.tuple(), &mut self.answer);
                    assert!(ok, "ψ(G) answers lie in the image of f");
                    self.delay = stream.last_delay();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The current answer tuple. Only meaningful after
    /// [`AnswerStream::advance`] returned `true`; overwritten by the next
    /// `advance`.
    #[inline]
    pub fn answer(&self) -> &[Node] {
        &self.answer
    }

    /// RAM operations spent between the previous answer and the current
    /// one — the per-answer delay Theorem 2.7 bounds by a constant.
    #[inline]
    pub fn last_delay(&self) -> u64 {
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::eval::answers_naive;
    use lowdeg_logic::parse_query;
    use std::collections::BTreeSet;

    /// The task plan covers the concatenated outermost lists exactly once,
    /// in order, with tasks running across clause boundaries and clauses
    /// with an empty list contributing no slice.
    #[test]
    fn task_plan_partitions_the_concatenated_lists() {
        let lens = [0usize, 3, 0, 0, 1, 7, 0, 2, 0];
        let total: usize = lens.iter().sum();
        let uniform = || lens.iter().map(|&l| (l, 0.0));
        for (count, threads) in [(13u64, 1usize), (13, 2), (13, 3), (1 << 40, 2)] {
            let plan = TaskPlan::from_clauses(uniform(), count, threads);
            let by_count = (count / ORDERED_TASK_RECORDS as u64) as usize;
            assert_eq!(plan.tasks(), by_count.max(threads * 4).min(total));
            let mut walked = Vec::new();
            for t in 0..plan.tasks() {
                let segs: Vec<_> = plan.segments(t).collect();
                assert!(!segs.is_empty(), "task {t} is empty");
                for (c, lo, hi) in segs {
                    assert!(lo < hi && hi <= lens[c], "bad slice {c}:{lo}..{hi}");
                    walked.extend((lo..hi).map(|i| (c, i)));
                }
            }
            let expect: Vec<(usize, usize)> = lens
                .iter()
                .enumerate()
                .flat_map(|(c, &len)| (0..len).map(move |i| (c, i)))
                .collect();
            assert_eq!(walked, expect, "count={count} threads={threads}");
        }
        let tasks = |plan: &TaskPlan| -> Vec<Vec<(usize, usize, usize)>> {
            (0..plan.tasks())
                .map(|t| plan.segments(t).collect())
                .collect()
        };
        // four tasks over 13 equal candidates: task 1 runs across clauses
        // 4 and 5, and clause 5 is split over tasks 1–3
        let plan = TaskPlan::from_clauses(uniform(), 2, 1);
        assert_eq!(
            tasks(&plan),
            vec![
                vec![(1, 0, 3)],
                vec![(4, 0, 1), (5, 0, 2)],
                vec![(5, 2, 5)],
                vec![(5, 5, 7), (7, 0, 2)],
            ]
        );
        // candidates weigh by the tuples below them: a heavy candidate
        // gets a task of its own, light clauses share one
        let plan = TaskPlan::from_clauses([(2, 9.0), (0, 0.0), (4, 0.0)].into_iter(), 2, 1);
        assert_eq!(
            tasks(&plan),
            vec![vec![(0, 0, 1)], vec![(0, 1, 2), (2, 0, 4)]]
        );
        // a huge count asks for one task per candidate, never more
        let plan = TaskPlan::from_clauses(uniform(), u64::MAX, 2);
        assert_eq!(plan.tasks(), total);
        // no candidates, no tasks
        let plan = TaskPlan::from_clauses([(0, 0.0), (0, 0.0)].into_iter(), 0, 4);
        assert_eq!(plan.tasks(), 0);
    }

    /// A cacheless build with the given skip mode at ε = 0.5.
    fn build_mode(s: &Structure, q: &Query, mode: SkipMode) -> Result<Engine, EngineError> {
        let config = EngineConfig {
            skip_mode: mode,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        Engine::build_configured(s, q, &config, &ParConfig::from_env(), None)
    }

    fn check_engine(seed: u64, n: usize, src: &str) {
        let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(3)).generate(seed);
        let q = parse_query(s.signature(), src).unwrap();
        let oracle = answers_naive(&s, &q);
        let oracle_set: BTreeSet<Vec<Node>> = oracle.iter().cloned().collect();

        for mode in [SkipMode::Eager, SkipMode::Lazy] {
            let engine = build_mode(&s, &q, mode).unwrap();
            assert_eq!(
                engine.count(),
                oracle.len() as u64,
                "`{src}` count ({mode:?})"
            );
            let got: Vec<Vec<Node>> = engine.enumerate().collect();
            let got_set: BTreeSet<Vec<Node>> = got.iter().cloned().collect();
            assert_eq!(got.len(), got_set.len(), "`{src}` duplicates ({mode:?})");
            assert_eq!(got_set, oracle_set, "`{src}` answers ({mode:?})");
            for t in &oracle {
                assert!(engine.test(t), "`{src}` test+ on {t:?}");
            }

            // the streaming visitor agrees with the boxed iterator on
            // answers, order and delays, and `first` short-circuits to the
            // same head
            let mut streamed: Vec<Vec<Node>> = Vec::new();
            let mut delays: Vec<u64> = Vec::new();
            engine.for_each_answer_with_ops(|a, d| {
                streamed.push(a.to_vec());
                delays.push(d);
                ControlFlow::Continue(())
            });
            assert_eq!(streamed, got, "`{src}` streaming order ({mode:?})");
            let boxed_delays: Vec<u64> = engine.enumerate_with_ops().map(|(_, d)| d).collect();
            assert_eq!(delays, boxed_delays, "`{src}` streaming ops ({mode:?})");
            assert_eq!(
                engine.first(),
                got.first().cloned(),
                "`{src}` first ({mode:?})"
            );
            let mut seen = 0usize;
            engine.for_each_answer(|_| {
                seen += 1;
                if seen == 1 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(seen, got.len().min(1), "`{src}` break stops ({mode:?})");
        }
    }

    #[test]
    fn running_example_end_to_end() {
        check_engine(1, 24, "B(x) & R(y) & !E(x, y)");
    }

    #[test]
    fn quantified_end_to_end() {
        check_engine(2, 20, "exists z. E(x, z) & E(z, y)");
    }

    #[test]
    fn unary_end_to_end() {
        check_engine(3, 30, "B(x) & !R(x)");
    }

    #[test]
    fn ternary_end_to_end() {
        check_engine(4, 12, "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)");
    }

    #[test]
    fn shared_cache_builds_match_individual_builds() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(7);
        let sources = [
            "B(x) & R(y) & !E(x, y)",
            "R(x) & G(y) & !E(x, y)",
            "G(x) & B(y) & !E(x, y)",
        ];
        let queries: Vec<_> = sources
            .iter()
            .map(|src| parse_query(s.signature(), src).unwrap())
            .collect();
        let cache = crate::ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let batch: Vec<Engine> = queries
            .iter()
            .map(|q| Engine::build_configured(&s, q, &config, &par, Some(&cache)).unwrap())
            .collect();
        for (engine, q) in batch.iter().zip(&queries) {
            let solo = build_mode(&s, q, SkipMode::Eager).unwrap();
            assert_eq!(engine.count(), solo.count());
            let a: Vec<Vec<Node>> = engine.enumerate().collect();
            let b: Vec<Vec<Node>> = solo.enumerate().collect();
            assert_eq!(a, b, "shared-cache build must be observably identical");
        }
        // the batch shared one core (one miss, then hits) and its memo
        let (hits, _misses) = cache.stats();
        assert!(hits > 0, "later queries must reuse the shared core");
        let (memo_hits, memo_misses, components) = cache.counting_stats();
        assert!(memo_misses > 0 && components > 0);
        assert!(
            memo_hits > 0,
            "color-permuted queries must share counted components"
        );
    }

    #[test]
    fn workload_groups_rewrite_variants_onto_one_engine() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(7);
        // three rewrite variants of one query (shuffled conjuncts, double
        // negation, renamed bound variable) plus one genuinely distinct
        // query
        let sources = [
            "B(x) & R(y) & !E(x, y)",
            "B(x) & !E(x, y) & R(y)",
            "B(x) & !!R(y) & !E(x, y)",
            "R(x) & G(y) & !E(x, y)",
        ];
        let queries: Vec<_> = sources
            .iter()
            .map(|src| parse_query(s.signature(), src).unwrap())
            .collect();
        let refs: Vec<&lowdeg_logic::Query> = queries.iter().collect();
        let cache = crate::ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let (engines, stats) = Engine::build_workload(&s, &refs, &config, &par, &cache).unwrap();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.distinct_cores, 2, "three variants share one core");
        assert!(Arc::ptr_eq(&engines[0], &engines[1]));
        assert!(Arc::ptr_eq(&engines[0], &engines[2]));
        assert!(!Arc::ptr_eq(&engines[0], &engines[3]));
        // bit-identical to per-query configured builds
        for (engine, q) in engines.iter().zip(&queries) {
            let solo = Engine::build_configured(&s, q, &config, &par, None).unwrap();
            assert_eq!(engine.count(), solo.count());
            let a: Vec<Vec<Node>> = engine.enumerate().collect();
            let b: Vec<Vec<Node>> = solo.enumerate().collect();
            assert_eq!(a, b, "workload answers must match the solo build");
        }
        // and each answer set is the naive oracle's for the query as
        // written
        for (engine, q) in engines.iter().zip(&queries) {
            let mut oracle = answers_naive(&s, q);
            oracle.sort_unstable();
            assert_eq!(engine.count(), oracle.len() as u64);
            assert_eq!(engine.enumerate_sorted(), oracle);
        }
        // normalization info is surfaced, with a stable fingerprint across
        // the group
        let info = engines[0].normalization();
        assert!(!info.fallback);
        assert_ne!(info.fingerprint, engines[3].normalization().fingerprint);
    }

    #[test]
    fn warm_rebuild_skips_ie_count_via_query_memo() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(11);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        // a rewrite variant: same normal form, different syntax
        let v = parse_query(s.signature(), "B(x) & !E(x, y) & !!R(y)").unwrap();
        let cache = crate::ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let cold = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        assert!(cold.profile().nanos(Stage::IeCount) > 0);
        let (hits_before, _, _) = cache.counting_stats();
        let warm = Engine::build_configured(&s, &v, &config, &par, Some(&cache)).unwrap();
        assert_eq!(warm.count(), cold.count());
        assert_eq!(
            warm.profile().nanos(Stage::IeCount),
            0,
            "whole-query count memo must skip the ie-count stage"
        );
        let (hits_after, _, _) = cache.counting_stats();
        assert!(hits_after > hits_before, "query-count hit counts as a hit");
        let a: Vec<Vec<Node>> = warm.enumerate().collect();
        let b: Vec<Vec<Node>> = cold.enumerate().collect();
        assert_eq!(a, b, "rewrite variants share answers and order");
    }

    #[test]
    fn parallel_answers_match_serial_bit_for_bit() {
        let s = ColoredGraphSpec::balanced(36, DegreeClass::Bounded(3)).generate(9);
        let forced = ParConfig::with_threads(4).min_items(1);
        for src in [
            "B(x) & R(y) & !E(x, y)",
            "B(x) & !R(x)",
            "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
        ] {
            let q = parse_query(s.signature(), src).unwrap();
            for mode in [SkipMode::Eager, SkipMode::Lazy] {
                let engine = build_mode(&s, &q, mode).unwrap();
                let serial: Vec<Vec<Node>> = engine.enumerate().collect();
                assert_eq!(
                    engine.par_enumerate(&forced),
                    serial,
                    "`{src}` parallel order ({mode:?})"
                );
                assert_eq!(
                    engine.par_count(&forced),
                    engine.count(),
                    "`{src}` parallel count ({mode:?})"
                );
                // serial fallback is also identical
                assert_eq!(engine.par_enumerate(&ParConfig::serial()), serial);
                // early Break stops at the right answer
                let mut seen = Vec::new();
                engine.par_for_each_answer(&forced, |a| {
                    seen.push(a.to_vec());
                    if seen.len() == 2 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert_eq!(seen.len(), serial.len().min(2));
                assert_eq!(seen[..], serial[..seen.len()]);
                // restartable: a second traversal sees the same answers
                assert_eq!(engine.par_enumerate(&forced), serial);
            }
        }
    }

    #[test]
    fn configured_build_with_warm_up_is_identical() {
        let s = ColoredGraphSpec::balanced(24, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let plain = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        let config = EngineConfig {
            warm_up: true,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let warmed = Engine::build_configured(&s, &q, &config, &ParConfig::serial(), None).unwrap();
        assert_eq!(warmed.count(), plain.count());
        let a: Vec<Vec<Node>> = warmed.enumerate().collect();
        let b: Vec<Vec<Node>> = plain.enumerate().collect();
        assert_eq!(a, b, "warm-up must not perturb the answers");
        assert!(
            warmed.profile().nanos(Stage::WarmUp) > 0,
            "warm-up charged to its stage"
        );
        assert_eq!(plain.profile().nanos(Stage::WarmUp), 0);
        // a tiny ek_cost_limit degrades eager levels but keeps answers
        let degraded_cfg = EngineConfig {
            ek_cost_limit: Some(0),
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let degraded =
            Engine::build_configured(&s, &q, &degraded_cfg, &ParConfig::serial(), None).unwrap();
        assert_eq!(degraded.skip_limits().ek_cost_limit, 0);
        let c: Vec<Vec<Node>> = degraded.enumerate().collect();
        assert_eq!(c, b);
        let en = degraded.enumerator().unwrap();
        assert!(en
            .plans()
            .iter()
            .flat_map(|p| p.levels.iter())
            .all(|l| !l.eager_built && l.degraded));
        // non-vacuous: this structure is dense enough for Large levels
        let s2 = ColoredGraphSpec::balanced(400, DegreeClass::Bounded(2)).generate(1);
        let q2 = parse_query(s2.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let degraded2 =
            Engine::build_configured(&s2, &q2, &degraded_cfg, &ParConfig::serial(), None).unwrap();
        let en2 = degraded2.enumerator().unwrap();
        let larges = en2.plans().iter().flat_map(|p| p.levels.iter()).count();
        assert!(larges > 0, "plan must contain large levels");
        assert!(en2
            .plans()
            .iter()
            .flat_map(|p| p.levels.iter())
            .all(|l| !l.eager_built && l.degraded));
    }

    #[test]
    fn sentence_engine() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(5);
        let q = parse_query(s.signature(), "exists x y. E(x, y) & B(x)").unwrap();
        let expected = lowdeg_logic::eval::model_check_naive(&s, &q);
        let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        assert_eq!(engine.count(), expected as u64);
        assert_eq!(engine.enumerate().count(), expected as usize);
        assert_eq!(engine.test(&[]), expected);
        assert_eq!(Engine::model_check(&s, &q).unwrap(), expected);
    }

    #[test]
    fn sentence_fallback_through_reduction() {
        use lowdeg_storage::{Node, Signature, Structure};
        use std::sync::Arc;
        // a ternary relation: the scattered checker cannot express
        // cross-cluster ¬T constraints, but the reduction route can decide
        // ∃x y z (B(x) ∧ R(y) ∧ G(z) ∧ ¬T(x, y, z) ∧ pairwise far)?  Use a
        // simpler exotic case: negated ternary atom between two clusters.
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("T", 3)]));
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let r_ = sig.rel("R").unwrap();
        let t_ = sig.rel("T").unwrap();
        let mut builder = Structure::builder(sig, 6);
        builder.undirected_edge(e, Node(0), Node(1)).unwrap();
        builder.fact(b_, &[Node(0)]).unwrap();
        builder.fact(b_, &[Node(4)]).unwrap();
        builder.fact(r_, &[Node(3)]).unwrap();
        builder.fact(t_, &[Node(4), Node(3), Node(3)]).unwrap();
        let s = builder.finish().unwrap();

        // ∃x y: blue x, red y, ¬T(x, y, y): (0,3) qualifies (T(0,3,3) absent)
        let q = parse_query(s.signature(), "exists x y. B(x) & R(y) & !T(x, y, y)").unwrap();
        let expected = lowdeg_logic::eval::model_check_naive(&s, &q);
        assert_eq!(Engine::model_check(&s, &q).unwrap(), expected);
        assert!(expected);

        // and a false instance of the same shape
        let q2 = parse_query(
            s.signature(),
            "exists x y. B(x) & B(y) & E(x, y) & R(x) & !T(x, y, y)",
        )
        .unwrap();
        let expected2 = lowdeg_logic::eval::model_check_naive(&s, &q2);
        assert_eq!(Engine::model_check(&s, &q2).unwrap(), expected2);
    }

    #[test]
    fn non_localizable_reported() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(6);
        let q = parse_query(s.signature(), "exists z. R(z) & !E(x, z)").unwrap();
        assert!(matches!(
            Engine::build(&s, &q, Epsilon::new(0.5)),
            Err(EngineError::Localize(_))
        ));
    }
}
