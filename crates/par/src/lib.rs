//! # lowdeg-par
//!
//! A small, dependency-free scoped worker pool for the *preprocessing* side
//! of the pipeline (the pseudo-linear phase of Theorems 2.5–2.7): anchor
//! passes, canonical encodings, `E`-edge generation, skip-table
//! construction, the `2^m` inclusion–exclusion terms, Gaifman-graph
//! extraction and conformance cases. The delay-accounted enumeration phase
//! stays single-threaded — the constant-delay claim is about sequential RAM
//! operations per output — but [`par_ordered_stream`] lets a throughput
//! answer path fan out over ordered tasks while keeping the output order
//! and a memory bound independent of the output size.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every combinator is order-preserving: the output of
//!    [`par_map`]/[`par_flat_map`]/[`par_chunks`] is byte-for-byte identical
//!    to the serial fallback, regardless of thread count or scheduling.
//!    Work is split into fixed chunks, workers claim chunks through an
//!    atomic counter (dynamic load balancing), and results are reassembled
//!    by chunk index before returning.
//! 2. **No globals where practical.** Callers thread an explicit
//!    [`ParConfig`]; [`ParConfig::from_env`] is the single place the
//!    process-wide `LOWDEG_THREADS` knob is read.
//! 3. **Panic transparency.** A panic in a worker closure is re-raised on
//!    the calling thread with its original payload (no deadlock, no
//!    swallowed result).
//!    A panic in a [`par_ordered_stream`] consumer unwinds the calling
//!    thread after every worker has stopped.
//! 4. **Serial fallback.** Below [`ParConfig::min_items`] items (or with
//!    `threads == 1`) no thread is spawned at all — small inputs must not
//!    pay spawn latency, and `LOWDEG_THREADS=1` must produce a genuinely
//!    single-threaded run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Environment variable overriding the worker-thread count (`0` or unset
/// means "auto": one worker per available core, capped at
/// [`ParConfig::MAX_AUTO_THREADS`]).
pub const THREADS_ENV: &str = "LOWDEG_THREADS";

/// Parallelism knobs threaded explicitly through every build stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
    min_items: usize,
}

impl ParConfig {
    /// Auto mode never spawns more workers than this, however many cores
    /// the machine reports: the build stages are memory-bound well before
    /// 16 threads.
    pub const MAX_AUTO_THREADS: usize = 16;

    /// Default serial-fallback threshold: inputs shorter than this run
    /// inline. Matches the threshold the reduction used before the pool
    /// was extracted.
    pub const DEFAULT_MIN_ITEMS: usize = 256;

    /// A config with an explicit worker count (`0` means auto).
    pub fn with_threads(threads: usize) -> ParConfig {
        ParConfig {
            threads: if threads == 0 {
                auto_threads()
            } else {
                threads
            },
            min_items: Self::DEFAULT_MIN_ITEMS,
        }
    }

    /// The process-wide default: `LOWDEG_THREADS` when set and parseable,
    /// otherwise one worker per available core (capped).
    pub fn from_env() -> ParConfig {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(auto_threads);
        ParConfig::with_threads(threads)
    }

    /// A genuinely single-threaded config (every combinator runs inline).
    pub fn serial() -> ParConfig {
        ParConfig::with_threads(1)
    }

    /// Override the serial-fallback threshold. `min_items(1)` forces the
    /// pool to engage even on tiny inputs — the conformance oracle uses
    /// this so the parallel code paths are exercised on shrunk instances.
    pub fn min_items(mut self, min_items: usize) -> ParConfig {
        self.min_items = min_items.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether every combinator will run inline.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Whether an input of `len` items would run inline under this config.
    pub fn runs_serial(&self, len: usize) -> bool {
        self.threads <= 1 || len < self.min_items
    }
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig::from_env()
    }
}

fn auto_threads() -> usize {
    // `available_parallelism` parses cgroup limits on Linux — far too
    // expensive to re-run on every `from_env` (which sits behind lazy
    // accessors on hot paths). The value cannot change meaningfully within
    // a process lifetime, so resolve it once.
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(ParConfig::MAX_AUTO_THREADS)
    })
}

/// Order-preserving parallel map: `items.iter().map(f).collect()`, fanned
/// out over scoped workers. The closure must be pure up to its output —
/// it runs concurrently over disjoint chunks.
pub fn par_map<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    if cfg.runs_serial(items.len()) {
        return items.iter().map(f).collect();
    }
    run_chunked(cfg, items, |chunk| chunk.iter().map(&f).collect())
}

/// Order-preserving parallel flat-map: `items.iter().flat_map(f).collect()`.
pub fn par_flat_map<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    f: impl Fn(&T) -> Vec<U> + Sync,
) -> Vec<U> {
    if cfg.runs_serial(items.len()) {
        return items.iter().flat_map(f).collect();
    }
    run_chunked(cfg, items, |chunk| chunk.iter().flat_map(&f).collect())
}

/// Split `items` into exactly `parts` contiguous slices and map each
/// `(part index, slice)` to one result, in part order. The slice boundaries
/// are fixed by `parts` and `items.len()` alone — never by the thread count
/// — so concatenating or folding the results is deterministic under any
/// parallelism. When `parts` exceeds `items.len()` the trailing parts are
/// empty slices (still invoked: a partition always yields `parts` results);
/// `parts == 0` yields an empty result.
///
/// This is the fan-out primitive for producer passes that write disjoint
/// output ranges (sharded CSR extraction, subset-lattice slices): each part
/// sees its part index, so it can derive its slice of the output space.
pub fn par_partition<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    parts: usize,
    f: impl Fn(usize, &[T]) -> U + Sync,
) -> Vec<U> {
    if parts == 0 {
        return Vec::new();
    }
    let part_len = items.len().div_ceil(parts).max(1);
    let bounds = |p: usize| {
        let lo = (p * part_len).min(items.len());
        let hi = (lo + part_len).min(items.len());
        (lo, hi)
    };
    if parts < 2 || cfg.runs_serial(items.len()) {
        return (0..parts)
            .map(|p| {
                let (lo, hi) = bounds(p);
                f(p, &items[lo..hi])
            })
            .collect();
    }
    let indices: Vec<usize> = (0..parts).collect();
    run_chunked(cfg, &indices, |group| {
        group
            .iter()
            .map(|&p| {
                let (lo, hi) = bounds(p);
                f(p, &items[lo..hi])
            })
            .collect()
    })
}

/// Map over *fixed-size* contiguous chunks of `items` (the last chunk may
/// be shorter), producing one result per chunk, in chunk order. Because the
/// chunk boundaries are fixed by `chunk_len` — not by the thread count —
/// the result is identical under any parallelism.
pub fn par_chunks<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    chunk_len: usize,
    f: impl Fn(&[T]) -> U + Sync,
) -> Vec<U> {
    let chunk_len = chunk_len.max(1);
    if cfg.runs_serial(items.len()) {
        return items.chunks(chunk_len).map(f).collect();
    }
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    if chunks.len() < 2 {
        return chunks.into_iter().map(f).collect();
    }
    run_chunked(cfg, &chunks, |group| group.iter().map(|c| f(c)).collect())
}

/// The shared engine: split `items` into fixed chunks, let workers claim
/// chunks through an atomic cursor, reassemble per-chunk outputs in index
/// order. Worker panics are re-raised on the caller with their original
/// payload.
fn run_chunked<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    per_chunk: impl Fn(&[T]) -> Vec<U> + Sync,
) -> Vec<U> {
    // Over-split relative to the worker count so uneven chunks (skewed
    // ball sizes, hub vertices) rebalance dynamically.
    let target_chunks = cfg.threads * 4;
    let chunk_len = items.len().div_ceil(target_chunks).max(1);
    let n_chunks = items.len().div_ceil(chunk_len);
    let workers = cfg.threads.min(n_chunks);

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Vec<U>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_chunks {
                        return;
                    }
                    let lo = idx * chunk_len;
                    let hi = (lo + chunk_len).min(items.len());
                    let out = per_chunk(&items[lo..hi]);
                    *slots[idx].lock().expect("result slot poisoned") = out;
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.append(&mut slot.into_inner().expect("result slot poisoned"));
    }
    out
}

/// Records per chunk a [`par_ordered_stream`] producer hands to the drain.
const CHUNK: usize = 4096;

/// Chunks in flight per open task of a [`par_ordered_stream`]: the task's
/// channel holds `WINDOW - 2`, its producer fills one more, and the drain
/// consumes one more (of the lowest open task only).
const WINDOW: usize = 16;

/// The records callers should aim for per [`par_ordered_stream`] task:
/// half of a task's window, so that a task of average size — and most
/// larger ones — fits its channel whole, and a producer running ahead of
/// the drain seldom blocks before it finishes its task. (Streaming the
/// running example's 5.8 M answers with 2 workers on a 2-core machine,
/// full-window tasks left the workers blocked ~20% of the time,
/// half-window tasks ~5%.)
pub const ORDERED_TASK_RECORDS: usize = CHUNK * WINDOW / 2;

/// Ordered streaming fan-out: run `produce(t, sink)` for every task
/// `t in 0..tasks` on the worker pool and feed every record pushed into
/// `sink` to `consume` on the calling thread, **in task order, and in push
/// order within a task** — the same sequence a serial loop over the tasks
/// would produce, whatever the thread count or scheduling.
///
/// Unlike the collecting combinators, nothing is materialized: producers
/// fill chunks of `CHUNK` records and hand them over a bounded channel
/// per task, and the calling thread drains the channels in task order while
/// later tasks are still being produced. Workers claim tasks in ascending
/// order from an atomic cursor, and at most one task per worker is open
/// (claimed or finished but not yet drained) at a time: task `t` may start
/// only once the drain has reached task `t - workers + 1`. The records
/// pushed but not yet consumed therefore never exceed `threads × WINDOW ×
/// CHUNK`, however many records the tasks produce. The lowest open task is
/// always held by a live worker or claimable by one, so the drain always
/// makes progress.
///
/// `consume` receives each chunk as one flat slice of concatenated records;
/// a record is one [`StreamSink::push`] call (callers with fixed-width
/// records split the slice by that width). Returning
/// [`ControlFlow::Break`] from `consume` stops the stream: the channels are
/// closed, so every producer stops at its next chunk hand-over, and
/// [`StreamSink::push`] returns `Break` from then on — a producer should
/// return as soon as it sees it. A `Break` returned by `produce` itself
/// ends that task's output at the records pushed so far.
///
/// A panic in `produce` stops the drain at the panicking task and is
/// re-raised on the calling thread with its payload once every worker has
/// stopped; a panic in `consume` unwinds the calling thread after the
/// workers have stopped. With a serial config (or fewer than two tasks)
/// the tasks run inline on the calling thread, with the same chunking.
/// The per-item [`ParConfig::min_items`] cutoff does not apply — tasks are
/// coarse by construction, so the caller decides when to go serial.
pub fn par_ordered_stream<T: Copy + Send>(
    cfg: &ParConfig,
    tasks: usize,
    produce: impl Fn(usize, &mut StreamSink<'_, T>) -> ControlFlow<()> + Sync,
    mut consume: impl FnMut(&[T]) -> ControlFlow<()>,
) {
    if cfg.is_serial() || tasks < 2 {
        let mut sink = StreamSink::new(Handoff::Inline(&mut consume));
        for t in 0..tasks {
            let _ = produce(t, &mut sink);
            if sink.flush(true).is_break() {
                return;
            }
        }
        return;
    }
    let workers = cfg.threads.min(tasks);
    let gate = Gate::new(workers);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= tasks {
                        return;
                    }
                    let Some(tx) = gate.claim(t) else {
                        return; // the drain has stopped
                    };
                    let mut sink = StreamSink::new(Handoff::Channel(tx));
                    let _ = produce(t, &mut sink);
                    // the end-of-task marker; a producer that panics never
                    // sends it, which tells the drain to stop
                    let _ = sink.flush(true);
                })
            })
            .collect();
        drain(&gate, tasks, workers, &mut consume);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// One chunk on its way from a producer to the drain, and whether it is
/// the task's last.
type Chunk<T> = (Vec<T>, bool);

/// Where a [`StreamSink`] hands its full chunks.
enum Handoff<'a, T> {
    /// To the drain, over the task's bounded channel.
    Channel(SyncSender<Chunk<T>>),
    /// Straight to the consumer (serial fallback).
    Inline(&'a mut dyn FnMut(&[T]) -> ControlFlow<()>),
}

/// The producer side of one [`par_ordered_stream`] task: buffers pushed
/// records into chunks and hands each full chunk to the drain.
pub struct StreamSink<'a, T> {
    buf: Vec<T>,
    records: usize,
    out: Handoff<'a, T>,
    stopped: bool,
}

impl<'a, T: Copy> StreamSink<'a, T> {
    fn new(out: Handoff<'a, T>) -> StreamSink<'a, T> {
        StreamSink {
            buf: Vec::new(),
            records: 0,
            out,
            stopped: false,
        }
    }

    /// Append one record. Returns [`ControlFlow::Break`] once the stream
    /// has stopped (the consumer broke, or a producer panicked): the
    /// record is dropped and the producer should return.
    #[inline]
    pub fn push(&mut self, record: &[T]) -> ControlFlow<()> {
        if self.stopped {
            return ControlFlow::Break(());
        }
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(CHUNK * record.len());
        }
        self.buf.extend_from_slice(record);
        self.records += 1;
        if self.records == CHUNK {
            self.flush(false)
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Hand the buffered chunk over (`last` marks the end of the task).
    fn flush(&mut self, last: bool) -> ControlFlow<()> {
        if self.stopped {
            return ControlFlow::Break(());
        }
        self.records = 0;
        let delivered = match &mut self.out {
            Handoff::Channel(tx) => tx.send((std::mem::take(&mut self.buf), last)).is_ok(),
            Handoff::Inline(consume) => {
                let go = self.buf.is_empty() || consume(&self.buf).is_continue();
                self.buf.clear();
                go
            }
        };
        if delivered {
            ControlFlow::Continue(())
        } else {
            self.stopped = true;
            ControlFlow::Break(())
        }
    }
}

/// Admission control of [`par_ordered_stream`]: which tasks may start, and
/// the sender half of each open task's channel until its worker takes it.
struct Gate<T> {
    state: Mutex<GateState<T>>,
    opened: Condvar,
}

struct GateState<T> {
    /// Tasks below this index may start.
    open_until: usize,
    /// Senders of the open tasks not yet taken by their worker, in a ring
    /// indexed by task modulo the worker count (at most that many tasks
    /// are open at once).
    senders: Vec<Option<SyncSender<Chunk<T>>>>,
    stopped: bool,
}

impl<T> Gate<T> {
    fn new(workers: usize) -> Gate<T> {
        Gate {
            state: Mutex::new(GateState {
                open_until: 0,
                senders: (0..workers).map(|_| None).collect(),
                stopped: false,
            }),
            opened: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState<T>> {
        // every update under the lock is a single store, so the state is
        // valid even if a holder panicked; `stop` runs in `Drop` and must
        // not panic
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait until task `t` may start and take its sender; `None` once the
    /// drain has stopped.
    fn claim(&self, t: usize) -> Option<SyncSender<Chunk<T>>> {
        let mut s = self.lock();
        while !s.stopped && t >= s.open_until {
            s = self.opened.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if s.stopped {
            return None;
        }
        let ring = s.senders.len();
        s.senders[t % ring].take()
    }

    /// Open task `t` (the next one) and return its receiver.
    fn open(&self, t: usize) -> Receiver<Chunk<T>> {
        let (tx, rx) = sync_channel(WINDOW - 2);
        let mut s = self.lock();
        debug_assert_eq!(s.open_until, t, "tasks open in order");
        let ring = s.senders.len();
        debug_assert!(s.senders[t % ring].is_none(), "ring slot still taken");
        s.senders[t % ring] = Some(tx);
        s.open_until = t + 1;
        self.opened.notify_all();
        rx
    }

    /// Release every waiting worker and drop the untaken senders.
    fn stop(&self) {
        let mut s = self.lock();
        s.stopped = true;
        s.senders.iter_mut().for_each(|tx| *tx = None);
        self.opened.notify_all();
    }
}

/// The calling thread's side of [`par_ordered_stream`]: consume every
/// task's chunks in task order, keeping `window` tasks open (one per
/// worker, the size of the gate's ring).
fn drain<T>(
    gate: &Gate<T>,
    tasks: usize,
    window: usize,
    consume: &mut impl FnMut(&[T]) -> ControlFlow<()>,
) {
    /// Stops the gate however the drain ends (done, `Break`, a dead
    /// producer, or a panicking consumer), so no worker waits forever.
    struct StopOnExit<'g, T>(&'g Gate<T>);
    impl<T> Drop for StopOnExit<'_, T> {
        fn drop(&mut self) {
            self.0.stop();
        }
    }
    let _stop = StopOnExit(gate);
    // dropped before `_stop`: closing the channels stops the producers
    let mut open: VecDeque<Receiver<Chunk<T>>> = (0..window).map(|t| gate.open(t)).collect();
    for t in 0..tasks {
        let rx = open.pop_front().expect("the drained task is open");
        loop {
            let Ok((chunk, last)) = rx.recv() else {
                return; // the producer panicked; the join re-raises it
            };
            if !chunk.is_empty() && consume(&chunk).is_break() {
                return;
            }
            if last {
                break;
            }
        }
        if t + window < tasks {
            open.push_back(gate.open(t + window));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn cfg(threads: usize) -> ParConfig {
        ParConfig::with_threads(threads).min_items(1)
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(&cfg(threads), &items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_flat_map_preserves_order_with_uneven_outputs() {
        let items: Vec<usize> = (0..3_000).collect();
        let f = |&x: &usize| -> Vec<usize> { (0..x % 7).map(|i| x * 10 + i).collect() };
        let expect: Vec<usize> = items.iter().flat_map(f).collect();
        for threads in [2, 5, 16] {
            assert_eq!(par_flat_map(&cfg(threads), &items, f), expect);
        }
    }

    #[test]
    fn par_chunks_is_chunklen_stable() {
        let items: Vec<u32> = (0..1_001).collect();
        let f = |c: &[u32]| c.iter().map(|&x| x as u64).sum::<u64>();
        let expect: Vec<u64> = items.chunks(64).map(f).collect();
        for threads in [1, 4, 9] {
            assert_eq!(par_chunks(&cfg(threads), &items, 64, f), expect);
        }
        // total is the full sum whatever the chunking
        let total: u64 = par_chunks(&cfg(4), &items, 17, f).iter().sum();
        assert_eq!(total, 1_000 * 1_001 / 2);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..4_096).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&cfg(4), &items, |&x| {
                if x == 2_000 {
                    panic!("worker exploded at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("worker exploded at 2000"), "{msg}");
    }

    #[test]
    fn below_threshold_runs_inline() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..100).collect();
        // default min_items (256) > 100: must not spawn
        let out = par_map(&ParConfig::with_threads(8), &items, |&x| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            x + 1
        });
        assert_eq!(out.len(), 100);
        let ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
    }

    #[test]
    fn serial_config_never_spawns() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..10_000).collect();
        par_map(&ParConfig::serial().min_items(1), &items, |&x| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            x
        });
        let ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
    }

    #[test]
    fn large_inputs_actually_fan_out() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..50_000).collect();
        par_map(&cfg(4), &items, |&x| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            x
        });
        assert!(
            seen.into_inner().unwrap().len() > 1,
            "expected multiple worker threads"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&cfg(8), &empty, |&x| x).is_empty());
        assert!(par_flat_map(&cfg(8), &empty, |&x| vec![x]).is_empty());
        assert!(par_chunks(&cfg(8), &empty, 4, |c| c.len()).is_empty());
        assert_eq!(par_map(&cfg(8), &[7u32], |&x| x * 2), vec![14]);
    }

    #[test]
    fn par_partition_preserves_order_and_boundaries() {
        let items: Vec<u32> = (0..10_007).collect();
        let f = |p: usize, s: &[u32]| {
            (
                p,
                s.first().copied(),
                s.iter().map(|&x| x as u64).sum::<u64>(),
            )
        };
        for parts in [1usize, 2, 7, 16, 64] {
            let part_len = items.len().div_ceil(parts);
            let expect: Vec<_> = (0..parts)
                .map(|p| {
                    let lo = (p * part_len).min(items.len());
                    let hi = (lo + part_len).min(items.len());
                    f(p, &items[lo..hi])
                })
                .collect();
            for threads in [1, 2, 3, 8] {
                let got = par_partition(&cfg(threads), &items, parts, f);
                assert_eq!(got, expect, "parts={parts} threads={threads}");
            }
        }
        // every element lands in exactly one part
        let sums = par_partition(&cfg(4), &items, 13, |_, s| {
            s.iter().map(|&x| x as u64).sum::<u64>()
        });
        assert_eq!(sums.len(), 13);
        assert_eq!(sums.iter().sum::<u64>(), 10_006 * 10_007 / 2);
    }

    #[test]
    fn par_partition_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..4_096).collect();
        let result = std::panic::catch_unwind(|| {
            par_partition(&cfg(4), &items, 16, |p, _| {
                if p == 9 {
                    panic!("partition exploded at {p}");
                }
                p
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("partition exploded at 9"), "{msg}");
    }

    #[test]
    fn par_partition_empty_and_singleton_slices() {
        // parts > len: exactly `parts` results, the trailing ones empty
        let items: Vec<u32> = vec![10, 20];
        let got = par_partition(&cfg(8), &items, 5, |p, s| (p, s.to_vec()));
        assert_eq!(
            got,
            vec![
                (0, vec![10]),
                (1, vec![20]),
                (2, vec![]),
                (3, vec![]),
                (4, vec![]),
            ]
        );
        // empty input: every part sees the empty slice
        let empty: Vec<u32> = Vec::new();
        let got = par_partition(&cfg(8), &empty, 3, |p, s| (p, s.len()));
        assert_eq!(got, vec![(0, 0), (1, 0), (2, 0)]);
        // zero parts: empty result
        assert!(par_partition(&cfg(8), &items, 0, |p, _| p).is_empty());
    }

    #[test]
    fn par_partition_threshold_fallback_runs_inline() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..100).collect();
        // default min_items (256) > 100: must not spawn
        let out = par_partition(&ParConfig::with_threads(8), &items, 4, |p, s| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            (p, s.len())
        });
        assert_eq!(out.len(), 4);
        let ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
    }

    #[test]
    fn par_partition_large_inputs_fan_out() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..50_000).collect();
        par_partition(&cfg(4), &items, 16, |p, s| {
            for _ in s {
                seen.lock()
                    .unwrap()
                    .insert(format!("{:?}", std::thread::current().id()));
            }
            (p, s.len())
        });
        assert!(
            seen.into_inner().unwrap().len() > 1,
            "expected multiple worker threads"
        );
    }

    /// Task `t` of the ordered-stream tests pushes `t * 100_000 + i` for
    /// `i < len(t)`, with lengths from empty to several chunks.
    fn stream_task_len(t: usize) -> usize {
        [0, 1, CHUNK - 1, CHUNK, 3 * CHUNK + 7, 17][t % 6]
    }

    fn stream_expected(tasks: usize) -> Vec<u64> {
        (0..tasks)
            .flat_map(|t| (0..stream_task_len(t)).map(move |i| (t * 100_000 + i) as u64))
            .collect()
    }

    fn stream_collect(cfg: &ParConfig, tasks: usize, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        par_ordered_stream(
            cfg,
            tasks,
            |t, sink| {
                for i in 0..stream_task_len(t) {
                    sink.push(&[(t * 100_000 + i) as u64])?;
                }
                ControlFlow::Continue(())
            },
            |chunk| {
                for &x in chunk {
                    if out.len() == limit {
                        return ControlFlow::Break(());
                    }
                    out.push(x);
                }
                ControlFlow::Continue(())
            },
        );
        out
    }

    #[test]
    fn ordered_stream_preserves_task_order() {
        for tasks in [0usize, 1, 2, 5, 23] {
            let expect = stream_expected(tasks);
            for threads in [1, 2, 3, 8] {
                let got = stream_collect(&cfg(threads), tasks, usize::MAX);
                assert_eq!(got, expect, "tasks={tasks} threads={threads}");
            }
        }
    }

    #[test]
    fn ordered_stream_records_stay_whole() {
        // multi-item records are never split across chunks
        let mut seen = Vec::new();
        par_ordered_stream(
            &cfg(3),
            9,
            |t, sink| {
                for i in 0..2 * CHUNK + t {
                    sink.push(&[t as u32, i as u32, 7])?;
                }
                ControlFlow::Continue(())
            },
            |chunk| {
                assert_eq!(chunk.len() % 3, 0);
                seen.extend(chunk.chunks_exact(3).map(|r| (r[0], r[1])));
                ControlFlow::Continue(())
            },
        );
        let expect: Vec<(u32, u32)> = (0..9u32)
            .flat_map(|t| (0..2 * CHUNK as u32 + t).map(move |i| (t, i)))
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn ordered_stream_break_yields_prefix_and_stops_producers() {
        let expect = stream_expected(40);
        for threads in [1, 2, 4] {
            for limit in [0usize, 1, CHUNK + 3, 5 * CHUNK] {
                let got = stream_collect(&cfg(threads), 40, limit);
                assert_eq!(got, expect[..limit], "threads={threads} limit={limit}");
            }
        }
        // an endless producer ends once the consumer breaks
        let pushed = AtomicUsize::new(0);
        let mut taken = 0usize;
        par_ordered_stream(
            &cfg(2),
            4,
            |_, sink| loop {
                pushed.fetch_add(1, Ordering::Relaxed);
                sink.push(&[1u8])?;
            },
            |chunk| {
                taken += chunk.len();
                ControlFlow::Break(())
            },
        );
        assert_eq!(taken, CHUNK);
        assert!(pushed.into_inner() <= 2 * WINDOW * CHUNK + 2);
    }

    #[test]
    fn ordered_stream_in_flight_stays_within_window() {
        for threads in [2, 3, 4] {
            let produced = AtomicUsize::new(0);
            let consumed = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let bound = threads * WINDOW * CHUNK;
            let mut total = 0usize;
            par_ordered_stream(
                &cfg(threads),
                24,
                |t, sink| {
                    // uneven tasks, from empty to five windows
                    for _ in 0..(t % 5) * WINDOW * CHUNK / 4 + t % 3 * CHUNK {
                        let p = produced.fetch_add(1, Ordering::SeqCst) + 1;
                        // a consumer racing ahead of this read can only
                        // make the estimate smaller, never spuriously larger
                        let in_flight = p.saturating_sub(consumed.load(Ordering::SeqCst));
                        peak.fetch_max(in_flight, Ordering::Relaxed);
                        sink.push(&[0u8])?;
                    }
                    ControlFlow::Continue(())
                },
                |chunk| {
                    total += chunk.len();
                    consumed.fetch_add(chunk.len(), Ordering::SeqCst);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(total, produced.into_inner());
            let peak = peak.into_inner();
            assert!(peak > CHUNK, "threads={threads}: the window never filled");
            assert!(
                peak <= bound,
                "threads={threads}: {peak} records in flight > {bound}"
            );
        }
    }

    #[test]
    fn ordered_stream_producer_panic_propagates() {
        for threads in [2, 4] {
            let result = std::panic::catch_unwind(|| {
                par_ordered_stream(
                    &cfg(threads),
                    30,
                    |t, sink| {
                        if t == 11 {
                            panic!("producer exploded at {t}");
                        }
                        for i in 0..CHUNK * 2 {
                            sink.push(&[i])?;
                        }
                        ControlFlow::Continue(())
                    },
                    |_| ControlFlow::Continue(()),
                );
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("string payload");
            assert!(msg.contains("producer exploded at 11"), "{msg}");
        }
    }

    #[test]
    fn ordered_stream_consumer_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut chunks = 0;
            par_ordered_stream(
                &cfg(3),
                12,
                |_, sink| {
                    for i in 0..CHUNK * WINDOW {
                        sink.push(&[i])?;
                    }
                    ControlFlow::Continue(())
                },
                |_| {
                    chunks += 1;
                    if chunks == 5 {
                        panic!("consumer exploded");
                    }
                    ControlFlow::Continue(())
                },
            );
        });
        let payload = result.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"consumer exploded"));
    }

    #[test]
    fn ordered_stream_serial_config_never_spawns() {
        let caller = std::thread::current().id();
        let mut n = 0;
        par_ordered_stream(
            &ParConfig::serial(),
            6,
            |_, sink| {
                assert_eq!(std::thread::current().id(), caller);
                sink.push(&[1u8])
            },
            |chunk| {
                n += chunk.len();
                ControlFlow::Continue(())
            },
        );
        assert_eq!(n, 6);
    }

    #[test]
    fn with_threads_zero_means_auto() {
        let c = ParConfig::with_threads(0);
        assert!(c.threads() >= 1);
        assert!(c.threads() <= ParConfig::MAX_AUTO_THREADS);
    }

    #[test]
    fn runs_serial_thresholds() {
        let c = ParConfig::with_threads(8);
        assert!(c.runs_serial(ParConfig::DEFAULT_MIN_ITEMS - 1));
        assert!(!c.runs_serial(ParConfig::DEFAULT_MIN_ITEMS));
        assert!(ParConfig::serial().runs_serial(usize::MAX));
        assert!(!c.min_items(1).runs_serial(1));
    }
}
