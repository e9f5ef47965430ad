//! # exbox-par — deterministic data parallelism for the ExBox workspace
//!
//! The Admittance Classifier's retraining loop is the paper's own
//! scaling worry (§5.3 blames training latency for limiting batch
//! rates), and the dominant costs are embarrassingly parallel: Gram
//! matrix rows, cross-validation folds, traffic-matrix grid sweeps and
//! batch prediction. This crate provides the one primitive all of them
//! need — a fork/join map over an index range — with three hard
//! guarantees the figure pipeline depends on:
//!
//! 1. **Deterministic results.** `parallel_map(n, f)` returns
//!    `[f(0), f(1), …, f(n-1)]` in index order, whatever the thread
//!    count or scheduling. For pure `f` the output is *byte-identical*
//!    across thread counts, which is what keeps `results/*.csv`
//!    reproducible under any `EXBOX_THREADS`.
//! 2. **Serial degradation.** A pool with one thread (or `n < 2`)
//!    runs `f` inline on the caller, in index order — *exact* serial
//!    semantics, side effects included.
//! 3. **Zero dependencies.** Scoped [`std::thread`] workers only (the
//!    workspace builds offline; no rayon), no `unsafe`.
//!
//! Worker threads pull contiguous index *chunks* from a shared atomic
//! cursor (dynamic scheduling, so ragged workloads like triangular
//! Gram rows balance), compute into thread-local buffers, and the
//! caller reassembles the chunks in index order. Each claimed chunk
//! increments the `par.tasks` counter on the global
//! [`exbox_obs`] registry.
//!
//! Nested calls degrade gracefully: a `parallel_map` issued from
//! inside a pool worker runs serially inline (no thread explosion
//! when e.g. a parallel cross-validation fold trains an SVM whose
//! Gram build is itself parallel).
//!
//! ## Example
//!
//! ```
//! use exbox_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use exbox_obs::Counter;

thread_local! {
    /// Set while the current thread is an exbox-par worker; nested
    /// parallel calls check it and run inline instead of re-spawning.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Shared parser for the workspace's environment knobs
/// (`EXBOX_THREADS`, `EXBOX_DECISION_CACHE`, …): trim whitespace,
/// parse, then apply the knob's validity predicate. Anything invalid —
/// empty, non-numeric, overflowing, or rejected by `valid` — warns
/// once on stderr and returns `None`, so every knob degrades the same
/// way: the caller keeps its built-in default.
///
/// Lives here (the lowest crate every knob user already depends on)
/// so the behaviour cannot drift between crates again.
pub fn parse_env_knob<T: std::str::FromStr>(
    name: &str,
    raw: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    match raw.trim().parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            eprintln!("exbox: ignoring invalid {name}={raw:?}");
            None
        }
    }
}

/// `par.tasks` — chunks of work claimed by pool workers, process-wide.
fn tasks_counter() -> &'static Arc<Counter> {
    static TASKS: OnceLock<Arc<Counter>> = OnceLock::new();
    TASKS.get_or_init(|| exbox_obs::global().counter("par.tasks"))
}

/// Pads and aligns `T` to a 128-byte boundary so two neighbouring
/// values never share a cache line (128 covers the spatial-prefetcher
/// pairing on x86 and the 128-byte lines on some AArch64 parts).
///
/// Used by the gateway's SPSC ingress rings and order gate, where a
/// producer-written index sitting next to a consumer-written index
/// would otherwise ping-pong one line between cores on every packet.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap, consuming the padding.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// A scoped thread pool: a thread-count policy plus fork/join
/// primitives. Workers are scoped [`std::thread`]s spawned per call
/// and joined before the call returns, so borrowed data flows into
/// closures freely and no state outlives the call.
///
/// The type is `Copy`: it carries only the thread count, so trainers
/// and harnesses can embed one without lifetime or cloning concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool that uses up to `threads` OS threads per call.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one thread");
        ThreadPool { threads }
    }

    /// A single-threaded pool: every call runs inline on the caller
    /// with exact serial semantics. Use this to force deterministic
    /// serial runs regardless of `EXBOX_THREADS`.
    pub fn serial() -> Self {
        ThreadPool { threads: 1 }
    }

    /// The process-default pool: `EXBOX_THREADS` if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`]. The
    /// environment variable is read once; later changes are ignored.
    pub fn global() -> Self {
        static GLOBAL: OnceLock<usize> = OnceLock::new();
        let threads = *GLOBAL.get_or_init(|| {
            if let Ok(v) = std::env::var("EXBOX_THREADS") {
                if let Some(n) = parse_env_knob::<usize>("EXBOX_THREADS", &v, |n| *n >= 1) {
                    return n;
                }
            }
            std::thread::available_parallelism().map_or(1, |n| n.get())
        });
        ThreadPool { threads }
    }

    /// Number of threads this pool will use at most.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every index in `0..n`, returning results in index
    /// order. Deterministic: for pure `f` the output is independent
    /// of the thread count; with one thread (or from inside a pool
    /// worker) `f` runs inline in index order.
    pub fn parallel_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 || IN_POOL.with(Cell::get) {
            tasks_counter().add(u64::from(n > 0));
            return (0..n).map(f).collect();
        }

        // Dynamic chunked scheduling: small enough chunks that ragged
        // per-index costs balance, large enough to amortise the
        // cursor fetch.
        let chunk = (n / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let pieces: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    IN_POOL.with(|flag| flag.set(true));
                    let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                    let mut claimed = 0u64;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        claimed += 1;
                        let end = (start + chunk).min(n);
                        local.push((start, (start..end).map(&f).collect()));
                    }
                    tasks_counter().add(claimed);
                    pieces
                        .lock()
                        .expect("exbox-par result mutex poisoned")
                        .append(&mut local);
                    IN_POOL.with(|flag| flag.set(false));
                });
            }
        });

        let mut pieces = pieces
            .into_inner()
            .expect("exbox-par result mutex poisoned");
        pieces.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(n);
        for (_, mut piece) in pieces {
            out.append(&mut piece);
        }
        debug_assert_eq!(out.len(), n);
        out
    }

    /// Run `f` for every index in `0..n` for its side effects.
    /// Ordering across threads is unspecified, but with one thread
    /// (or nested inside a worker) indices run in order — exact
    /// serial semantics.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_map(n, &f);
    }
}

impl Default for ThreadPool {
    /// [`ThreadPool::global`].
    fn default() -> Self {
        ThreadPool::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.parallel_map(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_is_bitwise_deterministic_across_thread_counts() {
        let f = |i: usize| ((i as f64) * 0.1).sin().exp();
        let serial: Vec<u64> = ThreadPool::serial()
            .parallel_map(500, f)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [2, 5, 8] {
            let par: Vec<u64> = ThreadPool::new(threads)
                .parallel_map(500, f)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(serial, par, "thread count {threads} changed bits");
        }
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn for_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        ThreadPool::new(8).parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_run_inline() {
        let pool = ThreadPool::new(4);
        let out = pool.parallel_map(8, |i| {
            // Inner call from a worker must not deadlock or explode;
            // it runs serially inline.
            pool.parallel_map(4, move |j| i * 10 + j)
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    fn single_thread_runs_on_caller_in_order() {
        // Side-effect order is the serial order for a 1-thread pool.
        let seen = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        ThreadPool::serial().parallel_for(10, |i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_counter_advances() {
        let before = exbox_obs::global()
            .snapshot()
            .counter("par.tasks")
            .unwrap_or(0);
        ThreadPool::new(2).parallel_map(64, |i| i);
        let after = exbox_obs::global()
            .snapshot()
            .counter("par.tasks")
            .unwrap_or(0);
        assert!(after > before, "par.tasks did not advance");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn env_knob_accepts_valid_values() {
        assert_eq!(parse_env_knob::<usize>("K", "8", |_| true), Some(8));
        // Surrounding whitespace is tolerated.
        assert_eq!(parse_env_knob::<usize>("K", "  8 \n", |_| true), Some(8));
        // Zero is valid where the predicate allows it
        // (EXBOX_DECISION_CACHE=0 legitimately disables the cache).
        assert_eq!(parse_env_knob::<usize>("K", "0", |_| true), Some(0));
    }

    #[test]
    fn env_knob_rejects_invalid_values() {
        // Zero where the knob requires a positive value (EXBOX_THREADS).
        assert_eq!(parse_env_knob::<usize>("K", "0", |n| *n >= 1), None);
        // Whitespace-only, empty, garbage.
        assert_eq!(parse_env_knob::<usize>("K", "   ", |_| true), None);
        assert_eq!(parse_env_knob::<usize>("K", "", |_| true), None);
        assert_eq!(parse_env_knob::<usize>("K", "eight", |_| true), None);
        // Overflow and negatives for unsigned knobs.
        assert_eq!(
            parse_env_knob::<usize>("K", "99999999999999999999999999", |_| true),
            None
        );
        assert_eq!(parse_env_knob::<usize>("K", "-3", |_| true), None);
        // Trailing junk after the number.
        assert_eq!(parse_env_knob::<usize>("K", "8 threads", |_| true), None);
    }
}
