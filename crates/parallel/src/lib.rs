//! Fork-join parallelism facade for the option-pricing workspace.
//!
//! The paper's algorithms are expressed in the work-span model and executed by
//! a work-stealing scheduler (OpenMP tasks in the original C++ code).  This
//! crate pins that dependency behind a minimal interface so that
//!
//! * the numerical crates never name the scheduler directly, and
//! * benchmark harnesses and tests can run the *same* code under different
//!   core counts (`run_with_threads`); `run_with_threads(1, f)` is
//!   single-thread execution, and prices are the same bits at every width
//!   (`tests/bit_pins.rs`).
//!
//! The exposed operations are deliberately few: binary [`join`] (the primitive
//! from which the span bounds of the paper are derived), chunked
//! mutable-slice iteration [`for_each_chunk_mut`] with the index-ordered
//! [`parallel_map`] over it, and pool management.
//!
//! What a fork costs, which is what every grain and threshold above this
//! crate prices: on a pool worker a [`join`] is a push and a pop of the
//! worker's own deque (well under a microsecond, no allocation, no system
//! call); a fork that another worker steals adds that worker's wake-up if it
//! slept; and a `join` from a thread outside the pool hands the whole call to
//! the pool and blocks (about ten microseconds).  The join tree a computation
//! unfolds is fixed by its sizes and grains, never by the pool — which worker
//! runs a node changes no result bit.

#![forbid(unsafe_code)]

/// Runs both closures, potentially in parallel, returning both results.
#[inline]
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    rayon::join(a, b)
}

/// Number of worker threads the current scheduler uses.
#[inline]
pub fn current_num_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `f` on a dedicated pool of exactly `threads` workers (at least one),
/// started for this call and joined after it; the calling thread blocks
/// meanwhile.
pub fn run_with_threads<F, R>(threads: usize, f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build thread pool");
    pool.install(f)
}

/// Minimum amount of per-task work below which forking is never worthwhile.
///
/// Used as the grain by [`for_each_chunk_mut`] callers that have no better
/// estimate. Chosen so a task costs at least a few microseconds of arithmetic
/// — several times a fork, and enough to be worth a sleeping worker's wake-up.
pub const DEFAULT_GRAIN: usize = 2048;

/// Splits `data` into chunks of at most `grain` elements and runs
/// `body(chunk_start_offset, chunk)` on each, in parallel.
///
/// This is the workhorse for row-parallel lattice sweeps: each worker owns a
/// disjoint `&mut` window, so no synchronisation is needed inside `body`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], grain: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fn go<T: Send, F: Fn(usize, &mut [T]) + Sync>(
        offset: usize,
        data: &mut [T],
        grain: usize,
        body: &F,
    ) {
        if data.len() <= grain {
            if !data.is_empty() {
                body(offset, data);
            }
        } else {
            let mid = data.len() / 2;
            let (left, right) = data.split_at_mut(mid);
            join(|| go(offset, left, grain, body), || go(offset + mid, right, grain, body));
        }
    }
    let grain = grain.max(1);
    go(0, data, grain, &body);
}

/// A checkout pool of reusable scratch workspaces for parallel loops.
///
/// Workers borrow a workspace for the duration of one work item and return
/// it afterwards, so the pool grows to at most the number of *concurrently
/// active* workers and never shrinks.  After this warm-up the pool itself
/// performs no allocation: a steady-state [`parallel_map`] body that keeps its
/// scratch buffers inside a pooled workspace is allocation-free.
///
/// The pool is deliberately not tied to worker-thread identity (a caller
/// outside the scheduler's pool has none): checkout is a mutex-guarded stack
/// pop, which is a few nanoseconds against the microseconds-to-milliseconds
/// work items it is designed for.
///
/// ```
/// use amopt_parallel::{parallel_map, WorkspacePool};
///
/// let pool: WorkspacePool<Vec<u64>> = WorkspacePool::new();
/// let sums = parallel_map(100, 8, |i| {
///     pool.with(Vec::new, |scratch| {
///         scratch.clear();
///         scratch.extend(0..i as u64); // reuses a previous item's capacity
///         scratch.iter().sum::<u64>()
///     })
/// });
/// assert_eq!(sums[4], 6);
/// assert!(pool.idle() >= 1);
/// ```
#[derive(Debug, Default)]
pub struct WorkspacePool<W> {
    free: std::sync::Mutex<Vec<W>>,
}

impl<W> WorkspacePool<W> {
    /// Creates an empty pool; workspaces are built on first checkout.
    pub fn new() -> Self {
        WorkspacePool { free: std::sync::Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<W>> {
        // A worker that panicked mid-item loses its checked-out workspace
        // (it was never returned), so the surviving inventory is still valid.
        self.free.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` with a workspace checked out of the pool, creating one with
    /// `make` only when every pooled workspace is already in use.
    pub fn with<R>(&self, make: impl FnOnce() -> W, f: impl FnOnce(&mut W) -> R) -> R {
        let mut w = self.lock().pop().unwrap_or_else(make);
        let out = f(&mut w);
        self.lock().push(w);
        out
    }

    /// Number of workspaces currently checked in (idle).
    pub fn idle(&self) -> usize {
        self.lock().len()
    }
}

/// Maps `f` over `0..n` in parallel, collecting results in index order.
pub fn parallel_map<R, F>(n: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send + Default + Clone,
    F: Fn(usize) -> R + Sync,
{
    let mut out = vec![R::default(); n];
    for_each_chunk_mut(&mut out, grain, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = f(offset + i);
        }
    });
    out
}

/// Maps `f(index, item)` over a slice in parallel, collecting results in
/// input order.
///
/// The indexed form exists for callers whose work items are *partitions* of
/// some larger structure — e.g. the batch layer's sharded memo probe, where
/// each item is one shard's slot list and the index names the shard whose
/// lock the worker must take.
pub fn parallel_map_slice<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Default + Clone,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map(items.len(), grain, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_nests() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(16), 987);
    }

    #[test]
    fn for_each_chunk_mut_covers_slice_with_correct_offsets() {
        let mut data = vec![0usize; 4097];
        for_each_chunk_mut(&mut data, 100, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn for_each_chunk_mut_handles_empty_slice() {
        let mut data: Vec<u8> = vec![];
        for_each_chunk_mut(&mut data, 16, |_, _| panic!("must not run"));
    }

    #[test]
    fn parallel_map_matches_serial_map() {
        let got = parallel_map(1000, 32, |i| i * i);
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_map_slice_passes_matching_index_and_item() {
        let items: Vec<String> = (0..257).map(|i| format!("item-{i}")).collect();
        let got = parallel_map_slice(&items, 16, |i, s| format!("{i}:{s}"));
        for (i, g) in got.iter().enumerate() {
            assert_eq!(*g, format!("{i}:item-{i}"));
        }
        let empty: Vec<u8> = vec![];
        assert!(parallel_map_slice(&empty, 4, |_, _| 0u8).is_empty());
    }

    #[test]
    fn workspace_pool_reuses_instances() {
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::new();
        let created = AtomicUsize::new(0);
        // Strictly sequential checkouts must share one workspace.
        for _ in 0..100 {
            pool.with(
                || {
                    created.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |w| w.push(1),
            );
        }
        assert_eq!(created.load(Ordering::Relaxed), 1);
        assert_eq!(pool.idle(), 1);
        // The single pooled workspace accumulated every push.
        pool.with(Vec::new, |w| assert_eq!(w.len(), 100));
    }

    #[test]
    fn workspace_pool_is_safe_under_parallel_map() {
        let pool: WorkspacePool<Vec<usize>> = WorkspacePool::new();
        let sums = parallel_map(1000, 16, |i| {
            pool.with(Vec::new, |w| {
                w.clear();
                w.extend([i, i]);
                w.iter().sum::<usize>()
            })
        });
        assert_eq!(sums.iter().sum::<usize>(), 2 * (0..1000).sum::<usize>());
        // Every checked-out workspace came back, bounded by peak concurrency.
        assert!(pool.idle() >= 1);
    }

    #[test]
    fn zero_grain_is_clamped() {
        let mut data = vec![1u32; 17];
        for_each_chunk_mut(&mut data, 0, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn run_with_threads_controls_pool_width() {
        // A requested width of 0 is clamped to one worker.
        for (requested, want) in [(0usize, 1usize), (1, 1), (2, 2), (4, 4)] {
            let seen = run_with_threads(requested, current_num_threads);
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn run_with_threads_returns_value() {
        let v = run_with_threads(2, || parallel_map(100, 10, |i| i as u64).iter().sum::<u64>());
        assert_eq!(v, 4950);
    }
}
