//! Offline shim for the `rayon` crate (see `shims/README.md`).
//!
//! Implements the fork-join surface `amopt-parallel` uses — [`join`],
//! [`current_num_threads`], and [`ThreadPoolBuilder`] / [`ThreadPool::install`]
//! — as a work-stealing runtime.  A pool is `width` persistent worker
//! threads, each with a deque of its own, plus one more deque that threads
//! outside the pool inject into.
//!
//! * [`join`]`(a, b)` **on a worker** pushes `b` on the worker's deque, runs
//!   `a`, and pops `b` back to run it itself if nobody took it — the job
//!   lives on the joiner's stack, so this path allocates nothing and makes no
//!   system call.  If `b` was stolen, the worker steals and runs other jobs
//!   until `b`'s latch is set: it never waits while work exists, which is the
//!   greedy-scheduler property the paper's `O(T₁/p + T∞)` bound assumes.
//! * A thread **outside** the pool hands its closure to the pool and blocks
//!   until it is done, so compute threads never exceed the pool's width
//!   however many callers come in.
//! * Workers pop their own deque newest-first and steal from the others
//!   oldest-first (the oldest job is the largest subtree).  An idle worker
//!   yields a few rounds and then sleeps on a condvar: an idle pool costs
//!   no CPU.
//! * A panic in either closure is re-raised from `join` after **both** have
//!   finished.
//!
//! Simpler than upstream: the deques are mutex-guarded rather than lock-free,
//! a worker that installs into another pool blocks rather than stealing
//! meanwhile, and there is no `scope`, `spawn` or `par_iter`.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// Rounds of "look for work, then yield" an idle worker makes before it
/// sleeps: long enough to bridge the gap between two fork-join passes of one
/// computation, short enough that a pool nobody uses goes quiet at once.
const IDLE_ROUNDS: u32 = 32;

/// Initial capacity of a deque, so that pushes of an ordinary join tree
/// (depth `log₂` of the problem) never grow it.
const DEQUE_CAPACITY: usize = 64;

/// No user code runs under any lock of this crate, so a poisoned lock still
/// guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unit of work any worker may run: a closure on its owner's stack.
trait Job: Sync {
    /// Runs the closure, keeps its outcome for the owner, and — as the last
    /// thing it does with `self` — sets the latch.  Called at most once.
    fn execute(&self, pool: &Registry);
}

/// A [`Job`] with its lifetime erased (see [`StackJob::lend`]).
type JobRef = &'static dyn Job;

enum Slot<F, R> {
    Pending(F),
    Running,
    Finished(thread::Result<R>),
}

/// A closure, later its outcome, and the latch that says which.
struct StackJob<F, R> {
    slot: Mutex<Slot<F, R>>,
    /// The latch.  Once it reads `true` no other thread touches the job again.
    done: AtomicBool,
    /// Who waits for the latch: a thread outside the pool parks and is woken
    /// by handle; `None` is a worker, woken through the pool's condvar.
    owner: Option<Thread>,
}

/// Proof that a lent job outlives its loan: aborts the process if dropped
/// before the latch is set.  Nothing in this crate unwinds while holding one
/// (user closures run under `catch_unwind`), so this fires only on a bug.
struct Lease<'a>(&'a AtomicBool);

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if !self.0.load(SeqCst) {
            std::process::abort();
        }
    }
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F, owner: Option<Thread>) -> Self {
        StackJob { slot: Mutex::new(Slot::Pending(f)), done: AtomicBool::new(false), owner }
    }

    /// A reference to this job that can sit in a deque, and the lease that
    /// keeps the job in place until the latch is set.
    fn lend(&self) -> (JobRef, Lease<'_>) {
        let job: &(dyn Job + '_) = self;
        // SAFETY: only the lifetime changes.  The reference is used after
        // this borrow's lifetime only while it sits in a deque or is being
        // executed by the thread that took it out (exactly one does), and
        // `execute`'s last access to the job is setting the latch `done`.
        // The lease borrows the job, so the job can neither move nor drop
        // while the lease lives, and the lease aborts the process rather
        // than end before the latch is set.
        let erased = unsafe { std::mem::transmute::<&(dyn Job + '_), JobRef>(job) };
        (erased, Lease(&self.done))
    }

    /// Runs the closure and stores its outcome; the latch is the caller's.
    fn run(&self) {
        let Slot::Pending(f) = std::mem::replace(&mut *lock(&self.slot), Slot::Running) else {
            unreachable!("a job is taken out of its deque, and so run, once");
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        *lock(&self.slot) = Slot::Finished(outcome);
    }

    /// The closure's outcome, once the latch is set.
    fn into_outcome(self) -> thread::Result<R> {
        match self.slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Slot::Finished(outcome) => outcome,
            _ => unreachable!("the latch is set after the outcome is stored"),
        }
    }
}

impl<F, R> Job for StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn execute(&self, pool: &Registry) {
        self.run();
        // The owner may free the job the moment the latch reads true, so
        // everything the wake-up needs is taken out first.
        let owner = self.owner.clone();
        self.done.store(true, SeqCst);
        match owner {
            Some(thread) => thread.unpark(),
            None => pool.wake(true),
        }
    }
}

/// The state the workers of one pool share.
struct Registry {
    width: usize,
    /// `queues[i]` is worker `i`'s deque; `queues[width]` takes the jobs of
    /// threads outside the pool.
    queues: Vec<Mutex<VecDeque<JobRef>>>,
    /// Workers inside [`Registry::sleep`].  Pairs with the latches and the
    /// queues Dekker-style, all `SeqCst`: a sleeper announces itself and then
    /// looks once more; a waker publishes (a job, a latch, `stop`) and then
    /// reads this count — so one of the two always sees the other.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    /// Set when the pool is dropped: the workers' own latch.
    stop: AtomicBool,
}

impl Registry {
    fn push(&self, queue: usize, job: JobRef) {
        lock(&self.queues[queue]).push_back(job);
        self.wake(false);
    }

    /// Wakes one sleeping worker (new work) or all of them (a latch was set,
    /// and only its owner can use that).
    fn wake(&self, all: bool) {
        if self.sleepers.load(SeqCst) > 0 {
            // Under the lock a sleeper is either before its last look or
            // already waiting: the notification cannot fall in between.
            let _guard = lock(&self.sleep_lock);
            if all {
                self.wake.notify_all();
            } else {
                self.wake.notify_one();
            }
        }
    }

    /// Blocks the calling worker until it is woken, unless `done` is set or a
    /// job is queued already.
    fn sleep(&self, done: &AtomicBool) {
        let guard = lock(&self.sleep_lock);
        self.sleepers.fetch_add(1, SeqCst);
        if !done.load(SeqCst) && self.queues.iter().all(|q| lock(q).is_empty()) {
            drop(self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner));
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Runs `f` on a worker of this pool while the calling thread — which is
    /// not one — blocks.
    fn run<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let job = StackJob::new(f, Some(thread::current()));
        {
            let (job_ref, _lease) = job.lend();
            self.push(self.width, job_ref);
            while !job.done.load(SeqCst) {
                thread::park();
            }
        }
        job.into_outcome().unwrap_or_else(|panic| panic::resume_unwind(panic))
    }
}

/// One worker thread's view of its pool.
struct Worker {
    pool: Arc<Registry>,
    index: usize,
}

thread_local! {
    /// Set once, on a pool's worker threads only.
    static WORKER: OnceCell<Worker> = const { OnceCell::new() };
}

impl Worker {
    fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        // amopt-lint: hot-path
        let job_b = StackJob::new(b, None);
        let ra = {
            let (b_ref, _lease) = job_b.lend();
            self.pool.push(self.index, b_ref);
            let ra = panic::catch_unwind(AssertUnwindSafe(a));
            // Every join inside `a` took back or waited out what it pushed,
            // and thieves take the oldest job first: the newest job of this
            // deque is `b`, or `b` is gone and the deque is empty.
            let newest = lock(&self.pool.queues[self.index]).pop_back();
            match newest {
                Some(job) if std::ptr::addr_eq(job, &job_b) => {
                    job_b.run();
                    job_b.done.store(true, SeqCst);
                }
                Some(job) => job.execute(&self.pool),
                None => {}
            }
            self.work_until(&job_b.done);
            ra
        };
        match (ra, job_b.into_outcome()) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(panic), _) | (_, Err(panic)) => panic::resume_unwind(panic),
        }
    }

    /// Runs queued jobs until `done` is set, sleeping when there are none.
    fn work_until(&self, done: &AtomicBool) {
        let mut idle = 0;
        while !done.load(SeqCst) {
            if let Some(job) = self.find_work() {
                job.execute(&self.pool);
                idle = 0;
            } else if idle < IDLE_ROUNDS {
                idle += 1;
                thread::yield_now();
            } else {
                self.pool.sleep(done);
                idle = 0;
            }
        }
    }

    /// The newest job of this worker's deque, else the oldest of another
    /// worker's, else one injected from outside.
    fn find_work(&self) -> Option<JobRef> {
        let queues = &self.pool.queues;
        let n = self.pool.width;
        // One lock at a time: each guard is dropped before the next is taken.
        let own = lock(&queues[self.index]).pop_back();
        own.or_else(|| {
            (1..n)
                .map(|k| (self.index + k) % n)
                .chain([n])
                .find_map(|q| lock(&queues[q]).pop_front())
        })
    }
}

fn global() -> &'static Registry {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    let pool = GLOBAL.get_or_init(|| {
        let width = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ThreadPool::new(width).expect("cannot start the global thread pool")
    });
    &pool.registry
}

/// Number of worker threads in the pool the current thread runs under: its
/// own pool's on a worker, the global pool's elsewhere.
pub fn current_num_threads() -> usize {
    WORKER.with(|w| w.get().map(|w| w.pool.width)).unwrap_or_else(|| global().width)
}

/// Runs both closures, potentially in parallel, returning both results.  A
/// panic in either is re-raised once both have finished (`a`'s if both did).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    WORKER.with(|w| match w.get() {
        Some(worker) => worker.join(a, b),
        None => global().run(|| join(a, b)),
    })
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the surface used here.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` (the default) means one worker per available hardware thread.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Starts the pool's worker threads.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = if self.num_threads == 0 { global().width } else { self.num_threads };
        ThreadPool::new(width)
    }
}

/// A pool of `width` worker threads; work runs on it via
/// [`ThreadPool::install`].  Dropping the pool stops and joins its workers.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    fn new(width: usize) -> Result<Self, ThreadPoolBuildError> {
        let registry = Arc::new(Registry {
            width,
            queues: (0..=width)
                .map(|_| Mutex::new(VecDeque::with_capacity(DEQUE_CAPACITY)))
                .collect(),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let mut pool = ThreadPool { registry, workers: Vec::with_capacity(width) };
        for index in 0..width {
            let worker = Worker { pool: Arc::clone(&pool.registry), index };
            let spawned =
                thread::Builder::new().name(format!("rayon-worker-{index}")).spawn(move || {
                    WORKER.with(|w| {
                        let me = w.get_or_init(|| worker);
                        me.work_until(&me.pool.stop);
                    })
                });
            // On failure `pool` drops here and stops the workers it has.
            pool.workers.push(spawned.map_err(ThreadPoolBuildError)?);
        }
        Ok(pool)
    }

    /// Runs `f` on this pool: `join` calls inside `f` fork onto this pool's
    /// workers and `current_num_threads` reports its width.  The calling
    /// thread blocks meanwhile, unless it is one of this pool's workers.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let inside = WORKER.with(|w| w.get().is_some_and(|w| Arc::ptr_eq(&w.pool, &self.registry)));
        if inside {
            f()
        } else {
            self.registry.run(f)
        }
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.width
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.stop.store(true, SeqCst);
        self.registry.wake(true);
        for worker in self.workers.drain(..) {
            // A worker only unwinds on a bug in this crate, and `drop` must
            // not panic: nothing to do with the error here.
            let _ = worker.join();
        }
    }
}

/// A worker thread could not be started.
#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot start a worker thread: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Long enough that only a deadlock reaches it.
    const TIMEOUT: Duration = Duration::from_secs(20);

    fn pool(width: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(width).build().unwrap()
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    /// A balanced join tree of `2^depth` leaves that records who ran each.
    fn leaf_threads(depth: u32, seen: &Mutex<HashSet<ThreadId>>) {
        if depth == 0 {
            lock(seen).insert(thread::current().id());
        } else {
            join(|| leaf_threads(depth - 1, seen), || leaf_threads(depth - 1, seen));
        }
    }

    #[test]
    fn joins_nest_two_dozen_deep_at_every_width() {
        for width in [1usize, 2, 5] {
            assert_eq!(pool(width).install(|| fib(24)), 46_368, "width {width}");
        }
        assert_eq!(fib(24), 46_368, "global pool");
    }

    #[test]
    fn install_scopes_pool_width() {
        let global_width = current_num_threads();
        assert!(global_width >= 1);
        for p in [1usize, 2, 5] {
            assert_eq!(pool(p).install(current_num_threads), p);
            assert_eq!(pool(p).current_num_threads(), p);
        }
        // Restored after install returns.
        assert_eq!(current_num_threads(), global_width);
    }

    #[test]
    fn eight_outside_callers_compute_on_at_most_width_threads() {
        for built in [Some(Arc::new(pool(3))), None] {
            let width =
                built.as_ref().map_or_else(current_num_threads, |p| p.current_num_threads());
            let seen = Arc::new(Mutex::new(HashSet::new()));
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    let (built, seen) = (built.clone(), Arc::clone(&seen));
                    thread::spawn(move || {
                        for _ in 0..20 {
                            match &built {
                                Some(pool) => pool.install(|| leaf_threads(6, &seen)),
                                None => leaf_threads(6, &seen),
                            }
                        }
                        thread::current().id()
                    })
                })
                .collect();
            let callers: Vec<ThreadId> = callers.into_iter().map(|h| h.join().unwrap()).collect();
            let seen = lock(&seen);
            assert!(
                !seen.is_empty() && seen.len() <= width,
                "{} threads, width {width}",
                seen.len()
            );
            assert!(callers.iter().all(|c| !seen.contains(c)), "a caller ran a leaf itself");
        }
    }

    #[test]
    fn a_blocked_first_closure_is_released_by_the_stolen_second() {
        // `a` cannot finish until `b` has run: on a pool that cannot steal
        // this deadlocks (and the timeout turns that into a failure).
        let (tx, rx) = mpsc::channel();
        let (got, b_thread) = pool(2).install(move || {
            join(
                move || rx.recv_timeout(TIMEOUT).map(|()| thread::current().id()),
                move || {
                    tx.send(()).unwrap();
                    thread::current().id()
                },
            )
        });
        assert_ne!(got.expect("b never ran while a was blocked"), b_thread);
    }

    #[test]
    fn a_panic_in_a_unwinds_only_after_the_stolen_b_has_finished() {
        let pool = pool(2);
        let (b_started, a_waits) = mpsc::channel();
        let (a_panics, b_waits) = mpsc::channel();
        let b_finished = &AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(move || {
                join(
                    move || {
                        // `b` answers only once another worker runs it.
                        a_waits.recv_timeout(TIMEOUT).expect("b was never stolen");
                        a_panics.send(()).unwrap();
                        panic!("a went wrong");
                    },
                    move || {
                        b_started.send(()).unwrap();
                        b_waits.recv_timeout(TIMEOUT).expect("a never got to its panic");
                        // Time for a join that does not wait to get away.
                        thread::sleep(Duration::from_millis(50));
                        b_finished.store(true, SeqCst);
                    },
                )
            })
        }));
        let message = *caught.expect_err("the panic was swallowed").downcast::<&str>().unwrap();
        assert_eq!(message, "a went wrong");
        assert!(b_finished.load(SeqCst), "join unwound while b was still running");
        assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2), "the pool did not survive");
    }

    #[test]
    fn a_panic_in_a_stolen_b_reaches_the_joiner() {
        let pool = pool(2);
        let (b_started, a_waits) = mpsc::channel();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(move || {
                join(
                    move || a_waits.recv_timeout(TIMEOUT).expect("b was never stolen"),
                    move || {
                        b_started.send(()).unwrap();
                        panic!("b went wrong");
                    },
                )
            })
        }));
        let message = *caught.expect_err("the panic was swallowed").downcast::<&str>().unwrap();
        assert_eq!(message, "b went wrong");
        assert_eq!(pool.install(|| fib(12)), 144, "the pool did not survive");
        // Nothing stolen: `b` panics on the joiner's own thread.
        assert!(panic::catch_unwind(|| join(|| (), || panic!("inline"))).is_err());
    }

    #[test]
    fn install_from_a_worker_of_another_pool_runs_there_and_comes_back() {
        let (outer, inner) = (pool(2), pool(3));
        let here = || (current_num_threads(), thread::current().id());
        let (before, within, after) = outer.install(|| (here(), inner.install(here), here()));
        assert_eq!((before.0, within.0, after.0), (2, 3, 2));
        assert_eq!(before.1, after.1);
        assert_ne!(before.1, within.1);
        // Its own worker installs inline.
        assert_eq!(outer.install(|| outer.install(here)).0, 2);
    }

    #[test]
    fn a_join_on_a_worker_costs_under_two_microseconds() {
        // One worker: nothing is ever stolen, every `b` is popped back.
        let per_join = pool(1).install(|| {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for i in 0..10_000u64 {
                        std::hint::black_box(join(|| i, || i + 1));
                    }
                    t.elapsed() / 10_000
                })
                .min()
                .unwrap()
        });
        println!("worker-side join: {per_join:?}");
        if !cfg!(debug_assertions) {
            assert!(per_join < Duration::from_micros(2), "{per_join:?} per join");
        }
    }
}
