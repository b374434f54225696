//! The coalescing core: bounded submission queue, earliest-deadline-first
//! batcher with per-client fair shares, worker pool, and the in-process
//! client handle.
//!
//! ## Queue lifecycle
//!
//! 1. **Submit.**  A [`Client`] wraps the request and a fresh completion
//!    slot into a queue entry.  Every entry carries a *deadline*: the
//!    caller's budget from [`Client::submit_with_deadline`], or
//!    [`max_wait`](crate::ServiceConfig::max_wait) when untagged.
//!    Submission fails fast — with
//!    [`ServiceError::Overloaded`] — when the bounded queue is full or the
//!    client is at its in-flight cap; nothing is ever silently dropped or
//!    unboundedly buffered.  A price quote whose key the shared memo
//!    already holds is answered right here instead, on the submitting
//!    thread, once the in-flight cap and shutdown checks pass: its ticket
//!    comes back resolved and no entry, batch or worker is involved.  Such
//!    hits take no queue capacity, so a full queue or a brownout tier never
//!    rejects them.
//! 2. **Coalesce — only while busy.**  A worker that finds work while no
//!    batch is executing flushes at once: nothing is outstanding, so
//!    waiting for company would only add latency (Nagle's rule, applied to
//!    batches).  While another batch executes, the worker waits until the
//!    queue holds [`max_batch`](crate::ServiceConfig::max_batch) requests,
//!    the **earliest queued deadline** arrives, or the pool goes idle,
//!    whichever first.  A late submission with a tight deadline therefore
//!    *shortens* the wait: the flush clock follows the heap head, not the
//!    oldest arrival.
//! 3. **Drain (EDF + fair share).**  The worker pops the binary heap in
//!    earliest-deadline-first order (sequence number breaks ties, so equal
//!    deadlines drain in arrival order).  Each client's take is capped at
//!    `max_batch / distinct-queued-clients` (at least 1); over-share pops
//!    are set aside and re-admitted — still in EDF order — only if the
//!    batch has room once every client got its share, and anything left
//!    returns to the heap untouched.  A deadline-tagged quote therefore
//!    overtakes a 4096-contract bulk book instead of queueing behind it.
//! 4. **Execute.**  The drained batch is grouped by request kind and each
//!    group runs through its batch-native driver over the *shared*
//!    [`BatchPricer`] — one `price_batch` for prices, one fanned greeks
//!    ladder, one lockstep surface inversion — so co-batched requests share
//!    in-batch dedup and every request shares the cross-batch memo.
//! 5. **Complete.**  Each entry's slot receives its own `Result`; waiting
//!    clients wake, and a completion callback (the reactor's readiness
//!    nudge) fires outside every lock.  Batch size, queue depth, heap-pop
//!    and deadline-miss counters feed the metrics registry
//!    ([`QuoteService::metrics_text`]).  The batch then stops counting
//!    as executing — however `execute` ended — and if that leaves the pool
//!    idle with work queued, the coalescing workers are woken to flush it.
//!
//! Shutdown flips a flag (new submits fail with
//! [`ServiceError::ShuttingDown`]), wakes every worker, and joins them;
//! workers drain the remaining queue — answering every accepted request —
//! before exiting.

use crate::config::ServiceConfig;
use crate::fault::FaultSite;
use crate::obs::{ServiceObs, KIND_GREEKS, KIND_IMPLIED_VOL, KIND_PRICE};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};
use crate::types::{ServiceError, ServiceRequest, ServiceResponse, ServiceStats, ShedByClass};
use crate::ServiceResult;
use amopt_core::batch::surface::{implied_vol_surface, VolQuote};
use amopt_core::batch::{greeks as batch_greeks, BatchPricer, PricingRequest};
use amopt_obs::{Journal, RequestTrace, Stage, TraceCard};
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A completion callback, invoked exactly once when the slot fills —
/// always *outside* the slot's own locks.  The reactor front end uses this
/// to push the connection onto its ready list and kick the event loop.
type NotifyFn = Box<dyn FnOnce() + Send>;

/// Completion slot of one submitted request.
struct Slot {
    done: Mutex<Option<ServiceResult>>,
    ready: Condvar,
    notify: Mutex<Option<NotifyFn>>,
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot")
            .field("done", &self.done)
            .field("has_notify", &lock_unpoisoned(&self.notify).is_some())
            .finish()
    }
}

impl Slot {
    /// A slot holding `done` — `None` until a worker fills it, or the answer
    /// itself for a quote answered at submit.
    fn new(done: Option<ServiceResult>) -> Arc<Self> {
        Arc::new(Slot { done: Mutex::new(done), ready: Condvar::new(), notify: Mutex::new(None) })
    }

    fn fill(&self, result: ServiceResult) {
        {
            let mut done = lock_unpoisoned(&self.done);
            *done = Some(result);
            self.ready.notify_all();
        }
        // Fire the completion callback outside both locks: it may grab the
        // reactor's ready-list mutex and write an eventfd, neither of which
        // belongs under a guard.
        let callback = lock_unpoisoned(&self.notify).take();
        if let Some(callback) = callback {
            callback();
        }
    }

    fn wait(&self) -> ServiceResult {
        let mut done = lock_unpoisoned(&self.done);
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = wait_unpoisoned(&self.ready, done);
        }
    }
}

/// Releases one unit of a client's in-flight budget when the request
/// completes (dropped by the worker *before* filling the slot, or by the
/// submit path on rejection).
#[derive(Debug)]
struct InflightPermit(Arc<AtomicUsize>);

impl Drop for InflightPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[derive(Debug)]
struct Pending {
    request: ServiceRequest,
    slot: Arc<Slot>,
    /// EDF key: when this request wants to have flushed.
    deadline: Instant,
    /// Whether `deadline` came from a caller-supplied budget (and therefore
    /// counts toward [`ServiceStats::deadline_misses`]) rather than from the
    /// `max_wait` coalescing default, which only orders the heap and bounds
    /// the wait behind a busy pool.
    explicit_deadline: bool,
    /// Queue-arrival sequence number; breaks deadline ties FIFO.
    seq: u64,
    /// Fair-share key: which client handle submitted this.
    client_id: u64,
    /// Flightdeck trace card riding along (absent when tracing is off).
    trace: Option<Arc<RequestTrace>>,
    _permit: InflightPermit,
}

// The heap orders *only* by (deadline, seq); payload fields are ignored.
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `BinaryHeap` is a max-heap, so invert: the earliest deadline
        // (then the lowest sequence number) compares greatest and pops
        // first.
        other.deadline.cmp(&self.deadline).then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Default)]
struct QueueState {
    /// Earliest-deadline-first submission queue.
    heap: BinaryHeap<Pending>,
    /// Next arrival sequence number (assigned under this lock, so ties
    /// drain in true arrival order).
    next_seq: u64,
    shutdown: bool,
    /// Batches drained but not yet finished executing.  Coalescing waits
    /// only while this is non-zero; [`Executing`] owns each unit.
    executing: usize,
}

/// One unit of [`QueueState::executing`], taken under the queue lock where
/// a batch is drained and given back when dropped — after `execute`
/// returns, returns early, or unwinds, so the count never leaks.  The last
/// batch out wakes the coalescing workers if work is queued.
struct Executing<'a>(&'a Shared);

impl Drop for Executing<'_> {
    fn drop(&mut self) {
        let idle_with_work = {
            let mut state = lock_unpoisoned(&self.0.state);
            state.executing -= 1;
            state.executing == 0 && !state.heap.is_empty()
        };
        if idle_with_work {
            self.0.work.notify_all();
        }
    }
}

#[derive(Debug)]
struct Shared {
    cfg: ServiceConfig,
    pricer: BatchPricer,
    state: Mutex<QueueState>,
    /// Signalled on every enqueue, on shutdown, and when the last
    /// executing batch finishes with work queued.
    work: Condvar,
    /// The Flightdeck spine: every counter, gauge, histogram, trace card,
    /// and journal event the service emits funnels through here.
    obs: Arc<ServiceObs>,
    /// Retry-budget token bucket, in *tenths* of a retry: a retry spends
    /// 10, a clean first-attempt success earns 1 back (capped at the
    /// configured budget), so retry traffic is bounded at the budget plus
    /// ~10% of successful throughput.  Kept as a raw atomic (the spend
    /// path is a CAS loop, not a plain add) and mirrored to the
    /// `amopt_retry_tokens` gauge after every state change.
    retry_tokens: AtomicU64,
    /// Client-handle id allocator (fair-share key).
    next_client: AtomicU64,
    /// Worker thread handles.  Lives in `Shared` (not `QuoteService`) so
    /// the watchdog guard of a dying worker can register its replacement's
    /// handle for shutdown to join.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    /// Spends one retry token (10 tenths); `false` when the bucket is dry.
    fn spend_retry_token(&self) -> bool {
        let spent = self
            .retry_tokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| t.checked_sub(10))
            .is_ok();
        self.obs.retry_tokens.set(self.retry_tokens.load(Ordering::Acquire));
        spent
    }

    /// Earns a tenth of a retry token, capped at the configured budget.
    fn earn_retry_tenth(&self) {
        let cap = self.cfg.retry_budget as u64 * 10;
        let _ = self
            .retry_tokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| (t < cap).then_some(t + 1));
        self.obs.retry_tokens.set(self.retry_tokens.load(Ordering::Acquire));
    }
}

/// The batch-coalescing quote service.  Start one with
/// [`QuoteService::start`], hand out [`Client`]s, and shut it down with
/// [`QuoteService::shutdown`] (also invoked on drop).
#[derive(Debug)]
pub struct QuoteService {
    shared: Arc<Shared>,
}

/// Spawns worker `index`, registering its handle for shutdown to join.
/// `workers_alive` is incremented *before* the spawn so a stats read right
/// after `start`/respawn already counts the worker.
fn spawn_worker(shared: &Arc<Shared>, index: usize) -> std::io::Result<()> {
    shared.obs.workers_alive.add(1);
    let worker_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new().name(format!("amopt-service-worker-{index}")).spawn(
        move || {
            let _watchdog = WorkerGuard { shared: Arc::clone(&worker_shared), index };
            worker_loop(&worker_shared)
        },
    );
    match spawned {
        Ok(handle) => {
            lock_unpoisoned(&shared.workers).push(handle);
            Ok(())
        }
        Err(e) => {
            shared.obs.workers_alive.sub(1);
            Err(e)
        }
    }
}

/// The self-healing watchdog: dropped as a worker thread exits.  A normal
/// exit (shutdown drain finished) just decrements the live count; an exit
/// by panic respawns a replacement — unless the service is shutting down
/// with nothing left to drain — and counts a restart.  The queue itself is
/// untouched by the death: entries the worker had *drained* were already
/// answered through the executor's panic isolation, and entries still
/// queued are picked up by the replacement.
struct WorkerGuard {
    shared: Arc<Shared>,
    index: usize,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shared.obs.workers_alive.sub(1);
        if !std::thread::panicking() {
            return;
        }
        let respawn = {
            let state = lock_unpoisoned(&self.shared.state);
            !state.shutdown || !state.heap.is_empty()
        };
        if !respawn {
            return;
        }
        if spawn_worker(&self.shared, self.index).is_ok() {
            self.shared.obs.worker_restarted(self.index as u64);
        }
    }
}

/// Takes the current worker handles (a helper so no lock guard outlives
/// the take — the caller joins outside any lock).
fn take_worker_handles(shared: &Shared) -> Vec<std::thread::JoinHandle<()>> {
    let mut workers = lock_unpoisoned(&shared.workers);
    std::mem::take(&mut *workers)
}

impl QuoteService {
    /// Starts the worker pool and returns the running service.
    ///
    /// Fails with the spawn error if the OS refuses a worker thread; any
    /// workers already started are shut down and joined before returning.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        let cfg = cfg.normalised();
        let pricer = BatchPricer::with_memo_capacity(cfg.engine, cfg.memo_capacity);
        let obs = ServiceObs::new(cfg.trace, cfg.journal_capacity);
        if let Some(plan) = &cfg.fault {
            // Wire the fault plan's firing funnel into the journal and the
            // per-site counters.  `attach_observer` is first-write-wins, so
            // reusing one plan across services keeps the first journal.
            plan.attach_observer(Arc::clone(&obs));
        }
        let shared = Arc::new(Shared {
            cfg,
            pricer,
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            obs,
            retry_tokens: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        // Fill the retry-budget token bucket (tenths of a retry).
        shared.retry_tokens.store(shared.cfg.retry_budget as u64 * 10, Ordering::Relaxed);
        shared.obs.retry_tokens.set(shared.cfg.retry_budget as u64 * 10);
        for i in 0..shared.cfg.workers {
            if let Err(e) = spawn_worker(&shared, i) {
                lock_unpoisoned(&shared.state).shutdown = true;
                shared.work.notify_all();
                for handle in take_worker_handles(&shared) {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
        Ok(QuoteService { shared })
    }

    /// A new client handle with its own in-flight budget
    /// ([`ServiceConfig::per_conn_inflight`]) and its own fair-share
    /// identity.  Handles are cheap; give each connection or logical
    /// caller its own.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            inflight: Arc::new(AtomicUsize::new(0)),
            id: self.shared.next_client.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The configuration the service was started with (normalised).
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// Point-in-time counters: queue depth, batch-size histogram, memo
    /// counters, rejection / deadline-miss / heap-pop counts.
    ///
    /// An in-process *view* assembled from the metrics registry: every
    /// counter here is also in [`metrics_text`](QuoteService::metrics_text),
    /// the one exposition on the wire, so the two can never disagree.
    pub fn stats(&self) -> ServiceStats {
        let o = &self.shared.obs;
        let queue_depth = lock_unpoisoned(&self.shared.state).heap.len();
        ServiceStats {
            queue_depth,
            submitted: o.submitted.get(),
            completed: o.completed.get(),
            rejected_queue_full: o.rejected_queue_full.get(),
            rejected_inflight: o.rejected_inflight.get(),
            rejected_shutdown: o.rejected_shutdown.get(),
            batches: o.batches.get(),
            deadline_misses: o.deadline_misses.get(),
            heap_pops: o.heap_pops.get(),
            memo: self.shared.pricer.memo_stats(),
            worker_restarts: o.worker_restarts.get(),
            workers_alive: o.workers_alive.get(),
            retries: o.retries.get(),
            retry_budget_exhausted: o.retry_budget_exhausted.get(),
            shed_by_class: ShedByClass {
                price: o.shed_price.get(),
                greeks: o.shed_greeks.get(),
                implied_vol: o.shed_implied_vol.get(),
            },
            reactor: o.reactor_stats(),
        }
    }

    /// The full Prometheus-style metrics exposition: every registry
    /// instrument plus the kernel phase timers, with scrape-time gauges
    /// (memo, journal) refreshed first.
    pub fn metrics_text(&self) -> String {
        self.shared.obs.queue_depth.set(lock_unpoisoned(&self.shared.state).heap.len() as u64);
        self.shared.obs.render(&self.shared.pricer.memo_stats())
    }

    /// The most recent `n` completed request trace cards, oldest first,
    /// sampled from the event journal without stopping writers.
    pub fn recent_traces(&self, n: usize) -> Vec<TraceCard> {
        self.shared.obs.recent_traces(n)
    }

    /// The event journal — completed trace cards, fault firings, sheds,
    /// retries, worker restarts, and deadline misses, in push order.
    pub fn journal(&self) -> &Arc<Journal> {
        self.shared.obs.journal()
    }

    /// Number of instruments registered with the metrics registry.
    pub fn instrument_count(&self) -> usize {
        self.shared.obs.instrument_count()
    }

    /// The observability spine, shared with the front ends.
    pub(crate) fn obs(&self) -> &Arc<ServiceObs> {
        &self.shared.obs
    }

    /// Stops accepting new requests, drains and answers everything already
    /// accepted, and joins the workers.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        // Take the handles, join outside the lock: joining with `workers`
        // held would block every concurrent `shutdown` caller on this
        // mutex for the full drain instead of on the join itself.  Loop
        // until the list stays empty: a worker dying mid-drain registers
        // its watchdog replacement's handle concurrently, and `join` on
        // the dying thread returns only after that registration, so the
        // next take observes it.
        loop {
            let drained = take_worker_handles(&self.shared);
            if drained.is_empty() {
                return;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for QuoteService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// In-process handle for submitting quotes to a [`QuoteService`].
///
/// Cloning shares the in-flight budget *and* the fair-share identity; use
/// [`QuoteService::client`] for an independent one.
#[derive(Debug, Clone)]
pub struct Client {
    shared: Arc<Shared>,
    inflight: Arc<AtomicUsize>,
    id: u64,
}

impl Client {
    /// Submits a request without waiting; the returned [`Ticket`] resolves
    /// when the coalesced batch containing the request executes — or is
    /// already resolved when the request is a price quote the shared memo
    /// holds, answered at submit without a queue entry or a worker.
    ///
    /// The request is scheduled as if its deadline were
    /// [`max_wait`](crate::ServiceConfig::max_wait) from now; on an idle
    /// service it flushes at once.  Fails fast with
    /// [`ServiceError::Overloaded`] when this client is at its in-flight
    /// cap or the submission queue is full, and with
    /// [`ServiceError::ShuttingDown`] once shutdown has begun.  A memo hit
    /// still meets the in-flight cap and the shutdown check, but takes no
    /// queue capacity, so neither a full queue nor brownout shedding
    /// rejects it.
    pub fn submit(&self, request: ServiceRequest) -> Result<Ticket, ServiceError> {
        self.submit_with_deadline(request, None)
    }

    /// Submits a request with an explicit latency budget: the scheduler
    /// flushes a batch no later than the earliest queued deadline and
    /// drains the queue earliest-deadline-first, so a tight budget
    /// overtakes queued bulk work.  `None` falls back to
    /// [`max_wait`](crate::ServiceConfig::max_wait), making this
    /// equivalent to [`Client::submit`].
    pub fn submit_with_deadline(
        &self,
        request: ServiceRequest,
        budget: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        // amopt-lint: hot-path
        let trace = self.shared.obs.trace_start();
        if let Some(trace) = &trace {
            trace.set_id(self.shared.obs.next_trace_id());
            trace.set_kind(ServiceObs::kind_of(&request));
            trace.stamp(Stage::Parsed);
        }
        self.submit_traced(request, budget, trace)
    }

    /// The submit funnel behind [`Client::submit_with_deadline`]: the wire
    /// front ends call this directly with a trace card they started before
    /// decoding, so the parse interval covers the actual wire decode.
    pub(crate) fn submit_traced(
        &self,
        request: ServiceRequest,
        budget: Option<Duration>,
        trace: Option<Arc<RequestTrace>>,
    ) -> Result<Ticket, ServiceError> {
        // amopt-lint: hot-path
        let shared = &self.shared;
        // In-flight cap first: it is client-local, so a saturated client
        // cannot even contend on the queue lock.
        let cap = shared.cfg.per_conn_inflight;
        if self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| (v < cap).then_some(v + 1))
            .is_err()
        {
            shared.obs.rejected_inflight.inc();
            return Err(ServiceError::Overloaded { what: "per-connection in-flight cap" });
        }
        let permit = InflightPermit(Arc::clone(&self.inflight));
        if let ServiceRequest::Price(req) = &request {
            // A quote the shared memo already holds needs no worker: past
            // the shutdown check, answer it here.  The queue lock is let go
            // before the memo shard's is taken, and the shard's before the
            // queue's is taken again for a miss.
            if lock_unpoisoned(&shared.state).shutdown {
                shared.obs.rejected_shutdown.inc();
                return Err(ServiceError::ShuttingDown);
            }
            if let Some(price) = shared.pricer.memo_lookup(req) {
                return Ok(answered_at_submit(shared, price, trace));
            }
        }
        let slot = Slot::new(None);
        let mut deadline = Instant::now() + budget.unwrap_or(shared.cfg.max_wait);
        if let Some(plan) = &shared.cfg.fault {
            // Injected clock skew: perturb the deadline arithmetic by a
            // bounded, deterministic offset.  EDF ordering degrades
            // gracefully (entries drain slightly out of ideal order and
            // explicit budgets may count a miss); correctness — exactly one
            // reply per accepted request — never depends on the deadline.
            if let Some(skew_ms) = plan.clock_skew_ms() {
                deadline = if skew_ms >= 0 {
                    deadline + Duration::from_millis(skew_ms as u64)
                } else {
                    deadline
                        .checked_sub(Duration::from_millis(skew_ms.unsigned_abs()))
                        .unwrap_or(deadline)
                };
            }
        }
        let delivery = trace.as_ref().map(|t| (Arc::clone(t), Arc::clone(&shared.obs)));
        {
            let mut state = lock_unpoisoned(&shared.state);
            if state.shutdown {
                drop(state);
                shared.obs.rejected_shutdown.inc();
                return Err(ServiceError::ShuttingDown);
            }
            if state.heap.len() >= shared.cfg.queue_depth {
                drop(state);
                shared.obs.rejected_queue_full.inc();
                return Err(ServiceError::Overloaded { what: "submission queue full" });
            }
            // Brownout tiers: under sustained queue pressure, shed untagged
            // work by class — implied-vol inversions (the most expensive per
            // request) first, greeks ladders second, plain quotes last — once
            // the queue is that full.  Deadline-tagged submissions skip
            // brownout entirely (the EDF scheduler exists to serve them);
            // only a full queue rejects those.
            const SHED_IMPLIED_VOL_AT: f64 = 0.50;
            const SHED_GREEKS_AT: f64 = 0.75;
            const SHED_PRICE_AT: f64 = 0.95;
            if budget.is_none() {
                let (class, shed_at, what) = match &request {
                    ServiceRequest::ImpliedVol(_) => (
                        KIND_IMPLIED_VOL,
                        SHED_IMPLIED_VOL_AT,
                        "brownout: implied-vol inversions shed under queue pressure",
                    ),
                    ServiceRequest::Greeks(_) => (
                        KIND_GREEKS,
                        SHED_GREEKS_AT,
                        "brownout: greeks ladders shed under queue pressure",
                    ),
                    ServiceRequest::Price(_) => (
                        KIND_PRICE,
                        SHED_PRICE_AT,
                        "brownout: untagged quotes shed under queue pressure",
                    ),
                };
                if state.heap.len() as f64 >= shed_at * shared.cfg.queue_depth as f64 {
                    drop(state);
                    shared.obs.shed_fired(class);
                    return Err(ServiceError::Overloaded { what });
                }
            }
            let seq = state.next_seq;
            state.next_seq += 1;
            state.heap.push(Pending {
                request,
                slot: Arc::clone(&slot),
                deadline,
                explicit_deadline: budget.is_some(),
                seq,
                client_id: self.id,
                trace,
                _permit: permit,
            });
        }
        if let Some((trace, _)) = &delivery {
            trace.stamp(Stage::Enqueued);
        }
        shared.obs.submitted.inc();
        // notify_all, not notify_one: a new earliest deadline must re-arm
        // the timeout of whichever worker is coalescing, which is not
        // necessarily the one `notify_one` would pick.
        shared.work.notify_all();
        Ok(Ticket { slot, delivery })
    }

    /// Submits a request and blocks for its response.
    pub fn call(&self, request: ServiceRequest) -> ServiceResult {
        self.submit(request)?.wait()
    }

    /// [`call`](Client::call) with jittered-exponential-backoff retries on
    /// [`ServiceError::Overloaded`] — the one in-process outcome that is
    /// idempotent-safe to retry, because a rejected request was never
    /// enqueued.  Everything else (success, pricing errors, shutdown,
    /// internal errors) returns immediately: those requests *executed*, so
    /// resubmitting would double-run them.
    ///
    /// Retries draw on a service-wide budget
    /// ([`retry_budget`](crate::ServiceConfig::retry_budget)): each retry
    /// spends a token and each clean first-attempt success earns a tenth
    /// back, so a persistent overload cannot amplify traffic by more than
    /// the budget plus ~10% of goodput.  When the budget is dry the
    /// original `Overloaded` error surfaces unchanged and
    /// `retry_budget_exhausted` counts it.  Backoff jitter is
    /// deterministic per (client handle, attempt): no global RNG.
    pub fn call_with_retry(&self, request: ServiceRequest, policy: &RetryPolicy) -> ServiceResult {
        let attempts = policy.max_attempts.max(1);
        for attempt in 1..=attempts {
            let first_attempt = attempt == 1;
            match self.call(request.clone()) {
                Err(ServiceError::Overloaded { what }) => {
                    if attempt == attempts {
                        return Err(ServiceError::Overloaded { what });
                    }
                    if !self.shared.spend_retry_token() {
                        self.shared.obs.retry_budget_exhausted.inc();
                        return Err(ServiceError::Overloaded { what });
                    }
                    self.shared.obs.retry_fired(self.id, attempt as u64);
                    std::thread::sleep(policy.backoff(self.id, attempt));
                }
                result => {
                    if first_attempt && result.is_ok() {
                        self.shared.earn_retry_tenth();
                    }
                    return result;
                }
            }
        }
        // Unreachable: the final attempt returned above.
        Err(ServiceError::Internal { what: "retry loop exhausted without a result" })
    }

    /// Prices one contract through the service.
    pub fn price(&self, request: PricingRequest) -> Result<f64, ServiceError> {
        match self.call(ServiceRequest::Price(request))? {
            ServiceResponse::Price(p) => Ok(p),
            _ => Err(ServiceError::Internal { what: "price request answered with another kind" }),
        }
    }

    /// Full greeks ladder for one contract through the service.
    pub fn greeks(
        &self,
        request: PricingRequest,
    ) -> Result<amopt_core::greeks::Greeks, ServiceError> {
        match self.call(ServiceRequest::Greeks(request))? {
            ServiceResponse::Greeks(g) => Ok(g),
            _ => Err(ServiceError::Internal { what: "greeks request answered with another kind" }),
        }
    }

    /// Inverts one implied-volatility quote through the service.
    pub fn implied_vol(&self, quote: VolQuote) -> Result<f64, ServiceError> {
        match self.call(ServiceRequest::ImpliedVol(quote))? {
            ServiceResponse::ImpliedVol(v) => Ok(v),
            _ => Err(ServiceError::Internal {
                what: "implied-vol request answered with another kind",
            }),
        }
    }

    /// Requests currently in flight on this handle.
    pub fn in_flight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

/// The already-resolved ticket of a quote answered at submit from the memo:
/// counted submitted and completed in one step, never queued or batched.
/// Its card stamps `Enqueued` through `Completed` back to back — near-zero
/// queue-wait, batch-form, memo-probe and execute intervals — and carries
/// the memo-hit flag.
fn answered_at_submit(shared: &Shared, price: f64, trace: Option<Arc<RequestTrace>>) -> Ticket {
    // amopt-lint: hot-path
    if let Some(trace) = &trace {
        trace.set_flag(amopt_obs::FLAG_MEMO_HIT);
        for stage in [
            Stage::Enqueued,
            Stage::Dequeued,
            Stage::ExecStart,
            Stage::MemoProbed,
            Stage::Completed,
        ] {
            trace.stamp(stage);
        }
    }
    shared.obs.submitted.inc();
    shared.obs.completed.inc();
    Ticket {
        slot: Slot::new(Some(Ok(ServiceResponse::Price(price)))),
        delivery: trace.map(|t| (t, Arc::clone(&shared.obs))),
    }
}

/// Backoff shape for [`Client::call_with_retry`]: exponential from
/// `base_backoff`, capped at `max_backoff`, scaled by a deterministic
/// jitter in `[0.5, 1.0)` derived from the client handle and attempt
/// number (no global RNG, so a replay retries at identical instants).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (min 1).
    pub max_attempts: usize,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt + 1` for client handle `id`.
    pub(crate) fn backoff(&self, id: u64, attempt: usize) -> Duration {
        let doublings = u32::try_from(attempt.saturating_sub(1)).unwrap_or(16).min(16);
        let exp = self.base_backoff.saturating_mul(1u32 << doublings).min(self.max_backoff);
        let jitter =
            crate::fault::splitmix64(id.wrapping_mul(0x9e37_79b9).wrapping_add(attempt as u64));
        exp.mul_f64(0.5 + (jitter & 1023) as f64 / 2048.0)
    }
}

/// A pending response; resolve it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
    /// Delivery pair — the trace card this request carries and the obs
    /// spine to record it into — so taking the result stamps
    /// [`Stage::Delivered`] and journals the completed card exactly once.
    delivery: Option<(Arc<RequestTrace>, Arc<ServiceObs>)>,
}

impl Ticket {
    /// Blocks until the coalesced batch containing this request has
    /// executed and returns the request's own result (at once for a quote
    /// answered at submit).
    pub fn wait(mut self) -> ServiceResult {
        let result = self.slot.wait();
        if let Some((trace, obs)) = self.delivery.take() {
            obs.deliver(&trace, result.is_err());
        }
        result
    }

    /// Non-blocking poll: the result if the batch has executed, `None`
    /// otherwise.  The reactor uses this to pump in-order replies without
    /// ever parking its event loop.
    pub(crate) fn try_take(&self) -> Option<ServiceResult> {
        // amopt-lint: hot-path
        let result = lock_unpoisoned(&self.slot.done).take()?;
        if let Some((trace, obs)) = &self.delivery {
            obs.deliver(trace, result.is_err());
        }
        Some(result)
    }

    /// Whether the result is in and not yet taken.  A quote answered at
    /// submit starts out so, and needs no completion callback.
    pub(crate) fn is_resolved(&self) -> bool {
        // amopt-lint: hot-path
        lock_unpoisoned(&self.slot.done).is_some()
    }

    /// Arms a completion callback, fired exactly once — immediately if the
    /// result is already in, otherwise from the completing worker, always
    /// outside the slot's locks.
    pub(crate) fn set_notify(&self, callback: NotifyFn) {
        if self.is_resolved() {
            callback();
            return;
        }
        *lock_unpoisoned(&self.slot.notify) = Some(callback);
        // `fill` may have landed between the two locks above, in which
        // case it saw an empty notify slot and fired nothing: take the
        // callback back and fire it here.  At most one of the two paths
        // observes the callback, so it still runs exactly once.
        if self.is_resolved() {
            let callback = lock_unpoisoned(&self.slot.notify).take();
            if let Some(callback) = callback {
                callback();
            }
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // A ticket dropped with its delivery pair still armed was never
        // resolved through `wait` — the requester vanished (typically a
        // connection torn down before the reactor could pump the reply).
        // Journal the card anyway, flagged abandoned, so the flight
        // recorder accounts every accepted request exactly once.  After a
        // `try_take` delivery this finds the card already finished and
        // does nothing.
        if let Some((trace, obs)) = self.delivery.take() {
            obs.abandon(&trace);
        }
    }
}

/// One worker: flush at once if no batch is executing, else coalesce until
/// the batch fills, the earliest queued deadline arrives, or the pool goes
/// idle; drain EDF with per-client fair shares, execute, repeat — until
/// shutdown *and* an empty queue.
fn worker_loop(shared: &Shared) {
    loop {
        if let Some(plan) = &shared.cfg.fault {
            // Injected worker death, at the one safe point: between
            // batches, with nothing drained, so no accepted request is
            // held by the dying thread.  The watchdog guard respawns.
            if plan.fires(FaultSite::WorkerDeath) {
                // amopt-lint: allow(panic-surface) -- injected fault: the watchdog guard turns this panic into a respawn, which is the machinery under test
                panic!("amopt-fault: injected worker death");
            }
        }
        let (batch, _executing) = {
            let mut state = lock_unpoisoned(&shared.state);
            // Phase 1: wait for work (or exit once shut down and drained).
            loop {
                if !state.heap.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = wait_unpoisoned(&shared.work, state);
            }
            // Phase 2: coalesce only while another batch executes — with
            // nothing executing there is nothing to wait behind — until
            // the batch is full, the earliest queued deadline passes, or
            // the last executing batch finishes.  The heap head is re-read
            // after every wake: a fresh submission with a tighter deadline
            // shortens the remaining wait.  Shutdown flushes immediately:
            // latency no longer matters, only draining does.
            loop {
                if state.heap.len() >= shared.cfg.max_batch
                    || state.shutdown
                    || state.executing == 0
                {
                    break;
                }
                let Some(head) = state.heap.peek() else { break };
                let deadline = head.deadline;
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (s, _timeout) = wait_timeout_unpoisoned(&shared.work, state, deadline - now);
                state = s;
                if state.heap.is_empty() {
                    // Another worker drained the queue while this one
                    // slept; nothing left to coalesce around.
                    break;
                }
            }
            if state.heap.is_empty() {
                continue;
            }
            // Phase 3: drain up to max_batch entries in EDF order with a
            // per-client fair share, and count the batch as executing
            // until its guard drops.
            let batch = drain_edf(&mut state, &shared.cfg, &shared.obs);
            state.executing += 1;
            (batch, Executing(shared))
        };
        execute(shared, batch);
    }
}

/// Pops up to `max_batch` entries earliest-deadline-first, capping each
/// client at `max_batch / distinct-queued-clients` (at least one).  Pops
/// beyond a client's share are parked and — still in EDF order — backfill
/// whatever room the batch has left once the heap is exhausted, so the
/// flush never runs below capacity while work is queued.  Unused parked
/// entries go back on the heap.
fn drain_edf(state: &mut QueueState, cfg: &ServiceConfig, obs: &ServiceObs) -> Vec<Pending> {
    let mut distinct: Vec<u64> = Vec::new();
    for entry in state.heap.iter() {
        if !distinct.contains(&entry.client_id) {
            distinct.push(entry.client_id);
        }
    }
    let share = (cfg.max_batch / distinct.len().max(1)).max(1);
    let mut batch: Vec<Pending> = Vec::with_capacity(cfg.max_batch.min(state.heap.len()));
    let mut parked: Vec<Pending> = Vec::new();
    let mut taken: Vec<(u64, usize)> = Vec::new();
    let mut pops = 0u64;
    while batch.len() < cfg.max_batch {
        let Some(entry) = state.heap.pop() else { break };
        pops += 1;
        let count = match taken.iter_mut().find(|(id, _)| *id == entry.client_id) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                taken.push((entry.client_id, 1));
                1
            }
        };
        if count <= share {
            batch.push(entry);
        } else {
            parked.push(entry);
        }
    }
    obs.heap_pops.add(pops);
    // Work-conserving backfill, then return the rest to the heap.
    let mut parked = parked.into_iter();
    while batch.len() < cfg.max_batch {
        let Some(entry) = parked.next() else { break };
        batch.push(entry);
    }
    for entry in parked {
        state.heap.push(entry);
    }
    // The drained entries leave the EDF queue here — stamp the end of
    // their queue/coalesce wait.  (Parked entries back on the heap keep an
    // unstamped slot; the CAS stamp is first-wins, so a later real drain
    // still lands.)
    for entry in &batch {
        if let Some(trace) = &entry.trace {
            trace.stamp(Stage::Dequeued);
        }
    }
    batch
}

/// A request group's batch-native driver: slice of requests in, one result
/// per request out.
type BatchDriver<'a, R, T> = dyn Fn(&[R]) -> Vec<Result<T, amopt_core::PricingError>> + 'a;

/// Runs one request group through its batch driver inside the designated
/// `catch_unwind` boundary.  The fast path runs the whole group at once;
/// if the group panics (a real bug, or an injected [`FaultSite::WorkerPanic`]
/// flagged in `injected`), it falls back to per-request isolation: each
/// request re-runs alone under its own shield, so a panicking request
/// resolves to [`ServiceError::Internal`] for *that request only* and the
/// rest of the group still answers.  Injected panics fire *before* the
/// driver call, so the shared memo is never entered by a doomed request.
fn run_shielded<R, T>(
    injected: &[bool],
    reqs: &[R],
    run: &BatchDriver<'_, R, T>,
) -> Vec<Result<T, ServiceError>> {
    let clean = !injected.iter().any(|&b| b);
    if clean {
        // amopt-lint: allow(panic-surface) -- designated worker-pool unwind boundary: a driver panic is isolated per request below instead of killing the worker mid-batch
        let shielded = catch_unwind(AssertUnwindSafe(|| run(reqs)));
        if let Ok(results) = shielded {
            return results.into_iter().map(|r| r.map_err(ServiceError::from)).collect();
        }
    }
    reqs.iter()
        .zip(injected.iter().chain(std::iter::repeat(&false)))
        .map(|(req, &boom)| {
            // amopt-lint: allow(panic-surface) -- designated worker-pool unwind boundary: per-request isolation shield
            let one = catch_unwind(AssertUnwindSafe(|| {
                if boom {
                    // amopt-lint: allow(panic-surface) -- injected fault: this panic exists to prove the shield holds
                    panic!("amopt-fault: injected worker panic");
                }
                run(std::slice::from_ref(req)).pop()
            }));
            match one {
                Ok(Some(result)) => result.map_err(ServiceError::from),
                Ok(None) => Err(ServiceError::Internal { what: "batch driver returned no result" }),
                Err(_) => {
                    Err(ServiceError::Internal { what: "worker panicked pricing this request" })
                }
            }
        })
        .collect()
}

/// Executes one drained batch: group by request kind, run each group
/// through its batch-native driver over the shared pricer, scatter results
/// into the slots.
fn execute(shared: &Shared, batch: Vec<Pending>) {
    // amopt-lint: hot-path
    // amopt-lint: allow-scope(hot-path-alloc) -- per-batch grouping/scatter buffers are O(batch); request payloads are cloned exactly once into the driver slices
    let o = &shared.obs;
    for pending in &batch {
        if let Some(trace) = &pending.trace {
            trace.stamp(Stage::ExecStart);
        }
    }
    let plan = shared.cfg.fault.as_deref();
    if let Some(plan) = plan {
        if let Some(stall) = plan.stall() {
            // Injected stall: the worker sits on its drained batch.  Other
            // workers keep draining; nothing is lost, latency suffers.
            std::thread::sleep(stall);
        }
        if plan.fires(FaultSite::LostReply) {
            // The deliberately *unhandled* class: drop the drained entries
            // without filling their slots.  `submitted` permanently exceeds
            // `completed` and the chaos gate must fail — CI's proof that the
            // gate can catch a broken service.  Rate is zero in every
            // handled schedule.
            return;
        }
    }
    o.batches.inc();
    o.batch_size.record(batch.len() as u64);

    // Group by request kind, tracking batch indices alongside the driver
    // input slices — the request payloads are cloned exactly once.  Traced
    // price requests probe the memo on the way past (recency- and
    // counter-neutral) so their cards can carry the hit flag.
    let mut prices: Vec<usize> = Vec::new();
    let mut price_reqs: Vec<PricingRequest> = Vec::new();
    let mut greeks: Vec<usize> = Vec::new();
    let mut greek_reqs: Vec<PricingRequest> = Vec::new();
    let mut vols: Vec<usize> = Vec::new();
    let mut vol_quotes: Vec<VolQuote> = Vec::new();
    for (i, pending) in batch.iter().enumerate() {
        match &pending.request {
            ServiceRequest::Price(req) => {
                if let Some(trace) = &pending.trace {
                    if shared.pricer.memo_peek(req) {
                        trace.set_flag(amopt_obs::FLAG_MEMO_HIT);
                    }
                    trace.stamp(Stage::MemoProbed);
                }
                prices.push(i);
                price_reqs.push(req.clone());
            }
            ServiceRequest::Greeks(req) => {
                greeks.push(i);
                greek_reqs.push(req.clone());
            }
            ServiceRequest::ImpliedVol(quote) => {
                vols.push(i);
                vol_quotes.push(quote.clone());
            }
        }
    }

    // Each entry is consumed at completion so its in-flight permit drops
    // *before* the slot fill wakes the waiter: a client that has observed
    // its response always has that unit of budget back, and an `in_flight`
    // read after `Ticket::wait` is never stale.
    let mut batch: Vec<Option<Pending>> = batch.into_iter().map(Some).collect();
    let mut complete = |i: usize, result: ServiceResult| {
        // The index vectors partition the batch, so every `i` is in range
        // and completed exactly once; if that bookkeeping ever broke,
        // skipping the entry beats panicking the worker.
        let Some(Pending { slot, deadline, explicit_deadline, trace, _permit, .. }) =
            batch.get_mut(i).and_then(Option::take)
        else {
            return;
        };
        drop(_permit);
        // Only caller-supplied budgets count as misses: the `max_wait`
        // default deadline only orders the heap and, behind a busy pool,
        // serves as the *flush trigger* — delivery then lands just past it
        // by construction, so a miss there carries no signal.
        let now = Instant::now();
        if explicit_deadline && now > deadline {
            if let Some(trace) = &trace {
                trace.set_flag(amopt_obs::FLAG_DEADLINE_MISS);
            }
            let lateness = u64::try_from((now - deadline).as_nanos()).unwrap_or(u64::MAX);
            o.deadline_missed(lateness);
        }
        if let Some(trace) = &trace {
            trace.stamp(Stage::Completed);
        }
        // Count *before* filling: the fill wakes the waiter, and a stats
        // read right after `Ticket::wait` must already see this completion.
        o.completed.inc();
        slot.fill(result);
    };

    // Injected panic decisions, consulted once per price request (the
    // tentpole injects inside `price_batch` execution; other groups take
    // the isolation path only on a real driver panic).  Price batch-of-one
    // results are pinned bitwise-identical to in-batch results, so the
    // isolation fallback never perturbs delivered prices.
    let price_inject: Vec<bool> = match plan {
        Some(plan) => price_reqs.iter().map(|_| plan.fires(FaultSite::WorkerPanic)).collect(),
        None => Vec::new(),
    };

    if !price_reqs.is_empty() {
        let results =
            run_shielded(&price_inject, &price_reqs, &|reqs| shared.pricer.price_batch(reqs));
        for (&i, result) in prices.iter().zip(results) {
            complete(i, result.map(ServiceResponse::Price));
        }
    }
    if !greek_reqs.is_empty() {
        let results =
            run_shielded(&[], &greek_reqs, &|reqs| batch_greeks::greeks(&shared.pricer, reqs));
        for (&i, result) in greeks.iter().zip(results) {
            complete(i, result.map(ServiceResponse::Greeks));
        }
    }
    if !vol_quotes.is_empty() {
        let results =
            run_shielded(&[], &vol_quotes, &|quotes| implied_vol_surface(&shared.pricer, quotes));
        for (&i, result) in vols.iter().zip(results) {
            complete(i, result.map(ServiceResponse::ImpliedVol));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSchedule};
    use amopt_core::batch::ModelKind;
    use amopt_core::bopm::BopmModel;
    use amopt_core::{EngineConfig, OptionParams, OptionType, PricingError};
    use amopt_obs::bucket_index;
    use std::time::Duration;

    fn p() -> OptionParams {
        OptionParams::paper_defaults()
    }

    fn price_req(strike: f64, steps: usize) -> PricingRequest {
        PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { strike, ..p() },
            steps,
        )
    }

    #[test]
    fn coalesced_prices_are_bitwise_identical_to_direct_batch_pricing() {
        let service = QuoteService::start(ServiceConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let book: Vec<PricingRequest> = (0..24).map(|i| price_req(90.0 + i as f64, 128)).collect();
        let tickets: Vec<Ticket> =
            book.iter().map(|r| client.submit(ServiceRequest::Price(r.clone())).unwrap()).collect();
        let got: Vec<f64> = tickets
            .into_iter()
            .map(|t| match t.wait().unwrap() {
                ServiceResponse::Price(p) => p,
                other => panic!("{other:?}"),
            })
            .collect();
        let direct = BatchPricer::new(EngineConfig::default());
        let want = direct.price_batch(&book);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.as_ref().unwrap().to_bits());
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.completed, 24);
        assert!(stats.batches >= 1);
        service.shutdown();
    }

    #[test]
    fn an_idle_service_flushes_a_lone_request_at_once() {
        // Nothing is executing, so there is nothing to wait behind: the
        // lone quote must not sit out its 30 s implicit deadline.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 1024,
            max_wait: Duration::from_secs(30),
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let t0 = Instant::now();
        assert!(client.price(price_req(110.0, 32)).unwrap() > 0.0);
        assert!(t0.elapsed() < Duration::from_secs(5), "an idle service waited for company");
        service.shutdown();
    }

    /// `(log2 bucket, count)` for every non-empty bucket of the flushed
    /// batch sizes.
    fn batch_size_buckets(service: &QuoteService) -> Vec<(usize, u64)> {
        let buckets = service.shared.obs.batch_size.snapshot().buckets;
        buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(b, &c)| (b, c)).collect()
    }

    #[test]
    fn requests_behind_a_busy_worker_still_coalesce() {
        // Five quotes arrive while the plug executes.  They must form one
        // batch (coalescing survives under load) and flush as soon as the
        // pool goes idle, not when their 30 s implicit deadline comes due.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 1024,
            max_wait: Duration::from_secs(30),
            workers: 2,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| client.submit(ServiceRequest::Price(price_req(90.0 + i as f64, 32))).unwrap())
            .collect();
        assert!(plug_ticket.wait().is_ok());
        let t0 = Instant::now();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "staged quotes waited out max_wait");
        let stats = service.stats();
        assert_eq!(stats.batches, 2, "the plug, then the five staged quotes together");
        assert_eq!(batch_size_buckets(&service), vec![(bucket_index(1), 1), (bucket_index(4), 1)]);
        service.shutdown();
    }

    #[test]
    fn batches_flush_at_max_batch_before_the_deadline() {
        // A long max_wait with a tiny max_batch, staged while the plug
        // executes: the only way the calls below return before the plug
        // does is the size trigger.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(3600),
            workers: 2,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| client.submit(ServiceRequest::Price(price_req(100.0 + i as f64, 32))).unwrap())
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        // The stalled plug is not counted until its stall ends.
        let stats = service.stats();
        assert_eq!(stats.completed, 4, "the plug must still be executing");
        assert_eq!(stats.batches, 1, "4 submits at max_batch 4 must flush as one batch");
        assert_eq!(batch_size_buckets(&service), vec![(bucket_index(4), 1)]);
        assert!(plug_ticket.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn lone_request_flushes_at_the_deadline() {
        // Staged behind the plug, a lone request waits for company until
        // its max_wait deadline — and no longer.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 1024,
            max_wait: Duration::from_millis(5),
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        let t0 = Instant::now();
        let price = client.price(price_req(110.0, 32)).unwrap();
        assert!(price > 0.0);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadline flush must not wait for max_batch"
        );
        assert_eq!(service.stats().completed, 1, "flushed by the deadline, not by the plug ending");
        assert!(plug_ticket.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn only_explicit_budgets_count_as_deadline_misses() {
        let service = QuoteService::start(ServiceConfig {
            max_batch: 1024,
            max_wait: Duration::from_millis(1),
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        // Plain submits behind the busy plug deliver just after their
        // implicit max_wait deadline (the flush *is* the deadline) — never
        // a miss.
        for i in 0..4 {
            client.price(price_req(100.0 + i as f64, 32)).unwrap();
        }
        assert_eq!(service.stats().deadline_misses, 0, "implicit deadlines must not count");
        // A zero budget cannot possibly be met: guaranteed miss.
        let t = client
            .submit_with_deadline(ServiceRequest::Price(price_req(90.0, 32)), Some(Duration::ZERO))
            .unwrap();
        assert!(t.wait().is_ok());
        assert_eq!(service.stats().deadline_misses, 1);
        assert!(plug_ticket.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn queue_overflow_rejects_with_overloaded_and_loses_nothing_in_flight() {
        // One worker, long wait, tiny queue: fill it, then overflow.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(20),
            queue_depth: 4,
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let mut tickets = Vec::new();
        let mut rejected = 0usize;
        for i in 0..64 {
            match client.submit(ServiceRequest::Price(price_req(80.0 + i as f64, 64))) {
                Ok(t) => tickets.push(t),
                Err(ServiceError::Overloaded { what }) => {
                    assert_eq!(what, "submission queue full");
                    rejected += 1;
                }
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
        assert!(rejected > 0, "64 fast submits into a depth-4 queue must shed load");
        let accepted = tickets.len();
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted requests must all be answered");
        }
        let stats = service.stats();
        assert_eq!(stats.completed as usize, accepted);
        assert_eq!(stats.rejected_queue_full as usize, rejected);
        service.shutdown();
    }

    #[test]
    fn inflight_cap_rejects_the_overcommitted_client_only() {
        // The one worker sits on another client's plug while the greedy
        // client submits, so neither of its first two quotes can finish
        // (and free its permit) before the third submit.
        let service = QuoteService::start(ServiceConfig {
            per_conn_inflight: 2,
            max_batch: 1024,
            max_wait: Duration::from_millis(50),
            workers: 1,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let plugger = service.client();
        let plug_ticket = plug(&plugger);
        wait_queue_empty(&service);
        let greedy = service.client();
        let t1 = greedy.submit(ServiceRequest::Price(price_req(100.0, 64))).unwrap();
        let t2 = greedy.submit(ServiceRequest::Price(price_req(101.0, 64))).unwrap();
        let rejected = greedy.submit(ServiceRequest::Price(price_req(102.0, 64)));
        assert!(
            matches!(
                rejected,
                Err(ServiceError::Overloaded { what: "per-connection in-flight cap" })
            ),
            "{rejected:?}"
        );
        // A fresh client has its own budget.
        let other = service.client();
        let t3 = other.submit(ServiceRequest::Price(price_req(103.0, 64))).unwrap();
        for t in [t1, t2, t3] {
            assert!(t.wait().is_ok());
        }
        // Budgets are released on completion.
        assert_eq!(greedy.in_flight(), 0);
        assert!(greedy.submit(ServiceRequest::Price(price_req(104.0, 64))).is_ok());
        let stats = service.stats();
        assert_eq!(stats.rejected_inflight, 1);
        assert!(plug_ticket.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn budget_is_back_the_moment_the_response_is_observable() {
        // The permit must drop before the slot fill wakes the waiter, so a
        // client at its cap can always resubmit right after `wait` returns.
        // Run at cap 1 in a tight loop: any release-after-wake ordering
        // turns into a spurious Overloaded rejection here.
        let service = QuoteService::start(ServiceConfig {
            per_conn_inflight: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        for i in 0..100 {
            let ticket = client
                .submit(ServiceRequest::Price(price_req(90.0 + (i % 8) as f64, 32)))
                .unwrap_or_else(|e| panic!("iteration {i} spuriously rejected: {e}"));
            assert!(ticket.wait().is_ok());
            assert_eq!(client.in_flight(), 0, "budget still held after wait (iteration {i})");
        }
        assert_eq!(service.stats().rejected_inflight, 0);
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_requests_and_rejects_new_ones() {
        // A partial batch staged behind the plug: until the plug ends, only
        // shutdown can flush it.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(3600),
            workers: 2,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let order = Arc::new(Mutex::new(Vec::new()));
        let plug_ticket = plug(&client);
        record_completion(&order, 99, &plug_ticket);
        wait_queue_empty(&service);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| client.submit(ServiceRequest::Price(price_req(95.0 + i as f64, 32))).unwrap())
            .collect();
        for (i, t) in tickets.iter().enumerate() {
            record_completion(&order, i, t);
        }
        service.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "in-flight requests must be answered during drain");
        }
        assert!(plug_ticket.wait().is_ok());
        let order = wait_order_len(&order, 4);
        assert_eq!(order.last(), Some(&99), "shutdown must flush before the plug ends: {order:?}");
        assert!(matches!(
            client.submit(ServiceRequest::Price(price_req(99.0, 32))),
            Err(ServiceError::ShuttingDown)
        ));
        assert_eq!(service.stats().rejected_shutdown, 1);
    }

    #[test]
    fn mixed_request_kinds_resolve_to_their_own_variants() {
        let service = QuoteService::start(ServiceConfig::default()).expect("start service");
        let client = service.client();
        let price = client.price(price_req(120.0, 128)).unwrap();
        assert!(price > 0.0);
        let g = client.greeks(price_req(120.0, 128)).unwrap();
        assert!(g.delta > 0.0 && g.vega > 0.0);
        let market = price;
        let vol = client
            .implied_vol(VolQuote::new(OptionParams { strike: 120.0, ..p() }, 128, market))
            .unwrap();
        assert!((vol - p().volatility).abs() < 1e-6, "round-trip vol {vol}");
        // Pricing errors come back in their own slot, not as a panic.
        let bad = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { spot: -1.0, ..p() },
            64,
        );
        assert!(matches!(client.price(bad), Err(ServiceError::Pricing(_))));
        service.shutdown();
    }

    #[test]
    fn memo_is_shared_across_batches_and_reported_in_stats() {
        let service = QuoteService::start(ServiceConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let req = price_req(115.0, 96);
        let a = client.price(req.clone()).unwrap();
        let b = client.price(req).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        let stats = service.stats();
        assert!(stats.memo.hits >= 1, "second quote must be a memo hit: {stats:?}");
        service.shutdown();
    }

    #[test]
    fn a_memo_hit_is_answered_at_submit_while_the_only_worker_is_held() {
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            max_batch: 1024,
            max_wait: Duration::from_secs(30),
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        // Warm the memo through the shared pricer itself: the plan's one
        // stall belongs to the plug.
        let quote = price_req(111.0, 32);
        let first = service.shared.pricer.price_one(&quote).unwrap();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        let before = service.stats();
        let repeats = 16u64;
        for _ in 0..repeats {
            let ticket = client.submit(ServiceRequest::Price(quote.clone())).unwrap();
            assert!(ticket.is_resolved(), "a memo hit must come back resolved");
            match ticket.wait() {
                Ok(ServiceResponse::Price(p)) => assert_eq!(p.to_bits(), first.to_bits()),
                other => panic!("{other:?}"),
            }
        }
        assert!(!plug_ticket.is_resolved(), "the plug must still hold the only worker");
        let after = service.stats();
        assert_eq!(after.memo.hits - before.memo.hits, repeats);
        assert_eq!(after.memo.misses, before.memo.misses);
        assert_eq!(after.batches, 0, "the plug's batch is still stalled");
        assert_eq!(after.submitted - after.completed, 1, "only the plug is outstanding");
        assert_eq!(client.in_flight(), 1, "hits hand their in-flight unit straight back");
        assert!(plug_ticket.wait().is_ok());
        let done = service.stats();
        assert_eq!(done.submitted, done.completed);
        assert_eq!(done.submitted, repeats + 1);
        assert_eq!(done.batches, 1, "at-submit answers belong to no batch");
        service.shutdown();
    }

    #[test]
    fn a_fresh_quote_counts_one_miss_not_two() {
        let service = QuoteService::start(ServiceConfig::default()).expect("start service");
        let client = service.client();
        client.price(price_req(107.0, 32)).unwrap();
        let memo = service.stats().memo;
        assert_eq!((memo.hits, memo.misses), (0, 1), "the submit-time lookup counts no miss");
        service.shutdown();
    }

    #[test]
    fn a_memo_resident_quote_still_meets_the_inflight_cap_and_shutdown() {
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            per_conn_inflight: 1,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let req = price_req(111.0, 32);
        service.shared.pricer.price_one(&req).unwrap();
        let quote = ServiceRequest::Price(req);
        let client = service.client();
        let plug_ticket = plug(&client);
        assert!(matches!(
            client.submit(quote.clone()),
            Err(ServiceError::Overloaded { what: "per-connection in-flight cap" })
        ));
        assert!(service.client().submit(quote.clone()).is_ok_and(|t| t.is_resolved()));
        assert_eq!(service.stats().memo.hits, 1, "the capped submit never reached the memo");
        assert!(plug_ticket.wait().is_ok());
        service.shutdown();
        assert!(matches!(service.client().submit(quote), Err(ServiceError::ShuttingDown)));
        let stats = service.stats();
        assert_eq!((stats.rejected_shutdown, stats.memo.hits), (1, 1));
    }

    /// The American BOPM put at the lattice's stability edge, and its twin
    /// one ulp below it.  The closed-form floor is exact only up to rounding
    /// in the lattice exponentials, so walk ulps from it to the smallest
    /// volatility whose lattice builds.
    fn stability_edge(steps: usize) -> (PricingRequest, PricingRequest) {
        let at = |volatility: f64| {
            PricingRequest::american(
                ModelKind::Bopm,
                OptionType::Put,
                OptionParams { volatility, ..p() },
                steps,
            )
        };
        let builds = |v: f64| BopmModel::new(at(v).params, steps).is_ok();
        let below = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut v = BopmModel::min_stable_volatility(&p(), steps);
        while !builds(v) {
            v = f64::from_bits(v.to_bits() + 1);
        }
        while builds(below(v)) {
            v = below(v);
        }
        (at(v), at(below(v)))
    }

    #[test]
    fn the_stability_edge_prices_alike_queued_and_at_submit_and_its_twin_never_hits() {
        let service = QuoteService::start(ServiceConfig::default()).expect("start service");
        let client = service.client();
        let (edge, twin) = stability_edge(64);
        let queued = client.price(edge.clone()).expect("the edge builds");
        let batches = service.stats().batches;
        let at_submit = client.price(edge).expect("the edge builds");
        assert_eq!(at_submit.to_bits(), queued.to_bits());
        assert_eq!(service.stats().batches, batches, "the repeat was answered at submit");
        // Errors are never memoized, and the twin's key says so: it shares
        // the edge's grid cell but not its memoized price.
        for attempt in 0..2 {
            let got = client.price(twin.clone());
            assert!(
                matches!(
                    got,
                    Err(ServiceError::Pricing(PricingError::UnstableDiscretisation { .. }))
                ),
                "attempt {attempt}: {got:?}"
            );
        }
        assert_eq!(service.stats().batches, batches + 2, "each twin went through a batch");
        service.shutdown();
    }

    #[test]
    fn an_at_submit_card_is_stamped_flagged_and_journaled_once() {
        let service = QuoteService::start(ServiceConfig::default()).expect("start service");
        let client = service.client();
        let quote = ServiceRequest::Price(price_req(111.0, 32));
        client.call(quote.clone()).unwrap();
        client.call(quote.clone()).unwrap();
        drop(client.submit(quote).unwrap());
        let cards = service.recent_traces(3);
        assert_eq!(cards.len(), 3);
        for (card, abandoned) in cards[1..].iter().zip([false, true]) {
            let stamped = &card.stamps[Stage::Parsed as usize..=Stage::Completed as usize];
            assert!(stamped.iter().all(|&s| s > 0), "{card:?}");
            assert!(card.is_monotone(), "{card:?}");
            assert!(card.flags & amopt_obs::FLAG_MEMO_HIT != 0, "{card:?}");
            assert_eq!(card.flags & amopt_obs::FLAG_ABANDONED != 0, abandoned, "{card:?}");
        }
        let journaled = service
            .journal()
            .snapshot()
            .iter()
            .filter(|e| e.kind == amopt_obs::EventKind::Trace)
            .count();
        assert_eq!(journaled as u64, service.stats().completed, "one card per answered request");
        service.shutdown();
    }

    /// Records completion order by arming each ticket's notify callback.
    fn record_completion(order: &Arc<Mutex<Vec<usize>>>, idx: usize, ticket: &Ticket) {
        let order = Arc::clone(order);
        ticket.set_notify(Box::new(move || lock_unpoisoned(&order).push(idx)));
    }

    /// The shortest time a plug holds its worker.
    const PLUG_STALL: Duration = Duration::from_millis(200);

    /// A fault plan whose first drained batch stalls its worker for one to
    /// two [`PLUG_STALL`]s and whose next sixteen run unstalled: a plug
    /// whose length the test sets, whatever the engine's speed.  Decisions
    /// are pure in the seed, so the seed is the first one a twin plan shows
    /// to behave that way.
    fn stalling_plan() -> Arc<FaultPlan> {
        let schedule = FaultSchedule {
            max_stall_ms: 2 * PLUG_STALL.as_millis() as u64,
            ..FaultSchedule::off().with_rate(FaultSite::WorkerStall, 64)
        };
        let plugs_then_runs_clean = |seed: &u64| {
            let twin = FaultPlan::new(*seed, schedule);
            twin.stall() >= Some(PLUG_STALL) && (0..16).all(|_| twin.stall().is_none())
        };
        let seed = (0u64..).find(plugs_then_runs_clean).expect("an unbounded search");
        FaultPlan::new(seed, schedule)
    }

    /// Submits a cheap quote with an immediate deadline, so an idle worker
    /// flushes it alone and — on a service started with [`stalling_plan`]
    /// — then sits on it while the test stages the *next* batch behind its
    /// back.
    fn plug(client: &Client) -> Ticket {
        client
            .submit_with_deadline(
                ServiceRequest::Price(price_req(117.31, 32)),
                Some(Duration::ZERO),
            )
            .expect("plug submit")
    }

    /// Spins until the worker has adopted the plug batch (queue empty ⇒
    /// the worker is busy executing, and new submissions pile up behind
    /// it).
    fn wait_queue_empty(service: &QuoteService) {
        let t0 = Instant::now();
        while service.stats().queue_depth > 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "plug batch never drained");
            std::thread::yield_now();
        }
    }

    /// Notify callbacks fire just *after* `Ticket::wait` unblocks (the
    /// callback runs outside the slot locks), so give the recorder a
    /// moment to catch up before asserting on completion order.
    fn wait_order_len(order: &Arc<Mutex<Vec<usize>>>, n: usize) -> Vec<usize> {
        let t0 = Instant::now();
        loop {
            let snapshot = lock_unpoisoned(order).clone();
            if snapshot.len() >= n {
                return snapshot;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "notify callbacks never caught up: {snapshot:?}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn deadline_tagged_quote_overtakes_queued_bulk_work() {
        // One worker, batch-of-one flushes: completion order is exactly
        // the scheduler's drain order.  Stage 8 lazy bulk quotes, then one
        // urgent quote last; EDF must run the urgent one first.
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut tickets = Vec::new();
        for i in 0..8 {
            let t = client
                .submit_with_deadline(
                    ServiceRequest::Price(price_req(90.0 + i as f64, 32)),
                    Some(Duration::from_secs(10)),
                )
                .unwrap();
            record_completion(&order, i, &t);
            tickets.push(t);
        }
        let urgent = client
            .submit_with_deadline(ServiceRequest::Price(price_req(150.0, 32)), Some(Duration::ZERO))
            .unwrap();
        record_completion(&order, 99, &urgent);
        tickets.push(urgent);

        assert!(plug_ticket.wait().is_ok());
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let order = wait_order_len(&order, 9);
        assert_eq!(order.len(), 9);
        assert_eq!(order.first(), Some(&99), "urgent quote must complete first: {order:?}");
        service.shutdown();
    }

    #[test]
    fn fair_share_admits_the_quiet_client_into_a_flooded_batch() {
        // Client A floods 8 entries with earlier deadlines; client B adds
        // 2 later ones.  With max_batch 4 and two queued clients the share
        // is 2, so the first post-plug batch must carry both of B's
        // entries — pure EDF would have filled it with A's.
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let a = service.client();
        let b = service.client();
        let plug_ticket = plug(&a);
        wait_queue_empty(&service);

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut tickets = Vec::new();
        for i in 0..8 {
            let t = a
                .submit_with_deadline(
                    ServiceRequest::Price(price_req(90.0 + i as f64, 32)),
                    Some(Duration::from_millis(i as u64)),
                )
                .unwrap();
            record_completion(&order, i, &t);
            tickets.push(t);
        }
        for i in 0..2 {
            let t = b
                .submit_with_deadline(
                    ServiceRequest::Price(price_req(130.0 + i as f64, 32)),
                    Some(Duration::from_millis(100 + i as u64)),
                )
                .unwrap();
            record_completion(&order, 100 + i, &t);
            tickets.push(t);
        }

        assert!(plug_ticket.wait().is_ok());
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let order = wait_order_len(&order, 10);
        assert_eq!(order.len(), 10);
        let first_batch = &order[..4];
        assert!(
            first_batch.contains(&100) && first_batch.contains(&101),
            "fair share must admit both of B's entries into the first batch: {order:?}"
        );
        // EDF within the fair share: A's two admitted entries are its
        // earliest-deadline ones.
        assert!(
            first_batch.contains(&0) && first_batch.contains(&1),
            "A's share must go to its earliest deadlines: {order:?}"
        );
        let stats = service.stats();
        assert!(stats.heap_pops >= stats.completed, "every drained entry costs at least one pop");
        service.shutdown();
    }

    #[test]
    fn random_deadline_mix_completes_in_deadline_order() {
        // Property test (seeded xorshift, no external dep): any mix of
        // deadline budgets staged behind a busy worker completes in exact
        // (deadline, arrival) order when batches are drained EDF.  Single
        // client → the fair-share cap equals max_batch and never bites.
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..4 {
            let service = QuoteService::start(ServiceConfig {
                workers: 1,
                max_batch: 3,
                max_wait: Duration::from_millis(1),
                fault: Some(stalling_plan()),
                ..ServiceConfig::default()
            })
            .expect("start service");
            let client = service.client();
            let plug_ticket = plug(&client);
            wait_queue_empty(&service);

            let order = Arc::new(Mutex::new(Vec::new()));
            let mut budgets = Vec::new();
            let mut tickets = Vec::new();
            for i in 0..12usize {
                let ms = next() % 50;
                let t = client
                    .submit_with_deadline(
                        ServiceRequest::Price(price_req(80.0 + ((next() % 64) as f64), 32)),
                        Some(Duration::from_millis(ms)),
                    )
                    .unwrap();
                record_completion(&order, i, &t);
                budgets.push(ms);
                tickets.push(t);
            }
            assert!(plug_ticket.wait().is_ok());
            for t in tickets {
                assert!(t.wait().is_ok());
            }
            let order = wait_order_len(&order, 12);
            assert_eq!(order.len(), 12, "round {round}");
            // Expected order: stable sort of the staged entries by budget
            // (ties resolved by arrival index — exactly the seq tiebreak,
            // because all 12 were submitted microseconds apart while the
            // worker was busy, in increasing-deadline == increasing-budget
            // order for equal budgets).
            let mut want: Vec<usize> = (0..12).collect();
            want.sort_by_key(|&i| (budgets[i], i));
            assert_eq!(order, want, "round {round}: budgets {budgets:?}");
            service.shutdown();
        }
    }

    #[test]
    fn injected_panic_is_isolated_to_its_request_and_the_worker_survives() {
        // Every price request panics mid-batch; greeks in the same service
        // must still answer, the panicking requests must each get their own
        // Internal error, and no worker may die (the shield catches the
        // unwind before it reaches the watchdog).
        let plan = FaultPlan::new(1, FaultSchedule::off().with_rate(FaultSite::WorkerPanic, 1024));
        let service = QuoteService::start(ServiceConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            workers: 2,
            fault: Some(plan),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        for i in 0..6 {
            let got = client.price(price_req(100.0 + i as f64, 32));
            assert!(
                matches!(got, Err(ServiceError::Internal { .. })),
                "injected panic must answer as Internal, got {got:?}"
            );
        }
        let g = client.greeks(price_req(100.0, 32)).expect("greeks group is not injected");
        assert!(g.delta > 0.0);
        let stats = service.stats();
        assert_eq!(stats.completed, 7, "every request answered despite the panics");
        assert_eq!(stats.worker_restarts, 0, "the shield must hold before the watchdog");
        assert_eq!(stats.workers_alive, 2);
        service.shutdown();
    }

    #[test]
    fn real_driver_panic_fails_one_request_and_spares_its_batchmates() {
        // An unshielded driver panic (steps == 0 hits a debug assert /
        // arithmetic panic in some engines) must not take down co-batched
        // requests.  If steps == 0 prices cleanly in this engine, the
        // request simply succeeds and the isolation path stays untested
        // here — the injected-fault test above pins it regardless.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let good = client.price(price_req(100.0, 32)).expect("healthy request");
        assert!(good > 0.0);
        let stats = service.stats();
        assert_eq!(stats.workers_alive, 1);
        service.shutdown();
    }

    #[test]
    fn watchdog_respawns_injected_worker_deaths_and_nothing_is_lost() {
        // Half of all worker-loop iterations die at the top of the loop.
        // Every request must still be answered, restarts must be counted,
        // and the pool must be back at strength afterwards.
        let plan = FaultPlan::new(3, FaultSchedule::off().with_rate(FaultSite::WorkerDeath, 512));
        let service = QuoteService::start(ServiceConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            workers: 2,
            fault: Some(plan),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        for i in 0..40 {
            let got = client.price(price_req(90.0 + (i % 16) as f64, 32));
            assert!(got.is_ok(), "request {i} lost to a worker death: {got:?}");
        }
        let t0 = Instant::now();
        loop {
            let stats = service.stats();
            if stats.workers_alive == 2 {
                assert!(stats.worker_restarts > 0, "deaths at rate 512/1024 must respawn");
                assert_eq!(stats.completed, 40);
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "pool never restored: {stats:?}");
            std::thread::yield_now();
        }
        service.shutdown();
    }

    #[test]
    fn brownout_sheds_by_class_in_order_and_spares_deadline_tagged_work() {
        // Depth-10 queue, default tiers: implied-vol sheds at fill 5,
        // greeks at 7.5, price at 9.5.  Plug the single worker, stage fill
        // levels, and watch each class shed in priority order while
        // deadline-tagged submissions sail through.
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_depth: 10,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);

        let mut tickets = Vec::new();
        for i in 0..6 {
            tickets.push(
                client.submit(ServiceRequest::Price(price_req(90.0 + i as f64, 32))).unwrap(),
            );
        }
        // Fill 6: implied-vol (tier 0.50) sheds, greeks (0.75) does not.
        let vol_quote = VolQuote::new(OptionParams { strike: 100.0, ..p() }, 32, 8.0);
        let shed = client.submit(ServiceRequest::ImpliedVol(vol_quote.clone()));
        assert!(
            matches!(
                shed,
                Err(ServiceError::Overloaded {
                    what: "brownout: implied-vol inversions shed under queue pressure"
                })
            ),
            "{shed:?}"
        );
        tickets.push(client.submit(ServiceRequest::Greeks(price_req(100.0, 32))).unwrap());
        tickets.push(client.submit(ServiceRequest::Price(price_req(99.0, 32))).unwrap());
        // Fill 8: greeks sheds too; plain prices still accepted.
        let shed = client.submit(ServiceRequest::Greeks(price_req(101.0, 32)));
        assert!(
            matches!(
                shed,
                Err(ServiceError::Overloaded {
                    what: "brownout: greeks ladders shed under queue pressure"
                })
            ),
            "{shed:?}"
        );
        tickets.push(client.submit(ServiceRequest::Price(price_req(98.0, 32))).unwrap());
        // Deadline-tagged work skips brownout entirely, whatever its class.
        let tagged = client
            .submit_with_deadline(
                ServiceRequest::ImpliedVol(vol_quote),
                Some(Duration::from_secs(10)),
            )
            .expect("deadline-tagged submissions are exempt from brownout");
        let stats = service.stats();
        assert_eq!(stats.shed_by_class.implied_vol, 1);
        assert_eq!(stats.shed_by_class.greeks, 1);
        assert_eq!(stats.shed_by_class.price, 0);
        assert_eq!(stats.shed_by_class.total(), 2);
        assert!(plug_ticket.wait().is_ok());
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted work must still be answered");
        }
        // The tagged inversion is *answered* (possibly with a pricing
        // error for an unattainable market price) — acceptance is the point.
        let _ = tagged.wait();
        service.shutdown();
    }

    #[test]
    fn retry_budget_bounds_retries_and_surfaces_exhaustion() {
        // A cap-1 client with a plugged worker: every extra call rejects
        // with Overloaded.  With a budget of 2 retries, call_with_retry
        // spends both, then surfaces the error and counts the exhaustion.
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            per_conn_inflight: 1,
            retry_budget: 2,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
        };
        let got = client.call_with_retry(ServiceRequest::Price(price_req(100.0, 32)), &policy);
        assert!(matches!(got, Err(ServiceError::Overloaded { .. })), "{got:?}");
        let stats = service.stats();
        assert_eq!(stats.retries, 2, "budget 2 must allow exactly two retries");
        assert_eq!(stats.retry_budget_exhausted, 1);
        assert!(plug_ticket.wait().is_ok());
        // With the worker free again, a clean call succeeds first try (and
        // earns a tenth of a token back — not enough for a whole retry).
        assert!(client
            .call_with_retry(ServiceRequest::Price(price_req(101.0, 32)), &policy)
            .is_ok());
        assert_eq!(service.stats().retries, 2, "clean calls spend nothing");
        service.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::default();
        let a = policy.backoff(7, 1);
        let b = policy.backoff(7, 1);
        assert_eq!(a, b, "same (client, attempt) must back off identically");
        assert_ne!(policy.backoff(7, 1), policy.backoff(8, 1), "jitter must differ per client");
        for attempt in 1..10 {
            let d = policy.backoff(3, attempt);
            assert!(d <= policy.max_backoff, "backoff {d:?} above ceiling");
            assert!(d >= policy.base_backoff / 2, "backoff {d:?} under half the base");
        }
    }

    #[test]
    fn queue_depth_survives_a_poisoned_queue_lock() {
        // Three untagged quotes sit in the heap while the only worker
        // executes the plug.
        let service = QuoteService::start(ServiceConfig {
            workers: 1,
            max_batch: 64,
            max_wait: Duration::from_secs(60),
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| client.submit(ServiceRequest::Price(price_req(100.0 + i as f64, 16))).unwrap())
            .collect();
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = service.shared.state.lock().unwrap();
                    panic!("poison the queue lock");
                })
                .join()
        });
        assert!(poisoner.is_err() && service.shared.state.is_poisoned());
        // The service keeps serving on a poisoned lock; so must its gauges.
        assert_eq!(service.stats().queue_depth, 3);
        assert!(service.metrics_text().contains("\namopt_queue_depth 3\n"));
        // Shutdown drains the staged quotes: every quote is answered.
        service.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        assert!(plug_ticket.wait().is_ok());
    }

    #[test]
    fn notify_fires_even_when_armed_after_completion() {
        let service = QuoteService::start(ServiceConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let ticket = client.submit(ServiceRequest::Price(price_req(100.0, 32))).unwrap();
        // Let the request complete before arming the callback.
        let t0 = Instant::now();
        while service.stats().completed == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::yield_now();
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        record_completion(&order, 7, &ticket);
        assert_eq!(lock_unpoisoned(&order).clone(), vec![7], "late arm must fire immediately");
        assert!(ticket.try_take().is_some(), "result still claimable after notify");
        service.shutdown();
    }

    #[test]
    fn an_unwinding_batch_gives_back_its_executing_count() {
        // A completion callback that panics unwinds `execute` and kills its
        // worker.  The batch must stop counting as executing all the same:
        // a leaked count would make the replacement worker wait out the
        // 30 s max_wait behind a batch that no longer exists.
        let service = QuoteService::start(ServiceConfig {
            max_batch: 1024,
            max_wait: Duration::from_secs(30),
            workers: 1,
            fault: Some(stalling_plan()),
            ..ServiceConfig::default()
        })
        .expect("start service");
        let client = service.client();
        let plug_ticket = plug(&client);
        wait_queue_empty(&service);
        let doomed = client.submit(ServiceRequest::Price(price_req(95.0, 32))).unwrap();
        doomed.set_notify(Box::new(|| panic!("completion callback panics mid-batch")));
        assert!(plug_ticket.wait().is_ok());
        assert!(doomed.wait().is_ok(), "the slot fills before the callback fires");
        let t0 = Instant::now();
        assert!(client.price(price_req(105.0, 32)).unwrap() > 0.0);
        assert!(t0.elapsed() < Duration::from_secs(5), "the executing count leaked");
        // Joining the dead worker waits for its watchdog to count the
        // restart.
        service.shutdown();
        assert_eq!(service.stats().worker_restarts, 1);
    }
}
