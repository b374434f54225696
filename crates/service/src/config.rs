//! Service tuning knobs.

use crate::fault::FaultPlan;
use amopt_core::batch::DEFAULT_MEMO_CAPACITY;
use amopt_core::EngineConfig;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`QuoteService`](crate::QuoteService).
///
/// Coalescing happens only while the service is busy: a request that
/// finds no batch executing flushes at once, and requests that arrive
/// while one executes coalesce into the next batch.  The two coalescing
/// knobs bound that wait: `max_batch` caps how much work one flush carries
/// (bounding per-request queueing delay under load), `max_wait` caps how
/// long a request waits for company while another batch executes.  A
/// waiting batch flushes at whichever limit is hit first, or as soon as no
/// batch is executing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine configuration every routed pricer runs under.
    pub engine: EngineConfig,
    /// Flush a batch once it holds this many requests.
    pub max_batch: usize,
    /// How long a request waits for company *while another batch
    /// executes*: the implicit deadline of a request without an explicit
    /// budget, so a waiting batch flushes once its earliest such request
    /// has waited this long.  An idle service never waits it out.
    pub max_wait: Duration,
    /// Submission-queue capacity; submits beyond it are rejected with
    /// [`ServiceError::Overloaded`](crate::ServiceError::Overloaded).
    pub queue_depth: usize,
    /// Worker threads assembling and executing batches.  Each worker
    /// executes its batch through the shared `BatchPricer`, whose internal
    /// fan-out runs on the `amopt-parallel` fork-join pool; more than one
    /// worker lets a fresh batch coalesce while the previous one executes
    /// (with one, a request that arrives mid-batch waits only for that
    /// batch to finish, then flushes with whatever queued behind it).
    pub workers: usize,
    /// Maximum requests a single connection / client handle may have in
    /// flight.  In-process [`Client`](crate::Client) submits beyond it are
    /// rejected with `Overloaded`; a TCP connection is never rejected on
    /// this cap — the reactor stops reading it at the cap and resumes as
    /// replies drain, so TCP backpressure paces the peer.
    pub per_conn_inflight: usize,
    /// Total memo capacity passed through to the shared `BatchPricer`
    /// (`0` disables cross-batch memoization), split over its default
    /// shard count.
    pub memo_capacity: usize,
    /// Connections the reactor will hold open at once; a connection
    /// accepted beyond it is closed immediately (the peer reads EOF).
    pub max_connections: usize,
    /// Brownout shedding thresholds (see [`DegradationPolicy`]).
    pub degradation: DegradationPolicy,
    /// Retries the in-process retry budget starts with (and is capped at).
    /// Each retry spends one token; every clean first-attempt success
    /// earns a tenth back, so sustained failure cannot amplify load by
    /// more than the budget (see
    /// [`Client::call_with_retry`](crate::Client::call_with_retry)).
    pub retry_budget: usize,
    /// Deterministic fault-injection plan threaded through every layer
    /// (`None`, the default, injects nothing and costs nothing on the hot
    /// path beyond one pointer test).
    pub fault: Option<Arc<FaultPlan>>,
    /// Whether per-request trace cards are stamped and journaled.  On by
    /// default: a card is one `Arc` allocation at accept plus lock-free
    /// CAS stamps.  What that costs at saturation is the ledger's
    /// `obs.trace_cost` (`perf/`, `quote_saturate`: throughput with this
    /// off ÷ on); at PR 19 it read 0.95–1.20 over nine runs on a 2-core
    /// VM, median ≈ 1.01 — a 3 % budget is neither shown met nor enforced.
    pub trace: bool,
    /// Event-journal ring capacity (completed trace cards, fault firings,
    /// sheds, retries, worker restarts, deadline misses).  Rounded up to a
    /// power of two; the ring overwrites oldest-first, so size it for the
    /// window a post-mortem needs.
    pub journal_capacity: usize,
}

/// Brownout degradation tiers: queue-fill fractions past which each
/// request class is shed with
/// [`ServiceError::Overloaded`](crate::ServiceError::Overloaded) instead
/// of queued.
///
/// The class ordering encodes the service's priorities under pressure:
/// implied-vol surface inversions (the most expensive per request) shed
/// first, greeks ladders second, plain price quotes last — and
/// deadline-tagged submissions skip brownout entirely, consistent with
/// the EDF scheduler preferring them.  A fraction `>= 1.0` disables that
/// tier (only a full queue rejects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Queue-fill fraction past which untagged implied-vol quotes shed.
    pub shed_implied_vol_at: f64,
    /// Queue-fill fraction past which untagged greeks ladders shed.
    pub shed_greeks_at: f64,
    /// Queue-fill fraction past which untagged price quotes shed.
    pub shed_price_at: f64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy { shed_implied_vol_at: 0.50, shed_greeks_at: 0.75, shed_price_at: 0.95 }
    }
}

impl DegradationPolicy {
    /// A policy that never sheds by class (every tier disabled).
    pub fn off() -> Self {
        DegradationPolicy { shed_implied_vol_at: 1.0, shed_greeks_at: 1.0, shed_price_at: 1.0 }
    }

    /// Whether a class at fill fraction `threshold` sheds when the queue
    /// holds `fill` of `depth` entries.
    pub(crate) fn sheds(threshold: f64, fill: usize, depth: usize) -> bool {
        threshold < 1.0 && (fill as f64) >= threshold * (depth as f64)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            max_batch: 256,
            max_wait: Duration::from_millis(2),
            queue_depth: 4096,
            workers: 2,
            per_conn_inflight: 1024,
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            max_connections: 10_000,
            degradation: DegradationPolicy::default(),
            retry_budget: 128,
            fault: None,
            trace: true,
            journal_capacity: 4096,
        }
    }
}

impl ServiceConfig {
    /// Normalises degenerate values (zero batch size, zero workers, …) to
    /// their smallest working settings.
    pub(crate) fn normalised(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.workers = self.workers.max(1);
        self.per_conn_inflight = self.per_conn_inflight.max(1);
        self.max_connections = self.max_connections.max(1);
        self.journal_capacity = self.journal_capacity.max(8);
        self
    }
}
