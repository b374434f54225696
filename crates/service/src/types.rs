//! Typed request/response surface of the quote service.

use amopt_core::batch::surface::VolQuote;
use amopt_core::batch::{MemoStats, PricingRequest};
use amopt_core::greeks::Greeks;
use amopt_core::PricingError;
use std::fmt;

/// One quote a client can submit to the service.
///
/// Every variant rides the same submission queue and coalesces into the
/// same batches; the executor groups a drained batch by variant and runs
/// each group through its batch-native driver
/// ([`price_batch`](amopt_core::batch::BatchPricer::price_batch), the
/// [greeks ladder](amopt_core::batch::greeks::greeks), the
/// [lockstep surface inversion](amopt_core::batch::surface::implied_vol_surface)),
/// so requests of the same kind share dedup and lockstep rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Price one contract (any model × type × style the batch layer routes).
    Price(PricingRequest),
    /// Full finite-difference greeks ladder for one contract.
    Greeks(PricingRequest),
    /// Invert one implied-volatility quote (American BOPM call or put).
    ImpliedVol(VolQuote),
}

/// The successful answer to a [`ServiceRequest`], variant-matched to it.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// Price of the requested contract.
    Price(f64),
    /// Greeks of the requested contract.
    Greeks(Greeks),
    /// Implied volatility reproducing the quoted market price.
    ImpliedVol(f64),
}

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The service shed this request: the bounded submission queue was
    /// full, a brownout tier shed its class, or the in-process client
    /// handle exceeded its in-flight cap.  The request was *not* enqueued;
    /// retry with backoff.
    Overloaded {
        /// Which limit rejected the request.
        what: &'static str,
    },
    /// The service is draining for shutdown and accepts no new requests.
    ShuttingDown,
    /// The request was executed and the pricer rejected it (invalid
    /// parameters, unsupported combination, no convergence, …).
    Pricing(PricingError),
    /// The service's own bookkeeping broke — e.g. a response of the wrong
    /// kind for the request.  A bug, surfaced as an error instead of a
    /// worker panic so one bad request cannot take the service down.
    Internal {
        /// What went wrong.
        what: &'static str,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { what } => write!(f, "overloaded: {what}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Pricing(e) => write!(f, "{e}"),
            ServiceError::Internal { what } => write!(f, "internal service error: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PricingError> for ServiceError {
    fn from(e: PricingError) -> Self {
        ServiceError::Pricing(e)
    }
}

/// Requests shed by the brownout tiers (see
/// [`ServiceConfig::queue_depth`](crate::ServiceConfig::queue_depth)), per
/// request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShedByClass {
    /// Untagged price quotes shed.
    pub price: u64,
    /// Untagged greeks ladders shed.
    pub greeks: u64,
    /// Untagged implied-vol inversions shed.
    pub implied_vol: u64,
}

impl ShedByClass {
    /// Total requests shed across all classes.
    pub fn total(&self) -> u64 {
        self.price + self.greeks + self.implied_vol
    }
}

/// Counters of the epoll reactor front end, all zero when the service is
/// driven in-process only (no [`QuoteServer`](crate::QuoteServer)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReactorStats {
    /// Connections the reactor has accepted since start.
    pub connections_accepted: u64,
    /// Connections currently registered with the event loop.
    pub connections_open: u64,
    /// Accepts refused because the connection cap was reached.
    pub connections_refused: u64,
    /// Event-loop iterations (one per `epoll_wait` return).
    pub loop_iterations: u64,
}

/// Point-in-time service counters, from
/// [`QuoteService::stats`](crate::QuoteService::stats): an in-process view
/// of the registry instruments the `metrics` exposition renders, each under
/// the name the [`wire`](crate::wire) docs list.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests currently waiting in the submission queue (the EDF heap).
    pub queue_depth: usize,
    /// Requests accepted since start: queued, or — for a price quote the
    /// memo already holds — answered at submit, accepted but never queued.
    pub submitted: u64,
    /// Requests answered (successfully or with a pricing error), at-submit
    /// memo answers included.
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected by a per-connection in-flight cap.
    pub rejected_inflight: u64,
    /// Submissions rejected during shutdown.
    pub rejected_shutdown: u64,
    /// Batches flushed to the executor.  A quote answered at submit from
    /// the memo is in no batch.
    pub batches: u64,
    /// Requests with a caller-supplied budget
    /// ([`submit_with_deadline`](crate::queue::Client::submit_with_deadline))
    /// that a worker answered after that deadline had already passed.
    /// Requests without a budget never count: their implicit `max_wait`
    /// deadline bounds coalescing behind a busy pool, it is not a promise to
    /// the caller.  Nor do quotes answered at submit: they never wait.
    pub deadline_misses: u64,
    /// EDF heap pops across all flushes; `heap_pops / batches` is the mean
    /// per-flush pop count (pops exceed drained entries when the
    /// fair-share cap parks and re-queues over-share work).
    pub heap_pops: u64,
    /// Memo counters of the shared `BatchPricer`.
    pub memo: MemoStats,
    /// Worker threads that died (panicked out of the worker loop) and were
    /// respawned by the watchdog.
    pub worker_restarts: u64,
    /// Worker threads currently alive.
    pub workers_alive: u64,
    /// Retries performed by [`Client::call_with_retry`](crate::Client::call_with_retry).
    pub retries: u64,
    /// Retries refused because the retry budget was exhausted.
    pub retry_budget_exhausted: u64,
    /// Requests shed by the brownout tiers, per class.
    pub shed_by_class: ShedByClass,
    /// Event-loop counters of the serving reactor (zeros elsewhere).
    pub reactor: ReactorStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_limit() {
        let e = ServiceError::Overloaded { what: "submission queue full" };
        assert!(e.to_string().contains("queue full"));
        assert!(ServiceError::ShuttingDown.to_string().contains("shutting down"));
    }
}
