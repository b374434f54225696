//! # amopt-service
//!
//! A batch-coalescing quote service front-end over
//! [`BatchPricer`](amopt_core::batch::BatchPricer) — the layer between "fast
//! kernel" and "system under traffic".
//!
//! The batch subsystem wins by deduplication, memoization, and lockstep
//! parallel fan-out — but only when callers hand it *batches*.  Production
//! traffic arrives as independent quotes.  This crate manufactures the
//! batches: requests from any number of clients land in one bounded
//! submission queue, a worker pool coalesces them **only while busy** (a
//! request that finds no batch executing flushes at once; requests that
//! arrive while one executes form the next batch, which flushes once no
//! batch is executing, at [`ServiceConfig::max_batch`] requests, or when
//! its earliest deadline — [`ServiceConfig::max_wait`] if untagged — comes
//! due, whichever is first) and executes each batch through one shared
//! `BatchPricer`, so co-arriving quotes share dedup, the sharded memo, and
//! the fork-join pool exactly as a hand-built batch would.
//!
//! Load shedding is explicit: when the submission queue is at
//! [`ServiceConfig::queue_depth`] or an in-process client exceeds its
//! in-flight cap, the submit fails *immediately* with
//! [`ServiceError::Overloaded`] — no silent latency cliff, no unbounded
//! buffering.  (A TCP connection at its in-flight cap is paced by
//! backpressure instead: the server stops reading it until replies drain.)
//! Shutdown is graceful: accepted requests are drained and answered before
//! the workers exit.
//!
//! Two front doors share the same queue:
//!
//! * the in-process [`Client`] handle (`service.client()`), for embedding
//!   the service in another Rust process;
//! * a TCP listener ([`QuoteServer`]) speaking a line-delimited JSON wire
//!   protocol ([`wire`]), hand-rolled in this crate so the container needs
//!   no external dependencies.  It is served by a single-threaded epoll
//!   [`reactor`] that multiplexes thousands of connections.
//!
//! Submissions may carry an optional **deadline budget**
//! ([`Client::submit_with_deadline`], wire field `deadline_ms`); the
//! scheduler is earliest-deadline-first with per-client fair shares, so a
//! tagged quote overtakes queued bulk work instead of waiting behind it.
//!
//! ```
//! use amopt_service::{QuoteService, ServiceConfig, ServiceRequest, ServiceResponse};
//! use amopt_core::batch::{ModelKind, PricingRequest};
//! use amopt_core::{OptionParams, OptionType};
//!
//! let service = QuoteService::start(ServiceConfig::default()).expect("spawn workers");
//! let client = service.client();
//! let req = PricingRequest::american(
//!     ModelKind::Bopm,
//!     OptionType::Call,
//!     OptionParams::paper_defaults(),
//!     252,
//! );
//! let ServiceResponse::Price(price) = client.call(ServiceRequest::Price(req)).unwrap() else {
//!     panic!("price request returns a price response");
//! };
//! assert!((price - 8.32).abs() < 0.05);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod config;
pub mod fault;
mod obs;
mod queue;
pub mod reactor;
pub mod sync;
mod tcp;
mod types;
pub mod wire;

pub use chaos::{soak, ChaosConfig, ChaosReport};
pub use config::ServiceConfig;
pub use fault::{FaultPlan, FaultSchedule, FaultSite, FaultStats, FAULT_SITES};
pub use queue::{Client, QuoteService, Ticket};
pub use tcp::{QuoteServer, TcpQuoteClient};
pub use types::{
    ReactorStats, ServiceError, ServiceRequest, ServiceResponse, ServiceStats, ShedByClass,
};

// Re-exported observability vocabulary, so wire consumers and the chaos
// tests can decode journal events and trace cards without depending on
// `amopt-obs` directly.
pub use amopt_obs::{
    Event, EventKind, Journal, Stage, TraceCard, FLAG_ABANDONED, FLAG_DEADLINE_MISS, FLAG_ERROR,
    FLAG_MEMO_HIT,
};

/// Result alias for service submissions.
pub type ServiceResult = std::result::Result<ServiceResponse, ServiceError>;
