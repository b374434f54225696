//! Flightdeck — the workspace's zero-alloc observability layer.
//!
//! Four pieces, all dependency-free and allocation-free on their record
//! paths (machine-checked by `amopt-lint`'s `hot-path-alloc` pass):
//!
//! * [`Registry`]: a lock-light metrics registry of monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s.
//!   Instruments are registered once at startup (registration takes a
//!   mutex; recording is a single atomic RMW on a pre-allocated cell) and
//!   exposed as Prometheus-style text via [`Registry::render`].
//! * [`trace`]: per-request [`RequestTrace`] cards of monotonic stage
//!   timestamps (parse → admit → queue/EDF wait → batch form → memo probe
//!   → execute → reply write), stamped lock-free through the whole request
//!   lifecycle and aggregated into per-stage histograms.
//! * [`Journal`]: a lock-free ring buffer of fixed-size [`Event`]s — the
//!   flight recorder.  Completed trace cards, fault-injection firings,
//!   worker restarts, brownout sheds, and deadline misses all land here;
//!   [`Journal::recent`] samples the newest N without stopping writers.
//! * [`kernel`]: static phase timers for the trapezoid/cone engines (FFT
//!   pass vs boundary window vs base case), enabled by the `obs` cargo
//!   feature of `amopt-core` and zero-cost when disabled.
//!
//! [`RequestTrace`]: trace::RequestTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod kernel;
pub mod registry;
pub mod trace;

pub use journal::{Event, EventKind, Journal, EVENT_PAYLOAD_WORDS};
pub use registry::{
    bucket_bound, bucket_index, Counter, Gauge, HistSnapshot, Histogram, Registry, HIST_BUCKETS,
};
pub use trace::{
    RequestTrace, Stage, TraceCard, FLAG_ABANDONED, FLAG_DEADLINE_MISS, FLAG_ERROR, FLAG_MEMO_HIT,
    STAGES, STAGE_COUNT,
};
