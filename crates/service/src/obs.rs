//! Flightdeck wiring: the service's single observability surface.
//!
//! [`ServiceObs`] owns the metrics [`Registry`], the ring-buffer event
//! [`Journal`], and every instrument handle the queue, reactor, executor,
//! and fault plan record into.  It is created once per [`QuoteService`]
//! and shared by `Arc`.  Its one exposition is the wire `metrics` op
//! ([`QuoteService::metrics_text`]); the `ServiceStats` / `ReactorStats`
//! structs are in-process *views* assembled from the same instruments at
//! snapshot time, so the two can never disagree.
//!
//! Recording stays strictly no-alloc: every handle is a pre-registered
//! atomic cell, trace stamps are lock-free CAS stores, and journal pushes
//! are seqlock stores into a pre-sized ring.  The only locks on this path
//! are never taken — registration happens in [`ServiceObs::new`].
//!
//! [`QuoteService`]: crate::QuoteService
//! [`QuoteService::metrics_text`]: crate::QuoteService::metrics_text

use crate::fault::{FaultSite, FAULT_SITES, SITE_COUNT};
use crate::types::{ReactorStats, ServiceRequest};
use amopt_obs::{
    Counter, Event, EventKind, Gauge, Histogram, Journal, Registry, RequestTrace, Stage, TraceCard,
    FLAG_ABANDONED, FLAG_ERROR, STAGES, STAGE_COUNT,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Request-kind discriminants packed into trace cards and journal events.
pub(crate) const KIND_PRICE: u64 = 0;
/// See [`KIND_PRICE`].
pub(crate) const KIND_GREEKS: u64 = 1;
/// See [`KIND_PRICE`].
pub(crate) const KIND_IMPLIED_VOL: u64 = 2;

/// The service's observability spine: registry + journal + every handle.
#[derive(Debug)]
pub(crate) struct ServiceObs {
    registry: Registry,
    journal: Arc<Journal>,
    trace_enabled: bool,
    next_trace_id: AtomicU64,

    // Queue / scheduler.
    pub(crate) queue_depth: Gauge,
    pub(crate) submitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) rejected_queue_full: Counter,
    pub(crate) rejected_inflight: Counter,
    pub(crate) rejected_shutdown: Counter,
    pub(crate) batches: Counter,
    pub(crate) deadline_misses: Counter,
    pub(crate) heap_pops: Counter,
    pub(crate) batch_size: Histogram,

    // Worker pool.
    pub(crate) workers_alive: Gauge,
    pub(crate) worker_restarts: Counter,

    // Retry budget.
    pub(crate) retries: Counter,
    pub(crate) retry_budget_exhausted: Counter,
    pub(crate) retry_tokens: Gauge,

    // Brownout sheds, per request class.
    pub(crate) shed_price: Counter,
    pub(crate) shed_greeks: Counter,
    pub(crate) shed_implied_vol: Counter,

    // Reactor front end.
    pub(crate) reactor_accepted: Counter,
    pub(crate) reactor_open: Gauge,
    pub(crate) reactor_refused: Counter,
    pub(crate) reactor_loop_iterations: Counter,
    pub(crate) reactor_events_per_wake: Histogram,

    // Memo (set from `BatchPricer::memo_stats` at scrape time).
    memo_hits: Gauge,
    memo_misses: Gauge,
    memo_evictions: Gauge,
    memo_entries: Gauge,

    // Fault injection, per site.
    fault_counters: [Counter; SITE_COUNT],

    // Tracing.
    trace_cards: Counter,
    trace_memo_hits: Counter,
    stage_nanos: [Histogram; STAGE_COUNT],
    end_to_end_nanos: Histogram,

    // Journal health.
    journal_events: Gauge,
    journal_capacity: Gauge,
}

fn stage_histogram(registry: &Registry, stage: Stage) -> Histogram {
    let (name, help) = match stage {
        Stage::Parsed => {
            ("amopt_stage_parse_nanos", "Wire-line decode interval (accept to parsed), nanoseconds")
        }
        Stage::Enqueued => (
            "amopt_stage_admit_nanos",
            "Admission interval (caps, brownout, heap push), nanoseconds",
        ),
        Stage::Dequeued => (
            "amopt_stage_queue_wait_nanos",
            "EDF queue plus coalesce wait until a worker pops the request, nanoseconds",
        ),
        Stage::ExecStart => (
            "amopt_stage_batch_form_nanos",
            "Batch grouping interval before the drivers run, nanoseconds",
        ),
        Stage::MemoProbed => (
            "amopt_stage_memo_probe_nanos",
            "Memo probe interval for traced price requests, nanoseconds",
        ),
        Stage::Completed => (
            "amopt_stage_execute_nanos",
            "Batch execution until the completion slot fills, nanoseconds",
        ),
        Stage::Delivered => (
            "amopt_stage_reply_write_nanos",
            "Delivery interval (socket buffer write or in-process wait handoff), nanoseconds",
        ),
    };
    registry.histogram(name, help)
}

fn fault_counter(registry: &Registry, site: FaultSite) -> Counter {
    let name = match site {
        FaultSite::ShortRead => "amopt_fault_short_read_fired_total",
        FaultSite::ShortWrite => "amopt_fault_short_write_fired_total",
        FaultSite::EagainStorm => "amopt_fault_eagain_storm_fired_total",
        FaultSite::SpuriousWakeup => "amopt_fault_spurious_wakeup_fired_total",
        FaultSite::ConnReset => "amopt_fault_conn_reset_fired_total",
        FaultSite::ClockSkew => "amopt_fault_clock_skew_fired_total",
        FaultSite::WorkerPanic => "amopt_fault_worker_panic_fired_total",
        FaultSite::WorkerStall => "amopt_fault_worker_stall_fired_total",
        FaultSite::WorkerDeath => "amopt_fault_worker_death_fired_total",
        FaultSite::LostReply => "amopt_fault_lost_reply_fired_total",
    };
    registry.counter(name, "Injected faults fired at this site since start")
}

impl ServiceObs {
    /// Builds the registry, journal, and every instrument handle.  All
    /// registration happens here — the record paths never take the
    /// registry lock.
    pub(crate) fn new(trace_enabled: bool, journal_capacity: usize) -> Arc<ServiceObs> {
        let registry = Registry::new();
        let r = &registry;
        let obs = ServiceObs {
            journal: Journal::new(journal_capacity),
            trace_enabled,
            next_trace_id: AtomicU64::new(1),

            queue_depth: r.gauge("amopt_queue_depth", "Requests waiting in the EDF heap"),
            submitted: r.counter(
                "amopt_queue_submitted_total",
                "Requests accepted: queued, or answered at submit from the memo",
            ),
            completed: r.counter(
                "amopt_queue_completed_total",
                "Requests answered (successfully or with a pricing error)",
            ),
            rejected_queue_full: r.counter(
                "amopt_queue_rejected_queue_full_total",
                "Submissions rejected because the queue was full",
            ),
            rejected_inflight: r.counter(
                "amopt_queue_rejected_inflight_total",
                "Submissions rejected by a per-connection in-flight cap",
            ),
            rejected_shutdown: r.counter(
                "amopt_queue_rejected_shutdown_total",
                "Submissions rejected during shutdown",
            ),
            batches: r.counter("amopt_queue_batches_total", "Batches flushed to the executor"),
            deadline_misses: r.counter(
                "amopt_queue_deadline_misses_total",
                "Budgeted requests answered after their caller-supplied deadline",
            ),
            heap_pops: r.counter("amopt_queue_heap_pops_total", "EDF heap pops across all flushes"),
            batch_size: r
                .histogram("amopt_queue_batch_size", "Flushed batch sizes (requests per batch)"),

            workers_alive: r.gauge("amopt_workers_alive", "Worker threads currently alive"),
            worker_restarts: r.counter(
                "amopt_worker_restarts_total",
                "Worker threads respawned by the watchdog after a panic",
            ),

            retries: r.counter("amopt_retries_total", "Retries performed by call_with_retry"),
            retry_budget_exhausted: r.counter(
                "amopt_retry_budget_exhausted_total",
                "Retries refused because the retry budget was exhausted",
            ),
            retry_tokens: r.gauge("amopt_retry_tokens", "Retry-budget tokens currently available"),

            shed_price: r
                .counter("amopt_shed_price_total", "Price requests shed by brownout tiers"),
            shed_greeks: r
                .counter("amopt_shed_greeks_total", "Greeks requests shed by brownout tiers"),
            shed_implied_vol: r.counter(
                "amopt_shed_implied_vol_total",
                "Implied-vol requests shed by brownout tiers",
            ),

            reactor_accepted: r.counter(
                "amopt_reactor_connections_accepted_total",
                "Connections the reactor has accepted",
            ),
            reactor_open: r.gauge(
                "amopt_reactor_connections_open",
                "Connections currently registered with the event loop",
            ),
            reactor_refused: r.counter(
                "amopt_reactor_connections_refused_total",
                "Accepts refused because the connection cap was reached",
            ),
            reactor_loop_iterations: r.counter(
                "amopt_reactor_loop_iterations_total",
                "Event-loop iterations (one per epoll_wait return)",
            ),
            reactor_events_per_wake: r.histogram(
                "amopt_reactor_events_per_wake",
                "Ready events delivered per epoll_wait return",
            ),

            memo_hits: r.gauge("amopt_memo_hits", "Memo probes answered from the cache"),
            memo_misses: r.gauge("amopt_memo_misses", "Memo probes that required fresh pricing"),
            memo_evictions: r.gauge("amopt_memo_evictions", "Memo entries dropped to make room"),
            memo_entries: r.gauge("amopt_memo_entries", "Memo entries currently resident"),

            fault_counters: FAULT_SITES.map(|site| fault_counter(r, site)),

            trace_cards: r
                .counter("amopt_trace_cards_total", "Request trace cards completed and journaled"),
            trace_memo_hits: r.counter(
                "amopt_trace_memo_hits_total",
                "Traced price requests whose memo probe hit",
            ),
            stage_nanos: STAGES.map(|stage| stage_histogram(r, stage)),
            end_to_end_nanos: r.histogram(
                "amopt_request_end_to_end_nanos",
                "Traced request end-to-end latency (accept to delivery), nanoseconds",
            ),

            journal_events: r.gauge("amopt_journal_events", "Events ever pushed to the journal"),
            journal_capacity: r
                .gauge("amopt_journal_capacity", "Event-journal ring capacity (events retained)"),
            registry,
        };
        Arc::new(obs)
    }

    /// The event journal (shared with the fault plan's hook).
    pub(crate) fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Starts a trace card, or `None` when tracing is disabled.
    pub(crate) fn trace_start(&self) -> Option<Arc<RequestTrace>> {
        // amopt-lint: hot-path
        if self.trace_enabled {
            Some(RequestTrace::start())
        } else {
            None
        }
    }

    /// The next in-process trace id (wire requests use their wire id).
    pub(crate) fn next_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The card kind discriminant of `request`.
    pub(crate) fn kind_of(request: &ServiceRequest) -> u64 {
        match request {
            ServiceRequest::Price(_) => KIND_PRICE,
            ServiceRequest::Greeks(_) => KIND_GREEKS,
            ServiceRequest::ImpliedVol(_) => KIND_IMPLIED_VOL,
        }
    }

    /// Delivery funnel: stamps [`Stage::Delivered`], and — for exactly one
    /// caller per card — records the per-stage histograms, the end-to-end
    /// histogram, and journals the completed card.
    pub(crate) fn deliver(&self, trace: &RequestTrace, is_err: bool) {
        // amopt-lint: hot-path
        if !trace.finish() {
            return;
        }
        if is_err {
            trace.set_flag(FLAG_ERROR);
        }
        self.record_card(trace);
    }

    /// Abandonment funnel: journals the card of a ticket dropped without
    /// its result ever being taken (the requester's connection died before
    /// the reply was pumped), flagged [`FLAG_ABANDONED`].  A no-op when the
    /// card was already delivered, so every accepted request leaves exactly
    /// one card no matter which funnel wins.
    pub(crate) fn abandon(&self, trace: &RequestTrace) {
        if !trace.finish() {
            return;
        }
        trace.set_flag(FLAG_ERROR | FLAG_ABANDONED);
        self.record_card(trace);
    }

    /// Records a finished card into the histograms and the journal.  Called
    /// exactly once per card, by whichever funnel won the `finish()` race.
    fn record_card(&self, trace: &RequestTrace) {
        // amopt-lint: hot-path
        let card = trace.card();
        for (hist, nanos) in self.stage_nanos.iter().zip(card.stage_nanos()) {
            if let Some(nanos) = nanos {
                hist.record(nanos);
            }
        }
        self.end_to_end_nanos.record(card.end_to_end_nanos());
        if card.flags & amopt_obs::FLAG_MEMO_HIT != 0 {
            self.trace_memo_hits.inc();
        }
        self.trace_cards.inc();
        self.journal.push(&card.to_event());
    }

    /// Fault-plan hook: counts the firing and journals
    /// `[site, consultation index]`.  Called from the plan's single
    /// decision funnel, so every firing lands here exactly once.
    pub(crate) fn fault_fired(&self, site: FaultSite, index: u64) {
        // amopt-lint: hot-path
        if let Some(counter) = self.fault_counters.get(site as usize) {
            counter.inc();
        }
        self.journal.push(&Event::new(EventKind::Fault, &[site as u64, index]));
    }

    /// Counts and journals a brownout shed decision (`class` is a `KIND_*`
    /// discriminant).
    pub(crate) fn shed_fired(&self, class: u64) {
        // amopt-lint: hot-path
        match class {
            KIND_PRICE => &self.shed_price,
            KIND_GREEKS => &self.shed_greeks,
            _ => &self.shed_implied_vol,
        }
        .inc();
        self.journal.push(&Event::new(EventKind::Shed, &[class]));
    }

    /// Journals one performed retry.
    pub(crate) fn retry_fired(&self, client_id: u64, attempt: u64) {
        self.retries.inc();
        self.journal.push(&Event::new(EventKind::Retry, &[client_id, attempt]));
    }

    /// Journals a watchdog worker respawn.
    pub(crate) fn worker_restarted(&self, worker_index: u64) {
        self.worker_restarts.inc();
        self.journal.push(&Event::new(EventKind::WorkerRestart, &[worker_index]));
    }

    /// Journals an explicit-budget deadline miss (the counter is bumped by
    /// the executor alongside the per-request flag).
    pub(crate) fn deadline_missed(&self, lateness_nanos: u64) {
        // amopt-lint: hot-path
        self.deadline_misses.inc();
        self.journal.push(&Event::new(EventKind::DeadlineMiss, &[lateness_nanos]));
    }

    /// Refreshes the scrape-time gauges and renders the full exposition
    /// (registry + kernel phase timers).
    pub(crate) fn render(&self, memo: &amopt_core::batch::MemoStats) -> String {
        self.memo_hits.set(memo.hits);
        self.memo_misses.set(memo.misses);
        self.memo_evictions.set(memo.evictions);
        self.memo_entries.set(memo.entries as u64);
        self.journal_events.set(self.journal.pushed());
        self.journal_capacity.set(self.journal.capacity() as u64);
        let mut text = self.registry.render();
        amopt_obs::kernel::render_into(&mut text);
        text
    }

    /// Number of registered instruments (acceptance: ≥ 25).
    pub(crate) fn instrument_count(&self) -> usize {
        self.registry.len()
    }

    /// The [`ReactorStats`] view, assembled from the reactor's registry
    /// instruments (zero until a reactor front end runs).
    pub(crate) fn reactor_stats(&self) -> ReactorStats {
        ReactorStats {
            connections_accepted: self.reactor_accepted.get(),
            connections_open: self.reactor_open.get(),
            connections_refused: self.reactor_refused.get(),
            loop_iterations: self.reactor_loop_iterations.get(),
        }
    }

    /// The most recent `n` completed trace cards, oldest first.
    pub(crate) fn recent_traces(&self, n: usize) -> Vec<TraceCard> {
        let mut cards: Vec<TraceCard> =
            self.journal.snapshot().iter().filter_map(TraceCard::from_event).collect();
        let keep = cards.len().saturating_sub(n);
        cards.drain(..keep);
        cards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_meets_the_instrument_floor() {
        let obs = ServiceObs::new(true, 64);
        assert!(
            obs.instrument_count() >= 25,
            "only {} instruments registered",
            obs.instrument_count()
        );
        // Every subsystem the acceptance criteria name is represented.
        let text = obs.render(&amopt_core::batch::MemoStats::default());
        for needle in [
            "amopt_queue_submitted_total",
            "amopt_reactor_loop_iterations_total",
            "amopt_queue_batch_size_bucket",
            "amopt_memo_hits",
            "amopt_fault_worker_panic_fired_total",
            "amopt_retries_total",
            "amopt_shed_price_total",
            "amopt_stage_queue_wait_nanos_count",
            "amopt_kernel_fft_pass_calls_total",
        ] {
            assert!(text.contains(needle), "{needle} missing from exposition:\n{text}");
        }
    }

    #[test]
    fn delivery_is_exactly_once_and_fills_the_journal() {
        let obs = ServiceObs::new(true, 64);
        let trace = obs.trace_start().expect("tracing enabled");
        trace.set_id(9);
        trace.stamp(Stage::Parsed);
        trace.stamp(Stage::Completed);
        obs.deliver(&trace, false);
        obs.deliver(&trace, false); // second delivery must be a no-op
        assert_eq!(obs.trace_cards.get(), 1);
        let cards = obs.recent_traces(8);
        assert_eq!(cards.len(), 1);
        assert_eq!(cards.first().map(|c| c.id), Some(9));
        assert!(cards.first().is_some_and(|c| c.is_monotone()));
    }

    #[test]
    fn abandonment_journals_one_flagged_card_and_never_doubles_a_delivery() {
        let obs = ServiceObs::new(true, 64);
        // An abandoned trace journals exactly one card, flagged.
        let trace = obs.trace_start().expect("tracing enabled");
        trace.set_id(1);
        trace.stamp(Stage::Parsed);
        obs.abandon(&trace);
        obs.abandon(&trace);
        assert_eq!(obs.trace_cards.get(), 1);
        let card = obs.recent_traces(8).pop().expect("one card");
        assert_eq!(card.id, 1);
        assert!(card.flags & FLAG_ABANDONED != 0, "abandoned flag missing: {card:?}");
        assert!(card.flags & FLAG_ERROR != 0, "abandoned cards count as errors: {card:?}");
        // A delivered trace is never re-journaled (or re-flagged) by the
        // abandonment funnel racing behind it.
        let trace = obs.trace_start().expect("tracing enabled");
        trace.set_id(2);
        obs.deliver(&trace, false);
        obs.abandon(&trace);
        assert_eq!(obs.trace_cards.get(), 2);
        let card = obs.recent_traces(8).pop().expect("latest card");
        assert_eq!(card.id, 2);
        assert_eq!(card.flags & (FLAG_ABANDONED | FLAG_ERROR), 0, "{card:?}");
    }

    #[test]
    fn tracing_disabled_yields_no_cards() {
        let obs = ServiceObs::new(false, 64);
        assert!(obs.trace_start().is_none());
    }

    #[test]
    fn fault_hook_counts_and_journals() {
        let obs = ServiceObs::new(true, 64);
        obs.fault_fired(FaultSite::WorkerPanic, 3);
        obs.fault_fired(FaultSite::ShortRead, 0);
        let events = obs.journal().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events.first().map(|e| e.kind), Some(EventKind::Fault));
        assert_eq!(
            events.first().map(|e| (e.payload[0], e.payload[1])),
            Some((FaultSite::WorkerPanic as u64, 3))
        );
    }
}
