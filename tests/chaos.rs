//! Chaos soak: the whole service stack under a seeded hostile fault plan.
//!
//! One run drives a multi-connection client fleet through a seeded request
//! book against a server whose I/O, queue clock, and workers are all being
//! actively sabotaged by [`FaultPlan`], then checks the self-healing
//! invariants: every accepted request is answered exactly once, every
//! delivered `ok` reply is bitwise-identical to the fault-free reference
//! run, and the service returns to steady state (queue drained, full worker
//! complement alive).  The same seed must reproduce the same fault
//! schedule, pinned by the schedule hash.

use american_option_pricing::core::batch::{ModelKind, PricingRequest};
use american_option_pricing::core::{OptionParams, OptionType};
use american_option_pricing::service::{
    soak, ChaosConfig, ChaosReport, EventKind, FaultPlan, FaultSchedule, FaultSite, QuoteService,
    RetryPolicy, ServiceConfig, ServiceError, ServiceRequest, TraceCard, FAULT_SITES,
    FLAG_ABANDONED, FLAG_ERROR,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The standard seeded soak must pass with a meaningful fault volume
/// spread across the I/O, panic, and stall classes.
#[test]
fn seeded_soak_survives_hostile_faults_and_restores_steady_state() {
    let report = soak(&ChaosConfig::new(0xFA17_11FE)).expect("soak runs");
    assert!(report.passed(), "chaos invariants violated:\n{}", report.render());

    // Fault volume and class coverage: the acceptance floor is 500 injected
    // faults, and the run must have exercised short/interrupted I/O, at
    // least one injected worker panic, and at least one injected stall.
    assert!(report.faults.total() >= 500, "only {} faults fired", report.faults.total());
    assert!(report.faults.io_total() > 0, "no I/O faults fired:\n{}", report.render());
    assert!(
        report.faults.fired_at(FaultSite::WorkerPanic) > 0,
        "no injected panics:\n{}",
        report.render()
    );
    assert!(
        report.faults.fired_at(FaultSite::WorkerStall) > 0,
        "no injected stalls:\n{}",
        report.render()
    );

    // The fleet actually had to heal: overload shedding and retries are
    // part of the hostile schedule, not a theoretical path.
    assert!(report.answered_ok > 0, "{}", report.render());
    assert_eq!(report.mismatches, 0, "delivered replies diverged:\n{}", report.render());
    assert_eq!(report.submitted, report.completed, "unanswered submissions:\n{}", report.render());
    assert_eq!(report.queue_depth_after, 0, "queue not drained:\n{}", report.render());
    assert_eq!(report.workers_alive, report.workers_expected, "{}", report.render());
}

/// Same seed ⇒ same schedule: the report's hash matches a plan rebuilt
/// from scratch, and two rebuilds agree; a different seed disagrees.
#[test]
fn same_seed_reproduces_the_schedule_hash() {
    let report = soak(&ChaosConfig::new(42).with_requests(64)).expect("soak runs");
    let rebuilt = FaultPlan::hostile(42).schedule_hash();
    assert_eq!(report.schedule_hash, rebuilt, "seed 42 must rebuild its schedule");
    assert_eq!(FaultPlan::hostile(42).schedule_hash(), rebuilt, "rebuild must be stable");
    assert_ne!(FaultPlan::hostile(43).schedule_hash(), rebuilt, "different seed, same hash");
}

/// Arming the deliberately-unhandled `LostReply` class must make the soak
/// FAIL — this is the proof that the invariant gate detects real loss, not
/// just that fault-free runs pass.  Mirrors CI's must-fail step.
#[test]
fn unhandled_fault_class_is_caught_by_the_invariant_gate() {
    let report = soak(&ChaosConfig::new(7).with_requests(200).unhandled()).expect("soak runs");
    assert!(!report.passed(), "armed LostReply faults went undetected:\n{}", report.render());
    assert!(report.lost > 0 || report.submitted != report.completed, "{}", report.render());
}

/// The event journal is a faithful flight recorder: every injected fault
/// appears exactly once with its (site, consultation index), every
/// shed/restart/deadline decision is journaled exactly as often as its
/// service counter, and every accepted request left exactly one trace
/// card — delivered with its reply, or journaled as abandoned when a
/// faulted connection died before the reactor could pump the reply.
/// `soak_config` sizes the ring so nothing can evict mid-run.
#[test]
fn journal_records_every_fault_and_decision_exactly_once() {
    let cfg = ChaosConfig { min_faults: 0, ..ChaosConfig::new(0x0B5E_11ED) }.with_requests(192);
    let report = soak(&cfg).expect("soak runs");
    assert!(report.passed(), "{}", report.render());
    assert!(report.faults.total() > 0, "no faults fired — nothing to audit");

    let count_of = |kind: EventKind| -> u64 {
        report.journal.iter().filter(|e| e.kind == kind).count() as u64
    };

    // Faults: per site, the journaled firings match the plan's fired
    // counter exactly — no drops, no duplicates — and every firing carries
    // a distinct consultation index.
    let mut fault_events = 0u64;
    for &site in FAULT_SITES.iter() {
        let mut indices: Vec<u64> = report
            .journal
            .iter()
            .filter(|e| e.kind == EventKind::Fault && e.payload[0] == site as u64)
            .map(|e| e.payload[1])
            .collect();
        fault_events += indices.len() as u64;
        assert_eq!(
            indices.len() as u64,
            report.faults.fired_at(site),
            "journal disagrees with the fired counter at {}",
            site.name(),
        );
        let n = indices.len();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), n, "duplicate journaled firing at {}", site.name());
    }
    // ...and no fault event names a site outside the catalogue.
    assert_eq!(fault_events, count_of(EventKind::Fault));
    assert_eq!(fault_events, report.faults.total());

    // Decisions: each journal kind tallies exactly with its counter.
    let stats = &report.service;
    assert_eq!(count_of(EventKind::Shed), stats.shed_by_class.total());
    assert_eq!(count_of(EventKind::Retry), stats.retries);
    assert_eq!(count_of(EventKind::WorkerRestart), stats.worker_restarts);
    assert_eq!(count_of(EventKind::DeadlineMiss), stats.deadline_misses);

    // Trace cards: one per executed request — whether the reply reached
    // its client or the connection died first (the ticket's drop journals
    // the card flagged abandoned).  Every card unpacks, and an abandoned
    // card always also carries the error flag.
    assert_eq!(count_of(EventKind::Trace), stats.completed);
    for event in report.journal.iter().filter(|e| e.kind == EventKind::Trace) {
        let card = TraceCard::from_event(event).expect("journaled trace event unpacks");
        if card.flags & FLAG_ABANDONED != 0 {
            assert!(card.flags & FLAG_ERROR != 0, "abandoned card without error flag: {card:?}");
        }
    }
}

/// Same seed ⇒ same journal, modulo timing: the fault decision sequence is
/// pure in `(seed, site, index)`, so at every site two same-seed soaks must
/// journal *identical* firing indices over their common consultation
/// prefix.  Only how far each run consults a site (and the timestamps) is
/// timing-dependent; a single disagreement means the journal or the plan
/// leaked nondeterminism.
#[test]
fn same_seed_soaks_journal_identical_fault_firings() {
    let cfg = ChaosConfig { min_faults: 0, ..ChaosConfig::new(5) }.with_requests(96);
    let a = soak(&cfg).expect("soak runs");
    let b = soak(&cfg).expect("soak runs");
    assert_eq!(a.schedule_hash, b.schedule_hash, "same seed must compile the same schedule");

    let fired = |r: &ChaosReport, site: FaultSite| -> Vec<u64> {
        let mut v: Vec<u64> = r
            .journal
            .iter()
            .filter(|e| e.kind == EventKind::Fault && e.payload[0] == site as u64)
            .map(|e| e.payload[1])
            .collect();
        v.sort_unstable();
        v
    };
    let mut compared = 0usize;
    for &site in FAULT_SITES.iter() {
        let (fa, fb) = (fired(&a, site), fired(&b, site));
        let common = fa.len().min(fb.len());
        compared += common;
        assert_eq!(
            &fa[..common],
            &fb[..common],
            "same-seed runs disagree on fault firings at {}",
            site.name(),
        );
    }
    assert!(compared > 0, "no common fault firings — the comparison was vacuous");
}

/// A plan that stalls every drained batch, the first for 200–400 ms: a
/// plug whose length the test sets, whatever the engine's speed.  Stall
/// lengths are pure in the seed, so the seed is the first one a twin plan
/// shows to stall long enough.
fn stalling_plan() -> Arc<FaultPlan> {
    const AT_LEAST: Duration = Duration::from_millis(200);
    let schedule = FaultSchedule {
        max_stall_ms: 2 * AT_LEAST.as_millis() as u64,
        ..FaultSchedule::off().with_rate(FaultSite::WorkerStall, 1024)
    };
    let seed = (0u64..)
        .find(|&seed| FaultPlan::new(seed, schedule).stall() >= Some(AT_LEAST))
        .expect("an unbounded search");
    FaultPlan::new(seed, schedule)
}

fn cheap_quote(strike: f64) -> PricingRequest {
    let params = OptionParams { strike, ..OptionParams::paper_defaults() };
    PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, 32)
}

/// The in-process retry budget journals one `Retry` event per performed
/// retry, keyed `(client id, attempt)` — exactly once each, in step with
/// the `retries` counter.
#[test]
fn retry_decisions_are_journaled_exactly_once_with_their_attempt_index() {
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

    // Plug the handle's single in-flight slot with a quote whose batch
    // stalls its worker for at least 200 ms: every further call on it
    // sheds Overloaded until the plug completes, so call_with_retry burns
    // its whole budget (2 retries, each backing off under 1 ms)
    // deterministically.
    let plug = client.submit(ServiceRequest::Price(cheap_quote(117.31))).expect("plug submit");
    let cheap = cheap_quote(100.0);
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
    };
    let got = client.call_with_retry(ServiceRequest::Price(cheap), &policy);
    assert!(got.is_err(), "the plugged slot must shed the retrying call: {got:?}");
    assert!(plug.wait().is_ok());

    let stats = service.stats();
    assert_eq!(stats.retries, 2, "budget 2 must allow exactly two retries");
    let retries: Vec<(u64, u64)> = service
        .journal()
        .snapshot()
        .iter()
        .filter(|e| e.kind == EventKind::Retry)
        .map(|e| (e.payload[0], e.payload[1]))
        .collect();
    assert_eq!(retries.len() as u64, stats.retries, "one journal event per performed retry");
    let mut attempts: Vec<u64> = retries.iter().map(|&(_, a)| a).collect();
    attempts.sort_unstable();
    assert_eq!(attempts, vec![1, 2], "attempt indices journaled exactly once each");
    assert!(
        retries.iter().all(|&(id, _)| id == retries[0].0),
        "all retries came from the one retrying client handle"
    );
    service.shutdown();
}

/// The executing-batch count cannot leak: after a seeded load run with the
/// worker panic, stall and death classes armed, a lone request on the
/// recovered service flushes at once instead of waiting out a 30 s
/// `max_wait` behind a batch that no longer exists.  The load is memo-cold
/// — 200 distinct strikes, none of them the lone request's — so every
/// quote reaches a worker (a memo hit is answered at submit) and the
/// seeded executor faults have batches to fire in.
#[test]
fn a_recovered_service_flushes_a_lone_request_at_once() {
    let hostile = FaultSchedule::hostile();
    let schedule = [FaultSite::WorkerPanic, FaultSite::WorkerStall, FaultSite::WorkerDeath]
        .into_iter()
        .fold(FaultSchedule::off(), |s, site| s.with_rate(site, hostile.rate(site)));
    let plan = FaultPlan::new(0x1EA4, schedule);
    let service = QuoteService::start(ServiceConfig {
        workers: 3,
        max_batch: 32,
        max_wait: Duration::from_secs(30),
        fault: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    })
    .expect("start service");
    let answered = |got: Result<f64, ServiceError>| match got {
        Ok(_) | Err(ServiceError::Internal { .. }) => {}
        Err(e) => panic!("neither a price nor an injected panic: {e}"),
    };
    std::thread::scope(|scope| {
        for c in 0..4 {
            let client = service.client();
            scope.spawn(move || {
                for i in 0..50 {
                    answered(client.price(cheap_quote(60.0 + (c * 50 + i) as f64 / 4.0)));
                }
            });
        }
    });
    let faults = plan.stats();
    for site in [FaultSite::WorkerPanic, FaultSite::WorkerStall] {
        assert!(faults.fired_at(site) > 0, "no {} fault fired", site.name());
    }

    // Recovered: the watchdog has the pool back at strength.
    let t0 = Instant::now();
    while service.stats().workers_alive < 3 {
        assert!(t0.elapsed() < Duration::from_secs(10), "pool never restored");
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    answered(service.client().price(cheap_quote(111.0)));
    assert!(t0.elapsed() < Duration::from_secs(5), "the lone request waited for company");
    let stats = service.stats();
    assert_eq!(stats.submitted, stats.completed, "{stats:?}");
    service.shutdown();
}
