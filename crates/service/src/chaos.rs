//! Seeded chaos soak: drive a faulty service with a retrying client fleet
//! and check the self-healing invariants.
//!
//! [`soak`] runs the same deterministic request book twice: once against a
//! fault-free server to capture the *reference* reply for every request,
//! then against a server compiled with [`FaultPlan::hostile`] for the
//! given seed — short reads and writes, EAGAIN storms, spurious wakeups,
//! connection resets, clock skew, worker panics, stalls, and worker
//! deaths, all firing on a schedule that is a pure function of the seed.
//! A fleet of retrying wire clients works through the book under fire,
//! following the retry-safety rules the service documents:
//!
//! * **retry** `overloaded` replies and transport failures with *zero*
//!   reply bytes (the request was never answered; resubmission is
//!   idempotent-safe);
//! * **never resubmit** after a torn reply (partial bytes arrived — the
//!   request may already be answered; a resend risks a double answer).
//!
//! The soak then asserts the chaos invariants:
//!
//! 1. every request is answered exactly once or accounted lost, and
//!    nothing is lost beyond the torn replies the rules forbid retrying;
//! 2. every delivered `ok` reply is **byte-identical** to the fault-free
//!    reference reply;
//! 3. steady state is restored — the queue drains, `submitted` equals
//!    `completed`, and the worker pool is back at full strength;
//! 4. the fault schedule is reproducible: the report carries
//!    [`FaultPlan::schedule_hash`], and rebuilding the plan from the same
//!    seed yields the same hash.
//!
//! [`ChaosConfig::inject_unhandled`] arms [`FaultSite::LostReply`] — the
//! deliberately unhandled class that drops drained batch entries.  CI runs
//! one such soak and requires it to *fail*, proving the gate can catch a
//! service that swallows replies.

use crate::fault::{FaultPlan, FaultSchedule, FaultSite, FaultStats};
use crate::tcp::{QuoteServer, TcpQuoteClient};
use crate::wire;
use crate::{Event, ServiceConfig, ServiceStats};
use amopt_core::batch::surface::VolQuote;
use amopt_core::batch::{ModelKind, PricingRequest};
use amopt_core::{OptionParams, OptionType};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attempts per request (first try plus retries) before it counts lost.
const MAX_ATTEMPTS: u32 = 8;
/// Client read timeout: a reply not delivered within this is treated as a
/// transport failure (retried when no reply byte arrived).
const RECV_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the soak waits for the service to settle after the fleet
/// finishes (queue drained, submitted == completed, workers respawned).
const SETTLE_DEADLINE: Duration = Duration::from_secs(5);
/// Worker threads the chaos server runs (also the respawn target).
const CHAOS_WORKERS: usize = 3;

/// Parameters of one [`soak`] run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed the fault plan and the request book are compiled from.
    pub seed: u64,
    /// Requests in the book (min 1).
    pub requests: usize,
    /// Concurrent client connections working through the book (min 1).
    pub conns: usize,
    /// Arm the deliberately unhandled [`FaultSite::LostReply`] class; the
    /// soak is then *expected to fail* (CI's proof the gate works).
    pub inject_unhandled: bool,
    /// Minimum total faults the run must fire, else it is a violation
    /// (`0` disables the floor).
    pub min_faults: u64,
}

impl ChaosConfig {
    /// The standard soak for `seed`: 1200 requests over 6 connections,
    /// at least 500 faults, unhandled class disarmed.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, requests: 1200, conns: 6, inject_unhandled: false, min_faults: 500 }
    }

    /// Returns the config with the request count set to `n`.
    pub fn with_requests(mut self, n: usize) -> ChaosConfig {
        self.requests = n;
        self
    }

    /// Returns the config with the unhandled fault class armed and the
    /// fault floor dropped (the run is expected to fail on invariants,
    /// not on volume).
    pub fn unhandled(mut self) -> ChaosConfig {
        self.inject_unhandled = true;
        self.min_faults = 0;
        self
    }
}

/// Client-fleet tallies, merged across connections.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    answered_ok: u64,
    answered_err: u64,
    shed_replies: u64,
    retried: u64,
    torn: u64,
    lost: u64,
    mismatches: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.answered_ok += other.answered_ok;
        self.answered_err += other.answered_err;
        self.shed_replies += other.shed_replies;
        self.retried += other.retried;
        self.torn += other.torn;
        self.lost += other.lost;
        self.mismatches += other.mismatches;
    }
}

/// Everything one [`soak`] run observed, plus the invariant violations it
/// found ([`passed`](ChaosReport::passed) means none).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the run was compiled from.
    pub seed: u64,
    /// [`FaultPlan::schedule_hash`] of the plan that ran — rebuild the
    /// plan from the same seed and schedule to verify reproducibility.
    pub schedule_hash: u64,
    /// Fired-fault counts per site.
    pub faults: FaultStats,
    /// Requests answered with an `ok` reply (each checked against the
    /// fault-free reference).
    pub answered_ok: u64,
    /// Requests answered with a non-retryable error reply.
    pub answered_err: u64,
    /// `overloaded` replies observed (each either retried or, with the
    /// attempt budget spent, surfaced as the final answer).
    pub shed_replies: u64,
    /// Retries the fleet performed (overloaded replies + zero-byte
    /// transport failures).
    pub retried: u64,
    /// Replies torn mid-line (counted lost; never resubmitted).
    pub torn: u64,
    /// Requests with no final answer: torn replies plus exhausted retries.
    pub lost: u64,
    /// Delivered `ok` replies that differed from the reference run.
    pub mismatches: u64,
    /// Service-side accepted submissions (includes fleet retries).
    pub submitted: u64,
    /// Service-side completed requests.
    pub completed: u64,
    /// Queue depth after the settle wait (steady state ⇒ 0).
    pub queue_depth_after: usize,
    /// Live workers after the settle wait.
    pub workers_alive: u64,
    /// Workers the pool is configured for.
    pub workers_expected: u64,
    /// Workers the watchdog respawned during the run.
    pub worker_restarts: u64,
    /// Full service-side stats snapshot after the settle wait (the fields
    /// above are the headline subset; the journal audit needs the rest —
    /// sheds per class, deadline misses).
    pub service: ServiceStats,
    /// Quiesced event-journal snapshot taken after shutdown, oldest first.
    /// The soak sizes the ring so nothing is evicted: every fault firing,
    /// shed, restart, and trace card of the run is here.
    pub journal: Vec<Event>,
    /// Invariant violations (empty ⇔ the soak passed).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether every chaos invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human-readable summary (what `quote_server chaos`
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("chaos soak: seed {}\n", self.seed));
        out.push_str(&format!("schedule hash: {:#018x}\n", self.schedule_hash));
        out.push_str(&format!("faults fired: {} total", self.faults.total()));
        for (name, count) in self.faults.non_zero() {
            out.push_str(&format!("  {name}:{count}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "replies: {} ok, {} err ({} overloaded), {} retried, {} torn, {} lost, {} mismatched\n",
            self.answered_ok,
            self.answered_err,
            self.shed_replies,
            self.retried,
            self.torn,
            self.lost,
            self.mismatches,
        ));
        out.push_str(&format!(
            "service: submitted {}, completed {}, queue depth {}, workers {}/{} ({} restarts)\n",
            self.submitted,
            self.completed,
            self.queue_depth_after,
            self.workers_alive,
            self.workers_expected,
            self.worker_restarts,
        ));
        if self.violations.is_empty() {
            out.push_str("verdict: PASS — every chaos invariant held\n");
        } else {
            out.push_str("verdict: FAIL\n");
            for v in &self.violations {
                out.push_str(&format!("  violation: {v}\n"));
            }
        }
        out
    }
}

/// One request the fleet will fire: the wire line and the reply the
/// fault-free reference run delivered for it.
#[derive(Debug, Clone)]
struct BookEntry {
    line: String,
    expected: String,
}

/// Builds the deterministic request book for `seed`: a mix of price
/// quotes, greeks ladders, and implied-vol inversions over varying
/// contracts, with every fifth price/greeks request deadline-tagged.
fn build_book(seed: u64, n: usize) -> Vec<String> {
    let mix = |x: u64| crate::fault::splitmix64(seed ^ 0xb00c_b00c ^ x);
    let mut lines = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let r = mix(i);
        let strike = 80.0 + (r % 64) as f64;
        let steps = 32 + 16 * ((r >> 8) % 3) as usize;
        let option_type = if r & (1 << 16) == 0 { OptionType::Call } else { OptionType::Put };
        let params = OptionParams { strike, ..OptionParams::paper_defaults() };
        let line = match (r >> 32) % 4 {
            0 | 1 => {
                let req = PricingRequest::american(ModelKind::Bopm, option_type, params, steps);
                if i % 5 == 4 {
                    wire::encode_pricing_request_with_deadline(i, "price", &req, 50.0)
                } else {
                    wire::encode_pricing_request(i, "price", &req)
                }
            }
            2 => {
                let req = PricingRequest::american(ModelKind::Bopm, option_type, params, steps);
                wire::encode_pricing_request(i, "greeks", &req)
            }
            _ => {
                // A market price in a plausible band; some inversions fail
                // with a pricing error — also a deterministic reply.
                let market = 4.0 + ((r >> 40) % 16) as f64;
                wire::encode_vol_request(i, &VolQuote::new(params, steps, market))
            }
        };
        lines.push(line);
    }
    lines
}

/// The service configuration both runs share (the chaos run adds the
/// fault plan).
fn soak_config(fault: Option<Arc<FaultPlan>>) -> ServiceConfig {
    ServiceConfig {
        workers: CHAOS_WORKERS,
        max_batch: 32,
        max_wait: Duration::from_millis(1),
        fault,
        // Sized so the event journal cannot evict mid-soak: the report's
        // journal snapshot must hold *every* fault firing and decision for
        // the exactly-once audit in tests/chaos.rs.
        journal_capacity: 1 << 15,
        ..ServiceConfig::default()
    }
}

/// Runs the book sequentially against a fault-free server and returns the
/// reference reply for every request.
fn reference_replies(lines: &[String]) -> io::Result<Vec<String>> {
    let server = QuoteServer::bind("127.0.0.1:0", soak_config(None))?;
    let mut client = TcpQuoteClient::connect(server.local_addr())?;
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        replies.push(client.roundtrip(line)?);
    }
    server.shutdown();
    Ok(replies)
}

/// One fleet connection working through its slice of the book, applying
/// the retry-safety rules.
fn run_client(addr: SocketAddr, book: Vec<BookEntry>) -> Tally {
    let mut tally = Tally::default();
    let mut conn: Option<TcpQuoteClient> = None;
    'book: for entry in &book {
        let mut attempts = 0u32;
        loop {
            if attempts >= MAX_ATTEMPTS {
                tally.lost += 1;
                continue 'book;
            }
            attempts += 1;
            if conn.is_none() {
                match TcpQuoteClient::connect(addr) {
                    Ok(fresh) => {
                        let _ = fresh.set_read_timeout(Some(RECV_TIMEOUT));
                        conn = Some(fresh);
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                }
            }
            let Some(client) = conn.as_mut() else { continue };
            if client.send(&entry.line).is_err() {
                // Nothing of this request was answered; reconnect and retry.
                conn = None;
                tally.retried += 1;
                continue;
            }
            match client.recv() {
                Ok(reply) => {
                    if reply.contains("\"ok\":true") {
                        tally.answered_ok += 1;
                        if reply != entry.expected {
                            tally.mismatches += 1;
                        }
                        continue 'book;
                    }
                    if reply.contains("\"kind\":\"overloaded\"") {
                        // Shed before enqueue: the one reply class that is
                        // idempotent-safe to retry.
                        tally.shed_replies += 1;
                        if attempts < MAX_ATTEMPTS {
                            tally.retried += 1;
                            std::thread::sleep(Duration::from_millis(attempts as u64));
                            continue;
                        }
                        tally.answered_err += 1;
                        continue 'book;
                    }
                    // Parse/pricing/internal errors executed (or can never
                    // execute): final answers, never retried.
                    tally.answered_err += 1;
                    continue 'book;
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Torn reply: bytes arrived, then the transport died.
                    // The request may already be answered server-side, so
                    // resubmitting risks a double answer — count it lost.
                    tally.torn += 1;
                    tally.lost += 1;
                    conn = None;
                    continue 'book;
                }
                Err(_) => {
                    // Zero reply bytes (EOF, reset, or timeout before the
                    // first byte): idempotent-safe to retry on a fresh
                    // connection — a late reply on the abandoned one can
                    // never be confused with the retry's.
                    conn = None;
                    tally.retried += 1;
                    continue;
                }
            }
        }
    }
    tally
}

/// Runs the full chaos soak for `cfg` and reports what held and what
/// broke.  Errors only on harness failures (bind/spawn/reference-run I/O);
/// invariant breakage lands in [`ChaosReport::violations`].
pub fn soak(cfg: &ChaosConfig) -> io::Result<ChaosReport> {
    let lines = build_book(cfg.seed, cfg.requests.max(1));
    let expected = reference_replies(&lines)?;
    let book: Vec<BookEntry> = lines
        .into_iter()
        .zip(expected)
        .map(|(line, expected)| BookEntry { line, expected })
        .collect();

    let schedule = if cfg.inject_unhandled {
        FaultSchedule::hostile().with_rate(FaultSite::LostReply, 48)
    } else {
        FaultSchedule::hostile()
    };
    let plan = FaultPlan::new(cfg.seed, schedule);
    let server = QuoteServer::bind("127.0.0.1:0", soak_config(Some(Arc::clone(&plan))))?;
    let addr = server.local_addr();

    let chunk_len = book.len().div_ceil(cfg.conns.max(1));
    let mut handles = Vec::new();
    let mut spawn_err = None;
    for chunk in book.chunks(chunk_len.max(1)) {
        let chunk = chunk.to_vec();
        let spawned = std::thread::Builder::new()
            .name("amopt-chaos-client".to_string())
            .spawn(move || run_client(addr, chunk));
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                spawn_err = Some(e);
                break;
            }
        }
    }
    let mut tally = Tally::default();
    for handle in handles {
        if let Ok(t) = handle.join() {
            tally.add(&t);
        }
    }
    if let Some(e) = spawn_err {
        server.shutdown();
        return Err(e);
    }

    // Steady state: wait (bounded) for the queue to drain, every accepted
    // request to complete, and the watchdog to bring the pool back to
    // strength.
    let deadline = Instant::now() + SETTLE_DEADLINE;
    let mut stats = server.service().stats();
    while (stats.queue_depth > 0
        || stats.completed < stats.submitted
        || stats.workers_alive < CHAOS_WORKERS as u64)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
        stats = server.service().stats();
    }
    server.shutdown();
    // Snapshot the journal only after shutdown: with no concurrent writers
    // the seqlocked ring skips nothing, so the copy is complete.
    let journal = server.service().journal().snapshot();
    let faults = plan.stats();

    let mut violations = Vec::new();
    if tally.mismatches > 0 {
        violations.push(format!(
            "{} delivered ok replies differed from the fault-free reference",
            tally.mismatches
        ));
    }
    if tally.lost > tally.torn {
        violations.push(format!(
            "{} requests lost vs {} torn replies — a reply vanished inside the service",
            tally.lost, tally.torn
        ));
    }
    if stats.submitted != stats.completed {
        violations.push(format!(
            "accepted requests not answered exactly once: submitted {}, completed {}",
            stats.submitted, stats.completed
        ));
    }
    if stats.queue_depth > 0 {
        violations.push(format!("queue failed to drain: {} entries left", stats.queue_depth));
    }
    if stats.workers_alive != CHAOS_WORKERS as u64 {
        violations.push(format!(
            "worker pool not restored: {} of {CHAOS_WORKERS} alive",
            stats.workers_alive
        ));
    }
    if cfg.min_faults > 0 && faults.total() < cfg.min_faults {
        violations.push(format!("only {} faults fired (floor {})", faults.total(), cfg.min_faults));
    }
    if cfg.min_faults > 0 {
        for (count, label) in [
            (faults.io_total(), "transport I/O"),
            (faults.fired_at(FaultSite::WorkerPanic), "worker-panic"),
            (faults.fired_at(FaultSite::WorkerStall), "worker-stall"),
        ] {
            if count == 0 {
                violations.push(format!("no {label} faults fired — that class went unexercised"));
            }
        }
    }

    Ok(ChaosReport {
        seed: cfg.seed,
        schedule_hash: plan.schedule_hash(),
        faults,
        answered_ok: tally.answered_ok,
        answered_err: tally.answered_err,
        shed_replies: tally.shed_replies,
        retried: tally.retried,
        torn: tally.torn,
        lost: tally.lost,
        mismatches: tally.mismatches,
        submitted: stats.submitted,
        completed: stats.completed,
        queue_depth_after: stats.queue_depth,
        workers_alive: stats.workers_alive,
        workers_expected: CHAOS_WORKERS as u64,
        worker_restarts: stats.worker_restarts,
        service: stats,
        journal,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_passes_and_reproduces_its_schedule_hash() {
        let cfg = ChaosConfig { min_faults: 0, ..ChaosConfig::new(7) }.with_requests(48);
        let report = soak(&cfg).expect("soak harness");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(
            report.answered_ok + report.answered_err + report.lost,
            48,
            "every request must be accounted for: {report:?}"
        );
        let replay = FaultPlan::hostile(7);
        assert_eq!(report.schedule_hash, replay.schedule_hash());
        assert!(report.render().contains("PASS"));
    }
}
