//! The service workloads: `quote_stream` (open loop) and `quote_saturate`
//! (closed loop), against an in-process `QuoteServer`
//! with the configuration it ships with, over loopback TCP.

use super::book::memo_metrics;
use super::{replay_engine, Check, EngineTally, Measured, Region, Window, Workload, WINDOWS};
use crate::gen::{chain_book, request_line, Scheduled, StreamPlan, BOOK_UNDERLYINGS, HOT_SET};
use crate::ledger::Ledger;
use crate::loadgen::{closed_loop, due_ns, open_loop, read_reply, ClientLog, OpenLoopLog, Reply};
use crate::spans::Tracer;
use crate::stats::{median, percentile, split_windows, window_median_percentile};
use amopt_core::batch::{BatchPricer, PricingRequest};
use amopt_core::EngineConfig;
use amopt_service::{wire, QuoteServer, ServiceConfig, ServiceStats};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Requests per second of the gated open-loop step, and the steps the
/// traced run adds above it.  Constants of the benchmark: about 5 %, 20 %,
/// 50 %, 70 % and 90 % of what this mix saturated at (35–40 k req/s) on the
/// 2-core machine the benchmark was defined on.
pub const RATE: f64 = 2_000.0;
pub const RATE_MID: f64 = 8_000.0;
pub const RATE_HI: f64 = 20_000.0;
pub const LADDER_ABOVE_HI: [f64; 2] = [28_000.0, 36_000.0];

/// Latency limit of the service: a request answered correctly within this
/// of its due time meets it.
pub const SLO_US: f64 = 20_000.0;
/// Share of a step spent warming up before the windows start.
pub const WARM_SHARE: f64 = 1.0 / 9.0;
/// Requests each closed-loop connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 64;

fn bind(cfg: ServiceConfig) -> QuoteServer {
    QuoteServer::bind("127.0.0.1:0", cfg).expect("bind the quote server on loopback")
}

/// Sends `lines` down one connection in a single burst and reads one reply
/// per line.
fn pipeline(addr: SocketAddr, lines: &[Vec<u8>]) -> std::io::Result<Vec<Vec<u8>>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(crate::loadgen::DRAIN))?;
    (&stream).write_all(&lines.concat())?;
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::with_capacity(lines.len());
    for _ in lines {
        let mut reply = Vec::new();
        reader.read_until(b'\n', &mut reply)?;
        replies.push(reply);
    }
    Ok(replies)
}

/// Reference prices: `BatchPricer::price_one` on a memo-less pricer, fanned
/// over the machine's threads.  NaN marks a contract the pricer rejects.
fn reference_prices(contracts: &[PricingRequest]) -> Vec<f64> {
    let threads = crate::sys::nproc().max(1);
    let chunk = contracts.len().div_ceil(threads).max(1);
    let mut prices = vec![f64::NAN; contracts.len()];
    std::thread::scope(|scope| {
        for (requests, out) in contracts.chunks(chunk).zip(prices.chunks_mut(chunk)) {
            scope.spawn(move || {
                let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
                for (request, slot) in requests.iter().zip(out) {
                    *slot = pricer.price_one(request).unwrap_or(f64::NAN);
                }
            });
        }
    });
    prices
}

/// Splits a connection's reply bytes into complete lines.
fn reply_lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes.split_inclusive(|&b| b == b'\n').filter(|l| l.ends_with(b"\n")).collect()
}

/// One open-loop step, analysed: per-request outcome and the step's
/// latency summary.
pub struct Step {
    pub rate: f64,
    pub plan: StreamPlan,
    /// Reply of every scheduled request (`None` = never arrived).
    pub replies: Vec<Option<Reply>>,
    /// Latency from due time, microseconds (drain-end for missing replies).
    pub latency_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub warm_ns: u64,
    pub total_ns: u64,
    /// The schedule's start.
    pub origin: Instant,
    /// CPU seconds the process spent over the whole step, warm-up included.
    pub cpu_s: f64,
}

impl Step {
    /// `(due ns, latency us)` of the measured requests of one class.
    fn samples(&self, tagged: bool) -> Vec<(u64, f64)> {
        (0..self.replies.len())
            .filter(|&k| self.plan.schedule[k].tagged == tagged && self.measured(k))
            .map(|k| (due_ns(k, self.rate), self.latency_us[k]))
            .collect()
    }

    fn measured(&self, k: usize) -> bool {
        (self.warm_ns..self.total_ns).contains(&due_ns(k, self.rate))
    }

    /// The measured part window by window: every answered request counts
    /// towards the window it was answered in; the latencies are the bulk
    /// class's, from the due time.
    pub fn windows(&self) -> Vec<Window> {
        let ops: Vec<(u64, (Option<f64>, u64))> = (0..self.replies.len())
            .filter(|&k| self.measured(k) && self.answered(k))
            .map(|k| {
                let arrived = due_ns(k, self.rate) + (self.latency_us[k] * 1e3) as u64;
                let bulk = !self.plan.schedule[k].tagged;
                (arrived, (bulk.then_some(self.latency_us[k]), 1))
            })
            .collect();
        Window::equal_counts(&ops, self.warm_ns, self.origin)
    }

    /// Median over the windows of one class's window percentile.
    pub fn window_percentile(&self, tagged: bool, p: f64) -> f64 {
        window_median_percentile(&self.samples(tagged), WINDOWS, p)
    }

    fn answered(&self, k: usize) -> bool {
        matches!(self.replies[k], Some(Reply::Price(_)))
    }

    /// Requests of the measured part, and how many of them were answered.
    pub fn measured_counts(&self) -> (u64, u64) {
        let ks: Vec<usize> = (0..self.replies.len()).filter(|&k| self.measured(k)).collect();
        (ks.len() as u64, ks.iter().filter(|&&k| self.answered(k)).count() as u64)
    }

    /// Wall seconds from the first measured due time to the arrival of the
    /// last measured reply.
    pub fn measured_seconds(&self) -> f64 {
        let last_arrival = (0..self.replies.len())
            .filter(|&k| self.measured(k) && self.answered(k))
            .map(|k| due_ns(k, self.rate) as f64 + self.latency_us[k] * 1e3)
            .fold(self.total_ns as f64, f64::max);
        (last_arrival - self.warm_ns as f64) / 1e9
    }

    pub fn failed(&self) -> u64 {
        (0..self.replies.len()).filter(|&k| !self.answered(k)).count() as u64
    }

    /// Share of measured requests answered within the latency limit.
    pub fn slo_share(&self) -> f64 {
        let (sent, _) = self.measured_counts();
        let met = (0..self.replies.len())
            .filter(|&k| self.measured(k) && self.answered(k) && self.latency_us[k] <= SLO_US)
            .count();
        met as f64 / sent.max(1) as f64
    }

    /// Whether the step meets the limit at its rate: window-median p99
    /// inside the limit, at least 99 % answered, and the last window's
    /// median no worse than twice the first's plus a millisecond (a
    /// growing backlog shows as latency that climbs through the step).
    pub fn sustains(&self) -> bool {
        let (sent, answered) = self.measured_counts();
        let windows = split_windows(&self.samples(false), WINDOWS);
        let window_median = |w: Option<&Vec<(u64, f64)>>| {
            median(&w.map(|w| w.iter().map(|s| s.1).collect::<Vec<f64>>()).unwrap_or_default())
        };
        let (first, last) = (window_median(windows.first()), window_median(windows.last()));
        self.window_percentile(false, 99.0) <= SLO_US
            && answered as f64 >= 0.99 * sent as f64
            && last <= 2.0 * first + 1_000.0
    }
}

/// Runs one open-loop step of `seconds` at `rate` against `server`, after
/// making the plan's hot set resident.
fn run_step(server: &QuoteServer, plan: StreamPlan, rate: f64, seconds: f64) -> Step {
    let n = plan.schedule.len();
    // One line per distinct (contract, class), shared by repeats.
    let mut line_of: HashMap<Scheduled, usize> = HashMap::new();
    let mut lines: Vec<Vec<u8>> = Vec::new();
    let index: Vec<usize> = plan
        .schedule
        .iter()
        .map(|&s| {
            *line_of.entry(s).or_insert_with(|| {
                lines.push(plan.line(s));
                lines.len() - 1
            })
        })
        .collect();
    let hot: Vec<Vec<u8>> =
        (0..HOT_SET).map(|c| plan.line(Scheduled { contract: c as u32, tagged: false })).collect();
    pipeline(server.local_addr(), &hot).expect("prime the hot set");

    let line = |k: usize| (lines[index[k]].as_slice(), usize::from(plan.schedule[k].tagged));
    let (log, region) =
        Region::time(|| open_loop(server.local_addr(), n, rate, &line).expect("open-loop run"));
    let log: OpenLoopLog = log;

    let mut replies: Vec<Option<Reply>> = vec![None; n];
    let mut latency_us: Vec<f64> =
        (0..n).map(|k| log.end_ns.saturating_sub(due_ns(k, rate)) as f64 / 1e3).collect();
    for conn in &log.conns {
        for ((&k, reply), &arrived) in
            conn.order.iter().zip(reply_lines(&conn.reply_bytes)).zip(&conn.arrivals)
        {
            let k = k as usize;
            replies[k] = Some(read_reply(reply, plan.schedule[k].contract as u64));
            latency_us[k] = arrived.saturating_sub(due_ns(k, rate)) as f64 / 1e3;
        }
    }
    let late_us = log
        .sent_ns
        .iter()
        .enumerate()
        .map(|(k, &t)| t.saturating_sub(due_ns(k, rate)) as f64 / 1e3)
        .collect();
    let total_ns = (seconds * 1e9) as u64;
    let warm_ns = (total_ns as f64 * WARM_SHARE) as u64;
    Step {
        rate,
        plan,
        replies,
        latency_us,
        late_us,
        warm_ns,
        total_ns,
        origin: log.origin,
        cpu_s: region.cpu_s,
    }
}

fn step_measured(step: &Step) -> Measured {
    let (sent, answered) = step.measured_counts();
    let bulk = step.samples(false).len();
    let mut detail = vec![
        ("tagged_p50_us".to_string(), step.window_percentile(true, 50.0), "us"),
        ("slo_share".to_string(), step.slo_share(), "ratio"),
        ("loadgen_late_p99_us".to_string(), percentile(&step.late_us, 99.0), "us"),
        ("measured_sent".to_string(), sent as f64, "count"),
    ];
    if let Some(p) = crate::stats::highest_supported_percentile(bulk / WINDOWS) {
        detail.push((format!("window_p{p}_us"), step.window_percentile(false, p), "us"));
    }
    Measured {
        attempted: step.replies.len() as u64,
        answered,
        failed: step.failed(),
        elapsed_s: step.measured_seconds(),
        // The measured part's share of the step's CPU time.
        cpu_s: step.cpu_s * (1.0 - WARM_SHARE),
        windows: step.windows(),
        op_samples: bulk,
        detail,
        one_thread: false,
    }
}

/// Checks every `ok` reply of `steps` bitwise against the reference pricer.
fn verify_steps(steps: &[Step]) -> Check {
    let mut check = Check::default();
    for step in steps {
        let reference = reference_prices(&step.plan.contracts);
        for (k, reply) in step.replies.iter().enumerate() {
            let contract = step.plan.schedule[k].contract as usize;
            match reply {
                Some(Reply::Price(p)) => {
                    check.expect(p.to_bits() == reference[contract].to_bits(), || {
                        format!(
                            "request {k} at {} req/s: got {p:e}, want bitwise {:e}",
                            step.rate, reference[contract]
                        )
                    })
                }
                Some(Reply::Refused) => check.expect(false, || format!("request {k} was refused")),
                Some(Reply::Malformed) => {
                    check.expect(false, || format!("request {k} got a malformed reply"))
                }
                None => check.expect(false, || format!("request {k} was never answered")),
            }
        }
    }
    check
}

/// Counter and histogram totals scraped from the server's own exposition.
struct Scrape {
    stats: ServiceStats,
    text: String,
}

impl Scrape {
    fn of(server: &QuoteServer) -> Self {
        Scrape { stats: server.stats(), text: server.metrics_text() }
    }

    fn value(&self, name: &str) -> f64 {
        self.text
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

/// The queue, reactor and memo numbers of a traced pass, from the server's
/// public counters before and after it.
fn service_counters(
    ledger: &mut Ledger,
    before: &Scrape,
    after: &Scrape,
    attempted: u64,
    tagged: u64,
) {
    let (b, a) = (&before.stats, &after.stats);
    let completed = (a.completed - b.completed).max(1) as f64;
    let delta = |name: &str| after.value(name) - before.value(name);
    ledger.set("queue.batch_mean", completed / (a.batches - b.batches).max(1) as f64);
    ledger.set("queue.heap_pops_per_req", (a.heap_pops - b.heap_pops) as f64 / completed);
    ledger.set(
        "queue.deadline_miss_share",
        (a.deadline_misses - b.deadline_misses) as f64 / tagged.max(1) as f64,
    );
    let rejected = (a.rejected_queue_full - b.rejected_queue_full)
        + (a.rejected_inflight - b.rejected_inflight);
    ledger.set("queue.rejected_share", rejected as f64 / attempted.max(1) as f64);
    ledger.set(
        "queue.shed_share",
        (a.shed_by_class.total() - b.shed_by_class.total()) as f64 / attempted.max(1) as f64,
    );
    let mut stage_sum_us = 0.0;
    for stage in amopt_obs::STAGES {
        let name = stage.interval_name();
        let count = delta(&format!("amopt_stage_{name}_nanos_count")).max(1.0);
        let mean_us = delta(&format!("amopt_stage_{name}_nanos_sum")) / count / 1e3;
        ledger.set(&format!("queue.stage_us.{name}"), mean_us);
        stage_sum_us += mean_us;
    }
    let e2e_us = delta("amopt_request_end_to_end_nanos_sum")
        / delta("amopt_request_end_to_end_nanos_count").max(1.0)
        / 1e3;
    ledger.set("queue.stage_coverage", if e2e_us > 0.0 { stage_sum_us / e2e_us } else { 0.0 });
    let wakes = delta("amopt_reactor_events_per_wake_count").max(1.0);
    ledger.set("reactor.events_per_wake", delta("amopt_reactor_events_per_wake_sum") / wakes);
    ledger.set(
        "reactor.loop_iters_per_req",
        (a.reactor.loop_iterations - b.reactor.loop_iterations) as f64 / completed,
    );
    memo_metrics(ledger, &b.memo, &a.memo, completed as u64);
}

/// The same contract a hair away in strike: the same work for the pricer,
/// a different memo key.
fn twin(request: &PricingRequest, nth: f64) -> PricingRequest {
    let mut twin = request.clone();
    twin.params.strike *= 1.0 + nth * 1e-7;
    twin
}

/// Replays `requests` one at a time as span trees: a real window-1 TCP
/// round trip as the root, then — by substitution — the same work decoded,
/// submitted in-process, awaited, priced through a batch pricer and
/// directly, and encoded.  A contract the memo does not hold is replayed
/// as a twin at each level, so every level meets the memo in the state the
/// root met it in.  All with a zero deadline budget so no coalescing timer
/// sits inside the intervals being subtracted; the coalescing delay itself
/// is `queue.rtt_us.default`.
fn replay_requests(
    server: &QuoteServer,
    requests: &[PricingRequest],
    resident: &[PricingRequest],
    tracer: &mut Tracer,
    tally: &mut EngineTally,
) {
    let cfg = EngineConfig::default();
    let client = server.service().client();
    let local = BatchPricer::new(cfg);
    local.price_batch(resident);
    let stream = TcpStream::connect(server.local_addr()).expect("connect for replays");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the replay socket"));
    for (i, request) in requests.iter().enumerate() {
        let iter = i as u64;
        let is_resident = local.memo_peek(request);
        let at_level =
            |level: f64| if is_resident { request.clone() } else { twin(request, level) };
        let mut line = wire::encode_pricing_request_with_deadline(iter, "price", request, 0.0);
        line.push('\n');
        let (root, _) = tracer.span(None, iter, "reactor", "roundtrip", false, || {
            let mut reply = Vec::new();
            (&stream).write_all(line.as_bytes()).expect("send the replayed request");
            reader.read_until(b'\n', &mut reply).expect("read the replayed reply");
        });
        let line = wire::encode_pricing_request_with_deadline(iter, "price", &at_level(1.0), 0.0);
        let (_, (id, decoded)) =
            tracer.span(Some(root), iter, "wire", "decode", true, || wire::decode_request(&line));
        let Ok(wire::WireRequest::Submit(submission, budget)) = decoded else { continue };
        let (_, ticket) = tracer.span(Some(root), iter, "queue", "submit", true, || {
            client.submit_with_deadline(submission, budget)
        });
        let Ok(ticket) = ticket else { continue };
        let (wait, result) = tracer.span(Some(root), iter, "queue", "wait", true, || ticket.wait());
        let through_batch = at_level(2.0);
        let (batch, _) = tracer
            .span(Some(wait), iter, "batch", "price_one", true, || local.price_one(&through_batch));
        if !is_resident {
            replay_engine(tracer, tally, batch, iter, &[at_level(3.0)], &cfg);
        }
        tracer.span(Some(root), iter, "wire", "encode", true, || wire::encode_result(&id, &result));
    }
}

/// Requests sampled for replay out of a traced pass.
const REPLAYS: usize = 200;

pub struct Stream {
    seed: u64,
    server: QuoteServer,
    plan: Option<StreamPlan>,
    steps: Vec<Step>,
}

impl Stream {
    pub fn setup(seed: u64, seconds: f64) -> Self {
        let plan = StreamPlan::new(seed, (RATE * seconds) as usize);
        let server = bind(ServiceConfig::default());
        // The hot set is resident before the clock starts, as in a service
        // that has been quoting this book for a while.
        let hot: Vec<Vec<u8>> = plan.contracts[..HOT_SET]
            .iter()
            .enumerate()
            .map(|(c, r)| request_line(c as u64, r, false))
            .collect();
        pipeline(server.local_addr(), &hot).expect("prime the hot set");
        Stream { seed, server, plan: Some(plan), steps: Vec::new() }
    }

    /// The gated step, on the plan made during set-up (cut to `seconds`
    /// when the traced pass runs a shorter step).
    fn own_step(&mut self, seconds: f64) -> &Step {
        let mut plan = self
            .plan
            .take()
            .unwrap_or_else(|| StreamPlan::new(self.seed, (RATE * seconds) as usize));
        plan.schedule.truncate((RATE * seconds) as usize);
        let step = run_step(&self.server, plan, RATE, seconds);
        self.steps.push(step);
        self.steps.last().expect("just pushed")
    }
}

impl Stream {
    /// Runs one short step at `rate` and returns its index in `steps`.
    fn rung(&mut self, rate: f64, seconds: f64) -> usize {
        let plan = StreamPlan::new(
            self.seed ^ (rate as u64).wrapping_mul(0x9E37_79B9),
            (rate * seconds) as usize,
        );
        self.steps.push(run_step(&self.server, plan, rate, seconds));
        self.steps.len() - 1
    }
}

impl Workload for Stream {
    fn measure(&mut self, seconds: f64) -> Measured {
        step_measured(self.own_step(seconds))
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured {
        let before = Scrape::of(&self.server);
        let step = self.own_step(seconds * 0.4);
        let measured = step_measured(step);
        let tagged = step.plan.schedule.iter().filter(|s| s.tagged).count() as u64;
        let sustained_own = step.sustains();
        ledger.set("queue.tagged_p50_us", step.window_percentile(true, 50.0));
        ledger.set("queue.slo_share", step.slo_share());
        ledger.set("loadgen.late_p99_us", percentile(&step.late_us, 99.0));
        let every = (step.plan.schedule.len() / REPLAYS).max(1);
        let sampled: Vec<PricingRequest> = step
            .plan
            .schedule
            .iter()
            .step_by(every)
            .map(|s| step.plan.contracts[s.contract as usize].clone())
            .collect();
        let resident = step.plan.contracts[..HOT_SET].to_vec();
        let after = Scrape::of(&self.server);
        service_counters(ledger, &before, &after, measured.attempted, tagged);

        let mut tally = EngineTally::default();
        replay_requests(&self.server, &sampled, &resident, tracer, &mut tally);
        tally.report(ledger);

        // The ladder: short steps at the higher rates, each on a plan of its
        // own, climbing past `hi` only while every step so far met the
        // latency limit.
        let rung_seconds = (seconds * 0.12).max(0.5);
        let (mid, hi) = (self.rung(RATE_MID, rung_seconds), self.rung(RATE_HI, rung_seconds));
        let mut passed = vec![
            (RATE, sustained_own),
            (RATE_MID, self.steps[mid].sustains()),
            (RATE_HI, self.steps[hi].sustains()),
        ];
        for rate in LADDER_ABOVE_HI {
            if passed.iter().all(|rung| rung.1) {
                let step = self.rung(rate, rung_seconds);
                passed.push((rate, self.steps[step].sustains()));
            }
        }
        let limit = passed.iter().take_while(|rung| rung.1).last().map_or(0.0, |rung| rung.0);
        ledger.set("reactor.rate_at_limit", limit);
        for (label, step) in [("mid", mid), ("hi", hi)] {
            let step = &self.steps[step];
            ledger.set(&format!("reactor.p50_us.{label}"), step.window_percentile(false, 50.0));
            ledger.set(&format!("reactor.p99_us.{label}"), step.window_percentile(false, 99.0));
        }
        let hi = &self.steps[hi];
        ledger.set("queue.tagged_p50_us.hi", hi.window_percentile(true, 50.0));
        ledger.set("queue.slo_share.hi", hi.slo_share());
        measured
    }

    fn verify(&mut self) -> Check {
        verify_steps(&self.steps)
    }

    fn sample_contracts(&self) -> Vec<PricingRequest> {
        StreamPlan::new(self.seed, 2_560).contracts
    }
}

/// Outcome of one closed-loop run, analysed.
struct Saturation {
    /// `(contract, reply)` of every request sent.
    replies: Vec<(u32, Option<Reply>)>,
    /// `(send ns, latency us)` of every answered request.
    latencies: Vec<(u64, f64)>,
    /// The clients' common start.
    origin: Instant,
    region: Region,
}

fn saturate(server: &QuoteServer, lines: &[Vec<u8>], seconds: f64) -> Saturation {
    let clients = crate::sys::nproc();
    // Client c walks the contracts ≡ c (mod clients): no contract is asked
    // for twice within a walk of the whole book.
    let requests = |c: usize, j: usize| {
        let contract = (j * clients + c) % lines.len();
        (contract as u32, lines[contract].as_slice())
    };
    let ((origin, logs), region) = Region::time(|| {
        closed_loop(server.local_addr(), clients, PIPELINE_DEPTH, seconds, &requests)
            .expect("closed-loop run")
    });
    let logs: Vec<ClientLog> = logs;
    let mut run = Saturation { replies: Vec::new(), latencies: Vec::new(), origin, region };
    for log in &logs {
        let lines = reply_lines(&log.reply_bytes);
        for (j, &contract) in log.order.iter().enumerate() {
            let reply = lines.get(j).map(|l| read_reply(l, contract as u64));
            if let (Some(Reply::Price(_)), Some(&done)) = (reply, log.done_ns.get(j)) {
                run.latencies
                    .push((log.sent_ns[j], done.saturating_sub(log.sent_ns[j]) as f64 / 1e3));
            }
            run.replies.push((contract, reply));
        }
    }
    run
}

pub struct Saturate {
    server: QuoteServer,
    book: Vec<PricingRequest>,
    lines: Vec<Vec<u8>>,
    runs: Vec<Saturation>,
}

impl Saturate {
    pub fn setup(seed: u64) -> Self {
        let book = chain_book(seed, BOOK_UNDERLYINGS);
        let lines =
            book.iter().enumerate().map(|(i, r)| request_line(i as u64, r, false)).collect();
        let server = bind(ServiceConfig::default());
        let saturate = Saturate { server, book, lines, runs: Vec::new() };
        // One underlying's chain through the front door: connection,
        // workers, pool and FFT plans have all been used once.
        pipeline(saturate.server.local_addr(), &saturate.lines[saturate.lines.len() - 64..])
            .expect("prime the service");
        saturate
    }

    fn summarise(run: &Saturation) -> Measured {
        let answered = run.latencies.len() as u64;
        let ops: Vec<(u64, (Option<f64>, u64))> = run
            .latencies
            .iter()
            .map(|&(sent, us)| (sent + (us * 1e3) as u64, (Some(us), 1)))
            .collect();
        let mut detail = Vec::new();
        if let Some(p) = crate::stats::highest_supported_percentile(run.latencies.len() / WINDOWS) {
            detail.push((
                format!("window_p{p}_us"),
                window_median_percentile(&run.latencies, WINDOWS, p),
                "us",
            ));
        }
        Measured {
            attempted: run.replies.len() as u64,
            answered,
            failed: run.replies.len() as u64 - answered,
            elapsed_s: run.region.elapsed_s,
            cpu_s: run.region.cpu_s,
            windows: Window::equal_counts(&ops, 0, run.origin),
            op_samples: run.latencies.len(),
            detail,
            one_thread: false,
        }
    }
}

impl Workload for Saturate {
    fn measure(&mut self, seconds: f64) -> Measured {
        self.runs.push(saturate(&self.server, &self.lines, seconds));
        Self::summarise(self.runs.last().expect("just pushed"))
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured {
        let before = Scrape::of(&self.server);
        let pass = seconds * 0.3;
        self.runs.push(saturate(&self.server, &self.lines, pass));
        let measured = Self::summarise(self.runs.last().expect("just pushed"));
        let after = Scrape::of(&self.server);
        service_counters(ledger, &before, &after, measured.attempted, 0);
        ledger.set("queue.slo_share", {
            let met = self
                .runs
                .last()
                .map_or(0, |r| r.latencies.iter().filter(|l| l.1 <= SLO_US).count());
            met as f64 / measured.attempted.max(1) as f64
        });

        let mut tally = EngineTally::default();
        let every = (self.book.len() / REPLAYS).max(1);
        let sampled: Vec<PricingRequest> = self.book.iter().step_by(every).cloned().collect();
        replay_requests(&self.server, &sampled, &[], tracer, &mut tally);
        tally.report(ledger);

        // Tracing off against tracing on, paired on fresh servers: what the
        // per-request trace cards cost at saturation.
        let paired = (seconds * 0.12).max(0.5);
        let mut throughput = |trace: bool| {
            let server = bind(ServiceConfig { trace, ..ServiceConfig::default() });
            pipeline(server.local_addr(), &self.lines[self.lines.len() - 64..])
                .expect("prime the paired server");
            let run = saturate(&server, &self.lines, paired);
            let rate = run.latencies.len() as f64 / run.region.elapsed_s;
            server.shutdown();
            self.runs.push(run);
            rate
        };
        let (off, on) = (throughput(false), throughput(true));
        ledger.set("obs.trace_cost", if on > 0.0 { off / on } else { 0.0 });
        measured
    }

    fn verify(&mut self) -> Check {
        let reference = reference_prices(&self.book);
        let mut check = Check::default();
        for run in &self.runs {
            for (contract, reply) in &run.replies {
                match reply {
                    Some(Reply::Price(p)) => {
                        check.expect(p.to_bits() == reference[*contract as usize].to_bits(), || {
                            format!(
                                "contract {contract}: got {p:e}, want bitwise {:e}",
                                reference[*contract as usize]
                            )
                        })
                    }
                    Some(Reply::Refused) => {
                        check.expect(false, || format!("contract {contract} was refused"))
                    }
                    Some(Reply::Malformed) => {
                        check.expect(false, || format!("contract {contract} got a malformed reply"))
                    }
                    None => {
                        check.expect(false, || format!("contract {contract} was never answered"))
                    }
                }
            }
        }
        check
    }

    fn sample_contracts(&self) -> Vec<PricingRequest> {
        self.book.iter().step_by(16).cloned().collect()
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

impl Drop for Saturate {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}
