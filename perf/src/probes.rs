//! Fixed-size probes of each layer's public functions: the part of the
//! per-layer ledger that does not depend on the workload.  Every probe is
//! one span-like timing around one call (or a counted loop of calls) into
//! the layer, at sizes that are constants of the benchmark.

use crate::alloc::counted;
use crate::gen::{request_line, FreshContracts, ROUTES};
use crate::ledger::Ledger;
use crate::loadgen::closed_loop;
use crate::stats::{loglog_slope, median};
use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest};
use amopt_core::{EngineConfig, OptionParams, OptionType};
use amopt_fft::{correlate_power_valid_with, Complex64, Fft, FftScratch};
use amopt_service::wire::{self, LineAssembler};
use amopt_service::{QuoteServer, QuoteService, ServiceConfig, ServiceRequest, ServiceResponse};
use amopt_stencil::{advance, with_scratch, Backend, Segment, StencilKernel};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Row length and heights of the large linear-advance probes: the sizes a
/// T = 65 536 lattice hands the stencil layer at its top level (two-tap
/// kernel: 64k steps; three-tap: 32k steps, the same power-kernel length).
pub const DEEP_L: usize = 1 << 18;
pub const DEEP_H2: u64 = 1 << 16;
pub const DEEP_H3: u64 = 1 << 15;
const SMALL_L: usize = 1 << 12;
const SMALL_H: u64 = 1 << 10;

const TWO_TAP: [f64; 2] = [0.49, 0.5];
const THREE_TAP: [f64; 3] = [0.3, 0.35, 0.3];

/// Median nanoseconds per call of `f`: calls it in counted loops of
/// `inner` until `budget` is spent (at least three loops).
fn ns_per_call<R>(budget: Duration, inner: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..inner {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / inner as f64);
    }
    median(&samples)
}

fn noise(n: usize, stream: u64) -> Vec<f64> {
    let mut rng = crate::rng::Rng::new(0x5EED, stream);
    (0..n).map(|_| rng.unit()).collect()
}

/// Runs every fixed probe.  `scale` stretches the per-probe time budgets
/// (1.0 for a ten-second run).
pub fn run_all(ledger: &mut Ledger, seed: u64, scale: f64) {
    let budget = |ms: f64| Duration::from_secs_f64(ms * scale / 1e3);
    fft(ledger, &budget);
    stencil(ledger, &budget);
    parallel(ledger, &budget);
    exponent(ledger, seed);
    memo(ledger, seed, &budget);
    codec(ledger, seed, &budget);
    queue(ledger, seed, &budget);
    reactor(ledger, seed, &budget);
    obs(ledger, &budget);
}

fn fft(ledger: &mut Ledger, budget: &dyn Fn(f64) -> Duration) {
    for (label, n, inner) in
        [("n1k", 1usize << 10, 64usize), ("n16k", 1 << 14, 4), ("n256k", 1 << 18, 1)]
    {
        let plan = amopt_fft::plan(n);
        let mut buf: Vec<Complex64> = noise(n, 30).into_iter().map(Complex64::from).collect();
        // Forward then inverse keeps the values bounded; only the forward
        // transform is on the clock.
        let mut forward_ns = Vec::new();
        let start = Instant::now();
        while forward_ns.len() < 3 * inner || start.elapsed() < budget(40.0) {
            let t = Instant::now();
            plan.forward(&mut buf);
            forward_ns.push(t.elapsed().as_nanos() as f64);
            plan.inverse(&mut buf);
        }
        ledger.set(&format!("fft.fwd_ns_per_pt.{label}"), median(&forward_ns) / n as f64);
    }
    ledger.set("fft.plan_hit_ns", ns_per_call(budget(20.0), 1_000, || amopt_fft::plan(1 << 10)));
    ledger.set("fft.plan_build_us.n256k", ns_per_call(budget(60.0), 1, || Fft::new(DEEP_L)) / 1e3);

    let mut scratch = FftScratch::default();
    let small = noise(SMALL_L, 31);
    let large = noise(DEEP_L, 32);
    ledger.set(
        "fft.correlate_us.n4k_h1k",
        ns_per_call(budget(40.0), 1, || {
            correlate_power_valid_with(&small, &TWO_TAP, SMALL_H, &mut scratch)
        }) / 1e3,
    );
    let (_, allocs, _) =
        counted(|| black_box(correlate_power_valid_with(&small, &TWO_TAP, SMALL_H, &mut scratch)));
    ledger.set("fft.allocs_per_correlate", allocs as f64);
    ledger.set(
        "fft.correlate3_us.n256k_h32k",
        ns_per_call(budget(100.0), 1, || {
            correlate_power_valid_with(&large, &THREE_TAP, DEEP_H3, &mut scratch)
        }) / 1e3,
    );
    let (flops, bytes) = correlate_cost(DEEP_L, TWO_TAP.len(), DEEP_H2);
    ledger.set("fft.correlate_flops.n256k_h64k", flops);
    ledger.set("fft.correlate_bytes.n256k_h64k", bytes);
}

/// Operation count and bytes moved of one `correlate_power_valid` call,
/// **computed from the sizes** (not measured): two radix-2 complex
/// transforms of 5·n·log₂n flops each; the kernel spectrum at 4 flops per
/// tap per point; one polar power (counted as 8) and one complex multiply
/// (6) per point.  Bytes: every transform pass reads and writes the 16-byte
/// points once, plus the spectrum write, the multiply pass, the real input
/// and the real output.  Cache misses are not in this number.
pub fn correlate_cost(len: usize, taps: usize, h: u64) -> (f64, f64) {
    let n = len.next_power_of_two() as f64;
    let log2n = n.log2();
    let out = len + 1 - amopt_fft::power_kernel_len(taps, h);
    let flops = 2.0 * 5.0 * n * log2n + n * (4.0 * taps as f64 + 8.0 + 6.0);
    let bytes = 2.0 * log2n * 32.0 * n + 16.0 * n + 48.0 * n + 8.0 * len as f64 + 8.0 * out as f64;
    (flops, bytes)
}

fn stencil(ledger: &mut Ledger, budget: &dyn Fn(f64) -> Duration) {
    let kernel = StencilKernel::new(TWO_TAP.to_vec(), 0);
    let small = Segment::new(0, noise(SMALL_L, 33));
    let large = Segment::new(0, noise(DEEP_L, 34));
    ledger.set(
        "stencil.advance_us.L4k_h1k",
        ns_per_call(budget(40.0), 1, || advance(&small, &kernel, SMALL_H, Backend::Fft)) / 1e3,
    );
    let (_, allocs, _) = counted(|| black_box(advance(&small, &kernel, SMALL_H, Backend::Fft)));
    ledger.set("stencil.allocs_per_advance", allocs as f64);
    // The advance and the correlation inside it, alternately, so a slow
    // spell of the machine lands on both sides of the ratio.
    let mut scratch = FftScratch::default();
    let (mut advance_ns, mut correlate_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while advance_ns.len() < 3 || start.elapsed() < budget(250.0) {
        let t = Instant::now();
        black_box(advance(&large, &kernel, DEEP_H2, Backend::Fft));
        advance_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(correlate_power_valid_with(&large.values, &TWO_TAP, DEEP_H2, &mut scratch));
        correlate_ns.push(t.elapsed().as_nanos() as f64);
    }
    ledger.set("stencil.advance_us.L256k_h64k", median(&advance_ns) / 1e3);
    ledger.set("fft.correlate_us.n256k_h64k", median(&correlate_ns) / 1e3);
    ledger.set(
        "stencil.self_share.L256k_h64k",
        (1.0 - median(&correlate_ns) / median(&advance_ns)).max(0.0),
    );
    let (_, _, bytes) = counted(|| black_box(advance(&large, &kernel, DEEP_H2, Backend::Fft)));
    ledger.set("stencil.alloc_bytes_per_advance.L256k_h64k", bytes as f64);
    ledger.set(
        "stencil.scratch_checkout_ns",
        ns_per_call(budget(20.0), 1_000, || with_scratch(|s| s.staging.len())),
    );
}

fn parallel(ledger: &mut Ledger, budget: &dyn Fn(f64) -> Duration) {
    ledger.set(
        "parallel.join_ns",
        ns_per_call(budget(40.0), 8, || amopt_parallel::join(|| black_box(1), || black_box(2))),
    );
    ledger.set(
        "parallel.map_ns_per_item.n4096",
        ns_per_call(budget(40.0), 1, || amopt_parallel::parallel_map(4_096, 1, |i| i)) / 4_096.0,
    );
    ledger.set("parallel.threads", amopt_parallel::current_num_threads() as f64);
}

/// One-thread seconds of one direct pricing.
fn one_thread_seconds(request: &PricingRequest, cfg: &EngineConfig) -> f64 {
    let t = Instant::now();
    black_box(amopt_parallel::run_with_threads(1, || crate::workloads::price_direct(request, cfg)));
    t.elapsed().as_secs_f64()
}

/// The paper's claim as a number: the log-log slope of one-thread pricing
/// time over T = 2¹⁰, 2¹², 2¹⁴ (T log² T reads about 1.2 there; a Θ(T²)
/// nest reads 2).
fn exponent(ledger: &mut Ledger, seed: u64) {
    let cfg = EngineConfig::default();
    let params = crate::gen::deep_contract(seed);
    for route in &ROUTES {
        let points: Vec<(f64, f64)> = [(1usize << 10, 3), (1 << 12, 2), (1 << 14, 1)]
            .iter()
            .map(|&(steps, reps)| {
                let request = route.request(params, steps);
                let best = (0..reps)
                    .map(|_| one_thread_seconds(&request, &cfg))
                    .fold(f64::INFINITY, f64::min);
                (steps as f64, best)
            })
            .collect();
        ledger.set(&format!("engine.exponent.{}", route.name), loglog_slope(&points));
    }
}

/// The engine layer at the workload's lattice size: one-thread time per
/// route and what the default pool makes of it.
pub fn engine_at(ledger: &mut Ledger, seed: u64, steps: usize, scale: f64) {
    let cfg = EngineConfig::default();
    let params = crate::gen::deep_contract(seed);
    ledger.set("engine.steps", steps as f64);
    for route in &ROUTES {
        let request = route.request(params, steps);
        let budget = Duration::from_secs_f64(0.03 * scale);
        let single = ns_per_call(budget, 1, || {
            amopt_parallel::run_with_threads(1, || crate::workloads::price_direct(&request, &cfg))
        });
        let pooled = ns_per_call(budget, 1, || crate::workloads::price_direct(&request, &cfg));
        ledger.set(&format!("engine.t1_us.{}", route.name), single / 1e3);
        ledger.set(&format!("engine.par_speedup.{}", route.name), single / pooled);
    }
}

/// A contract so small that pricing it costs next to nothing: what is left
/// of a batch call is the batch layer itself.
fn tiny(i: usize) -> PricingRequest {
    let params = OptionParams { strike: 100.0 + i as f64 * 0.01, ..OptionParams::paper_defaults() };
    PricingRequest::european(ModelKind::Bopm, OptionType::Call, params, 1)
}

fn memo(ledger: &mut Ledger, seed: u64, budget: &dyn Fn(f64) -> Duration) {
    let cfg = EngineConfig::default();
    let resident = FreshContracts::new(seed, 40).draw();
    let pricer = BatchPricer::new(cfg);
    pricer.price_one(&resident).expect("generated contract prices");
    ledger.set("batch.memo_hit_ns", ns_per_call(budget(20.0), 256, || pricer.price_one(&resident)));
    // Publishing: the same 256 near-free contracts through a fresh pricer
    // with and without a memo; the difference is probe-miss plus publish.
    let batch: Vec<PricingRequest> = (0..256).map(tiny).collect();
    let with = ns_per_call(budget(30.0), 1, || BatchPricer::new(cfg).price_batch(&batch));
    let without = ns_per_call(budget(30.0), 1, || {
        BatchPricer::with_memo_capacity(cfg, 0).price_batch(&batch)
    });
    ledger.set("batch.memo_publish_ns", ((with - without) / batch.len() as f64).max(0.0));
    // What one thread's `price_batch` adds per request over a plain loop of
    // the direct pricer calls, on contracts whose pricing is next to free —
    // on real lattices the difference drowns in the pricing's own noise.
    let book: Vec<PricingRequest> = (0..4_096).map(tiny).collect();
    let cold = BatchPricer::with_memo_capacity(cfg, 0);
    let batched = ns_per_call(budget(40.0), 1, || {
        amopt_parallel::run_with_threads(1, || cold.price_batch(&book))
    });
    let direct = ns_per_call(budget(40.0), 1, || {
        book.iter()
            .map(|r| {
                let model =
                    amopt_core::bopm::BopmModel::new(r.params, r.steps).expect("tiny contract");
                amopt_core::bopm::european::price_european_fft(&model, r.option_type)
            })
            .sum::<f64>()
    });
    ledger.set("batch.overhead_us_per_req", (batched - direct) / book.len() as f64 / 1e3);
}

/// The batch layer on the workload's own contracts: what the pool makes of
/// the fan-out, and the cost of deduplicating repeats.
pub fn batch_on(ledger: &mut Ledger, contracts: &[PricingRequest], seed: u64) {
    if contracts.is_empty() {
        return;
    }
    let cfg = EngineConfig::default();
    let best_of = |f: &mut dyn FnMut()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let cold = BatchPricer::with_memo_capacity(cfg, 0);
    let batched = best_of(&mut || {
        amopt_parallel::run_with_threads(1, || {
            black_box(cold.price_batch(contracts));
        })
    });
    let pooled = best_of(&mut || {
        black_box(cold.price_batch(contracts));
    });
    ledger.set("batch.fanout_speedup", batched / pooled);
    // The contracts eight times over, shuffled, through a memo that already
    // holds them all: dedup and probe, no pricing.
    let warm = BatchPricer::with_memo_capacity(cfg, 2 * contracts.len());
    warm.price_batch(contracts);
    let mut repeated: Vec<PricingRequest> =
        (0..8).flat_map(|_| contracts.iter().cloned()).collect();
    crate::rng::Rng::new(seed, 41).shuffle(&mut repeated);
    let dedup = best_of(&mut || {
        black_box(warm.price_batch(&repeated));
    });
    ledger.set("batch.dedup_ns_per_req", dedup / repeated.len() as f64 * 1e9);
}

fn codec(ledger: &mut Ledger, seed: u64, budget: &dyn Fn(f64) -> Duration) {
    let contracts = FreshContracts::new(seed, 42).take(256);
    let lines: Vec<String> = contracts
        .iter()
        .enumerate()
        .map(|(i, r)| wire::encode_pricing_request(i as u64, "price", r))
        .collect();
    let per_line = lines.len() as f64;
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    ledger.set("wire.request_bytes_mean", bytes as f64 / per_line);
    let decode = ns_per_call(budget(30.0), 1, || {
        lines.iter().map(|l| wire::decode_request(l).1.is_ok()).filter(|ok| *ok).count()
    });
    ledger.set("wire.decode_ns_per_line", decode / per_line);
    let parse =
        ns_per_call(budget(30.0), 1, || lines.iter().filter(|l| wire::parse(l).is_ok()).count());
    ledger.set("wire.parse_mb_per_s", (bytes - lines.len()) as f64 / parse * 1e3);
    let reply = Ok(ServiceResponse::Price(8.327_021_364_440_658));
    ledger.set(
        "wire.encode_ns_per_reply",
        ns_per_call(budget(20.0), 256, || wire::encode_result("17", &reply)),
    );
    let stream: Vec<u8> =
        lines.iter().flat_map(|l| l.bytes().chain(std::iter::once(b'\n'))).collect();
    let drain = |assembler: &mut LineAssembler| {
        let mut n = 0;
        while let Some(line) = assembler.next_line() {
            n += usize::from(line.is_ok());
        }
        n
    };
    let whole = ns_per_call(budget(30.0), 1, || {
        let mut assembler = LineAssembler::new();
        assembler.push(&stream);
        drain(&mut assembler)
    });
    ledger.set("wire.assemble_ns_per_line", whole / per_line);
    let split = ns_per_call(budget(30.0), 1, || {
        let mut assembler = LineAssembler::new();
        let mut n = 0;
        for byte in stream.chunks(1) {
            assembler.push(byte);
            n += drain(&mut assembler);
        }
        n
    });
    ledger.set("wire.assemble_split_ns_per_line", split / per_line);
}

fn queue(ledger: &mut Ledger, seed: u64, budget: &dyn Fn(f64) -> Duration) {
    let service =
        QuoteService::start(ServiceConfig::default()).expect("start the in-process service");
    let client = service.client();
    let resident = FreshContracts::new(seed, 43).draw();
    let request = || ServiceRequest::Price(resident.clone());
    client.call(request()).expect("prime the in-process service");

    // Submit alone: a burst of 512 submissions on the clock, their tickets
    // awaited off it.
    let mut submit_ns = Vec::new();
    let start = Instant::now();
    while submit_ns.len() < 3 || start.elapsed() < budget(40.0) {
        let requests: Vec<ServiceRequest> = (0..512).map(|_| request()).collect();
        let t = Instant::now();
        let tickets: Vec<_> = requests.into_iter().map(|r| client.submit(r)).collect();
        submit_ns.push(t.elapsed().as_nanos() as f64 / 512.0);
        for ticket in tickets {
            ticket.expect("submission accepted").wait().expect("resident contract prices");
        }
    }
    ledger.set("queue.submit_ns", median(&submit_ns));
    let tight = ns_per_call(budget(40.0), 1, || {
        client.submit_with_deadline(request(), Some(Duration::ZERO)).expect("accepted").wait()
    });
    ledger.set("queue.rtt_us.tight", tight / 1e3);
    ledger
        .set("queue.rtt_us.default", ns_per_call(budget(50.0), 1, || client.call(request())) / 1e3);

    // In-process closed loop: one caller per core, 64 tickets in flight.
    let seconds = budget(200.0).as_secs_f64();
    let start = Instant::now();
    let answered: usize = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..crate::sys::nproc())
            .map(|_| {
                let client = service.client();
                let request = &request;
                scope.spawn(move || {
                    let mut done = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let tickets: Vec<_> =
                            (0..64).filter_map(|_| client.submit(request()).ok()).collect();
                        done += tickets
                            .into_iter()
                            .filter(|_| true)
                            .map(|t| t.wait())
                            .filter(Result::is_ok)
                            .count();
                    }
                    done
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller thread panicked")).sum()
    });
    ledger.set("queue.inproc_options_per_s", answered as f64 / start.elapsed().as_secs_f64());
    service.shutdown();
}

fn reactor(ledger: &mut Ledger, seed: u64, budget: &dyn Fn(f64) -> Duration) {
    let server =
        QuoteServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind the probe server");
    let addr = server.local_addr();
    let resident = FreshContracts::new(seed, 44).draw();
    let mut tight = wire::encode_pricing_request_with_deadline(1, "price", &resident, 0.0);
    tight.push('\n');
    let stream = TcpStream::connect(addr).expect("connect to the probe server");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the probe socket"));
    let mut reply = Vec::new();
    let mut roundtrip = || {
        reply.clear();
        (&stream).write_all(tight.as_bytes()).expect("send the probe request");
        reader.read_until(b'\n', &mut reply).expect("read the probe reply");
        reply.len()
    };
    roundtrip();
    let rtt_us = ns_per_call(budget(60.0), 1, &mut roundtrip) / 1e3;
    ledger.set("reactor.rtt_us.tight", rtt_us);
    ledger.set("reactor.overhead_us", rtt_us - ledger.get("queue.rtt_us.tight"));
    ledger.set(
        "reactor.conn_setup_us",
        ns_per_call(budget(30.0), 1, || TcpStream::connect(addr).map(drop)) / 1e3,
    );
    // The front end alone: a 256-deep pipeline of one resident contract, so
    // every line is codec, reactor, queue and a memo hit.
    let line = request_line(2, &resident, false);
    let seconds = budget(200.0).as_secs_f64();
    let (start, logs) = closed_loop(addr, 1, 256, seconds, &|_, _| (2, line.as_slice()))
        .expect("front-end pipeline");
    let answered: usize = logs.iter().map(|l| l.done_ns.len()).sum();
    ledger.set("reactor.front_lines_per_s", answered as f64 / start.elapsed().as_secs_f64());
    server.shutdown();
}

fn obs(ledger: &mut Ledger, budget: &dyn Fn(f64) -> Duration) {
    let histogram = amopt_obs::Histogram::detached();
    let mut v = 1u64;
    ledger.set(
        "obs.record_ns",
        ns_per_call(budget(20.0), 1_000, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(v >> 40)
        }),
    );
    // A card started and stamped through its seven stages, per stamp.
    let card_ns = ns_per_call(budget(20.0), 256, || {
        let card = amopt_obs::RequestTrace::start();
        for stage in amopt_obs::STAGES {
            card.stamp(stage);
        }
        card.finish()
    });
    ledger.set("obs.stamp_ns", card_ns / amopt_obs::STAGE_COUNT as f64);
    let journal = amopt_obs::Journal::new(4_096);
    let event = amopt_obs::Event::new(amopt_obs::EventKind::Trace, &[1, 2, 3]);
    ledger.set("obs.journal_push_ns", ns_per_call(budget(20.0), 1_000, || journal.push(&event)));
}
