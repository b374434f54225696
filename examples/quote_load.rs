//! `quote_load` — load generator for a running `quote_server`.
//!
//! Opens `conns` TCP connections, keeps a `window`-deep pipeline of price
//! requests on each (a deterministic dedup-heavy book), and reports
//! throughput, latency percentiles, and error counts.  Overloaded
//! responses are counted separately — under deliberate over-capacity they
//! are the service working as designed, not a failure.
//!
//! ```sh
//! cargo run --release --example quote_server -- serve 127.0.0.1:7878 &
//! cargo run --release --example quote_load -- 127.0.0.1:7878 2048 4 16
//! #                                            addr          n    conns window
//!
//! # Reactor-scale run: window 0 is open-loop (each connection writes its
//! # whole share, then reads every reply), idle parks 1000 extra silent
//! # connections on the server, and every 4th *connection* becomes a
//! # sparse deadline class with a 1 ms budget per request — the EDF
//! # scheduler should give that class a visibly better p50/p99 than the
//! # bulk connections:
//! cargo run --release --example quote_load -- 127.0.0.1:7878 2048 64 0 1000 4 1
//! #                                            addr          n  conns w idle every ms
//! ```
//!
//! Deadlines are per *connection*, not per request: replies on one
//! connection resolve in request order (wire compatibility), so an urgent
//! request sharing a connection with bulk traffic would wait behind the
//! bulk replies regardless of how the EDF queue ordered the work.
//! Latency-sensitive traffic gets its own connections here, as it should
//! in production.  Deadline connections also carry 1/16th of a bulk
//! connection's volume: the fair-share drain gives every queued client an
//! equal per-batch allocation, so a class only jumps the backlog while
//! its volume sits below that allocation — a flooding "urgent" client
//! degrades to fair sharing by design.  For the budget to mean anything
//! it must also be tighter than the server's `max_wait` (default 2 ms),
//! which is the implicit deadline of every untagged request.
//!
//! Open-loop mode leans on the reactor's non-blocking write buffering: a
//! connection at its in-flight cap is paced, never rejected.  Exits
//! non-zero on protocol-level failures (parse errors, disconnects, pricing
//! errors on the valid book) — overload shedding alone never fails the run.

use american_option_pricing::prelude::*;
use american_option_pricing::service::wire;
use std::collections::HashMap;
use std::time::Instant;

fn book(n: usize, steps: usize) -> Vec<PricingRequest> {
    let base = OptionParams::paper_defaults();
    (0..n)
        .map(|i| {
            let params = OptionParams { strike: 90.0 + (i % 64) as f64, ..base };
            PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, steps)
        })
        .collect()
}

#[derive(Default)]
struct ConnReport {
    /// `(latency_us, had_deadline_budget)` per priced reply.
    latencies_us: Vec<(f64, bool)>,
    priced: usize,
    overloaded: usize,
    failures: usize,
}

struct LoadConfig {
    n: usize,
    conns: usize,
    /// Pipeline depth; 0 = open-loop (write everything, then read).
    window: usize,
    /// Extra connections parked idle for the whole run.
    idle: usize,
    /// Every `deadline_every`-th connection sends all its requests with a
    /// deadline budget (0 = never).
    deadline_every: usize,
    deadline_ms: f64,
}

fn drive_conn(
    addr: &str,
    cfg: &LoadConfig,
    base_id: usize,
    slice: &[PricingRequest],
    tagged: bool,
) -> ConnReport {
    let mut client = TcpQuoteClient::connect(addr).expect("connect to quote_server");
    let mut report = ConnReport::default();
    // Replies on one connection may be reordered across batches, so
    // latency attribution keys on the wire id, not FIFO order.
    let mut sent_at: HashMap<u64, (Instant, bool)> = HashMap::new();
    let window = if cfg.window == 0 { usize::MAX } else { cfg.window };
    let mut next = 0usize;
    let mut done = 0usize;
    while done < slice.len() {
        while next < slice.len() && sent_at.len() < window {
            let id = (base_id + next) as u64;
            let line = if tagged {
                wire::encode_pricing_request_with_deadline(
                    id,
                    "price",
                    &slice[next],
                    cfg.deadline_ms,
                )
            } else {
                wire::encode_pricing_request(id, "price", &slice[next])
            };
            client.send(&line).expect("send");
            sent_at.insert(id, (Instant::now(), tagged));
            next += 1;
        }
        let Ok(reply) = client.recv() else {
            report.failures += slice.len() - done;
            break;
        };
        done += 1;
        match wire::parse(&reply) {
            Ok(doc) => {
                let id = doc.get("id").and_then(wire::JsonValue::as_f64).unwrap_or(-1.0) as u64;
                let sent = sent_at.remove(&id);
                match doc.get("ok") {
                    Some(wire::JsonValue::Bool(true)) => {
                        report.priced += 1;
                        if let Some((t, tagged)) = sent {
                            report.latencies_us.push((t.elapsed().as_secs_f64() * 1e6, tagged));
                        }
                    }
                    _ if doc.get("kind").and_then(wire::JsonValue::as_str)
                        == Some("overloaded") =>
                    {
                        report.overloaded += 1;
                    }
                    _ => {
                        eprintln!("failure response: {reply}");
                        report.failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("unparseable response ({e}): {reply}");
                report.failures += 1;
            }
        }
    }
    report
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }
}

fn print_class(label: &str, mut us: Vec<f64>) {
    us.sort_by(f64::total_cmp);
    println!(
        "  {label} latency us: n {}  p50 {:.0}  p90 {:.0}  p99 {:.0}  max {:.0}",
        us.len(),
        percentile(&us, 0.5),
        percentile(&us, 0.9),
        percentile(&us, 0.99),
        percentile(&us, 1.0)
    );
}

/// Scrapes the server's `metrics` exposition and prints the per-stage
/// latency table the trace subsystem aggregates — where traced requests
/// actually spent their time, as the *server* measured it (complementing
/// the client-side round-trip percentiles above).  Quantiles come from the
/// log2 histogram buckets, so they are upper-bound estimates.  Quietly does
/// nothing if the server has already gone away.
fn print_stage_breakdown(addr: &str) {
    const STAGES: [&str; 7] =
        ["parse", "admit", "queue_wait", "batch_form", "memo_probe", "execute", "reply_write"];
    let Ok(mut client) = TcpQuoteClient::connect(addr) else { return };
    if client.send("{\"id\":0,\"op\":\"metrics\"}").is_err() {
        return;
    }
    let Ok(reply) = client.recv() else { return };
    let Some(text) = wire::parse(&reply)
        .ok()
        .and_then(|d| d.get("text").and_then(wire::JsonValue::as_str).map(str::to_string))
    else {
        return;
    };
    println!("  per-stage breakdown (server-side, from traced requests):");
    println!(
        "    {:<12} {:>9} {:>10} {:>10} {:>10}",
        "stage", "count", "mean us", "~p50 us", "~p99 us"
    );
    for stage in STAGES {
        let base = format!("amopt_stage_{stage}_nanos");
        let scalar = |suffix: &str| -> f64 {
            let prefix = format!("{base}{suffix} ");
            text.lines()
                .find(|l| l.starts_with(&prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        let count = scalar("_count");
        let sum = scalar("_sum");
        let bucket_prefix = format!("{base}_bucket{{le=\"");
        let buckets: Vec<(f64, f64)> = text
            .lines()
            .filter(|l| l.starts_with(&bucket_prefix))
            .filter_map(|l| {
                let le = l.split("le=\"").nth(1)?.split('"').next()?;
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
                Some((le, l.rsplit(' ').next()?.parse().ok()?))
            })
            .collect();
        let quantile = |q: f64| -> f64 {
            let target = (q * count).ceil().max(1.0);
            buckets.iter().find(|&&(_, cum)| cum >= target).map(|&(le, _)| le).unwrap_or(f64::NAN)
        };
        if count == 0.0 {
            println!("    {:<12} {:>9} {:>10} {:>10} {:>10}", stage, 0, "-", "-", "-");
        } else {
            println!(
                "    {:<12} {:>9} {:>10.1} {:>10.1} {:>10.1}",
                stage,
                count,
                sum / count / 1e3,
                quantile(0.5) / 1e3,
                quantile(0.99) / 1e3
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args.first().cloned() else {
        eprintln!(
            "usage: quote_load <addr> [n] [conns] [window] [idle] [deadline_every] [deadline_ms]"
        );
        std::process::exit(2);
    };
    let arg = |i: usize, default: f64| args.get(i).and_then(|v| v.parse().ok()).unwrap_or(default);
    let cfg = LoadConfig {
        n: arg(1, 2048.0) as usize,
        conns: (arg(2, 4.0) as usize).max(1),
        window: arg(3, 16.0) as usize,
        idle: arg(4, 0.0) as usize,
        deadline_every: arg(5, 0.0) as usize,
        deadline_ms: arg(6, 1.0),
    };
    let requests = book(cfg.n, 252);

    // Park the idle herd first: it must not disturb the measured drivers.
    let parked: Vec<std::net::TcpStream> = (0..cfg.idle)
        .map(|i| {
            std::net::TcpStream::connect(&*addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}"))
        })
        .collect();

    // Weighted partition: a deadline connection carries 1/16th of a bulk
    // connection's volume, keeping the urgent class below its fair-share
    // allocation (see the module docs for why that is the point).
    let tagged_of = |w: usize| cfg.deadline_every > 0 && w.is_multiple_of(cfg.deadline_every);
    let weights: Vec<usize> = (0..cfg.conns).map(|w| if tagged_of(w) { 1 } else { 16 }).collect();
    let total_weight: usize = weights.iter().sum();
    let mut slices: Vec<(usize, &[PricingRequest])> = Vec::new();
    let mut at = 0usize;
    for (w, &wt) in weights.iter().enumerate() {
        let take = if w + 1 == cfg.conns {
            requests.len() - at
        } else {
            (requests.len() * wt / total_weight).min(requests.len() - at)
        };
        slices.push((at, &requests[at..at + take]));
        at += take;
    }

    let t0 = Instant::now();
    let reports: Vec<ConnReport> = std::thread::scope(|scope| {
        slices
            .iter()
            .enumerate()
            .map(|(w, &(base_id, slice))| {
                let (addr, cfg) = (&addr, &cfg);
                scope.spawn(move || drive_conn(addr, cfg, base_id, slice, tagged_of(w)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("load thread must not panic"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    drop(parked);

    let all: Vec<(f64, bool)> = reports.iter().flat_map(|r| r.latencies_us.clone()).collect();
    let priced: usize = reports.iter().map(|r| r.priced).sum();
    let overloaded: usize = reports.iter().map(|r| r.overloaded).sum();
    let failures: usize = reports.iter().map(|r| r.failures).sum();
    println!(
        "quote_load: {} requests over {} connections (window {}, {} idle, \
         deadline on every {} conns at {} ms)",
        cfg.n,
        cfg.conns,
        if cfg.window == 0 { "open-loop".to_string() } else { cfg.window.to_string() },
        cfg.idle,
        cfg.deadline_every,
        cfg.deadline_ms
    );
    println!("  priced: {priced}  overloaded: {overloaded}  failures: {failures}");
    println!("  wall: {secs:.3}s  throughput: {:.0} options/s", priced as f64 / secs);
    print_class("all     ", all.iter().map(|&(us, _)| us).collect());
    if cfg.deadline_every > 0 {
        print_class("deadline", all.iter().filter(|&&(_, t)| t).map(|&(us, _)| us).collect());
        print_class("bulk    ", all.iter().filter(|&&(_, t)| !t).map(|&(us, _)| us).collect());
    }
    print_stage_breakdown(&addr);
    if failures > 0 {
        std::process::exit(1);
    }
}
