//! `quote_server` — run the batch-coalescing quote service over TCP, or
//! smoke-test it end to end.
//!
//! ```sh
//! # Serve the line-JSON protocol (see amopt_service::wire) until killed:
//! cargo run --release --example quote_server -- serve 127.0.0.1:7878
//!
//! # CI smoke: spin up a loopback server, drive N requests through
//! # concurrent pipelined TCP connections — while CONNS total connections
//! # (default 4, CI uses ≥1000) stay open against the reactor — and verify
//! # zero errors and bitwise equality against direct BatchPricer pricing
//! # (exit 1 on any failure):
//! cargo run --release --example quote_server -- smoke 512 1200
//!
//! # Chaos soak: run the seeded fault-injection soak (amopt_service::soak)
//! # against a sabotaged loopback server and print the invariant report
//! # (exit 1 if any chaos invariant is violated).  Appending `unhandled`
//! # arms the deliberately-unhandled LostReply class, so the run is
//! # *expected* to fail — CI uses it to prove the gate detects real loss:
//! cargo run --release --example quote_server -- chaos 42
//! cargo run --release --example quote_server -- chaos 42 200 unhandled
//!
//! # Observability: scrape a running server's metrics exposition, tail its
//! # most recent request trace cards, or run the self-contained obs smoke
//! # (loopback server + scrape + invariant checks; exit 1 on violation):
//! cargo run --release --example quote_server -- metrics 127.0.0.1:7878
//! cargo run --release --example quote_server -- tail 127.0.0.1:7878 32
//! cargo run --release --example quote_server -- obs-smoke 256
//! ```

use american_option_pricing::prelude::*;
use american_option_pricing::service::wire;
use std::time::Duration;

/// Deterministic mixed smoke book: strike ladder × {BOPM, TOPM} ×
/// {call, put}, with duplicates every fourth request (the dedup path).
fn smoke_book(n: usize, steps: usize) -> Vec<PricingRequest> {
    let base = OptionParams::paper_defaults();
    (0..n)
        .map(|i| {
            let k = if i % 4 == 3 { i - 1 } else { i };
            let params = OptionParams {
                strike: 90.0 + 2.0 * (k % 40) as f64,
                expiry: 0.5 + 0.125 * ((k / 40) % 8) as f64,
                ..base
            };
            let model = if k % 2 == 0 { ModelKind::Bopm } else { ModelKind::Topm };
            let ty = if (k / 2) % 2 == 0 { OptionType::Call } else { OptionType::Put };
            PricingRequest::american(model, ty, params, steps)
        })
        .collect()
}

fn serve(addr: &str) {
    let server = QuoteServer::bind(addr, ServiceConfig::default())
        .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!("quote_server listening on {}", server.local_addr());
    println!("protocol: one JSON request per line; try:");
    println!(
        "  {{\"id\":1,\"op\":\"price\",\"spot\":127.62,\"strike\":130,\"rate\":0.00163,\
         \"vol\":0.2,\"div\":0.0163,\"steps\":252}}"
    );
    loop {
        std::thread::sleep(Duration::from_secs(30));
        print_stats(&server);
    }
}

/// One stats line for the scheduler, one for the reactor — the same
/// counters the wire `stats` op reports.
fn print_stats(server: &QuoteServer) {
    let s = server.stats();
    println!(
        "[stats] queue={} submitted={} completed={} rejected={} batches={} mean_batch={:.1} \
         memo_hit_rate={:.3} deadline_misses={} heap_pops={}",
        s.queue_depth,
        s.submitted,
        s.completed,
        s.rejected_queue_full + s.rejected_inflight,
        s.batches,
        s.mean_batch_size(),
        s.memo_hit_rate(),
        s.deadline_misses,
        s.heap_pops
    );
    let r = &s.reactor;
    println!(
        "[reactor] accepted={} open={} refused={} loop_iters={} events_per_wake={:?}",
        r.connections_accepted,
        r.connections_open,
        r.connections_refused,
        r.loop_iterations,
        r.events_per_wake.non_empty()
    );
}

fn smoke(n: usize, conns: usize) {
    let server = QuoteServer::bind(
        "127.0.0.1:0",
        ServiceConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let book = smoke_book(n, 96);

    // Park every connection beyond the 4 pipelined drivers as idle load on
    // the reactor: the drivers below must stay unaffected, and the parked
    // sockets must still answer when probed afterwards.
    let idle: Vec<std::net::TcpStream> = (4..conns)
        .map(|i| {
            std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();

    // Reference: the whole book through one direct BatchPricer call.
    let want: Vec<f64> = BatchPricer::new(EngineConfig::default())
        .price_batch(&book)
        .into_iter()
        .map(|r| r.expect("smoke book is valid"))
        .collect();

    // Drive it over 4 concurrent pipelined TCP connections.
    let drivers = 4;
    let chunk = book.len().div_ceil(drivers);
    let results: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
        book.chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move || {
                    // Bounded pipeline window: keeps the connection well
                    // under its in-flight cap and off TCP-buffer deadlocks
                    // however large `smoke N` is.
                    const WINDOW: usize = 64;
                    let mut client = TcpQuoteClient::connect(addr).expect("connect");
                    let mut out: Vec<(usize, f64)> = Vec::with_capacity(slice.len());
                    let mut next = 0usize;
                    let mut in_flight = 0usize;
                    while out.len() < slice.len() {
                        while next < slice.len() && in_flight < WINDOW {
                            let id = (w * chunk + next) as u64;
                            client
                                .send(&wire::encode_pricing_request(id, "price", &slice[next]))
                                .expect("send");
                            next += 1;
                            in_flight += 1;
                        }
                        let reply = client.recv().expect("response line");
                        in_flight -= 1;
                        let doc = wire::parse(&reply).expect("valid response JSON");
                        let ok = matches!(doc.get("ok"), Some(wire::JsonValue::Bool(true)));
                        assert!(ok, "error response: {reply}");
                        let id = doc.get("id").unwrap().as_f64().unwrap() as usize;
                        let price = doc.get("price").unwrap().as_f64().unwrap();
                        out.push((id, price));
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("connection thread must not panic"))
            .collect()
    });

    let mut seen = vec![false; book.len()];
    let mut mismatches = 0usize;
    for (id, price) in results.into_iter().flatten() {
        assert!(!seen[id], "response {id} delivered twice");
        seen[id] = true;
        if price.to_bits() != want[id].to_bits() {
            eprintln!("MISMATCH request {id}: wire {price} vs direct {}", want[id]);
            mismatches += 1;
        }
    }
    let unanswered = seen.iter().filter(|&&s| !s).count();

    // Parked connections must have stayed alive under the load: probe a
    // spread of them with a real quote each.
    let mut parked_failures = 0usize;
    for probe in [0usize, idle.len() / 2, idle.len().saturating_sub(1)] {
        let Some(stream) = idle.get(probe) else { continue };
        let mut stream = stream.try_clone().expect("clone parked conn");
        let line = wire::encode_pricing_request(probe as u64, "price", &book[probe % book.len()]);
        use std::io::{BufRead, Write};
        if stream.write_all(format!("{line}\n").as_bytes()).is_err() {
            parked_failures += 1;
            continue;
        }
        let mut reply = String::new();
        let ok = std::io::BufReader::new(stream).read_line(&mut reply).is_ok()
            && reply.contains("\"ok\":true");
        if !ok {
            eprintln!("PARKED conn {probe} failed: {reply}");
            parked_failures += 1;
        }
    }

    let stats = server.stats();
    println!(
        "smoke: {} requests over {} connections, {} batches (mean size {:.1}), \
         memo hit rate {:.3}, {mismatches} mismatches, {unanswered} unanswered, \
         {parked_failures} parked-connection failures",
        book.len(),
        conns.max(drivers),
        stats.batches,
        stats.mean_batch_size(),
        stats.memo_hit_rate()
    );
    print_stats(&server);
    let accepted_ok = stats.reactor.connections_accepted >= conns.saturating_sub(4) as u64;
    if !accepted_ok {
        eprintln!(
            "reactor accepted only {} of {} connections",
            stats.reactor.connections_accepted, conns
        );
    }
    drop(idle);
    server.shutdown();
    if mismatches > 0 || unanswered > 0 || parked_failures > 0 || !accepted_ok {
        std::process::exit(1);
    }
    println!("smoke OK: every wire response bitwise-equal to direct BatchPricer pricing");
}

/// Sends one wire request line to a running server and returns the parsed
/// reply document (panics on transport errors or an `ok:false` reply).
fn wire_call(addr: &str, line: &str) -> wire::JsonValue {
    let mut client =
        TcpQuoteClient::connect(addr).unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"));
    client.send(line).expect("send request line");
    let reply = client.recv().expect("read reply line");
    let doc = wire::parse(&reply).unwrap_or_else(|e| panic!("bad reply JSON ({e}): {reply}"));
    assert!(
        matches!(doc.get("ok"), Some(wire::JsonValue::Bool(true))),
        "server returned an error: {reply}"
    );
    doc
}

/// `metrics <addr>` — scrape a running server's Prometheus-text exposition.
fn metrics_cmd(addr: &str) {
    let doc = wire_call(addr, "{\"id\":0,\"op\":\"metrics\"}");
    print!("{}", doc.get("text").and_then(|t| t.as_str()).expect("metrics reply carries text"));
}

/// `tail <addr> [n]` — print the most recent trace cards, one line each.
fn tail_cmd(addr: &str, n: usize) {
    let doc = wire_call(addr, &format!("{{\"id\":0,\"op\":\"trace\",\"n\":{n}}}"));
    let Some(wire::JsonValue::Arr(cards)) = doc.get("traces") else {
        panic!("trace reply carries no traces array");
    };
    if cards.is_empty() {
        println!("no completed traces yet (is tracing enabled and has traffic flowed?)");
        return;
    }
    println!("{:>8}  {:<11} {:>10}  flags  stage breakdown (µs)", "id", "kind", "e2e µs");
    for card in cards {
        let id = card.get("id").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        let kind = card.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
        let e2e = card.get("end_to_end_nanos").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let flag = |k: &str, c: char| {
            if matches!(card.get(k), Some(wire::JsonValue::Bool(true))) {
                c
            } else {
                '-'
            }
        };
        let flags: String = [flag("memo_hit", 'm'), flag("deadline_miss", 'd'), flag("error", 'e')]
            .into_iter()
            .collect();
        let mut stages = String::new();
        if let Some(wire::JsonValue::Obj(fields)) = card.get("stages") {
            for (name, nanos) in fields {
                let us = nanos.as_f64().unwrap_or(0.0) / 1_000.0;
                if !stages.is_empty() {
                    stages.push(' ');
                }
                stages.push_str(&format!("{name}={us:.1}"));
            }
        }
        println!("{:>8}  {:<11} {:>10.1}  {flags}    {stages}", id as i64, kind, e2e / 1_000.0);
    }
}

/// `obs-smoke [n]` — spin up a loopback server, drive `n` quotes, then
/// scrape the `metrics` and `trace` ops over the wire and verify the
/// acceptance invariants: ≥ 25 named instruments, the fault/retry/brownout
/// families present, and every trace card's stage breakdown summing to its
/// end-to-end latency.  Exits 1 on any violation.
fn obs_smoke(n: usize) {
    let server = QuoteServer::bind(
        "127.0.0.1:0",
        ServiceConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let book = smoke_book(n, 64);
    let mut client = TcpQuoteClient::connect(&addr).expect("connect driver");
    for (i, req) in book.iter().enumerate() {
        client.send(&wire::encode_pricing_request(i as u64, "price", req)).expect("send");
    }
    for _ in 0..book.len() {
        let reply = client.recv().expect("reply");
        assert!(reply.contains("\"ok\":true"), "quote failed: {reply}");
    }

    let mut failures = 0usize;

    // Exposition: ≥ 25 named instruments and the acceptance families.
    let doc = wire_call(&addr, "{\"id\":0,\"op\":\"metrics\"}");
    let text = doc.get("text").and_then(|t| t.as_str()).expect("metrics text").to_string();
    let instruments = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    println!("obs-smoke: scraped {instruments} instruments from {addr}");
    if instruments < 25 {
        eprintln!("FAIL: only {instruments} instruments exposed (acceptance floor is 25)");
        failures += 1;
    }
    for needle in [
        "amopt_queue_submitted_total",
        "amopt_queue_batch_size_bucket",
        "amopt_stage_queue_wait_nanos_count",
        "amopt_fault_worker_panic_fired_total",
        "amopt_retries_total",
        "amopt_shed_price_total",
        "amopt_memo_hits",
        "amopt_reactor_loop_iterations_total",
        "amopt_kernel_fft_pass_calls_total",
    ] {
        if !text.contains(needle) {
            eprintln!("FAIL: exposition is missing {needle}");
            failures += 1;
        }
    }

    // Trace cards: present, and each stage breakdown sums to end-to-end.
    let doc = wire_call(&addr, "{\"id\":0,\"op\":\"trace\",\"n\":32}");
    let Some(wire::JsonValue::Arr(cards)) = doc.get("traces") else {
        panic!("trace reply carries no traces array");
    };
    if cards.is_empty() {
        eprintln!("FAIL: no trace cards after {} quotes", book.len());
        failures += 1;
    }
    for card in cards {
        let e2e = card.get("end_to_end_nanos").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        let mut sum = 0.0;
        if let Some(wire::JsonValue::Obj(fields)) = card.get("stages") {
            sum = fields.iter().filter_map(|(_, v)| v.as_f64()).sum();
        }
        // The stamps are monotonic deltas of one clock, so the sum must
        // reproduce the end-to-end figure exactly; allow 1µs of slack for
        // future rounding in the exposition layer.
        if e2e < 0.0 || (sum - e2e).abs() > 1_000.0 {
            eprintln!("FAIL: stage sum {sum} ns vs end-to-end {e2e} ns: {card:?}");
            failures += 1;
        }
    }

    server.shutdown();
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "obs-smoke OK: {} instruments, {} trace cards, every stage breakdown sums to its \
         end-to-end latency",
        instruments,
        cards.len()
    );
}

/// Runs the seeded chaos soak and exits non-zero if any invariant broke.
fn chaos(seed: u64, requests: Option<usize>, unhandled: bool) {
    use american_option_pricing::service::{soak, ChaosConfig};
    let mut cfg = ChaosConfig::new(seed);
    if let Some(n) = requests {
        cfg = cfg.with_requests(n);
    }
    if unhandled {
        cfg = cfg.unhandled();
    }
    let report = soak(&cfg).unwrap_or_else(|e| panic!("chaos soak could not run: {e}"));
    println!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7878");
            serve(addr);
        }
        Some("smoke") => {
            let n = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(512);
            let conns = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(4);
            smoke(n, conns);
        }
        Some("chaos") => {
            let seed = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(42);
            let requests = args.get(2).and_then(|v| v.parse().ok());
            let unhandled = args.iter().any(|a| a == "unhandled");
            chaos(seed, requests, unhandled);
        }
        Some("metrics") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7878");
            metrics_cmd(addr);
        }
        Some("tail") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7878");
            let n = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(16);
            tail_cmd(addr, n);
        }
        Some("obs-smoke") => {
            let n = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(128);
            obs_smoke(n);
        }
        _ => {
            eprintln!(
                "usage: quote_server serve [addr] | quote_server smoke [n] [conns] \
                 | quote_server chaos [seed] [requests] [unhandled] \
                 | quote_server metrics [addr] | quote_server tail [addr] [n] \
                 | quote_server obs-smoke [n]"
            );
            std::process::exit(2);
        }
    }
}
