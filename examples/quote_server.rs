//! `quote_server` — run the batch-coalescing quote service over TCP, scrape
//! a running one, or run the seeded chaos soak against a loopback one.
//!
//! ```sh
//! # Serve the line-JSON protocol (see amopt_service::wire) until killed:
//! cargo run --release --example quote_server -- serve 127.0.0.1:7878
//!
//! # Chaos soak: run the seeded fault-injection soak (amopt_service::soak)
//! # against a sabotaged loopback server and print the invariant report
//! # (exit 1 if any chaos invariant is violated).  Appending `unhandled`
//! # arms the deliberately-unhandled LostReply class, so the run is
//! # *expected* to fail — the gate detecting real loss, as
//! # `tests/chaos.rs::unhandled_fault_class_is_caught_by_the_invariant_gate`:
//! cargo run --release --example quote_server -- chaos 42
//! cargo run --release --example quote_server -- chaos 42 200 unhandled
//!
//! # Observability: scrape a running server's metrics exposition, or tail
//! # its most recent request trace cards:
//! cargo run --release --example quote_server -- metrics 127.0.0.1:7878
//! cargo run --release --example quote_server -- tail 127.0.0.1:7878 32
//! ```

use american_option_pricing::prelude::*;
use american_option_pricing::service::wire;
use std::time::Duration;

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
        _ => {
            eprintln!(
                "usage: quote_server serve [addr] \
                 | quote_server chaos [seed] [requests] [unhandled] \
                 | quote_server metrics [addr] | quote_server tail [addr] [n]"
            );
            std::process::exit(2);
        }
    }
}
