//! End-to-end tests of the quote service: concurrent books over TCP must be
//! bitwise-identical to direct `BatchPricer` pricing, and over-capacity
//! bursts must shed load explicitly without panics, deadlocks, or dropped
//! in-flight responses.

use american_option_pricing::prelude::*;
use american_option_pricing::service::wire;
use std::time::Duration;

fn base() -> OptionParams {
    OptionParams::paper_defaults()
}

/// A deterministic mixed book: strike ladder × maturities × {BOPM, TOPM} ×
/// {call, put}, with some duplicates (every fourth contract repeats).
fn mixed_book(n: usize, steps: usize) -> Vec<PricingRequest> {
    (0..n)
        .map(|i| {
            let k = if i % 4 == 3 { i - 1 } else { i }; // duplicate every 4th
            let params = OptionParams {
                strike: 90.0 + 2.0 * (k % 32) as f64,
                expiry: 0.5 + 0.25 * ((k / 32) % 4) as f64,
                ..base()
            };
            let model = if k % 2 == 0 { ModelKind::Bopm } else { ModelKind::Topm };
            let ty = if (k / 2) % 2 == 0 { OptionType::Call } else { OptionType::Put };
            PricingRequest::american(model, ty, params, steps)
        })
        .collect()
}

#[test]
fn concurrent_tcp_book_is_bitwise_identical_to_direct_batch_pricing() {
    let server = QuoteServer::bind(
        "127.0.0.1:0",
        ServiceConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let book = mixed_book(96, 96);

    // Direct reference: the whole book through one BatchPricer call.
    let direct = BatchPricer::new(EngineConfig::default());
    let want: Vec<f64> =
        direct.price_batch(&book).into_iter().map(|r| r.expect("valid book")).collect();

    // The same book split over 4 concurrent TCP connections, pipelined.
    let workers = 4;
    let chunk = book.len().div_ceil(workers);
    let got: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = book
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                let slice = slice.to_vec();
                scope.spawn(move || {
                    let mut client = TcpQuoteClient::connect(addr).expect("connect");
                    for (i, req) in slice.iter().enumerate() {
                        let id = (w * chunk + i) as u64;
                        client.send(&wire::encode_pricing_request(id, "price", req)).unwrap();
                    }
                    let mut out = Vec::with_capacity(slice.len());
                    for _ in 0..slice.len() {
                        let reply = client.recv().expect("response line");
                        let doc = wire::parse(&reply).expect("valid response JSON");
                        assert_eq!(
                            doc.get("ok").and_then(|v| match v {
                                wire::JsonValue::Bool(b) => Some(*b),
                                _ => None,
                            }),
                            Some(true),
                            "{reply}"
                        );
                        let id = doc.get("id").unwrap().as_f64().unwrap() as usize;
                        let price = doc.get("price").unwrap().as_f64().unwrap();
                        out.push((id, price));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });

    let exactly_once_and_bitwise = |got: Vec<Vec<(usize, f64)>>, door: &str| {
        let mut seen = vec![false; book.len()];
        for (id, price) in got.into_iter().flatten() {
            assert!(!seen[id], "{door}: response {id} delivered twice");
            seen[id] = true;
            assert_eq!(
                price.to_bits(),
                want[id].to_bits(),
                "{door}: request {id}: {price} vs direct {}",
                want[id]
            );
        }
        assert!(seen.iter().all(|&s| s), "{door}: every request must be answered exactly once");
    };
    exactly_once_and_bitwise(got, "tcp");

    // The traffic actually coalesced: fewer batches than requests.
    let stats = server.service().stats();
    assert_eq!(stats.completed, book.len() as u64);
    assert!(
        stats.batches < stats.completed,
        "expected coalescing, got {} batches for {} requests",
        stats.batches,
        stats.completed
    );

    // The other front door, the other loop shape: eight in-process clients,
    // each submitting and waiting one request at a time, so batches form
    // only from concurrency and the flush deadline.
    let chunk = book.len().div_ceil(8);
    let got: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = book
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                let client = server.service().client();
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(i, req)| (w * chunk + i, client.price(req.clone()).expect("price")))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    exactly_once_and_bitwise(got, "in-process");
    assert_eq!(server.service().stats().completed, 2 * book.len() as u64);
    server.shutdown();
}

#[test]
fn overloaded_burst_sheds_explicitly_and_answers_every_accepted_request() {
    // Tiny queue + slow lattice work: a fast burst must overflow.
    let service = QuoteService::start(ServiceConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_depth: 8,
        workers: 1,
        per_conn_inflight: 1 << 20, // queue depth is the binding limit here
        ..ServiceConfig::default()
    })
    .expect("start service");
    let client = service.client();
    let burst = 256;
    let mut tickets = Vec::new();
    let mut overloaded = 0u64;
    for i in 0..burst {
        let req = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { strike: 80.0 + 0.5 * (i % 128) as f64, ..base() },
            512,
        );
        match client.submit(ServiceRequest::Price(req)) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded { .. }) => overloaded += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(overloaded > 0, "a {burst}-deep burst into a depth-8 queue must shed load");
    let accepted = tickets.len() as u64;
    for t in tickets {
        t.wait().expect("accepted in-flight requests must all be answered");
    }
    let stats = service.stats();
    assert_eq!(stats.completed, accepted, "no in-flight response may be dropped");
    assert_eq!(stats.rejected_queue_full, overloaded);
    assert_eq!(stats.queue_depth, 0);
    service.shutdown();
}

#[test]
fn tcp_overload_answers_with_overloaded_error_lines_not_disconnects() {
    let server = QuoteServer::bind(
        "127.0.0.1:0",
        ServiceConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_depth: 4,
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
    let burst = 128u64;
    for i in 0..burst {
        let req = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { strike: 80.0 + (i % 64) as f64, ..base() },
            512,
        );
        client.send(&wire::encode_pricing_request(i, "price", &req)).unwrap();
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..burst {
        let reply = client.recv().expect("an overloaded server must keep responding");
        let doc = wire::parse(&reply).unwrap();
        match doc.get("ok") {
            Some(wire::JsonValue::Bool(true)) => ok += 1,
            Some(wire::JsonValue::Bool(false)) => {
                assert_eq!(doc.get("kind").unwrap().as_str(), Some("overloaded"), "{reply}");
                shed += 1;
            }
            other => panic!("{other:?} in {reply}"),
        }
    }
    assert_eq!(ok + shed, burst);
    assert!(ok > 0, "some requests must get through");
    assert!(shed > 0, "a burst into a depth-4 queue must shed load");
    server.shutdown();
}

#[test]
fn greeks_and_surface_requests_ride_the_same_queue() {
    let service = QuoteService::start(ServiceConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(2),
        ..ServiceConfig::default()
    })
    .expect("start service");
    let client = service.client();
    let req = PricingRequest::american(ModelKind::Bopm, OptionType::Call, base(), 128);

    // Greeks through the service ≡ the serial facade (bitwise).
    let got = client.greeks(req.clone()).expect("greeks");
    let want = greeks_by_fd(&BatchPricer::new(EngineConfig::default()), &req).unwrap();
    assert_eq!(got.delta.to_bits(), want.delta.to_bits());
    assert_eq!(got.vega.to_bits(), want.vega.to_bits());

    // A put implied-vol quote through the service round-trips.
    let m = BopmModel::new(OptionParams { volatility: 0.3, ..base() }, 128).unwrap();
    let market = lattice_fast::price_american_put(&m);
    let vol = client.implied_vol(VolQuote::put(base(), 128, market)).expect("inversion");
    assert!((vol - 0.3).abs() < 1e-6, "round-trip put vol {vol}");
    service.shutdown();
}

/// ARCHITECTURE's "Service tuning knobs" table has one row per
/// `ServiceConfig` field, no more and no fewer.  The field list is an
/// exhaustive destructuring (no `..`), so adding a field breaks this
/// build until the table gains its row.
#[test]
fn service_knob_table_lists_every_config_field_once() {
    macro_rules! fields {
        ($($field:ident),* $(,)?) => {{
            let ServiceConfig { $($field: _),* } = ServiceConfig::default();
            vec![$(stringify!($field)),*]
        }};
    }
    let mut fields = fields!(
        max_batch,
        max_wait,
        queue_depth,
        workers,
        per_conn_inflight,
        max_connections,
        fault,
        trace,
        journal_capacity,
    );
    let architecture = include_str!("../ARCHITECTURE.md");
    let section = architecture
        .split_once("### Service tuning knobs")
        .map(|(_, rest)| rest.split("\n#").next().unwrap_or(rest))
        .expect("ARCHITECTURE.md has a \"Service tuning knobs\" section");
    let mut rows: Vec<&str> =
        section.lines().filter_map(|line| line.strip_prefix("| `")?.split('`').next()).collect();
    fields.sort_unstable();
    rows.sort_unstable();
    assert_eq!(rows, fields, "knob table rows vs ServiceConfig fields");
}
