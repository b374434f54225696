//! Front-end integration tests: a golden wire transcript pins the exact
//! reply bytes of every kind of request line, and the reactor must survive
//! hostile client pacing (slow-loris, partial lines, half-close, pipelining
//! past the in-flight cap) and hold four-digit connection counts.

use amopt_core::batch::greeks::greeks as batch_greeks;
use amopt_core::batch::surface::{implied_vol_surface, VolQuote};
use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest};
use amopt_core::{EngineConfig, OptionParams, OptionType};
use amopt_service::wire::{self, parse, JsonValue};
use amopt_service::{
    QuoteServer, ServiceConfig, ServiceError, ServiceResponse, ServiceResult, TcpQuoteClient,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn config() -> ServiceConfig {
    ServiceConfig { max_batch: 16, max_wait: Duration::from_millis(1), ..ServiceConfig::default() }
}

fn contract(strike: f64, ty: OptionType, steps: usize) -> PricingRequest {
    PricingRequest::american(
        ModelKind::Bopm,
        ty,
        OptionParams { strike, ..OptionParams::paper_defaults() },
        steps,
    )
}

/// One exchange of the golden transcript: a request line and the exact
/// bytes of the reply line it must produce (`None`: the line is skipped
/// and nothing is sent back).
type Exchange = (&'static str, Option<String>);

/// The golden wire transcript: the semantic reference for the TCP front
/// end.  Request lines are literal text.  Replies are of two kinds:
///
/// * **literal** wherever the text cannot depend on kernel rounding — parse
///   errors, pricing errors raised before any lattice is built, echoed ids,
///   a worthless option (exactly `0`), immediate exercise (exactly the
///   intrinsic `K − S`, which the root node computes as `strike - spot`);
/// * **computed** for live numbers: `wire::encode_result` over the answer a
///   fresh [`BatchPricer`] gives for the contract *written out here* (not
///   decoded from the line, so the decoder's field mapping is checked
///   too).  The service's shared, memoizing, coalescing pricer must
///   reproduce those bits; a kernel change that moves prices moves both
///   sides and needs no re-pin.
///
/// `metrics` / `trace` replies carry counters and timings and stay out.
fn transcript() -> Vec<Exchange> {
    let direct = BatchPricer::new(EngineConfig::default());
    let paper = OptionParams::paper_defaults();
    let lit = |reply: &str| Some(reply.to_string());
    let computed = |id: &str, result: ServiceResult| Some(wire::encode_result(id, &result));
    let price = |id: &str, req: &PricingRequest| {
        let price = direct.price_one(req).expect("transcript contracts price");
        computed(id, Ok(ServiceResponse::Price(price)))
    };
    let invert = |quote: VolQuote| implied_vol_surface(&direct, &[quote]).remove(0);
    let put_105 = contract(105.0, OptionType::Put, 64);
    vec![
        // --- parse errors: answered inline, the connection stays open ---
        (
            r#"{"id":1,"op":"price"}"#,
            lit(r#"{"id":1,"ok":false,"kind":"parse","error":"missing number `spot`"}"#),
        ),
        (
            r#"{"id":2,"op":"frobnicate","spot":100,"strike":100,"vol":0.2}"#,
            lit(r#"{"id":2,"ok":false,"kind":"parse","error":"unknown op `frobnicate`"}"#),
        ),
        (
            "price me a call, please",
            lit(r#"{"id":null,"ok":false,"kind":"parse","error":"invalid number `` at byte 0"}"#),
        ),
        (
            r#"{"id":4,"op":"price","spot":100,"strike":100,"vol":1e999}"#,
            lit(r#"{"id":4,"ok":false,"kind":"parse","error":"missing number `vol`"}"#),
        ),
        // --- blank lines are skipped, not answered ---
        ("", None),
        ("  \t ", None),
        // --- pricing errors raised before any lattice arithmetic ---
        (
            r#"{"id":5,"op":"price","spot":100,"strike":100,"rate":0.5,"vol":0.01,"steps":4}"#,
            lit(concat!(
                r#"{"id":5,"ok":false,"kind":"pricing","error":"unstable discretisation: "#,
                "risk-neutral probability p = 13.813540 outside (0,1); increase steps or ",
                r#"reduce |R−Y|·Δt relative to V·√Δt"}"#,
            )),
        ),
        (
            r#"{"id":6,"op":"price","model":"bsm","type":"call","spot":100,"strike":100,"vol":0.2}"#,
            lit(concat!(
                r#"{"id":6,"ok":false,"kind":"pricing","error":"unsupported pricing request: "#,
                r#"Bsm Call with American exercise has no pricer in this workspace"}"#,
            )),
        ),
        // --- two well-formed lines that each used to pin a worker at 100 %
        // CPU forever (a saturated `as i64` under a float-predicate walk):
        // typed errors now, and the quotes after them are answered ---
        (
            r#"{"op":"price","model":"topm","type":"put","spot":5e-324,"strike":130,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":1}"#,
            lit(concat!(
                r#"{"id":null,"ok":false,"kind":"pricing","error":"invalid parameter `spot`: "#,
                r#"must be a normal number, got the subnormal 5e-324"}"#,
            )),
        ),
        (
            r#"{"op":"price","model":"bsm","type":"put","spot":100,"strike":100,"rate":0.01,"vol":1e-300,"steps":4}"#,
            lit(concat!(
                r#"{"id":null,"ok":false,"kind":"pricing","error":"unstable discretisation: "#,
                "explicit-scheme coefficient a = NaN is negative or not finite ",
                r#"(ω = inf, Δτ = 0.000e0, Δs = 0.000e0); increase steps"}"#,
            )),
        ),
        // --- ids echoed verbatim: string (multi-byte), absent → null; the
        // prices are exact: every leaf out of the money → 0, immediate
        // exercise at the root → K − S, at T = 400 and on trees of one and
        // two steps ---
        (
            r#"{"id":"Δ-7","op":"price","type":"call","spot":1,"strike":1000,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":400}"#,
            lit(r#"{"id":"Δ-7","ok":true,"price":0}"#),
        ),
        (
            r#"{"op":"price","type":"put","spot":50,"strike":200,"rate":0.05,"vol":0.2,"steps":400}"#,
            lit(r#"{"id":null,"ok":true,"price":150}"#),
        ),
        (
            r#"{"id":9,"op":"price","model":"topm","type":"call","spot":1,"strike":1000,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":1}"#,
            lit(r#"{"id":9,"ok":true,"price":0}"#),
        ),
        (
            r#"{"id":10,"op":"price","type":"put","spot":50,"strike":200,"rate":0.05,"vol":0.2,"steps":2}"#,
            lit(r#"{"id":10,"ok":true,"price":150}"#),
        ),
        // --- live numbers: bitwise the direct answer ---
        (
            r#"{"id":11,"op":"price","spot":127.62,"strike":100,"rate":0.00163,"vol":0.2,"div":0.0163,"expiry":1,"steps":64}"#,
            price("11", &contract(100.0, OptionType::Call, 64)),
        ),
        (
            r#"{"id":12,"op":"price","model":"bopm","type":"put","style":"american","spot":127.62,"strike":105,"rate":0.00163,"vol":0.2,"div":0.0163,"expiry":1,"steps":64}"#,
            price("12", &put_105),
        ),
        (
            r#"{"id":13,"op":"price","model":"topm","type":"call","spot":127.62,"strike":130,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":96}"#,
            price("13", &PricingRequest::american(ModelKind::Topm, OptionType::Call, paper, 96)),
        ),
        (
            r#"{"id":14,"op":"price","model":"bsm","type":"put","spot":127.62,"strike":130,"rate":0.00163,"vol":0.2,"steps":96}"#,
            price(
                "14",
                &PricingRequest::american(
                    ModelKind::Bsm,
                    OptionType::Put,
                    OptionParams { dividend_yield: 0.0, ..paper },
                    96,
                ),
            ),
        ),
        (
            r#"{"id":15,"op":"price","type":"put","style":"european","spot":127.62,"strike":130,"rate":0.00163,"vol":0.2,"div":0.0163}"#,
            price("15", &PricingRequest::european(ModelKind::Bopm, OptionType::Put, paper, 252)),
        ),
        // A deadline-tagged quote is scheduled differently, not priced
        // differently.
        (
            r#"{"id":16,"op":"price","type":"put","spot":127.62,"strike":103,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":64,"deadline_ms":2.5}"#,
            price("16", &contract(103.0, OptionType::Put, 64)),
        ),
        // An in-script duplicate of id 12: served by in-batch dedup or the
        // memo, same bytes but for the id.
        (
            r#"{"id":17,"op":"price","type":"put","spot":127.62,"strike":105,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":64}"#,
            price("17", &put_105),
        ),
        (
            r#"{"id":18,"op":"greeks","spot":127.62,"strike":104,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":64}"#,
            {
                let ladder = batch_greeks(&direct, &[contract(104.0, OptionType::Call, 64)])
                    .remove(0)
                    .expect("transcript contracts price");
                computed("18", Ok(ServiceResponse::Greeks(ladder)))
            },
        ),
        (
            r#"{"id":19,"op":"implied_vol","spot":127.62,"strike":130,"rate":0.00163,"div":0.0163,"steps":64,"market_price":9.5}"#,
            {
                let vol = invert(VolQuote::new(paper, 64, 9.5)).expect("9.5 is attainable");
                computed("19", Ok(ServiceResponse::ImpliedVol(vol)))
            },
        ),
        // Unattainable quote: the error text quotes lattice prices, so it
        // is computed too.
        (
            r#"{"id":20,"op":"implied_vol","type":"put","spot":127.62,"strike":130,"rate":0.00163,"div":0.0163,"steps":64,"market_price":500}"#,
            {
                let e = invert(VolQuote::put(paper, 64, 500.0)).expect_err("500 is unattainable");
                computed("20", Err(ServiceError::Pricing(e)))
            },
        ),
        // Two spots below the memo's grid, one valid (immediate exercise,
        // exactly K) and one not: neither is answered with the other's
        // reply, in one batch or through the memo.
        (
            r#"{"id":21,"op":"price","type":"put","spot":1e-307,"strike":130,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":64}"#,
            lit(r#"{"id":21,"ok":true,"price":130}"#),
        ),
        (
            r#"{"id":22,"op":"price","type":"put","spot":5e-324,"strike":130,"rate":0.00163,"vol":0.2,"div":0.0163,"steps":64}"#,
            lit(concat!(
                r#"{"id":22,"ok":false,"kind":"pricing","error":"invalid parameter `spot`: "#,
                r#"must be a normal number, got the subnormal 5e-324"}"#,
            )),
        ),
        // id 11's contract again, under a new id: on the warm second pass
        // the memo answers it at submit, without a worker — same bytes.
        (
            r#"{"id":23,"op":"price","spot":127.62,"strike":100,"rate":0.00163,"vol":0.2,"div":0.0163,"expiry":1,"steps":64}"#,
            price("23", &contract(100.0, OptionType::Call, 64)),
        ),
        // The retired `stats` op is an unknown op like any other; `metrics`
        // carries its counters.
        (
            r#"{"id":24,"op":"stats"}"#,
            lit(r#"{"id":24,"ok":false,"kind":"parse","error":"unknown op `stats`"}"#),
        ),
    ]
}

/// Replays the transcript over one fresh connection, writing the request
/// bytes `chunk` at a time, half-closes, and returns everything the server
/// sent before closing its side.
fn replay(server: &QuoteServer, script: &[Exchange], chunk: usize) -> Vec<u8> {
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).ok();
    raw.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut request = Vec::new();
    for (line, _) in script {
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
    }
    for piece in request.chunks(chunk) {
        raw.write_all(piece).expect("write");
    }
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut got = Vec::new();
    raw.read_to_end(&mut got).expect("read replies until the server closes");
    got
}

#[test]
fn golden_transcript_replays_byte_for_byte_in_both_framings() {
    let script = transcript();
    let want: Vec<&str> = script.iter().filter_map(|(_, reply)| reply.as_deref()).collect();
    let server = QuoteServer::bind("127.0.0.1:0", config()).expect("bind");
    // One write carrying every line, then one byte per write (multi-byte
    // characters split mid-sequence): the second pass also finds the memo
    // warm, which must not change a byte either.
    for (framing, chunk) in [("single write", usize::MAX), ("a byte per write", 1)] {
        let got = replay(&server, &script, chunk);
        let got = std::str::from_utf8(&got).expect("replies are UTF-8");
        for (i, (g, w)) in got.lines().zip(&want).enumerate() {
            assert_eq!(g, *w, "{framing}: reply {i} differs");
        }
        assert_eq!(got, want.join("\n") + "\n", "{framing}: reply stream");
    }
    server.shutdown();
}

#[test]
fn live_scrape_exposes_the_registry_and_cards_that_telescope_exactly() {
    // The registry floor and exact telescoping are unit- and property-tested
    // on detached instruments; this is the one scrape of a *live* server,
    // through the wire ops an operator would use.
    let server = QuoteServer::bind("127.0.0.1:0", config()).expect("bind");
    let mut client = TcpQuoteClient::connect(server.local_addr()).expect("connect");
    let quotes = 64u64;
    for i in 0..quotes {
        let req = contract(90.0 + (i % 40) as f64, OptionType::Put, 64);
        client.send(&wire::encode_pricing_request(i, "price", &req)).expect("send");
    }
    for _ in 0..quotes {
        let reply = client.recv().expect("reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    let doc = parse(&client.roundtrip(r#"{"op":"metrics"}"#).expect("metrics")).expect("JSON");
    let text = doc.get("text").and_then(JsonValue::as_str).expect("metrics reply carries text");
    let instruments = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(instruments >= 25, "only {instruments} instruments exposed:\n{text}");
    let submitted = exposed(text, "amopt_queue_submitted_total").expect("submitted exposed");
    assert!(submitted >= quotes, "{submitted} submitted, {quotes} sent");

    let doc = parse(&client.roundtrip(r#"{"op":"trace","n":32}"#).expect("trace")).expect("JSON");
    let Some(JsonValue::Arr(cards)) = doc.get("traces") else { panic!("no traces array") };
    assert!(!cards.is_empty(), "no trace cards after {quotes} quotes");
    for card in cards {
        let Some(JsonValue::Obj(stages)) = card.get("stages") else { panic!("{card:?}") };
        assert!(!stages.is_empty(), "{card:?}");
        // Integer deltas of one clock: the sum is the end-to-end figure, not
        // close to it.
        let sum: u64 = stages.iter().map(|(_, v)| v.as_f64().expect("nanos") as u64).sum();
        let e2e = card.get("end_to_end_nanos").and_then(JsonValue::as_f64).expect("e2e") as u64;
        assert_eq!(sum, e2e, "{card:?}");
    }

    // The in-process view and the exposition read one registry: once the
    // server is quiet they agree on every counter the retired `stats` op
    // carried, each under its registry name.
    let (s, text) = (0..100)
        .find_map(|_| {
            let s = server.stats();
            let text = server.metrics_text();
            (server.stats() == s).then_some((s, text))
        })
        .expect("the server never went quiet");
    let r = s.reactor;
    let carried = [
        ("amopt_queue_depth", s.queue_depth as u64),
        ("amopt_queue_submitted_total", s.submitted),
        ("amopt_queue_completed_total", s.completed),
        ("amopt_queue_rejected_queue_full_total", s.rejected_queue_full),
        ("amopt_queue_rejected_inflight_total", s.rejected_inflight),
        ("amopt_queue_rejected_shutdown_total", s.rejected_shutdown),
        ("amopt_queue_batches_total", s.batches),
        ("amopt_queue_deadline_misses_total", s.deadline_misses),
        ("amopt_queue_heap_pops_total", s.heap_pops),
        ("amopt_memo_hits", s.memo.hits),
        ("amopt_memo_misses", s.memo.misses),
        ("amopt_memo_entries", s.memo.entries as u64),
        ("amopt_worker_restarts_total", s.worker_restarts),
        ("amopt_workers_alive", s.workers_alive),
        ("amopt_shed_price_total", s.shed_by_class.price),
        ("amopt_shed_greeks_total", s.shed_by_class.greeks),
        ("amopt_shed_implied_vol_total", s.shed_by_class.implied_vol),
        ("amopt_reactor_connections_accepted_total", r.connections_accepted),
        ("amopt_reactor_connections_open", r.connections_open),
        ("amopt_reactor_connections_refused_total", r.connections_refused),
        ("amopt_reactor_loop_iterations_total", r.loop_iterations),
    ];
    for (name, want) in carried {
        let got = exposed(&text, name)
            .unwrap_or_else(|| panic!("{name} missing from the exposition:\n{text}"));
        assert_eq!(got, want, "{name}: stats() and the exposition disagree");
    }
    assert!(s.completed >= quotes && r.connections_open == 1, "{s:?}");
    server.shutdown();
}

/// The value of the unlabelled sample `name` in a metrics exposition.
fn exposed(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn a_memo_hit_costs_the_reactor_one_loop_iteration_not_two() {
    // A queued quote wakes the reactor twice: its line arriving, then the
    // worker's eventfd kick.  A memo hit is answered at submit and written
    // in the pump that parsed it, so sequential repeats cost about one
    // iteration each.  The pause between repeats keeps a stray kick from
    // sharing a wake-up with the next line, where it would go uncounted.
    let server = QuoteServer::bind("127.0.0.1:0", config()).expect("bind");
    let mut client = TcpQuoteClient::connect(server.local_addr()).expect("connect");
    let line = wire::encode_pricing_request(1, "price", &contract(100.0, OptionType::Put, 64));
    let first = client.roundtrip(&line).expect("first quote");
    let before = server.stats().reactor.loop_iterations;
    let repeats = 64u64;
    for _ in 0..repeats {
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(client.roundtrip(&line).expect("repeat"), first);
    }
    let spent = server.stats().reactor.loop_iterations - before;
    assert!(
        spent < repeats * 3 / 2,
        "{spent} loop iterations for {repeats} memo hits: the eventfd self-kick is back"
    );
    server.shutdown();
}

#[test]
fn slow_loris_partial_lines_resume() {
    let server = QuoteServer::bind("127.0.0.1:0", config()).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).ok();

    // First request dribbled in three fragments with pauses: the reactor
    // must park the partial line and resume when the rest arrives.
    let first = wire::encode_pricing_request(1, "price", &contract(110.0, OptionType::Call, 32));
    let (a, rest) = first.as_bytes().split_at(7);
    let (b, c) = rest.split_at(rest.len() / 2);
    for chunk in [a, b, c] {
        raw.write_all(chunk).expect("write");
        raw.flush().ok();
        std::thread::sleep(Duration::from_millis(20));
    }
    // One write can also end mid-way through the *next* line.
    let second = wire::encode_pricing_request(2, "price", &contract(111.0, OptionType::Put, 32));
    let (tail, carried) = second.as_bytes().split_at(4);
    raw.write_all(b"\n").expect("write");
    raw.write_all(tail).expect("write");
    raw.flush().ok();
    std::thread::sleep(Duration::from_millis(20));
    raw.write_all(carried).expect("write");
    // And a third sent byte by byte.
    let third = wire::encode_pricing_request(3, "price", &contract(112.0, OptionType::Call, 32));
    raw.write_all(b"\n").expect("write");
    for byte in third.as_bytes() {
        raw.write_all(std::slice::from_ref(byte)).expect("write");
        raw.flush().ok();
    }
    raw.write_all(b"\n").expect("write");
    raw.flush().ok();

    let mut reader = BufReader::new(&raw);
    for want_id in 1..=3i64 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        let doc = parse(line.trim()).expect("reply parses");
        assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(want_id as f64), "{line}");
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{line}");
    }
    server.shutdown();
}

#[test]
fn half_close_still_flushes_pending_replies() {
    let server = QuoteServer::bind("127.0.0.1:0", config()).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let n = 5u64;
    for i in 0..n {
        let line = wire::encode_pricing_request(
            i,
            "price",
            &contract(95.0 + i as f64, OptionType::Put, 64),
        );
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write");
    }
    raw.flush().ok();
    // Half-close immediately: the peer is done sending, but every reply
    // already owed must still arrive before the server closes its side.
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(&raw);
    let mut got = 0u64;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read reply") == 0 {
            break; // server finished its side cleanly
        }
        let doc = parse(line.trim()).expect("reply parses");
        assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(got as f64), "{line}");
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{line}");
        got += 1;
    }
    assert_eq!(got, n, "half-closed connection lost replies");
    server.shutdown();
}

#[test]
fn pipelining_past_the_inflight_cap_backpressures_and_answers_everything() {
    // One burst delivers far more requests than `per_conn_inflight`: the
    // reactor parses up to the cap and leaves the rest buffered in user
    // space, where no further EPOLLIN will ever announce them — answering
    // the tail requires re-parsing as replies drain.  The in-flight cap
    // paces a connection, it never rejects: every line is answered, in
    // order, none with an `overloaded` error.
    let server =
        QuoteServer::bind("127.0.0.1:0", ServiceConfig { per_conn_inflight: 4, ..config() })
            .expect("bind");
    let n = 32u64;
    let mut burst = String::new();
    for i in 0..n {
        burst.push_str(&wire::encode_pricing_request(
            i,
            "price",
            &contract(90.0 + i as f64, OptionType::Call, 32),
        ));
        burst.push('\n');
    }
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).ok();
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    raw.write_all(burst.as_bytes()).expect("burst write");
    raw.flush().ok();
    let mut reader = BufReader::new(&raw);
    for i in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap_or_else(|e| panic!("reply {i} never arrived: {e}"));
        let doc = parse(line.trim()).expect("reply parses");
        assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(i as f64), "{line}");
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{line}");
    }

    // Same burst with an immediate half-close: everything received before
    // the EOF must still be answered before the server closes its side —
    // the flushed-and-eof path must not drop requests still in the buffer.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).ok();
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    raw.write_all(burst.as_bytes()).expect("burst write");
    raw.flush().ok();
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(&raw);
    let mut got = 0u64;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read reply") == 0 {
            break;
        }
        let doc = parse(line.trim()).expect("reply parses");
        assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(got as f64), "{line}");
        got += 1;
    }
    assert_eq!(got, n, "half-closed over-cap burst lost replies");
    server.shutdown();
}

#[test]
fn reactor_holds_a_thousand_mostly_idle_connections() {
    let server = QuoteServer::bind("127.0.0.1:0", config()).expect("bind");
    let mut idle = Vec::with_capacity(1024);
    for i in 0..1024 {
        idle.push(
            TcpStream::connect(server.local_addr()).unwrap_or_else(|e| panic!("conn {i}: {e}")),
        );
    }
    // With a thousand sockets parked, fresh connections still get served…
    let mut active = TcpQuoteClient::connect(server.local_addr()).expect("late connect");
    let reply = active
        .roundtrip(&wire::encode_pricing_request(
            1,
            "price",
            &contract(120.0, OptionType::Call, 64),
        ))
        .expect("roundtrip");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    // …and so do the parked ones, first and last alike.
    for probe in [0usize, 511, 1023] {
        let stream = &mut idle[probe];
        stream
            .write_all(
                format!(
                    "{}\n",
                    wire::encode_pricing_request(2, "price", &contract(121.0, OptionType::Put, 64))
                )
                .as_bytes(),
            )
            .expect("write on parked conn");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone")).read_line(&mut line).expect("read");
        assert!(line.contains("\"ok\":true"), "conn {probe}: {line}");
    }
    let stats = server.stats();
    assert!(stats.reactor.connections_accepted >= 1025, "{stats:?}");
    assert!(stats.reactor.connections_open >= 1025, "{stats:?}");
    server.shutdown();
}

#[test]
fn connection_cap_refuses_politely_and_frees_slots() {
    let server = QuoteServer::bind("127.0.0.1:0", ServiceConfig { max_connections: 4, ..config() })
        .expect("bind");
    let held: Vec<TcpStream> =
        (0..4).map(|_| TcpStream::connect(server.local_addr()).expect("connect")).collect();
    // The fifth connection is accepted then immediately closed: reads EOF.
    let over = TcpStream::connect(server.local_addr()).expect("connect");
    over.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut buf = [0u8; 1];
    let n = (&over).read(&mut buf).expect("read on refused conn");
    assert_eq!(n, 0, "over-cap connection must see EOF");
    // Dropping the held connections frees slots for a working client.  The
    // reactor dispatches close events before accept decisions within each
    // wakeup, and the FINs land before this reconnect's SYN, so one attempt
    // must succeed — no retry loop.
    drop(held);
    let mut client = TcpQuoteClient::connect(server.local_addr()).expect("reconnect after free");
    let reply = client
        .roundtrip(&wire::encode_pricing_request(1, "price", &contract(99.0, OptionType::Call, 32)))
        .expect("slots freed before re-accept");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(server.stats().reactor.connections_refused >= 1);
    server.shutdown();
}
