//! TCP front door: a listener speaking the line-delimited JSON protocol of
//! [`wire`](crate::wire), one connection per client, responses in request
//! order.
//!
//! Connections are served by a single-threaded epoll event loop (see
//! [`reactor`](crate::reactor)) that multiplexes every socket through
//! nonblocking reads and writes and incremental line buffers, so it holds
//! thousands of mostly-idle connections on one thread.
//!
//! Three rules bound what a connection can cost the server:
//!
//! * a submission rejected because the shared queue is full (or shed by a
//!   brownout tier) is answered at once with a `"kind":"overloaded"` error
//!   line and never occupies queue space;
//! * a connection that pipelines past
//!   [`per_conn_inflight`](ServiceConfig::per_conn_inflight) is not
//!   rejected: the reactor stops reading it at the cap and resumes as
//!   replies drain, so TCP backpressure paces the peer and every line is
//!   eventually answered, in order;
//! * a line longer than [`MAX_LINE_BYTES`](crate::wire::MAX_LINE_BYTES) or
//!   not valid UTF-8 is answered once with a parse error, then the
//!   connection is closed.
//!
//! The exact reply bytes for every kind of request line are pinned by the
//! golden transcript in `tests/front_end.rs`.

use crate::queue::QuoteService;
use crate::reactor::ReactorHandle;
use crate::types::ServiceStats;
use crate::ServiceConfig;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A [`QuoteService`] listening on a TCP socket.
///
/// ```no_run
/// use amopt_service::{QuoteServer, ServiceConfig, TcpQuoteClient};
///
/// let server = QuoteServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
/// let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
/// let reply = client
///     .roundtrip(r#"{"id":1,"op":"price","spot":127.62,"strike":130,"vol":0.2,"rate":0.00163,"div":0.0163,"steps":252}"#)
///     .unwrap();
/// assert!(reply.contains("\"ok\":true"));
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct QuoteServer {
    service: Arc<QuoteService>,
    addr: SocketAddr,
    /// Set by the first [`shutdown`](QuoteServer::shutdown) caller, who
    /// alone sequences stop-accepting → drain → reactor exit.
    stop: AtomicBool,
    reactor: ReactorHandle,
}

impl QuoteServer {
    /// Starts a [`QuoteService`] with `cfg`, listens on `addr`
    /// (`127.0.0.1:0` picks a free port; see [`local_addr`]) and spawns the
    /// reactor thread that serves every connection.
    ///
    /// [`local_addr`]: QuoteServer::local_addr
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(QuoteService::start(cfg)?);
        // On failure the last handle to the service drops here, which
        // shuts it down.
        let reactor = ReactorHandle::spawn(listener, Arc::clone(&service))?;
        Ok(QuoteServer { service, addr, stop: AtomicBool::new(false), reactor })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (stats, in-process clients).
    pub fn service(&self) -> &QuoteService {
        &self.service
    }

    /// Scheduler stats merged with front-end (reactor) stats — the same
    /// view the wire `stats` op serves.  Both now read from the one
    /// metrics registry, so this is just [`QuoteService::stats`].
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// The Prometheus-style metrics exposition — the same text the wire
    /// `metrics` op serves.
    pub fn metrics_text(&self) -> String {
        self.service.metrics_text()
    }

    /// Stops accepting connections (the listener closes), drains and stops
    /// the service ([`QuoteService::shutdown`] semantics), then has the
    /// reactor flush every reply still owed to an established connection —
    /// waiting a bounded time on slow peers — before it closes its sockets
    /// and exits.  Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            // A concurrent or repeated call: the first caller owns the
            // sequence below; setting the reactor's exit flag from here
            // could close connections whose tickets are not yet resolved.
            return;
        }
        self.reactor.stop_accepting();
        self.service.shutdown();
        self.reactor.exit_and_join();
    }
}

impl Drop for QuoteServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking line-protocol client, for load generators, examples, and tests.
///
/// Requests can be pipelined: [`send`](TcpQuoteClient::send) any number of
/// lines, then [`recv`](TcpQuoteClient::recv) the response lines in order.
#[derive(Debug)]
pub struct TcpQuoteClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpQuoteClient {
    /// Connects to a [`QuoteServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpQuoteClient { reader, writer: BufWriter::new(stream) })
    }

    /// Sends one request line (newline appended) without waiting.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receives the next response line.
    ///
    /// A connection that dies *mid-line* surfaces as an `InvalidData`
    /// "torn reply" error, never as a truncated line: a reply is either
    /// delivered whole (newline-terminated) or not at all, so a caller can
    /// safely treat anything this returns as a complete server response.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = match self.reader.read_line(&mut line) {
            Ok(n) => n,
            // `read_line` preserves bytes delivered before the failure: a
            // non-empty buffer means the transport died (or timed out)
            // *mid-reply*, which a retrying caller must treat as torn —
            // resubmitting after partial delivery risks a double answer.
            Err(_) if !line.is_empty() => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn reply line (transport failed mid-reply)",
                ));
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "torn reply line (connection died mid-reply)",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Bounds how long [`recv`](TcpQuoteClient::recv) blocks (`None`
    /// restores blocking reads).  Chaos clients use this so a lost reply
    /// surfaces as a timeout instead of a hang.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// One request, one response.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, encode_pricing_request, parse, JsonValue};
    use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest};
    use amopt_core::{EngineConfig, OptionParams, OptionType};
    use std::time::Duration;

    fn server() -> QuoteServer {
        QuoteServer::bind(
            "127.0.0.1:0",
            ServiceConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
        )
        .expect("bind loopback")
    }

    #[test]
    fn wire_price_is_bitwise_the_direct_batch_price() {
        let server = server();
        let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
        let req = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams::paper_defaults(),
            252,
        );
        let reply = client.roundtrip(&encode_pricing_request(1, "price", &req)).unwrap();
        let doc = parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{reply}");
        let got = doc.get("price").unwrap().as_f64().unwrap();
        let want = BatchPricer::new(EngineConfig::default()).price_one(&req).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = server();
        let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
        for i in 0..10u64 {
            let req = PricingRequest::american(
                ModelKind::Bopm,
                OptionType::Call,
                OptionParams { strike: 100.0 + i as f64, ..OptionParams::paper_defaults() },
                64,
            );
            client.send(&encode_pricing_request(i, "price", &req)).unwrap();
        }
        for i in 0..10u64 {
            let doc = parse(&client.recv().unwrap()).unwrap();
            assert_eq!(doc.get("id").unwrap().as_f64(), Some(i as f64), "in-order ids");
            assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        }
        server.shutdown();
    }

    #[test]
    fn parse_errors_and_stats_answer_inline() {
        let server = server();
        let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
        let reply = client.roundtrip("{\"op\":\"price\"}").unwrap();
        let doc = parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("parse"));

        let reply = client.roundtrip("{\"id\":9,\"op\":\"stats\"}").unwrap();
        let doc = parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert!(doc.get("queue_depth").is_some(), "{reply}");
        assert!(doc.get("memo_hit_rate").is_some(), "{reply}");
        server.shutdown();
    }

    #[test]
    fn greeks_and_implied_vol_round_trip_over_the_wire() {
        let server = server();
        let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
        let req = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams::paper_defaults(),
            128,
        );
        let reply = client.roundtrip(&encode_pricing_request(1, "greeks", &req)).unwrap();
        let doc = parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{reply}");
        assert!(doc.get("delta").unwrap().as_f64().unwrap() > 0.0);

        // Manufacture an exactly attainable quote, then invert it.
        let price_reply = client.roundtrip(&encode_pricing_request(2, "price", &req)).unwrap();
        let market = parse(&price_reply).unwrap().get("price").unwrap().as_f64().unwrap();
        let vol_line = format!(
            "{{\"id\":3,\"op\":\"implied_vol\",\"spot\":{},\"strike\":{},\"rate\":{},\
             \"div\":{},\"steps\":128,\"market_price\":{}}}",
            OptionParams::paper_defaults().spot,
            OptionParams::paper_defaults().strike,
            OptionParams::paper_defaults().rate,
            OptionParams::paper_defaults().dividend_yield,
            market
        );
        let reply = client.roundtrip(&vol_line).unwrap();
        let doc = parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{reply}");
        let vol = doc.get("implied_vol").unwrap().as_f64().unwrap();
        assert!((vol - 0.2).abs() < 1e-6, "round-trip vol {vol}");
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_the_connection_dropped() {
        let server = server();
        let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
        // A newline-free line past the cap must not buffer unboundedly: the
        // server answers once with a parse error and closes the connection.
        let huge = "x".repeat(wire::MAX_LINE_BYTES + 1024);
        client.send(&huge).unwrap();
        let reply = client.recv().unwrap();
        let doc = parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)), "{reply}");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("parse"));
        assert!(client.recv().is_err(), "oversized line must close the connection");
        // The cap splitting a multi-byte character still answers before the
        // drop (as a malformed line, not as a clean cap hit), as does
        // outright non-UTF-8 input.
        for tail in [&[0xF0u8, 0x9F, 0x98, 0x80][..], &[0xFFu8, 0xFE][..]] {
            let mut raw = TcpStream::connect(server.local_addr()).unwrap();
            let mut payload = vec![b'x'; wire::MAX_LINE_BYTES - 2];
            payload.extend_from_slice(tail);
            payload.push(b'\n');
            raw.write_all(&payload).unwrap();
            let mut reply = String::new();
            BufReader::new(&raw).read_line(&mut reply).unwrap();
            let doc = parse(reply.trim()).unwrap();
            assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)), "{reply}");
            assert_eq!(doc.get("kind").unwrap().as_str(), Some("parse"));
        }
        // A fresh connection still works: the cap is per line, not global.
        let mut client = TcpQuoteClient::connect(server.local_addr()).unwrap();
        let req = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams::paper_defaults(),
            32,
        );
        let reply = client.roundtrip(&encode_pricing_request(1, "price", &req)).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn shutdown_then_connect_is_refused_or_closed() {
        let server = server();
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the listener is closed: either the connect fails
        // outright or the next request gets no response.
        if let Ok(mut client) = TcpQuoteClient::connect(addr) {
            let req = PricingRequest::american(
                ModelKind::Bopm,
                OptionType::Call,
                OptionParams::paper_defaults(),
                32,
            );
            let _ = client.send(&encode_pricing_request(1, "price", &req));
            assert!(client.recv().is_err(), "a post-shutdown connection must not be served");
        }
    }
}
