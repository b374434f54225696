//! Line-delimited JSON wire codec — hand-rolled, zero dependencies.
//!
//! One request per line, one response line per request, in request order.
//! Numbers are encoded with Rust's shortest-round-trip `f64` formatting and
//! decoded with `str::parse::<f64>`, so a price survives the wire
//! **bit-exactly** — the end-to-end tests rely on this.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "op": "price", "model": "bopm", "type": "call",
//!  "style": "american", "spot": 127.62, "strike": 130.0, "rate": 0.00163,
//!  "vol": 0.2, "div": 0.0163, "expiry": 1.0, "steps": 252}
//! ```
//!
//! * `op` — `"price"`, `"greeks"`, `"implied_vol"`, `"metrics"`, or
//!   `"trace"`.  Any other op is a parse error (`unknown op`), whatever
//!   other fields the line carries.
//! * `id` — any JSON scalar, echoed verbatim in the response (optional).
//! * `model` — `"bopm"` (default), `"topm"`, `"bsm"`.
//! * `type` — `"call"` (default) or `"put"`.
//! * `style` — `"american"` (default), `"european"`, or `"bermudan"`
//!   (the latter requires `"dates": [step, …]`).
//! * `spot`, `strike` — required for pricing ops; `vol` is required for
//!   `price`/`greeks`; `rate`/`div` default to `0`, `expiry` to `1`,
//!   `steps` to `252` (capped at [`MAX_WIRE_STEPS`] = 2²⁰).
//! * `implied_vol` additionally requires `"market_price"` and accepts
//!   `type` to invert put quotes (always the BOPM lattice).
//! * `deadline_ms` — optional latency budget in milliseconds for any
//!   submission op.  The EDF scheduler flushes no later than the earliest
//!   queued deadline and drains earliest-deadline-first, so a tagged quote
//!   overtakes queued bulk work; untagged requests default to the server's
//!   `max_wait`.
//!
//! ## Responses
//!
//! ```json
//! {"id": 1, "ok": true, "price": 8.327021364440658}
//! {"id": 2, "ok": true, "delta": 0.58, "gamma": 0.02, "theta": -4.1, "vega": 48.6, "rho": 61.0}
//! {"id": 3, "ok": true, "implied_vol": 0.2}
//! {"id": 4, "ok": false, "kind": "overloaded", "error": "overloaded: submission queue full"}
//! ```
//!
//! `kind` on failures is `"overloaded"`, `"shutdown"`, `"pricing"`, or
//! `"parse"`; overloaded submissions were never enqueued and are safe to
//! retry with backoff.
//!
//! `metrics` answers `{"id": …, "ok": true, "text": "…"}`: the
//! Prometheus-style exposition of every service instrument as one
//! JSON-escaped string.  `trace` (optional `"n"`, default
//! [`DEFAULT_TRACE_CARDS`]) answers with the most recent request trace
//! cards.
//!
//! **Deprecated and retired: `stats`.**  The 27-field `stats` op is gone; a
//! `stats` line is answered like any other unknown op.  `metrics` carries
//! each counter it reported, under these names:
//!
//! | retired `stats` field | `metrics` name |
//! |---|---|
//! | `queue_depth` | `amopt_queue_depth` |
//! | `submitted`, `completed` | `amopt_queue_submitted_total`, `amopt_queue_completed_total` |
//! | `rejected_queue_full`, `rejected_inflight`, `rejected_shutdown` | `amopt_queue_rejected_{queue_full,inflight,shutdown}_total` |
//! | `batches`, `deadline_misses`, `heap_pops` | `amopt_queue_{batches,deadline_misses,heap_pops}_total` |
//! | `batch_size_hist`, `mean_batch_size` | the `amopt_queue_batch_size` histogram |
//! | `memo_hits`, `memo_misses`, `memo_entries` | `amopt_memo_hits`, `amopt_memo_misses`, `amopt_memo_entries` |
//! | `memo_hit_rate` | `amopt_memo_hits / (amopt_memo_hits + amopt_memo_misses)` |
//! | `worker_restarts`, `workers_alive` | `amopt_worker_restarts_total`, `amopt_workers_alive` |
//! | `shed_price`, `shed_greeks`, `shed_implied_vol` | `amopt_shed_{price,greeks,implied_vol}_total` |
//! | `reactor_connections_accepted`, `_open`, `_refused` | `amopt_reactor_connections_accepted_total`, `amopt_reactor_connections_open`, `amopt_reactor_connections_refused_total` |
//! | `reactor_loop_iterations` | `amopt_reactor_loop_iterations_total` |
//! | `reactor_events_per_wake_hist` | the `amopt_reactor_events_per_wake` histogram |

use crate::types::{ServiceError, ServiceRequest, ServiceResponse};
use crate::ServiceResult;
use amopt_core::batch::surface::VolQuote;
use amopt_core::batch::{ModelKind, PricingRequest, Style};
use amopt_core::{OptionParams, OptionType};
use amopt_obs::{TraceCard, FLAG_DEADLINE_MISS, FLAG_ERROR, FLAG_MEMO_HIT};
use std::fmt::Write as _;
use std::time::Duration;

/// A parsed JSON value (the subset the wire protocol uses).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Re-encodes the value as compact JSON (used to echo request ids).
    pub fn encode(&self) -> String {
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Num(x) => fmt_f64(*x),
            JsonValue::Str(s) => quote(s),
            JsonValue::Arr(items) => {
                let inner: Vec<String> = items.iter().map(JsonValue::encode).collect();
                format!("[{}]", inner.join(","))
            }
            JsonValue::Obj(fields) => {
                let inner: Vec<String> =
                    fields.iter().map(|(k, v)| format!("{}:{}", quote(k), v.encode())).collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Shortest-round-trip JSON encoding of an `f64` (`null` for non-finite
/// values, which JSON cannot represent).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// JSON string quoting with the standard escapes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nesting depth guard for the parser: the wire protocol never nests past
/// 3 levels, and a hostile deeply nested line must not overflow the stack.
const MAX_DEPTH: usize = 16;

/// Largest lattice `steps` a wire request may ask for (2²⁰).  One pricing at
/// this size is seconds of work and megabytes of rows — already generous
/// next to the paper's largest experiments — while an uncapped value would
/// let a single request line pin a shared worker for hours or exhaust
/// memory.  In-process [`Client`](crate::Client) callers are trusted and
/// uncapped; the network decoder is where the line is drawn.
pub const MAX_WIRE_STEPS: usize = 1 << 20;

/// Largest request line (in bytes) the TCP front door will buffer (2²⁰).
/// Every legitimate request — even a Bermudan ladder with thousands of
/// exercise dates — fits in a fraction of this, while an unbounded
/// `read_line` would let a peer stream a newline-free line and grow server
/// memory without limit.  Oversized lines are answered with a parse error
/// and the connection is dropped.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why [`LineAssembler`] rejected its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// No newline within the first [`MAX_LINE_BYTES`] bytes (and the
    /// buffered prefix was valid UTF-8, so the overflow is the only sin).
    TooLong,
    /// A complete line (or the buffered over-limit prefix) was not valid
    /// UTF-8.
    Malformed,
}

impl LineError {
    /// The parse-error message the server answers with.
    pub fn message(&self) -> String {
        match self {
            LineError::TooLong => format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            LineError::Malformed => {
                format!("request line is not valid UTF-8 or exceeds {MAX_LINE_BYTES} bytes")
            }
        }
    }
}

/// Incremental line extraction over an arbitrarily split byte stream —
/// the reader-resumption half of the wire protocol, used by the epoll
/// reactor and property-tested in isolation.
///
/// Feed chunks with [`push`](LineAssembler::push) exactly as they arrive
/// off the socket; [`next_line`](LineAssembler::next_line) yields each
/// complete line (without its `\n`) as soon as its last byte is in,
/// independent of how the stream was split — mid-line, mid-UTF-8-sequence,
/// byte-at-a-time, it cannot matter, because assembly happens on raw bytes
/// and decoding only ever sees whole lines.  Two things reject the
/// stream: [`MAX_LINE_BYTES`] buffered bytes with no newline among them
/// ([`LineError::TooLong`], or [`LineError::Malformed`] when that prefix is
/// not valid UTF-8 — which includes the cap landing mid-character), and a
/// complete line that is not valid UTF-8.  A rejection is terminal (the
/// connection is answered once and dropped, so there is nothing
/// meaningful to resynchronise onto).
#[derive(Debug, Default)]
pub struct LineAssembler {
    buf: Vec<u8>,
    /// Resume offset for the newline scan: bytes before it are known
    /// newline-free, so repeated pushes stay O(bytes), not O(bytes²).
    scan_from: usize,
    rejected: bool,
}

impl LineAssembler {
    /// An empty assembler.
    pub fn new() -> LineAssembler {
        LineAssembler::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.rejected {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// The next complete line, `None` when more bytes are needed, or the
    /// terminal rejection.
    pub fn next_line(&mut self) -> Option<Result<String, LineError>> {
        if self.rejected {
            return None;
        }
        let scan_end = self.buf.len().min(MAX_LINE_BYTES);
        let scan = self.buf.get(self.scan_from..scan_end).unwrap_or(&[]);
        let Some(offset) = scan.iter().position(|&b| b == b'\n') else {
            self.scan_from = scan_end;
            if self.buf.len() >= MAX_LINE_BYTES {
                // No newline within the cap: answer once, reject the rest.
                self.rejected = true;
                let prefix_ok =
                    std::str::from_utf8(self.buf.get(..MAX_LINE_BYTES).unwrap_or(&[])).is_ok();
                return Some(Err(if prefix_ok {
                    LineError::TooLong
                } else {
                    LineError::Malformed
                }));
            }
            return None;
        };
        let newline = self.scan_from + offset;
        let rest = self.buf.split_off(newline + 1);
        let mut line_bytes = std::mem::replace(&mut self.buf, rest);
        line_bytes.pop(); // the `\n`
        self.scan_from = 0;
        match String::from_utf8(line_bytes) {
            Ok(line) => Some(Ok(line)),
            Err(_) => {
                self.rejected = true;
                Some(Err(LineError::Malformed))
            }
        }
    }
}

/// Parses one JSON document (a full line of the wire protocol).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(&(b' ' | b'\t' | b'\n' | b'\r'))) {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let JsonValue::Str(key) = parse_value(bytes, pos, depth + 1)? else {
                    return Err(format!("object key at byte {pos} is not a string"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes.get(*pos..).is_some_and(|rest| rest.starts_with(lit.as_bytes())) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(&(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))) {
        *pos += 1;
    }
    let text = std::str::from_utf8(bytes.get(start..*pos).unwrap_or_default())
        .map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

/// Four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    hex.iter().try_fold(0u32, |code, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return Err("bad \\u escape".to_string()),
        };
        Ok((code << 4) | u32::from(digit))
    })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(JsonValue::Str(out));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let c = match code {
                            // A high surrogate must be followed by a low
                            // one: JSON encodes non-BMP characters as a
                            // `\uD800-\uDBFF` + `\uDC00-\uDFFF` pair.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err("unpaired surrogate in \\u escape".to_string());
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("unpaired surrogate in \\u escape".to_string());
                                }
                                *pos += 6;
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                                    .ok_or_else(|| "bad \\u escape".to_string())?
                            }
                            0xDC00..=0xDFFF => {
                                return Err("unpaired surrogate in \\u escape".to_string())
                            }
                            _ => {
                                char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?
                            }
                        };
                        out.push(c);
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Bulk-copy the run up to the next quote or backslash in
                // one UTF-8 validation — per-character re-validation of the
                // remaining input would make a megabyte-scale line
                // (MAX_LINE_BYTES is 2²⁰) quadratic, a cheap way to pin a
                // worker.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(bytes.get(start..*pos).unwrap_or_default())
                    .map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request decoding (server side)
// ---------------------------------------------------------------------------

/// A decoded wire request: a service submission (with its optional
/// `deadline_ms` latency budget) or an observability query.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Submit to the coalescing queue, scheduling with the given latency
    /// budget (`None` → the server's `max_wait`).
    Submit(ServiceRequest, Option<Duration>),
    /// Answer immediately with the Prometheus-style metrics exposition.
    Metrics,
    /// Answer immediately with the most recent `n` completed request
    /// trace cards (`"n"` field, default [`DEFAULT_TRACE_CARDS`]).
    Trace(usize),
}

/// Trace cards returned by a `trace` op that names no `n`.
pub const DEFAULT_TRACE_CARDS: usize = 16;

/// Decodes one request line.  Returns the echoed `id` (compact JSON,
/// `null` when absent) alongside the decoded request or a parse error.
pub fn decode_request(line: &str) -> (String, Result<WireRequest, String>) {
    let doc = match parse(line) {
        Ok(doc) => doc,
        Err(e) => return ("null".to_string(), Err(e)),
    };
    let id = doc.get("id").map(JsonValue::encode).unwrap_or_else(|| "null".to_string());
    (id, decode_request_body(&doc))
}

fn decode_request_body(doc: &JsonValue) -> Result<WireRequest, String> {
    let op = doc.get("op").and_then(JsonValue::as_str).ok_or("missing `op`")?;
    if op == "metrics" {
        return Ok(WireRequest::Metrics);
    }
    if op == "trace" {
        let n = match doc.get("n") {
            None => DEFAULT_TRACE_CARDS,
            Some(v) => {
                let x = v.as_f64().ok_or("`n` must be a number")?;
                if !(x.is_finite() && (1.0..=65536.0).contains(&x) && x.fract() == 0.0) {
                    return Err(format!("`n` must be a positive integer up to 65536, got {x}"));
                }
                x as usize
            }
        };
        return Ok(WireRequest::Trace(n));
    }
    if !matches!(op, "price" | "greeks" | "implied_vol") {
        return Err(format!("unknown op `{op}`"));
    }
    let num = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let required = |key: &str| num(key).ok_or_else(|| format!("missing number `{key}`"));
    let steps = match doc.get("steps") {
        None => 252usize,
        Some(v) => {
            let x = v.as_f64().ok_or("`steps` must be a number")?;
            if !(x.is_finite() && (1.0..=MAX_WIRE_STEPS as f64).contains(&x) && x.fract() == 0.0) {
                return Err(format!(
                    "`steps` must be a positive integer up to {MAX_WIRE_STEPS}, got {x}"
                ));
            }
            x as usize
        }
    };
    let option_type = match doc.get("type").and_then(JsonValue::as_str) {
        None | Some("call") => OptionType::Call,
        Some("put") => OptionType::Put,
        Some(other) => return Err(format!("unknown option type `{other}`")),
    };
    let deadline = match doc.get("deadline_ms") {
        None => None,
        Some(v) => {
            let ms = v.as_f64().ok_or("`deadline_ms` must be a number")?;
            if !(ms.is_finite() && ms >= 0.0) {
                return Err(format!("`deadline_ms` must be a non-negative number, got {ms}"));
            }
            Some(Duration::from_secs_f64(ms / 1_000.0))
        }
    };
    let params = OptionParams {
        spot: required("spot")?,
        strike: required("strike")?,
        rate: num("rate").unwrap_or(0.0),
        // `implied_vol` ignores the volatility field; give it a harmless
        // positive placeholder so the parameters validate.
        volatility: num("vol").unwrap_or(if op == "implied_vol" { 0.2 } else { f64::NAN }),
        dividend_yield: num("div").unwrap_or(0.0),
        expiry: num("expiry").unwrap_or(1.0),
    };
    if op == "implied_vol" {
        let market = required("market_price")?;
        let quote = if option_type == OptionType::Put {
            VolQuote::put(params, steps, market)
        } else {
            VolQuote::new(params, steps, market)
        };
        return Ok(WireRequest::Submit(ServiceRequest::ImpliedVol(quote), deadline));
    }
    if !params.volatility.is_finite() {
        return Err("missing number `vol`".to_string());
    }
    let model = match doc.get("model").and_then(JsonValue::as_str) {
        None | Some("bopm") => ModelKind::Bopm,
        Some("topm") => ModelKind::Topm,
        Some("bsm") => ModelKind::Bsm,
        Some(other) => return Err(format!("unknown model `{other}`")),
    };
    let style = match doc.get("style").and_then(JsonValue::as_str) {
        None | Some("american") => Style::American,
        Some("european") => Style::European,
        Some("bermudan") => {
            let JsonValue::Arr(items) =
                doc.get("dates").ok_or("bermudan style requires `dates`")?
            else {
                return Err("`dates` must be an array of steps".to_string());
            };
            let mut dates = Vec::with_capacity(items.len());
            for item in items {
                let x = item.as_f64().ok_or("`dates` entries must be numbers")?;
                if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0) {
                    return Err(format!("`dates` entry {x} is not a lattice step"));
                }
                dates.push(x as usize);
            }
            Style::Bermudan(dates)
        }
        Some(other) => return Err(format!("unknown style `{other}`")),
    };
    let request = PricingRequest { model, option_type, style, params, steps };
    match op {
        "greeks" => Ok(WireRequest::Submit(ServiceRequest::Greeks(request), deadline)),
        _ => Ok(WireRequest::Submit(ServiceRequest::Price(request), deadline)),
    }
}

// ---------------------------------------------------------------------------
// Response encoding (server side)
// ---------------------------------------------------------------------------

/// Encodes the response line for one resolved submission.
pub fn encode_result(id: &str, result: &ServiceResult) -> String {
    match result {
        Ok(ServiceResponse::Price(p)) => {
            format!("{{\"id\":{id},\"ok\":true,\"price\":{}}}", fmt_f64(*p))
        }
        Ok(ServiceResponse::Greeks(g)) => format!(
            "{{\"id\":{id},\"ok\":true,\"delta\":{},\"gamma\":{},\"theta\":{},\"vega\":{},\
             \"rho\":{}}}",
            fmt_f64(g.delta),
            fmt_f64(g.gamma),
            fmt_f64(g.theta),
            fmt_f64(g.vega),
            fmt_f64(g.rho)
        ),
        Ok(ServiceResponse::ImpliedVol(v)) => {
            format!("{{\"id\":{id},\"ok\":true,\"implied_vol\":{}}}", fmt_f64(*v))
        }
        Err(e) => {
            let kind = match e {
                ServiceError::Overloaded { .. } => "overloaded",
                ServiceError::ShuttingDown => "shutdown",
                ServiceError::Pricing(_) => "pricing",
                ServiceError::Internal { .. } => "internal",
            };
            encode_error(id, kind, &e.to_string())
        }
    }
}

/// Encodes an error response line (also used for parse failures).
pub fn encode_error(id: &str, kind: &str, message: &str) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"kind\":{},\"error\":{}}}", quote(kind), quote(message))
}

/// Encodes the metrics response line: the Prometheus-style exposition as
/// one JSON-escaped string field (a scraper unescapes `text` and has the
/// standard text format).
pub fn encode_metrics(id: &str, text: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"text\":{}}}", quote(text))
}

/// Encodes the trace response line: the most recent completed trace cards,
/// oldest first, each with its id, kind, flags, stage breakdown (interval
/// name → nanoseconds, stamped stages only), and end-to-end nanoseconds.
pub fn encode_trace(id: &str, cards: &[TraceCard]) -> String {
    let mut out = format!("{{\"id\":{id},\"ok\":true,\"traces\":[");
    for (i, card) in cards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match card.kind {
            0 => "price",
            1 => "greeks",
            2 => "implied_vol",
            _ => "other",
        };
        let _ = write!(
            out,
            "{{\"id\":{},\"kind\":{},\"memo_hit\":{},\"deadline_miss\":{},\"error\":{},\
             \"stages\":{{",
            card.id,
            quote(kind),
            card.flags & FLAG_MEMO_HIT != 0,
            card.flags & FLAG_DEADLINE_MISS != 0,
            card.flags & FLAG_ERROR != 0,
        );
        for (j, (name, nanos)) in card.breakdown().into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{nanos}", quote(name));
        }
        let _ = write!(out, "}},\"end_to_end_nanos\":{}}}", card.end_to_end_nanos());
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Request encoding (client side)
// ---------------------------------------------------------------------------

/// Encodes a [`PricingRequest`] as a `price` (or `greeks`) request line
/// tagged with a `deadline_ms` latency budget.
pub fn encode_pricing_request_with_deadline(
    id: u64,
    op: &str,
    req: &PricingRequest,
    deadline_ms: f64,
) -> String {
    let mut line = encode_pricing_request(id, op, req);
    line.pop();
    let _ = write!(line, ",\"deadline_ms\":{}}}", fmt_f64(deadline_ms));
    line
}

/// Encodes a [`PricingRequest`] as a `price` (or `greeks`) request line.
pub fn encode_pricing_request(id: u64, op: &str, req: &PricingRequest) -> String {
    let model = match req.model {
        ModelKind::Bopm => "bopm",
        ModelKind::Topm => "topm",
        ModelKind::Bsm => "bsm",
    };
    let ty = match req.option_type {
        OptionType::Call => "call",
        OptionType::Put => "put",
    };
    let p = &req.params;
    let mut line = format!(
        "{{\"id\":{id},\"op\":{},\"model\":{},\"type\":{},\"spot\":{},\"strike\":{},\
         \"rate\":{},\"vol\":{},\"div\":{},\"expiry\":{},\"steps\":{}",
        quote(op),
        quote(model),
        quote(ty),
        fmt_f64(p.spot),
        fmt_f64(p.strike),
        fmt_f64(p.rate),
        fmt_f64(p.volatility),
        fmt_f64(p.dividend_yield),
        fmt_f64(p.expiry),
        req.steps,
    );
    match &req.style {
        Style::American => line.push_str(",\"style\":\"american\""),
        Style::European => line.push_str(",\"style\":\"european\""),
        Style::Bermudan(dates) => {
            let dates: Vec<String> = dates.iter().map(usize::to_string).collect();
            let _ = write!(line, ",\"style\":\"bermudan\",\"dates\":[{}]", dates.join(","));
        }
    }
    line.push('}');
    line
}

/// Encodes a [`VolQuote`] as an `implied_vol` request line.
pub fn encode_vol_request(id: u64, quote_req: &VolQuote) -> String {
    let ty = match quote_req.option_type {
        OptionType::Call => "call",
        OptionType::Put => "put",
    };
    let p = &quote_req.params;
    format!(
        "{{\"id\":{id},\"op\":\"implied_vol\",\"type\":{},\"spot\":{},\"strike\":{},\
         \"rate\":{},\"div\":{},\"expiry\":{},\"steps\":{},\"market_price\":{}}}",
        quote(ty),
        fmt_f64(p.spot),
        fmt_f64(p.strike),
        fmt_f64(p.rate),
        fmt_f64(p.dividend_yield),
        fmt_f64(p.expiry),
        quote_req.steps,
        fmt_f64(quote_req.market_price),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".into()));
        let doc = parse("{\"a\": [1, 2], \"b\": {\"c\": \"d\"}}").unwrap();
        assert_eq!(
            doc.get("a").unwrap(),
            &JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])
        );
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn surrogate_pairs_decode_to_supplementary_characters() {
        // `\ud83d\ude00` is U+1F600 (😀); the pair must combine, not
        // decode half-by-half into replacement characters.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), JsonValue::Str("\u{1F600}".into()));
        assert_eq!(parse(r#""a\ud834\udd1eb""#).unwrap(), JsonValue::Str("a\u{1D11E}b".into()));
        // Raw (unescaped) non-BMP UTF-8 passes through untouched.
        assert_eq!(parse("\"\u{1F600}\"").unwrap(), JsonValue::Str("\u{1F600}".into()));
        // An id holding an escaped pair echoes back the original character.
        let (id, _) = decode_request(r#"{"id":"\ud83d\ude00","op":"metrics"}"#);
        assert_eq!(id, quote("\u{1F600}"));
        // Unpaired or malformed surrogates are parse errors, not U+FFFD.
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dx""#,      // high surrogate then a literal char
            r#""\ud83d\n""#,     // high surrogate then a non-\u escape
            r#""\ud83d\u0041""#, // high surrogate then a BMP escape
            r#""\ude00""#,       // lone low surrogate
            r#""\ud83d\ud83d""#, // high surrogate twice
            r#""\u12g4""#,       // non-hex digit
            r#""\u+123""#,       // sign accepted by from_str_radix, not JSON
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn cap_sized_strings_parse_in_linear_time() {
        // A MAX_LINE_BYTES-scale string value must parse with one bulk
        // UTF-8 validation per run, not one per character — the quadratic
        // version takes minutes here and hangs the suite.
        let body = "x".repeat(MAX_LINE_BYTES - 2);
        let line = format!("\"{body}\"");
        assert_eq!(parse(&line).unwrap(), JsonValue::Str(body));
        // Runs broken up by escapes and multi-byte characters still stitch
        // together correctly.
        let mixed = format!("\"{}\\n{}é\"", "a".repeat(70_000), "b".repeat(70_000));
        let JsonValue::Str(s) = parse(&mixed).unwrap() else { panic!() };
        assert_eq!(s.len(), 140_000 + 1 + 'é'.len_utf8());
        assert!(s.ends_with("bé") && s.contains('\n'));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{\"a\":1} extra", "\"unterminated", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Hostile nesting depth fails cleanly rather than overflowing.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [8.327021364440658f64, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 1e300] {
            let encoded = fmt_f64(x);
            let JsonValue::Num(back) = parse(&encoded).unwrap() else { panic!() };
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {encoded}");
        }
    }

    #[test]
    fn pricing_request_round_trips_through_the_codec() {
        let req = PricingRequest::american(
            ModelKind::Topm,
            OptionType::Put,
            OptionParams::paper_defaults(),
            300,
        );
        let line = encode_pricing_request(7, "price", &req);
        let (id, decoded) = decode_request(&line);
        assert_eq!(id, "7");
        assert_eq!(decoded.unwrap(), WireRequest::Submit(ServiceRequest::Price(req.clone()), None));

        let bermudan =
            PricingRequest::bermudan_put(OptionParams::paper_defaults(), 128, vec![32, 64, 128]);
        let line = encode_pricing_request(8, "greeks", &bermudan);
        let (_, decoded) = decode_request(&line);
        assert_eq!(decoded.unwrap(), WireRequest::Submit(ServiceRequest::Greeks(bermudan), None));

        // The deadline tag survives the round trip as a Duration.
        let line = encode_pricing_request_with_deadline(9, "price", &req, 2.5);
        let (id, decoded) = decode_request(&line);
        assert_eq!(id, "9");
        assert_eq!(
            decoded.unwrap(),
            WireRequest::Submit(ServiceRequest::Price(req), Some(Duration::from_micros(2_500)))
        );
        // Malformed budgets are parse errors, not silent defaults.
        let (_, decoded) =
            decode_request(r#"{"op":"price","spot":100,"strike":100,"vol":0.2,"deadline_ms":-1}"#);
        assert!(decoded.unwrap_err().contains("deadline_ms"));
        let (_, decoded) = decode_request(
            r#"{"op":"price","spot":100,"strike":100,"vol":0.2,"deadline_ms":"soon"}"#,
        );
        assert!(decoded.unwrap_err().contains("deadline_ms"));
    }

    #[test]
    fn vol_request_round_trips_including_put_side() {
        let quote = VolQuote::put(OptionParams::paper_defaults(), 252, 9.25);
        let line = encode_vol_request(3, &quote);
        let (id, decoded) = decode_request(&line);
        assert_eq!(id, "3");
        let WireRequest::Submit(ServiceRequest::ImpliedVol(back), None) = decoded.unwrap() else {
            panic!()
        };
        assert_eq!(back.option_type, OptionType::Put);
        assert_eq!(back.market_price, 9.25);
        assert_eq!(back.steps, 252);
        assert_eq!(back.params.spot, quote.params.spot);
    }

    #[test]
    fn defaults_and_missing_fields() {
        let (_, decoded) = decode_request(r#"{"op":"price","spot":100,"strike":100,"vol":0.2}"#);
        let WireRequest::Submit(ServiceRequest::Price(req), None) = decoded.unwrap() else {
            panic!()
        };
        assert_eq!(req.steps, 252);
        assert_eq!(req.model, ModelKind::Bopm);
        assert_eq!(req.style, Style::American);
        assert_eq!(req.params.expiry, 1.0);

        let (_, decoded) = decode_request(r#"{"op":"price","spot":100,"strike":100}"#);
        assert!(decoded.unwrap_err().contains("vol"));
        // A hostile steps value is rejected at the codec, before any
        // lattice is built.
        let (_, decoded) =
            decode_request(r#"{"op":"price","spot":100,"strike":100,"vol":0.2,"steps":999999999}"#);
        assert!(decoded.unwrap_err().contains("steps"));
        let (_, decoded) = decode_request(r#"{"op":"nope","spot":1,"strike":1,"vol":0.2}"#);
        assert!(decoded.is_err());
        let (id, decoded) = decode_request("not json at all");
        assert_eq!(id, "null");
        assert!(decoded.is_err());
    }

    #[test]
    fn responses_encode_to_parseable_lines() {
        let line = encode_result("42", &Ok(ServiceResponse::Price(8.5)));
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("price").unwrap().as_f64(), Some(8.5));
        assert_eq!(doc.get("id").unwrap().as_f64(), Some(42.0));

        let line = encode_result(
            "\"abc\"",
            &Err(ServiceError::Overloaded { what: "submission queue full" }),
        );
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("abc"));
    }

    #[test]
    fn metrics_and_trace_requests_decode() {
        let (_, decoded) = decode_request(r#"{"id":1,"op":"metrics"}"#);
        assert_eq!(decoded.unwrap(), WireRequest::Metrics);
        let (_, decoded) = decode_request(r#"{"id":1,"op":"trace"}"#);
        assert_eq!(decoded.unwrap(), WireRequest::Trace(DEFAULT_TRACE_CARDS));
        let (_, decoded) = decode_request(r#"{"id":1,"op":"trace","n":4}"#);
        assert_eq!(decoded.unwrap(), WireRequest::Trace(4));
        for bad in [
            r#"{"op":"trace","n":0}"#,
            r#"{"op":"trace","n":65537}"#,
            r#"{"op":"trace","n":2.5}"#,
            r#"{"op":"trace","n":"all"}"#,
        ] {
            let (_, decoded) = decode_request(bad);
            assert!(decoded.is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn metrics_reply_round_trips_the_exposition_text() {
        let text = "# TYPE amopt_x counter\namopt_x 1\n";
        let doc = parse(&encode_metrics("3", text)).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("text").unwrap().as_str(), Some(text));
    }
}
