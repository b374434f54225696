//! Single-threaded epoll reactor: the TCP front end.
//!
//! One thread owns every connection: a level-triggered [`epoll::Epoll`]
//! multiplexes the nonblocking listener, an [`epoll::Waker`] eventfd, and
//! every accepted socket.  Connections carry incremental read/write
//! buffers with partial-line and partial-write resumption, so a slow or
//! idle peer costs a few kilobytes of buffer and no thread — the reactor
//! holds thousands of connections (up to
//! [`max_connections`](crate::ServiceConfig::max_connections)).
//!
//! ## Event-loop states (per connection)
//!
//! * **Open** — reading lines, submitting to the EDF queue, writing
//!   replies in request order.  Reads pause (interest drops to
//!   [`Interest::NONE`]) while the reply pipeline is at the connection's
//!   in-flight cap; writes subscribe to `EPOLLOUT` only while a reply is
//!   partially written.  Lines already buffered past the cap are
//!   re-parsed as replies drain: the per-connection cap backpressures the
//!   peer and delays its over-cap lines, it never rejects them (see
//!   [`QuoteServer`](crate::QuoteServer)).
//! * **Peer-closed** — the peer half-closed (EOF / `EPOLLRDHUP`).  The
//!   connection stays registered until every accepted request has been
//!   answered and flushed, then closes.
//! * **Draining** — a line was rejected (over [`wire::MAX_LINE_BYTES`] or
//!   not UTF-8): the error reply is flushed, the write side shuts down,
//!   and leftover input is swallowed — bounded in bytes and time — so the
//!   reply survives instead of being discarded by a TCP reset.
//!
//! Completions re-enter the loop through a ready-list + eventfd pair: the
//! worker that fills a slot pushes the connection's token onto the ready
//! list (outside every lock) and writes the eventfd, and the reactor pumps
//! those connections on its next iteration.  A quote answered at submit
//! from the memo skips that round trip: its ticket is resolved before the
//! reactor holds it, and the reply is written in the same pump that parsed
//! the line.  Replies always leave in request order; a ticket that is not
//! yet resolvable parks the pipeline for that connection only.
//!
//! The `unsafe` syscall surface lives entirely in the `epoll` shim crate;
//! this module is ordinary safe Rust under the workspace-wide
//! `#![forbid(unsafe_code)]` and amopt-lint's `unsafe-confined` pass.

use crate::fault::{FaultPlan, IoFault, SpuriousWakeups};
use crate::obs::ServiceObs;
use crate::queue::{Client, QuoteService, Ticket};
use crate::sync::lock_unpoisoned;
use crate::wire::{self, LineAssembler, WireRequest};
use amopt_obs::Stage;
use epoll::{Epoll, Events, Interest, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Registration token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Registration token of the completion eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token available to connections (slab slot + this offset).
const TOKEN_CONN_BASE: u64 = 2;

/// Events pulled per `epoll_wait` call.
const EVENT_CAPACITY: usize = 1024;
/// Read chunk size; also the per-read growth step of a connection buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Byte budget for swallowing leftover input after a rejected line: 64×
/// [`wire::MAX_LINE_BYTES`], so the rest of any plausible oversized line is
/// read and the error reply is not lost to a TCP reset, while a hostile
/// peer cannot keep the connection (and its slot) forever.
const DRAIN_BUDGET: usize = 64 << 20;
/// Wall-clock budget for that drain.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// How long shutdown waits for unflushed replies before closing anyway.
const EXIT_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// State shared between the reactor thread, completion callbacks, and the
/// owning [`QuoteServer`](crate::QuoteServer).  The reactor's counters
/// live on the service's [`ServiceObs`] registry, not here: the `metrics`
/// exposition and [`QuoteServer::stats`](crate::QuoteServer::stats) read
/// the same instruments.
#[derive(Debug)]
struct ReactorShared {
    waker: Waker,
    /// Stop accepting new connections (established ones keep serving).
    stop_accepting: AtomicBool,
    /// Flush whatever is answerable, close everything, and exit the loop.
    exit: AtomicBool,
    /// Tokens of connections with newly-resolved tickets.  Pushed by the
    /// worker completion callback (outside every queue lock), drained by
    /// the reactor each iteration.  Stale tokens — the connection closed
    /// first, or the slot was reused — make the pump a harmless no-op.
    ready: Mutex<Vec<u64>>,
}

/// Handle owned by [`QuoteServer`](crate::QuoteServer): spawn, observe,
/// shut down.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shared: Arc<ReactorShared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ReactorHandle {
    /// Registers `listener` with a fresh epoll instance and spawns the
    /// reactor thread.
    pub(crate) fn spawn(
        listener: TcpListener,
        service: Arc<QuoteService>,
    ) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let mut ep = Epoll::new()?;
        if let Some(plan) = &service.config().fault {
            // Spurious-wakeup injection: the wait returns empty-handed;
            // level-triggered readiness is re-delivered by the next wait.
            ep.set_wait_fault(Box::new(SpuriousWakeups(Arc::clone(plan))));
        }
        let waker = Waker::new()?;
        ep.add(listener.as_raw_fd(), Interest::READ, TOKEN_LISTENER)?;
        ep.add(waker.as_raw_fd(), Interest::READ, TOKEN_WAKER)?;
        let shared = Arc::new(ReactorShared {
            waker,
            stop_accepting: AtomicBool::new(false),
            exit: AtomicBool::new(false),
            ready: Mutex::new(Vec::new()),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new().name("amopt-service-reactor".to_string()).spawn(
            move || {
                let mut reactor = Reactor {
                    ep,
                    listener: Some(listener),
                    service,
                    shared: thread_shared,
                    conns: Vec::new(),
                    free: Vec::new(),
                };
                reactor.run();
            },
        )?;
        Ok(ReactorHandle { shared, thread: Mutex::new(Some(thread)) })
    }

    /// Stops accepting new connections; established ones keep serving.
    pub(crate) fn stop_accepting(&self) {
        self.shared.stop_accepting.store(true, Ordering::Release);
        let _ = self.shared.waker.wake();
    }

    /// Tells the loop to flush answerable replies, close every
    /// connection, and exit; joins the thread.  Call *after*
    /// [`QuoteService::shutdown`] so every accepted ticket is resolvable.
    /// Idempotent.
    pub(crate) fn exit_and_join(&self) {
        self.shared.exit.store(true, Ordering::Release);
        let _ = self.shared.waker.wake();
        // Take the handle under the lock, join outside it, so concurrent
        // callers block on the join rather than on the mutex.
        let handle = lock_unpoisoned(&self.thread).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.exit_and_join();
    }
}

/// One queued reply: already encoded, or waiting on a ticket.  Replies
/// leave in request order.
enum Reply {
    Ready(String),
    Pending { id: String, ticket: Ticket },
}

/// Per-connection state: socket, resumable buffers, reply pipeline.
struct Conn {
    stream: TcpStream,
    token: u64,
    client: Client,
    /// Incremental line assembler: unparsed input waits inside it for a
    /// newline, so a request split across any number of partial reads
    /// parses identically to one delivered whole.
    lines: LineAssembler,
    /// Encoded-but-unsent output; `wpos` bytes of it are already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// In-order reply pipeline (bounded by the in-flight cap).
    pending: VecDeque<Reply>,
    /// Interest currently registered with epoll.
    registered: Interest,
    /// Peer half-closed; serve what was accepted, then close.
    peer_eof: bool,
    /// A line was rejected; after the reply flushes, drain then close.
    rejected: bool,
    /// Post-reject swallow phase: remaining byte budget and its deadline.
    draining: Option<(usize, Instant)>,
}

/// What `pump` decided about a connection.
#[derive(PartialEq)]
enum Verdict {
    Keep,
    Close,
}

struct Reactor {
    ep: Epoll,
    listener: Option<TcpListener>,
    service: Arc<QuoteService>,
    shared: Arc<ReactorShared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Events::with_capacity(EVENT_CAPACITY);
        loop {
            if self.shared.exit.load(Ordering::Acquire) {
                self.exit_flush(&mut events);
                return;
            }
            if self.shared.stop_accepting.load(Ordering::Acquire) {
                // Dropping the listener closes it; pending SYNs are
                // refused from here on.
                if let Some(listener) = self.listener.take() {
                    let _ = self.ep.delete(listener.as_raw_fd());
                }
            }
            let timeout = self.drain_timeout();
            if self.ep.wait(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable for the loop;
                // exit rather than spin.  (EINTR is retried in the shim.)
                return;
            }
            let o = self.service.obs();
            o.reactor_loop_iterations.inc();
            if !events.is_empty() {
                o.reactor_events_per_wake.record(events.len() as u64);
            }
            // A hangup (peer closed either half) is handled on the read
            // path: the next read observes EOF or the error.
            let fired: Vec<(u64, bool, bool)> = events
                .iter()
                .map(|e| (e.token, e.readable() || e.hangup(), e.writable()))
                .collect();
            // Connections first, accepts last: a close event (peer EOF)
            // delivered in the same wait as a pending SYN releases its
            // slot *before* the accept decision, so a reconnect straight
            // after `drop(conn)` observes the freed capacity instead of
            // racing it.  (Loopback FINs are processed during `close`, so
            // any wait that reports the SYN also reports those EOFs.)
            for &(token, readable, writable) in &fired {
                if token != TOKEN_LISTENER && token != TOKEN_WAKER {
                    self.pump_token(token, readable, writable);
                }
            }
            for &(token, _, _) in &fired {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.shared.waker.drain();
                    }
                    _ => {}
                }
            }
            // Connections whose tickets resolved since the last pass.
            let ready = std::mem::take(&mut *lock_unpoisoned(&self.shared.ready));
            for token in ready {
                self.pump_token(token, false, false);
            }
            // Deadline sweeps for draining connections (a silent peer
            // only surfaces through the wait timeout).
            self.sweep_drains();
        }
    }

    /// The `epoll_wait` timeout: unbounded unless a draining connection's
    /// deadline bounds it.
    fn drain_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .filter_map(|c| c.draining.map(|(_, deadline)| deadline.saturating_duration_since(now)))
            .min()
    }

    /// Accepts (or refuses) at most one connection per wakeup.  The
    /// listener is level-triggered, so a non-empty backlog re-fires the
    /// next `epoll_wait` immediately; routing every accept decision
    /// through its own wait is what keeps the close-before-accept
    /// ordering honest.  Draining the whole backlog here instead could
    /// scoop up a SYN that arrived mid-loop — after FINs freed its
    /// capacity, but in a wakeup that never reported those FINs — and
    /// refuse it against a stale open count.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let open = self.conns.len() - self.free.len();
            if open >= self.service.config().max_connections {
                // Full house: close immediately (the peer sees EOF and
                // can retry elsewhere) rather than queueing unboundedly.
                self.service.obs().reactor_refused.inc();
                return;
            }
            if epoll::set_nonblocking(stream.as_raw_fd()).is_err() {
                return;
            }
            stream.set_nodelay(true).ok();
            let slot = self.free.pop().unwrap_or(self.conns.len());
            let token = slot as u64 + TOKEN_CONN_BASE;
            if self.ep.add(stream.as_raw_fd(), Interest::READ, token).is_err() {
                // Return the slot only if it came from the free list: a
                // fresh slot has no `conns` entry, and pushing it onto
                // `free` would undercount open connections forever.
                if slot < self.conns.len() {
                    self.free.push(slot);
                }
                return;
            }
            let conn = Conn {
                stream,
                token,
                client: self.service.client(),
                lines: LineAssembler::new(),
                wbuf: Vec::new(),
                wpos: 0,
                pending: VecDeque::new(),
                registered: Interest::READ,
                peer_eof: false,
                rejected: false,
                draining: None,
            };
            if slot == self.conns.len() {
                self.conns.push(Some(conn));
            } else if let Some(entry) = self.conns.get_mut(slot) {
                *entry = Some(conn);
            }
            let o = self.service.obs();
            o.reactor_accepted.inc();
            o.reactor_open.add(1);
            return;
        }
    }

    /// Pumps the connection behind `token` (no-op for stale tokens).
    fn pump_token(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(slot) = token.checked_sub(TOKEN_CONN_BASE).map(|s| s as usize) else { return };
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        let verdict = pump(conn, &self.ep, &self.service, &self.shared, readable, writable);
        if verdict == Verdict::Close {
            self.close_slot(slot);
        }
    }

    /// Closes draining connections whose deadline passed.
    fn sweep_drains(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = self
                .conns
                .get(slot)
                .and_then(Option::as_ref)
                .and_then(|c| c.draining)
                .is_some_and(|(_, deadline)| now >= deadline);
            if expired {
                self.close_slot(slot);
            }
        }
    }

    fn close_slot(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else { return };
        let _ = self.ep.delete(conn.stream.as_raw_fd());
        self.free.push(slot);
        self.service.obs().reactor_open.sub(1);
        // `conn.stream` drops here, closing the socket.
    }

    /// Shutdown path: every accepted ticket is already resolvable (the
    /// service drained first), so resolve and flush each connection's
    /// pipeline, waiting briefly on `EPOLLOUT` for slow peers, then close
    /// everything.
    fn exit_flush(&mut self, events: &mut Events) {
        let deadline = Instant::now() + EXIT_FLUSH_DEADLINE;
        loop {
            let mut outstanding = false;
            for slot in 0..self.conns.len() {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                let verdict = pump(conn, &self.ep, &self.service, &self.shared, false, true);
                if verdict == Verdict::Close {
                    self.close_slot(slot);
                } else if self
                    .conns
                    .get(slot)
                    .and_then(Option::as_ref)
                    .is_some_and(|c| !c.pending.is_empty() || c.wpos < c.wbuf.len())
                {
                    outstanding = true;
                }
            }
            if !outstanding || Instant::now() >= deadline {
                break;
            }
            if self.ep.wait(events, Some(Duration::from_millis(50))).is_err() {
                break;
            }
        }
        for slot in 0..self.conns.len() {
            self.close_slot(slot);
        }
    }
}

/// Drives one connection as far as it can go without blocking: read and
/// parse new input, resolve and encode completed replies, write, and
/// re-register interest.  Returns whether the connection stays open.
fn pump(
    conn: &mut Conn,
    ep: &Epoll,
    service: &QuoteService,
    shared: &Arc<ReactorShared>,
    readable: bool,
    writable: bool,
) -> Verdict {
    if conn.draining.is_some() {
        return pump_drain(conn);
    }
    let inflight_cap = service.config().per_conn_inflight;
    let plan = service.config().fault.as_deref();
    if readable
        && !conn.peer_eof
        && !conn.rejected
        && pump_read(conn, service, shared, inflight_cap, plan) == Verdict::Close
    {
        return Verdict::Close;
    }
    let _ = writable; // level-triggered: the write pump always tries
    loop {
        if pump_write(conn, plan) == Verdict::Close {
            return Verdict::Close;
        }
        // Draining replies frees pipeline slots while complete lines may
        // still sit in `rbuf` — parsing stops at the in-flight cap, and
        // those bytes have already left the kernel buffer, so no EPOLLIN
        // will ever re-announce them (ready-list pumps arrive with
        // `readable == false`).  Re-parse until the cap re-binds or the
        // buffer holds no complete line, writing as replies become ready.
        // This also runs under `peer_eof`, so requests fully received
        // before a half-close are answered instead of silently dropped.
        if conn.rejected {
            break;
        }
        let before = conn.pending.len();
        parse_lines(conn, service, shared, inflight_cap);
        if conn.pending.len() == before {
            break;
        }
    }
    let flushed = conn.pending.is_empty() && conn.wpos >= conn.wbuf.len();
    if flushed {
        if conn.rejected {
            // Reply delivered; now keep the close graceful: signal
            // end-of-responses and swallow what the peer is still
            // sending, bounded in bytes and time, so the error line is
            // not torn down by a TCP reset.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.draining = Some((DRAIN_BUDGET, Instant::now() + DRAIN_DEADLINE));
            conn.lines = LineAssembler::new();
            set_interest(conn, ep, Interest::READ);
            return pump_drain(conn);
        }
        if conn.peer_eof {
            return Verdict::Close;
        }
    }
    // Re-register: read while the pipeline has room (and the line wasn't
    // rejected), write only while bytes are stuck in `wbuf`.
    let want_read = !conn.peer_eof && !conn.rejected && conn.pending.len() < inflight_cap.max(1);
    let want_write = conn.wpos < conn.wbuf.len();
    let interest = match (want_read, want_write) {
        (true, true) => Interest::BOTH,
        (true, false) => Interest::READ,
        (false, true) => Interest::WRITE,
        (false, false) => Interest::NONE,
    };
    set_interest(conn, ep, interest);
    Verdict::Keep
}

fn set_interest(conn: &mut Conn, ep: &Epoll, interest: Interest) {
    if conn.registered != interest
        && ep.modify(conn.stream.as_raw_fd(), interest, conn.token).is_ok()
    {
        conn.registered = interest;
    }
}

/// Reads until `WouldBlock`, EOF, the in-flight cap, or a rejected line,
/// parsing complete lines as they arrive.  Under a [`FaultPlan`] each read
/// may be shortened, turned into a spurious `WouldBlock`, or replaced by a
/// connection reset — exercising exactly the resumption paths a hostile
/// kernel would.
fn pump_read(
    conn: &mut Conn,
    service: &QuoteService,
    shared: &Arc<ReactorShared>,
    inflight_cap: usize,
    plan: Option<&FaultPlan>,
) -> Verdict {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        if conn.pending.len() >= inflight_cap.max(1) {
            return Verdict::Keep; // backpressure: leave input in the kernel
        }
        let fault = plan.map(|p| p.read_fault(READ_CHUNK)).unwrap_or(IoFault::None);
        let read = match fault {
            IoFault::Reset => return Verdict::Close,
            IoFault::Eagain => return Verdict::Keep, // storm: retry next wake
            IoFault::Short(n) => match chunk.get_mut(..n.max(1)) {
                Some(window) => conn.stream.read(window),
                None => conn.stream.read(&mut chunk),
            },
            IoFault::None => conn.stream.read(&mut chunk),
        };
        match read {
            Ok(0) => {
                conn.peer_eof = true;
                return Verdict::Keep; // half-close: flush, then close
            }
            Ok(n) => {
                conn.lines.push(chunk.get(..n).unwrap_or_default());
                parse_lines(conn, service, shared, inflight_cap);
                if conn.rejected {
                    // Stop reading; leftover input is swallowed by the
                    // drain phase once the error reply is flushed.
                    return Verdict::Keep;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }
}

/// Extracts and processes every complete line buffered in the
/// connection's [`LineAssembler`], up to the in-flight cap.  Blank lines
/// are skipped; `metrics` / `trace` and undecodable lines are
/// answered inline; everything else is submitted and answered when its
/// ticket resolves.  A line the assembler rejects — no newline within
/// [`wire::MAX_LINE_BYTES`] ("exceeds" for a valid-UTF-8 prefix, "not
/// valid UTF-8 or exceeds" for hostile bytes or a cap mid-character) — is
/// answered once with that parse error and marks the connection rejected.
fn parse_lines(conn: &mut Conn, service: &QuoteService, shared: &Arc<ReactorShared>, cap: usize) {
    loop {
        if conn.pending.len() >= cap.max(1) {
            return; // backpressure mid-buffer: resume after replies drain
        }
        let line = match conn.lines.next_line() {
            None => return,
            Some(Err(e)) => {
                conn.pending.push_back(Reply::Ready(wire::encode_error(
                    "null",
                    "parse",
                    &e.message(),
                )));
                conn.rejected = true;
                return;
            }
            Some(Ok(line)) => line,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Start the trace card *before* decoding so the parse interval
        // covers the actual wire decode, then stamp once the line parsed.
        let trace = service.obs().trace_start();
        let (id, decoded) = wire::decode_request(trimmed);
        let reply = match decoded {
            Err(e) => Reply::Ready(wire::encode_error(&id, "parse", &e)),
            Ok(WireRequest::Metrics) => {
                Reply::Ready(wire::encode_metrics(&id, &service.metrics_text()))
            }
            Ok(WireRequest::Trace(n)) => {
                Reply::Ready(wire::encode_trace(&id, &service.recent_traces(n)))
            }
            Ok(WireRequest::Submit(request, deadline)) => {
                if let Some(trace) = &trace {
                    trace.set_id(id.parse().unwrap_or_else(|_| service.obs().next_trace_id()));
                    trace.set_kind(ServiceObs::kind_of(&request));
                    trace.stamp(Stage::Parsed);
                }
                match conn.client.submit_traced(request, deadline, trace) {
                    Ok(ticket) => {
                        // A quote answered at submit leaves in this same
                        // pump: no callback, no eventfd self-kick.
                        if !ticket.is_resolved() {
                            arm_notify(&ticket, shared, conn.token);
                        }
                        Reply::Pending { id, ticket }
                    }
                    Err(e) => Reply::Ready(wire::encode_result(&id, &Err(e))),
                }
            }
        };
        conn.pending.push_back(reply);
    }
}

/// Arms the ticket's completion callback: push the connection token onto
/// the ready list and kick the eventfd.  Runs on the completing worker —
/// or inline if the batch executed since the caller looked — always
/// outside queue locks.
fn arm_notify(ticket: &Ticket, shared: &Arc<ReactorShared>, token: u64) {
    let shared = Arc::clone(shared);
    ticket.set_notify(Box::new(move || {
        lock_unpoisoned(&shared.ready).push(token);
        let _ = shared.waker.wake();
    }));
}

/// Resolves replies in request order into `wbuf` and writes as much as the
/// socket accepts.  Under a [`FaultPlan`] a write may be shortened (the
/// `wpos` cursor resumes it) or replaced by a reset mid-line.
fn pump_write(conn: &mut Conn, plan: Option<&FaultPlan>) -> Verdict {
    loop {
        // Top up the write buffer from the head of the reply pipeline.
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            while let Some(front) = conn.pending.front() {
                let line = match front {
                    Reply::Ready(_) => {
                        let Some(Reply::Ready(line)) = conn.pending.pop_front() else { break };
                        line
                    }
                    Reply::Pending { ticket, .. } => {
                        let Some(result) = ticket.try_take() else { break };
                        let Some(Reply::Pending { id, .. }) = conn.pending.pop_front() else {
                            break;
                        };
                        wire::encode_result(&id, &result)
                    }
                };
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
                if conn.wbuf.len() >= READ_CHUNK {
                    break; // write in socket-buffer-sized slabs
                }
            }
            if conn.wbuf.is_empty() {
                return Verdict::Keep; // nothing resolvable right now
            }
        }
        // Flush what we have.
        let Some(unsent) = conn.wbuf.get(conn.wpos..) else { return Verdict::Keep };
        let fault = plan.map(|p| p.write_fault(unsent.len())).unwrap_or(IoFault::None);
        let wrote = match fault {
            IoFault::Reset => return Verdict::Close,
            IoFault::Eagain => return Verdict::Keep,
            IoFault::Short(n) => conn.stream.write(unsent.get(..n.max(1)).unwrap_or(unsent)),
            IoFault::None => conn.stream.write(unsent),
        };
        match wrote {
            Ok(0) => return Verdict::Close,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }
}

/// Swallows post-reject input within the byte/time budget; closes on EOF,
/// error, or an exhausted budget.
fn pump_drain(conn: &mut Conn) -> Verdict {
    let Some((mut budget, deadline)) = conn.draining else { return Verdict::Keep };
    if Instant::now() >= deadline {
        return Verdict::Close;
    }
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        if budget == 0 {
            return Verdict::Close;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Verdict::Close,
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.draining = Some((budget, deadline));
                return Verdict::Keep;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }
}
