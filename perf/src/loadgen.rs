//! Load generators for the service workloads: an open loop that sends on a
//! fixed schedule whatever the server does, and a closed loop whose clients
//! each keep a fixed number of requests in flight.
//!
//! Both talk to the server the way a user does — line-JSON over loopback
//! TCP — and keep every reply byte for the correctness check that follows
//! the timed region.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long after the last scheduled send the open loop keeps listening for
/// replies; anything later counts as failed.
pub const DRAIN: Duration = Duration::from_secs(2);

/// Nanoseconds from `origin` to `t` (zero when `t` is earlier).
fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// When request `k` of a `rate`-per-second schedule is due, in nanoseconds
/// after the schedule's start.
pub fn due_ns(k: usize, rate: f64) -> u64 {
    (k as f64 * 1e9 / rate) as u64
}

/// What the open-loop sender does with the clock and the wire; the real one
/// sleeps and writes sockets, the test double does neither.
pub trait SendPort {
    /// Nanoseconds since the schedule started.
    fn now_ns(&mut self) -> u64;
    /// Blocks until roughly `until_ns` (may overshoot).
    fn sleep_until(&mut self, until_ns: u64);
    /// Sends request `k`.
    fn send(&mut self, k: usize) -> io::Result<()>;
    /// Pushes out whatever `send` buffered.
    fn flush(&mut self) -> io::Result<()>;
}

/// The open-loop schedule: request `k` is due at `due_ns(k, rate)` and is
/// sent at the first wake-up at or after that instant, together with every
/// other request already due — the generator never waits for a reply and
/// never skips a request, so a stall shows as lateness, not as lost load.
/// Returns each request's actual send time (ns since start).
pub fn run_schedule(port: &mut impl SendPort, n: usize, rate: f64) -> io::Result<Vec<u64>> {
    let mut sent = Vec::with_capacity(n);
    while sent.len() < n {
        let now = port.now_ns();
        if due_ns(sent.len(), rate) > now {
            port.sleep_until(due_ns(sent.len(), rate));
            continue;
        }
        while sent.len() < n && due_ns(sent.len(), rate) <= now {
            port.send(sent.len())?;
            sent.push(now);
        }
        port.flush()?;
    }
    Ok(sent)
}

/// One connection's share of an open-loop run.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Indices of the requests sent on this connection, in send order —
    /// replies come back in the same order.
    pub order: Vec<u32>,
    /// Every byte the server wrote back.
    pub reply_bytes: Vec<u8>,
    /// Arrival time (ns since start) of each complete reply line.
    pub arrivals: Vec<u64>,
}

/// Raw outcome of an open-loop run over two connections (0 = bulk,
/// 1 = deadline class).
#[derive(Debug)]
pub struct OpenLoopLog {
    /// The schedule's start: every time below is nanoseconds after it.
    pub origin: Instant,
    /// Actual send time of every request, ns since the schedule's start.
    pub sent_ns: Vec<u64>,
    pub conns: [ConnLog; 2],
    /// When the receiver stopped listening, ns since start.
    pub end_ns: u64,
}

struct TcpPort<'l, 's> {
    origin: Instant,
    lines: &'l dyn Fn(usize) -> (&'l [u8], usize),
    streams: [&'s TcpStream; 2],
    pending: [Vec<u8>; 2],
}

impl SendPort for TcpPort<'_, '_> {
    fn now_ns(&mut self) -> u64 {
        ns_since(self.origin, Instant::now())
    }

    fn sleep_until(&mut self, until_ns: u64) {
        let now = self.now_ns();
        std::thread::sleep(Duration::from_nanos(until_ns.saturating_sub(now)));
    }

    fn send(&mut self, k: usize) -> io::Result<()> {
        let (line, conn) = (self.lines)(k);
        self.pending[conn].extend_from_slice(line);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        for (mut stream, pending) in self.streams.iter().copied().zip(&mut self.pending) {
            if !pending.is_empty() {
                stream.write_all(pending)?;
                pending.clear();
            }
        }
        Ok(())
    }
}

/// Runs `n` requests at `rate` per second against `addr`: one sender thread
/// on the schedule, one receiver thread multiplexing both connections.
/// `line(k)` gives request `k`'s bytes and its connection (0 or 1).
pub fn open_loop<'a>(
    addr: SocketAddr,
    n: usize,
    rate: f64,
    line: &'a (dyn Fn(usize) -> (&'a [u8], usize) + Sync),
) -> io::Result<OpenLoopLog> {
    let streams = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    for s in &streams {
        s.set_nodelay(true)?;
    }
    let mut conns = [ConnLog::default(), ConnLog::default()];
    for k in 0..n {
        conns[line(k).1].order.push(k as u32);
    }
    let expected = [conns[0].order.len(), conns[1].order.len()];
    let sender_done = AtomicBool::new(false);
    // A short lead so both threads are running before the first due time.
    let origin = Instant::now() + Duration::from_millis(20);

    let (sent, end_ns) = std::thread::scope(|scope| -> io::Result<(Vec<u64>, u64)> {
        let receiver = scope.spawn(|| -> io::Result<u64> {
            let poll = epoll::Epoll::new()?;
            for (token, s) in streams.iter().enumerate() {
                poll.add(s.as_raw_fd(), epoll::Interest::READ, token as u64)?;
            }
            let mut events = epoll::Events::with_capacity(4);
            let mut chunk = vec![0u8; 64 * 1024];
            let mut drained_since: Option<Instant> = None;
            loop {
                let complete = (0..2).all(|c| conns[c].arrivals.len() >= expected[c]);
                if complete {
                    break;
                }
                if sender_done.load(Ordering::Acquire) {
                    let since = *drained_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN {
                        break;
                    }
                }
                poll.wait(&mut events, Some(Duration::from_millis(5)))?;
                for ev in events.iter() {
                    let c = ev.token as usize;
                    // Level-triggered: one read per readiness report never
                    // blocks, and leftover bytes re-arm the next wait.
                    let got = (&streams[c]).read(&mut chunk)?;
                    let now = ns_since(origin, Instant::now());
                    if got == 0 {
                        // The server closed the connection: nothing more
                        // will arrive on it.
                        poll.delete(streams[c].as_raw_fd())?;
                        continue;
                    }
                    let lines = chunk[..got].iter().filter(|&&b| b == b'\n').count();
                    conns[c].reply_bytes.extend_from_slice(&chunk[..got]);
                    conns[c].arrivals.extend(std::iter::repeat_n(now, lines));
                }
            }
            Ok(ns_since(origin, Instant::now()))
        });
        let mut port = TcpPort {
            origin,
            lines: line,
            streams: [&streams[0], &streams[1]],
            pending: [Vec::new(), Vec::new()],
        };
        let sent = run_schedule(&mut port, n, rate);
        sender_done.store(true, Ordering::Release);
        let end_ns = receiver.join().expect("receiver thread panicked")?;
        Ok((sent?, end_ns))
    })?;
    Ok(OpenLoopLog { origin, sent_ns: sent, conns, end_ns })
}

/// One closed-loop client's log.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Which request (index into the caller's table) each send carried.
    pub order: Vec<u32>,
    /// Send and reply-arrival time of each, ns since the common start;
    /// `done_ns` is shorter than `sent_ns` when replies went missing.
    pub sent_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub reply_bytes: Vec<u8>,
}

/// Runs `clients` connections, each keeping `depth` requests in flight for
/// `seconds`, then draining.  Client `c` sends `requests(c, j)` as its
/// `j`-th request.  Returns the common start with the clients' logs.
pub fn closed_loop<'a>(
    addr: SocketAddr,
    clients: usize,
    depth: usize,
    seconds: f64,
    requests: &'a (dyn Fn(usize, usize) -> (u32, &'a [u8]) + Sync),
) -> io::Result<(Instant, Vec<ClientLog>)> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> io::Result<ClientLog> {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(DRAIN))?;
                    let mut reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
                    let mut writer = &stream;
                    let mut log = ClientLog::default();
                    let mut burst = Vec::new();
                    loop {
                        // Top the pipeline up to `depth` while the clock runs.
                        let now = Instant::now();
                        let in_flight = log.sent_ns.len() - log.done_ns.len();
                        if now < deadline && in_flight < depth {
                            burst.clear();
                            for _ in in_flight..depth {
                                let (id, line) = requests(c, log.order.len());
                                log.order.push(id);
                                log.sent_ns.push(ns_since(origin, now));
                                burst.extend_from_slice(line);
                            }
                            writer.write_all(&burst)?;
                        }
                        if log.sent_ns.len() == log.done_ns.len() {
                            break;
                        }
                        // Take one reply, then every further one already
                        // buffered, before topping up again.
                        loop {
                            let before = log.reply_bytes.len();
                            match reader.read_until(b'\n', &mut log.reply_bytes) {
                                Ok(0) => return Ok(log),
                                Ok(_) => {}
                                Err(e)
                                    if matches!(
                                        e.kind(),
                                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                                    ) =>
                                {
                                    log.reply_bytes.truncate(before);
                                    return Ok(log);
                                }
                                Err(e) => return Err(e),
                            }
                            log.done_ns.push(ns_since(origin, Instant::now()));
                            if !reader.buffer().contains(&b'\n') {
                                break;
                            }
                        }
                    }
                    Ok(log)
                })
            })
            .collect();
        let logs: io::Result<Vec<ClientLog>> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        Ok((origin, logs?))
    })
}

/// A reply line checked against the request it answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// `ok` with this price.
    Price(f64),
    /// Well-formed but not `ok` (overloaded, shutdown, pricing error).
    Refused,
    /// Not a reply to this request at all.
    Malformed,
}

/// Reads one reply line: it must echo `id` and carry either a price or an
/// error.  Parsed by hand so the check shares no code with the codec under
/// test.
pub fn read_reply(line: &[u8], id: u64) -> Reply {
    let Ok(text) = std::str::from_utf8(line) else { return Reply::Malformed };
    let text = text.trim_end_matches(['\n', '\r']);
    let Some(rest) = text.strip_prefix(&format!("{{\"id\":{id},\"ok\":")) else {
        return Reply::Malformed;
    };
    if let Some(price) = rest.strip_prefix("true,\"price\":").and_then(|r| r.strip_suffix('}')) {
        return price.parse::<f64>().map_or(Reply::Malformed, Reply::Price);
    }
    if rest.starts_with("false,") && rest.ends_with('}') {
        Reply::Refused
    } else {
        Reply::Malformed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A port with a scripted clock: each sleep overshoots by `overshoot`,
    /// and one stall of `stall` ns happens at `stall_at`.
    struct FakePort {
        now: u64,
        overshoot: u64,
        stall_at: u64,
        stall: u64,
        sends: Vec<(usize, u64)>,
        flushes: usize,
    }

    impl SendPort for FakePort {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn sleep_until(&mut self, until_ns: u64) {
            self.now = until_ns + self.overshoot;
            if self.stall > 0 && self.now >= self.stall_at {
                self.now += self.stall;
                self.stall = 0;
            }
        }
        fn send(&mut self, k: usize) -> io::Result<()> {
            self.sends.push((k, self.now));
            Ok(())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn the_schedule_is_fixed_by_the_rate_alone() {
        assert_eq!(due_ns(0, 2_000.0), 0);
        assert_eq!(due_ns(1, 2_000.0), 500_000);
        assert_eq!(due_ns(20_000, 20_000.0), 1_000_000_000);
    }

    #[test]
    fn a_stalled_generator_sends_late_but_sends_everything_and_reports_it() {
        // 1 kHz schedule, 10 us timer overshoot, one 5 ms stall at t = 20 ms.
        let mut port = FakePort {
            now: 0,
            overshoot: 10_000,
            stall_at: 20_000_000,
            stall: 5_000_000,
            sends: vec![],
            flushes: 0,
        };
        let sent = run_schedule(&mut port, 50, 1_000.0).unwrap();
        assert_eq!(sent.len(), 50);
        assert_eq!(port.sends.iter().map(|s| s.0).collect::<Vec<_>>(), (0..50).collect::<Vec<_>>());
        let late: Vec<u64> =
            sent.iter().enumerate().map(|(k, &t)| t - due_ns(k, 1_000.0)).collect();
        // Nothing is ever sent early; outside the stall lateness is the overshoot.
        assert_eq!(late[0], 0);
        assert_eq!(late[5], 10_000);
        // The request due at the stall is 5 ms late, the ones that fell due
        // during it are sent in the same burst with shrinking lateness, and
        // the schedule is back on time afterwards: due times never moved.
        assert_eq!(late[20], 5_010_000);
        assert_eq!(sent[20], sent[25]);
        assert_eq!(late[25], 10_000);
        assert_eq!(late[26], 10_000);
        assert!(port.flushes < 50, "the burst after the stall goes out in one flush");
    }

    #[test]
    fn replies_are_read_strictly() {
        assert_eq!(
            read_reply(b"{\"id\":7,\"ok\":true,\"price\":8.327021364440658}\n", 7),
            Reply::Price(8.327021364440658)
        );
        assert_eq!(read_reply(b"{\"id\":7,\"ok\":true,\"price\":8.3}", 8), Reply::Malformed);
        assert_eq!(
            read_reply(b"{\"id\":7,\"ok\":false,\"kind\":\"overloaded\",\"error\":\"x\"}\n", 7),
            Reply::Refused
        );
        assert_eq!(read_reply(b"{\"id\":7,\"ok\":true,\"price\":null}\n", 7), Reply::Malformed);
        assert_eq!(read_reply(b"garbage\n", 7), Reply::Malformed);
    }
}
