//! Narrow Linux `epoll`/`eventfd` wrapper for the service's reactor front
//! end (see `shims/README.md`).
//!
//! ## Unsafe-confinement policy
//!
//! Every other crate in this workspace but the rayon shim (one lifetime
//! erasure in its scheduler) carries `#![forbid(unsafe_code)]`, and the
//! `unsafe-confined` pass of `amopt-lint` machine-checks that no `unsafe`
//! token appears outside these two directories.  This crate is the
//! sanctioned exception for raw syscalls, and it keeps the exception narrow:
//!
//! * raw FFI is limited to the six syscalls the reactor needs —
//!   `epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`, `fcntl`
//!   (`O_NONBLOCK` only), and the `read`/`write`/`close` calls that service
//!   an eventfd and release descriptors;
//! * no `libc` dependency: the container builds offline, so the
//!   declarations and constants are written out here against the stable
//!   Linux 64-bit ABI;
//! * every `unsafe` block is a single syscall with a `SAFETY:` comment, and
//!   the types exposed ([`Epoll`], [`Events`], [`Waker`]) own their file
//!   descriptors and close them on drop, so callers never touch a raw
//!   pointer or an unowned fd lifetime.
//!
//! The wrapper is Linux-only by construction (epoll *is* Linux-only); the
//! workspace's CI and deployment targets are Linux.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::io;
use std::os::unix::io::RawFd;

// ---------------------------------------------------------------------------
// Raw ABI: declarations and constants (Linux 64-bit)
// ---------------------------------------------------------------------------

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0x800;

/// One kernel-side event record.  On x86-64 the kernel ABI packs this to 12
/// bytes; other 64-bit Linux targets use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `-1` from a syscall → the thread-local `errno` as an [`io::Error`].
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------------
// Safe surface
// ---------------------------------------------------------------------------

/// Readiness interests to register a descriptor with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Read-readiness only.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-readiness only.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Both read- and write-readiness.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    /// Neither direction — the registration stays parked (full-close hangup
    /// and error conditions still surface; `EPOLLHUP`/`EPOLLERR` cannot be
    /// masked off).  Used to mute a backpressured connection without
    /// churning add/delete.
    pub const NONE: Interest = Interest { readable: false, writable: false };

    fn mask(self) -> u32 {
        // EPOLLRDHUP rides along with read interest so a peer's half-close
        // surfaces as an explicit event.  It is deliberately *not* part of
        // write-only or parked registrations: a level-triggered RDHUP on a
        // connection that has nothing to read would re-fire every wait and
        // spin the loop.
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One delivered readiness event: the registration token plus what fired.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `token` the descriptor was registered with.
    pub token: u64,
    bits: u32,
}

impl Event {
    /// Data can (probably) be read without blocking.
    pub fn readable(&self) -> bool {
        self.bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0
    }

    /// Data can (probably) be written without blocking.
    pub fn writable(&self) -> bool {
        self.bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }

    /// The peer closed its end (full close or write-half shutdown).
    pub fn hangup(&self) -> bool {
        self.bits & (EPOLLHUP | EPOLLRDHUP) != 0
    }

    /// An error condition is pending on the descriptor.
    pub fn error(&self) -> bool {
        self.bits & EPOLLERR != 0
    }
}

/// Reusable buffer [`Epoll::wait`] fills with delivered [`Event`]s.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait (min 1).
    pub fn with_capacity(capacity: usize) -> Events {
        Events { buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)], len: 0 }
    }

    /// Events delivered by the most recent [`Epoll::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) record before field access.
            let EpollEvent { events, data } = *e;
            Event { token: data, bits: events }
        })
    }

    /// Number of events delivered by the most recent [`Epoll::wait`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the most recent [`Epoll::wait`] delivered nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events").field("capacity", &self.buf.len()).field("len", &self.len).finish()
    }
}

/// Fault-injection hook consulted once per [`Epoll::wait`] call.
///
/// When [`spurious_wakeup`](WaitFault::spurious_wakeup) returns `true` the
/// wait returns `Ok(0)` without touching the kernel — exactly what a
/// spurious wakeup or an early-timeout looks like to the caller.  Because
/// this instance is level-triggered, real readiness is re-delivered by the
/// next wait, so the hook can only delay progress, never lose events.
/// Implementations must be deterministic if reproducible schedules are
/// wanted; the shim imposes no policy.
pub trait WaitFault: Send {
    /// Whether this wait call should wake spuriously with zero events.
    fn spurious_wakeup(&self) -> bool;
}

/// An owned epoll instance (level-triggered).
///
/// Registered descriptors are identified by a caller-chosen `u64` token;
/// the instance does not take ownership of them — callers keep their
/// `TcpStream`s/`TcpListener`s and must [`delete`](Epoll::delete) (or drop
/// the whole `Epoll`) before closing a registered fd.
pub struct Epoll {
    fd: RawFd,
    fault: Option<Box<dyn WaitFault>>,
}

impl std::fmt::Debug for Epoll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoll")
            .field("fd", &self.fd)
            .field("fault", &self.fault.as_ref().map(|_| "WaitFault"))
            .finish()
    }
}

impl Epoll {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; epoll_create1 allocates a new fd or fails.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd, fault: None })
    }

    /// Installs a [`WaitFault`] hook, consulted once per [`wait`](Epoll::wait).
    /// Intended for deterministic fault injection in tests and chaos runs.
    pub fn set_wait_fault(&mut self, fault: Box<dyn WaitFault>) {
        self.fault = Some(fault);
    }

    fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: mask, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies the record
        // before returning (EPOLL_CTL_DEL ignores it entirely).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `interest`, delivering `token` with its events.
    pub fn add(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes the interest/token of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered descriptor is ready (or the
    /// timeout elapses), filling `events`.  `timeout` of `None` waits
    /// indefinitely.  Returns the number of delivered events; `0` means the
    /// timeout elapsed.  Interrupted waits (`EINTR`) are retried.
    pub fn wait(
        &self,
        events: &mut Events,
        timeout: Option<std::time::Duration>,
    ) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1i32,
            // Round up so a 0 < t < 1ms timeout still sleeps instead of
            // spinning, and clamp to the i32 the ABI carries.
            Some(t) => {
                i32::try_from(t.as_millis().max(1).min(i32::MAX as u128)).unwrap_or(i32::MAX)
            }
        };
        events.len = 0;
        if let Some(fault) = &self.fault {
            if fault.spurious_wakeup() {
                return Ok(0);
            }
        }
        loop {
            let cap = events.buf.len() as i32;
            // SAFETY: the buffer holds `cap` initialised EpollEvent records
            // and outlives the call; the kernel writes at most `cap`.
            let n = unsafe { epoll_wait(self.fd, events.buf.as_mut_ptr(), cap, timeout_ms) };
            match cvt(n) {
                Ok(n) => {
                    events.len = n as usize;
                    return Ok(events.len);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an fd this struct owns and closes exactly once.
        let _ = unsafe { close(self.fd) };
    }
}

/// An `eventfd`-backed wakeup handle: any thread can [`wake`](Waker::wake)
/// a reactor blocked in [`Epoll::wait`].
///
/// Register [`as_raw_fd`](Waker::as_raw_fd) with read interest; when the
/// token fires, call [`drain`](Waker::drain) to re-arm.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd (non-blocking, close-on-exec).
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers; eventfd allocates a new fd or fails.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The descriptor to register with the reactor's [`Epoll`].
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the eventfd readable, waking a blocked [`Epoll::wait`].
    /// Idempotent until drained; never blocks.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: writes exactly the 8 bytes of `one`, which outlives the
        // call; eventfd writes are atomic at this size.
        let n = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        // EAGAIN means the counter is already at its max — the reactor is
        // provably wake-pending, which is all a waker promises.
        if n == 8 || io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Consumes pending wakeups so the next [`wake`](Waker::wake) fires the
    /// epoll again.  Returns whether any wakeup was pending.
    pub fn drain(&self) -> bool {
        let mut count = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a buffer of 8 that outlives
        // the call; the fd is non-blocking so this never parks the reactor.
        let n = unsafe { read(self.fd, count.as_mut_ptr(), 8) };
        n == 8
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an fd this struct owns and closes exactly once.
        let _ = unsafe { close(self.fd) };
    }
}

/// Switches `fd` into non-blocking mode (`O_NONBLOCK` via `fcntl`).
///
/// Used instead of `TcpStream::set_nonblocking` only where no std wrapper
/// owns the descriptor; std types should use their own setters.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL takes no third argument and returns flags or -1.
    let flags = cvt(unsafe { fcntl(fd, F_GETFL) })?;
    if flags & O_NONBLOCK != 0 {
        return Ok(());
    }
    // SAFETY: F_SETFL takes the new flag word as its variadic int argument.
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn wait_fault_hook_injects_spurious_wakeups_without_losing_readiness() {
        struct EveryOther(std::sync::atomic::AtomicU64);
        impl WaitFault for EveryOther {
            fn spurious_wakeup(&self) -> bool {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed).is_multiple_of(2)
            }
        }
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), Interest::READ, 9).unwrap();
        ep.set_wait_fault(Box::new(EveryOther(std::sync::atomic::AtomicU64::new(0))));
        b.write_all(b"ping").unwrap();
        let mut events = Events::with_capacity(8);
        // First wait fires the hook: zero events even though data is pending.
        assert_eq!(ep.wait(&mut events, Some(Duration::from_millis(100))).unwrap(), 0);
        // Level-triggered re-delivery: the next wait sees the readiness.
        assert_eq!(ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap(), 1);
        assert!(events.iter().any(|e| e.token == 9 && e.readable()));
    }

    #[test]
    fn wait_times_out_with_nothing_registered() {
        let ep = Epoll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let n = ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_round_trip() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), Interest::BOTH, 7).unwrap();
        let mut events = Events::with_capacity(8);

        // Fresh socket: writable, not readable.
        ep.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event for token 7");
        assert!(ev.writable() && !ev.hangup());

        // Peer writes → readable.
        b.write_all(b"ping").unwrap();
        ep.modify(a.as_raw_fd(), Interest::READ, 7).unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("readable event");
        assert!(ev.readable());
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 4);

        // Peer closes → hangup.
        drop(b);
        ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("hangup event");
        assert!(ev.hangup());

        ep.delete(a.as_raw_fd()).unwrap();
        let n = ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "deregistered fd must stop reporting");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let ep = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        ep.add(waker.as_raw_fd(), Interest::READ, 1).unwrap();
        let mut events = Events::with_capacity(4);

        // Unwoken: times out.
        assert_eq!(ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);

        // Wake from another thread while blocked.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake().unwrap();
            });
            let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1);
            assert_eq!(events.iter().next().unwrap().token, 1);
        });

        // Drain re-arms; double-wake coalesces into one readable state.
        waker.wake().unwrap();
        waker.wake().unwrap();
        assert!(waker.drain());
        assert!(!waker.drain(), "drained waker has nothing pending");
        assert_eq!(ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn set_nonblocking_is_idempotent_and_effective() {
        let (a, _b) = UnixStream::pair().unwrap();
        set_nonblocking(a.as_raw_fd()).unwrap();
        set_nonblocking(a.as_raw_fd()).unwrap();
        let mut a = a;
        let mut buf = [0u8; 4];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn interest_masks_request_rdhup() {
        assert_eq!(Interest::READ.mask(), EPOLLIN | EPOLLRDHUP);
        assert_eq!(Interest::WRITE.mask(), EPOLLOUT);
        assert_eq!(Interest::BOTH.mask(), EPOLLIN | EPOLLOUT | EPOLLRDHUP);
        assert_eq!(Interest::NONE.mask(), 0);
    }
}
