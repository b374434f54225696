//! Deterministic, seeded fault injection for the whole service stack.
//!
//! A [`FaultPlan`] is compiled from a seed and a [`FaultSchedule`] (per-site
//! firing rates).  Every injection point in the stack asks the plan whether
//! its *n*-th consultation fires; the answer is a pure function of
//! `(seed, site, n)` — no wall clock, no global RNG — so the same seed
//! replays the identical fault schedule, byte for byte.  The only mutable
//! state is a per-site consultation counter, which exists so concurrent
//! callers each consume a distinct index; the *decisions* those indices map
//! to are fixed the moment the plan is built, and
//! [`schedule_hash`](FaultPlan::schedule_hash) digests them without running
//! anything.
//!
//! Injection sites and where they are consulted:
//!
//! | site                                | consulted by                                   |
//! |-------------------------------------|------------------------------------------------|
//! | [`FaultSite::ShortRead`]            | reactor `pump_read`                            |
//! | [`FaultSite::ShortWrite`]           | reactor `pump_write`                           |
//! | [`FaultSite::EagainStorm`]          | reactor read path (level-triggered re-fires)   |
//! | [`FaultSite::SpuriousWakeup`]       | `epoll::Epoll::wait` via the [`WaitFault`] hook |
//! | [`FaultSite::ConnReset`]            | reactor `pump_read` / `pump_write`             |
//! | [`FaultSite::ClockSkew`]            | `Client::submit_with_deadline` deadline math   |
//! | [`FaultSite::WorkerPanic`]          | executor, per price request                    |
//! | [`FaultSite::WorkerStall`]          | executor, per drained batch                    |
//! | [`FaultSite::WorkerDeath`]          | top of `worker_loop` (between batches)         |
//! | [`FaultSite::LostReply`]            | nowhere by design — see below                  |
//!
//! [`FaultSite::LostReply`] is the *deliberately unhandled* class: when its
//! rate is non-zero the executor drops the batch entries it drained instead
//! of filling their slots, violating the exactly-one-reply invariant on
//! purpose.  CI uses it to prove the chaos gate can fail; every production
//! schedule keeps its rate at zero.
//!
//! [`WaitFault`]: epoll::WaitFault

use crate::obs::ServiceObs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Number of distinct injection sites.
pub const SITE_COUNT: usize = 10;

/// Decisions hashed per site by [`FaultPlan::schedule_hash`].  Large enough
/// that any realistic run stays inside the digested horizon while keeping
/// hashing instant.
const SCHEDULE_HASH_HORIZON: u64 = 4096;

/// One class of injected fault.  Discriminants index the per-site tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Truncate a socket read to a few bytes.
    ShortRead = 0,
    /// Truncate a socket write to a few bytes.
    ShortWrite = 1,
    /// Report `EAGAIN` from a read that would have produced data.
    EagainStorm = 2,
    /// Wake `Epoll::wait` with zero events.
    SpuriousWakeup = 3,
    /// Kill the connection mid-line (reset/EOF from the peer's view).
    ConnReset = 4,
    /// Skew a submission's computed deadline by a bounded ± offset.
    ClockSkew = 5,
    /// Panic while pricing one request.
    WorkerPanic = 6,
    /// Stall a worker for a bounded duration before running a batch.
    WorkerStall = 7,
    /// Kill a worker thread between batches (the watchdog respawns it).
    WorkerDeath = 8,
    /// Drop drained batch entries without replying — the deliberately
    /// unhandled class that must make the chaos gate fail.
    LostReply = 9,
}

/// Every site, in discriminant order.
pub const FAULT_SITES: [FaultSite; SITE_COUNT] = [
    FaultSite::ShortRead,
    FaultSite::ShortWrite,
    FaultSite::EagainStorm,
    FaultSite::SpuriousWakeup,
    FaultSite::ConnReset,
    FaultSite::ClockSkew,
    FaultSite::WorkerPanic,
    FaultSite::WorkerStall,
    FaultSite::WorkerDeath,
    FaultSite::LostReply,
];

impl FaultSite {
    /// Stable display name (used in reports and the chaos summary).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ShortRead => "short-read",
            FaultSite::ShortWrite => "short-write",
            FaultSite::EagainStorm => "eagain-storm",
            FaultSite::SpuriousWakeup => "spurious-wakeup",
            FaultSite::ConnReset => "conn-reset",
            FaultSite::ClockSkew => "clock-skew",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::WorkerStall => "worker-stall",
            FaultSite::WorkerDeath => "worker-death",
            FaultSite::LostReply => "lost-reply",
        }
    }

    /// Whether this site models transport-level I/O.
    pub fn is_io(self) -> bool {
        matches!(
            self,
            FaultSite::ShortRead
                | FaultSite::ShortWrite
                | FaultSite::EagainStorm
                | FaultSite::SpuriousWakeup
                | FaultSite::ConnReset
        )
    }
}

/// Per-site firing rates, in parts per 1024 consultations.
///
/// A rate of `0` disables the site; `1024` fires on every consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Firing rate of each site, indexed by [`FaultSite`] discriminant.
    pub rates: [u16; SITE_COUNT],
    /// Clock-skew magnitude bound, milliseconds (applied as ±).
    pub max_skew_ms: u64,
    /// Worker-stall duration bound, milliseconds.
    pub max_stall_ms: u64,
    /// Short read/write length bound, bytes (min 1).
    pub max_short_len: usize,
}

impl FaultSchedule {
    /// The all-zero schedule: every site disabled.
    pub fn off() -> FaultSchedule {
        FaultSchedule { rates: [0; SITE_COUNT], max_skew_ms: 5, max_stall_ms: 2, max_short_len: 64 }
    }

    /// The hostile schedule the chaos soak runs: every handled class fires
    /// often enough that a mixed book sees hundreds of faults, while resets
    /// stay rare enough that retry budgets are not the bottleneck.
    pub fn hostile() -> FaultSchedule {
        FaultSchedule::off()
            .with_rate(FaultSite::ShortRead, 300)
            .with_rate(FaultSite::ShortWrite, 220)
            .with_rate(FaultSite::EagainStorm, 90)
            .with_rate(FaultSite::SpuriousWakeup, 160)
            .with_rate(FaultSite::ConnReset, 5)
            .with_rate(FaultSite::ClockSkew, 120)
            .with_rate(FaultSite::WorkerPanic, 24)
            .with_rate(FaultSite::WorkerStall, 200)
            .with_rate(FaultSite::WorkerDeath, 48)
    }

    /// Returns the schedule with `site`'s rate set to `per_1024`.
    pub fn with_rate(mut self, site: FaultSite, per_1024: u16) -> FaultSchedule {
        if let Some(slot) = self.rates.get_mut(site as usize) {
            *slot = per_1024.min(1024);
        }
        self
    }

    /// The rate configured for `site`.
    pub fn rate(&self, site: FaultSite) -> u16 {
        self.rates.get(site as usize).copied().unwrap_or(0)
    }
}

/// Fired-fault counts per site, snapshot via [`FaultPlan::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Faults fired, indexed by [`FaultSite`] discriminant.
    pub fired: [u64; SITE_COUNT],
}

impl FaultStats {
    /// Faults fired at `site`.
    pub fn fired_at(&self, site: FaultSite) -> u64 {
        self.fired.get(site as usize).copied().unwrap_or(0)
    }

    /// Total faults fired across all sites.
    pub fn total(&self) -> u64 {
        self.fired.iter().sum()
    }

    /// Total faults fired at transport-level I/O sites.
    pub fn io_total(&self) -> u64 {
        FAULT_SITES.iter().filter(|s| s.is_io()).map(|&s| self.fired_at(s)).sum()
    }

    /// `(site name, fired count)` for every site that fired at least once.
    pub fn non_zero(&self) -> Vec<(&'static str, u64)> {
        FAULT_SITES.iter().map(|&s| (s.name(), self.fired_at(s))).filter(|&(_, n)| n > 0).collect()
    }
}

/// A compiled fault plan: seed + schedule + per-site consultation counters.
///
/// Decisions are pure in `(seed, site, index)`; the counters only hand out
/// indices, so two plans with the same seed and schedule produce the same
/// decision sequence at every site regardless of thread interleaving
/// *within* a site's consultations.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    schedule: FaultSchedule,
    consulted: [AtomicU64; SITE_COUNT],
    fired: [AtomicU64; SITE_COUNT],
    /// Observability hook a service attaches at start: every firing is
    /// counted and journaled through it.  Empty until (unless) the plan
    /// serves a [`QuoteService`](crate::QuoteService); a plan driven
    /// standalone records nothing beyond its own `fired` counters.
    observer: OnceLock<Arc<ServiceObs>>,
}

/// SplitMix64: the standard 64-bit finalizer, bijective and well mixed.
/// Crate-visible so retry jitter can mix deterministically too.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The raw 64-bit draw behind the `index`-th consultation of `site`.
fn draw(seed: u64, site: FaultSite, index: u64) -> u64 {
    // Spread the site across high bits so small indices at different sites
    // never collide before mixing.
    splitmix64(seed ^ ((site as u64) << 56) ^ index)
}

/// Whether the `index`-th consultation of a site with `rate` fires.
fn decides(seed: u64, site: FaultSite, rate: u16, index: u64) -> bool {
    rate > 0 && (draw(seed, site, index) & 1023) < rate as u64
}

fn cell(cells: &[AtomicU64; SITE_COUNT], site: FaultSite) -> &AtomicU64 {
    static ZERO: AtomicU64 = AtomicU64::new(0);
    // The discriminant is always in range; the fallback cell exists only to
    // keep this total without indexing.
    cells.get(site as usize).unwrap_or(&ZERO)
}

impl FaultPlan {
    /// Compiles a plan from `seed` and `schedule`.
    pub fn new(seed: u64, schedule: FaultSchedule) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed,
            schedule,
            consulted: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
            observer: OnceLock::new(),
        })
    }

    /// Attaches the service's observability hook (first caller wins).
    pub(crate) fn attach_observer(&self, obs: Arc<ServiceObs>) {
        let _ = self.observer.set(obs);
    }

    /// The hostile chaos schedule compiled for `seed`.
    pub fn hostile(seed: u64) -> Arc<FaultPlan> {
        FaultPlan::new(seed, FaultSchedule::hostile())
    }

    /// The seed this plan was compiled from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule this plan was compiled from.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Consumes one consultation of `site`; returns the firing's
    /// consultation index when it fires (for magnitude draws).
    fn fire_indexed(&self, site: FaultSite) -> Option<u64> {
        // amopt-lint: hot-path
        let index = cell(&self.consulted, site).fetch_add(1, Ordering::Relaxed);
        if decides(self.seed, site, self.schedule.rate(site), index) {
            cell(&self.fired, site).fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.observer.get() {
                obs.fault_fired(site, index);
            }
            Some(index)
        } else {
            None
        }
    }

    /// Consumes one consultation of `site`; `true` when it fires.
    pub fn fires(&self, site: FaultSite) -> bool {
        self.fire_indexed(site).is_some()
    }

    /// Clock skew to apply to a freshly computed deadline, if this
    /// consultation fires: a deterministic offset in
    /// `[-max_skew_ms, +max_skew_ms]` milliseconds.
    pub fn clock_skew_ms(&self) -> Option<i64> {
        let index = self.fire_indexed(FaultSite::ClockSkew)?;
        let bound = self.schedule.max_skew_ms.max(1) as i64;
        let magnitude = draw(self.seed, FaultSite::ClockSkew, !index);
        Some((magnitude % (2 * bound as u64 + 1)) as i64 - bound)
    }

    /// Stall duration for this batch, if this consultation fires.
    pub fn stall(&self) -> Option<Duration> {
        let index = self.fire_indexed(FaultSite::WorkerStall)?;
        let bound = self.schedule.max_stall_ms.max(1);
        let magnitude = draw(self.seed, FaultSite::WorkerStall, !index);
        Some(Duration::from_millis(1 + magnitude % bound))
    }

    /// Truncated transfer length for a short read/write that fired at
    /// consultation `index`, in `[1, max_short_len]`, capped by `full`.
    fn short_len(&self, site: FaultSite, index: u64, full: usize) -> usize {
        let bound = self.schedule.max_short_len.max(1) as u64;
        let len = 1 + draw(self.seed, site, !index) % bound;
        (len as usize).min(full.max(1))
    }

    /// Next fault to apply to a socket read that would transfer up to
    /// `full` bytes.  Consults reset → EAGAIN → short-read, in that fixed
    /// order, so the decision sequence is reproducible.
    pub fn read_fault(&self, full: usize) -> IoFault {
        if self.fires(FaultSite::ConnReset) {
            IoFault::Reset
        } else if self.fires(FaultSite::EagainStorm) {
            IoFault::Eagain
        } else if let Some(index) = self.fire_indexed(FaultSite::ShortRead) {
            IoFault::Short(self.short_len(FaultSite::ShortRead, index, full))
        } else {
            IoFault::None
        }
    }

    /// Next fault to apply to a socket write of up to `full` bytes.
    /// Consults reset → short-write; [`FaultSite::EagainStorm`] is a
    /// read-path site and is never consulted here.
    pub fn write_fault(&self, full: usize) -> IoFault {
        if self.fires(FaultSite::ConnReset) {
            IoFault::Reset
        } else if let Some(index) = self.fire_indexed(FaultSite::ShortWrite) {
            IoFault::Short(self.short_len(FaultSite::ShortWrite, index, full))
        } else {
            IoFault::None
        }
    }

    /// Digest of the complete decision schedule: every site's rate plus its
    /// first `SCHEDULE_HASH_HORIZON` (4096) decisions per site, folded
    /// through splitmix64.  Pure in `(seed, schedule)` — computing it neither
    /// consumes consultations nor depends on what already ran — so two runs
    /// with the same seed provably face the same fault schedule.
    pub fn schedule_hash(&self) -> u64 {
        let mut h = splitmix64(self.seed ^ 0x5eed_5c4e_d01e_0000);
        for &site in &FAULT_SITES {
            let rate = self.schedule.rate(site);
            h = splitmix64(h ^ ((site as u64) << 48) ^ ((rate as u64) << 16));
            let mut bits = 0u64;
            for index in 0..SCHEDULE_HASH_HORIZON {
                bits = (bits << 1) | u64::from(decides(self.seed, site, rate, index));
                if index % 64 == 63 {
                    h = splitmix64(h ^ bits);
                    bits = 0;
                }
            }
        }
        h
    }

    /// Snapshot of fired-fault counts.
    pub fn stats(&self) -> FaultStats {
        let mut stats = FaultStats::default();
        for (slot, counter) in stats.fired.iter_mut().zip(&self.fired) {
            *slot = counter.load(Ordering::Relaxed);
        }
        stats
    }
}

/// One transport-level fault decision, produced by
/// [`read_fault`](FaultPlan::read_fault) / [`write_fault`](FaultPlan::write_fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// No fault: perform the transfer untouched.
    None,
    /// Truncate the transfer to this many bytes.
    Short(usize),
    /// Report `WouldBlock` without transferring.
    Eagain,
    /// Report `ConnectionReset` and kill the transport.
    Reset,
}

/// Adapter installing a [`FaultPlan`] as the reactor's
/// [`epoll::WaitFault`] hook (the [`FaultSite::SpuriousWakeup`] site).
#[derive(Debug)]
pub struct SpuriousWakeups(pub Arc<FaultPlan>);

impl epoll::WaitFault for SpuriousWakeups {
    fn spurious_wakeup(&self) -> bool {
        self.0.fires(FaultSite::SpuriousWakeup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions_different_seed_different_hash() {
        let a = FaultPlan::hostile(42);
        let b = FaultPlan::hostile(42);
        let c = FaultPlan::hostile(43);
        assert_eq!(a.schedule_hash(), b.schedule_hash());
        assert_ne!(a.schedule_hash(), c.schedule_hash());
        // Consuming consultations does not perturb the schedule hash.
        for _ in 0..100 {
            let _ = a.fires(FaultSite::ShortRead);
            let _ = a.read_fault(4096);
        }
        assert_eq!(a.schedule_hash(), b.schedule_hash());
        // And the consumed decision sequence replays identically.
        let seq_a: Vec<bool> = (0..100).map(|_| b.fires(FaultSite::WorkerPanic)).collect();
        let d = FaultPlan::hostile(42);
        let seq_b: Vec<bool> = (0..100).map(|_| d.fires(FaultSite::WorkerPanic)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn rates_are_roughly_honoured_and_zero_rate_never_fires() {
        let plan = FaultPlan::new(7, FaultSchedule::off().with_rate(FaultSite::WorkerPanic, 512));
        let fired = (0..4096).filter(|_| plan.fires(FaultSite::WorkerPanic)).count();
        // 512/1024 = one half; allow a generous band.
        assert!((1500..2600).contains(&fired), "fired {fired} of 4096 at rate 512/1024");
        assert_eq!((0..4096).filter(|_| plan.fires(FaultSite::ConnReset)).count(), 0);
        assert_eq!(plan.stats().fired_at(FaultSite::ConnReset), 0);
        assert_eq!(plan.stats().fired_at(FaultSite::WorkerPanic), fired as u64);
    }

    #[test]
    fn schedule_hash_depends_on_rates_not_just_seed() {
        let a = FaultPlan::new(9, FaultSchedule::hostile());
        let b = FaultPlan::new(9, FaultSchedule::hostile().with_rate(FaultSite::LostReply, 64));
        assert_ne!(a.schedule_hash(), b.schedule_hash());
    }

    #[test]
    fn magnitudes_stay_in_bounds() {
        let schedule = FaultSchedule {
            rates: [1024; SITE_COUNT],
            max_skew_ms: 7,
            max_stall_ms: 3,
            max_short_len: 16,
        };
        let plan = FaultPlan::new(11, schedule);
        for _ in 0..500 {
            if let Some(skew) = plan.clock_skew_ms() {
                assert!((-7..=7).contains(&skew), "skew {skew} out of bounds");
            }
            if let Some(stall) = plan.stall() {
                assert!(stall <= Duration::from_millis(3), "stall {stall:?} out of bounds");
            }
            match plan.read_fault(1 << 20) {
                IoFault::Short(n) => assert!((1..=16).contains(&n)),
                IoFault::Reset | IoFault::Eagain | IoFault::None => {}
            }
        }
    }
}
