//! The event journal: a lock-free ring buffer of fixed-size events — the
//! service's flight recorder.
//!
//! Writers claim a monotonically increasing ticket with one `fetch_add`,
//! then publish into the slot `ticket mod capacity` under a per-slot
//! version word (a seqlock): the version is odd while the write is in
//! flight and `2·ticket + 2` once published.  Readers copy a slot and keep
//! the copy only if the version was stable across the copy — a reader
//! never blocks a writer, and a torn read is discarded, not returned.
//! The ring overwrites oldest-first; a journal sized for its workload
//! (see `ServiceConfig::journal_capacity` in `amopt-service`) drops
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Payload words per event (beyond the kind tag).  Sized for a full trace
/// card: id, kind/flags, and the seven stage stamps.
pub const EVENT_PAYLOAD_WORDS: usize = 9;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A delivered request's trace card (payload packs the card).
    Trace,
    /// A fault-injection firing: payload `[site, consultation index]`.
    Fault,
    /// A brownout shed decision: payload `[class]` (0 price, 1 greeks,
    /// 2 implied-vol).
    Shed,
    /// A worker thread respawned by the watchdog: payload `[worker index]`.
    WorkerRestart,
    /// An explicit latency budget missed: payload `[lateness in nanos]`.
    DeadlineMiss,
}

impl EventKind {
    fn tag(self) -> u64 {
        match self {
            EventKind::Trace => 1,
            EventKind::Fault => 2,
            EventKind::Shed => 3,
            EventKind::WorkerRestart => 5,
            EventKind::DeadlineMiss => 6,
        }
    }

    fn from_tag(tag: u64) -> Option<EventKind> {
        Some(match tag {
            1 => EventKind::Trace,
            2 => EventKind::Fault,
            3 => EventKind::Shed,
            5 => EventKind::WorkerRestart,
            6 => EventKind::DeadlineMiss,
            _ => return None,
        })
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Trace => "trace",
            EventKind::Fault => "fault",
            EventKind::Shed => "shed",
            EventKind::WorkerRestart => "worker-restart",
            EventKind::DeadlineMiss => "deadline-miss",
        }
    }
}

/// One journal record: a kind tag plus [`EVENT_PAYLOAD_WORDS`] words whose
/// meaning the kind defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What this event records.
    pub kind: EventKind,
    /// Kind-defined payload words.
    pub payload: [u64; EVENT_PAYLOAD_WORDS],
}

impl Event {
    /// An event of `kind` with the leading payload words set from `words`
    /// (the rest zero).
    pub fn new(kind: EventKind, words: &[u64]) -> Event {
        let mut payload = [0u64; EVENT_PAYLOAD_WORDS];
        for (slot, w) in payload.iter_mut().zip(words) {
            *slot = *w;
        }
        Event { kind, payload }
    }
}

struct Slot {
    version: AtomicU64,
    kind: AtomicU64,
    words: [AtomicU64; EVENT_PAYLOAD_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").field("version", &self.version.load(Ordering::Relaxed)).finish()
    }
}

/// The ring-buffer event journal.  See the module docs for the publication
/// protocol.
#[derive(Debug)]
pub struct Journal {
    slots: Box<[Slot]>,
    mask: usize,
    head: AtomicU64,
}

impl Journal {
    /// A journal holding the most recent `capacity` events (rounded up to
    /// a power of two, minimum 8).
    pub fn new(capacity: usize) -> Arc<Journal> {
        let capacity = capacity.max(8).next_power_of_two();
        Arc::new(Journal {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            mask: capacity - 1,
            head: AtomicU64::new(0),
        })
    }

    /// Ring capacity (events retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (not capped at capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Publishes one event.  Lock-free and allocation-free: one ticket
    /// `fetch_add`, then plain stores into the claimed slot.
    pub fn push(&self, event: &Event) {
        // amopt-lint: hot-path
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let Some(slot) = self.slots.get(ticket as usize & self.mask) else { return };
        slot.version.store(2 * ticket + 1, Ordering::Release);
        slot.kind.store(event.kind.tag(), Ordering::Relaxed);
        for (w, v) in slot.words.iter().zip(event.payload.iter()) {
            w.store(*v, Ordering::Relaxed);
        }
        slot.version.store(2 * ticket + 2, Ordering::Release);
    }

    /// The newest `n` events, oldest first.  Events a concurrent writer is
    /// overwriting mid-copy are skipped rather than returned torn; in a
    /// quiesced journal (no concurrent pushes) nothing is skipped.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let window = (n as u64).min(self.slots.len() as u64).min(head);
        let mut out = Vec::with_capacity(window as usize);
        for ticket in head - window..head {
            let Some(slot) = self.slots.get(ticket as usize & self.mask) else { continue };
            let published = 2 * ticket + 2;
            if slot.version.load(Ordering::Acquire) != published {
                continue; // overwritten (or still in flight) — skip, don't tear
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let payload: [u64; EVENT_PAYLOAD_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.version.load(Ordering::Acquire) != published {
                continue;
            }
            if let Some(kind) = EventKind::from_tag(kind) {
                out.push(Event { kind, payload });
            }
        }
        out
    }

    /// Every retained event, oldest first (the newest `capacity` pushes).
    pub fn snapshot(&self) -> Vec<Event> {
        self.recent(self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order_with_payloads_intact() {
        let journal = Journal::new(16);
        for i in 0..5u64 {
            journal.push(&Event::new(EventKind::Fault, &[i, 100 + i]));
        }
        let events = journal.snapshot();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind, EventKind::Fault);
            assert_eq!(e.payload[0], i as u64);
            assert_eq!(e.payload[1], 100 + i as u64);
        }
    }

    #[test]
    fn the_ring_keeps_the_newest_capacity_events() {
        let journal = Journal::new(8);
        assert_eq!(journal.capacity(), 8);
        for i in 0..20u64 {
            journal.push(&Event::new(EventKind::Shed, &[i]));
        }
        let events = journal.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().map(|e| e.payload[0]), Some(12));
        assert_eq!(events.last().map(|e| e.payload[0]), Some(19));
        assert_eq!(journal.pushed(), 20);
        // recent(n) trims from the old end.
        let last3 = journal.recent(3);
        assert_eq!(last3.iter().map(|e| e.payload[0]).collect::<Vec<_>>(), vec![17, 18, 19]);
    }

    #[test]
    fn concurrent_writers_never_tear_a_reader() {
        let journal = Journal::new(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let journal = &journal;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        journal.push(&Event::new(EventKind::Fault, &[t, i, t ^ i]));
                    }
                });
            }
            let journal = &journal;
            scope.spawn(move || {
                for _ in 0..200 {
                    for e in journal.recent(64) {
                        // The payload invariant holds for every returned
                        // event: a torn copy would break it.
                        assert_eq!(e.payload[2], e.payload[0] ^ e.payload[1]);
                    }
                }
            });
        });
        assert_eq!(journal.pushed(), 2000);
    }
}
