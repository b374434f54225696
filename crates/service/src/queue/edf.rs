//! The earliest-deadline-first queue and the service's one condvar
//! protocol.  [`EdfQueue`] owns the queue lock and the `work` condvar: no
//! other code locks the one or waits on or signals the other.
//!
//! [`EdfQueue::admit`] sheds load at the door.  [`EdfQueue::next_batch`]
//! flushes at once while no batch executes (Nagle's rule, applied to
//! batches); while one does, it coalesces until the batch fills, the
//! earliest queued deadline arrives (so a tight late deadline shortens the
//! wait), or the pool goes idle.  It then drains earliest-deadline-first
//! under a per-client fair share, so a deadline-tagged quote overtakes a
//! bulk book instead of queueing behind it.

use super::{InflightPermit, Slot};
use crate::config::ServiceConfig;
use crate::obs::{ServiceObs, KIND_GREEKS, KIND_IMPLIED_VOL, KIND_PRICE};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};
use crate::types::{ServiceError, ServiceRequest};
use amopt_obs::{RequestTrace, Stage};
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
pub(super) struct Pending {
    pub(super) request: ServiceRequest,
    pub(super) slot: Arc<Slot>,
    /// EDF key: when this request wants to have flushed.
    pub(super) deadline: Instant,
    /// Whether `deadline` came from a caller-supplied budget (and therefore
    /// counts toward `ServiceStats::deadline_misses`) rather than from the
    /// `max_wait` coalescing default, which only orders the heap and bounds
    /// the wait behind a busy pool.
    pub(super) explicit_deadline: bool,
    /// Queue-arrival sequence number, set by [`EdfQueue::admit`]; breaks
    /// deadline ties FIFO.
    pub(super) seq: u64,
    /// Fair-share key: which client handle submitted this.
    pub(super) client_id: u64,
    /// Flightdeck trace card riding along (absent when tracing is off).
    pub(super) trace: Option<Arc<RequestTrace>>,
    pub(super) _permit: InflightPermit,
}

// The heap orders *only* by (deadline, seq); payload fields are ignored.
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `BinaryHeap` is a max-heap, so invert: the earliest deadline
        // (then the lowest sequence number) compares greatest and pops
        // first.
        other.deadline.cmp(&self.deadline).then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Default)]
pub(super) struct QueueState {
    /// Earliest-deadline-first submission queue.
    heap: BinaryHeap<Pending>,
    /// Next arrival sequence number (assigned under this lock, so ties
    /// drain in true arrival order).
    next_seq: u64,
    shutdown: bool,
    /// Batches drained but not yet finished executing.  Coalescing waits
    /// only while this is non-zero; [`Executing`] owns each unit.
    executing: usize,
}

/// The EDF queue: its state and the condvar signalled on every admission,
/// on close, and when the last executing batch finishes with work queued.
#[derive(Debug, Default)]
pub(super) struct EdfQueue {
    pub(super) state: Mutex<QueueState>,
    work: Condvar,
}

/// One unit of [`QueueState::executing`], taken under the queue lock where
/// a batch is drained and given back when dropped — after `execute`
/// returns, returns early, or unwinds, so the count never leaks.  The last
/// batch out wakes the coalescing workers if work is queued.
pub(super) struct Executing<'a>(&'a EdfQueue);

impl Drop for Executing<'_> {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.0.state);
        state.executing -= 1;
        if state.executing == 0 && !state.heap.is_empty() {
            drop(state);
            self.0.work.notify_all();
        }
    }
}

impl EdfQueue {
    /// Queues `entry`, or rejects and counts it (closed, full, brownout).  An
    /// admitted entry stamps `enqueued` (its card), counts as submitted, and
    /// wakes every worker.
    pub(super) fn admit(
        &self,
        cfg: &ServiceConfig,
        obs: &ServiceObs,
        mut entry: Pending,
        enqueued: Option<&RequestTrace>,
    ) -> Result<(), ServiceError> {
        // amopt-lint: hot-path
        {
            // amopt-lint: allow(hot-path-lock) -- the queue's one lock, once per admitted request, not per advance
            let mut state = lock_unpoisoned(&self.state);
            if state.shutdown {
                drop(state);
                obs.rejected_shutdown.inc();
                return Err(ServiceError::ShuttingDown);
            }
            if state.heap.len() >= cfg.queue_depth {
                drop(state);
                obs.rejected_queue_full.inc();
                return Err(ServiceError::Overloaded { what: "submission queue full" });
            }
            // Brownout tiers: under sustained queue pressure, shed untagged
            // work by class — implied-vol inversions (the most expensive per
            // request) first, greeks ladders second, plain quotes last — once
            // the queue is that full.  Deadline-tagged submissions skip
            // brownout entirely (the EDF scheduler exists to serve them);
            // only a full queue rejects those.
            const SHED_IMPLIED_VOL_AT: f64 = 0.50;
            const SHED_GREEKS_AT: f64 = 0.75;
            const SHED_PRICE_AT: f64 = 0.95;
            if !entry.explicit_deadline {
                let (class, shed_at, what) = match &entry.request {
                    ServiceRequest::ImpliedVol(_) => (
                        KIND_IMPLIED_VOL,
                        SHED_IMPLIED_VOL_AT,
                        "brownout: implied-vol inversions shed under queue pressure",
                    ),
                    ServiceRequest::Greeks(_) => (
                        KIND_GREEKS,
                        SHED_GREEKS_AT,
                        "brownout: greeks ladders shed under queue pressure",
                    ),
                    ServiceRequest::Price(_) => (
                        KIND_PRICE,
                        SHED_PRICE_AT,
                        "brownout: untagged quotes shed under queue pressure",
                    ),
                };
                if state.heap.len() as f64 >= shed_at * cfg.queue_depth as f64 {
                    drop(state);
                    obs.shed_fired(class);
                    return Err(ServiceError::Overloaded { what });
                }
            }
            entry.seq = state.next_seq;
            state.next_seq += 1;
            state.heap.push(entry);
        }
        if let Some(trace) = enqueued {
            trace.stamp(Stage::Enqueued);
        }
        obs.submitted.inc();
        // notify_all, not notify_one: a new earliest deadline must re-arm
        // the timeout of whichever worker is coalescing, which is not
        // necessarily the one `notify_one` would pick.
        self.work.notify_all();
        Ok(())
    }

    /// The next batch to execute, coalesced and drained as the module docs
    /// say, with its [`Executing`] unit; `None` once closed *and* empty.
    pub(super) fn next_batch(
        &self,
        cfg: &ServiceConfig,
        obs: &ServiceObs,
    ) -> Option<(Vec<Pending>, Executing<'_>)> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            // Phase 1: wait for work (or exit once shut down and drained).
            while state.heap.is_empty() {
                if state.shutdown {
                    return None;
                }
                state = wait_unpoisoned(&self.work, state);
            }
            // Phase 2: coalesce only while another batch executes — with
            // nothing executing there is nothing to wait behind — until
            // the batch is full, the earliest queued deadline passes, or
            // the last executing batch finishes.  The heap head is re-read
            // after every wake: a fresh submission with a tighter deadline
            // shortens the remaining wait.  Shutdown flushes immediately:
            // latency no longer matters, only draining does.
            while state.heap.len() < cfg.max_batch && !state.shutdown && state.executing > 0 {
                let Some(head) = state.heap.peek() else { break };
                let deadline = head.deadline;
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                state = wait_timeout_unpoisoned(&self.work, state, deadline - now).0;
            }
            if state.heap.is_empty() {
                // Another worker drained the queue while this one slept.
                continue;
            }
            // Phase 3: drain up to max_batch entries in EDF order with a
            // per-client fair share, and count the batch as executing
            // until its guard drops.
            let batch = drain_edf(&mut state, cfg, obs);
            state.executing += 1;
            return Some((batch, Executing(self)));
        }
    }

    /// Closes the queue: admissions fail from here on, and every worker
    /// wakes to flush and drain what is queued.  Idempotent.
    pub(super) fn close(&self) {
        lock_unpoisoned(&self.state).shutdown = true;
        self.work.notify_all();
    }

    /// Whether the queue is closed.
    pub(super) fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.state).shutdown
    }

    /// Entries queued, not yet drained.
    pub(super) fn depth(&self) -> usize {
        lock_unpoisoned(&self.state).heap.len()
    }

    /// Whether a worker that died must be replaced: the queue is open, or
    /// closed with work still to drain.
    pub(super) fn needs_workers(&self) -> bool {
        let state = lock_unpoisoned(&self.state);
        !state.shutdown || !state.heap.is_empty()
    }
}

/// Pops up to `max_batch` entries earliest-deadline-first, capping each
/// client at `max_batch / distinct-queued-clients` (at least one).  Pops
/// beyond a client's share are parked and — still in EDF order — backfill
/// whatever room the batch has left once the heap is exhausted, so the
/// flush never runs below capacity while work is queued.  Unused parked
/// entries go back on the heap.
fn drain_edf(state: &mut QueueState, cfg: &ServiceConfig, obs: &ServiceObs) -> Vec<Pending> {
    let mut distinct: Vec<u64> = Vec::new();
    for entry in state.heap.iter() {
        if !distinct.contains(&entry.client_id) {
            distinct.push(entry.client_id);
        }
    }
    let share = (cfg.max_batch / distinct.len().max(1)).max(1);
    let mut batch: Vec<Pending> = Vec::with_capacity(cfg.max_batch.min(state.heap.len()));
    let mut parked: Vec<Pending> = Vec::new();
    let mut taken: Vec<(u64, usize)> = Vec::new();
    let mut pops = 0u64;
    while batch.len() < cfg.max_batch {
        let Some(entry) = state.heap.pop() else { break };
        pops += 1;
        let count = match taken.iter_mut().find(|(id, _)| *id == entry.client_id) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                taken.push((entry.client_id, 1));
                1
            }
        };
        if count <= share {
            batch.push(entry);
        } else {
            parked.push(entry);
        }
    }
    obs.heap_pops.add(pops);
    // Work-conserving backfill, then return the rest to the heap.
    let mut parked = parked.into_iter();
    batch.extend(parked.by_ref().take(cfg.max_batch - batch.len()));
    state.heap.extend(parked);
    // The drained entries leave the EDF queue here — stamp the end of
    // their queue/coalesce wait.  (Parked entries back on the heap keep an
    // unstamped slot; the CAS stamp is first-wins, so a later real drain
    // still lands.)
    for entry in &batch {
        if let Some(trace) = &entry.trace {
            trace.stamp(Stage::Dequeued);
        }
    }
    batch
}
