//! Executing a drained batch.  The batch is grouped by request kind and
//! each group runs through its batch-native driver over the *shared*
//! [`BatchPricer`](amopt_core::batch::BatchPricer) — one `price_batch` for
//! prices, one fanned greeks ladder, one lockstep surface inversion — so
//! co-batched requests share in-batch dedup and every request shares the
//! cross-batch memo.  Each group runs inside the worker pool's designated
//! `catch_unwind` boundary: a panicking request answers
//! [`ServiceError::Internal`] alone, and the rest of its group still
//! answers.  Each entry's slot then receives its own `Result`.

use super::edf::Pending;
use super::Shared;
use crate::fault::FaultSite;
use crate::types::{ServiceError, ServiceRequest, ServiceResponse};
use crate::ServiceResult;
use amopt_core::batch::surface::{implied_vol_surface, VolQuote};
use amopt_core::batch::{greeks as batch_greeks, PricingRequest};
use amopt_obs::Stage;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A request group's batch-native driver: slice of requests in, one result
/// per request out.
type BatchDriver<'a, R, T> = dyn Fn(&[R]) -> Vec<Result<T, amopt_core::PricingError>> + 'a;

/// Runs one request group through its batch driver inside the designated
/// `catch_unwind` boundary.  The fast path runs the whole group at once;
/// if the group panics (a real bug, or an injected [`FaultSite::WorkerPanic`]
/// flagged in `injected`), it falls back to per-request isolation: each
/// request re-runs alone under its own shield, so a panicking request
/// resolves to [`ServiceError::Internal`] for *that request only* and the
/// rest of the group still answers.  Injected panics fire *before* the
/// driver call, so the shared memo is never entered by a doomed request.
fn run_shielded<R, T>(
    injected: &[bool],
    reqs: &[R],
    run: &BatchDriver<'_, R, T>,
) -> Vec<Result<T, ServiceError>> {
    let clean = !injected.iter().any(|&b| b);
    if clean {
        // amopt-lint: allow(panic-surface) -- designated worker-pool unwind boundary: a driver panic is isolated per request below instead of killing the worker mid-batch
        let shielded = catch_unwind(AssertUnwindSafe(|| run(reqs)));
        if let Ok(results) = shielded {
            return results.into_iter().map(|r| r.map_err(ServiceError::from)).collect();
        }
    }
    reqs.iter()
        .zip(injected.iter().chain(std::iter::repeat(&false)))
        .map(|(req, &boom)| {
            // amopt-lint: allow(panic-surface) -- designated worker-pool unwind boundary: per-request isolation shield
            let one = catch_unwind(AssertUnwindSafe(|| {
                if boom {
                    // amopt-lint: allow(panic-surface) -- injected fault: this panic exists to prove the shield holds
                    panic!("amopt-fault: injected worker panic");
                }
                run(std::slice::from_ref(req)).pop()
            }));
            match one {
                Ok(Some(result)) => result.map_err(ServiceError::from),
                Ok(None) => Err(ServiceError::Internal { what: "batch driver returned no result" }),
                Err(_) => {
                    Err(ServiceError::Internal { what: "worker panicked pricing this request" })
                }
            }
        })
        .collect()
}

/// Executes one drained batch: group by request kind, run each group
/// through its batch-native driver over the shared pricer, scatter results
/// into the slots.
pub(super) fn execute(shared: &Shared, batch: Vec<Pending>) {
    // amopt-lint: hot-path
    // amopt-lint: allow-scope(hot-path-alloc) -- per-batch grouping/scatter buffers are O(batch); request payloads are cloned exactly once into the driver slices
    let o = &shared.obs;
    for pending in &batch {
        if let Some(trace) = &pending.trace {
            trace.stamp(Stage::ExecStart);
        }
    }
    let plan = shared.cfg.fault.as_deref();
    if let Some(plan) = plan {
        if let Some(stall) = plan.stall() {
            // Injected stall: the worker sits on its drained batch.  Other
            // workers keep draining; nothing is lost, latency suffers.
            std::thread::sleep(stall);
        }
        if plan.fires(FaultSite::LostReply) {
            // The deliberately *unhandled* class: drop the drained entries
            // without filling their slots.  `submitted` permanently exceeds
            // `completed` and the chaos gate must fail — CI's proof that the
            // gate can catch a broken service.  Rate is zero in every
            // handled schedule.
            return;
        }
    }
    o.batches.inc();
    o.batch_size.record(batch.len() as u64);

    // Group by request kind, tracking batch indices alongside the driver
    // input slices — the request payloads are cloned exactly once.  Traced
    // price requests probe the memo on the way past (recency- and
    // counter-neutral) so their cards can carry the hit flag.
    let mut prices: Vec<usize> = Vec::new();
    let mut price_reqs: Vec<PricingRequest> = Vec::new();
    let mut greeks: Vec<usize> = Vec::new();
    let mut greek_reqs: Vec<PricingRequest> = Vec::new();
    let mut vols: Vec<usize> = Vec::new();
    let mut vol_quotes: Vec<VolQuote> = Vec::new();
    for (i, pending) in batch.iter().enumerate() {
        match &pending.request {
            ServiceRequest::Price(req) => {
                if let Some(trace) = &pending.trace {
                    if shared.pricer.memo_peek(req) {
                        trace.set_flag(amopt_obs::FLAG_MEMO_HIT);
                    }
                    trace.stamp(Stage::MemoProbed);
                }
                prices.push(i);
                price_reqs.push(req.clone());
            }
            ServiceRequest::Greeks(req) => {
                greeks.push(i);
                greek_reqs.push(req.clone());
            }
            ServiceRequest::ImpliedVol(quote) => {
                vols.push(i);
                vol_quotes.push(quote.clone());
            }
        }
    }

    // Each entry is consumed at completion so its in-flight permit drops
    // *before* the slot fill wakes the waiter: a client that has observed
    // its response always has that unit of budget back, and an `in_flight`
    // read after `Ticket::wait` is never stale.
    let mut batch: Vec<Option<Pending>> = batch.into_iter().map(Some).collect();
    let mut complete = |i: usize, result: ServiceResult| {
        // The index vectors partition the batch, so every `i` is in range
        // and completed exactly once; if that bookkeeping ever broke,
        // skipping the entry beats panicking the worker.
        let Some(Pending { slot, deadline, explicit_deadline, trace, _permit, .. }) =
            batch.get_mut(i).and_then(Option::take)
        else {
            return;
        };
        drop(_permit);
        // Only caller-supplied budgets count as misses: the `max_wait`
        // default deadline only orders the heap and, behind a busy pool,
        // serves as the *flush trigger* — delivery then lands just past it
        // by construction, so a miss there carries no signal.
        let now = Instant::now();
        if explicit_deadline && now > deadline {
            if let Some(trace) = &trace {
                trace.set_flag(amopt_obs::FLAG_DEADLINE_MISS);
            }
            let lateness = u64::try_from((now - deadline).as_nanos()).unwrap_or(u64::MAX);
            o.deadline_missed(lateness);
        }
        if let Some(trace) = &trace {
            trace.stamp(Stage::Completed);
        }
        // Count *before* filling: the fill wakes the waiter, and a stats
        // read right after `Ticket::wait` must already see this completion.
        o.completed.inc();
        slot.fill(result);
    };

    // Injected panic decisions, consulted once per price request (the
    // tentpole injects inside `price_batch` execution; other groups take
    // the isolation path only on a real driver panic).  Price batch-of-one
    // results are pinned bitwise-identical to in-batch results, so the
    // isolation fallback never perturbs delivered prices.
    let price_inject: Vec<bool> = match plan {
        Some(plan) => price_reqs.iter().map(|_| plan.fires(FaultSite::WorkerPanic)).collect(),
        None => Vec::new(),
    };

    if !price_reqs.is_empty() {
        let results =
            run_shielded(&price_inject, &price_reqs, &|reqs| shared.pricer.price_batch(reqs));
        for (&i, result) in prices.iter().zip(results) {
            complete(i, result.map(ServiceResponse::Price));
        }
    }
    if !greek_reqs.is_empty() {
        let results =
            run_shielded(&[], &greek_reqs, &|reqs| batch_greeks::greeks(&shared.pricer, reqs));
        for (&i, result) in greeks.iter().zip(results) {
            complete(i, result.map(ServiceResponse::Greeks));
        }
    }
    if !vol_quotes.is_empty() {
        let results =
            run_shielded(&[], &vol_quotes, &|quotes| implied_vol_surface(&shared.pricer, quotes));
        for (&i, result) in vols.iter().zip(results) {
            complete(i, result.map(ServiceResponse::ImpliedVol));
        }
    }
}
