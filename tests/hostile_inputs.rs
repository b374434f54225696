//! Hostile contracts: every corner of the corpus's generator (`corpus`), on
//! every route of the batch dispatcher, gets a typed error or a bounded
//! price — never a panic, a hang, a NaN or an infinity — and so does the
//! frontier of each fast route's extractor.  Each case runs on a watchdog.
//! Along the way every request's wire line and reply round-trip, and each
//! sweep's requests as one batch answer what they answer alone.
//!
//! A hang is a *panic* in a debug build (the overflow that starts it is
//! checked there) and a *hang* in a release build, so CI runs this file in
//! both profiles.

mod corpus;
use american_option_pricing::parallel::run_with_threads;
use corpus::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// The lattice sizes every corner is taken at.
const STEPS: [usize; 3] = [1, 9, 300];
const WATCHDOG: Duration = Duration::from_secs(2);
/// A hung case leaks a spinning thread; stop the sweep after a few.
const MAX_HANGS: usize = 4;

/// `job` on its own thread and its own one-worker pool, so a hang or a panic
/// takes nothing else with it; `Err` says which of the two it was.
fn on_watchdog<R: Send + 'static>(
    limit: Duration,
    job: impl FnOnce() -> R + Send + 'static,
) -> Result<R, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(|| run_with_threads(1, job))));
    });
    match rx.recv_timeout(limit) {
        Ok(answer) => answer.map_err(|_| "panicked".into()),
        Err(_) => Err(HUNG.into()),
    }
}

const HUNG: &str = "no answer before the watchdog expired";

/// The paper's contract, dividend-free on the FD grid.
fn base(model: ModelKind) -> Case {
    let c = Case::paper(1);
    Case { p: c.params((model, OptionType::Put)), ..c }
}

#[test]
fn every_hostile_contract_gets_a_typed_error_or_a_bounded_price() {
    let (mut failures, mut hangs, mut total) = (Vec::new(), 0, 0);
    'sweep: for model in [ModelKind::Bopm, ModelKind::Topm, ModelKind::Bsm] {
        for steps in STEPS {
            let cases = corners(&Case { steps, ..base(model) });
            let mut requests = Vec::new();
            for c in &cases {
                for ty in [OptionType::Call, OptionType::Put] {
                    requests.push(PricingRequest::american(model, ty, c.p, c.steps));
                    requests.push(PricingRequest::european(model, ty, c.p, c.steps));
                }
                if model == ModelKind::Bopm && steps == 300 {
                    requests.push(PricingRequest::bermudan_put(c.p, 300, vec![75, 150, 225, 300]));
                }
            }
            let (mut answered, mut answers) = (Vec::new(), Vec::new());
            for req in requests {
                // The price, and the frontier where the contract has a fast route.
                let (job, kind) = (req.clone(), (req.model, req.option_type));
                let extract = req.style == batch::Style::American && FAST.contains(&kind);
                let answer = on_watchdog(WATCHDOG, move || {
                    let c = Case { p: job.params, steps: job.steps };
                    (batch_one(&job), extract.then(|| frontier_is_well_formed(kind, &c, 16)))
                });
                let why = match &answer {
                    Ok((_, Some(Err(w)))) => Some(format!("frontier: {w}")),
                    Ok((price, _)) => out_of_band(&req, price).or(wire_replies(&req, price).err()),
                    Err(why) => Some(why.clone()),
                };
                hangs += usize::from(why.as_deref().is_some_and(|w| w.ends_with(HUNG)));
                failures.extend(why.map(|why| format!("{req:?}: {why}")));
                if hangs == MAX_HANGS {
                    failures.push(format!("sweep abandoned after {MAX_HANGS} hangs"));
                    break 'sweep;
                }
                if let Ok((price, _)) = answer {
                    answered.push(req);
                    answers.push(price);
                }
            }
            total += answered.len();
            let verdict = on_watchdog(WATCHDOG * 30, move || {
                batch_is_its_batches_of_one(&answered, &answers)
            });
            failures
                .extend(verdict.and_then(|v| v).err().map(|w| format!("{model:?} T={steps}: {w}")));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {total} hostile contracts misbehaved:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Everything about this put is linear and bounded by K, but a payoff row of
/// cells near `f64::MAX` overflows any sum taken over it; 1e300 leaves the
/// sums room.  The trees only: their per-step discount is `e^{−RΔt}`, the
/// explicit BSM scheme's is `1 − RΔt`.
#[test]
fn european_put_at_the_largest_strikes_is_an_error_or_its_forward_value() {
    for model in [ModelKind::Bopm, ModelKind::Topm] {
        for (strike, steps) in [(1e300, 1usize), (1e300, 300), (f64::MAX, 1), (f64::MAX, 9)] {
            let p = OptionParams { strike, ..base(model).p };
            let req = PricingRequest::european(model, OptionType::Put, p, steps);
            let answer = on_watchdog(WATCHDOG, move || batch_one(&req));
            let answer = answer.unwrap_or_else(|why| panic!("{model:?}: {why}"));
            if let Ok(price) = answer {
                let forward = p.strike * (-p.rate * p.expiry).exp()
                    - p.spot * (-p.dividend_yield * p.expiry).exp();
                assert!(
                    (price - forward).abs() <= 1e-9 * forward,
                    "{model:?} T={steps}: {price:e} vs K·e^(−RE) − S·e^(−YE) = {forward:e}"
                );
            }
        }
    }
}
