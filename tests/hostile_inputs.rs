//! Hostile contracts: every representable parameter value, however extreme,
//! gets a typed error or a bounded price — never a panic, a hang, a NaN or an
//! infinity.  The sweep walks each field of the paper's contract through the
//! corners of `f64` (subnormals, the edges of the normal range, magnitudes
//! whose ratios, squares and logarithm quotients overflow) on every route of
//! the batch dispatcher and through the five fast routes' exercise-boundary
//! extractors, each case on a watchdog.
//!
//! A hang is a *panic* in a debug build (the overflow that starts it is
//! checked there) and a *hang* in a release build, so CI runs this file in
//! both profiles.

use american_option_pricing::parallel::run_with_threads;
use american_option_pricing::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const HOSTILE: [f64; 10] =
    [5e-324, 1e-310, 1e-300, 1e-150, 1e-20, 1e-9, 1e9, 1e150, 1e300, f64::MAX];
const WATCHDOG: Duration = Duration::from_secs(2);
const HUNG: &str = "no answer before the watchdog expired";
/// A hung case leaks a spinning thread; stop the sweep after a few.
const MAX_HANGS: usize = 4;

/// One job on its own thread and its own one-worker pool, so a hang or a
/// panic takes nothing else with it; `Err` says which of the two it was.
fn on_watchdog<R: Send + 'static>(
    job: impl FnOnce() -> R + Send + 'static,
) -> Result<R, &'static str> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(|| run_with_threads(1, job))));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(answer) => answer.map_err(|_| "panicked"),
        Err(_) => Err(HUNG),
    }
}

fn price_on_watchdog(req: &PricingRequest) -> Result<Result<f64, PricingError>, &'static str> {
    let req = req.clone();
    on_watchdog(move || BatchPricer::with_memo_capacity(EngineConfig::default(), 0).price_one(&req))
}

/// Model construction, then the route's frontier extractor (16 samples).
fn frontier(
    model: ModelKind,
    ty: OptionType,
    p: OptionParams,
    steps: usize,
) -> Result<Vec<exercise_boundary::BoundaryPoint>, PricingError> {
    use exercise_boundary::*;
    fn on_lattice<const W: usize>(m: Lattice<W>, ty: OptionType) -> Vec<BoundaryPoint> {
        match ty {
            OptionType::Call => lattice_call_boundary(&m, &EngineConfig::default(), 16),
            OptionType::Put => lattice_put_boundary(&m, &EngineConfig::default(), 16),
        }
    }
    Ok(match (model, ty) {
        (ModelKind::Bopm, _) => on_lattice(BopmModel::new(p, steps)?, ty),
        (ModelKind::Topm, _) => on_lattice(TopmModel::new(p, steps)?, ty),
        (ModelKind::Bsm, OptionType::Put) => {
            bsm_put_boundary(&BsmModel::new(p, steps)?, &EngineConfig::default(), 16)
        }
        (ModelKind::Bsm, OptionType::Call) => unreachable!("not a fast route"),
    })
}

/// `None` when the answer is a typed error or a price inside the model-free
/// band; otherwise what is wrong with it.
fn out_of_band(req: &PricingRequest, price: f64) -> Option<String> {
    let p = &req.params;
    let (cap, intrinsic) = match req.option_type {
        OptionType::Put => (p.strike, p.strike - p.spot),
        OptionType::Call => (p.spot, p.spot - p.strike),
    };
    if !(price.is_finite() && price >= 0.0 && price <= cap * (1.0 + 1e-9)) {
        return Some(format!("price {price:e} outside [0, {cap:e}]"));
    }
    if req.style == batch::Style::American && price < intrinsic * (1.0 - 1e-9) {
        return Some(format!("American price {price:e} below intrinsic {intrinsic:e}"));
    }
    None
}

fn base(model: ModelKind) -> OptionParams {
    let paper = OptionParams::paper_defaults();
    match model {
        // The BSM grid is dividend-free by construction.
        ModelKind::Bsm => OptionParams { dividend_yield: 0.0, ..paper },
        _ => paper,
    }
}

/// The base contract with one field (or one tied pair of fields) at `v`.
fn hostile_params(model: ModelKind) -> Vec<(String, OptionParams)> {
    let b = base(model);
    let mut out = Vec::new();
    for v in HOSTILE {
        out.extend([
            (format!("spot={v:e}"), OptionParams { spot: v, ..b }),
            (format!("strike={v:e}"), OptionParams { strike: v, ..b }),
            (format!("vol={v:e}"), OptionParams { volatility: v, ..b }),
            (format!("expiry={v:e}"), OptionParams { expiry: v, ..b }),
            (format!("rate={v:e}"), OptionParams { rate: v, ..b }),
            (format!("div={v:e}"), OptionParams { dividend_yield: v, ..b }),
            // No drift, so a vanishing or exploding volatility is not
            // already refused as an arbitrageable lattice.
            (format!("vol={v:e} R=Y"), OptionParams { volatility: v, dividend_yield: b.rate, ..b }),
            (
                format!("vol={v:e} R=Y=0"),
                OptionParams { volatility: v, rate: 0.0, dividend_yield: 0.0, ..b },
            ),
            // No drift again, so the discount is what under- or overflows.
            (format!("rate=div={v:e}"), OptionParams { rate: v, dividend_yield: v, ..b }),
        ]);
    }
    out
}

#[test]
fn every_hostile_contract_gets_a_typed_error_or_a_bounded_price() {
    let mut requests: Vec<(String, PricingRequest)> = Vec::new();
    for model in [ModelKind::Bopm, ModelKind::Topm, ModelKind::Bsm] {
        for (what, params) in hostile_params(model) {
            for ty in [OptionType::Call, OptionType::Put] {
                for steps in [1usize, 9, 300] {
                    let label = format!("{model:?} {ty:?} T={steps} {what}");
                    requests.extend([
                        (
                            format!("American {label}"),
                            PricingRequest::american(model, ty, params, steps),
                        ),
                        (
                            format!("European {label}"),
                            PricingRequest::european(model, ty, params, steps),
                        ),
                    ]);
                }
            }
        }
    }
    for (what, params) in hostile_params(ModelKind::Bopm) {
        let ladder = PricingRequest::bermudan_put(params, 300, vec![75, 150, 225, 300]);
        requests.push((format!("Bermudan ladder T=300 {what}"), ladder));
    }

    let mut failures = Vec::new();
    let mut hangs = 0;
    for (label, req) in &requests {
        let mut why = match price_on_watchdog(req) {
            Ok(Err(_typed)) => None,
            Ok(Ok(price)) => out_of_band(req, price),
            Err(why) => Some(why.to_string()),
        };
        // The same contract through its frontier extractor, where it has one.
        let fast_route = (req.model, req.option_type) != (ModelKind::Bsm, OptionType::Call);
        if why.is_none() && req.style == batch::Style::American && fast_route {
            let (model, ty, p, steps) = (req.model, req.option_type, req.params, req.steps);
            why = match on_watchdog(move || frontier(model, ty, p, steps)) {
                Ok(Err(_typed)) => None,
                Ok(Ok(points)) => points
                    .iter()
                    .filter_map(|pt| pt.critical_price)
                    .find(|x| !(x.is_finite() && *x > 0.0))
                    .map(|x| format!("frontier: critical price {x:e}")),
                Err(why) => Some(format!("frontier: {why}")),
            };
        }
        hangs += usize::from(why.as_deref().is_some_and(|w| w.ends_with(HUNG)));
        failures.extend(why.map(|why| format!("{label}: {why}")));
        if hangs == MAX_HANGS {
            failures.push(format!("sweep abandoned after {MAX_HANGS} hangs"));
            break;
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} hostile contracts misbehaved:\n{}",
        failures.len(),
        requests.len(),
        failures.join("\n")
    );
}

#[test]
fn european_put_at_the_largest_strikes_is_an_error_or_its_forward_value() {
    // Everything about this put is linear and bounded by K, but a payoff row
    // of cells near `f64::MAX` overflows any sum taken over it; 1e300 leaves
    // the sums room.  The lattices only: their per-step discount is
    // `e^{−RΔt}` itself, the explicit BSM scheme's is `1 − RΔt`.
    for model in [ModelKind::Bopm, ModelKind::Topm] {
        for (strike, steps) in [(1e300, 1usize), (1e300, 300), (f64::MAX, 1), (f64::MAX, 9)] {
            let p = OptionParams { strike, ..base(model) };
            let req = PricingRequest::european(model, OptionType::Put, p, steps);
            let answer = price_on_watchdog(&req).unwrap_or_else(|why| panic!("{model:?}: {why}"));
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
