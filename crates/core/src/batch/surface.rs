//! Batch-native implied-volatility surface inversion.
//!
//! A K-strike × T-maturity quote surface is `K·T` independent root-finding
//! problems, each probing the lattice pricer a dozen-plus times.  The serial
//! path ([`crate::implied_vol::american_call_bopm`]) inverts one quote at a
//! time, one probe at a time; this module drives **all quotes' bracketing
//! and root rounds in lockstep**, submitting the current probe of every
//! unresolved quote as one [`BatchPricer::price_batch`] call per round:
//!
//! * every probe in a round prices in parallel over the fork-join pool and
//!   through the sharded memo, so the surface inverts with full
//!   parallelism instead of quote-at-a-time;
//! * identical quotes (bid/ask pairs, the same contract quoted across
//!   accounts) advance through identical probe sequences, so their probes
//!   deduplicate in-batch and re-quoted surfaces are served from the memo;
//! * per quote, the root phase runs **Newton with a lattice vega**: each
//!   round prices the candidate volatility *and* a bumped neighbour (the
//!   greeks ladder's finite-difference vega, one extra pricing), and the
//!   Newton step `σ − f/vega` replaces the next probe whenever it lands
//!   strictly inside the bracket.  The **bracket-guarded Illinois
//!   (false-position) iteration** remains as the fallback — flat vega, a
//!   Newton step outside the bracket, or a failed bump probe all degrade
//!   gracefully to the previous behaviour.  Same bracketing walk, same
//!   attainability checks, same `|price − quote| < PRICE_TOL` acceptance as
//!   the serial inversion, but quadratic convergence: fewer root rounds and
//!   fewer total lattice pricings per quote than Illinois alone;
//! * quotes may be **calls or puts**: puts invert over the fast left-cone
//!   engine (`lattice::fast::price_american_put`) under the identical search
//!   interval, tolerance, and error contract;
//! * every quote gets its own `Result`: an unattainable or zero-vega quote
//!   errors in its own slot exactly like the serial inversion
//!   (`InvalidParams` / `NoConvergence`) and never poisons the surface.
//!
//! ```
//! use amopt_core::batch::{surface, BatchPricer};
//! use amopt_core::bopm::BopmModel;
//! use amopt_core::lattice::fast;
//! use amopt_core::{EngineConfig, OptionParams};
//!
//! let base = OptionParams::paper_defaults();
//! // Quote two strikes off a known 25%-vol market.
//! let quotes: Vec<surface::VolQuote> = [120.0, 140.0]
//!     .iter()
//!     .map(|&strike| {
//!         let p = OptionParams { strike, volatility: 0.25, ..base };
//!         let market = fast::price_american_call(&BopmModel::new(p, 256).unwrap());
//!         surface::VolQuote::new(p, 256, market)
//!     })
//!     .collect();
//! let pricer = BatchPricer::new(EngineConfig::default());
//! for vol in surface::implied_vol_surface(&pricer, &quotes) {
//!     assert!((vol.unwrap() - 0.25).abs() < 1e-6);
//! }
//! ```

use crate::batch::{BatchPricer, ModelKind, PricingRequest};
use crate::error::{PricingError, Result};
use crate::greeks::{BUMP_VOL, VOL_BUMP_FLOOR};
use crate::implied_vol::{stability_seed, MAX_ITERS, PRICE_TOL, VOL_HI, VOL_LO};
use crate::params::{OptionParams, OptionType};

/// Attainability slack on the bracket endpoints, matching the serial
/// inversion: quotes within this of the zero-/huge-vol limits are accepted
/// into the root search rather than rejected outright.
const RANGE_SLACK: f64 = 1e-9;

/// Bracket width below which the search is declared collapsed (serial
/// inversion's `hi - lo < 1e-12`).
const BRACKET_EPS: f64 = 1e-12;

/// One implied-volatility quote: the contract, call or put, its lattice
/// resolution, and the observed market price to invert.
///
/// The driver prices American contracts under the binomial lattice — calls
/// through the same pricer the serial
/// [`crate::implied_vol::american_call_bopm`] bisects over, puts through
/// the fast left-cone engine.  The `volatility` field of `params` is *not*
/// used as data (every probe overwrites it); it only has to be positive so
/// the parameters validate.
#[derive(Debug, Clone, PartialEq)]
pub struct VolQuote {
    /// Contract/market parameters; `volatility` is ignored (see above).
    pub params: OptionParams,
    /// Call or put (both invert over their fast American BOPM pricer).
    pub option_type: OptionType,
    /// Lattice time steps for every probe pricing.
    pub steps: usize,
    /// Observed market price to invert.
    pub market_price: f64,
}

impl VolQuote {
    /// A quote for the American BOPM **call** at `params` priced on a
    /// `steps`-step lattice.
    pub fn new(params: OptionParams, steps: usize, market_price: f64) -> Self {
        VolQuote { params, option_type: OptionType::Call, steps, market_price }
    }

    /// A quote for the American BOPM **put** at `params` priced on a
    /// `steps`-step lattice.
    pub fn put(params: OptionParams, steps: usize, market_price: f64) -> Self {
        VolQuote { params, option_type: OptionType::Put, steps, market_price }
    }
}

/// Volatility bump width of the per-round lattice vega: the greeks ladder's
/// policy (relative bump, floored so deep-low-vol candidates still get a
/// resolvable width).
fn vega_bump(vol: f64) -> f64 {
    vol.max(VOL_BUMP_FLOOR) * BUMP_VOL
}

/// Residual magnitude below which the driver stops buying vega bumps: with
/// `|price − quote|` this small the last probe sits within a few Newton
/// digits of the root, the bracket endpoint it replaced *is* that probe, and
/// the Illinois secant through the endpoints converges as fast as Newton
/// would — so the extra pricing per round no longer pays.
const NEWTON_ENDGAME: f64 = 1e-5;

/// Live bracket of one quote's root iteration (Newton with a lattice vega,
/// Illinois as the bracket-guarded fallback).
#[derive(Debug, Clone, Copy)]
struct Bracket {
    lo: f64,
    hi: f64,
    /// Residual `price(lo) − market` (≤ 0 for monotone attainable quotes).
    f_lo: f64,
    /// Residual `price(hi) − market`.
    f_hi: f64,
    /// Volatility probed this round.
    pending: f64,
    /// Root probes spent so far.
    iters: usize,
    /// Which endpoint the previous probe replaced: −1 = `lo`, +1 = `hi`,
    /// 0 = none yet.  Two consecutive same-side replacements trigger the
    /// Illinois halving of the stale endpoint's residual.
    last_side: i8,
    /// `|price − quote|` of the most recent probe (∞ before the first);
    /// gates the vega bump via [`NEWTON_ENDGAME`].
    last_abs_f: f64,
}

impl Bracket {
    /// Next probe volatility: the false-position point when it falls
    /// strictly inside the bracket, the midpoint otherwise (degenerate or
    /// flat residuals make the secant step useless, and the midpoint
    /// fallback recovers plain bisection's robustness).
    fn candidate(&self) -> f64 {
        let x = (self.lo * self.f_hi - self.hi * self.f_lo) / (self.f_hi - self.f_lo);
        if x.is_finite() && x > self.lo && x < self.hi {
            x
        } else {
            0.5 * (self.lo + self.hi)
        }
    }
}

/// Per-quote state machine; each non-`Done` state probes exactly one
/// volatility per round.
#[derive(Debug)]
enum State {
    /// Walking the lower bracket endpoint up past unstable discretisations.
    /// Seeded at the closed-form stability floor
    /// ([`crate::bopm::BopmModel::min_stable_volatility`]), so the walk is
    /// normally a single probe, with the doubling fallback covering
    /// edge-of-threshold rounding.  Unstable outcomes are shared across a
    /// strike ladder *by construction*: stability depends only on
    /// `(rate, dividend, expiry, steps, vol)`, the seed is a pure function
    /// of that key, so every same-key quote walks the identical vol
    /// sequence in lockstep — each round's probes collapse to one lattice
    /// pricing in-batch, and one quote's `UnstableDiscretisation` advances
    /// all of them together.  No cross-quote cache is needed.
    WalkLo { lo: f64 },
    /// Lower endpoint priced; probing the upper endpoint `VOL_HI`.
    ProbeHi { lo: f64, p_lo: f64 },
    /// Bracket established; Illinois iteration in progress.
    Root(Bracket),
    /// Resolved (volatility or error).
    Done(Result<f64>),
}

impl State {
    /// The volatility this state wants priced this round, if any.
    fn probe_vol(&self) -> Option<f64> {
        match self {
            State::WalkLo { lo } => Some(*lo),
            State::ProbeHi { .. } => Some(VOL_HI),
            State::Root(b) => Some(b.pending),
            State::Done(_) => None,
        }
    }

    /// The bumped companion volatility for this round's lattice vega, if
    /// the state is in the root phase and still far enough from the root
    /// that a Newton step beats the Illinois secant (the bracketing walk
    /// needs no vega; the endgame spends one pricing per round, not two).
    fn bump_vol(&self) -> Option<f64> {
        match self {
            State::Root(b) if b.last_abs_f >= NEWTON_ENDGAME => {
                Some(b.pending + vega_bump(b.pending))
            }
            _ => None,
        }
    }
}

fn no_bracket_error(steps: usize, reason: &str) -> PricingError {
    PricingError::InvalidParams {
        field: "steps",
        reason: format!(
            "no stable lattice discretisation for any volatility in [{VOL_LO}, {VOL_HI}] at \
             steps = {steps}: {reason}"
        ),
    }
}

fn unattainable_error(market_price: f64, p_lo: f64, p_hi: f64) -> PricingError {
    PricingError::InvalidParams {
        field: "market_price",
        reason: format!("price {market_price} outside attainable range [{p_lo:.6}, {p_hi:.6}]"),
    }
}

/// Enters the root phase once both bracket endpoints are priced, resolving
/// immediately when an endpoint already reproduces the quote or the quote
/// is unattainable.
fn enter_root(quote: &VolQuote, lo: f64, p_lo: f64, hi: f64, p_hi: f64) -> State {
    let m = quote.market_price;
    if m < p_lo - RANGE_SLACK || m > p_hi + RANGE_SLACK {
        return State::Done(Err(unattainable_error(m, p_lo, p_hi)));
    }
    if (p_lo - m).abs() < PRICE_TOL {
        return State::Done(Ok(lo));
    }
    if (p_hi - m).abs() < PRICE_TOL {
        return State::Done(Ok(hi));
    }
    if hi - lo < BRACKET_EPS {
        // Degenerate bracket (the stability walk consumed the whole
        // interval) with residual above tolerance: nothing to iterate on.
        return State::Done(Err(PricingError::NoConvergence {
            what: "American implied volatility (bracket collapsed with residual above \
                   tolerance: near-zero vega)",
            iterations: 0,
        }));
    }
    let mut bracket = Bracket {
        lo,
        hi,
        f_lo: p_lo - m,
        f_hi: p_hi - m,
        pending: 0.0,
        iters: 0,
        last_side: 0,
        last_abs_f: f64::INFINITY,
    };
    bracket.pending = bracket.candidate();
    State::Root(bracket)
}

/// Advances one quote's state with this round's probe result(s).  `bump` is
/// the bumped companion probe (root phase only); a failed or missing bump
/// never kills the quote — it only forfeits the Newton step for this round.
fn advance(state: State, quote: &VolQuote, probe: Result<f64>, bump: Option<Result<f64>>) -> State {
    match state {
        State::WalkLo { lo } => match probe {
            Ok(p_lo) if lo >= VOL_HI => enter_root(quote, lo, p_lo, lo, p_lo),
            Ok(p_lo) => State::ProbeHi { lo, p_lo },
            Err(PricingError::UnstableDiscretisation { reason }) => {
                if lo >= VOL_HI {
                    // Even the top of the search interval is unstable: no
                    // bracket exists at these parameters and step count.
                    State::Done(Err(no_bracket_error(quote.steps, &reason)))
                } else {
                    State::WalkLo { lo: (lo * 2.0).min(VOL_HI) }
                }
            }
            Err(e) => State::Done(Err(e)),
        },
        State::ProbeHi { lo, p_lo } => match probe {
            Ok(p_hi) => enter_root(quote, lo, p_lo, VOL_HI, p_hi),
            Err(e) => State::Done(Err(e)),
        },
        State::Root(mut b) => {
            let p = match probe {
                Ok(p) => p,
                Err(e) => return State::Done(Err(e)),
            };
            let f = p - quote.market_price;
            if f.abs() < PRICE_TOL {
                return State::Done(Ok(b.pending));
            }
            b.last_abs_f = f.abs();
            b.iters += 1;
            if b.iters >= MAX_ITERS {
                return State::Done(Err(PricingError::NoConvergence {
                    what: "American implied volatility (surface)",
                    iterations: MAX_ITERS,
                }));
            }
            // Width check *before* the bracket update, mirroring the serial
            // bisection: give up only once a probe *inside* an
            // already-collapsed bracket has missed the tolerance.  (Checking
            // the post-update width instead would abandon quotes whose
            // bracket shrinks straight past the threshold in one step —
            // acceptance needs a probe within ~PRICE_TOL/vega of the root,
            // which for liquid contracts is only a few times BRACKET_EPS.)
            if b.hi - b.lo < BRACKET_EPS {
                // The bracket is exhausted but the residual is still above
                // tolerance — the quote sits where the price barely responds
                // to volatility, so answering a point of the flat region
                // would be arbitrary.
                return State::Done(Err(PricingError::NoConvergence {
                    what: "American implied volatility (bracket collapsed with residual above \
                           tolerance: near-zero vega)",
                    iterations: b.iters,
                }));
            }
            // Prices are nondecreasing in volatility: a positive residual
            // means the root lies below the probe.
            if f > 0.0 {
                if b.last_side == 1 {
                    b.f_lo *= 0.5;
                }
                b.hi = b.pending;
                b.f_hi = f;
                b.last_side = 1;
            } else {
                if b.last_side == -1 {
                    b.f_hi *= 0.5;
                }
                b.lo = b.pending;
                b.f_lo = f;
                b.last_side = -1;
            }
            // Newton step from the lattice vega when the bump probe priced
            // and the step lands strictly inside the updated bracket;
            // otherwise the Illinois/bisection candidate (flat vega, an
            // out-of-bracket step, and a failed bump all fall back here).
            let newton = bump.and_then(|r| r.ok()).and_then(|p_up| {
                let vega = (p_up - p) / vega_bump(b.pending);
                let x = b.pending - f / vega;
                (vega > 0.0 && x.is_finite() && x > b.lo && x < b.hi).then_some(x)
            });
            b.pending = newton.unwrap_or_else(|| b.candidate());
            State::Root(b)
        }
        State::Done(_) => state,
    }
}

/// The lattice pricing behind one probe: the quote's contract with the
/// probe volatility substituted in.
fn probe_request(quote: &VolQuote, vol: f64) -> PricingRequest {
    PricingRequest::american(
        ModelKind::Bopm,
        quote.option_type,
        OptionParams { volatility: vol, ..quote.params },
        quote.steps,
    )
}

/// Inverts every quote of an implied-volatility surface through `pricer`,
/// one batch per lockstep round.
///
/// Returns one `Result` per quote, order-preserving: the volatility whose
/// American BOPM call (or put) price reproduces `market_price` to within
/// the serial inversion's tolerance, or the same error classes the serial
/// [`crate::implied_vol::american_call_bopm`] reports (`InvalidParams` for
/// bad contracts and unattainable quotes, `NoConvergence` for zero-vega
/// quotes).  Each round submits the current probe of every unresolved quote
/// (plus a bumped companion for the lattice-vega Newton step once a bracket
/// exists) as a single batch, so probes price in parallel and shared probes
/// deduplicate across quotes.
pub fn implied_vol_surface(pricer: &BatchPricer, quotes: &[VolQuote]) -> Vec<Result<f64>> {
    let mut states: Vec<State> = quotes
        .iter()
        .map(|q| match q.params.validated() {
            Ok(_) => State::WalkLo { lo: stability_seed(&q.params, q.steps) },
            Err(e) => State::Done(Err(e)),
        })
        .collect();
    loop {
        // Gather this round's probes: one per unresolved quote, plus the
        // bumped vega companion for quotes in the root phase.
        let mut who: Vec<(usize, bool)> = Vec::new();
        let mut probes: Vec<PricingRequest> = Vec::new();
        for (i, state) in states.iter().enumerate() {
            if let Some(vol) = state.probe_vol() {
                probes.push(probe_request(&quotes[i], vol));
                let bump = state.bump_vol();
                if let Some(bv) = bump {
                    probes.push(probe_request(&quotes[i], bv));
                }
                who.push((i, bump.is_some()));
            }
        }
        if probes.is_empty() {
            break;
        }
        let mut prices = pricer.price_batch(&probes).into_iter();
        for (i, has_bump) in who {
            let main = prices.next().expect("one result per probe");
            let bump = has_bump.then(|| prices.next().expect("one result per probe"));
            let state = std::mem::replace(&mut states[i], State::Done(Ok(f64::NAN)));
            states[i] = advance(state, &quotes[i], main, bump);
        }
    }
    states
        .into_iter()
        .map(|s| match s {
            State::Done(r) => r,
            _ => unreachable!("loop exits only when every quote is resolved"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bopm::BopmModel;
    use crate::engine::EngineConfig;
    use crate::implied_vol;
    use crate::lattice::fast;

    fn p() -> OptionParams {
        OptionParams::paper_defaults()
    }

    fn quote_at(params: OptionParams, true_vol: f64, steps: usize) -> VolQuote {
        let priced = OptionParams { volatility: true_vol, ..params };
        let market = fast::price_american_call(&BopmModel::new(priced, steps).unwrap());
        VolQuote::new(params, steps, market)
    }

    #[test]
    fn surface_roundtrips_and_agrees_with_the_serial_inversion() {
        let cfg = EngineConfig::default();
        let pricer = BatchPricer::new(cfg);
        let mut quotes = Vec::new();
        let mut true_vols = Vec::new();
        for (i, &strike) in [110.0, 130.0, 150.0].iter().enumerate() {
            for (j, &expiry) in [0.5, 1.0].iter().enumerate() {
                let vol = 0.15 + 0.05 * i as f64 + 0.03 * j as f64;
                quotes.push(quote_at(OptionParams { strike, expiry, ..p() }, vol, 200));
                true_vols.push(vol);
            }
        }
        let got = implied_vol_surface(&pricer, &quotes);
        for ((q, res), want) in quotes.iter().zip(&got).zip(&true_vols) {
            let vol = res.as_ref().unwrap();
            assert!(
                (vol - want).abs() < 1e-6,
                "K={} E={}: {vol} vs {want}",
                q.params.strike,
                q.params.expiry
            );
            let serial =
                implied_vol::american_call_bopm(&q.params, q.steps, q.market_price, &cfg).unwrap();
            assert!((vol - serial).abs() < 1e-6, "surface {vol} vs serial {serial}");
        }
    }

    #[test]
    fn surface_uses_far_fewer_probes_than_serial_bisection() {
        // The memo-miss count *is* the number of lattice pricings.  Serial
        // bisection spends ~50 per quote; Illinois alone took ~14; the
        // Newton-with-vega driver (2 pricings per root round, quadratic
        // convergence) must land well below Illinois even counting its bump
        // probes.
        let pricer = BatchPricer::new(EngineConfig::default());
        let quotes: Vec<VolQuote> = [100.0, 120.0, 140.0]
            .iter()
            .map(|&k| quote_at(OptionParams { strike: k, ..p() }, 0.3, 128))
            .collect();
        let out = implied_vol_surface(&pricer, &quotes);
        assert!(out.iter().all(Result::is_ok));
        let probes_per_quote = pricer.memo_stats().misses as f64 / quotes.len() as f64;
        assert!(
            probes_per_quote < 12.0,
            "expected < 12 pricings per quote, got {probes_per_quote}"
        );
    }

    fn put_quote_at(params: OptionParams, true_vol: f64, steps: usize) -> VolQuote {
        let priced = OptionParams { volatility: true_vol, ..params };
        let market = fast::price_american_put(&BopmModel::new(priced, steps).unwrap());
        VolQuote::put(params, steps, market)
    }

    #[test]
    fn put_quotes_roundtrip_through_the_left_cone_engine() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let mut quotes = Vec::new();
        let mut want = Vec::new();
        for (i, &strike) in [110.0, 130.0, 150.0].iter().enumerate() {
            let vol = 0.18 + 0.05 * i as f64;
            quotes.push(put_quote_at(OptionParams { strike, ..p() }, vol, 200));
            want.push(vol);
        }
        let got = implied_vol_surface(&pricer, &quotes);
        for ((q, res), want) in quotes.iter().zip(&got).zip(&want) {
            let vol = res.as_ref().unwrap_or_else(|e| panic!("K={}: {e}", q.params.strike));
            assert!((vol - want).abs() < 1e-6, "K={}: {vol} vs {want}", q.params.strike);
        }
    }

    #[test]
    fn mixed_call_put_surface_resolves_every_slot() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let quotes = vec![
            quote_at(p(), 0.22, 128),
            put_quote_at(p(), 0.22, 128),
            quote_at(OptionParams { strike: 110.0, ..p() }, 0.3, 128),
            put_quote_at(OptionParams { strike: 150.0, ..p() }, 0.27, 128),
        ];
        let out = implied_vol_surface(&pricer, &quotes);
        for (q, res) in quotes.iter().zip(&out) {
            let vol = res.as_ref().unwrap_or_else(|e| panic!("{q:?}: {e}"));
            assert!(*vol > 0.1 && *vol < 0.5, "{q:?}: {vol}");
        }
    }

    #[test]
    fn unattainable_put_quote_errors_in_its_own_slot() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let good = put_quote_at(p(), 0.2, 128);
        let huge = VolQuote::put(p(), 128, p().strike * 10.0);
        let out = implied_vol_surface(&pricer, &[good, huge]);
        assert!(out[0].is_ok(), "{:?}", out[0]);
        assert!(matches!(&out[1], Err(PricingError::InvalidParams { .. })), "{:?}", out[1]);
    }

    #[test]
    fn duplicate_quotes_dedup_their_entire_probe_sequence() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let q = quote_at(p(), 0.25, 128);
        let single = implied_vol_surface(&pricer, std::slice::from_ref(&q));
        let probes_single = pricer.memo_stats().misses;
        // A fresh pricer sees the same quote four times: identical states
        // advance identically, so every round's four probes collapse to one.
        let pricer = BatchPricer::new(EngineConfig::default());
        let out = implied_vol_surface(&pricer, &vec![q.clone(); 4]);
        assert_eq!(pricer.memo_stats().misses, probes_single);
        for res in &out {
            assert_eq!(res.as_ref().unwrap().to_bits(), single[0].as_ref().unwrap().to_bits());
        }
    }

    #[test]
    fn rejects_unattainable_quotes_per_slot() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let good = quote_at(p(), 0.2, 128);
        let negative = VolQuote::new(p(), 128, -5.0);
        let huge = VolQuote::new(p(), 128, p().spot * 10.0);
        let invalid = VolQuote::new(OptionParams { spot: -1.0, ..p() }, 128, 5.0);
        let out = implied_vol_surface(&pricer, &[good, negative, huge, invalid]);
        assert!(out[0].is_ok());
        for res in &out[1..] {
            assert!(matches!(res, Err(PricingError::InvalidParams { .. })), "{res:?}");
        }
    }

    #[test]
    fn near_zero_vega_quote_is_no_convergence() {
        // Same scenario as the serial test: deep ITM with heavy dividends,
        // price is S − K for every stable volatility.  A quote offset from
        // the flat region by less than the attainability slack must come
        // back NoConvergence, not an arbitrary point of the flat region.
        let params = OptionParams { spot: 10_000.0, strike: 1.0, dividend_yield: 0.3, ..p() };
        let pricer = BatchPricer::new(EngineConfig::default());
        let intrinsic = params.spot - params.strike;
        let out = implied_vol_surface(&pricer, &[VolQuote::new(params, 64, intrinsic + 5e-10)]);
        assert!(matches!(out[0], Err(PricingError::NoConvergence { .. })), "{:?}", out[0]);
        // The exactly-attainable quote still inverts (flat region endpoint).
        let out = implied_vol_surface(&pricer, &[VolQuote::new(params, 64, intrinsic)]);
        assert!(out[0].is_ok(), "{:?}", out[0]);
    }

    #[test]
    fn no_stable_bracket_is_a_clear_invalid_params_error() {
        // R = 6 with one step: unstable across the whole volatility
        // interval (see the serial test of the same name).
        let params = OptionParams { rate: 6.0, dividend_yield: 0.0, ..p() };
        let pricer = BatchPricer::new(EngineConfig::default());
        let out = implied_vol_surface(&pricer, &[VolQuote::new(params, 1, 10.0)]);
        assert!(
            matches!(&out[0], Err(PricingError::InvalidParams { field: "steps", .. })),
            "{:?}",
            out[0]
        );
    }

    #[test]
    fn stability_seed_cuts_the_low_vol_walk_to_one_probe() {
        // Y = 0.3 at 64 steps: volatilities below ≈ 0.0375 are unstable.
        // The closed-form seed starts the bracket above the floor, so no
        // lattice pricing is spent probing unstable discretisations (the old
        // walk burned ~9 doubling probes per quote here).
        let params = OptionParams { dividend_yield: 0.3, ..p() };
        let seed = stability_seed(&params, 64);
        assert!(seed > VOL_LO, "floor must bind for this contract");
        assert!(
            crate::bopm::BopmModel::new(OptionParams { volatility: seed, ..params }, 64).is_ok(),
            "the seed itself must be a stable first probe"
        );
        let pricer = BatchPricer::new(EngineConfig::default());
        let q = quote_at(params, 0.8, 64);
        let out = implied_vol_surface(&pricer, &[q]);
        assert!((out[0].as_ref().unwrap() - 0.8).abs() < 1e-6, "{:?}", out[0]);
        let misses = pricer.memo_stats().misses;
        assert!(misses <= 20, "expected bracket + root probes only, got {misses}");
    }

    #[test]
    fn bracket_walk_recovers_when_only_low_vols_are_unstable() {
        // Y = 0.3 makes volatilities below ≈ 0.0375 unstable at 64 steps.
        let params = OptionParams { dividend_yield: 0.3, ..p() };
        let pricer = BatchPricer::new(EngineConfig::default());
        let q = quote_at(params, 0.8, 64);
        let out = implied_vol_surface(&pricer, &[q]);
        assert!((out[0].as_ref().unwrap() - 0.8).abs() < 1e-6, "{:?}", out[0]);
    }
}
