//! Implied volatility: invert a pricer for the volatility that reproduces an
//! observed market price.
//!
//! An American call quote bisects over the fast lattice pricer — each probe
//! is `O(T log² T)`, so the whole inversion is a few dozen milliseconds even
//! at large `T`.
//!
//! The per-quote function here is the *reference* inversion.  For bulk
//! work — inverting a whole quote surface — use
//! [`crate::batch::surface::implied_vol_surface`], which drives every
//! quote's bracketing rounds in lockstep through the batch pricer (parallel
//! probes, cross-quote dedup, and a superlinear root iteration) under the
//! same search interval, tolerance, and error contract as this module.

use crate::bopm::BopmModel;
use crate::engine::EngineConfig;
use crate::error::{PricingError, Result};
use crate::lattice::fast;
use crate::params::OptionParams;

/// Lower end of the volatility search interval (shared with the batch
/// surface driver so both inversions search the same space).
pub(crate) const VOL_LO: f64 = 1e-4;

/// Starting point of the lower-bracket stability walk: `VOL_LO` when the
/// whole interval is stable, otherwise a hair above the closed-form
/// stability floor `|R−Y|·√(E/steps)` (clamped to the interval top, where
/// the no-stable-bracket error path takes over).  Shared with the batch
/// surface driver so both inversions probe identical brackets.
pub(crate) fn stability_seed(params: &OptionParams, steps: usize) -> f64 {
    let floor = BopmModel::min_stable_volatility(params, steps);
    VOL_LO.max(floor * (1.0 + 1e-9)).min(VOL_HI)
}
/// Upper end of the volatility search interval.
pub(crate) const VOL_HI: f64 = 5.0;
/// Acceptance tolerance on the price residual `|price(vol) − quote|`.
pub(crate) const PRICE_TOL: f64 = 1e-10;
/// Probe budget per quote before declaring no convergence.
pub(crate) const MAX_ITERS: usize = 200;

/// Implied volatility of an **American call** from its market price, by
/// bisection over the fast BOPM pricer.  The [`EngineConfig`] is an empty
/// marker the benchmark harness still passes; it is ignored.
pub fn american_call_bopm(
    params: &OptionParams,
    steps: usize,
    market_price: f64,
    _: &EngineConfig,
) -> Result<f64> {
    let params = params.validated()?;
    let price_at = |vol: f64| -> Result<f64> {
        let m = BopmModel::new(OptionParams { volatility: vol, ..params }, steps)?;
        Ok(fast::price_american_call(&m))
    };
    // The lattice itself is only constructible when V·√Δt dominates
    // |R−Y|·Δt (risk-neutral p ∈ (0,1)).  The threshold is closed-form
    // ([`BopmModel::min_stable_volatility`]), so the lower bracket seeds
    // just above it — normally the very first probe is stable.  The doubling
    // walk stays as a fallback against edge-of-threshold float rounding,
    // clamped to VOL_HI: doubling could otherwise overshoot the upper end
    // and leave an inverted bracket, or surface a raw
    // `UnstableDiscretisation` from a probe the caller never asked for.
    let mut lo = stability_seed(&params, steps);
    let p_lo = loop {
        match price_at(lo) {
            Ok(p) => break p,
            Err(PricingError::UnstableDiscretisation { reason }) => {
                if lo >= VOL_HI {
                    // Even the top of the search interval is unstable: no
                    // bracket exists at these parameters and step count.
                    return Err(PricingError::InvalidParams {
                        field: "steps",
                        reason: format!(
                            "no stable lattice discretisation for any volatility in \
                             [{VOL_LO}, {VOL_HI}] at steps = {steps}: {reason}"
                        ),
                    });
                }
                lo = (lo * 2.0).min(VOL_HI);
            }
            Err(e) => return Err(e),
        }
    };
    let mut hi = VOL_HI;
    let p_hi = if lo >= VOL_HI { p_lo } else { price_at(hi)? };
    if market_price < p_lo - 1e-9 || market_price > p_hi + 1e-9 {
        return Err(PricingError::InvalidParams {
            field: "market_price",
            reason: format!("price {market_price} outside attainable range [{p_lo:.6}, {p_hi:.6}]"),
        });
    }
    for iterations in 0..MAX_ITERS {
        let mid = 0.5 * (lo + hi);
        let p = price_at(mid)?;
        if (p - market_price).abs() < PRICE_TOL {
            return Ok(mid);
        }
        if hi - lo < 1e-12 {
            // The bracket is exhausted but the residual is still above
            // tolerance: the quote sits where the price barely responds to
            // volatility (near-zero vega), so no volatility reproduces it —
            // answering `Ok(mid)` here would hand back an arbitrary point of
            // a flat region.
            return Err(PricingError::NoConvergence {
                what: "American implied volatility (bracket collapsed with residual above \
                       tolerance: near-zero vega)",
                iterations,
            });
        }
        if p > market_price {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Err(PricingError::NoConvergence { what: "American implied volatility", iterations: MAX_ITERS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn american_roundtrip() {
        let p = OptionParams::paper_defaults();
        let cfg = EngineConfig::default();
        for true_vol in [0.12, 0.3] {
            let m = BopmModel::new(OptionParams { volatility: true_vol, ..p }, 800).unwrap();
            let quoted = fast::price_american_call(&m);
            let got = american_call_bopm(&p, 800, quoted, &cfg).unwrap();
            assert!((got - true_vol).abs() < 1e-6, "σ={true_vol}: got {got}");
        }
    }

    #[test]
    fn rejects_unattainable_prices() {
        let p = OptionParams::paper_defaults();
        assert!(american_call_bopm(&p, 200, -5.0, &EngineConfig::default()).is_err());
    }

    #[test]
    fn near_zero_vega_quote_is_no_convergence_not_arbitrary_vol() {
        // Deep in the money with a heavy dividend the American call is
        // exercised immediately: its price is exactly S − K for *every*
        // stable volatility (zero vega).  A quote offset from S − K by less
        // than the attainable-range slack used to collapse the bracket and
        // come back as `Ok(arbitrary vol)`; it must be `NoConvergence`.
        let p = OptionParams {
            spot: 10_000.0,
            strike: 1.0,
            dividend_yield: 0.3,
            ..OptionParams::paper_defaults()
        };
        let cfg = EngineConfig::default();
        let intrinsic = p.spot - p.strike;
        let got = american_call_bopm(&p, 64, intrinsic + 5e-10, &cfg);
        assert!(
            matches!(got, Err(PricingError::NoConvergence { .. })),
            "expected NoConvergence, got {got:?}"
        );
        // The exactly-attainable quote still inverts fine (residual 0).
        assert!(american_call_bopm(&p, 64, intrinsic, &cfg).is_ok());
    }

    #[test]
    fn no_stable_bracket_is_a_clear_invalid_params_error() {
        // R = 6 with one step: even V = VOL_HI = 5 gives e^{(R−Y)Δt} > u, so
        // p ∉ (0,1) everywhere in the bracket.  The old walk doubled past
        // VOL_HI (probing V ≈ 6.55 outside the search interval) and then
        // surfaced a raw UnstableDiscretisation from `price_at(hi)`.
        let p = OptionParams { rate: 6.0, dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let got = american_call_bopm(&p, 1, 10.0, &EngineConfig::default());
        assert!(
            matches!(got, Err(PricingError::InvalidParams { field: "steps", .. })),
            "expected InvalidParams, got {got:?}"
        );
    }

    #[test]
    fn stability_seed_sits_just_above_the_closed_form_floor() {
        // Binding floor: Y = 0.3 at 64 steps.
        let p = OptionParams { dividend_yield: 0.3, ..OptionParams::paper_defaults() };
        let seed = stability_seed(&p, 64);
        assert!(seed > VOL_LO);
        assert!(BopmModel::new(OptionParams { volatility: seed, ..p }, 64).is_ok());
        // Non-binding floor (R = Y ⇒ floor 0): the seed collapses to VOL_LO.
        let calm =
            OptionParams { rate: 0.02, dividend_yield: 0.02, ..OptionParams::paper_defaults() };
        assert_eq!(stability_seed(&calm, 252), VOL_LO);
        // Floor above the whole interval: clamped to VOL_HI, where the
        // no-stable-bracket error path takes over.
        let wild = OptionParams { rate: 6.0, dividend_yield: 0.0, ..calm };
        assert_eq!(stability_seed(&wild, 1), VOL_HI);
        // A quote whose true volatility sits barely above the floor still
        // round-trips through the seeded bracket.
        let true_vol = seed * 1.05;
        let cfg = EngineConfig::default();
        let m = BopmModel::new(OptionParams { volatility: true_vol, ..p }, 64).unwrap();
        let quoted = fast::price_american_call(&m);
        let got = american_call_bopm(&p, 64, quoted, &cfg).unwrap();
        assert!((got - true_vol).abs() < 1e-6, "got {got} want {true_vol}");
    }

    #[test]
    fn bracket_walk_recovers_when_only_low_vols_are_unstable() {
        // Y = 0.3 makes volatilities below ≈ 0.0375 unstable at 64 steps;
        // the walk must clamp inside [VOL_LO, VOL_HI] and still invert.
        let p = OptionParams { dividend_yield: 0.3, ..OptionParams::paper_defaults() };
        let cfg = EngineConfig::default();
        let true_vol = 0.8;
        let m = BopmModel::new(OptionParams { volatility: true_vol, ..p }, 64).unwrap();
        let quoted = fast::price_american_call(&m);
        let got = american_call_bopm(&p, 64, quoted, &cfg).unwrap();
        assert!((got - true_vol).abs() < 1e-6, "got {got}");
    }
}
