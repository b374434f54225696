//! Greeks (price sensitivities) for American options, computed by central
//! finite differences over the fast pricers — cheap because each repricing
//! is only `O(T log² T)`.
//!
//! This module owns the [`Greeks`] type, the bump-width policy, and the
//! per-contract entry point [`greeks_by_fd`].  The differencing itself lives
//! in [`crate::batch::greeks`]: [`greeks_by_fd`] is a **batch-of-one
//! facade** over [`crate::batch::greeks::greeks`], so a single contract's
//! greeks take exactly the same code path — same bump ladder, same routed
//! pricers, same arithmetic — as a thousand-contract book fanned through
//! [`BatchPricer::price_batch`](crate::batch::BatchPricer::price_batch).

use crate::batch::greeks as batch_greeks;
use crate::batch::{BatchPricer, PricingRequest};
use crate::error::Result;

/// First- and second-order sensitivities of an option price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Greeks {
    /// `∂V/∂S`.
    pub delta: f64,
    /// `∂²V/∂S²`.
    pub gamma: f64,
    /// `∂V/∂t` per year (negative of the sensitivity to time-to-expiry).
    pub theta: f64,
    /// `∂V/∂σ` per unit volatility.
    pub vega: f64,
    /// `∂V/∂R` per unit rate.
    ///
    /// Computed by a central difference except when `rate` is below the rate
    /// bump (`1e-5`): rates cannot go negative, so the down bump would leave
    /// the admissible domain and rho falls back to an explicit **one-sided
    /// forward difference** — first-order truncation error instead of
    /// second-order, the price of staying inside the domain.
    pub rho: f64,
}

/// Relative bump sizes used by the central differences.
///
/// The spot bump is deliberately wide (1%): a `T`-step lattice price is
/// *piecewise linear* in `S` (the payoff kinks sit on lattice nodes), so a
/// bump much narrower than the node spacing `S·(u²−1) ≈ 2SVΔt^{1/2}` lands
/// inside one linear piece and reads a gamma of exactly zero.
pub(crate) const BUMP_SPOT: f64 = 1e-2;
/// Relative volatility bump (vega).
pub(crate) const BUMP_VOL: f64 = 1e-4;
/// Absolute rate bump (rho).
pub(crate) const BUMP_RATE: f64 = 1e-5;
/// Relative expiry bump (theta).
pub(crate) const BUMP_TIME: f64 = 1e-4;
/// Floor on the volatility used to scale the vega bump, so deep-low-vol
/// contracts still get a resolvable bump width.
pub(crate) const VOL_BUMP_FLOOR: f64 = 0.05;

/// Finite-difference greeks of a single batch request: a batch-of-one
/// facade over [`crate::batch::greeks::greeks`].
///
/// The request's bump ladder is fanned through `pricer`, so repeated calls
/// against the same pricer share the memo (a re-quoted contract's greeks
/// are nine cache hits).  For whole books, call the batch entry point
/// directly — it prices every contract's ladder in one batch.
pub fn greeks_by_fd(pricer: &BatchPricer, request: &PricingRequest) -> Result<Greeks> {
    batch_greeks::greeks(pricer, std::slice::from_ref(request))
        .pop()
        .expect("one request in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::batch::ModelKind;
    use crate::engine::EngineConfig;
    use crate::lattice::{fast, Lattice};
    use crate::params::{OptionParams, OptionType};

    /// Greeks of one American contract on a memo-less default pricer.
    fn american(model: ModelKind, ty: OptionType, p: OptionParams, steps: usize) -> Result<Greeks> {
        let request = PricingRequest::american(model, ty, p, steps);
        greeks_by_fd(&BatchPricer::with_memo_capacity(EngineConfig::default(), 0), &request)
    }

    #[test]
    fn zero_dividend_call_matches_black_scholes_greeks() {
        // With Y = 0 the American call is European, so the lattice greeks
        // must approach the closed-form ones.
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let g = american(ModelKind::Bopm, OptionType::Call, p, 6000).unwrap();
        let delta = analytic::black_scholes_delta(&p, OptionType::Call).unwrap();
        let vega = analytic::black_scholes_vega(&p).unwrap();
        assert!((g.delta - delta).abs() < 5e-3, "delta {} vs {}", g.delta, delta);
        assert!((g.vega - vega).abs() < 0.5, "vega {} vs {}", g.vega, vega);
        assert!(g.gamma > 0.0, "gamma must be positive, got {}", g.gamma);
        assert!(g.theta < 0.0, "long option loses value over time, got {}", g.theta);
    }

    #[test]
    fn call_delta_in_unit_range_and_put_delta_negative() {
        let p = OptionParams::paper_defaults();
        let g = american(ModelKind::Bopm, OptionType::Call, p, 2000).unwrap();
        assert!(g.delta > 0.0 && g.delta < 1.0, "call delta {}", g.delta);

        let put_params = OptionParams { dividend_yield: 0.0, ..p };
        let gp = american(ModelKind::Bsm, OptionType::Put, put_params, 2000).unwrap();
        assert!(gp.delta < 0.0 && gp.delta > -1.0, "put delta {}", gp.delta);
        assert!(gp.vega > 0.0, "put vega {}", gp.vega);
        assert!(gp.rho < 0.0, "put rho should be negative, got {}", gp.rho);
    }

    #[test]
    fn rho_at_zero_rate_is_the_explicit_one_sided_difference() {
        // At R = 0 the down bump would leave the admissible domain; rho must
        // be the documented forward difference, not a half-width central
        // difference built from a silently clamped rate.
        let p = OptionParams { rate: 0.0, dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let g = american(ModelKind::Bsm, OptionType::Put, p, 800).unwrap();
        assert!(g.rho.is_finite());
        let price = |rate: f64| {
            let m = Lattice::explicit_fd(OptionParams { rate, ..p }, 800).unwrap();
            fast::price_american_put(&m)
        };
        let want = (price(BUMP_RATE) - price(0.0)) / BUMP_RATE;
        assert!((g.rho - want).abs() < 1e-12, "rho {} vs forward diff {}", g.rho, want);
        assert!(g.rho < 0.0, "put rho must be negative, got {}", g.rho);

        // The BOPM call at R = 0 takes the same fallback and stays positive.
        let gc = american(ModelKind::Bopm, OptionType::Call, p, 1000).unwrap();
        assert!(gc.rho.is_finite() && gc.rho > 0.0, "call rho {}", gc.rho);
    }

    #[test]
    fn rho_above_the_bump_is_a_central_difference() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let g = american(ModelKind::Bsm, OptionType::Put, p, 800).unwrap();
        let price = |rate: f64| {
            let m = Lattice::explicit_fd(OptionParams { rate, ..p }, 800).unwrap();
            fast::price_american_put(&m)
        };
        let want = (price(p.rate + BUMP_RATE) - price(p.rate - BUMP_RATE)) / (2.0 * BUMP_RATE);
        assert!((g.rho - want).abs() < 1e-12, "rho {} vs central diff {}", g.rho, want);
    }

    #[test]
    fn american_put_theta_nonpositive() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let g = american(ModelKind::Bsm, OptionType::Put, p, 1500).unwrap();
        assert!(g.theta <= 1e-6, "theta {}", g.theta);
    }

    #[test]
    fn greeks_by_fd_memoizes_across_repeated_calls() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let req = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams::paper_defaults(),
            128,
        );
        let first = greeks_by_fd(&pricer, &req).unwrap();
        let misses = pricer.memo_stats().misses;
        let second = greeks_by_fd(&pricer, &req).unwrap();
        assert_eq!(pricer.memo_stats().misses, misses, "second call must be all memo hits");
        assert_eq!(first.delta.to_bits(), second.delta.to_bits());
    }
}
