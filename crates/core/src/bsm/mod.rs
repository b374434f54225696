//! Black–Scholes–Merton American put via explicit finite differences (§4 of
//! the paper).
//!
//! ## Nondimensionalisation (§4.2)
//!
//! With `s = ln(x/K)`, `τ = ½σ²(T_years − t)`, `ṽ = v/K`, `ω = 2R/σ²`,
//! Eq. (5) of the paper gives the explicit scheme
//!
//! `v^{n+1}_k = c·v^n_k + a·v^n_{k+1} + b·v^n_{k−1}` in the red zone,
//! `v^{n+1}_k = 1 − e^{s_k}` in the green zone,
//!
//! with `a = Δτ/Δs² + (ω−1)Δτ/(2Δs)`, `b = Δτ/Δs² − (ω−1)Δτ/(2Δs)`,
//! `c = 1 − ωΔτ − 2Δτ/Δs²` (Thm 4.3 of the paper omits the ½ on the
//! first-order term; we follow Eq. (5) — see ARCHITECTURE.md, "Errata and
//! substitutions").
//! Stability requires `a, b, c ≥ 0`, enforced at construction by choosing
//! `Δs = √(Δτ/λ_cfl)` with `λ_cfl = 0.4` and validating.
//!
//! ## Grid
//!
//! `T` time steps, spatial cone of half-width `T` centred on the valuation
//! point: column `k` carries `s_k = ln(S/K) + k·Δs`, row `n` counts steps
//! *from expiry* and spans `k ∈ [−(T−n), T−n]`; the apex `(T, 0)` is the
//! answer, scaled back by `K`.  The green (early-exercise) zone sits on the
//! **left** (low prices) and its boundary moves left by at most one column
//! per step (Thm 4.3).
//!
//! The put value is bounded by `K`, so the engine stores *raw* dimensionless
//! values (`∈ [0, 1]`) — it is the obstacle `1 − e^{s}` that diverges
//! (negatively) to the right, and those columns are red, never green, so
//! the divergence is never materialised.  [`fast`] shears the grid
//! (`c' = k + (T − n)`) so the anchor −1 stencil becomes the anchor-0 one
//! the engine runs.

pub mod fast;
pub mod naive;

use crate::engine::left_cone::{crossing_from, indexable_offset};
use crate::error::{PricingError, Result};
use crate::params::OptionParams;
use amopt_stencil::StencilKernel;

/// Courant number `Δτ/Δs²` used to pick the spatial step.
pub const CFL_RATIO: f64 = 0.4;

/// A fully derived explicit-FD discretisation of the BSM put problem.
#[derive(Debug, Clone)]
pub struct BsmModel {
    params: OptionParams,
    steps: usize,
    d_tau: f64,
    d_s: f64,
    omega: f64,
    /// Weight on `v^n_{k+1}`.
    a: f64,
    /// Weight on `v^n_{k−1}`.
    b: f64,
    /// Weight on `v^n_k`.
    c: f64,
    /// `ln(S/K)`: the log-moneyness of the apex column.
    s_base: f64,
}

impl BsmModel {
    /// Builds the discretisation, validating parameters and stability.
    ///
    /// The paper's BSM section has no dividend yield; a non-zero
    /// `dividend_yield` is rejected to avoid silently mispricing.
    pub fn new(params: OptionParams, steps: usize) -> Result<Self> {
        let params = params.validated()?;
        // amopt-lint: allow(float-eq) -- exact Y = 0.0 is a validation gate: the paper's BSM model is dividend-free by construction
        if params.dividend_yield != 0.0 {
            return Err(PricingError::InvalidParams {
                field: "dividend_yield",
                reason: "the BSM finite-difference model (paper §4) is dividend-free; use Y = 0"
                    .into(),
            });
        }
        if steps == 0 {
            return Err(PricingError::InvalidParams {
                field: "steps",
                reason: "need at least one time step".into(),
            });
        }
        let sigma2 = params.volatility * params.volatility;
        let omega = 2.0 * params.rate / sigma2;
        let tau_max = 0.5 * sigma2 * params.expiry;
        let d_tau = tau_max / steps as f64;
        let d_s = (d_tau / CFL_RATIO).sqrt();
        let diff = d_tau / (d_s * d_s);
        let drift = (omega - 1.0) * d_tau / (2.0 * d_s);
        let a = diff + drift;
        let b = diff - drift;
        let c = 1.0 - omega * d_tau - 2.0 * diff;
        // `!(v >= 0)`, not `v < 0`: a σ² or Δτ that underflowed to zero (or a
        // σ² that overflowed) leaves NaN coefficients, which pass `v < 0`.
        for (name, v) in [("a", a), ("b", b), ("c", c)] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(PricingError::UnstableDiscretisation {
                    reason: format!(
                        "explicit-scheme coefficient {name} = {v:.3e} is negative or not finite \
                         (ω = {omega:.3}, Δτ = {d_tau:.3e}, Δs = {d_s:.3e}); increase steps"
                    ),
                });
            }
        }
        // The ratio, not a difference of logarithms: `s_base` is the grid's
        // origin, and every price on it carries these bits.
        let s_base = (params.spot / params.strike).ln();
        if !s_base.is_finite() {
            return Err(PricingError::InvalidParams {
                field: "spot",
                reason: format!(
                    "moneyness S/K = {:e} has no finite logarithm",
                    params.spot / params.strike
                ),
            });
        }
        indexable_offset(s_base / d_s)?;
        Ok(BsmModel { params, steps, d_tau, d_s, omega, a, b, c, s_base })
    }

    /// The market/contract parameters this grid was built from.
    #[inline]
    pub fn params(&self) -> &OptionParams {
        &self.params
    }

    /// Number of time steps `T`.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Dimensionless time step `Δτ`.
    #[inline]
    pub fn d_tau(&self) -> f64 {
        self.d_tau
    }

    /// Log-price step `Δs`.
    #[inline]
    pub fn d_s(&self) -> f64 {
        self.d_s
    }

    /// `ω = 2R/σ²`.
    #[inline]
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Scheme weights `(b, c, a)` on `(v^n_{k−1}, v^n_k, v^n_{k+1})`.
    #[inline]
    pub fn weights(&self) -> (f64, f64, f64) {
        (self.b, self.c, self.a)
    }

    /// Log-moneyness at column `k`: `s_k = ln(S/K) + k·Δs`.
    #[inline]
    pub fn s_at(&self, k: i64) -> f64 {
        self.s_base + k as f64 * self.d_s
    }

    /// Node function `φ(k) = e^{s_k}` (time-independent).
    #[inline]
    pub fn phi(&self, k: i64) -> f64 {
        self.s_at(k).exp()
    }

    /// Dimensionless exercise value at column `k`: `1 − e^{s_k}` (no floor).
    #[inline]
    pub fn exercise(&self, k: i64) -> f64 {
        1.0 - self.phi(k)
    }

    /// The 3-point stencil `[b, c, a]` anchored at −1.
    pub fn kernel(&self) -> StencilKernel {
        StencilKernel::new(vec![self.b, self.c, self.a], -1)
    }

    /// Eigenvalue of `φ` under the stencil:
    /// `λ = b·e^{−Δs} + c + a·e^{Δs}` (column-independent).
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.b * (-self.d_s).exp() + self.c + self.a * self.d_s.exp()
    }

    /// Expiry-row boundary: largest `k` with `s_k ≤ 0` (exercise region),
    /// unclamped to the cone.
    pub fn expiry_boundary(&self) -> i64 {
        crossing_from((-self.s_base / self.d_s).floor() as i64, |k| self.s_at(k) <= 0.0)
    }

    /// Dimensionless payoff at column `k`: `max(1 − e^{s_k}, 0)`.
    #[inline]
    pub fn payoff(&self, k: i64) -> f64 {
        self.exercise(k).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    fn model(steps: usize) -> BsmModel {
        BsmModel::new(params(), steps).unwrap()
    }

    #[test]
    fn coefficients_are_stable_and_sum_below_one() {
        let m = model(1000);
        let (b, c, a) = m.weights();
        assert!(a >= 0.0 && b >= 0.0 && c >= 0.0);
        let total = a + b + c;
        assert!((total - (1.0 - m.omega() * m.d_tau())).abs() < 1e-14);
        assert!(total < 1.0);
    }

    #[test]
    fn cfl_ratio_is_respected() {
        let m = model(512);
        let ratio = m.d_tau() / (m.d_s() * m.d_s());
        assert!((ratio - CFL_RATIO).abs() < 1e-12);
    }

    #[test]
    fn rejects_dividends_and_zero_steps() {
        assert!(BsmModel::new(OptionParams::paper_defaults(), 100).is_err()); // Y ≠ 0
        assert!(BsmModel::new(params(), 0).is_err());
    }

    #[test]
    fn expiry_boundary_is_exact_crossover() {
        for steps in [16usize, 252, 4096] {
            let m = model(steps);
            let f = m.expiry_boundary();
            assert!(m.s_at(f) <= 0.0);
            assert!(m.s_at(f + 1) > 0.0);
        }
    }

    #[test]
    fn rejects_grids_whose_coefficients_or_columns_are_not_numbers() {
        for (why, p) in [
            // σ² underflows to 0: ω = inf, Δs = 0, and a, b, c are NaN —
            // which `v < 0.0` lets through.  Then σ² overflows.
            ("a = NaN", OptionParams { volatility: 1e-300, ..params() }),
            ("a = NaN", OptionParams { volatility: 1e300, ..params() }),
            // A valid scheme (R = 0: a = b = 0.4, c = 0.2) on a grid so fine
            // that the strike sits ≈ 1e148 columns from the spot.
            ("grid columns", OptionParams { volatility: 1e-150, rate: 0.0, ..params() }),
            ("no finite logarithm", OptionParams { spot: 1e300, strike: 1e-300, ..params() }),
        ] {
            let e = BsmModel::new(p, 4).expect_err(why).to_string();
            assert!(e.contains(why), "{e}");
        }
    }

    #[test]
    fn lambda_matches_direct_application() {
        let m = model(256);
        let (b, c, a) = m.weights();
        for k in [-5i64, 0, 7] {
            let lhs = b * m.phi(k - 1) + c * m.phi(k) + a * m.phi(k + 1);
            let rhs = m.lambda() * m.phi(k);
            assert!((lhs - rhs).abs() < 1e-14 * rhs.abs());
        }
    }

    #[test]
    fn payoff_matches_put_intrinsic() {
        let m = model(64);
        let k_probe = -3i64;
        let x = m.params().strike * m.s_at(k_probe).exp(); // asset price at column
        let want = (m.params().strike - x).max(0.0) / m.params().strike;
        assert!((m.payoff(k_probe) - want).abs() < 1e-12);
    }

    #[test]
    fn unstable_when_omega_large_and_steps_tiny() {
        // ω·Δτ > 1 forces c < 0.
        let p = OptionParams {
            rate: 0.5,
            volatility: 0.05,
            dividend_yield: 0.0,
            ..OptionParams::paper_defaults()
        };
        assert!(matches!(BsmModel::new(p, 1), Err(PricingError::UnstableDiscretisation { .. })));
    }
}
