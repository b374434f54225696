//! Trinomial Option Pricing Model (Boyle lattice), §3 and Appendix A of the
//! paper.
//!
//! A `T`-step trinomial tree embeds in a `(T+1)×(2T+1)` grid: node `(i, j)`
//! (row `i`, column `j ∈ [0, 2i]`) carries price `S·u^{j−i}` with
//! `u = e^{V√(2Δt)}`.  Children of `(i,j)` are `(i+1, j)` (down, factor
//! `1/u`), `(i+1, j+1)` (unchanged), `(i+1, j+2)` (up, factor `u`).
//!
//! Transition probabilities (Boyle, in the alternate form of the paper):
//! with `b = e^{(R−Y)Δt/2}`, `√u = e^{V√(Δt/2)}`:
//!
//! * `p_u = ((b − 1/√u)/(√u − 1/√u))²`
//! * `p_d = ((√u − b)/(√u − 1/√u))²`
//! * `p_o = 1 − p_u − p_d`
//!
//! Discounted weights in column order: `s0 = m·p_d` (down child at `j`),
//! `s1 = m·p_o`, `s2 = m·p_u` — §3 of the paper lists `s0 = m·p_u`, which
//! contradicts its own Appendix A value formula; we use the financially
//! correct assignment (see ARCHITECTURE.md, "Errata and substitutions").
//!
//! These probabilities satisfy `p_d/u + p_o + p_u·u = e^{(R−Y)Δt}` *exactly*
//! (shown by factoring the quadratics), so the node function
//! `φ(i, j) = S·u^{j−i}` is an eigenfunction of the stencil with eigenvalue
//! `λ = e^{−YΔt}`, just as in the binomial model.

pub mod european;
pub mod fast;
pub mod naive;

use crate::engine::left_cone::last_green_from;
use crate::error::{PricingError, Result};
use crate::params::OptionParams;
use amopt_stencil::StencilKernel;

/// A fully derived trinomial lattice model.
#[derive(Debug, Clone)]
pub struct TopmModel {
    params: OptionParams,
    steps: usize,
    dt: f64,
    up: f64,
    ln_up: f64,
    p_up: f64,
    p_mid: f64,
    p_down: f64,
    /// Discounted weight on the down child `(i+1, j)`.
    s0: f64,
    /// Discounted weight on the middle child `(i+1, j+1)`.
    s1: f64,
    /// Discounted weight on the up child `(i+1, j+2)`.
    s2: f64,
    discount: f64,
}

impl TopmModel {
    /// Derives lattice quantities for a `steps`-step trinomial tree; fails on
    /// the conditions `bopm::BopmModel::new` fails on.
    pub fn new(params: OptionParams, steps: usize) -> Result<Self> {
        let params = params.validated()?;
        if steps == 0 {
            return Err(PricingError::InvalidParams {
                field: "steps",
                reason: "need at least one time step".into(),
            });
        }
        let model = Self::derive(params, steps);
        for (name, p) in [("p_u", model.p_up), ("p_d", model.p_down), ("p_o", model.p_mid)] {
            if !(p > 0.0 && p < 1.0) {
                return Err(PricingError::UnstableDiscretisation {
                    reason: format!(
                        "trinomial probability {name} = {p:.6} outside (0,1); \
                         adjust steps or |R−Y| relative to V"
                    ),
                });
            }
        }
        params.check_lattice(model.discount, model.ln_up, 2.0 * steps as f64 + 1.0)?;
        Ok(model)
    }

    /// Lattice quantities of already-validated inputs.
    fn derive(params: OptionParams, steps: usize) -> Self {
        let dt = params.dt(steps);
        let ln_up = params.volatility * (2.0 * dt).sqrt();
        let up = ln_up.exp();
        let sqrt_u = (ln_up / 2.0).exp();
        let sqrt_d = 1.0 / sqrt_u;
        let b = ((params.rate - params.dividend_yield) * dt / 2.0).exp();
        let p_up = ((b - sqrt_d) / (sqrt_u - sqrt_d)).powi(2);
        let p_down = ((sqrt_u - b) / (sqrt_u - sqrt_d)).powi(2);
        let p_mid = 1.0 - p_up - p_down;
        let discount = (-params.rate * dt).exp();
        TopmModel {
            params,
            steps,
            dt,
            up,
            ln_up,
            p_up,
            p_mid,
            p_down,
            s0: discount * p_down,
            s1: discount * p_mid,
            s2: discount * p_up,
            discount,
        }
    }

    /// The lattice of the mirrored contract ([`OptionParams::mirrored`]),
    /// same steps: an American call on `self` is worth exactly an American
    /// put on the mirror, node `(i, j)` mapping to `(i, 2i − j)`.
    /// Infallible: all three probabilities lie in `(0, 1)` iff
    /// `1/√u < e^{(R−Y)Δt/2} < √u`, which is symmetric under `R ↔ Y`.
    pub fn mirrored(&self) -> Self {
        Self::derive(self.params.mirrored(), self.steps)
    }

    /// The market/contract parameters this lattice was built from.
    #[inline]
    pub fn params(&self) -> &OptionParams {
        &self.params
    }

    /// Number of time steps `T`.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Per-step interval `Δt`.
    #[inline]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Up factor `u = e^{V√(2Δt)}`.
    #[inline]
    pub fn up(&self) -> f64 {
        self.up
    }

    /// Up/middle/down probabilities `(p_u, p_o, p_d)`.
    #[inline]
    pub fn probabilities(&self) -> (f64, f64, f64) {
        (self.p_up, self.p_mid, self.p_down)
    }

    /// Discounted weights `(s0, s1, s2)` on children `(j, j+1, j+2)`.
    #[inline]
    pub fn weights(&self) -> (f64, f64, f64) {
        (self.s0, self.s1, self.s2)
    }

    /// Per-step discount factor `m = e^{−RΔt}`.
    #[inline]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Asset price at node `(i, j)`: `S·u^{j−i}`.
    #[inline]
    pub fn node_price(&self, i: usize, j: i64) -> f64 {
        self.params.spot * ((j - i as i64) as f64 * self.ln_up).exp()
    }

    /// Call exercise value at `(i, j)`: `S·u^{j−i} − K` (no floor).
    #[inline]
    pub fn exercise_call(&self, i: usize, j: i64) -> f64 {
        self.node_price(i, j) - self.params.strike
    }

    /// Put exercise value at `(i, j)`: `K − S·u^{j−i}`.
    #[inline]
    pub fn exercise_put(&self, i: usize, j: i64) -> f64 {
        self.params.strike - self.node_price(i, j)
    }

    /// The one-step linear stencil `[s0, s1, s2]` with anchor 0.
    pub fn kernel(&self) -> StencilKernel {
        StencilKernel::new(vec![self.s0, self.s1, self.s2], 0)
    }

    /// Eigenvalue of the node function: `λ = s0/u + s1 + s2·u = e^{−YΔt}`
    /// up to rounding; computed from the actual taps for consistency with
    /// the FFT path.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.s0 / self.up + self.s1 + self.s2 * self.up
    }

    /// Largest leaf column whose call exercise value is non-positive —
    /// the red–green boundary of the expiry row on the column-unbounded
    /// extension (see `bopm::BopmModel::leaf_call_boundary` for why it is
    /// not clamped to the triangle width `2T`).
    pub fn leaf_call_boundary(&self) -> i64 {
        // S·u^{j−T} ≤ K  ⇔  j ≤ T + ln(K/S)/ln u
        let est = self.steps as f64 + self.params.levels_to_strike(self.ln_up);
        last_green_from(est.floor() as i64, |j| self.exercise_call(self.steps, j) <= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(steps: usize) -> TopmModel {
        TopmModel::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one_and_are_positive() {
        let m = model(252);
        let (pu, po, pd) = m.probabilities();
        assert!(pu > 0.0 && po > 0.0 && pd > 0.0);
        assert!((pu + po + pd - 1.0).abs() < 1e-14);
    }

    #[test]
    fn first_moment_is_exact() {
        // p_d/u + p_o + p_u·u = e^{(R−Y)Δt} exactly (factoring identity).
        let m = model(100);
        let (pu, po, pd) = m.probabilities();
        let lhs = pd / m.up() + po + pu * m.up();
        let rhs = ((m.params().rate - m.params().dividend_yield) * m.dt()).exp();
        assert!((lhs - rhs).abs() < 1e-14, "{lhs} vs {rhs}");
    }

    #[test]
    fn lambda_equals_dividend_discount() {
        let m = model(64);
        let want = (-m.params().dividend_yield * m.dt()).exp();
        assert!((m.lambda() - want).abs() < 1e-13);
    }

    #[test]
    fn node_prices_follow_tree_structure() {
        let m = model(50);
        assert!((m.node_price(0, 0) - m.params().spot).abs() < 1e-12);
        assert!((m.node_price(4, 3) * m.up() - m.node_price(5, 5)).abs() < 1e-9);
        assert!((m.node_price(4, 3) - m.node_price(5, 4)).abs() < 1e-9);
        assert!((m.node_price(4, 3) / m.up() - m.node_price(5, 3)).abs() < 1e-9);
    }

    #[test]
    fn leaf_boundary_is_exact_crossover() {
        for steps in [1usize, 5, 252, 1000] {
            let m = model(steps);
            let j = m.leaf_call_boundary();
            if j >= 0 {
                assert!(m.exercise_call(steps, j) <= 0.0);
            }
            assert!(m.exercise_call(steps, j + 1) > 0.0);
        }
    }

    #[test]
    fn kernel_weights_order_is_down_mid_up() {
        let m = model(10);
        let k = m.kernel();
        let (s0, s1, s2) = m.weights();
        assert_eq!(k.weights(), &[s0, s1, s2]);
        let (pu, po, pd) = m.probabilities();
        assert!((s0 - m.discount() * pd).abs() < 1e-15);
        assert!((s1 - m.discount() * po).abs() < 1e-15);
        assert!((s2 - m.discount() * pu).abs() < 1e-15);
    }

    #[test]
    fn rejects_zero_steps_and_degenerate_probabilities() {
        assert!(TopmModel::new(OptionParams::paper_defaults(), 0).is_err());
        let bad = OptionParams { rate: 3.0, volatility: 0.01, ..OptionParams::paper_defaults() };
        assert!(TopmModel::new(bad, 2).is_err());
    }
}
