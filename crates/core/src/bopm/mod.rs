//! Binomial Option Pricing Model (Cox–Ross–Rubinstein lattice), §2 of the
//! paper.
//!
//! A `T`-step binomial tree is embedded in a `(T+1)×(T+1)` grid: row `i` holds
//! time step `i` (row `T` = expiry), and the node `(i, j)` carries asset price
//! `S·u^{2j−i}`.  Children of `(i,j)` are `(i+1, j)` (down move, factor
//! `d = 1/u`) and `(i+1, j+1)` (up move, factor `u`).
//!
//! Backward induction weights: the continuation value of `(i,j)` is
//! `s0·G[i+1][j] + s1·G[i+1][j+1]` with `s0 = e^{−RΔt}(1−p)` on the *down*
//! child and `s1 = e^{−RΔt}p` on the *up* child, where
//! `p = (e^{(R−Y)Δt} − d)/(u − d)`.  (Fig. 1 of the paper swaps `s0`/`s1`
//! relative to its own §2.1 — we follow §2.1, the financially correct
//! assignment; see ARCHITECTURE.md, "Errata and substitutions".)

pub mod european;
pub mod fast;
pub mod naive;
pub mod tiled;

use crate::engine::left_cone::last_green_from;
use crate::error::{PricingError, Result};
use crate::params::OptionParams;
use amopt_stencil::StencilKernel;

/// A fully derived binomial lattice model.
#[derive(Debug, Clone)]
pub struct BopmModel {
    params: OptionParams,
    steps: usize,
    dt: f64,
    up: f64,
    ln_up: f64,
    p_up: f64,
    /// Discounted weight on the down child `G[i+1][j]`: `e^{−RΔt}(1−p)`.
    s0: f64,
    /// Discounted weight on the up child `G[i+1][j+1]`: `e^{−RΔt}·p`.
    s1: f64,
    discount: f64,
}

impl BopmModel {
    /// Derives lattice quantities for a `steps`-step tree.
    ///
    /// Fails if parameters are invalid, the risk-neutral probability falls
    /// outside `(0, 1)` (an arbitrageable discretisation), or the lattice
    /// cannot be represented (`OptionParams::check_lattice`).
    pub fn new(params: OptionParams, steps: usize) -> Result<Self> {
        let params = params.validated()?;
        if steps == 0 {
            return Err(PricingError::InvalidParams {
                field: "steps",
                reason: "need at least one time step".into(),
            });
        }
        let model = Self::derive(params, steps);
        let p_up = model.p_up;
        if !(p_up > 0.0 && p_up < 1.0) {
            return Err(PricingError::UnstableDiscretisation {
                reason: format!(
                    "risk-neutral probability p = {p_up:.6} outside (0,1); \
                     increase steps or reduce |R−Y|·Δt relative to V·√Δt"
                ),
            });
        }
        params.check_lattice(model.discount, model.ln_up, steps as f64 + 1.0)?;
        Ok(model)
    }

    /// Lattice quantities of already-validated inputs.
    fn derive(params: OptionParams, steps: usize) -> Self {
        let dt = params.dt(steps);
        let ln_up = params.volatility * dt.sqrt();
        let up = ln_up.exp();
        let down = 1.0 / up;
        let growth = ((params.rate - params.dividend_yield) * dt).exp();
        let p_up = (growth - down) / (up - down);
        let discount = (-params.rate * dt).exp();
        BopmModel {
            params,
            steps,
            dt,
            up,
            ln_up,
            p_up,
            s0: discount * (1.0 - p_up),
            s1: discount * p_up,
            discount,
        }
    }

    /// The lattice of the mirrored contract ([`OptionParams::mirrored`]),
    /// same steps: an American call on `self` is worth exactly an American
    /// put on the mirror, node `(i, j)` mapping to `(i, i − j)`.  Infallible:
    /// `p ∈ (0, 1)` is the condition `d < e^{(R−Y)Δt} < u`, which is
    /// symmetric under `R ↔ Y`.
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

    /// Up factor `u = e^{V√Δt}`.
    #[inline]
    pub fn up(&self) -> f64 {
        self.up
    }

    /// Risk-neutral up probability `p`.
    #[inline]
    pub fn p_up(&self) -> f64 {
        self.p_up
    }

    /// Discounted down-child weight `s0 = e^{−RΔt}(1−p)`.
    #[inline]
    pub fn s0(&self) -> f64 {
        self.s0
    }

    /// Discounted up-child weight `s1 = e^{−RΔt}·p`.
    #[inline]
    pub fn s1(&self) -> f64 {
        self.s1
    }

    /// Per-step discount factor `m = e^{−RΔt}`.
    #[inline]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Asset price at node `(i, j)`: `S·u^{2j−i}`.
    #[inline]
    pub fn node_price(&self, i: usize, j: i64) -> f64 {
        self.params.spot * ((2 * j - i as i64) as f64 * self.ln_up).exp()
    }

    /// Call exercise value at node `(i, j)`: `S·u^{2j−i} − K`
    /// (the paper's `G^green`, *without* the floor at zero).
    #[inline]
    pub fn exercise_call(&self, i: usize, j: i64) -> f64 {
        self.node_price(i, j) - self.params.strike
    }

    /// Put exercise value at node `(i, j)`: `K − S·u^{2j−i}`.
    #[inline]
    pub fn exercise_put(&self, i: usize, j: i64) -> f64 {
        self.params.strike - self.node_price(i, j)
    }

    /// The one-step linear stencil `[s0, s1]` with anchor 0
    /// (continuation value of `(i,j)` reads `(i+1, j)` and `(i+1, j+1)`).
    pub fn kernel(&self) -> StencilKernel {
        StencilKernel::new(vec![self.s0, self.s1], 0)
    }

    /// Closed-form stability floor of the CRR discretisation: the lattice
    /// admits a risk-neutral probability `p ∈ (0, 1)` iff
    /// `V·√Δt > |R − Y|·Δt`, i.e. iff the volatility exceeds
    /// `|R − Y|·√(E/steps)`.
    ///
    /// Volatilities below the returned floor make [`BopmModel::new`] fail
    /// with [`PricingError::UnstableDiscretisation`] and volatilities above
    /// it construct, up to rounding in the lattice exponentials: the
    /// effective edge sits up to a few thousand ulps to either side (at the
    /// paper's parameters and T = 32…96).  Root-finders that sweep
    /// volatility — the implied-vol drivers — seed their lower bracket here
    /// instead of probe-walking up from zero.
    pub fn min_stable_volatility(params: &OptionParams, steps: usize) -> f64 {
        if steps == 0 {
            return f64::INFINITY;
        }
        (params.rate - params.dividend_yield).abs() * params.dt(steps).sqrt()
    }

    /// Largest leaf column whose call exercise value is non-positive, i.e.
    /// the red–green boundary `j_T` of the expiry row; `-1` when every leaf
    /// is in the money.
    ///
    /// Deliberately **not** clamped to the triangle width `T`: the paper's
    /// red–green lemmas hold on the column-unbounded extension of the grid
    /// (their algebra never uses the hypotenuse), and the fast pricers seed
    /// the engine from it — as the put's last in-the-money leaf, which is
    /// the same column — clamping only where a row is materialised.
    pub fn leaf_call_boundary(&self) -> i64 {
        // S·u^{2j−T} ≤ K  ⇔  j ≤ (T + ln(K/S)/ln u)/2; the float-exact
        // crossing is searched for from that estimate.
        let est = (self.steps as f64 + self.params.levels_to_strike(self.ln_up)) / 2.0;
        last_green_from(est.floor() as i64, |j| self.exercise_call(self.steps, j) <= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(steps: usize) -> BopmModel {
        BopmModel::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    #[test]
    fn weights_are_probability_like() {
        let m = model(252);
        assert!(m.p_up() > 0.0 && m.p_up() < 1.0);
        assert!(m.s0() > 0.0 && m.s1() > 0.0);
        // s0 + s1 = e^{−RΔt} < 1 for positive rates.
        assert!((m.s0() + m.s1() - m.discount()).abs() < 1e-15);
        assert!(m.discount() < 1.0);
    }

    #[test]
    fn node_prices_follow_tree_structure() {
        let m = model(100);
        let s = m.params().spot;
        assert!((m.node_price(0, 0) - s).abs() < 1e-12);
        // Up child multiplies by u, down child divides by u.
        assert!((m.node_price(5, 3) * m.up() - m.node_price(6, 4)).abs() < 1e-9);
        assert!((m.node_price(5, 3) / m.up() - m.node_price(6, 3)).abs() < 1e-9);
        // Martingale-ish check: E[price next] = price·e^{(R−Y)Δt}.
        let expected = m.p_up() * m.node_price(1, 1) + (1.0 - m.p_up()) * m.node_price(1, 0);
        let growth = ((m.params().rate - m.params().dividend_yield) * m.dt()).exp();
        assert!((expected - s * growth).abs() < 1e-9);
    }

    #[test]
    fn leaf_boundary_is_exact_crossover() {
        for steps in [1usize, 2, 10, 252, 1001] {
            let m = model(steps);
            let j = m.leaf_call_boundary();
            if j >= 0 {
                assert!(m.exercise_call(steps, j) <= 0.0, "steps={steps} j={j}");
            }
            assert!(m.exercise_call(steps, j + 1) > 0.0, "steps={steps} j={j}");
        }
    }

    #[test]
    fn leaf_boundary_deep_itm_is_negative_one() {
        let p = OptionParams { spot: 1_000_000.0, strike: 1.0, ..OptionParams::paper_defaults() };
        let m = BopmModel::new(p, 16).unwrap();
        assert_eq!(m.leaf_call_boundary(), -1);
    }

    #[test]
    fn leaf_boundary_deep_otm_extends_beyond_triangle() {
        // On the unbounded column extension the boundary exceeds T for deep
        // out-of-the-money contracts (see leaf_call_boundary docs) — also
        // at a *normal* spot for which the ratio K/S is already `inf`.
        for spot in [1.0, 1e-307] {
            let p = OptionParams { spot, strike: 1_000_000.0, ..OptionParams::paper_defaults() };
            let m = BopmModel::new(p, 16).unwrap();
            let j = m.leaf_call_boundary();
            assert!(j > 16, "extended boundary {j} should pass the triangle edge");
            assert!(m.exercise_call(16, j) <= 0.0 && m.exercise_call(16, j + 1) > 0.0);
            assert_eq!(m.mirrored().leaf_call_boundary(), -1);
        }
    }

    #[test]
    fn rejects_what_the_lattice_cannot_represent() {
        let base = OptionParams::paper_defaults();
        let driftless = OptionParams { dividend_yield: base.rate, ..base };
        for (why, p) in [
            // u = e^{V√Δt} rounds to 1: p = 0/0.
            ("p = NaN outside (0,1)", OptionParams { volatility: 1e-20, ..driftless }),
            // e^{−RΔt} underflows with no drift to trip the p test first.
            ("discount", OptionParams { rate: 1e9, dividend_yield: 1e9, ..base }),
            // ln(K/S)/ln u ≈ 3e18 levels: no column that far.
            ("grid columns", OptionParams { spot: 1e-300, volatility: 4e-16, ..driftless }),
            // A row of these overflows its transform.
            ("overflows the transform", OptionParams { strike: f64::MAX, ..base }),
        ] {
            let e = BopmModel::new(p, 4).expect_err(why).to_string();
            assert!(e.contains(why), "{e}");
        }
        // None of which is a magnitude threshold on the contract itself.
        for moneyness in [1e-18, 1e18] {
            let p = OptionParams { spot: 130.0 * moneyness, ..base };
            assert!(BopmModel::new(p, 4).is_ok(), "S/K = {moneyness:e}");
        }
    }

    #[test]
    fn rejects_zero_steps() {
        assert!(BopmModel::new(OptionParams::paper_defaults(), 0).is_err());
    }

    #[test]
    fn rejects_arbitrage_discretisation() {
        // Enormous drift per step with tiny volatility pushes p outside (0,1).
        let p = OptionParams {
            rate: 5.0,
            volatility: 0.01,
            dividend_yield: 0.0,
            ..OptionParams::paper_defaults()
        };
        assert!(matches!(BopmModel::new(p, 1), Err(PricingError::UnstableDiscretisation { .. })));
    }

    #[test]
    fn min_stable_volatility_is_the_exact_threshold() {
        for (rate, div, steps) in [(0.05, 0.0163, 64usize), (0.3, 0.0, 16), (0.001, 0.2, 128)] {
            let p = OptionParams { rate, dividend_yield: div, ..OptionParams::paper_defaults() };
            let floor = BopmModel::min_stable_volatility(&p, steps);
            assert!(floor > 0.0);
            let above = OptionParams { volatility: floor * (1.0 + 1e-6), ..p };
            assert!(BopmModel::new(above, steps).is_ok(), "just above the floor must be stable");
            let below = OptionParams { volatility: floor * (1.0 - 1e-6), ..p };
            assert!(
                matches!(
                    BopmModel::new(below, steps),
                    Err(PricingError::UnstableDiscretisation { .. })
                ),
                "just below the floor must be unstable"
            );
        }
    }

    #[test]
    fn kernel_matches_weights() {
        let m = model(64);
        let k = m.kernel();
        assert_eq!(k.weights(), &[m.s0(), m.s1()]);
        assert_eq!(k.anchor(), 0);
    }
}
