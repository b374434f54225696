//! The recombining lattices of the paper — the Cox–Ross–Rubinstein binomial
//! tree of §2 and the Boyle trinomial tree of §3 / Appendix A — as one
//! model, [`Lattice<W>`].
//!
//! `W` is the number of cells a row gains per step, which is also the span
//! of the one-step kernel: a `T`-step tree embeds in a `(T+1)×(W·T+1)`
//! grid, row `i` holds time step `i` (row `T` = expiry) in columns
//! `j ∈ [0, W·i]`, and node `(i, j)` reads its children `(i+1, j)` (down,
//! factor `1/u`) through `(i+1, j+W)` (up, factor `u`).  Node `(i, j)`
//! carries asset price `S·u^{(2/W)·j − i}`.  The two models differ only in
//! data: `ln u`, the probability formulas and their stability check.  The
//! engine, the nests, the European pass and the frontier extractors run on
//! both unchanged (the paper presents TOPM as the same nonlinear stencil
//! with a wider kernel, §3 and App. A.3).
//!
//! ## Binomial (`W = 1`, [`crate::bopm::BopmModel`])
//!
//! `u = e^{V√Δt}`; children of `(i, j)` are `(i+1, j)` (down move, factor
//! `d = 1/u`) and `(i+1, j+1)` (up move, factor `u`).  Backward induction
//! weights: the continuation value of `(i,j)` is
//! `s0·G[i+1][j] + s1·G[i+1][j+1]` with `s0 = e^{−RΔt}(1−p)` on the *down*
//! child and `s1 = e^{−RΔt}p` on the *up* child, where
//! `p = (e^{(R−Y)Δt} − d)/(u − d)`.  (Fig. 1 of the paper swaps `s0`/`s1`
//! relative to its own §2.1 — we follow §2.1, the financially correct
//! assignment; see ARCHITECTURE.md, "Errata and substitutions".)
//!
//! ## Trinomial (`W = 2`, [`crate::topm::TopmModel`])
//!
//! `u = e^{V√(2Δt)}`; children of `(i,j)` are `(i+1, j)` (down, factor
//! `1/u`), `(i+1, j+1)` (unchanged), `(i+1, j+2)` (up, factor `u`).
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
use crate::params::{OptionParams, OptionType};
use amopt_stencil::StencilKernel;

/// A fully derived recombining lattice whose rows gain `W` cells per step:
/// `W = 1` is the CRR binomial tree, `W = 2` the Boyle trinomial tree (the
/// only two the constructor accepts).
#[derive(Debug, Clone)]
pub struct Lattice<const W: usize> {
    params: OptionParams,
    steps: usize,
    dt: f64,
    up: f64,
    ln_up: f64,
    /// Risk-neutral probabilities of the children `(i+1, j)` ..
    /// `(i+1, j+W)`, down child first; the first `W + 1` entries are live.
    probabilities: [f64; 3],
    /// The same, discounted: `e^{−RΔt}·p` per child.
    weights: [f64; 3],
    discount: f64,
}

impl<const W: usize> Lattice<W> {
    /// Derives lattice quantities for a `steps`-step tree.
    ///
    /// Fails if parameters are invalid, a risk-neutral probability falls
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
        if let Some(reason) = model.unstable() {
            return Err(PricingError::UnstableDiscretisation { reason });
        }
        params.check_lattice(model.discount, model.ln_up, W as f64 * steps as f64 + 1.0)?;
        Ok(model)
    }

    /// Lattice quantities of already-validated inputs.
    fn derive(params: OptionParams, steps: usize) -> Self {
        const { assert!(W == 1 || W == 2, "a lattice is binomial (W = 1) or trinomial (W = 2)") };
        let dt = params.dt(steps);
        let ln_up = params.volatility * (W as f64 * dt).sqrt();
        let up = ln_up.exp();
        let probabilities = if W == 1 {
            let down = 1.0 / up;
            let growth = ((params.rate - params.dividend_yield) * dt).exp();
            let p_up = (growth - down) / (up - down);
            [1.0 - p_up, p_up, 0.0]
        } else {
            let sqrt_u = (ln_up / 2.0).exp();
            let sqrt_d = 1.0 / sqrt_u;
            let b = ((params.rate - params.dividend_yield) * dt / 2.0).exp();
            let p_up = ((b - sqrt_d) / (sqrt_u - sqrt_d)).powi(2);
            let p_down = ((sqrt_u - b) / (sqrt_u - sqrt_d)).powi(2);
            [p_down, 1.0 - p_up - p_down, p_up]
        };
        let discount = (-params.rate * dt).exp();
        Lattice {
            params,
            steps,
            dt,
            up,
            ln_up,
            probabilities,
            weights: probabilities.map(|p| discount * p),
            discount,
        }
    }

    /// Why the derived probabilities admit arbitrage, if they do.
    fn unstable(&self) -> Option<String> {
        if W == 1 {
            let p_up = self.probabilities[1];
            (!(p_up > 0.0 && p_up < 1.0)).then(|| {
                format!(
                    "risk-neutral probability p = {p_up:.6} outside (0,1); \
                     increase steps or reduce |R−Y|·Δt relative to V·√Δt"
                )
            })
        } else {
            let [p_down, p_mid, p_up] = self.probabilities;
            [("p_u", p_up), ("p_d", p_down), ("p_o", p_mid)]
                .into_iter()
                .find(|&(_, p)| !(p > 0.0 && p < 1.0))
                .map(|(name, p)| {
                    format!(
                        "trinomial probability {name} = {p:.6} outside (0,1); \
                         adjust steps or |R−Y| relative to V"
                    )
                })
        }
    }

    /// The lattice of the mirrored contract ([`OptionParams::mirrored`]),
    /// same steps: an American call on `self` is worth exactly an American
    /// put on the mirror, node `(i, j)` mapping to `(i, W·i − j)`.
    /// Infallible: the probabilities lie in `(0, 1)` iff `d < e^{(R−Y)Δt} < u`
    /// (binomial) or `1/√u < e^{(R−Y)Δt/2} < √u` (trinomial), both symmetric
    /// under `R ↔ Y`.
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

    /// Up factor `u`: `e^{V√Δt}` binomial, `e^{V√(2Δt)}` trinomial.
    #[inline]
    pub fn up(&self) -> f64 {
        self.up
    }

    /// Risk-neutral probabilities of the `W + 1` children, down child first:
    /// `[1−p, p]` binomial, `[p_d, p_o, p_u]` trinomial.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities[..=W]
    }

    /// Discounted weights on the children `(j, …, j+W)`, down child first:
    /// `[s0, s1]` binomial, `[s0, s1, s2]` trinomial.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights[..=W]
    }

    /// Per-step discount factor `m = e^{−RΔt}`.
    #[inline]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Asset price at node `(i, j)`: `S·u^{(2/W)·j − i}` — `S·u^{2j−i}`
    /// binomial, `S·u^{j−i}` trinomial (the exponent in integers first).
    #[inline]
    pub fn node_price(&self, i: usize, j: i64) -> f64 {
        self.params.spot * (((2 / W) as i64 * j - i as i64) as f64 * self.ln_up).exp()
    }

    /// Call exercise value at node `(i, j)`: `S·u^{…} − K`
    /// (the paper's `G^green`, *without* the floor at zero).
    #[inline]
    pub fn exercise_call(&self, i: usize, j: i64) -> f64 {
        self.node_price(i, j) - self.params.strike
    }

    /// Put exercise value at node `(i, j)`: `K − S·u^{…}`.
    #[inline]
    pub fn exercise_put(&self, i: usize, j: i64) -> f64 {
        self.params.strike - self.node_price(i, j)
    }

    /// Exercise value of `(i, j)` for `opt` (no floor).
    #[inline]
    pub(crate) fn exercise(&self, opt: OptionType, i: usize, j: i64) -> f64 {
        match opt {
            OptionType::Call => self.exercise_call(i, j),
            OptionType::Put => self.exercise_put(i, j),
        }
    }

    /// The one-step linear stencil [`Lattice::weights`] with anchor 0
    /// (continuation value of `(i,j)` reads `(i+1, j)` … `(i+1, j+W)`).
    pub fn kernel(&self) -> StencilKernel {
        StencilKernel::new(self.weights().to_vec(), 0)
    }

    /// Largest leaf column whose call exercise value is non-positive, i.e.
    /// the red–green boundary `j_T` of the expiry row; `-1` when every leaf
    /// is in the money.
    ///
    /// Deliberately **not** clamped to the triangle width `W·T`: the
    /// paper's red–green lemmas hold on the column-unbounded extension of
    /// the grid (their algebra never uses the hypotenuse), and the fast
    /// pricers seed the engine from it — as the put's last in-the-money
    /// leaf, which is the same column — clamping only where a row is
    /// materialised.
    pub fn leaf_call_boundary(&self) -> i64 {
        // S·u^{(2/W)j−T} ≤ K  ⇔  j ≤ (T + ln(K/S)/ln u)/(2/W); the
        // float-exact crossing is searched for from that estimate.
        let est = (self.steps as f64 + self.params.levels_to_strike(self.ln_up)) / (2 / W) as f64;
        last_green_from(est.floor() as i64, |j| self.exercise_call(self.steps, j) <= 0.0)
    }
}

impl Lattice<1> {
    /// Closed-form stability floor of the CRR discretisation: the lattice
    /// admits a risk-neutral probability `p ∈ (0, 1)` iff
    /// `V·√Δt > |R − Y|·Δt`, i.e. iff the volatility exceeds
    /// `|R − Y|·√(E/steps)`.
    ///
    /// Volatilities below the returned floor make [`Lattice::new`] fail
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model<const W: usize>(steps: usize) -> Lattice<W> {
        Lattice::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    #[test]
    fn probabilities_and_weights_are_probability_like() {
        fn check<const W: usize>(m: Lattice<W>) {
            let (p, w) = (m.probabilities(), m.weights());
            assert_eq!((p.len(), w.len()), (W + 1, W + 1));
            assert!(p.iter().chain(w).all(|&x| x > 0.0 && x < 1.0), "{p:?} {w:?}");
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-14);
            // Σ s = e^{−RΔt} < 1 for positive rates.
            assert!((w.iter().sum::<f64>() - m.discount()).abs() < 1e-15);
            assert!(m.discount() < 1.0);
        }
        check(model::<1>(252));
        check(model::<2>(252));
    }

    #[test]
    fn node_prices_follow_tree_structure() {
        fn check<const W: usize>(m: Lattice<W>, (i, j): (usize, i64)) {
            let s = m.params().spot;
            assert!((m.node_price(0, 0) - s).abs() < 1e-12);
            // Up child (j+W) multiplies by u, down child (j) divides by u,
            // the trinomial middle child (j+1) keeps the price.
            assert!((m.node_price(i, j) * m.up() - m.node_price(i + 1, j + W as i64)).abs() < 1e-9);
            assert!((m.node_price(i, j) / m.up() - m.node_price(i + 1, j)).abs() < 1e-9);
            if W == 2 {
                assert!((m.node_price(i, j) - m.node_price(i + 1, j + 1)).abs() < 1e-9);
            }
            // Martingale: E[price next] = price·e^{(R−Y)Δt}, which also
            // pins the down-first order of the probabilities.
            let expected: f64 =
                m.probabilities().iter().zip(0..).map(|(p, k)| p * m.node_price(1, k)).sum();
            let growth = ((m.params().rate - m.params().dividend_yield) * m.dt()).exp();
            assert!((expected - s * growth).abs() < 1e-9);
        }
        check(model::<1>(100), (5, 3));
        check(model::<2>(50), (4, 3));
    }

    #[test]
    fn first_moment_is_exact() {
        // p_d/u + p_o + p_u·u = e^{(R−Y)Δt} exactly (factoring identity).
        let m = model::<2>(100);
        let &[pd, po, pu] = m.probabilities() else { unreachable!() };
        let lhs = pd / m.up() + po + pu * m.up();
        let rhs = ((m.params().rate - m.params().dividend_yield) * m.dt()).exp();
        assert!((lhs - rhs).abs() < 1e-14, "{lhs} vs {rhs}");
    }

    #[test]
    fn leaf_boundary_is_exact_crossover() {
        fn check<const W: usize>(steps: &[usize]) {
            for &steps in steps {
                let m = model::<W>(steps);
                let j = m.leaf_call_boundary();
                if j >= 0 {
                    assert!(m.exercise_call(steps, j) <= 0.0, "W={W} steps={steps} j={j}");
                }
                assert!(m.exercise_call(steps, j + 1) > 0.0, "W={W} steps={steps} j={j}");
            }
        }
        check::<1>(&[1, 2, 10, 252, 1001]);
        check::<2>(&[1, 5, 252, 1000]);
    }

    #[test]
    fn leaf_boundary_deep_itm_is_negative_one() {
        let p = OptionParams { spot: 1_000_000.0, strike: 1.0, ..OptionParams::paper_defaults() };
        let m = Lattice::<1>::new(p, 16).unwrap();
        assert_eq!(m.leaf_call_boundary(), -1);
    }

    #[test]
    fn leaf_boundary_deep_otm_extends_beyond_triangle() {
        // On the unbounded column extension the boundary exceeds T for deep
        // out-of-the-money contracts (see leaf_call_boundary docs) — also
        // at a *normal* spot for which the ratio K/S is already `inf`.
        for spot in [1.0, 1e-307] {
            let p = OptionParams { spot, strike: 1_000_000.0, ..OptionParams::paper_defaults() };
            let m = Lattice::<1>::new(p, 16).unwrap();
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
            let e = Lattice::<1>::new(p, 4).expect_err(why).to_string();
            assert!(e.contains(why), "{e}");
        }
        // None of which is a magnitude threshold on the contract itself.
        for moneyness in [1e-18, 1e18] {
            let p = OptionParams { spot: 130.0 * moneyness, ..base };
            assert!(Lattice::<1>::new(p, 4).is_ok(), "S/K = {moneyness:e}");
        }
    }

    #[test]
    fn rejects_zero_steps_and_arbitrage_discretisations() {
        fn check<const W: usize>(bad: OptionParams, steps: usize, why: &str) {
            assert!(Lattice::<W>::new(OptionParams::paper_defaults(), 0).is_err());
            // Enormous drift per step with tiny volatility pushes a
            // probability outside (0,1).
            match Lattice::<W>::new(bad, steps) {
                Err(PricingError::UnstableDiscretisation { reason }) => {
                    assert!(reason.starts_with(why), "{reason}")
                }
                other => panic!("W={W}: {other:?}"),
            }
        }
        let base = OptionParams { volatility: 0.01, ..OptionParams::paper_defaults() };
        check::<1>(OptionParams { rate: 5.0, dividend_yield: 0.0, ..base }, 1, "risk-neutral");
        check::<2>(OptionParams { rate: 3.0, ..base }, 2, "trinomial probability p_");
    }

    #[test]
    fn min_stable_volatility_is_the_exact_threshold() {
        for (rate, div, steps) in [(0.05, 0.0163, 64usize), (0.3, 0.0, 16), (0.001, 0.2, 128)] {
            let p = OptionParams { rate, dividend_yield: div, ..OptionParams::paper_defaults() };
            let floor = Lattice::<1>::min_stable_volatility(&p, steps);
            assert!(floor > 0.0);
            let above = OptionParams { volatility: floor * (1.0 + 1e-6), ..p };
            assert!(Lattice::<1>::new(above, steps).is_ok(), "just above the floor must be stable");
            let below = OptionParams { volatility: floor * (1.0 - 1e-6), ..p };
            assert!(
                matches!(
                    Lattice::<1>::new(below, steps),
                    Err(PricingError::UnstableDiscretisation { .. })
                ),
                "just below the floor must be unstable"
            );
        }
    }

    #[test]
    fn kernel_is_the_discounted_probabilities_down_first() {
        fn check<const W: usize>(m: Lattice<W>) {
            let k = m.kernel();
            assert_eq!(k.weights(), m.weights());
            assert_eq!(k.anchor(), 0);
            for (s, p) in m.weights().iter().zip(m.probabilities()) {
                assert!((s - m.discount() * p).abs() < 1e-15);
            }
        }
        check(model::<1>(64));
        check(model::<2>(10));
    }
}
