//! The recombining lattices of the paper — the Cox–Ross–Rubinstein binomial
//! tree of §2 and the Boyle trinomial tree of §3 / Appendix A — as one
//! model, [`Lattice<W>`], which also carries the explicit finite-difference
//! grid of the BSM put (§4).
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
//!
//! ## Explicit finite differences (`W = 2`, [`crate::bsm::BsmModel`])
//!
//! The BSM put of §4, nondimensionalised (§4.2) with `s = ln(x/K)`,
//! `τ = ½σ²(T_years − t)`, `ṽ = v/K` and `ω = 2R/σ²`, is Eq. (5)'s explicit
//! scheme `v^{n+1}_k = b·v^n_{k−1} + c·v^n_k + a·v^n_{k+1}` floored by the
//! obstacle `1 − e^{s_k}`, with `a = Δτ/Δs² + (ω−1)Δτ/(2Δs)`,
//! `b = Δτ/Δs² − (ω−1)Δτ/(2Δs)` and `c = 1 − ωΔτ − 2Δτ/Δs²` (Thm 4.3 of the
//! paper omits the ½ on the first-order term; we follow Eq. (5) — see
//! ARCHITECTURE.md, "Errata and substitutions").  `Δs = √(Δτ/0.4)`, and
//! stability, `a, b, c ≥ 0`, is checked at construction.  Row `n = T − i`
//! of the scheme spans `k ∈ [−i, i]`, which is the trinomial row `i` with
//! `k = j − i`: the weights `[b, c, a]` take the place of `m·(p_d, p_o,
//! p_u)` (R enters through ω, so there is no separate discount), `ln u` is
//! `Δs`, and the node carries `e^{ln(S/K) + (j−i)·Δs}`.  The grid works in
//! dimensionless units — values in `[0, 1]`, obstacle `1 − e^{s}` — and
//! scales the root by `K`; the trees work in prices.  That is constructor
//! data (`Units`), and so is where the fast put starts: the trees
//! materialise row `T−1`, because their expiry transition may break the
//! drift law, while the FD grid starts at expiry itself, which Thm 4.3
//! covers.  The grid is dividend-free and put-only: it has no mirror, so
//! only [`crate::bsm::BsmModel`], a put-only handle, reaches it.

pub mod fast;
pub mod linear;
pub mod naive;
pub(crate) mod nodes;

use crate::engine::left_cone::{indexable_offset, last_green_from};
use crate::error::{PricingError, Result};
use crate::params::{OptionParams, OptionType};
use amopt_stencil::StencilKernel;
use nodes::{level_exp, NodeTable};

/// Courant number `Δτ/Δs²` of the explicit finite-difference grid.
const CFL_RATIO: f64 = 0.4;

/// A fully derived recombining lattice whose rows gain `W` cells per step:
/// `W = 1` is the CRR binomial tree, `W = 2` the Boyle trinomial tree or the
/// explicit finite-difference grid of the BSM put (the only three the
/// constructors build).
#[derive(Debug, Clone)]
pub struct Lattice<const W: usize> {
    params: OptionParams,
    steps: usize,
    dt: f64,
    up: f64,
    ln_up: f64,
    /// Risk-neutral probabilities of the children `(i+1, j)` ..
    /// `(i+1, j+W)`, down child first; the first `W + 1` entries are live.
    /// The FD grid has none and stores its weights.
    probabilities: [f64; 3],
    /// The same, discounted: `e^{−RΔt}·p` per child.
    weights: [f64; 3],
    discount: f64,
    units: Units,
    /// Whether the fast put starts at the expiry row with nothing stored
    /// (the FD grid) rather than at the materialised row `T−1` (the trees).
    from_expiry: bool,
}

/// How a grid's numbers relate to the contract's: node `(i, j)` carries
/// `spot·e^{base + ((2/W)·j − i)·ln u}`, its put exercise value is
/// `strike −` that, and a grid value times `scale` is a price.  The trees
/// use `(K, S, 0, 1)` and work in prices; the FD grid uses
/// `(1, 1, ln(S/K), K)`.  `0 + x`, `1·x` and `x·1` are exact, so the trees'
/// arithmetic is that of plain prices bit for bit.
#[derive(Debug, Clone, Copy)]
struct Units {
    strike: f64,
    spot: f64,
    base: f64,
    scale: f64,
}

/// Every grid needs a time step.
fn check_steps(steps: usize) -> Result<()> {
    if steps == 0 {
        return Err(PricingError::InvalidParams {
            field: "steps",
            reason: "need at least one time step".into(),
        });
    }
    Ok(())
}

impl<const W: usize> Lattice<W> {
    /// Derives lattice quantities for a `steps`-step tree.
    ///
    /// Fails if parameters are invalid, a risk-neutral probability falls
    /// outside `(0, 1)` (an arbitrageable discretisation), or the lattice
    /// cannot be represented (`OptionParams::check_lattice`).
    pub fn new(params: OptionParams, steps: usize) -> Result<Self> {
        let params = params.validated()?;
        check_steps(steps)?;
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
            units: Units { strike: params.strike, spot: params.spot, base: 0.0, scale: 1.0 },
            from_expiry: false,
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
    /// under `R ↔ Y`.  A tree's only: the FD grid has no mirror, and every
    /// call route passes through here.
    pub fn mirrored(&self) -> Self {
        debug_assert!(!self.from_expiry, "the FD grid has no mirror");
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
    /// binomial, `S·u^{j−i}` trinomial, `K·e^{ln(S/K) + (j−i)·Δs}` on the FD
    /// grid (the exponent in integers first).
    #[inline]
    pub fn node_price(&self, i: usize, j: i64) -> f64 {
        self.units.scale * self.node(i, j)
    }

    /// Node `(i, j)` in grid units (`Units`): the asset price on a tree,
    /// `x/K` on the FD grid.
    #[inline]
    fn node(&self, i: usize, j: i64) -> f64 {
        self.units.spot * level_exp(self.units.base, self.ln_up, Self::levels(i, j))
    }

    /// The `u`-levels of node `(i, j)` above the root: `(2/W)·j − i`.
    #[inline]
    fn levels(i: usize, j: i64) -> i64 {
        (2 / W) as i64 * j - i as i64
    }

    /// An empty table of this lattice's node exponentials (`nodes`), filled
    /// as it is read.
    pub(crate) fn node_table(&self) -> NodeTable {
        NodeTable::new(self.units.base, self.ln_up, self.steps)
    }

    /// Every node exponential of the triangle at once: `E[levels + T]` for
    /// `levels ∈ [−T, T]`, the node table of a reader that visits every
    /// level (the Θ(T²) nest), read with [`Lattice::exercise_from`].
    pub(crate) fn node_exps(&self) -> Vec<f64> {
        let t = self.steps as i64;
        (-t..=t).map(|levels| level_exp(self.units.base, self.ln_up, levels)).collect()
    }

    /// Exercise value of `(i, j)` for `opt` (no floor), the node's exponential
    /// read from `nodes`, which must be this lattice's table
    /// ([`Lattice::node_table`], or the one [`nodes::NodeTables`] hands out
    /// for it): bitwise [`Lattice::exercise_call`] / [`Lattice::exercise_put`].
    #[inline]
    pub(crate) fn exercise_in(&self, nodes: &NodeTable, opt: OptionType, i: usize, j: i64) -> f64 {
        self.exercise_from(opt, nodes.exp(Self::levels(i, j)))
    }

    /// Exercise value for `opt` (no floor) of the node whose exponential
    /// `e^{base + levels·ln u}` is `exp`.
    #[inline]
    pub(crate) fn exercise_from(&self, opt: OptionType, exp: f64) -> f64 {
        let node = self.units.spot * exp;
        match opt {
            OptionType::Call => node - self.units.strike,
            OptionType::Put => self.units.strike - node,
        }
    }

    /// Call exercise value at node `(i, j)` in grid units: `S·u^{…} − K` on a
    /// tree (the paper's `G^green`, *without* the floor at zero).
    #[inline]
    pub fn exercise_call(&self, i: usize, j: i64) -> f64 {
        self.node(i, j) - self.units.strike
    }

    /// Put exercise value at node `(i, j)` in grid units: `K − S·u^{…}` on a
    /// tree, `1 − e^{s}` on the FD grid.
    #[inline]
    pub fn exercise_put(&self, i: usize, j: i64) -> f64 {
        self.units.strike - self.node(i, j)
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

impl Lattice<2> {
    /// The explicit finite-difference grid of the BSM put (module docs):
    /// `dt` is `Δτ`, `ln u` is `Δs`, the weights are `[b, c, a]`.
    ///
    /// Fails if parameters are invalid, the dividend yield is not zero (the
    /// paper's BSM section has none, and a non-zero yield is refused rather
    /// than silently mispriced), a scheme weight is negative or not a number,
    /// or the strike sits further from the spot than a column can index.
    pub(crate) fn explicit_fd(params: OptionParams, steps: usize) -> Result<Self> {
        let params = params.validated()?;
        // amopt-lint: allow(float-eq) -- exact Y = 0.0 is a validation gate: the paper's BSM model is dividend-free by construction
        if params.dividend_yield != 0.0 {
            return Err(PricingError::InvalidParams {
                field: "dividend_yield",
                reason: "the BSM finite-difference model (paper §4) is dividend-free; use Y = 0"
                    .into(),
            });
        }
        check_steps(steps)?;
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
        let weights = [b, c, a];
        Ok(Lattice {
            params,
            steps,
            dt: d_tau,
            up: d_s.exp(),
            ln_up: d_s,
            probabilities: weights,
            weights,
            discount: 1.0,
            units: Units { strike: 1.0, spot: 1.0, base: s_base, scale: params.strike },
            from_expiry: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model<const W: usize>(steps: usize) -> Lattice<W> {
        Lattice::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    /// The paper's contract without its dividend: the FD grid's domain.
    fn fd_params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    fn fd(steps: usize) -> Lattice<2> {
        Lattice::explicit_fd(fd_params(), steps).unwrap()
    }

    #[test]
    fn probabilities_and_weights_are_probability_like() {
        fn check<const W: usize>(m: Lattice<W>) {
            let (p, w) = (&m.probabilities[..=W], m.weights());
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
    fn explicit_fd_grid_is_the_bsm_scheme() {
        for steps in [64usize, 512, 1000] {
            let m = fd(steps);
            let p = *m.params();
            // a, b, c ≥ 0 at the Courant number, summing to 1 − ωΔτ < 1.
            let &[b, c, a] = m.weights() else { unreachable!() };
            assert!(a >= 0.0 && b >= 0.0 && c >= 0.0);
            let omega = 2.0 * p.rate / (p.volatility * p.volatility);
            assert!((a + b + c - (1.0 - omega * m.dt())).abs() < 1e-14);
            assert!(a + b + c < 1.0);
            assert!((m.dt() / (m.ln_up * m.ln_up) - CFL_RATIO).abs() < 1e-12);
            // Column j of row i sits at log-moneyness ln(S/K) + (j − i)·Δs,
            // and the put pays (K − x)₊ / K there in grid units.
            let i = steps / 2;
            for j in [i as i64 - 3, i as i64, i as i64 + 7] {
                let s = (p.spot / p.strike).ln() + (j - i as i64) as f64 * m.ln_up;
                let x = m.node_price(i, j);
                assert!((x - p.strike * s.exp()).abs() < 1e-12 * x, "j={j}");
                let payoff = m.exercise_put(i, j).max(0.0);
                assert!((payoff - (p.strike - x).max(0.0) / p.strike).abs() < 1e-12, "j={j}");
            }
        }
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
                m.probabilities[..=W].iter().zip(0..).map(|(p, k)| p * m.node_price(1, k)).sum();
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
        let [pd, po, pu] = m.probabilities;
        let lhs = pd / m.up() + po + pu * m.up();
        let rhs = ((m.params().rate - m.params().dividend_yield) * m.dt()).exp();
        assert!((lhs - rhs).abs() < 1e-14, "{lhs} vs {rhs}");
    }

    #[test]
    fn leaf_boundary_is_exact_crossover() {
        fn check<const W: usize>(models: impl IntoIterator<Item = Lattice<W>>) {
            for m in models {
                let (steps, j) = (m.steps(), m.leaf_call_boundary());
                if j >= 0 {
                    assert!(m.exercise_call(steps, j) <= 0.0, "W={W} steps={steps} j={j}");
                }
                assert!(m.exercise_call(steps, j + 1) > 0.0, "W={W} steps={steps} j={j}");
            }
        }
        check([1, 2, 10, 252, 1001].map(model::<1>));
        check([1, 5, 252, 1000].map(model::<2>));
        check([16, 252, 4096].map(fd));
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
    fn explicit_fd_rejects_what_the_scheme_cannot_price() {
        let p = fd_params();
        assert!(Lattice::explicit_fd(OptionParams::paper_defaults(), 100).is_err()); // Y ≠ 0
        assert!(Lattice::explicit_fd(p, 0).is_err());
        for (why, q) in [
            // σ² underflows to 0: ω = inf, Δs = 0, and a, b, c are NaN —
            // which `v < 0.0` lets through.  Then σ² overflows.
            ("a = NaN", OptionParams { volatility: 1e-300, ..p }),
            ("a = NaN", OptionParams { volatility: 1e300, ..p }),
            // A valid scheme (R = 0: a = b = 0.4, c = 0.2) on a grid so fine
            // that the strike sits ≈ 1e148 columns from the spot.
            ("grid columns", OptionParams { volatility: 1e-150, rate: 0.0, ..p }),
            ("no finite logarithm", OptionParams { spot: 1e300, strike: 1e-300, ..p }),
        ] {
            let e = Lattice::explicit_fd(q, 4).expect_err(why).to_string();
            assert!(e.contains(why), "{e}");
        }
        // A large ω·Δτ drives the weights negative.
        let steep = OptionParams { rate: 0.5, volatility: 0.05, ..p };
        assert!(matches!(
            Lattice::explicit_fd(steep, 1),
            Err(PricingError::UnstableDiscretisation { .. })
        ));
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
            for (s, p) in m.weights().iter().zip(&m.probabilities[..=W]) {
                assert!((s - m.discount() * p).abs() < 1e-15);
            }
        }
        check(model::<1>(64));
        check(model::<2>(10));
    }
}
