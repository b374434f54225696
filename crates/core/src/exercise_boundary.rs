//! Early-exercise boundary extraction — the red–green divider of §2.2/§4.2
//! surfaced as a user-facing curve in market coordinates.
//!
//! The critical asset price at time step `i` is the price at the first green
//! (exercise-optimal) column of that row.  The extractors reuse the fast
//! engine's boundary tracking, so sampling the curve costs no more than one
//! pricing pass.
//!
//! The engine tracks the last *green* column `f` of a put-shaped problem.
//! Lattice puts report it directly.  Lattice **calls** are priced as the put
//! of the mirrored contract (`S ↔ K`, `R ↔ Y`), whose node `(i, c)` is the
//! call's node `(i, W·i − c)` with `W·i` the row width (`W = 1` BOPM, `2`
//! TOPM): the call's last red column is `j = W·i − f − 1`, clamped to
//! `[−1, W·i]` — `−1` when the whole row exercises (the mirror reports any
//! `f ≥ W·i`), `W·i` when none of it does (`f = −1`) — and its critical
//! price is the node price at `j + 1`.  At expiry a leaf whose payoff ties
//! with the continuation of 0 (at the money) counts as red, read on the
//! call's own lattice as the nest reads it.  On an interior row the frontier
//! is the mirror's, where an exact tie would count as green, so there the
//! call frontier is the last column *strictly* red at a tie.  The BSM put's grid is a trinomial-shaped
//! lattice (column `j = k + i` of row `i` is the scheme's log-price column
//! `k`), so its samples follow the lattice put's conventions — market row
//! `i`, last green column, `−1` for none — and its critical price is
//! `K·e^{ln(S/K) + (j−i)·Δs}`.

use crate::bsm::BsmModel;
use crate::lattice::{fast, Lattice};

/// One sample of the early-exercise frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryPoint {
    /// Market time step `i` (0 = valuation date, `T` = expiry).
    pub time_step: usize,
    /// Time from valuation in years.
    pub time_years: f64,
    /// Critical asset price: exercising is optimal at or beyond it
    /// (beyond = above for calls, below for puts).  `None` when no
    /// exercise region exists at that time step within the grid.
    pub critical_price: Option<f64>,
}

/// Early-exercise frontier of an American **call** on either lattice, read
/// off the mirrored put (module docs) in one `O(T log² T)` pricing pass.
pub fn lattice_call_boundary<const W: usize>(
    model: &Lattice<W>,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let (_, raw) = fast::price_with_boundary_samples(model, samples);
    // First green column is j+1; a boundary at the row width W·i means the
    // whole row continues (no exercise region).
    points(raw, model.steps(), model.params().expiry, |i, j| {
        (j < W as i64 * i as i64).then(|| model.node_price(i, j + 1))
    })
}

/// Early-exercise frontier of an American **put** on either lattice, via
/// the engine's boundary tracking (one fast pricing pass).
pub fn lattice_put_boundary<const W: usize>(
    model: &Lattice<W>,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let (_, raw) = fast::price_put_with_boundary_samples(model, samples);
    // Last green column is f (clamped to the row: a boundary at or past the
    // row width W·i means the whole row exercises); f < 0 means no exercise
    // region in the row.
    points(raw, model.steps(), model.params().expiry, |i, f| {
        (f >= 0).then(|| model.node_price(i, f.min(W as i64 * i as i64)))
    })
}

/// Early-exercise frontier of an American **put** under the BSM explicit FD
/// scheme: [`lattice_put_boundary`] on its grid.
pub fn bsm_put_boundary(model: &BsmModel, samples: usize) -> Vec<BoundaryPoint> {
    lattice_put_boundary(&model.0, samples)
}

/// Market-time samples `(i, column)` of a `T`-step grid as frontier points,
/// `critical` giving a sample's critical asset price.
fn points(
    raw: Vec<(usize, i64)>,
    t: usize,
    expiry: f64,
    critical: impl Fn(usize, i64) -> Option<f64>,
) -> Vec<BoundaryPoint> {
    raw.into_iter()
        .map(|(i, col)| BoundaryPoint {
            time_step: i,
            time_years: expiry * i as f64 / t as f64,
            critical_price: critical(i, col),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OptionParams;

    #[test]
    fn call_boundary_sits_above_strike() {
        // Exercising a call early is only optimal in the money (the
        // trinomial frontier to within its quantisation).
        fn check<const W: usize>(steps: usize, slack: f64) {
            let m = Lattice::<W>::new(OptionParams::paper_defaults(), steps).unwrap();
            let pts = lattice_call_boundary(&m, 16);
            let prices: Vec<f64> = pts.iter().filter_map(|p| p.critical_price).collect();
            assert!(prices.len() > 4, "W={W}: expected a visible exercise region");
            for price in prices {
                assert!(price >= m.params().strike * slack, "W={W}: critical {price} below strike");
            }
        }
        check::<1>(1024, 1.0);
        check::<2>(400, 0.999);
    }

    #[test]
    fn put_boundary_sits_below_strike_and_decreases_with_tau() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let m = BsmModel::new(p, 2048).unwrap();
        let pts = bsm_put_boundary(&m, 32);
        // Points come expiry-first; Thm 4.2: the critical price decreases as
        // time-to-expiry grows, and always sits below the strike.
        let prices: Vec<f64> = pts.iter().filter_map(|p| p.critical_price).collect();
        assert!(prices.len() > 4);
        for w in prices.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "boundary not decreasing in tau: {w:?}");
        }
        for &x in &prices {
            assert!(x <= p.strike * (1.0 + 1e-12));
        }
    }

    #[test]
    fn lattice_put_boundary_sits_below_strike_and_decreases_with_tau() {
        fn check<const W: usize>() {
            let m = Lattice::<W>::new(OptionParams::paper_defaults(), 2048).unwrap();
            let pts = lattice_put_boundary(&m, 32);
            // Samples come expiry-first; the critical price decreases as
            // time-to-expiry grows (the put mirror of Thm 4.2) and sits at
            // or below the strike.
            let prices: Vec<f64> = pts.iter().filter_map(|p| p.critical_price).collect();
            assert!(prices.len() > 4, "W={W}: expected a visible exercise region");
            // The discrete frontier tracks S*(τ) to within a factor u² of
            // lattice quantisation (the trinomial one may drop two columns
            // per step).
            let slack = m.up().powi(2) * (1.0 + 1e-9);
            for w in prices.windows(2) {
                assert!(w[1] <= w[0] * slack, "W={W}: boundary not decreasing in tau: {w:?}");
            }
            for &x in &prices {
                assert!(x <= m.params().strike * (1.0 + 1e-12), "W={W}: critical {x} above strike");
            }
        }
        check::<1>();
        check::<2>();
    }
}
