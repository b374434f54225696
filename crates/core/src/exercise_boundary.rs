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
//! call's node `(i, w·i − c)` with `w·i` the row width (`w = 1` BOPM, `2`
//! TOPM): the call's last red column is `j = w·i − f − 1`, clamped to
//! `[−1, w·i]` — `−1` when the whole row exercises (the mirror reports any
//! `f ≥ w·i`), `w·i` when none of it does (`f = −1`) — and its critical
//! price is the node price at `j + 1`.  A node where exercise and
//! continuation tie *exactly* counts as green, the put engine's convention,
//! so on such a node the call frontier sits one column lower than a
//! red-on-tie sweep would put it.  The BSM put's sheared columns map back
//! as `k = c' − (T − n)`.

use crate::bopm::BopmModel;
use crate::bsm::BsmModel;
use crate::engine::EngineConfig;
use crate::topm::TopmModel;

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

/// Early-exercise frontier of an American **call** under BOPM, read off the
/// mirrored put (module docs).
pub fn bopm_call_boundary(
    model: &BopmModel,
    cfg: &EngineConfig,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let t = model.steps();
    let expiry = model.params().expiry;
    let (_, raw) = crate::bopm::fast::price_with_boundary_samples(model, cfg, samples);
    raw.into_iter()
        .map(|(i, j)| BoundaryPoint {
            time_step: i,
            time_years: expiry * i as f64 / t as f64,
            // First green column is j+1; a boundary at the row width i
            // means the whole row continues (no exercise region).
            critical_price: (j < i as i64).then(|| model.node_price(i, j + 1)),
        })
        .collect()
}

/// Early-exercise frontier of an American **put** under BOPM, via the
/// engine's boundary tracking (one fast pricing pass).
pub fn bopm_put_boundary(
    model: &BopmModel,
    cfg: &EngineConfig,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let t = model.steps();
    let expiry = model.params().expiry;
    let (_, raw) = crate::bopm::fast::price_put_with_boundary_samples(model, cfg, samples);
    raw.into_iter()
        .map(|(i, f)| BoundaryPoint {
            time_step: i,
            time_years: expiry * i as f64 / t as f64,
            // Last green column is f (clamped to the row: a boundary at or
            // past the row width means the whole row exercises); f < 0
            // means no exercise region in the row.
            critical_price: (f >= 0).then(|| model.node_price(i, f.min(i as i64))),
        })
        .collect()
}

/// Early-exercise frontier of an American **put** under the BSM explicit FD
/// scheme.
pub fn bsm_put_boundary(
    model: &BsmModel,
    cfg: &EngineConfig,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let t = model.steps();
    let expiry = model.params().expiry;
    let strike = model.params().strike;
    let (_, raw) = crate::bsm::fast::price_with_boundary_samples(model, cfg, samples);
    raw.into_iter()
        .map(|(n, k)| {
            // Engine row n counts from expiry; market step i = T − n.
            let i = t - n;
            BoundaryPoint {
                time_step: i,
                time_years: expiry * i as f64 / t as f64,
                critical_price: (k >= -(t as i64 - n as i64)).then(|| strike * model.s_at(k).exp()),
            }
        })
        .collect()
}

/// Early-exercise frontier of an American **call** under TOPM, read off the
/// mirrored put (module docs) in one `O(T log² T)` pricing pass.
pub fn topm_call_boundary(
    model: &TopmModel,
    cfg: &EngineConfig,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let t = model.steps();
    let expiry = model.params().expiry;
    let (_, raw) = crate::topm::fast::price_with_boundary_samples(model, cfg, samples);
    raw.into_iter()
        .map(|(i, j)| BoundaryPoint {
            time_step: i,
            time_years: expiry * i as f64 / t as f64,
            // First green column is j+1; a boundary at the trinomial row
            // width 2i means the whole row continues.
            critical_price: (j < 2 * i as i64).then(|| model.node_price(i, j + 1)),
        })
        .collect()
}

/// Early-exercise frontier of an American **put** under TOPM, via the
/// engine's boundary tracking (one fast pricing pass).
pub fn topm_put_boundary(
    model: &TopmModel,
    cfg: &EngineConfig,
    samples: usize,
) -> Vec<BoundaryPoint> {
    let t = model.steps();
    let expiry = model.params().expiry;
    let (_, raw) = crate::topm::fast::price_put_with_boundary_samples(model, cfg, samples);
    raw.into_iter()
        .map(|(i, f)| BoundaryPoint {
            time_step: i,
            time_years: expiry * i as f64 / t as f64,
            // Last green column is f (clamped to the row width 2i); f < 0
            // means no exercise region in the row.
            critical_price: (f >= 0).then(|| model.node_price(i, f.min(2 * i as i64))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OptionParams;

    #[test]
    fn call_boundary_sits_above_strike() {
        // Exercising a call early is only optimal in the money.
        let m = BopmModel::new(OptionParams::paper_defaults(), 1024).unwrap();
        let pts = bopm_call_boundary(&m, &EngineConfig::default(), 16);
        let mut seen = 0;
        for p in &pts {
            if let Some(price) = p.critical_price {
                assert!(price >= m.params().strike, "critical {price} below strike");
                seen += 1;
            }
        }
        assert!(seen > 4, "expected a visible exercise region");
    }

    #[test]
    fn put_boundary_sits_below_strike_and_decreases_with_tau() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let m = BsmModel::new(p, 2048).unwrap();
        let pts = bsm_put_boundary(&m, &EngineConfig::default(), 32);
        // Points come expiry-first; Thm 4.2: the critical price decreases as
        // time-to-expiry grows, and always sits below the strike.
        let prices: Vec<f64> = pts.iter().filter_map(|p| p.critical_price).collect();
        assert!(prices.len() > 4);
        for w in prices.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "boundary not decreasing in tau: {w:?}");
        }
        for &x in &prices {
            assert!(x <= m.params().strike * (1.0 + 1e-12));
        }
    }

    #[test]
    fn bopm_put_boundary_sits_below_strike_and_decreases_with_tau() {
        let m = BopmModel::new(OptionParams::paper_defaults(), 2048).unwrap();
        let pts = bopm_put_boundary(&m, &EngineConfig::default(), 32);
        // Samples come expiry-first; the critical price decreases as
        // time-to-expiry grows (the put mirror of Thm 4.2) and sits at or
        // below the strike.
        let prices: Vec<f64> = pts.iter().filter_map(|p| p.critical_price).collect();
        assert!(prices.len() > 4, "expected a visible exercise region");
        // The discrete frontier tracks S*(τ) to within a factor u² of
        // lattice quantisation.
        let slack = m.up().powi(2) * (1.0 + 1e-9);
        for w in prices.windows(2) {
            assert!(w[1] <= w[0] * slack, "boundary not decreasing in tau: {w:?}");
        }
        for &x in &prices {
            assert!(x <= m.params().strike * (1.0 + 1e-12), "critical {x} above strike");
        }
    }

    #[test]
    fn trinomial_boundary_critical_prices_above_strike() {
        let p = OptionParams::paper_defaults();
        let tri = TopmModel::new(p, 400).unwrap();
        let pts = topm_call_boundary(&tri, &EngineConfig::default(), 16);
        let seen = pts.iter().filter(|p| p.critical_price.is_some()).count();
        assert!(seen > 4, "expected a visible exercise region");
        for pt in pts.iter().filter(|p| p.critical_price.is_some()) {
            assert!(pt.critical_price.unwrap() >= p.strike * 0.999);
        }
    }

    #[test]
    fn trinomial_put_boundary_sits_below_strike_and_decreases_with_tau() {
        let m = TopmModel::new(OptionParams::paper_defaults(), 2048).unwrap();
        let pts = topm_put_boundary(&m, &EngineConfig::default(), 32);
        // Samples come expiry-first; the critical price decreases as
        // time-to-expiry grows, to within the trinomial lattice quantisation
        // (the boundary may drop up to two columns per step, factor u²).
        let prices: Vec<f64> = pts.iter().filter_map(|p| p.critical_price).collect();
        assert!(prices.len() > 4, "expected a visible exercise region");
        let slack = m.up().powi(2) * (1.0 + 1e-9);
        for w in prices.windows(2) {
            assert!(w[1] <= w[0] * slack, "boundary not decreasing in tau: {w:?}");
        }
        for &x in &prices {
            assert!(x <= m.params().strike * (1.0 + 1e-12), "critical {x} above strike");
        }
    }
}
