//! The row-by-row explicit FD sweep over the full cone — `vanilla-bsm` in
//! the paper's evaluation.  `Θ(T²)` work.

use super::BsmModel;
use amopt_parallel::{for_each_chunk_mut, DEFAULT_GRAIN};

/// Execution strategy for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded.
    Serial,
    /// Row-parallel with double buffering.
    #[default]
    Parallel,
}

/// Early-exercise flavour of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Pure linear scheme (European put).
    European,
    /// Obstacle scheme `max(linear, exercise)` (American put).
    American,
}

/// Dimensionless grid value at the apex; multiply by `K` for the price.
pub fn apex_value(model: &BsmModel, style: Style, mode: ExecMode) -> f64 {
    let t = model.steps() as i64;
    // Row n spans columns [−(T−n), T−n]; store at index k + (T−n).
    let mut cur: Vec<f64> = (-t..=t).map(|k| model.payoff(k)).collect();
    let (wb, wc, wa) = model.weights();
    match mode {
        ExecMode::Serial => {
            for n in 1..=t {
                let half = t - n; // output row half-width
                let mut next = Vec::with_capacity((2 * half + 1) as usize);
                for k in -half..=half {
                    // input row index of column k: k + (half + 1)
                    let idx = (k + half + 1) as usize;
                    let lin = wb * cur[idx - 1] + wc * cur[idx] + wa * cur[idx + 1];
                    next.push(match style {
                        Style::European => lin,
                        Style::American => lin.max(model.exercise(k)),
                    });
                }
                cur = next;
            }
        }
        ExecMode::Parallel => {
            let mut next = vec![0.0; cur.len()];
            for n in 1..=t {
                let half = t - n;
                let width = (2 * half + 1) as usize;
                {
                    let read: &[f64] = &cur;
                    for_each_chunk_mut(&mut next[..width], DEFAULT_GRAIN, |offset, chunk| {
                        for (i, out) in chunk.iter_mut().enumerate() {
                            let pos = offset + i; // 0-based in output row
                            let k = pos as i64 - half;
                            let idx = pos + 1; // same column in input row
                            let lin = wb * read[idx - 1] + wc * read[idx] + wa * read[idx + 1];
                            *out = match style {
                                Style::European => lin,
                                Style::American => lin.max(model.exercise(k)),
                            };
                        }
                    });
                }
                std::mem::swap(&mut cur, &mut next);
                next.truncate(width);
                cur.truncate(width);
                next.resize(width, 0.0);
            }
        }
    }
    cur[0]
}

/// American put price (`vanilla-bsm`).
pub fn price_american_put(model: &BsmModel, mode: ExecMode) -> f64 {
    model.params().strike * apex_value(model, Style::American, mode)
}

/// European put price under the same discretisation (validation oracle).
pub fn price_european_put(model: &BsmModel, mode: ExecMode) -> f64 {
    model.params().strike * apex_value(model, Style::European, mode)
}

/// Serial American sweep also recording the green-zone boundary
/// (largest `k` with exercise ≥ continuation; `i64::MIN` when the row has no
/// green cell inside the cone) for every row — used by the Thm 4.3 tests.
pub fn apex_value_with_boundary(model: &BsmModel) -> (f64, Vec<i64>) {
    let t = model.steps() as i64;
    let mut cur: Vec<f64> = (-t..=t).map(|k| model.payoff(k)).collect();
    let (wb, wc, wa) = model.weights();
    let mut boundaries = Vec::with_capacity(t as usize + 1);
    // Expiry row boundary.
    boundaries.push(model.expiry_boundary().min(t));
    for n in 1..=t {
        let half = t - n;
        let mut next = Vec::with_capacity((2 * half + 1) as usize);
        let mut b = i64::MIN;
        for k in -half..=half {
            let idx = (k + half + 1) as usize;
            let lin = wb * cur[idx - 1] + wc * cur[idx] + wa * cur[idx + 1];
            let ex = model.exercise(k);
            if ex >= lin {
                b = b.max(k);
            }
            next.push(lin.max(ex));
        }
        boundaries.push(b);
        cur = next;
    }
    (cur[0], boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::params::{OptionParams, OptionType};

    fn params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    #[test]
    fn serial_and_parallel_agree() {
        for steps in [1usize, 2, 9, 128, 800] {
            let m = BsmModel::new(params(), steps).unwrap();
            for style in [Style::European, Style::American] {
                let a = apex_value(&m, style, ExecMode::Serial);
                let b = apex_value(&m, style, ExecMode::Parallel);
                assert!((a - b).abs() < 1e-12, "steps={steps} {style:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn european_converges_to_black_scholes() {
        let p = params();
        let bs = analytic::black_scholes_price(&p, OptionType::Put).unwrap();
        let mut prev = f64::INFINITY;
        for steps in [250usize, 1000, 4000] {
            let m = BsmModel::new(p, steps).unwrap();
            let v = price_european_put(&m, ExecMode::Serial);
            let err = (v - bs).abs();
            assert!(err < prev, "steps={steps}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 2e-2, "final error {prev}");
    }

    #[test]
    fn american_put_dominates_european_and_intrinsic() {
        let m = BsmModel::new(params(), 2000).unwrap();
        let eu = price_european_put(&m, ExecMode::Serial);
        let am = price_american_put(&m, ExecMode::Serial);
        let intrinsic = (m.params().strike - m.params().spot).max(0.0);
        assert!(am >= eu - 1e-12);
        assert!(am >= intrinsic);
    }

    #[test]
    fn american_put_matches_binomial_lattice() {
        // Cross-model validation: the FD put and the binomial-lattice put
        // approximate the same continuous value.
        let p = params();
        let m = BsmModel::new(p, 4000).unwrap();
        let fd = price_american_put(&m, ExecMode::Serial);
        let lattice = crate::bopm::BopmModel::new(p, 4000).unwrap();
        let bin = crate::bopm::naive::price(
            &lattice,
            OptionType::Put,
            crate::params::ExerciseStyle::American,
            crate::bopm::naive::ExecMode::Serial,
        );
        assert!((fd - bin).abs() < 5e-3 * bin, "fd {fd} vs binomial {bin}");
    }

    #[test]
    fn boundary_satisfies_theorem_4_3() {
        // 0 ≤ k_n − k_{n+1} ≤ 1 wherever the boundary is inside the cone.
        let m = BsmModel::new(params(), 600).unwrap();
        let (_, b) = apex_value_with_boundary(&m);
        let t = m.steps() as i64;
        for n in 0..m.steps() {
            let half_next = t - n as i64 - 1;
            if b[n] == i64::MIN || b[n + 1] == i64::MIN {
                continue;
            }
            // Skip rows where the cone edge truncates the comparison.
            if b[n].abs() >= t - n as i64 || b[n + 1].abs() >= half_next {
                continue;
            }
            assert!(b[n + 1] <= b[n], "n={n}: {} > {}", b[n + 1], b[n]);
            assert!(b[n + 1] >= b[n] - 1, "n={n}: {} < {} - 1", b[n + 1], b[n]);
        }
    }

    #[test]
    fn deep_itm_put_approaches_intrinsic() {
        let p = OptionParams { spot: 40.0, strike: 130.0, ..params() };
        let m = BsmModel::new(p, 1500).unwrap();
        let am = price_american_put(&m, ExecMode::Serial);
        let intrinsic = 90.0;
        assert!(am >= intrinsic - 1e-9);
        assert!(am < intrinsic * 1.02, "am={am}");
    }

    #[test]
    fn single_step_grid() {
        let m = BsmModel::new(params(), 1).unwrap();
        let (wb, wc, wa) = m.weights();
        let lin = wb * m.payoff(-1) + wc * m.payoff(0) + wa * m.payoff(1);
        let want = lin.max(m.exercise(0)) * m.params().strike;
        let got = price_american_put(&m, ExecMode::Serial);
        assert!((got - want).abs() < 1e-12);
    }
}
