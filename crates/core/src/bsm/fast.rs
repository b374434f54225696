//! The paper's fast BSM pricer: American put in `O(T log² T)` work and
//! `O(T)` span (§4.3) via the one nonlinear-stencil engine, reached by a
//! shear of the grid.
//!
//! The explicit scheme's kernel is anchored at −1 (cell `(n+1, k)` reads
//! `k−1, k, k+1`; row `n` spans `k ∈ [−(T−n), T−n]`).  In the sheared column
//! `c' = k + (T − n)` the same taps `(b, c, a)` sit at offsets `0, 1, 2`, the
//! cone edge is `hi' = 2(T − n)`, and the last green column drifts left one
//! or two columns per step (Thm 4.3's zero or one, plus the shear) — the
//! engine's span-2 case, see [`crate::engine`].  The expiry row needs no
//! stored values at all: the payoff is exactly zero right of the expiry
//! boundary `f₀`, which is the engine's implicit zero tail, and green left
//! of it.  Columns map back as `k = c' − (T − n)`.

use super::BsmModel;
use crate::engine::left_cone::{self, GreenPrefixRow};
use crate::engine::EngineConfig;
use amopt_stencil::{advance, Backend, Segment, StencilKernel};

/// The purely linear scheme (no obstacle) from the payoff row to the apex:
/// one FFT pass.
fn linear_apex(model: &BsmModel) -> f64 {
    let t = model.steps() as i64;
    let payoff: Vec<f64> = (-t..=t).map(|k| model.payoff(k)).collect();
    let out = advance(&Segment::new(-t, payoff), &model.kernel(), t as u64, Backend::Fft);
    debug_assert_eq!((out.start, out.len()), (0, 1));
    model.params().strike * out.values[0]
}

/// European put under the same discretisation, `O(T log T)` (single FFT).
pub fn price_european_put_fft(model: &BsmModel) -> f64 {
    linear_apex(model)
}

/// American put price plus green-boundary samples `(n, k_n)` every
/// `T / rows` time steps from expiry (`n = 0`) to the apex (the
/// early-exercise curve of §4.2, in grid columns; `s`-space value is
/// `ln(S/K) + k·Δs`) — `rows = 1` is a plain pricing: one whole-height
/// advance.  Once the exercise region has left the shrinking cone the
/// engine no longer tracks it and the sample reports `−(T + 1)`, one column
/// left of the whole grid.
pub fn price_with_boundary_samples(
    model: &BsmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let strike = model.params().strike;
    let t = model.steps() as i64;
    let f0 = model.expiry_boundary();
    let mut samples = vec![(0usize, f0)];
    // amopt-lint: allow(float-eq) -- R = 0.0 exactly is the no-early-exercise sentinel for puts, not a tolerance check
    if f0 < -t || model.params().rate == 0.0 {
        // The obstacle never binds — no green cell in the apex's dependency
        // cone, or no interest on the strike (ω = 0: one linear step lifts
        // `1 − e^s` to `1 − λe^s` with λ < 1, so continuation beats exercise
        // at every node) — and the scheme is purely linear: this is the
        // European put on this grid.
        return (linear_apex(model), samples);
    }
    if f0 >= t {
        // Green covers the whole cone now and forever (the green/cone gap
        // never shrinks): immediate exercise at the apex.
        return (strike * model.exercise(0), samples);
    }
    let (b, c, a) = model.weights();
    let kernel = StencilKernel::new(vec![b, c, a], 0);
    let green = |n: u64, col: i64| model.exercise(col - t + n as i64);
    let expiry = GreenPrefixRow {
        t: 0,
        boundary: f0 + t,
        hi: 2 * t,
        reds: Segment::new(f0 + t + 1, vec![]),
    };
    let chunk = t as u64 / rows.max(1) as u64;
    let (root, frontier) = left_cone::solve_to_root(&kernel, &green, expiry, t as u64, chunk, cfg);
    samples.extend(
        frontier
            .into_iter()
            .map(|(n, col)| (n as usize, if col < 0 { -(t + 1) } else { col - t + n as i64 })),
    );
    (strike * root, samples)
}

/// American put price via the FFT trapezoid decomposition
/// (`fft-bsm` in the paper's plots).
pub fn price_american_put(model: &BsmModel, cfg: &EngineConfig) -> f64 {
    price_with_boundary_samples(model, cfg, 1).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsm::naive::{self, ExecMode};
    use crate::params::{OptionParams, OptionType};

    fn params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    fn assert_matches_naive(p: OptionParams, steps: usize, tol: f64) {
        let m = BsmModel::new(p, steps).unwrap();
        let want = naive::price_american_put(&m, ExecMode::Serial);
        let got = price_american_put(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft {got} vs naive {want}"
        );
    }

    #[test]
    fn matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 3000] {
            assert_matches_naive(params(), steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_moneyness() {
        for spot in [60.0, 110.0, 129.0, 131.0, 200.0, 500.0] {
            assert_matches_naive(OptionParams { spot, ..params() }, 500, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        for vol in [0.08, 0.2, 0.5] {
            for rate in [0.0005, 0.01, 0.06] {
                let p = OptionParams { volatility: vol, rate, ..params() };
                assert_matches_naive(p, 400, 1e-9);
            }
        }
    }

    #[test]
    fn european_fft_matches_naive_european() {
        for steps in [1usize, 64, 1000] {
            let m = BsmModel::new(params(), steps).unwrap();
            let want = naive::price_european_put(&m, ExecMode::Serial);
            let got = price_european_put_fft(&m);
            assert!((got - want).abs() < 1e-9 * want.max(1.0), "steps={steps}");
        }
    }

    #[test]
    fn converges_to_known_american_put_value() {
        // Cross-model: FD American put vs binomial-lattice American put.
        let p = params();
        let steps = 4000;
        let m = BsmModel::new(p, steps).unwrap();
        let fd = price_american_put(&m, &EngineConfig::default());
        let lattice = crate::bopm::BopmModel::new(p, steps).unwrap();
        let bin = crate::lattice::naive::price(
            &lattice,
            OptionType::Put,
            crate::params::ExerciseStyle::American,
            ExecMode::Serial,
        );
        assert!((fd - bin).abs() < 5e-3 * bin, "fd {fd} vs binomial {bin}");
    }

    #[test]
    fn american_exceeds_european_and_intrinsic() {
        let m = BsmModel::new(params(), 2048).unwrap();
        let am = price_american_put(&m, &EngineConfig::default());
        let eu = price_european_put_fft(&m);
        let intrinsic = (m.params().strike - m.params().spot).max(0.0);
        assert!(am >= eu - 1e-9);
        assert!(am >= intrinsic - 1e-9);
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let p = OptionParams { spot: 1.0, strike: 130.0, ..params() };
        assert_matches_naive(p, 200, 1e-9);
    }

    #[test]
    fn deep_otm_linear_path() {
        let p = OptionParams { spot: 10_000.0, strike: 1.0, ..params() };
        let m = BsmModel::new(p, 300).unwrap();
        assert!(m.expiry_boundary() < -300);
        assert_matches_naive(p, 300, 1e-9);
    }

    #[test]
    fn zero_rate_put_is_the_european_put() {
        // At R = 0 the nest never exercises early, in or out of the money.
        for (spot, steps) in [(127.62, 1usize), (100.0, 1), (130.0, 2), (60.0, 300), (127.62, 777)]
        {
            let p = OptionParams { spot, rate: 0.0, ..params() };
            assert_matches_naive(p, steps, 1e-9);
            let m = BsmModel::new(p, steps).unwrap();
            assert_eq!(
                price_american_put(&m, &EngineConfig::default()),
                price_european_put_fft(&m)
            );
        }
    }

    #[test]
    fn vanishing_rate_outruns_the_drift_bound_and_still_matches_naive() {
        // ω below ~Δs²/12: the exercise region vanishes in one step instead
        // of drifting a column at a time; the engine locates the boundary
        // rather than assuming the drift, so only its work bound suffers.
        for rate in [1e-12, 1e-9, 1e-7] {
            for (spot, steps) in [(127.62, 300usize), (125.0, 64), (129.9, 1000)] {
                assert_matches_naive(OptionParams { spot, rate, ..params() }, steps, 1e-9);
            }
        }
    }

    #[test]
    fn boundary_samples_match_dense_boundary() {
        let m = BsmModel::new(params(), 512).unwrap();
        let (_, dense) = naive::apex_value_with_boundary(&m);
        let (price, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 8);
        let want = naive::price_american_put(&m, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        let t = m.steps() as i64;
        for (n, k) in samples {
            // Comparable only while the dense sweep's shrinking cone still
            // contains the boundary.
            let half = t - n as i64;
            if n == 0 || dense[n] == i64::MIN || k.abs() >= half {
                continue;
            }
            assert_eq!(k, dense[n], "row {n}");
        }
    }

    #[test]
    fn exercise_boundary_is_monotone_decreasing_in_s() {
        // Thm 4.2: the early-exercise boundary decreases with time-to-expiry.
        let m = BsmModel::new(params(), 2048).unwrap();
        let (_, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 32);
        for w in samples.windows(2) {
            assert!(w[1].1 <= w[0].1, "boundary rose: {:?} -> {:?}", w[0], w[1]);
        }
    }
}
