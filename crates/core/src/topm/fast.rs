//! The paper's fast TOPM pricers: American calls and puts in `O(T log² T)`
//! work and `O(T)` span (§3 / Appendix A.3), via the same engine as BOPM —
//! only the kernel (three taps, cone slope 2) and the node function differ.
//!
//! Everything in [`crate::bopm::fast`]'s module docs carries over with row
//! width `2i` in place of `i`: puts run on the lattice as it stands (a
//! fixed column gains a full factor of `u` per backward step, so the put
//! boundary drifts left one-to-two columns every step — the span-2 case of
//! the engine's drift law), row `T−1` is materialised from the payoff closed
//! form, `R = 0` puts and `Y = 0` calls short-circuit to the European FFT
//! pass, and a call is the put of [`TopmModel::mirrored`] with call node
//! `(i, j)` at the mirror's `(i, 2i − j)` — last red call column
//! `j = 2i − f − 1`, clamped to `[−1, 2i]`, exact ties green-side.

use super::european::price_european_fft;
use super::TopmModel;
use crate::engine::left_cone;
use crate::engine::EngineConfig;
use crate::params::OptionType;

/// American put price plus the early-exercise boundary sampled every
/// `T / rows` time steps, expiry first — the one driver behind all four
/// entry points (`rows = 1` is a plain pricing: one whole-height advance).
///
/// Returns `(price, samples)`; each sample is `(i, f_i)` with grid row `i`
/// (market time step) and the last green (exercise-optimal) column `f_i`:
/// `−1` means no exercise region in the row, values at or above the row
/// width `2i` mean the whole row exercises.  Sampling stops early once the
/// whole cone exercises.
pub fn price_put_with_boundary_samples(
    model: &TopmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps();
    let leaf = model.leaf_call_boundary();
    let mut samples = vec![(t, leaf)];
    // amopt-lint: allow(float-eq) -- R = 0.0 exactly routes puts to the European fast path; any nonzero rate prices American
    if model.params().rate == 0.0 {
        // Zero rate ⇒ no early-exercise premium for puts (continuation
        // ≥ K·e^{−RΔt} − φ·e^{−YΔt} = K − φ·e^{−YΔt} ≥ K − φ node by node).
        return (price_european_fft(model, OptionType::Put), samples);
    }
    let kernel = model.kernel();
    let green = |n: u64, c: i64| model.exercise_put(t - n as usize, c);
    let row = left_cone::first_step_row(&kernel, &green, leaf, 2 * (t as i64 - 1));
    samples.push((t - 1, row.boundary));
    let chunk = (t / rows.max(1)) as u64;
    let (price, frontier) = left_cone::solve_to_root(&kernel, &green, row, t as u64, chunk, cfg);
    samples.extend(frontier.into_iter().map(|(n, f)| (t - n as usize, f)));
    (price, samples)
}

/// American put price via the FFT trapezoid decomposition — `O(T log² T)`
/// work and `O(T)` span.
pub fn price_american_put(model: &TopmModel, cfg: &EngineConfig) -> f64 {
    price_put_with_boundary_samples(model, cfg, 1).0
}

/// American call price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps, via the mirrored put.
///
/// Returns `(price, samples)`; each sample is `(i, j_i)` with grid row `i`
/// (market time step) and the last red (continuation) column `j_i`: `−1`
/// means the whole row exercises, the row width `2i` that the whole row
/// continues.
pub fn price_with_boundary_samples(
    model: &TopmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps();
    // amopt-lint: allow(float-eq) -- Y = 0.0 exactly routes calls to the European fast path (Merton); any nonzero yield prices American
    if model.params().dividend_yield == 0.0 {
        let expiry = (t, model.leaf_call_boundary().min(2 * t as i64));
        return (price_european_fft(model, OptionType::Call), vec![expiry]);
    }
    let (price, mut samples) = price_put_with_boundary_samples(&model.mirrored(), cfg, rows);
    for (i, col) in &mut samples {
        let width = 2 * *i as i64;
        *col = (width - *col - 1).clamp(-1, width);
    }
    (price, samples)
}

/// American call price via the FFT trapezoid decomposition
/// (`fft-topm` in the paper's plots).
pub fn price_american_call(model: &TopmModel, cfg: &EngineConfig) -> f64 {
    price_with_boundary_samples(model, cfg, 1).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ExerciseStyle, OptionParams};
    use crate::topm::naive::{self, ExecMode};

    fn assert_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = TopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft {got} vs naive {want}"
        );
    }

    #[test]
    fn matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 2500] {
            assert_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_at_large_t() {
        assert_matches_naive(OptionParams::paper_defaults(), 10_000, 1e-9);
    }

    #[test]
    fn matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 110.0, 129.5, 131.0, 250.0] {
            assert_matches_naive(OptionParams { spot, ..base }, 400, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.08, 0.2, 0.5] {
            for (rate, div) in [(0.0, 0.0163), (0.05, 0.02), (0.001, 0.07), (0.07, 0.004)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn zero_dividend_equals_european() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        assert_matches_naive(p, 600, 1e-9);
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let p = OptionParams {
            spot: 5_000.0,
            strike: 10.0,
            dividend_yield: 0.2,
            ..OptionParams::paper_defaults()
        };
        assert_matches_naive(p, 128, 1e-9);
    }

    // --- American put ---

    fn assert_put_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = TopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft put {got} vs naive {want}"
        );
    }

    #[test]
    fn put_matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 2500] {
            assert_put_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_at_large_t() {
        assert_put_matches_naive(OptionParams::paper_defaults(), 10_000, 1e-9);
    }

    #[test]
    fn put_matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 110.0, 129.5, 131.0, 250.0] {
            assert_put_matches_naive(OptionParams { spot, ..base }, 400, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.08, 0.2, 0.5] {
            for (rate, div) in [(0.0163, 0.0), (0.05, 0.02), (0.001, 0.07), (0.07, 0.004)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_put_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn zero_rate_put_equals_european() {
        let p = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        assert_put_matches_naive(p, 600, 1e-9);
        let m = TopmModel::new(p, 600).unwrap();
        assert_eq!(
            price_american_put(&m, &EngineConfig::default()),
            super::price_european_fft(&m, OptionType::Put)
        );
    }

    #[test]
    fn deep_itm_put_immediate_exercise() {
        let p = OptionParams {
            spot: 10.0,
            strike: 5_000.0,
            rate: 0.2,
            ..OptionParams::paper_defaults()
        };
        assert_put_matches_naive(p, 128, 1e-9);
    }

    #[test]
    fn put_boundary_drops_one_to_two_columns_per_interior_step() {
        // The span-2 drift law the engine is built around.
        let m = TopmModel::new(OptionParams::paper_defaults(), 400).unwrap();
        let t = m.steps();
        let (s0, s1, s2) = m.weights();
        let mut row: Vec<f64> = (0..=2 * t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut prev: Option<i64> = None;
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(2 * i + 1);
            for j in 0..=2 * i as i64 {
                let cont =
                    s0 * row[j as usize] + s1 * row[j as usize + 1] + s2 * row[j as usize + 2];
                let ex = m.exercise_put(i, j);
                if ex >= cont {
                    f = j;
                }
                next.push(cont.max(ex));
            }
            if let Some(p) = prev {
                if f >= 0 {
                    assert!(f < p && f >= p - 2, "row {i}: boundary {f} after {p}");
                }
            }
            prev = Some(f);
            row = next;
        }
    }

    #[test]
    fn boundary_samples_match_naive_boundary() {
        let m = TopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Call);
        let (price, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        assert!(samples.len() > 10, "expected a sampled frontier");
        for (i, j) in samples {
            if j <= 2 * i as i64 {
                assert_eq!(j, dense[i], "row {i}");
            } else {
                // Extended boundary beyond the hypotenuse ⇒ triangle row all red.
                assert_eq!(dense[i], 2 * i as i64, "row {i}");
            }
        }
    }

    #[test]
    fn put_boundary_samples_match_dense_tracking() {
        let m = TopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        // Dense last-green tracking: largest j with exercise ≥ continuation.
        let t = m.steps();
        let (s0, s1, s2) = m.weights();
        let mut row: Vec<f64> = (0..=2 * t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut dense = vec![-1i64; t]; // dense[i] = boundary of row i
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(2 * i + 1);
            for j in 0..=2 * i as i64 {
                let cont =
                    s0 * row[j as usize] + s1 * row[j as usize + 1] + s2 * row[j as usize + 2];
                let ex = m.exercise_put(i, j);
                if ex >= cont {
                    f = j;
                }
                next.push(cont.max(ex));
            }
            dense[i] = f;
            row = next;
        }
        let (price, samples) = price_put_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        assert!(samples.len() > 10, "expected a sampled frontier");
        for &(i, f) in &samples[1..] {
            // Expiry sample (index 0) uses the leaf formula; engine rows are
            // compared against the dense tracker directly.
            assert_eq!(f, dense[i], "row {i}");
        }
    }

    #[test]
    fn boundary_sampling_price_is_bitwise_the_plain_fast_price_on_shortcuts() {
        // Y = 0 call and R = 0 put short-circuit to the European FFT pass;
        // the sampling wrappers must return exactly the plain price and the
        // lone expiry sample.
        let cfg = EngineConfig::default();
        let y0 = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let m = TopmModel::new(y0, 300).unwrap();
        let (p, s) = price_with_boundary_samples(&m, &cfg, 8);
        assert_eq!(p.to_bits(), price_american_call(&m, &cfg).to_bits());
        assert_eq!(s.len(), 1);
        let r0 = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        let m = TopmModel::new(r0, 300).unwrap();
        let (p, s) = price_put_with_boundary_samples(&m, &cfg, 8);
        assert_eq!(p.to_bits(), price_american_put(&m, &cfg).to_bits());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn put_agrees_with_binomial_model() {
        let p = OptionParams::paper_defaults();
        let tri = TopmModel::new(p, 2000).unwrap();
        let bin = crate::bopm::BopmModel::new(p, 2000).unwrap();
        let v_tri = price_american_put(&tri, &EngineConfig::default());
        let v_bin = crate::bopm::fast::price_american_put(&bin, &EngineConfig::default());
        assert!((v_tri - v_bin).abs() < 5e-3 * v_bin.max(1.0), "tri {v_tri} vs bin {v_bin}");
    }

    #[test]
    fn agrees_with_binomial_model() {
        // Both lattices approximate the same continuous model; at moderate T
        // their American call prices should agree to discretisation error.
        let p = OptionParams::paper_defaults();
        let tri = TopmModel::new(p, 2000).unwrap();
        let bin = crate::bopm::BopmModel::new(p, 2000).unwrap();
        let v_tri = price_american_call(&tri, &EngineConfig::default());
        let v_bin = crate::bopm::fast::price_american_call(&bin, &EngineConfig::default());
        assert!((v_tri - v_bin).abs() < 5e-3 * v_bin, "tri {v_tri} vs bin {v_bin}");
    }
}
