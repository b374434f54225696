//! The paper's fast BOPM pricers: American calls and puts in `O(T log² T)`
//! work and `O(T)` span via the nonlinear-stencil engine (§2.3).
//!
//! ## Puts: the engine's native geometry
//!
//! The engine ([`crate::engine::left_cone`]) runs on the lattice as it
//! stands: green (exercise) columns on the left, values in `[0, K]`, exact
//! zeros right of the leaf boundary.  The "boundary drifts left at most one
//! column per step" invariant (the mirror of Cor. 2.7) holds for every
//! *interior* transition but not necessarily for expiry → `T−1`, so the
//! driver materialises row `T−1` from the payoff closed form
//! ([`left_cone::first_step_row`]) and starts the engine from `t = 1`.
//! `R = 0` is the degenerate limit — early exercise of a put never pays —
//! and collapses to the `O(T log T)` European FFT pass.
//!
//! ## Calls: the put–call mirror
//!
//! `C(S, K, R, Y) = P(K, S, Y, R)` exactly on a CRR lattice (`u·d = 1`), so a
//! call is priced as the put of [`BopmModel::mirrored`]: values bounded by
//! `S` instead of growing like `S·u^T`, a worthless call exactly `0`.  Call
//! node `(i, j)` is the mirror's node `(i, i − j)`, so the call's last *red*
//! column is `j = i − f − 1` with `f` the mirror's last green column,
//! clamped to `[−1, i]` (`−1`: the whole row exercises; `i`, the row width:
//! the whole row continues).  The one-off *rightward* jump of the call's
//! boundary at the first backward step, when
//! `(1 − e^{−RΔt}) > (1 − e^{−YΔt})·u²`, is the mirror's boundary dropping
//! more than one column there — the same materialised row `T−1` absorbs it.
//! A node where exercise and continuation tie exactly counts as green
//! (exercise), the put engine's convention.  `Y = 0` (Merton: never exercise
//! a call on a non-dividend stock early) short-circuits to the European FFT
//! pass ahead of the mirror.

use super::european::price_european_fft;
use super::BopmModel;
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
/// width `i` mean the whole row exercises.  Sampling stops early once the
/// whole cone exercises.
pub fn price_put_with_boundary_samples(
    model: &BopmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps();
    // Last column with K ≥ S·u^{2j−T}: the put is in the money exactly
    // where the call is out of it.
    let leaf = model.leaf_call_boundary();
    let mut samples = vec![(t, leaf)];
    // amopt-lint: allow(float-eq) -- R = 0.0 exactly routes puts to the European fast path; any nonzero rate prices American
    if model.params().rate == 0.0 {
        // With no interest on the strike, early exercise of a put never
        // pays: continuation ≥ K·e^{−RΔt} − S·e^{−YΔt} = K − S·e^{−YΔt}
        // ≥ K − S at every node (the put-side mirror of Merton's Y = 0
        // call), so the American put collapses to the European FFT pass.
        return (price_european_fft(model, OptionType::Put), samples);
    }
    let kernel = model.kernel();
    let green = |n: u64, c: i64| model.exercise_put(t - n as usize, c);
    let row = left_cone::first_step_row(&kernel, &green, leaf, t as i64 - 1);
    samples.push((t - 1, row.boundary));
    let chunk = (t / rows.max(1)) as u64;
    let (price, frontier) = left_cone::solve_to_root(&kernel, &green, row, t as u64, chunk, cfg);
    samples.extend(frontier.into_iter().map(|(n, f)| (t - n as usize, f)));
    (price, samples)
}

/// American put price via the FFT trapezoid decomposition — `O(T log² T)`
/// work and `O(T)` span.
pub fn price_american_put(model: &BopmModel, cfg: &EngineConfig) -> f64 {
    price_put_with_boundary_samples(model, cfg, 1).0
}

/// American call price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps (the red–green divider of §2.2), via
/// the mirrored put.
///
/// Returns `(price, samples)`; each sample is `(i, j_i)` with grid row `i`
/// (market time step) and the last red (continuation) column `j_i`: `−1`
/// means the whole row exercises, the row width `i` that the whole row
/// continues.
pub fn price_with_boundary_samples(
    model: &BopmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps();
    // amopt-lint: allow(float-eq) -- Y = 0.0 exactly routes calls to the European fast path (Merton); any nonzero yield prices American
    if model.params().dividend_yield == 0.0 {
        let expiry = (t, model.leaf_call_boundary().min(t as i64));
        return (price_european_fft(model, OptionType::Call), vec![expiry]);
    }
    let (price, mut samples) = price_put_with_boundary_samples(&model.mirrored(), cfg, rows);
    for (i, col) in &mut samples {
        let width = *i as i64;
        *col = (width - *col - 1).clamp(-1, width);
    }
    (price, samples)
}

/// American call price via the FFT trapezoid decomposition
/// (`fft-bopm` in the paper's plots).
pub fn price_american_call(model: &BopmModel, cfg: &EngineConfig) -> f64 {
    price_with_boundary_samples(model, cfg, 1).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bopm::naive::{self, ExecMode};
    use crate::params::{ExerciseStyle, OptionParams, OptionType};

    fn assert_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = BopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft {got} vs naive {want}"
        );
    }

    #[test]
    fn matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 4001] {
            assert_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_at_large_t() {
        // The mirrored put keeps FFT inputs in [0, S] where raw call values
        // would reach S·u^T ≈ 1e12 and drown the FFT's absolute precision.
        assert_matches_naive(OptionParams::paper_defaults(), 20_000, 1e-9);
    }

    #[test]
    fn matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 100.0, 129.0, 131.0, 200.0, 400.0] {
            assert_matches_naive(OptionParams { spot, ..base }, 500, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.05, 0.2, 0.6] {
            for (rate, div) in [(0.0, 0.0163), (0.05, 0.02), (0.001, 0.08), (0.08, 0.001)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let p = OptionParams {
            spot: 10_000.0,
            strike: 1.0,
            dividend_yield: 0.3,
            ..OptionParams::paper_defaults()
        };
        assert_matches_naive(p, 64, 1e-9);
    }

    #[test]
    fn deep_otm_all_red() {
        let p = OptionParams { spot: 1.0, strike: 1000.0, ..OptionParams::paper_defaults() };
        let m = BopmModel::new(p, 400).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call(&m, &EngineConfig::default());
        // Every leaf is out of the money, so the nest prices exactly 0; the
        // mirrored put's payoff row is identically zero and so is its root
        // (a premium-space engine recovered ±1e-11 here, as K − K).
        assert!(got >= 0.0, "negative American price {got}");
        assert_eq!(got, want);
    }

    #[test]
    fn boundary_samples_match_naive_boundary() {
        let m = BopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Call);
        let (price, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        for (i, j) in samples {
            if j <= i as i64 {
                assert_eq!(j, dense[i], "row {i}");
            } else {
                // Extended boundary beyond the hypotenuse ⇒ triangle row all red.
                assert_eq!(dense[i], i as i64, "row {i}");
            }
        }
    }

    #[test]
    fn zero_dividend_equals_european_fft() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        assert_matches_naive(p, 777, 1e-9);
        let m = BopmModel::new(p, 777).unwrap();
        let eu = super::price_european_fft(&m, OptionType::Call);
        let am = price_american_call(&m, &EngineConfig::default());
        assert_eq!(am, eu);
    }

    #[test]
    fn rightward_expiry_jump_is_handled() {
        // R ≫ Y with modest vol triggers the one-off rightward boundary jump
        // at the first backward step (see module docs).
        let p = OptionParams {
            rate: 0.06,
            dividend_yield: 0.005,
            volatility: 0.08,
            ..OptionParams::paper_defaults()
        };
        let m = BopmModel::new(p, 256).unwrap();
        let (_, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let (expiry, first_step) = (samples[0], samples[1]);
        assert_eq!((expiry.0, first_step.0), (256, 255));
        assert!(first_step.1 > expiry.1, "expected a rightward jump: {first_step:?} vs {expiry:?}");
        assert_matches_naive(p, 256, 1e-9);
    }

    #[test]
    fn tiny_dividend_stays_consistent() {
        let p = OptionParams { dividend_yield: 1e-6, ..OptionParams::paper_defaults() };
        assert_matches_naive(p, 300, 1e-8);
    }

    // --- American put ---

    fn assert_put_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = BopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft put {got} vs naive {want}"
        );
    }

    #[test]
    fn put_matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 4001] {
            assert_put_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_at_large_t() {
        // Raw value space: put values stay O(K) even where node prices reach
        // u^T ≈ 1e12, so the FFT keeps full precision at this size.
        assert_put_matches_naive(OptionParams::paper_defaults(), 20_000, 1e-9);
    }

    #[test]
    fn put_matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 100.0, 129.0, 131.0, 200.0, 400.0] {
            assert_put_matches_naive(OptionParams { spot, ..base }, 500, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.05, 0.2, 0.6] {
            for (rate, div) in [(0.0163, 0.0), (0.05, 0.02), (0.001, 0.08), (0.08, 0.001)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_put_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn deep_itm_put_immediate_exercise() {
        let p = OptionParams {
            spot: 1.0,
            strike: 10_000.0,
            rate: 0.3,
            ..OptionParams::paper_defaults()
        };
        assert_put_matches_naive(p, 64, 1e-9);
        let m = BopmModel::new(p, 64).unwrap();
        let got = price_american_put(&m, &EngineConfig::default());
        assert_eq!(got, m.exercise_put(0, 0), "deep ITM put must exercise at once");
    }

    #[test]
    fn deep_otm_put_is_tiny_but_accurate() {
        let p = OptionParams { spot: 1000.0, strike: 1.0, ..OptionParams::paper_defaults() };
        let m = BopmModel::new(p, 400).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put(&m, &EngineConfig::default());
        // Absolute accuracy at the FFT's ε·K scale, like the deep-OTM call.
        assert!((got - want).abs() < 1e-12 * p.strike, "fft {got} vs naive {want}");
    }

    #[test]
    fn zero_rate_put_equals_european_fft() {
        let p = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        assert_put_matches_naive(p, 777, 1e-9);
        let m = BopmModel::new(p, 777).unwrap();
        let eu = super::price_european_fft(&m, OptionType::Put);
        let am = price_american_put(&m, &EngineConfig::default());
        assert_eq!(am, eu);
    }

    #[test]
    fn put_boundary_samples_match_dense_tracking() {
        let m = BopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        // Dense last-green tracking: largest j with exercise ≥ continuation.
        let t = m.steps();
        let mut row: Vec<f64> = (0..=t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut dense = vec![-1i64; t]; // dense[i] = boundary of row i
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(i + 1);
            for j in 0..=i as i64 {
                let cont = m.s0() * row[j as usize] + m.s1() * row[j as usize + 1];
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
    fn put_boundary_drifts_left_by_at_most_one_interior_step() {
        // The mirrored Cor. 2.7: on the binomial lattice the last green
        // column moves down monotonically, at most one column per interior
        // step.  (The expiry transition is excluded — the drivers
        // materialise row T−1 explicitly for exactly that reason.)
        let m = BopmModel::new(OptionParams::paper_defaults(), 600).unwrap();
        let t = m.steps();
        let mut row: Vec<f64> = (0..=t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut prev: Option<i64> = None;
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(i + 1);
            for j in 0..=i as i64 {
                let cont = m.s0() * row[j as usize] + m.s1() * row[j as usize + 1];
                let ex = m.exercise_put(i, j);
                if ex >= cont {
                    f = j;
                }
                next.push(cont.max(ex));
            }
            if let Some(p) = prev {
                assert!(f <= p && f >= p - 1, "row {i}: boundary {f} after {p}");
            }
            prev = Some(f);
            row = next;
        }
    }
}
