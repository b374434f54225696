//! The paper's fast lattice pricers: American calls and puts in
//! `O(T log² T)` work and `O(T)` span via the nonlinear-stencil engine
//! (§2.3 binomial, §3 / Appendix A.3 trinomial, §4.3 the BSM put) — one
//! driver for every grid, which differ only in the kernel (`W + 1` taps,
//! cone slope `W`), the node function and where the put starts.
//!
//! ## Puts: the engine's native geometry
//!
//! The engine ([`crate::engine::left_cone`]) runs on the lattice as it
//! stands: green (exercise) columns on the left, values in `[0, K]`, exact
//! zeros right of the leaf boundary.  The "boundary drifts left at most `W`
//! columns per step" invariant (the mirror of Cor. 2.7 / Cor. A.6; a fixed
//! trinomial column gains a full factor of `u` per backward step, so there
//! the boundary drifts left one-to-two columns every step) holds for every
//! *interior* transition but not necessarily for expiry → `T−1`, so the
//! driver materialises row `T−1` of a tree from the payoff closed form
//! ([`left_cone::first_step_row`]) and starts the engine from `t = 1`.  The
//! explicit finite-difference grid needs no such row: Thm 4.3 covers its
//! expiry transition, so the engine starts at expiry with nothing stored —
//! green up to the leaf boundary, the exact zero tail beyond it.  (A
//! materialised row would price the same problem, but moves its bits: by
//! tens of ulp at T = 4 096.)  `R = 0` is the degenerate limit — early
//! exercise of a put never pays — and collapses to the `O(T log T)`
//! European FFT pass.
//!
//! ## Calls: the put–call mirror
//!
//! `C(S, K, R, Y) = P(K, S, Y, R)` exactly on either tree (`u·d = 1`), so
//! a call is priced as the put of [`Lattice::mirrored`]: values bounded by
//! `S` instead of growing like `S·u^T`, a worthless call exactly `0`.  Call
//! node `(i, j)` is the mirror's node `(i, W·i − j)`, so the call's last
//! *red* column is `j = W·i − f − 1` with `f` the mirror's last green
//! column, clamped to `[−1, W·i]` (`−1`: the whole row exercises; `W·i`, the
//! row width: the whole row continues).  The one-off *rightward* jump of the
//! binomial call's boundary at the first backward step, when
//! `(1 − e^{−RΔt}) > (1 − e^{−YΔt})·u²`, is the mirror's boundary dropping
//! more than one column there — the same materialised row `T−1` absorbs it.
//! The expiry sample is read on the call's own lattice, where a leaf whose
//! payoff ties with the continuation of 0 (at the money) counts as red, as
//! in the nest; an interior row is the mirror's, where an exact tie would
//! count as green (exercise), the put engine's convention.  `Y = 0` (Merton:
//! never exercise a call on a non-dividend stock early) short-circuits to
//! the European FFT pass ahead of the mirror.  The FD grid has no mirror and
//! no call route.
//!
//! ## Obstacles from a node table
//!
//! Every obstacle the engine reads is `K − S·E[levels]` with `E` read from a
//! node table (`lattice::nodes`), bitwise the node's `exp`.  The public
//! entry points build one per pricing; the batch layer hands its kernel
//! group's to `put_samples` and `call_samples`, and a call's mirror reads
//! the call's table (same `ln u`, same `T`, and a tree's table has no spot).

use super::nodes::NodeTable;
use super::{linear, Lattice};
use crate::engine::left_cone::{self, GreenPrefixRow};
use crate::engine::{with_powers, BASE_CUTOFF};
use crate::params::OptionType;
use amopt_fft::KernelPowers;
use amopt_stencil::Segment;

/// American put price plus the early-exercise boundary sampled every
/// `T / rows` time steps, expiry first — the one driver behind all four
/// entry points (`rows = 1` is a plain pricing: one whole-height advance).
///
/// Returns `(price, samples)`; each sample is `(i, f_i)` with grid row `i`
/// (market time step) and the last green (exercise-optimal) column `f_i`:
/// `−1` means no exercise region in the row, values at or above the row
/// width `W·i` mean the whole row exercises.  Sampling stops early once the
/// whole cone exercises.
pub fn price_put_with_boundary_samples<const W: usize>(
    model: &Lattice<W>,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    with_powers(|powers| put_samples(model, rows, powers, &model.node_table()))
}

/// [`price_put_with_boundary_samples`] with its multiplier tables read from
/// (and first built into) the caller's `powers`, and every obstacle from the
/// caller's node table `nodes` ([`super::nodes`]), which must be `model`'s.
pub(crate) fn put_samples<const W: usize>(
    model: &Lattice<W>,
    rows: usize,
    powers: &KernelPowers,
    nodes: &NodeTable,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps();
    debug_assert!(nodes.is_for(model.units.base, model.ln_up, t), "another lattice's node table");
    // Last column with K ≥ S·u^{…}: the put is in the money exactly where
    // the call is out of it.
    let leaf = model.leaf_call_boundary();
    let mut samples = vec![(t, leaf)];
    // amopt-lint: allow(float-eq) -- R = 0.0 exactly routes puts to the European fast path; any nonzero rate prices American
    if model.params().rate == 0.0 {
        // With no interest on the strike, early exercise of a put never
        // pays: continuation ≥ K·e^{−RΔt} − S·e^{−YΔt} = K − S·e^{−YΔt}
        // ≥ K − S at every node (the put-side mirror of Merton's Y = 0
        // call; on the FD grid ω = 0, and one linear step lifts `1 − e^s`
        // to `1 − λe^s` with λ < 1), so the American put collapses to the
        // European FFT pass.
        return (linear::price_with(model, OptionType::Put, powers), samples);
    }
    let kernel = model.kernel();
    let green = |n: u64, c: i64| model.exercise_in(nodes, OptionType::Put, t - n as usize, c);
    let hi = W as i64 * t as i64;
    let row = if model.from_expiry {
        GreenPrefixRow { t: 0, boundary: leaf, hi, reds: Segment::new(leaf + 1, vec![]) }
    } else {
        let row = left_cone::first_step_row(&kernel, &green, leaf, hi - W as i64);
        samples.push((t - 1, row.boundary));
        row
    };
    let chunk = (t / rows.max(1)) as u64;
    let (root, frontier) =
        left_cone::solve_to_root(&kernel, powers, &green, row, t as u64, chunk, BASE_CUTOFF);
    samples.extend(frontier.into_iter().map(|(n, f)| (t - n as usize, f)));
    (model.units.scale * root, samples)
}

/// American put price via the FFT trapezoid decomposition — `O(T log² T)`
/// work and `O(T)` span.
pub fn price_american_put<const W: usize>(model: &Lattice<W>) -> f64 {
    price_put_with_boundary_samples(model, 1).0
}

/// American call price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps (the red–green divider of §2.2), via
/// the mirrored put.
///
/// Returns `(price, samples)`; each sample is `(i, j_i)` with grid row `i`
/// (market time step) and the last red (continuation) column `j_i`: `−1`
/// means the whole row exercises, the row width `W·i` that the whole row
/// continues.
pub fn price_with_boundary_samples<const W: usize>(
    model: &Lattice<W>,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    with_powers(|powers| call_samples(model, rows, powers, &model.node_table()))
}

/// [`price_with_boundary_samples`] with its multiplier tables read from
/// (and first built into) the caller's `powers`, and its obstacles from
/// `nodes`, `model`'s node table — which is the mirror's too: the mirror
/// keeps `ln u` and `T`, and a tree's table has no spot.
pub(crate) fn call_samples<const W: usize>(
    model: &Lattice<W>,
    rows: usize,
    powers: &KernelPowers,
    nodes: &NodeTable,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps();
    // The expiry row's last red column, read on the call's own lattice: a
    // leaf where the payoff ties with the continuation of 0 counts as red,
    // where the mirror's put would count it green.
    let expiry = (t, model.leaf_call_boundary().min(W as i64 * t as i64));
    // amopt-lint: allow(float-eq) -- Y = 0.0 exactly routes calls to the European fast path (Merton); any nonzero yield prices American
    if model.params().dividend_yield == 0.0 {
        return (linear::price_with(model, OptionType::Call, powers), vec![expiry]);
    }
    let (price, mut samples) = put_samples(&model.mirrored(), rows, powers, nodes);
    for (i, col) in &mut samples {
        let width = W as i64 * *i as i64;
        *col = (width - *col - 1).clamp(-1, width);
    }
    samples[0] = expiry;
    (price, samples)
}

/// American call price via the FFT trapezoid decomposition
/// (`fft-bopm` / `fft-topm` in the paper's plots).
pub fn price_american_call<const W: usize>(model: &Lattice<W>) -> f64 {
    price_with_boundary_samples(model, 1).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::naive::{self, ExecMode};
    use crate::params::{ExerciseStyle, OptionParams};

    /// The fast route of `opt` on `m` against the serial nest.
    fn check_matches_naive<const W: usize>(opt: OptionType, m: &Lattice<W>, tol: f64) {
        let want = naive::price(m, opt, ExerciseStyle::American, ExecMode::Serial);
        let got = match opt {
            OptionType::Call => price_american_call(m),
            OptionType::Put => price_american_put(m),
        };
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "W={W} steps={} {:?}: fft {opt:?} {got} vs naive {want}",
            m.steps(),
            m.params()
        );
    }

    fn assert_matches_naive<const W: usize>(
        opt: OptionType,
        params: OptionParams,
        steps: usize,
        tol: f64,
    ) {
        check_matches_naive(opt, &Lattice::<W>::new(params, steps).unwrap(), tol);
    }

    /// The paper's contract without its dividend: the FD grid's domain.
    fn fd_params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    /// The FD grid's put against its nest.
    fn assert_fd_matches_naive(params: OptionParams, steps: usize) {
        check_matches_naive(OptionType::Put, &Lattice::explicit_fd(params, steps).unwrap(), 1e-9);
    }

    /// The paper's parameters on both lattices.
    fn paper_params_match_naive(opt: OptionType) {
        let p = OptionParams::paper_defaults();
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 4001] {
            assert_matches_naive::<1>(opt, p, steps, 1e-9);
        }
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 2500] {
            assert_matches_naive::<2>(opt, p, steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_paper_params() {
        paper_params_match_naive(OptionType::Call);
    }

    #[test]
    fn put_matches_naive_paper_params() {
        paper_params_match_naive(OptionType::Put);
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 3000] {
            assert_fd_matches_naive(fd_params(), steps);
        }
    }

    #[test]
    fn matches_naive_at_large_t() {
        // The mirrored put keeps FFT inputs in [0, S] where raw call values
        // would reach S·u^T ≈ 1e12 and drown the FFT's absolute precision.
        assert_matches_naive::<1>(OptionType::Call, OptionParams::paper_defaults(), 20_000, 1e-9);
        assert_matches_naive::<2>(OptionType::Call, OptionParams::paper_defaults(), 10_000, 1e-9);
    }

    #[test]
    fn put_matches_naive_at_large_t() {
        // Raw value space: put values stay O(K) even where node prices reach
        // u^T ≈ 1e12, so the FFT keeps full precision at this size.
        assert_matches_naive::<1>(OptionType::Put, OptionParams::paper_defaults(), 20_000, 1e-9);
        assert_matches_naive::<2>(OptionType::Put, OptionParams::paper_defaults(), 10_000, 1e-9);
    }

    fn moneyness_matches_naive(opt: OptionType) {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 100.0, 129.0, 131.0, 200.0, 400.0] {
            assert_matches_naive::<1>(opt, OptionParams { spot, ..base }, 500, 1e-9);
        }
        for spot in [60.0, 110.0, 129.5, 131.0, 250.0] {
            assert_matches_naive::<2>(opt, OptionParams { spot, ..base }, 400, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_moneyness() {
        moneyness_matches_naive(OptionType::Call);
    }

    #[test]
    fn put_matches_naive_across_moneyness() {
        moneyness_matches_naive(OptionType::Put);
        for spot in [60.0, 110.0, 129.0, 131.0, 200.0, 500.0] {
            assert_fd_matches_naive(OptionParams { spot, ..fd_params() }, 500);
        }
    }

    /// Volatility × (R, Y) sweeps at T = 300; the first rate pair zeroes `R`
    /// for calls and `Y` for puts, mirror images of each other.
    fn vol_and_rates_match_naive(opt: OptionType, first: (f64, f64)) {
        fn sweep<const W: usize>(opt: OptionType, vols: [f64; 3], rates: [(f64, f64); 4]) {
            let base = OptionParams::paper_defaults();
            for volatility in vols {
                for (rate, dividend_yield) in rates {
                    let p = OptionParams { volatility, rate, dividend_yield, ..base };
                    assert_matches_naive::<W>(opt, p, 300, 1e-8);
                }
            }
        }
        sweep::<1>(opt, [0.05, 0.2, 0.6], [first, (0.05, 0.02), (0.001, 0.08), (0.08, 0.001)]);
        sweep::<2>(opt, [0.08, 0.2, 0.5], [first, (0.05, 0.02), (0.001, 0.07), (0.07, 0.004)]);
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        vol_and_rates_match_naive(OptionType::Call, (0.0, 0.0163));
    }

    #[test]
    fn put_matches_naive_across_vol_and_rates() {
        vol_and_rates_match_naive(OptionType::Put, (0.0163, 0.0));
        for volatility in [0.08, 0.2, 0.5] {
            for rate in [0.0005, 0.01, 0.06] {
                assert_fd_matches_naive(OptionParams { volatility, rate, ..fd_params() }, 400);
            }
        }
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let base = OptionParams::paper_defaults();
        let bin = OptionParams { spot: 10_000.0, strike: 1.0, dividend_yield: 0.3, ..base };
        assert_matches_naive::<1>(OptionType::Call, bin, 64, 1e-9);
        let tri = OptionParams { spot: 5_000.0, strike: 10.0, dividend_yield: 0.2, ..base };
        assert_matches_naive::<2>(OptionType::Call, tri, 128, 1e-9);
    }

    #[test]
    fn deep_itm_put_immediate_exercise() {
        fn check<const W: usize>(spot: f64, strike: f64, rate: f64, steps: usize) {
            let p = OptionParams { spot, strike, rate, ..OptionParams::paper_defaults() };
            assert_matches_naive::<W>(OptionType::Put, p, steps, 1e-9);
            let m = Lattice::<W>::new(p, steps).unwrap();
            let got = price_american_put(&m);
            assert_eq!(got, m.exercise_put(0, 0), "W={W}: deep ITM put must exercise at once");
        }
        check::<1>(1.0, 10_000.0, 0.3, 64);
        check::<2>(10.0, 5_000.0, 0.2, 128);
        assert_fd_matches_naive(OptionParams { spot: 1.0, strike: 130.0, ..fd_params() }, 200);
    }

    #[test]
    fn deep_otm_all_red() {
        let p = OptionParams { spot: 1.0, strike: 1000.0, ..OptionParams::paper_defaults() };
        let m = Lattice::<1>::new(p, 400).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call(&m);
        // Every leaf is out of the money, so the nest prices exactly 0; the
        // mirrored put's payoff row is identically zero and so is its root
        // (a premium-space engine recovered ±1e-11 here, as K − K).
        assert!(got >= 0.0, "negative American price {got}");
        assert_eq!(got, want);
    }

    #[test]
    fn deep_otm_put_is_tiny_but_accurate() {
        let p = OptionParams { spot: 1000.0, strike: 1.0, ..OptionParams::paper_defaults() };
        let m = Lattice::<1>::new(p, 400).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put(&m);
        // Absolute accuracy at the FFT's ε·K scale, like the deep-OTM call.
        assert!((got - want).abs() < 1e-12 * p.strike, "fft {got} vs naive {want}");
        // On the FD grid no leaf in reach is in the money at all.
        let otm = OptionParams { spot: 10_000.0, strike: 1.0, ..fd_params() };
        assert_eq!(Lattice::explicit_fd(otm, 300).unwrap().leaf_call_boundary(), -1);
        assert_fd_matches_naive(otm, 300);
    }

    /// A shortcut contract (`Y = 0` call, `R = 0` put) matches the nest and
    /// is bitwise the European FFT pass.
    fn shortcut_is_the_european_fft<const W: usize>(opt: OptionType, m: Lattice<W>) {
        check_matches_naive(opt, &m, 1e-9);
        let am = match opt {
            OptionType::Call => price_american_call(&m),
            OptionType::Put => price_american_put(&m),
        };
        assert_eq!(am, linear::price_european_fft(&m, opt), "W={W} {opt:?}");
    }

    #[test]
    fn zero_dividend_equals_european_fft() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        shortcut_is_the_european_fft(OptionType::Call, Lattice::<1>::new(p, 777).unwrap());
        shortcut_is_the_european_fft(OptionType::Call, Lattice::<2>::new(p, 600).unwrap());
    }

    #[test]
    fn zero_rate_put_equals_european_fft() {
        let p = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        shortcut_is_the_european_fft(OptionType::Put, Lattice::<1>::new(p, 777).unwrap());
        shortcut_is_the_european_fft(OptionType::Put, Lattice::<2>::new(p, 600).unwrap());
        // On the FD grid too, in or out of the money.
        for (spot, steps) in [(127.62, 1usize), (100.0, 1), (130.0, 2), (60.0, 300), (127.62, 777)]
        {
            let p = OptionParams { spot, rate: 0.0, ..fd_params() };
            shortcut_is_the_european_fft(OptionType::Put, Lattice::explicit_fd(p, steps).unwrap());
        }
    }

    #[test]
    fn vanishing_rate_outruns_the_drift_bound_and_still_matches_naive() {
        // On the FD grid, ω below ~Δs²/12: the exercise region vanishes in
        // one step instead of drifting a column at a time; the engine
        // locates the boundary rather than assuming the drift, so only its
        // work bound suffers.
        for rate in [1e-12, 1e-9, 1e-7] {
            for (spot, steps) in [(127.62, 300usize), (125.0, 64), (129.9, 1000)] {
                assert_fd_matches_naive(OptionParams { spot, rate, ..fd_params() }, steps);
            }
        }
    }

    #[test]
    fn boundary_sampling_price_is_bitwise_the_plain_fast_price_on_shortcuts() {
        // Y = 0 call and R = 0 put short-circuit to the European FFT pass;
        // the sampling wrappers must return exactly the plain price and the
        // lone expiry sample.
        fn check<const W: usize>() {
            let y0 = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
            let m = Lattice::<W>::new(y0, 300).unwrap();
            let (p, s) = price_with_boundary_samples(&m, 8);
            assert_eq!(p.to_bits(), price_american_call(&m).to_bits());
            assert_eq!(s.len(), 1);
            let r0 = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
            let m = Lattice::<W>::new(r0, 300).unwrap();
            let (p, s) = price_put_with_boundary_samples(&m, 8);
            assert_eq!(p.to_bits(), price_american_put(&m).to_bits());
            assert_eq!(s.len(), 1);
        }
        check::<1>();
        check::<2>();
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
        let m = Lattice::<1>::new(p, 256).unwrap();
        let (_, samples) = price_with_boundary_samples(&m, 16);
        let (expiry, first_step) = (samples[0], samples[1]);
        assert_eq!((expiry.0, first_step.0), (256, 255));
        assert!(first_step.1 > expiry.1, "expected a rightward jump: {first_step:?} vs {expiry:?}");
        assert_matches_naive::<1>(OptionType::Call, p, 256, 1e-9);
    }

    #[test]
    fn tiny_dividend_stays_consistent() {
        let p = OptionParams { dividend_yield: 1e-6, ..OptionParams::paper_defaults() };
        assert_matches_naive::<1>(OptionType::Call, p, 300, 1e-8);
    }

    #[test]
    fn boundary_samples_match_naive_boundary() {
        fn check<const W: usize>(p: OptionParams) {
            let m = Lattice::<W>::new(p, 512).unwrap();
            let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Call);
            let (price, samples) = price_with_boundary_samples(&m, 16);
            let want =
                naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
            assert!((price - want).abs() < 1e-9 * want.max(1.0));
            assert!(samples.len() > 10, "expected a sampled frontier");
            for (i, j) in samples {
                let width = (W * i) as i64;
                if j <= width {
                    assert_eq!(j, dense[i], "W={W} row {i}");
                } else {
                    // Extended boundary beyond the hypotenuse ⇒ triangle row all red.
                    assert_eq!(dense[i], width, "W={W} row {i}");
                }
            }
        }
        let p = OptionParams::paper_defaults();
        check::<1>(p);
        check::<2>(p);
        // At the money the leaf on the strike ties (exercise 0 against a
        // continuation of 0), which the nest counts as red for a call.
        check::<1>(OptionParams { spot: p.strike, ..p });
        check::<2>(OptionParams { spot: p.strike, ..p });
    }

    #[test]
    fn put_boundary_samples_match_dense_tracking() {
        fn check<const W: usize>(m: Lattice<W>) {
            let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Put);
            let (price, samples) = price_put_with_boundary_samples(&m, 16);
            let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
            assert!((price - want).abs() < 1e-9 * want.max(1.0));
            assert!(samples.len() > 10, "expected a sampled frontier");
            for (i, f) in samples {
                assert_eq!(f, dense[i], "W={W} row {i}");
            }
        }
        let p = OptionParams::paper_defaults();
        check(Lattice::<1>::new(p, 512).unwrap());
        check(Lattice::<2>::new(p, 512).unwrap());
        check(Lattice::explicit_fd(fd_params(), 512).unwrap());
        // At the money the leaf at the strike ties (exercise 0 against a
        // continuation of 0), which both count as green.
        check(Lattice::<1>::new(OptionParams { spot: p.strike, ..p }, 512).unwrap());
    }

    #[test]
    fn put_boundary_drifts_left_by_w_minus_one_to_w_columns_per_interior_step() {
        // The mirrored Cor. 2.7 / the span-2 drift law the engine is built
        // around: the last green column moves down monotonically, 0–1
        // columns per interior step on the binomial lattice and 1–2 on the
        // trinomial one and the FD grid (Thm 4.3's 0–1 in the scheme's own
        // columns `k = j − i`), where the frontier may also leave the row
        // (−1) at any step.  The expiry transition is excluded — the drivers
        // materialise a tree's row T−1 explicitly for exactly that reason.
        fn check<const W: usize>(m: Lattice<W>) {
            let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Put);
            for (i, pair) in dense[..m.steps()].windows(2).enumerate() {
                let (f, p) = (pair[0], pair[1]);
                if W == 1 || f >= 0 {
                    let w = W as i64;
                    assert!(f <= p + 1 - w && f >= p - w, "W={W} row {i}: boundary {f} after {p}");
                }
            }
        }
        let p = OptionParams::paper_defaults();
        check(Lattice::<1>::new(p, 600).unwrap());
        check(Lattice::<2>::new(p, 400).unwrap());
        check(Lattice::explicit_fd(fd_params(), 600).unwrap());
    }

    #[test]
    fn binomial_and_trinomial_agree_on_calls_and_puts() {
        // Both lattices approximate the same continuous model; at moderate T
        // their American prices agree to discretisation error.
        let p = OptionParams::paper_defaults();
        let tri = Lattice::<2>::new(p, 2000).unwrap();
        let bin = Lattice::<1>::new(p, 2000).unwrap();
        let (v_tri, v_bin) = (price_american_call(&tri), price_american_call(&bin));
        assert!((v_tri - v_bin).abs() < 5e-3 * v_bin, "call: tri {v_tri} vs bin {v_bin}");
        let (v_tri, v_bin) = (price_american_put(&tri), price_american_put(&bin));
        assert!((v_tri - v_bin).abs() < 5e-3 * v_bin.max(1.0), "put: tri {v_tri} vs bin {v_bin}");
    }
}
