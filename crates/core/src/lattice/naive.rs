//! The standard nested-loop lattice pricer (Fig. 1 of the paper) — the
//! `ql-bopm` / `vanilla-topm` / `vanilla-bsm` baselines of the paper's
//! evaluation (Par-bin-ops' QuantLib-equivalent loop nest, its trinomial
//! twin and the row-by-row explicit FD sweep).
//!
//! `Θ(T²)` work (row `i` has `W·i + 1` cells) in one serial sweep, which
//! every European, American and Bermudan nest price and the per-row
//! frontier come from.  The continuation of a cell is summed tap by tap in
//! ascending column order, starting from the first product.  Values live in
//! the grid's units and the root is scaled to a price at the end (module
//! docs of [`super`]).

use super::Lattice;
use crate::params::{ExerciseStyle, OptionType};

/// Execution strategy for the loop nest: serial is the only one.  The enum
/// stays while `perf/` names it (ROADMAP 1(l)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, single rolling buffer.
    #[default]
    Serial,
}

/// Prices any (type, style) combination by backward induction.
pub fn price<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
    style: ExerciseStyle,
    _mode: ExecMode,
) -> f64 {
    let american = style == ExerciseStyle::American;
    sweep(model, opt, |_| american, None)
}

/// [`price`] of the American `opt`, also recording for every row `i` its
/// frontier `j_i`: for a call the red–green boundary, the largest `j` with
/// continuation ≥ exercise; for a put the largest `j` with exercise ≥
/// continuation; −1 when there is none.  The expiry row compares against a
/// continuation of 0.  Used by boundary-extraction tests and by the tests of
/// Corollaries 2.7 and A.6.
pub fn price_american_with_boundary<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
) -> (f64, Vec<i64>) {
    let mut frontier = vec![-1; model.steps() + 1];
    (sweep(model, opt, |_| true, Some(&mut frontier)), frontier)
}

/// The backward induction every price of this module runs: one rolling
/// buffer of `W·T + 1` cells, each row swept in place in ascending column
/// order.  Row `i < T` exercises early when `exercisable(i)` holds; the
/// expiry row pays the floored exercise value.  Every exercise value reads
/// its node's exponential from one node table filled at once
/// ([`Lattice::node_exps`]): `2T + 1` `exp`s per pricing where each cell used
/// to pay one.
///
/// With `frontier` (`T + 1` slots, each left at −1 or overwritten), row `i`
/// records its last column on the frontier's side: a call's last *red*
/// cell (continuation ≥ exercise), a put's last *green* one (exercise ≥
/// continuation); the expiry row compares against a continuation of 0.
pub(crate) fn sweep<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
    exercisable: impl Fn(usize) -> bool,
    mut frontier: Option<&mut [i64]>,
) -> f64 {
    let side = |cont: f64, ex: f64| if opt == OptionType::Call { cont >= ex } else { ex >= cont };
    let (t, w) = (model.steps(), &model.weights);
    let nodes = model.node_exps();
    let exercise = |i: usize, j: usize| model.exercise_from(opt, nodes[(2 / W) * j + t - i]);
    let mut g: Vec<f64> = (0..=W * t).map(|j| exercise(t, j)).collect();
    if let Some(f) = frontier.as_deref_mut() {
        f[t] = g.iter().rposition(|&ex| side(0.0, ex)).map_or(-1, |j| j as i64);
    }
    g.iter_mut().for_each(|v| *v = v.max(0.0));
    for i in (0..t).rev() {
        let early = exercisable(i);
        // In-place ascending sweep: g[j] is consumed before it is overwritten.
        for j in 0..=W * i {
            let cont = continuation::<W>(w, &g, j);
            g[j] = cont;
            if early || frontier.is_some() {
                let ex = exercise(i, j);
                if early {
                    g[j] = cont.max(ex);
                }
                if let Some(f) = frontier.as_deref_mut().filter(|_| side(cont, ex)) {
                    f[i] = j as i64;
                }
            }
        }
    }
    model.units.scale * g[0]
}

/// Continuation value of the cell whose children start at `row[j]`:
/// `w[0]·row[j] + … + w[W]·row[j+W]`, summed in that order.
#[inline]
fn continuation<const W: usize>(w: &[f64; 3], row: &[f64], j: usize) -> f64 {
    let mut cont = w[0] * row[j];
    for k in 1..=W {
        cont += w[k] * row[j + k];
    }
    cont
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OptionParams;

    fn model<const W: usize>(steps: usize) -> Lattice<W> {
        Lattice::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    fn fd(steps: usize) -> Lattice<2> {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        Lattice::explicit_fd(p, steps).unwrap()
    }

    #[test]
    fn two_step_tree_by_hand() {
        // Tiny tree checked against a hand computation.
        let p = OptionParams {
            spot: 100.0,
            strike: 100.0,
            rate: 0.05,
            volatility: 0.3,
            dividend_yield: 0.0,
            expiry: 1.0,
        };
        let m = Lattice::<1>::new(p, 2).unwrap();
        let (u, s0, s1) = (m.up(), m.weights()[0], m.weights()[1]);
        // Leaves: prices 100u², 100, 100/u².
        let leaf =
            [(100.0 / (u * u) - 100.0f64).max(0.0), 0.0, (100.0 * u * u - 100.0f64).max(0.0)];
        let mid = [
            (s0 * leaf[0] + s1 * leaf[1]).max(100.0 / u - 100.0),
            (s0 * leaf[1] + s1 * leaf[2]).max(100.0 * u - 100.0),
        ];
        let want = (s0 * mid[0] + s1 * mid[1]).max(0.0);
        let got = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn one_step_tree_by_hand() {
        fn check<const W: usize>(m: Lattice<W>, opt: OptionType, scale: f64) {
            let exercise = |i, j| match opt {
                OptionType::Call => m.exercise_call(i, j),
                OptionType::Put => m.exercise_put(i, j),
            };
            let leaves = (0..=W as i64).map(|j| exercise(1, j).max(0.0));
            let cont: f64 = m.weights().iter().zip(leaves).map(|(s, leaf)| s * leaf).sum();
            let want = scale * cont.max(exercise(0, 0));
            let got = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
            assert!((got - want).abs() < 1e-12, "W={W} {opt:?}: {got} vs {want}");
        }
        check(model::<1>(1), OptionType::Call, 1.0);
        check(model::<2>(1), OptionType::Call, 1.0);
        // The FD grid's single step, in units of K.
        let m = fd(1);
        let strike = m.params().strike;
        check(m, OptionType::Put, strike);
    }

    #[test]
    fn american_dominates_european() {
        fn check<const W: usize>(m: Lattice<W>, opts: &[OptionType]) {
            let p = *m.params();
            for &opt in opts {
                let eu = price(&m, opt, ExerciseStyle::European, ExecMode::Serial);
                let am = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
                assert!(am >= eu - 1e-12, "W={W} {opt:?}: am={am} eu={eu}");
                let intrinsic = opt.payoff(p.spot, p.strike);
                assert!(am >= intrinsic - 1e-12, "W={W} {opt:?}: am={am} < {intrinsic}");
            }
        }
        let both = [OptionType::Call, OptionType::Put];
        check(model::<1>(500), &both);
        check(model::<2>(400), &both);
        check(fd(2000), &[OptionType::Put]);
    }

    #[test]
    fn deep_itm_fd_put_approaches_intrinsic() {
        let p = OptionParams { spot: 40.0, ..fd(1).params };
        let m = Lattice::explicit_fd(p, 1500).unwrap();
        let am = price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        assert!(am >= 90.0 - 1e-9);
        assert!(am < 90.0 * 1.02, "am={am}");
    }

    #[test]
    fn american_call_without_dividends_equals_european() {
        // Merton: early exercise of a call is never optimal when Y = 0.
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let m = Lattice::<1>::new(p, 600).unwrap();
        let eu = price(&m, OptionType::Call, ExerciseStyle::European, ExecMode::Serial);
        let am = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((am - eu).abs() < 1e-10 * eu.max(1.0), "am={am} eu={eu}");
    }

    #[test]
    fn converges_to_black_scholes_european() {
        let p = OptionParams::paper_defaults();
        let bs = crate::analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let (call, eu, serial) = (OptionType::Call, ExerciseStyle::European, ExecMode::Serial);
        // Binomial: the error shrinks steadily with T.
        let mut prev_err = f64::INFINITY;
        for steps in [100usize, 400, 1600] {
            let err = (price(&model::<1>(steps), call, eu, serial) - bs).abs();
            assert!(err < prev_err * 0.6, "steps={steps}: err {err} vs prev {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 5e-3);
        // Trinomial at T = 2000.
        let v = price(&model::<2>(2000), call, eu, serial);
        assert!((v - bs).abs() < 5e-3, "{v} vs {bs}");
    }

    #[test]
    fn trinomial_converges_faster_than_binomial() {
        // Langat et al. (cited in §3): TOPM reaches a given accuracy with
        // about half the steps of BOPM.  Verify TOPM at T is at least as
        // close to Black–Scholes as BOPM at T for the European call.
        let p = OptionParams::paper_defaults();
        let bs = crate::analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let t = 400usize;
        let eu = ExerciseStyle::European;
        let tri_err = (price(&model::<2>(t), OptionType::Call, eu, ExecMode::Serial) - bs).abs();
        let bin_err = (price(&model::<1>(t), OptionType::Call, eu, ExecMode::Serial) - bs).abs();
        assert!(tri_err <= bin_err * 1.2, "tri {tri_err} vs bin {bin_err}");
    }

    #[test]
    fn boundary_satisfies_corollary_2_7() {
        // All red cells left of all green cells, and the boundary moves left
        // by at most one per step: j_{i+1} − 1 ≤ j_i ≤ j_{i+1}.
        let m = model::<1>(800);
        let (v, b) = price_american_with_boundary(&m, OptionType::Call);
        let plain = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert_eq!(v.to_bits(), plain.to_bits(), "recording moved the price");
        for i in 0..m.steps() {
            assert!(b[i] <= b[i + 1], "i={i}: {} > {}", b[i], b[i + 1]);
            assert!(b[i] >= b[i + 1] - 1, "i={i}: {} < {} - 1", b[i], b[i + 1]);
        }
    }

    #[test]
    fn boundary_satisfies_corollary_a6() {
        let m = model::<2>(500);
        let (_, b) = price_american_with_boundary(&m, OptionType::Call);
        for i in 0..m.steps() {
            // Within the triangle the boundary drifts left by at most one.
            if b[i + 1] <= 2 * i as i64 {
                assert!(b[i] <= b[i + 1], "i={i}");
                assert!(b[i] >= b[i + 1] - 1, "i={i}");
            }
        }
    }

    #[test]
    fn a_tie_is_red_for_a_call_and_green_for_a_put() {
        // At the money leaf T/2 sits on the strike: exercise 0 against the
        // expiry row's continuation of 0.
        let p = OptionParams { spot: 130.0, strike: 130.0, ..OptionParams::paper_defaults() };
        let m = Lattice::<1>::new(p, 64).unwrap();
        for opt in [OptionType::Call, OptionType::Put] {
            assert_eq!(price_american_with_boundary(&m, opt).1[64], 32, "{opt:?}");
        }
    }

    /// The nest's prices as `f64::to_bits` at `steps`: on the paper's
    /// contract BOPM then TOPM, each call American, call European, put
    /// American, put European; the FD put American and European; then the
    /// American put of the mirrored contract (whose early exercise binds) on
    /// BOPM and TOPM.
    fn nest_bits(steps: usize) -> Vec<u64> {
        fn tree<const W: usize>(m: &Lattice<W>) -> Vec<f64> {
            let styles = [ExerciseStyle::American, ExerciseStyle::European];
            [OptionType::Call, OptionType::Put]
                .iter()
                .flat_map(|&opt| styles.map(|style| price(m, opt, style, ExecMode::Serial)))
                .collect()
        }
        let (am, eu, put) = (ExerciseStyle::American, ExerciseStyle::European, OptionType::Put);
        let (grid, mirror) = (fd(steps), OptionParams::paper_defaults().mirrored());
        let mut prices = [tree(&model::<1>(steps)), tree(&model::<2>(steps))].concat();
        prices.extend([am, eu].map(|style| price(&grid, put, style, ExecMode::Serial)));
        prices.push(price(&Lattice::<1>::new(mirror, steps).unwrap(), put, am, ExecMode::Serial));
        prices.push(price(&Lattice::<2>::new(mirror, steps).unwrap(), put, am, ExecMode::Serial));
        prices.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn nest_prices_are_the_parent_commits_bit_for_bit() {
        // Pinned before the nests became one sweep (parent `8be9981`).
        #[rustfmt::skip]
        const PINS: [(usize, [u64; 12]); 4] = [
            (1, [
                0x402563d4fd5b7fa4, 0x402563d4fd5b7fa4, 0x402dda6b730c674f, 0x402dda6b730c674f,
                0x401e44f164a148fc, 0x401e44f164a148fc, 0x4027990f28018c33, 0x4027990f28018c33,
                0x402999ff7c63be43, 0x402999ff7c63be43, 0x402563d4fd5b7fa3, 0x401e44f164a14905,
            ]),
            (2, [
                0x401e44f164a148fb, 0x401e44f164a148fb, 0x4027990f28018c32, 0x4027990f28018c32,
                0x402022e69f53427a, 0x401fe42638c60871, 0x402868a99213ebec, 0x402868a99213ebec,
                0x402699dca07368a9, 0x4026830177e89faf, 0x401e44f164a14908, 0x402022e69f534280,
            ]),
            (252, [
                0x4020ab3d9fbc64dc, 0x4020659ffe646ca0, 0x4028dc36741555ee, 0x4028dc36741555ee,
                0x4020a6113c8593f4, 0x402060eeaaca123f, 0x4028d785207afcbf, 0x4028d785207afcbf,
                0x4026c784f0a6fbb9, 0x4026c0c4fc7ea7bb, 0x4020ab3d9fbc651e, 0x4020a6113c859163,
            ]),
            (1000, [
                0x4020a8ecbcb8dbaa, 0x402064058e3e7dce, 0x4028da9c03ef612a, 0x4028da9c03ef612a,
                0x4020a7572be736f2, 0x4020626ff2d95dea, 0x4028d906688a2a7d, 0x4028d906688a2a7d,
                0x4026c5d87af4d7e4, 0x4026bf43dfc65eb9, 0x4020a8ecbcb8de2f, 0x4020a7572be72969,
            ]),
        ];
        for (steps, want) in PINS {
            assert_eq!(nest_bits(steps), want, "steps={steps}");
        }
        // A Bermudan put, weekly dates, on the paper's contract (where its
        // exercise never binds) and at R = 6 % (where it does).
        let dates: Vec<usize> = (1..=500).step_by(7).collect();
        for (rate, want) in [(0.00163, 0x4028d76d5becc238u64), (0.06, 0x40223caddd10e0a5)] {
            let p = OptionParams { rate, ..OptionParams::paper_defaults() };
            let m = Lattice::<1>::new(p, 500).unwrap();
            let got = sweep(&m, OptionType::Put, |i| dates.contains(&i), None);
            assert_eq!(got.to_bits(), want, "Bermudan put at R = {rate}");
        }
    }
}
