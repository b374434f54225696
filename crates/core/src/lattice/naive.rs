//! The standard nested-loop lattice pricer (Fig. 1 of the paper) — the
//! `ql-bopm` / `vanilla-topm` baselines of the paper's evaluation
//! (Par-bin-ops' QuantLib-equivalent loop nest and its trinomial twin).
//!
//! `Θ(T²)` work (row `i` has `W·i + 1` cells); the parallel variant sweeps
//! each row with fork-join chunks for `Θ(T²/p + T log T)` time.  The
//! continuation of a cell is summed tap by tap in ascending column order,
//! starting from the first product.

use super::Lattice;
use crate::params::{ExerciseStyle, OptionType};
use amopt_parallel::{for_each_chunk_mut, DEFAULT_GRAIN};

/// Execution strategy for the loop nests (lattice and BSM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, single rolling buffer (cache-friendliest loop).
    Serial,
    /// Row-parallel with double buffering.
    #[default]
    Parallel,
}

/// Prices any (type, style) combination by backward induction.
pub fn price<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
    style: ExerciseStyle,
    mode: ExecMode,
) -> f64 {
    match mode {
        ExecMode::Serial => price_with_scratch(model, opt, style, &mut Vec::new()),
        ExecMode::Parallel => price_parallel(model, opt, style),
    }
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

/// Fills `out` with the expiry-row payoffs — the single source of truth for
/// the serial, scratch-reusing, and parallel sweeps.
fn fill_leaf_values<const W: usize>(model: &Lattice<W>, opt: OptionType, out: &mut Vec<f64>) {
    let t = model.steps();
    out.clear();
    out.extend((0..=W as i64 * t as i64).map(|j| model.exercise(opt, t, j).max(0.0)));
}

/// [`price`] with [`ExecMode::Serial`], reusing a caller-provided lattice
/// buffer so repeated pricings (e.g. a batch hot loop or finite-difference
/// bumps) allocate nothing once the buffer has grown to `W·T + 1` slots.
///
/// Bitwise identical to `price(model, opt, style, ExecMode::Serial)`.
pub fn price_with_scratch<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
    style: ExerciseStyle,
    scratch: &mut Vec<f64>,
) -> f64 {
    let t = model.steps();
    let w = &model.weights;
    fill_leaf_values(model, opt, scratch);
    let g = &mut scratch[..];
    for i in (0..t).rev() {
        // In-place ascending sweep: g[j] is consumed before it is overwritten.
        for j in 0..=W * i {
            let cont = continuation::<W>(w, g, j);
            g[j] = match style {
                ExerciseStyle::European => cont,
                ExerciseStyle::American => cont.max(model.exercise(opt, i, j as i64)),
            };
        }
    }
    g[0]
}

fn price_parallel<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
    style: ExerciseStyle,
) -> f64 {
    let t = model.steps();
    let w = &model.weights;
    let mut cur = Vec::new();
    fill_leaf_values(model, opt, &mut cur);
    let mut next = vec![0.0; W * t + 1];
    for i in (0..t).rev() {
        {
            let read: &[f64] = &cur;
            for_each_chunk_mut(&mut next[..=W * i], DEFAULT_GRAIN, |offset, chunk| {
                for (k, out) in chunk.iter_mut().enumerate() {
                    let j = offset + k;
                    let cont = continuation::<W>(w, read, j);
                    *out = match style {
                        ExerciseStyle::European => cont,
                        ExerciseStyle::American => cont.max(model.exercise(opt, i, j as i64)),
                    };
                }
            });
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur[0]
}

/// Serial backward induction that also records, for every row `i`, the
/// red–green boundary `j_i` = largest `j` with continuation ≥ exercise
/// (−1 when the whole row is green).  Used by boundary-extraction tests and
/// by the tests of Corollaries 2.7 and A.6.
pub fn price_american_with_boundary<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
) -> (f64, Vec<i64>) {
    let t = model.steps();
    let w = &model.weights;
    let mut g = Vec::new();
    fill_leaf_values(model, opt, &mut g);
    let mut boundary = vec![0i64; t + 1];
    // Expiry row: red cells are those whose exercise value is non-positive
    // (their lattice value is 0 = the degenerate continuation); a call's
    // exercise value only grows with `j`, so its scan stops at the first
    // green cell.
    let red = |j: &i64| model.exercise(opt, t, *j) <= 0.0;
    boundary[t] = (0..=W as i64 * t as i64)
        .take_while(|j| opt == OptionType::Put || red(j))
        .filter(red)
        .last()
        .unwrap_or(-1);
    for i in (0..t).rev() {
        let mut b = -1i64;
        for j in 0..=W * i {
            let cont = continuation::<W>(w, &g, j);
            let ex = model.exercise(opt, i, j as i64);
            if cont >= ex {
                b = b.max(j as i64);
            }
            g[j] = cont.max(ex);
        }
        boundary[i] = b;
    }
    (g[0], boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OptionParams;

    fn model<const W: usize>(steps: usize) -> Lattice<W> {
        Lattice::new(OptionParams::paper_defaults(), steps).unwrap()
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
        fn check<const W: usize>() {
            let m = model::<W>(1);
            let leaves = (0..=W as i64).map(|j| m.exercise_call(1, j).max(0.0));
            let cont: f64 = m.weights().iter().zip(leaves).map(|(s, leaf)| s * leaf).sum();
            let want = cont.max(m.exercise_call(0, 0));
            let got = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
            assert!((got - want).abs() < 1e-12, "W={W}: {got} vs {want}");
        }
        check::<1>();
        check::<2>();
    }

    #[test]
    fn serial_and_parallel_agree() {
        fn check<const W: usize>(steps: &[usize]) {
            for &steps in steps {
                let m = model::<W>(steps);
                for opt in [OptionType::Call, OptionType::Put] {
                    for style in [ExerciseStyle::European, ExerciseStyle::American] {
                        let a = price(&m, opt, style, ExecMode::Serial);
                        let b = price(&m, opt, style, ExecMode::Parallel);
                        assert!(
                            (a - b).abs() < 1e-9 * a.abs().max(1.0),
                            "W={W} steps={steps} {opt:?} {style:?}: {a} vs {b}"
                        );
                    }
                }
            }
        }
        check::<1>(&[1, 2, 3, 17, 252, 1000]);
        check::<2>(&[1, 2, 9, 252, 700]);
    }

    #[test]
    fn american_dominates_european() {
        fn check<const W: usize>(steps: usize) {
            let m = model::<W>(steps);
            for opt in [OptionType::Call, OptionType::Put] {
                let eu = price(&m, opt, ExerciseStyle::European, ExecMode::Serial);
                let am = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
                assert!(am >= eu - 1e-12, "W={W} {opt:?}: am={am} eu={eu}");
            }
        }
        check::<1>(500);
        check::<2>(400);
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
        let (_, b) = price_american_with_boundary(&m, OptionType::Call);
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
    fn boundary_price_matches_plain_price() {
        let m = model::<1>(300);
        let (v, _) = price_american_with_boundary(&m, OptionType::Call);
        let want = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((v - want).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        fn check<const W: usize>(steps: &[usize], scratch: &mut Vec<f64>) {
            for &steps in steps {
                let m = model::<W>(steps);
                for opt in [OptionType::Call, OptionType::Put] {
                    let want = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
                    let got = price_with_scratch(&m, opt, ExerciseStyle::American, scratch);
                    assert_eq!(got.to_bits(), want.to_bits(), "W={W} steps={steps} {opt:?}");
                }
            }
        }
        // One buffer across both lattices and shrinking sizes.
        let mut scratch = Vec::new();
        check::<1>(&[7, 252, 100], &mut scratch);
        check::<2>(&[5, 200, 64], &mut scratch);
    }
}
