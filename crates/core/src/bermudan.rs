//! Bermudan option pricing — exercisable only on a finite set of dates
//! (one of the paper's §6 future-work items).
//!
//! Between consecutive exercise dates the lattice is a *purely linear*
//! stencil, so each inter-date stretch collapses into one FFT correlation;
//! the `max` against intrinsic value applies pointwise only at the exercise
//! dates.  With `D` exercise dates the cost is `O(D·T log T)` instead of the
//! loop nest's `Θ(T²)` — no red–green machinery required, because the
//! obstacle is active on isolated rows only.
//!
//! Implemented for the **put** under BOPM: put payoffs are bounded by `K`,
//! which keeps the FFT inputs in a `T`-independent dynamic range (the same
//! consideration as `lattice::european`).

use crate::bopm::BopmModel;
use crate::engine::with_powers;
use crate::error::{PricingError, Result};
use crate::params::OptionType;
use amopt_fft::KernelPowers;
use amopt_stencil::{advance_powered, with_scratch, Segment};

/// Prices a Bermudan **put** exercisable at the given lattice steps.
///
/// `exercise_steps` are market time steps in `(0, T]`; expiry is always an
/// exercise date (payoff), step `0` (valuation date) never is.  Duplicates
/// are tolerated; order does not matter.
pub fn price_bermudan_put_fft(model: &BopmModel, exercise_steps: &[usize]) -> Result<f64> {
    with_powers(|powers| price_put_with(model, exercise_steps, powers))
}

/// [`price_bermudan_put_fft`] with its multiplier tables read from (and
/// first built into) the caller's `powers`.
pub(crate) fn price_put_with(
    model: &BopmModel,
    exercise_steps: &[usize],
    powers: &KernelPowers,
) -> Result<f64> {
    let t = model.steps();
    let strike = model.params().strike;
    for &e in exercise_steps {
        if e == 0 || e > t {
            return Err(PricingError::InvalidParams {
                field: "exercise_steps",
                reason: format!("step {e} outside the valid range 1..={t}"),
            });
        }
    }
    let mut dates: Vec<usize> = exercise_steps.to_vec();
    dates.sort_unstable();
    dates.dedup();

    // Expiry row over the root's full dependency cone [0, T].
    let payoff = |i: usize, j: i64| OptionType::Put.payoff(model.node_price(i, j), strike);
    let mut row = Segment::new(0, (0..=t as i64).map(|j| payoff(t, j)).collect());
    let kernel = model.kernel();

    with_scratch(|s| {
        let mut advance = |row: &Segment, h: usize| {
            advance_powered(&row.values, row.start, &kernel, h as u64, powers, &mut s.fft)
        };
        // Walk backward through exercise dates (skipping the expiry itself:
        // the payoff row already reflects exercise at T).
        let mut cur_step = t; // market step of `row`
        for &date in dates.iter().rev() {
            if date == t {
                continue;
            }
            row = advance(&row, cur_step - date);
            for (idx, v) in row.values.iter_mut().enumerate() {
                let j = row.start + idx as i64;
                *v = v.max(payoff(date, j));
            }
            cur_step = date;
        }
        if cur_step > 0 {
            row = advance(&row, cur_step);
        }
    });
    debug_assert_eq!(row.len(), 1);
    Ok(row.values[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::naive;
    use crate::params::{ExerciseStyle, OptionParams};

    fn model(steps: usize) -> BopmModel {
        BopmModel::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    #[test]
    fn fft_matches_naive_reference() {
        let m = model(500);
        let date_sets: Vec<Vec<usize>> =
            vec![vec![500], vec![250], vec![100, 200, 300, 400], (1..=500).step_by(7).collect()];
        for dates in date_sets {
            let want = naive::sweep(&m, OptionType::Put, |i| dates.contains(&i), None);
            let got = price_bermudan_put_fft(&m, &dates).unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.max(1.0),
                "dates={}: fft {got} vs naive {want}",
                dates.len()
            );
        }
    }

    /// The pricing on the four-argument `advance`, which builds fresh
    /// multiplier tables and checks out scratch on every call.
    fn price_by_plain_advance(m: &BopmModel, dates: &[usize]) -> f64 {
        use amopt_stencil::{advance, Backend};
        let t = m.steps();
        let payoff =
            |i: usize, j: i64| OptionType::Put.payoff(m.node_price(i, j), m.params().strike);
        let mut dates = dates.to_vec();
        dates.sort_unstable();
        dates.dedup();
        let mut row = Segment::new(0, (0..=t as i64).map(|j| payoff(t, j)).collect());
        let mut cur_step = t;
        for &date in dates.iter().rev().filter(|&&d| d != t) {
            row = advance(&row, &m.kernel(), (cur_step - date) as u64, Backend::Fft);
            for (idx, v) in row.values.iter_mut().enumerate() {
                *v = v.max(payoff(date, row.start + idx as i64));
            }
            cur_step = date;
        }
        if cur_step > 0 {
            row = advance(&row, &m.kernel(), cur_step as u64, Backend::Fft);
        }
        row.values[0]
    }

    #[test]
    fn shared_tables_price_bitwise_like_the_plain_advance() {
        // Stretches above and below the 64-cell stepped cut, repeated
        // heights (a table's second use) and the expiry-only European.
        let m = model(500);
        let date_sets: Vec<Vec<usize>> = vec![
            vec![500],
            vec![100, 200, 300, 400],
            (1..=500).step_by(7).collect(),
            vec![1, 2, 3, 60, 61, 499],
            vec![450, 30, 250, 30],
        ];
        for dates in date_sets {
            let got = price_bermudan_put_fft(&m, &dates).unwrap();
            let want = price_by_plain_advance(&m, &dates);
            assert_eq!(got.to_bits(), want.to_bits(), "dates {dates:?}: {got} vs {want}");
        }
    }

    #[test]
    fn expiry_only_equals_european() {
        let m = model(400);
        let bermudan = price_bermudan_put_fft(&m, &[400]).unwrap();
        let european = crate::lattice::european::price_european_fft(&m, OptionType::Put);
        assert!((bermudan - european).abs() < 1e-9);
    }

    #[test]
    fn every_step_equals_american() {
        let m = model(300);
        let all: Vec<usize> = (1..=300).collect();
        let bermudan = price_bermudan_put_fft(&m, &all).unwrap();
        let american =
            naive::price(&m, OptionType::Put, ExerciseStyle::American, naive::ExecMode::Serial);
        assert!((bermudan - american).abs() < 1e-9 * american, "{bermudan} vs {american}");
    }

    #[test]
    fn value_is_monotone_in_exercise_rights() {
        let m = model(256);
        let quarterly = price_bermudan_put_fft(&m, &[64, 128, 192, 256]).unwrap();
        let monthly: Vec<usize> = (1..=256).step_by(21).chain([256]).collect();
        let monthly_v = price_bermudan_put_fft(&m, &monthly).unwrap();
        let european = price_bermudan_put_fft(&m, &[256]).unwrap();
        assert!(quarterly >= european - 1e-12);
        assert!(monthly_v >= quarterly - 1e-9);
    }

    #[test]
    fn rejects_out_of_range_dates() {
        let m = model(64);
        assert!(price_bermudan_put_fft(&m, &[0]).is_err());
        assert!(price_bermudan_put_fft(&m, &[65]).is_err());
    }

    #[test]
    fn duplicate_and_unsorted_dates_are_tolerated() {
        let m = model(200);
        let a = price_bermudan_put_fft(&m, &[50, 100, 150]).unwrap();
        let b = price_bermudan_put_fft(&m, &[150, 50, 100, 50, 150]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }
}
