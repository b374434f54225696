//! The linear backward pass: European options in `O(T log T)` and Bermudan
//! puts in `O(D·T log T)` for `D` exercise dates.  With no early exercise
//! the whole lattice is a *linear* stencil (cf. the paper's remark that
//! dropping the `max` reduces Fig. 1 to a linear stencil), so the root value
//! is the payoff row advanced `T` steps.  A Bermudan put — exercisable only
//! on a finite set of dates, one of the paper's §6 future-work items — is
//! the same pass cut into one advance per stretch between dates, with the
//! `max` against the exercise value applied only on the date rows: no
//! red–green machinery, because the obstacle is active on isolated rows
//! only.  A European is that pass with no early date.
//!
//! Every stretch goes through [`advance_powered`]: one correlation with
//! `kernel^{⊛h}` for a row wider than 64 cells, `h` single steps in the
//! nest's order otherwise.  The FD grid's put is the same pass in its own
//! units, scaled by `K`.
//!
//! Calls are priced as the put of the mirrored contract
//! ([`Lattice::mirrored`]; the symmetry is linear algebra on the lattice,
//! so it holds without the `max` as it does with it): the *put* payoff is
//! bounded by `K`, whereas the call payoff grows like `u^T` — at `T ≳ 10⁴`
//! that dynamic range would let the FFT's absolute error (∝ the largest
//! input) swamp the price.  The mirrored put's row is bounded by `S` and
//! exactly zero wherever the call is worthless, so a deep out-of-the-money
//! call prices to `0`, as it does on the American route, where put–call
//! parity would leave the rounding of two `O(K)` numbers.

use super::Lattice;
use crate::bopm::BopmModel;
use crate::engine::with_powers;
use crate::error::{PricingError, Result};
use crate::params::OptionType;
use amopt_fft::KernelPowers;
use amopt_stencil::{advance_powered, Segment};

/// European option price via the linear pass over the payoff row.
pub fn price_european_fft<const W: usize>(model: &Lattice<W>, opt: OptionType) -> f64 {
    with_powers(|powers| price_with(model, opt, powers))
}

/// [`price_european_fft`] with its multiplier table read from (and first
/// built into) the caller's `powers`.
pub(crate) fn price_with<const W: usize>(
    model: &Lattice<W>,
    opt: OptionType,
    powers: &KernelPowers,
) -> f64 {
    match opt {
        OptionType::Put => put_pass(model, &[], powers),
        OptionType::Call => put_pass(&model.mirrored(), &[], powers),
    }
}

/// Prices a Bermudan **put** exercisable at the given lattice steps.
///
/// `exercise_steps` are market time steps in `(0, T]`; expiry is always an
/// exercise date (payoff), step `0` (valuation date) never is.  Duplicates
/// are tolerated; order does not matter.
pub fn price_bermudan_put_fft(model: &BopmModel, exercise_steps: &[usize]) -> Result<f64> {
    with_powers(|powers| bermudan_put_with(model, &schedule(exercise_steps), powers))
}

/// `exercise_steps` sorted and deduplicated: the schedule
/// [`bermudan_put_with`] prices, and the one a batch request's memo key
/// holds.
pub(crate) fn schedule(exercise_steps: &[usize]) -> Box<[usize]> {
    let mut dates = exercise_steps.to_vec();
    dates.sort_unstable();
    dates.dedup();
    dates.into_boxed_slice()
}

/// [`price_bermudan_put_fft`] on a [`schedule`], with its multiplier tables
/// read from (and first built into) the caller's `powers`.  The schedule is
/// sorted, so only its ends can fall outside `1..=T`.
pub(crate) fn bermudan_put_with(
    model: &BopmModel,
    dates: &[usize],
    powers: &KernelPowers,
) -> Result<f64> {
    let t = model.steps();
    let outside = dates.first().filter(|&&e| e == 0).or(dates.last().filter(|&&e| e > t));
    if let Some(&e) = outside {
        return Err(PricingError::InvalidParams {
            field: "exercise_steps",
            reason: format!("step {e} outside the valid range 1..={t}"),
        });
    }
    Ok(put_pass(model, dates, powers))
}

/// The put's backward pass from the expiry row, over the root's full
/// dependency cone `[0, W·T]`, taking the floored exercise value on every
/// row of `dates` (ascending, in `1..=T`; expiry's row is the payoff
/// already).  Deep out of the money a correlation returns its own rounding,
/// of either sign; a put is worth at least 0.
fn put_pass<const W: usize>(model: &Lattice<W>, dates: &[usize], powers: &KernelPowers) -> f64 {
    let t = model.steps();
    let payoff = |i: usize, j: i64| model.exercise_put(i, j).max(0.0);
    let mut row = Segment::new(0, (0..=W as i64 * t as i64).map(|j| payoff(t, j)).collect());
    let kernel = model.kernel();
    let advance = |row: &Segment, h: usize| {
        advance_powered(&row.values, row.len(), row.start, &kernel, h as u64, powers, 0)
    };
    let mut step = t; // market step of `row`
    for &date in dates.iter().rev().filter(|&&d| d < t) {
        row = advance(&row, step - date);
        for (j, v) in (row.start..).zip(row.values.iter_mut()) {
            *v = v.max(payoff(date, j));
        }
        step = date;
    }
    row = advance(&row, step);
    debug_assert_eq!(row.len(), 1);
    (model.units.scale * row.values[0]).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::black_scholes_price;
    use crate::batch::{BatchPricer, PricingRequest};
    use crate::engine::EngineConfig;
    use crate::lattice::naive::{self, ExecMode};
    use crate::params::{ExerciseStyle, OptionParams};

    /// The paper's contract without its dividend: the FD grid's domain.
    fn fd_params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    fn bopm(steps: usize) -> BopmModel {
        BopmModel::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    /// The pass against the nest with the same exercise rows: Europeans on
    /// every grid (no date), Bermudan puts on the binomial tree.  Expiry
    /// alone is the European bit for bit, and every step is the American.
    #[test]
    fn matches_the_nest_on_any_date_list() {
        fn check<const W: usize>(m: &Lattice<W>, opt: OptionType, dates: &[usize], got: f64) {
            let want = naive::sweep(m, opt, |i| dates.contains(&i), None);
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "W={W} steps={} {opt:?} dates={}: pass {got} vs nest {want}",
                m.steps(),
                dates.len()
            );
        }
        fn european<const W: usize>(m: Lattice<W>, opts: &[OptionType]) {
            opts.iter().for_each(|&opt| check(&m, opt, &[], price_european_fft(&m, opt)));
        }
        let both = [OptionType::Call, OptionType::Put];
        let p = OptionParams::paper_defaults();
        for steps in [1, 2, 13, 252, 2000] {
            european(Lattice::<1>::new(p, steps).unwrap(), &both);
        }
        for steps in [1, 2, 37, 252, 1500] {
            european(Lattice::<2>::new(p, steps).unwrap(), &both);
        }
        for steps in [1, 64, 1000] {
            european(Lattice::explicit_fd(fd_params(), steps).unwrap(), &[OptionType::Put]);
        }
        let m = bopm(500);
        let date_sets: Vec<Vec<usize>> =
            vec![vec![500], vec![250], vec![100, 200, 300, 400], (1..=500).step_by(7).collect()];
        for dates in date_sets {
            check(&m, OptionType::Put, &dates, price_bermudan_put_fft(&m, &dates).unwrap());
        }
        let expiry_only = price_bermudan_put_fft(&m, &[500]).unwrap();
        assert_eq!(expiry_only.to_bits(), price_european_fft(&m, OptionType::Put).to_bits());
        let every_step: Vec<usize> = (1..=500).collect();
        let bermudan = price_bermudan_put_fft(&m, &every_step).unwrap();
        let american = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        assert!((bermudan - american).abs() < 1e-9 * american, "{bermudan} vs {american}");
    }

    /// A row of at most 64 cells is stepped in the nest's order, so a
    /// European put on it is the nest's bits: every binomial `T ≤ 63`,
    /// trinomial and FD grid `T ≤ 31`.
    #[test]
    fn small_european_puts_are_the_nests_bits() {
        fn check<const W: usize>(m: Lattice<W>) {
            let want = naive::price(&m, OptionType::Put, ExerciseStyle::European, ExecMode::Serial);
            let got = price_european_fft(&m, OptionType::Put);
            assert_eq!(got.to_bits(), want.to_bits(), "W={W} T={}: {got} vs {want}", m.steps());
        }
        let paper = OptionParams::paper_defaults();
        let carry = OptionParams { rate: 0.05, dividend_yield: 0.02, ..paper };
        for p in [paper, carry] {
            (1..=63).for_each(|steps| check(Lattice::<1>::new(p, steps).unwrap()));
            (1..=31).for_each(|steps| check(Lattice::<2>::new(p, steps).unwrap()));
        }
        for rate in [paper.rate, 0.05] {
            let p = OptionParams { rate, ..fd_params() };
            (1..=31).for_each(|steps| check(Lattice::explicit_fd(p, steps).unwrap()));
        }
    }

    #[test]
    fn converges_to_black_scholes() {
        fn check<const W: usize>(steps: usize, opts: &[OptionType], tol: f64) {
            let p = OptionParams::paper_defaults();
            let m = Lattice::<W>::new(p, steps).unwrap();
            for &opt in opts {
                let bs = black_scholes_price(&p, opt).unwrap();
                let v = price_european_fft(&m, opt);
                assert!((v - bs).abs() < tol, "W={W} {opt:?}: lattice {v} vs closed form {bs}");
            }
        }
        check::<1>(20_000, &[OptionType::Call, OptionType::Put], 2e-3);
        check::<2>(30_000, &[OptionType::Call], 1e-3);
        // The FD grid's put: the error shrinks with T.
        let bs = black_scholes_price(&fd_params(), OptionType::Put).unwrap();
        let mut prev = f64::INFINITY;
        for steps in [250usize, 1000, 4000] {
            let m = Lattice::explicit_fd(fd_params(), steps).unwrap();
            let err = (price_european_fft(&m, OptionType::Put) - bs).abs();
            assert!(err < prev, "FD steps={steps}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 2e-2, "FD final error {prev}");
    }

    #[test]
    fn put_call_parity_on_the_lattice() {
        let p = OptionParams::paper_defaults();
        let m = Lattice::<1>::new(p, 4096).unwrap();
        let call = price_european_fft(&m, OptionType::Call);
        let put = price_european_fft(&m, OptionType::Put);
        // Lattice parity: C − P = S·e^{−YT} − K·e^{−RT} holds exactly in the
        // risk-neutral tree (up to FFT rounding).
        let rhs =
            p.spot * (-p.dividend_yield * p.expiry).exp() - p.strike * (-p.rate * p.expiry).exp();
        assert!((call - put - rhs).abs() < 1e-8, "{} vs {}", call - put, rhs);
    }

    /// A European call is worth at least `max(0, fwd)` and a put at least 0,
    /// but deep out of the money the put and the forward cancel to the
    /// transform's rounding, of either sign.  The Bermudan put is the same
    /// pass, directly and through the batch route.
    #[test]
    fn deep_otm_prices_are_never_negative() {
        fn check<const W: usize>(p: OptionParams, steps: usize) {
            let m = Lattice::<W>::new(p, steps).unwrap();
            let call = price_european_fft(&m, OptionType::Call);
            let put = price_european_fft(&m, OptionType::Put);
            let ctx = format!("W={W} S={} K={} V={} T={steps}", p.spot, p.strike, p.volatility);
            assert!(call >= 0.0, "{ctx}: call {call:e}");
            assert!(put >= 0.0, "{ctx}: put {put:e}");
            if call > 0.0 && put > 0.0 {
                // Neither clamp bit: parity holds to rounding.
                let fwd = p.spot - p.strike * (-p.rate * p.expiry).exp();
                assert!((call - put - fwd).abs() < 1e-8, "{ctx}: parity {:e}", call - put - fwd);
            }
        }
        let base = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        for steps in [400usize, 3_000, 20_000] {
            // The contracts that priced negative before the clamp.
            check::<1>(OptionParams { spot: 1.0, strike: 1000.0, volatility: 0.05, ..base }, steps);
            check::<1>(OptionParams { spot: 30.0, strike: 130.0, volatility: 0.05, ..base }, steps);
            for volatility in [0.05, 0.2, 0.6] {
                for moneyness in [0.01, 0.25, 0.8, 1.0, 1.25, 4.0, 100.0] {
                    check::<1>(OptionParams { spot: 130.0 * moneyness, volatility, ..base }, steps);
                }
            }
            for (spot, strike) in [(1.0, 1000.0), (30.0, 130.0), (130.0, 130.0), (520.0, 130.0)] {
                check::<2>(OptionParams { spot, strike, volatility: 0.05, ..base }, steps);
            }
        }
        // Bermudan puts that priced negative before the pass clamped them.
        let pricer = BatchPricer::new(EngineConfig::default());
        for steps in [3_000usize, 20_000] {
            for (spot, volatility) in
                [520.0, 13_000.0].into_iter().flat_map(|s| [0.05, 0.2, 0.6].map(|v| (s, v)))
            {
                let p = OptionParams { spot, volatility, ..base };
                let m = BopmModel::new(p, steps).unwrap();
                for dates in [vec![steps], vec![steps / 2, steps]] {
                    let direct = price_bermudan_put_fft(&m, &dates).unwrap();
                    let req = PricingRequest::bermudan_put(p, steps, dates.clone());
                    let batch = pricer.price_one(&req).unwrap();
                    let ctx = format!("S={spot} V={volatility} T={steps} dates={dates:?}");
                    assert!(direct >= 0.0 && batch >= 0.0, "{ctx}: {direct:e} / {batch:e}");
                }
            }
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
        let m = bopm(500);
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
    fn value_is_monotone_in_exercise_rights() {
        let m = bopm(256);
        let quarterly = price_bermudan_put_fft(&m, &[64, 128, 192, 256]).unwrap();
        let monthly: Vec<usize> = (1..=256).step_by(21).chain([256]).collect();
        let monthly_v = price_bermudan_put_fft(&m, &monthly).unwrap();
        let european = price_bermudan_put_fft(&m, &[256]).unwrap();
        assert!(quarterly >= european - 1e-12);
        assert!(monthly_v >= quarterly - 1e-9);
    }

    #[test]
    fn rejects_out_of_range_dates() {
        // Out of range at either end of the sorted schedule, wherever the
        // request lists it: the batch route checks the key's schedule, the
        // direct entry its own, and both give the same error.
        let m = bopm(64);
        let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
        for dates in [vec![0], vec![65], vec![30, 65, 10], vec![30, 0, 64, 0]] {
            let direct = price_bermudan_put_fft(&m, &dates);
            assert!(direct.is_err(), "{dates:?}");
            let request = PricingRequest::bermudan_put(OptionParams::paper_defaults(), 64, dates);
            assert_eq!(pricer.price_one(&request), direct);
        }
    }

    #[test]
    fn duplicate_and_unsorted_dates_are_tolerated() {
        let m = bopm(200);
        let a = price_bermudan_put_fft(&m, &[50, 100, 150]).unwrap();
        let b = price_bermudan_put_fft(&m, &[150, 50, 100, 50, 150]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }
}
