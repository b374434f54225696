//! European lattice pricing in `O(T log T)`: with no early exercise the
//! whole lattice is a *linear* stencil, so the root value is a single
//! correlation of the payoff row with `kernel^{⊛T}` (cf. the paper's remark
//! that dropping the `max` reduces Fig. 1 to a linear stencil).  The FD
//! grid's put is the same pass in its own units, scaled by `K`.
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
use crate::engine::with_powers;
use crate::params::OptionType;
use amopt_fft::KernelPowers;
use amopt_stencil::with_scratch;

/// European option price via one FFT pass over the payoff row.
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
    // Deep out of the money the correlation returns its own rounding, of
    // either sign; a put is worth at least 0.
    match opt {
        OptionType::Put => price_put(model, powers).max(0.0),
        OptionType::Call => price_put(&model.mirrored(), powers).max(0.0),
    }
}

fn price_put<const W: usize>(model: &Lattice<W>, powers: &KernelPowers) -> f64 {
    let t = model.steps();
    let payoff: Vec<f64> =
        (0..=W as i64 * t as i64).map(|j| model.exercise_put(t, j).max(0.0)).collect();
    let out = with_scratch(|s| powers.correlate(&payoff, model.weights(), t as u64, &mut s.fft));
    debug_assert_eq!(out.len(), 1);
    model.units.scale * out[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::black_scholes_price;
    use crate::lattice::naive::{self, ExecMode};
    use crate::params::{ExerciseStyle, OptionParams};

    /// The paper's contract without its dividend: the FD grid's domain.
    fn fd_params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    #[test]
    fn matches_naive_european() {
        fn check<const W: usize>(m: Lattice<W>, opts: &[OptionType]) {
            for &opt in opts {
                let want = naive::price(&m, opt, ExerciseStyle::European, ExecMode::Serial);
                let got = price_european_fft(&m, opt);
                assert!(
                    (got - want).abs() < 1e-9 * want.abs().max(1.0),
                    "W={W} steps={} {opt:?}: fft {got} vs naive {want}",
                    m.steps()
                );
            }
        }
        let both = [OptionType::Call, OptionType::Put];
        let p = OptionParams::paper_defaults();
        for steps in [1, 2, 13, 252, 2000] {
            check(Lattice::<1>::new(p, steps).unwrap(), &both);
        }
        for steps in [1, 2, 37, 252, 1500] {
            check(Lattice::<2>::new(p, steps).unwrap(), &both);
        }
        for steps in [1, 64, 1000] {
            check(Lattice::explicit_fd(fd_params(), steps).unwrap(), &[OptionType::Put]);
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
    /// transform's rounding, of either sign.
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
    }
}
