//! European binomial pricing in `O(T log T)`: with no early exercise the
//! whole lattice is a *linear* stencil, so the root value is a single
//! correlation of the payoff row with `kernel^{⊛T}` (cf. the paper's remark
//! that dropping the `max` reduces Fig. 1 to a linear stencil).
//!
//! Calls are priced as the put of the mirrored contract
//! ([`BopmModel::mirrored`]; the symmetry is linear algebra on the lattice,
//! so it holds without the `max` as it does with it): the *put* payoff is
//! bounded by `K`, whereas the call payoff grows like `u^T` — at `T ≳ 10⁴`
//! that dynamic range would let the FFT's absolute error (∝ the largest
//! input) swamp the price.  The mirrored put's row is bounded by `S` and
//! exactly zero wherever the call is worthless, so a deep out-of-the-money
//! call prices to `0`, as it does on the American route, where put–call
//! parity would leave the rounding of two `O(K)` numbers.

use super::BopmModel;
use crate::params::OptionType;
use amopt_fft::correlate_power_valid;

/// European option price via one FFT pass over the payoff row.
pub fn price_european_fft(model: &BopmModel, opt: OptionType) -> f64 {
    // Deep out of the money the correlation returns its own rounding, of
    // either sign; a put is worth at least 0.
    match opt {
        OptionType::Put => price_put(model).max(0.0),
        OptionType::Call => price_put(&model.mirrored()).max(0.0),
    }
}

fn price_put(model: &BopmModel) -> f64 {
    let t = model.steps();
    let strike = model.params().strike;
    let payoff: Vec<f64> =
        (0..=t as i64).map(|j| OptionType::Put.payoff(model.node_price(t, j), strike)).collect();
    if t == 0 {
        return payoff[0];
    }
    let kernel = model.kernel();
    let out = correlate_power_valid(&payoff, kernel.weights(), t as u64);
    debug_assert_eq!(out.len(), 1);
    out[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::black_scholes_price;
    use crate::bopm::naive::{self, ExecMode};
    use crate::params::{ExerciseStyle, OptionParams};

    #[test]
    fn matches_naive_european() {
        for steps in [1usize, 2, 13, 252, 2000] {
            let m = BopmModel::new(OptionParams::paper_defaults(), steps).unwrap();
            for opt in [OptionType::Call, OptionType::Put] {
                let want = naive::price(&m, opt, ExerciseStyle::European, ExecMode::Serial);
                let got = price_european_fft(&m, opt);
                assert!(
                    (got - want).abs() < 1e-9 * want.abs().max(1.0),
                    "steps={steps} {opt:?}: fft {got} vs naive {want}"
                );
            }
        }
    }

    #[test]
    fn converges_to_black_scholes() {
        let p = OptionParams::paper_defaults();
        for opt in [OptionType::Call, OptionType::Put] {
            let bs = black_scholes_price(&p, opt).unwrap();
            let m = BopmModel::new(p, 20_000).unwrap();
            let v = price_european_fft(&m, opt);
            assert!((v - bs).abs() < 2e-3, "{opt:?}: lattice {v} vs closed form {bs}");
        }
    }

    #[test]
    fn put_call_parity_on_the_lattice() {
        let p = OptionParams::paper_defaults();
        let m = BopmModel::new(p, 4096).unwrap();
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
        let base = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let check = |p: OptionParams, steps: usize| {
            let m = BopmModel::new(p, steps).unwrap();
            let call = price_european_fft(&m, OptionType::Call);
            let put = price_european_fft(&m, OptionType::Put);
            let ctx = format!("S={} K={} V={} T={steps}", p.spot, p.strike, p.volatility);
            assert!(call >= 0.0, "{ctx}: call {call:e}");
            assert!(put >= 0.0, "{ctx}: put {put:e}");
            if call > 0.0 && put > 0.0 {
                // Neither clamp bit: parity holds to rounding.
                let fwd = p.spot - p.strike * (-p.rate * p.expiry).exp();
                assert!((call - put - fwd).abs() < 1e-8, "{ctx}: parity {:e}", call - put - fwd);
            }
        };
        for steps in [400usize, 3_000, 20_000] {
            // The contracts that priced negative before the clamp.
            check(OptionParams { spot: 1.0, strike: 1000.0, volatility: 0.05, ..base }, steps);
            check(OptionParams { spot: 30.0, strike: 130.0, volatility: 0.05, ..base }, steps);
            for volatility in [0.05, 0.2, 0.6] {
                for moneyness in [0.01, 0.25, 0.8, 1.0, 1.25, 4.0, 100.0] {
                    check(OptionParams { spot: 130.0 * moneyness, volatility, ..base }, steps);
                }
            }
        }
    }
}
