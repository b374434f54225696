//! European trinomial pricing in `O(T log T)` — one correlation of the
//! (bounded) put payoff row with `kernel^{⊛T}`, calls as the put of the
//! mirrored contract (see `bopm::european` for the dynamic-range rationale).

use super::TopmModel;
use crate::params::OptionType;
use amopt_fft::correlate_power_valid;

/// European option price via one FFT pass over the payoff row.
pub fn price_european_fft(model: &TopmModel, opt: OptionType) -> f64 {
    // Floored for the reason `bopm::european` gives: deep out of the money
    // the correlation is rounding of either sign.
    match opt {
        OptionType::Put => price_put(model).max(0.0),
        OptionType::Call => price_put(&model.mirrored()).max(0.0),
    }
}

fn price_put(model: &TopmModel) -> f64 {
    let t = model.steps();
    let strike = model.params().strike;
    let payoff: Vec<f64> = (0..=2 * t as i64)
        .map(|j| OptionType::Put.payoff(model.node_price(t, j), strike))
        .collect();
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
    use crate::params::{ExerciseStyle, OptionParams};
    use crate::topm::naive::{self, ExecMode};

    #[test]
    fn matches_naive_european() {
        for steps in [1usize, 2, 37, 252, 1500] {
            let m = TopmModel::new(OptionParams::paper_defaults(), steps).unwrap();
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
    fn stays_accurate_at_large_t() {
        let p = OptionParams::paper_defaults();
        let bs = crate::analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let m = TopmModel::new(p, 30_000).unwrap();
        let v = price_european_fft(&m, OptionType::Call);
        assert!((v - bs).abs() < 1e-3, "{v} vs {bs}");
    }

    /// The trinomial twin of `bopm::european`'s test of the same name.
    #[test]
    fn deep_otm_prices_are_never_negative() {
        let base = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        for steps in [400usize, 3_000, 20_000] {
            for (spot, strike) in [(1.0, 1000.0), (30.0, 130.0), (130.0, 130.0), (520.0, 130.0)] {
                let p = OptionParams { spot, strike, volatility: 0.05, ..base };
                let m = TopmModel::new(p, steps).unwrap();
                let call = price_european_fft(&m, OptionType::Call);
                let put = price_european_fft(&m, OptionType::Put);
                assert!(
                    call >= 0.0 && put >= 0.0,
                    "S={spot} K={strike} T={steps}: {call:e} {put:e}"
                );
                if call > 0.0 && put > 0.0 {
                    let fwd = spot - strike * (-p.rate * p.expiry).exp();
                    assert!((call - put - fwd).abs() < 1e-8, "S={spot} K={strike} T={steps}");
                }
            }
        }
    }
}
