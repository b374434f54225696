//! Property-based tests: the fast pricers must agree with the naive
//! references for *arbitrary* admissible market parameters, and the core
//! invariants must hold across the whole parameter space.

use american_option_pricing::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = OptionParams> {
    (
        10.0..500.0f64, // spot
        10.0..500.0f64, // strike
        0.0..0.10f64,   // rate
        0.05..0.8f64,   // volatility
        0.0..0.10f64,   // dividend yield
        0.1..3.0f64,    // expiry
    )
        .prop_map(|(spot, strike, rate, volatility, dividend_yield, expiry)| OptionParams {
            spot,
            strike,
            rate,
            volatility,
            dividend_yield,
            expiry,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bopm_fast_matches_naive_on_random_params(p in arb_params(), steps in 16usize..600) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let fast = bopm_fast::price_american_call(&m, &EngineConfig::default());
        let naive = bopm_naive::price(
            &m, OptionType::Call, ExerciseStyle::American, bopm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn topm_fast_matches_naive_on_random_params(p in arb_params(), steps in 16usize..400) {
        prop_assume!(TopmModel::new(p, steps).is_ok());
        let m = TopmModel::new(p, steps).unwrap();
        let fast = topm_fast::price_american_call(&m, &EngineConfig::default());
        let naive = topm_naive::price(
            &m, OptionType::Call, ExerciseStyle::American, topm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn bsm_fast_matches_naive_on_random_params(p in arb_params(), steps in 16usize..400) {
        let p = OptionParams { dividend_yield: 0.0, ..p };
        prop_assume!(BsmModel::new(p, steps).is_ok());
        let m = BsmModel::new(p, steps).unwrap();
        let fast = bsm_fast::price_american_put(&m, &EngineConfig::default());
        let naive = bsm_naive::price_american_put(&m, bsm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn american_dominates_european_and_intrinsic(p in arb_params(), steps in 16usize..300) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let am = bopm_fast::price_american_call(&m, &EngineConfig::default());
        let eu = american_option_pricing::core::bopm::european::price_european_fft(
            &m, OptionType::Call);
        let intrinsic = (p.spot - p.strike).max(0.0);
        prop_assert!(am >= eu - 1e-8 * eu.abs().max(1.0), "am {} < eu {}", am, eu);
        prop_assert!(am >= intrinsic - 1e-8 * p.strike, "am {} < intrinsic {}", am, intrinsic);
        // And below the spot (a call never exceeds the asset).
        prop_assert!(am <= p.spot * (1.0 + 1e-9));
    }

    #[test]
    fn put_call_parity_on_random_lattices(p in arb_params(), steps in 32usize..500) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let call = american_option_pricing::core::bopm::european::price_european_fft(
            &m, OptionType::Call);
        let put = american_option_pricing::core::bopm::european::price_european_fft(
            &m, OptionType::Put);
        let rhs = p.spot * (-p.dividend_yield * p.expiry).exp()
            - p.strike * (-p.rate * p.expiry).exp();
        prop_assert!(
            (call - put - rhs).abs() < 1e-7 * p.strike.max(p.spot),
            "parity violated: {} vs {}", call - put, rhs
        );
    }

    #[test]
    fn boundary_drift_invariant_on_random_lattices(p in arb_params(), steps in 32usize..300) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let (_, b) = bopm_naive::price_american_with_boundary(&m, OptionType::Call);
        for i in 0..steps {
            // Left-drift bound (Lemma 2.6) holds everywhere.
            prop_assert!(b[i] >= b[i + 1] - 1, "i={}", i);
            // Rightward monotonicity (Cor. 2.7 / Lemma 2.4) relies on
            // Lemma 2.3, which needs the row i+1 to have children — it can
            // genuinely fail at the expiry transition i+1 = T when
            // (1−e^{−RΔt}) > (1−e^{−YΔt})·u² (e.g. Y = 0); see ARCHITECTURE.md
            // ("Errata and substitutions") and bopm::fast's explicit first step.
            if i + 1 < steps {
                prop_assert!(b[i] <= b[i + 1] || b[i + 1] >= i as i64, "i={}", i);
            }
        }
    }
}
