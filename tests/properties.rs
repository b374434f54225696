//! Property-based tests: the fast pricers must agree with the naive
//! references for *arbitrary* admissible market parameters, and the core
//! invariants must hold across the whole parameter space.

use american_option_pricing::core::lattice;
use american_option_pricing::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// The fast American call against the serial nest on one random lattice:
/// relative `1e-8` plus the FFT's `ε·K` floor.
fn fast_call_matches_naive<const W: usize>(
    p: OptionParams,
    steps: usize,
) -> Result<(), TestCaseError> {
    prop_assume!(Lattice::<W>::new(p, steps).is_ok());
    let m = Lattice::<W>::new(p, steps).unwrap();
    let fast = lattice_fast::price_american_call(&m, &EngineConfig::default());
    let naive = lattice_naive::price(
        &m,
        OptionType::Call,
        ExerciseStyle::American,
        lattice_naive::ExecMode::Serial,
    );
    prop_assert!(
        (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
        "W={} fast {} vs naive {}",
        W,
        fast,
        naive
    );
    Ok(())
}

/// Model-free bounds on both sides of one lattice: American ≥ European ≥ 0,
/// American ≥ intrinsic, a call never above the asset, a put never above
/// the strike.
fn american_dominates<const W: usize>(m: &Lattice<W>) -> Result<(), TestCaseError> {
    let p = *m.params();
    for ty in [OptionType::Call, OptionType::Put] {
        let (am, intrinsic, cap) = match ty {
            OptionType::Call => (
                lattice_fast::price_american_call(m, &EngineConfig::default()),
                p.spot - p.strike,
                p.spot,
            ),
            OptionType::Put => (
                lattice_fast::price_american_put(m, &EngineConfig::default()),
                p.strike - p.spot,
                p.strike,
            ),
        };
        let eu = lattice::european::price_european_fft(m, ty);
        let ctx = format!("W={W} {ty:?}");
        prop_assert!(eu >= 0.0, "{}: eu {} < 0", ctx, eu);
        prop_assert!(am >= eu - 1e-8 * eu.abs().max(1.0), "{}: am {} < eu {}", ctx, am, eu);
        let intrinsic = intrinsic.max(0.0);
        prop_assert!(
            am >= intrinsic - 1e-8 * p.strike,
            "{}: am {} < intrinsic {}",
            ctx,
            am,
            intrinsic
        );
        prop_assert!(am <= cap * (1.0 + 1e-9), "{}: am {} above {}", ctx, am, cap);
    }
    Ok(())
}

/// European put–call parity on one lattice: `C − P = S·e^{−YT} − K·e^{−RT}`
/// holds exactly in the risk-neutral tree, up to the transforms' rounding.
fn european_parity<const W: usize>(m: &Lattice<W>) -> Result<(), TestCaseError> {
    let p = *m.params();
    let call = lattice::european::price_european_fft(m, OptionType::Call);
    let put = lattice::european::price_european_fft(m, OptionType::Put);
    let rhs = p.spot * (-p.dividend_yield * p.expiry).exp() - p.strike * (-p.rate * p.expiry).exp();
    prop_assert!(
        (call - put - rhs).abs() < 1e-7 * p.strike.max(p.spot),
        "W={} parity violated: {} vs {}",
        W,
        call - put,
        rhs
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bopm_fast_matches_naive_on_random_params(p in arb_params(), steps in 16usize..600) {
        fast_call_matches_naive::<1>(p, steps)?;
    }

    #[test]
    fn topm_fast_matches_naive_on_random_params(p in arb_params(), steps in 16usize..400) {
        fast_call_matches_naive::<2>(p, steps)?;
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
        prop_assume!(BopmModel::new(p, steps).is_ok() && TopmModel::new(p, steps).is_ok());
        american_dominates(&BopmModel::new(p, steps).unwrap())?;
        american_dominates(&TopmModel::new(p, steps).unwrap())?;
    }

    #[test]
    fn put_call_parity_on_random_lattices(p in arb_params(), steps in 32usize..500) {
        prop_assume!(BopmModel::new(p, steps).is_ok() && TopmModel::new(p, steps).is_ok());
        european_parity(&BopmModel::new(p, steps).unwrap())?;
        european_parity(&TopmModel::new(p, steps).unwrap())?;
    }

    #[test]
    fn boundary_drift_invariant_on_random_lattices(p in arb_params(), steps in 32usize..300) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let (_, b) = lattice_naive::price_american_with_boundary(&m, OptionType::Call);
        for i in 0..steps {
            // Left-drift bound (Lemma 2.6) holds everywhere.
            prop_assert!(b[i] >= b[i + 1] - 1, "i={}", i);
            // Rightward monotonicity (Cor. 2.7 / Lemma 2.4) relies on
            // Lemma 2.3, which needs the row i+1 to have children — it can
            // genuinely fail at the expiry transition i+1 = T when
            // (1−e^{−RΔt}) > (1−e^{−YΔt})·u² (e.g. Y = 0); see ARCHITECTURE.md
            // ("Errata and substitutions") and lattice::fast's explicit first step.
            if i + 1 < steps {
                prop_assert!(b[i] <= b[i + 1] || b[i + 1] >= i as i64, "i={}", i);
            }
        }
    }
}
