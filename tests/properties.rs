//! Property-based tests: the fast pricers must agree with the naive
//! references for *arbitrary* admissible market parameters, and the core
//! invariants must hold across the whole parameter space.

use american_option_pricing::core::{bsm, lattice};
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

/// A fast American route against its serial nest on one random grid:
/// relative `1e-8` plus the FFT's `ε·K` floor.
fn fast_matches_naive(
    what: &str,
    p: &OptionParams,
    fast: f64,
    naive: f64,
) -> Result<(), TestCaseError> {
    prop_assert!(
        (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
        "{} fast {} vs naive {}",
        what,
        fast,
        naive
    );
    Ok(())
}

/// [`fast_matches_naive`] for the American call on one random lattice.
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
    fast_matches_naive(&format!("W={W}"), &p, fast, naive)
}

/// Model-free bounds on the routes of one contract: American ≥ European ≥
/// 0, American ≥ intrinsic, a call never above the asset, a put never above
/// the strike.  Prices come through the batch dispatcher (a batch of one is
/// bitwise the direct pricer).
fn american_dominates(
    model: ModelKind,
    p: OptionParams,
    steps: usize,
    types: &[OptionType],
) -> Result<(), TestCaseError> {
    let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
    let price = |req: PricingRequest| pricer.price_one(&req).expect("the grid builds");
    for &ty in types {
        let am = price(PricingRequest::american(model, ty, p, steps));
        let eu = price(PricingRequest::european(model, ty, p, steps));
        let (intrinsic, cap) = match ty {
            OptionType::Call => (p.spot - p.strike, p.spot),
            OptionType::Put => (p.strike - p.spot, p.strike),
        };
        let ctx = format!("{model:?} {ty:?}");
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

/// The American price is convex in the strike: a tree's nodes do not move
/// with `K`, so `P(K−h) − 2P(K) + P(K+h)` at `h = 0.01·K` is non-negative up
/// to rounding, on the fast route and on the nest alike.  (The FD grid's
/// nodes move with `K`, so it is left out.)
fn convex_in_strike<const W: usize>(p: OptionParams, steps: usize) -> Result<(), TestCaseError> {
    let h = 0.01 * p.strike;
    let grids: Vec<Lattice<W>> = [-h, 0.0, h]
        .into_iter()
        .filter_map(|dk| Lattice::<W>::new(OptionParams { strike: p.strike + dk, ..p }, steps).ok())
        .collect();
    prop_assume!(grids.len() == 3);
    let cfg = EngineConfig::default();
    for ty in [OptionType::Call, OptionType::Put] {
        let prices: Vec<[f64; 2]> = grids
            .iter()
            .map(|m| {
                let fast = match ty {
                    OptionType::Call => lattice_fast::price_american_call(m, &cfg),
                    OptionType::Put => lattice_fast::price_american_put(m, &cfg),
                };
                let serial = lattice_naive::ExecMode::Serial;
                [fast, lattice_naive::price(m, ty, ExerciseStyle::American, serial)]
            })
            .collect();
        for (k, route) in ["fast", "nest"].into_iter().enumerate() {
            let d2 = prices[0][k] - 2.0 * prices[1][k] + prices[2][k];
            prop_assert!(d2 >= -1e-12 * p.strike, "W={} {:?} {}: d² {}", W, ty, route, d2);
        }
    }
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
        let fast = bsm::fast::price_american_put(&m, &EngineConfig::default());
        let naive = bsm::naive::price_american_put(&m, bsm::naive::ExecMode::Serial);
        fast_matches_naive("BSM put", &p, fast, naive)?;
    }

    #[test]
    fn american_dominates_european_and_intrinsic(p in arb_params(), steps in 16usize..300) {
        prop_assume!(BopmModel::new(p, steps).is_ok() && TopmModel::new(p, steps).is_ok());
        let both = [OptionType::Call, OptionType::Put];
        american_dominates(ModelKind::Bopm, p, steps, &both)?;
        american_dominates(ModelKind::Topm, p, steps, &both)?;
        // The FD grid: dividend-free, puts only.
        let fd = OptionParams { dividend_yield: 0.0, ..p };
        if BsmModel::new(fd, steps).is_ok() {
            american_dominates(ModelKind::Bsm, fd, steps, &[OptionType::Put])?;
        }
    }

    #[test]
    fn american_price_is_convex_in_strike(p in arb_params(), steps in 16usize..300) {
        convex_in_strike::<1>(p, steps)?;
        convex_in_strike::<2>(p, steps)?;
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
