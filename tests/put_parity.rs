//! Property tests for the fast American puts: naive-loop equivalence across
//! a randomized parameter grid, the discrete put–call symmetry (against the
//! Θ(T²) *call* nests — the fast calls are themselves mirrored puts, so the
//! nests are the independent side), boundary monotonicity, and batch-of-one
//! bitwise identity.

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

/// The fast American put against the serial put nest on one random
/// lattice: relative `1e-8` plus the FFT's `ε·K` floor.
fn fast_put_matches_naive<const W: usize>(
    p: OptionParams,
    steps: usize,
) -> Result<(), TestCaseError> {
    prop_assume!(Lattice::<W>::new(p, steps).is_ok());
    let m = Lattice::<W>::new(p, steps).unwrap();
    let fast = lattice_fast::price_american_put(&m, &EngineConfig::default());
    let naive = lattice_naive::price(
        &m,
        OptionType::Put,
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

/// McDonald–Schroder discrete symmetry, exact on both lattices (`u·d = 1`):
/// `P(S, K, R, Y) = C(K, S, Y, R)`, column `j` of the call row mapping to
/// column `W·i − j` of the put row.  The put prices through the fast
/// engine, the mirrored call through the Θ(T²) call nest — two code paths
/// sharing nothing, agreeing through a nontrivial identity.
fn put_call_symmetry<const W: usize>(p: OptionParams, steps: usize) -> Result<(), TestCaseError> {
    prop_assume!(Lattice::<W>::new(p, steps).is_ok());
    prop_assume!(Lattice::<W>::new(p.mirrored(), steps).is_ok());
    let put_m = Lattice::<W>::new(p, steps).unwrap();
    let call_m = Lattice::<W>::new(p.mirrored(), steps).unwrap();
    let put = lattice_fast::price_american_put(&put_m, &EngineConfig::default());
    let call = lattice_naive::price(
        &call_m,
        OptionType::Call,
        ExerciseStyle::American,
        lattice_naive::ExecMode::Serial,
    );
    prop_assert!(
        (put - call).abs() < 1e-8 * call.abs().max(1.0) + 1e-11 * p.strike.max(p.spot),
        "W={} put {} vs mirrored call nest {}",
        W,
        put,
        call
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bopm_fast_put_matches_naive_on_random_params(p in arb_params(), steps in 16usize..600) {
        fast_put_matches_naive::<1>(p, steps)?;
    }

    #[test]
    fn topm_fast_put_matches_naive_on_random_params(p in arb_params(), steps in 16usize..400) {
        fast_put_matches_naive::<2>(p, steps)?;
    }

    #[test]
    fn bopm_put_call_symmetry_holds(p in arb_params(), steps in 16usize..500) {
        put_call_symmetry::<1>(p, steps)?;
    }

    #[test]
    fn topm_put_call_symmetry_holds(p in arb_params(), steps in 16usize..400) {
        put_call_symmetry::<2>(p, steps)?;
    }

    #[test]
    fn bopm_put_boundary_is_monotone(p in arb_params(), steps in 64usize..400) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        prop_assume!(p.rate > 1e-4); // zero-rate puts have no frontier
        let m = BopmModel::new(p, steps).unwrap();
        let pts = exercise_boundary::lattice_put_boundary(&m, &EngineConfig::default(), 12);
        // Expiry-first samples: the critical price never increases as
        // time-to-expiry grows — up to the lattice quantisation (the
        // discrete frontier tracks S*(τ) only to within a factor u²) — and
        // stays at or below the strike exactly.
        let prices: Vec<f64> = pts.iter().filter_map(|q| q.critical_price).collect();
        let slack = m.up().powi(2) * (1.0 + 1e-9);
        for w in prices.windows(2) {
            prop_assert!(w[1] <= w[0] * slack, "frontier not monotone: {:?}", w);
        }
        for &x in &prices {
            prop_assert!(x <= p.strike * (1.0 + 1e-12), "critical {} above strike", x);
        }
    }

    #[test]
    fn batch_of_one_put_is_bitwise_identical_to_the_direct_pricer(
        p in arb_params(),
        steps in 16usize..300,
        family in 0usize..2,
    ) {
        let cfg = EngineConfig::default();
        let (model, want) = if family == 1 {
            prop_assume!(TopmModel::new(p, steps).is_ok());
            (ModelKind::Topm, lattice_fast::price_american_put(&TopmModel::new(p, steps).unwrap(), &cfg))
        } else {
            prop_assume!(BopmModel::new(p, steps).is_ok());
            (ModelKind::Bopm, lattice_fast::price_american_put(&BopmModel::new(p, steps).unwrap(), &cfg))
        };
        let req = PricingRequest::american(model, OptionType::Put, p, steps);
        let got = BatchPricer::new(cfg).price_one(&req).unwrap();
        prop_assert!(got.to_bits() == want.to_bits(), "batch {} vs direct {}", got, want);
    }
}

/// The engine-vs-nest symmetry at a size where the trapezoid recursion is
/// deep (non-property, one deterministic heavyweight case).
#[test]
fn put_call_symmetry_at_depth() {
    let p = OptionParams::paper_defaults();
    let put = lattice_fast::price_american_put(
        &BopmModel::new(p, 8192).unwrap(),
        &EngineConfig::default(),
    );
    let call = lattice_naive::price(
        &BopmModel::new(p.mirrored(), 8192).unwrap(),
        OptionType::Call,
        ExerciseStyle::American,
        lattice_naive::ExecMode::Serial,
    );
    assert!((put - call).abs() < 1e-8 * call.max(1.0), "put {put} vs mirrored call nest {call}");
}

/// The batch layer routes American puts through the fast engine — assert
/// the route is genuinely the fast pricer, not the Θ(T²) loop nest,
/// by checking bitwise identity against the fast path (which differs from
/// the naive path in the last few ulps).
#[test]
fn batch_put_route_is_the_fast_engine() {
    let p = OptionParams::paper_defaults();
    let steps = 300;
    let pricer = BatchPricer::new(EngineConfig::default());
    let got = pricer
        .price_one(&PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, steps))
        .unwrap();
    let fast = lattice_fast::price_american_put(
        &BopmModel::new(p, steps).unwrap(),
        &EngineConfig::default(),
    );
    assert_eq!(got.to_bits(), fast.to_bits());
    // Keep the naive nest as the numerical oracle for the same contract.
    let naive = lattice_naive::price(
        &BopmModel::new(p, steps).unwrap(),
        OptionType::Put,
        ExerciseStyle::American,
        lattice_naive::ExecMode::Serial,
    );
    assert!((got - naive).abs() < 1e-9 * naive.max(1.0), "batch {got} vs naive {naive}");
}
