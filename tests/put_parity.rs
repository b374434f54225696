//! Property tests for the fast American puts: naive-loop equivalence across
//! a randomized parameter grid, the discrete put–call symmetry (against the
//! Θ(T²) *call* nests — the fast calls are themselves mirrored puts, so the
//! nests are the independent side), boundary monotonicity, and batch-of-one
//! bitwise identity.

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
    fn bopm_fast_put_matches_naive_on_random_params(p in arb_params(), steps in 16usize..600) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let fast = bopm_fast::price_american_put(&m, &EngineConfig::default());
        let naive = bopm_naive::price(
            &m, OptionType::Put, ExerciseStyle::American, bopm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn topm_fast_put_matches_naive_on_random_params(p in arb_params(), steps in 16usize..400) {
        prop_assume!(TopmModel::new(p, steps).is_ok());
        let m = TopmModel::new(p, steps).unwrap();
        let fast = topm_fast::price_american_put(&m, &EngineConfig::default());
        let naive = topm_naive::price(
            &m, OptionType::Put, ExerciseStyle::American, topm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn bopm_put_call_symmetry_holds(p in arb_params(), steps in 16usize..500) {
        // McDonald–Schroder discrete symmetry, exact on CRR lattices
        // (u·d = 1): P(S, K, R, Y) = C(K, S, Y, R).  The put prices through
        // the fast engine, the mirrored call through the Θ(T²) call nest —
        // two code paths sharing nothing, agreeing through a nontrivial
        // identity.
        prop_assume!(BopmModel::new(p, steps).is_ok());
        // |R−Y| and V·√Δt are symmetric, so the mirror is stable too.
        let put_m = BopmModel::new(p, steps).unwrap();
        let call_m = BopmModel::new(p.mirrored(), steps).unwrap();
        let put = bopm_fast::price_american_put(&put_m, &EngineConfig::default());
        let call = bopm_naive::price(
            &call_m, OptionType::Call, ExerciseStyle::American, bopm_naive::ExecMode::Serial);
        prop_assert!(
            (put - call).abs() < 1e-8 * call.abs().max(1.0) + 1e-11 * p.strike.max(p.spot),
            "put {} vs mirrored call nest {}", put, call
        );
    }

    #[test]
    fn topm_put_call_symmetry_holds(p in arb_params(), steps in 16usize..400) {
        // The same identity on the trinomial lattice (u·d = 1 there too):
        // column j of the call row maps to column 2i − j of the put row.
        prop_assume!(TopmModel::new(p, steps).is_ok());
        prop_assume!(TopmModel::new(p.mirrored(), steps).is_ok());
        let put_m = TopmModel::new(p, steps).unwrap();
        let call_m = TopmModel::new(p.mirrored(), steps).unwrap();
        let put = topm_fast::price_american_put(&put_m, &EngineConfig::default());
        let call = topm_naive::price(
            &call_m, OptionType::Call, ExerciseStyle::American, topm_naive::ExecMode::Serial);
        prop_assert!(
            (put - call).abs() < 1e-8 * call.abs().max(1.0) + 1e-11 * p.strike.max(p.spot),
            "put {} vs mirrored call nest {}", put, call
        );
    }

    #[test]
    fn bopm_put_boundary_is_monotone(p in arb_params(), steps in 64usize..400) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        prop_assume!(p.rate > 1e-4); // zero-rate puts have no frontier
        let m = BopmModel::new(p, steps).unwrap();
        let pts = exercise_boundary::bopm_put_boundary(&m, &EngineConfig::default(), 12);
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
        let (req, want) = if family == 1 {
            prop_assume!(TopmModel::new(p, steps).is_ok());
            let m = TopmModel::new(p, steps).unwrap();
            (
                PricingRequest::american(ModelKind::Topm, OptionType::Put, p, steps),
                topm_fast::price_american_put(&m, &cfg),
            )
        } else {
            prop_assume!(BopmModel::new(p, steps).is_ok());
            let m = BopmModel::new(p, steps).unwrap();
            (
                PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, steps),
                bopm_fast::price_american_put(&m, &cfg),
            )
        };
        let pricer = BatchPricer::new(cfg);
        let got = pricer.price_one(&req).unwrap();
        prop_assert!(got.to_bits() == want.to_bits(), "batch {} vs direct {}", got, want);
    }
}

/// The engine-vs-nest symmetry at a size where the trapezoid recursion is
/// deep (non-property, one deterministic heavyweight case).
#[test]
fn put_call_symmetry_at_depth() {
    let p = OptionParams::paper_defaults();
    let put =
        bopm_fast::price_american_put(&BopmModel::new(p, 8192).unwrap(), &EngineConfig::default());
    let call = bopm_naive::price(
        &BopmModel::new(p.mirrored(), 8192).unwrap(),
        OptionType::Call,
        ExerciseStyle::American,
        bopm_naive::ExecMode::Serial,
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
    let fast =
        bopm_fast::price_american_put(&BopmModel::new(p, steps).unwrap(), &EngineConfig::default());
    assert_eq!(got.to_bits(), fast.to_bits());
    // Keep the naive nest as the numerical oracle for the same contract.
    let naive = bopm_naive::price(
        &BopmModel::new(p, steps).unwrap(),
        OptionType::Put,
        ExerciseStyle::American,
        bopm_naive::ExecMode::Serial,
    );
    assert!((got - naive).abs() < 1e-9 * naive.max(1.0), "batch {got} vs naive {naive}");
}
