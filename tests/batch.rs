//! Property tests for the batch pricing subsystem: a batch of one is
//! bitwise identical to the direct pricer call, duplicates are served from
//! the memo, one bad request never poisons the rest of the batch, and values
//! too small for the memo's grid do not share a key.

use american_option_pricing::core as amopt_core;
use american_option_pricing::core::batch::Style;
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

/// One request per supported route, spanning every model family and style.
fn arb_request() -> impl Strategy<Value = PricingRequest> {
    (arb_params(), 16usize..240, 0usize..9).prop_map(|(p, steps, kind)| match kind {
        0 => PricingRequest::american(ModelKind::Bopm, OptionType::Call, p, steps),
        1 => PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, steps),
        2 => PricingRequest::european(ModelKind::Bopm, OptionType::Put, p, steps),
        3 => PricingRequest::american(ModelKind::Topm, OptionType::Call, p, steps),
        4 => PricingRequest::european(ModelKind::Topm, OptionType::Call, p, steps),
        8 => PricingRequest::american(ModelKind::Topm, OptionType::Put, p, steps),
        5 => PricingRequest::american(
            ModelKind::Bsm,
            OptionType::Put,
            OptionParams { dividend_yield: 0.0, ..p },
            steps,
        ),
        // The European BSM put has no entry point but the batch; its bits
        // are pinned in `tests/bit_pins.rs`.
        6 => PricingRequest::european(ModelKind::Topm, OptionType::Put, p, steps),
        _ => PricingRequest::bermudan_put(p, steps, vec![steps / 2, steps]),
    })
}

/// Independent oracle: prices `req` straight through the public facade, the
/// way a pre-batch caller would.
fn direct_price(req: &PricingRequest) -> Result<f64, PricingError> {
    fn on_lattice<const W: usize>(m: Lattice<W>, req: &PricingRequest) -> f64 {
        match (req.option_type, &req.style) {
            (OptionType::Call, Style::American) => lattice_fast::price_american_call(&m),
            (OptionType::Put, Style::American) => lattice_fast::price_american_put(&m),
            (opt, Style::European) => lattice_linear::price_european_fft(&m, opt),
            other => panic!("strategy generated an unroutable lattice request: {other:?}"),
        }
    }
    let cfg = EngineConfig::default();
    match (req.model, req.option_type, &req.style) {
        (ModelKind::Bopm, OptionType::Put, Style::Bermudan(dates)) => {
            let m = BopmModel::new(req.params, req.steps)?;
            lattice_linear::price_bermudan_put_fft(&m, dates)
        }
        (ModelKind::Bopm, ..) => Ok(on_lattice(BopmModel::new(req.params, req.steps)?, req)),
        (ModelKind::Topm, ..) => Ok(on_lattice(TopmModel::new(req.params, req.steps)?, req)),
        (ModelKind::Bsm, OptionType::Put, Style::American) => Ok(
            amopt_core::bsm::fast::price_american_put(&BsmModel::new(req.params, req.steps)?, &cfg),
        ),
        other => panic!("strategy generated an unroutable request: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_of_one_is_bitwise_identical_to_the_direct_pricer(req in arb_request()) {
        let pricer = BatchPricer::new(EngineConfig::default());
        let got = pricer.price_one(&req);
        let want = direct_price(&req);
        match (got, want) {
            (Ok(g), Ok(w)) => prop_assert!(
                g.to_bits() == w.to_bits(),
                "{req:?}: batch {g} vs direct {w}"
            ),
            // Both paths must agree that the discretisation is unusable.
            (Err(_), Err(_)) => {}
            (got, want) => prop_assert!(false, "{req:?}: batch {got:?} vs direct {want:?}"),
        }
    }

    #[test]
    fn duplicate_requests_are_priced_once_and_hit_the_memo(
        req in arb_request(),
        copies in 2usize..12,
    ) {
        prop_assume!(direct_price(&req).is_ok());
        let pricer = BatchPricer::new(EngineConfig::default());
        let book = vec![req.clone(); copies];
        let first = pricer.price_batch(&book);
        let p0 = first[0].clone().unwrap();
        for r in &first {
            prop_assert_eq!(r.clone().unwrap().to_bits(), p0.to_bits());
        }
        // All copies collapsed to one unique pricing...
        let stats = pricer.memo_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.entries, 1);
        // ...and an unchanged re-quote is served from the memo.
        let second = pricer.price_batch(&book);
        prop_assert_eq!(second[0].clone().unwrap().to_bits(), p0.to_bits());
        prop_assert_eq!(pricer.memo_stats().hits, 1);
    }

    #[test]
    fn one_bad_request_never_poisons_the_batch(
        good in arb_request(),
        bad_spot in -50.0..0.0f64,
    ) {
        prop_assume!(direct_price(&good).is_ok());
        let pricer = BatchPricer::new(EngineConfig::default());
        let bad = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { spot: bad_spot, ..good.params },
            64,
        );
        let unsupported = PricingRequest::american(ModelKind::Bsm, OptionType::Call, good.params, 64);
        let book = vec![good.clone(), bad, good.clone(), unsupported, good.clone()];
        let out = pricer.price_batch(&book);
        prop_assert!(matches!(out[1], Err(PricingError::InvalidParams { .. })), "{:?}", out[1]);
        prop_assert!(matches!(out[3], Err(PricingError::Unsupported { .. })), "{:?}", out[3]);
        let want = direct_price(&good).unwrap();
        for idx in [0usize, 2, 4] {
            let got = out[idx].clone().unwrap();
            prop_assert!(got.to_bits() == want.to_bits(), "slot {idx}: {got} vs {want}");
        }
    }
}

#[test]
fn spots_below_the_memo_grid_are_answered_slot_for_slot() {
    // 1e-307 is a normal number (prices to K), 5e-324 a subnormal (a typed
    // error); both scale to grid cell 0, where one used to answer for both.
    let put = |spot| {
        let p = OptionParams { spot, ..OptionParams::paper_defaults() };
        PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, 64)
    };
    for book in [[put(1e-307), put(5e-324)], [put(5e-324), put(1e-307)]] {
        let alone: Vec<_> = book
            .iter()
            .map(|req| BatchPricer::new(EngineConfig::default()).price_one(req))
            .collect();
        assert!(alone.iter().any(|r| r.is_ok()) && alone.iter().any(|r| r.is_err()), "{alone:?}");
        assert_eq!(BatchPricer::new(EngineConfig::default()).price_batch(&book), alone);
    }
}
