//! Property tests for the derived-quantity batch layers: `greeks_by_fd` is
//! exactly the batch-of-one greeks, its facade matches hand-rolled serial
//! differences, and the lockstep surface driver agrees with the serial
//! per-quote inversion.

use american_option_pricing::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = OptionParams> {
    (
        50.0..300.0f64, // spot
        50.0..300.0f64, // strike
        0.0..0.08f64,   // rate
        0.1..0.6f64,    // volatility
        0.0..0.08f64,   // dividend yield
        0.25..2.0f64,   // expiry
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

fn arb_request() -> impl Strategy<Value = PricingRequest> {
    (arb_params(), 16usize..160, 0usize..3).prop_map(|(p, steps, kind)| match kind {
        0 => PricingRequest::american(ModelKind::Bopm, OptionType::Call, p, steps),
        1 => PricingRequest::european(ModelKind::Bopm, OptionType::Put, p, steps),
        _ => PricingRequest::american(
            ModelKind::Bsm,
            OptionType::Put,
            OptionParams { dividend_yield: 0.0, ..p },
            steps,
        ),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `greeks_by_fd` is a batch-of-one facade: it must return exactly what
    /// `batch_greeks` returns for the same request inside a larger book.
    #[test]
    fn greeks_by_fd_equals_batch_greeks_on_a_batch_of_one(req in arb_request()) {
        let pricer = BatchPricer::new(EngineConfig::default());
        let one = greeks_by_fd(&pricer, &req);
        let batch = batch_greeks(&pricer, std::slice::from_ref(&req)).pop().unwrap();
        match (one, batch) {
            (Ok(a), Ok(b)) => {
                for (x, y) in [
                    (a.delta, b.delta),
                    (a.gamma, b.gamma),
                    (a.theta, b.theta),
                    (a.vega, b.vega),
                    (a.rho, b.rho),
                ] {
                    prop_assert!(x.to_bits() == y.to_bits(), "{a:?} vs {b:?}");
                }
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "{req:?}: {other:?}"),
        }
    }

    /// The serial per-contract entry point must agree bitwise with its own
    /// hand-rolled finite differences over the direct fast pricer — the
    /// pre-batch implementation, kept here as the oracle.
    #[test]
    fn facade_greeks_match_hand_rolled_serial_differences(
        params in arb_params(),
        steps in 32usize..200,
    ) {
        let request = PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, steps);
        let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
        let got = match greeks::greeks_by_fd(&pricer, &request) {
            Ok(g) => g,
            // Unstable discretisations at a bumped parameter are legal; the
            // property only constrains successful results.
            Err(_) => return Ok(()),
        };
        let reprice = |p: OptionParams| {
            lattice_fast::price_american_call(&BopmModel::new(p, steps).unwrap())
        };
        let hs = params.spot * 1e-2;
        let up = reprice(OptionParams { spot: params.spot + hs, ..params });
        let mid = reprice(params);
        let dn = reprice(OptionParams { spot: params.spot - hs, ..params });
        let delta = (up - dn) / (2.0 * hs);
        let gamma = (up - 2.0 * mid + dn) / (hs * hs);
        prop_assert!(got.delta.to_bits() == delta.to_bits(), "{} vs {delta}", got.delta);
        prop_assert!(got.gamma.to_bits() == gamma.to_bits(), "{} vs {gamma}", got.gamma);
        let hv = params.volatility.max(0.05) * 1e-4;
        let v_up = reprice(OptionParams { volatility: params.volatility + hv, ..params });
        let v_dn = reprice(OptionParams { volatility: params.volatility - hv, ..params });
        let vega = (v_up - v_dn) / (2.0 * hv);
        prop_assert!(got.vega.to_bits() == vega.to_bits(), "{} vs {vega}", got.vega);
    }

    /// Lockstep surface inversion agrees with the serial bisection on every
    /// attainable quote.  Agreement is checked in *price* space: both paths
    /// accept a volatility only when its price residual is below the shared
    /// 1e-10 tolerance, and for low-vega quotes many vols satisfy that — the
    /// two drivers may legitimately return answers whose vol difference is
    /// ~tolerance/vega.  What is forbidden is either path returning a vol
    /// that does not reproduce the quote.
    #[test]
    fn surface_agrees_with_serial_inversion(
        params in arb_params(),
        true_vol in 0.12..0.5f64,
        steps in 48usize..160,
    ) {
        let cfg = EngineConfig::default();
        let quoted = OptionParams { volatility: true_vol, ..params };
        let market = match BopmModel::new(quoted, steps) {
            Ok(m) => lattice_fast::price_american_call(&m),
            Err(_) => return Ok(()),
        };
        let serial = implied_vol::american_call_bopm(&params, steps, market, &cfg);
        let pricer = BatchPricer::new(cfg);
        let quote = [VolQuote::new(params, steps, market)];
        let batch = implied_vol_surface(&pricer, &quote).pop().unwrap();
        // An unchanged surface re-quoted through the now-warm pricer prices
        // nothing fresh: the deterministic driver repeats its probes
        // bitwise, so every successful one is a memo hit and no entry is
        // added (probes that error are never cached and are re-discovered).
        let entries = pricer.memo_stats().entries;
        let requote = implied_vol_surface(&pricer, &quote).pop().unwrap();
        prop_assert_eq!(pricer.memo_stats().entries, entries);
        let bits = |r: &Result<f64, PricingError>| r.as_ref().ok().map(|v| v.to_bits());
        prop_assert_eq!(bits(&requote), bits(&batch));
        match (serial, batch) {
            (Ok(s), Ok(b)) => {
                let reprice = |vol: f64| {
                    let p = OptionParams { volatility: vol, ..params };
                    lattice_fast::price_american_call(&BopmModel::new(p, steps).unwrap())
                };
                for (name, vol) in [("serial", s), ("surface", b)] {
                    let residual = (reprice(vol) - market).abs();
                    prop_assert!(
                        residual < 1e-10,
                        "{name} vol {vol} reprices with residual {residual:e}"
                    );
                }
                // Both sit on the same monotone branch: loose vol sanity.
                prop_assert!((s - b).abs() < 1e-2, "serial {s} vs surface {b}");
            }
            // Zero-vega/flat quotes may be rejected by both paths; what is
            // forbidden is exactly one path inventing an answer.
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "{other:?}"),
        }
    }

    /// Put-side surface coverage cross-checked through the exact discrete
    /// put–call symmetry of the CRR lattice: `P(S, K, R, Y) = C(K, S, Y, R)`.
    /// A put quote manufactured from a call price of the reflected contract
    /// must invert through the put surface to the same volatility the call
    /// surface recovers for the reflected quote.
    #[test]
    fn put_surface_agrees_with_the_reflected_call_surface(
        params in arb_params(),
        true_vol in 0.12..0.5f64,
        steps in 48usize..160,
    ) {
        let reflected = params.mirrored();
        let quoted = OptionParams { volatility: true_vol, ..params };
        let market_put = match BopmModel::new(quoted, steps) {
            Ok(m) => lattice_fast::price_american_put(&m),
            Err(_) => return Ok(()),
        };
        let market_call = {
            let m = BopmModel::new(OptionParams { volatility: true_vol, ..reflected }, steps)
                .unwrap();
            lattice_fast::price_american_call(&m)
        };
        // The symmetry is exact on the lattice, so the two quotes are the
        // same number up to float rounding of the two engine paths.
        prop_assert!(
            (market_put - market_call).abs() <= 1e-9 * market_put.abs().max(1.0),
            "put {market_put} vs reflected call {market_call}"
        );
        let pricer = BatchPricer::new(EngineConfig::default());
        let quotes = [
            VolQuote::put(params, steps, market_put),
            VolQuote::new(reflected, steps, market_call),
        ];
        let out = implied_vol_surface(&pricer, &quotes);
        match (&out[0], &out[1]) {
            (Ok(p_vol), Ok(c_vol)) => {
                // The hard contract: the recovered vol must reproduce the
                // quote to the shared 1e-10 tolerance.
                let reprice = |vol: f64| {
                    let p = OptionParams { volatility: vol, ..params };
                    lattice_fast::price_american_put(&BopmModel::new(p, steps).unwrap())
                };
                let residual = (reprice(*p_vol) - market_put).abs();
                prop_assert!(residual < 1e-10, "put vol {p_vol} residual {residual:e}");
                // Vol proximity is only meaningful when the quote responds
                // to volatility: deep-ITM immediate-exercise quotes are flat
                // (price = intrinsic over a wide vol band) and any vol in the
                // band is a legitimate answer on both sides.
                let h = 1e-3;
                let vega = (reprice(true_vol + h) - reprice(true_vol - h)) / (2.0 * h);
                if vega > 1e-3 {
                    prop_assert!((p_vol - c_vol).abs() < 1e-2, "put {p_vol} vs call {c_vol}");
                    prop_assert!(
                        (p_vol - true_vol).abs() < 1e-2,
                        "put {p_vol} vs true {true_vol}"
                    );
                }
            }
            // Flat-vega quotes may be rejected; the symmetry demands the
            // rejection happen on both sides together.
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "{other:?}"),
        }
    }
}
