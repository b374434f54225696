//! The corpus's pinned cases across models (`corpus`): every fast route
//! against its nest at the paper's sizes and in the tiny and extreme corners,
//! the models against each other and against closed forms in their overlap,
//! and the greeks and implied-vol drivers.

mod corpus;
use corpus::*;

#[test]
fn bopm_implementations_agree_at_multiple_sizes() {
    for steps in [64, 257, 1024, 4096] {
        fast_matches_nest(BOPM_CALL, &Case::paper(steps), 1e-9, 0.0).unwrap();
    }
}

#[test]
fn binomial_and_trinomial_agree_on_the_continuous_limit() {
    let p = OptionParams::paper_defaults();
    let (bin, tri) = (fast(BOPM_CALL, p, 4096).unwrap(), fast(TOPM_CALL, p, 4096).unwrap());
    assert!((bin - tri).abs() < 2e-3 * bin, "binomial {bin} vs trinomial {tri}");
}

#[test]
fn american_put_consistent_across_bsm_fd_and_lattice() {
    let p = OptionParams { dividend_yield: 0.0, rate: 0.05, ..OptionParams::paper_defaults() };
    let (fd, lat) = (fast(BSM_PUT, p, 4096).unwrap(), fast(BOPM_PUT, p, 4096).unwrap());
    assert!((fd - lat).abs() < 5e-3 * lat, "fd {fd} vs lattice {lat}");
}

#[test]
fn european_limits_match_black_scholes_within_discretisation_error() {
    let p = OptionParams::paper_defaults();
    let bs_call = analytic::black_scholes_price(&p, OptionType::Call).unwrap();
    let v =
        batch_one(&PricingRequest::european(ModelKind::Bopm, OptionType::Call, p, 32_768)).unwrap();
    assert!((v - bs_call).abs() < 1e-3, "lattice {v} vs closed form {bs_call}");
}

/// As expiry grows the American put approaches McKean's perpetual put from
/// below.
#[test]
fn perpetual_put_bounds_long_dated_american_put() {
    let p = OptionParams { dividend_yield: 0.0, rate: 0.05, expiry: 25.0, ..Case::paper(1).p };
    let perpetual = analytic::perpetual_put(p.spot, p.strike, p.rate, p.volatility).unwrap();
    let long_dated = fast(BSM_PUT, p, 8192).unwrap();
    assert!(long_dated <= perpetual * 1.005, "{long_dated} vs perpetual {perpetual}");
    assert!(long_dated > perpetual * 0.9, "{long_dated} vs perpetual {perpetual}");
}

/// Pinned on the paper's contract: a call rises with spot and σ, falls with
/// strike, and is worth at least as much with more time.  Then the
/// corpus's relation: monotone in σ and in expiry on every fast route.
#[test]
fn price_is_monotone_in_contract_parameters() {
    let base = OptionParams::paper_defaults();
    let price = |p: OptionParams| fast(BOPM_CALL, p, 1024).unwrap();
    assert!(price(OptionParams { spot: 140.0, ..base }) > price(base));
    assert!(price(OptionParams { volatility: 0.4, ..base }) > price(base));
    assert!(price(OptionParams { strike: 150.0, ..base }) < price(base));
    assert!(price(OptionParams { expiry: 2.0, ..base }) >= price(base) - 1e-12);
    for c in draws("price_is_monotone_in_contract_parameters", 16..300, 24) {
        for kind in FAST {
            monotone(kind, &c).unwrap();
        }
    }
}

#[test]
fn greeks_and_implied_vol_roundtrip_through_the_fast_pricer() {
    let (cfg, p) = (EngineConfig::default(), OptionParams::paper_defaults());
    let request = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p, 1024);
    let g = greeks_by_fd(&BatchPricer::with_memo_capacity(cfg, 0), &request).unwrap();
    assert!(g.delta > 0.0 && g.delta < 1.0 && g.vega > 0.0);
    let quote = fast(BOPM_CALL, p, 1024).unwrap();
    let vol = implied_vol::american_call_bopm(&p, 1024, quote, &cfg).unwrap();
    assert!((vol - p.volatility).abs() < 1e-6, "recovered vol {vol}");
}

/// The pairs the paper's §5 compares: each fast route against its nest on
/// the paper's contract at T = 256.
#[test]
fn every_fast_route_prices_the_paper_contract_like_its_nest() {
    for kind in FAST {
        fast_matches_nest(kind, &Case::paper(256), 1e-9, 0.0).unwrap();
    }
}

/// Every leaf is out of the money at T = 400, so both nests return exactly
/// 0.  A premium-space call engine once priced these −9.09e-12 on TOPM and
/// +1.15e-11 on BOPM.
#[test]
fn deep_otm_calls_price_to_exactly_zero_never_below() {
    let p = OptionParams { spot: 1.0, strike: 1000.0, ..OptionParams::paper_defaults() };
    for kind in [BOPM_CALL, TOPM_CALL] {
        let (fast, nest) = (fast(kind, p, 400).unwrap(), nest(kind, American, p, 400).unwrap());
        assert_eq!((fast, nest), (0.0, 0.0), "{kind:?}");
    }
}

/// The corner the route adapters introduce: a mirrored or sheared grid only
/// a few cells wide, the boundary at or beyond its edge, at every moneyness
/// corner.  Asking for more frontier rows than there are steps walks the
/// tree one step at a time, expiry to valuation.
#[test]
fn tiny_trees_and_extreme_moneyness_are_bounded_on_every_route() {
    for c in [1, 2, 3, 8, 9].iter().flat_map(|&steps| moneyness(&Case::paper(steps))) {
        for kind in FAST {
            let c = Case { p: c.params(kind), ..c };
            let (p, ctx) = (c.p, format!("{kind:?} {c:?}"));
            fast_matches_nest(kind, &c, 1e-9, 0.0).unwrap();
            let fast = fast(kind, p, c.steps).unwrap();
            let intrinsic = kind.1.payoff(p.spot, p.strike);
            assert!(fast.is_finite() && fast >= 0.0, "{ctx}: price {fast}");
            assert!(fast >= intrinsic * (1.0 - 1e-12), "{ctx}: {fast} below intrinsic");
            frontier_is_well_formed(kind, &c, 16).unwrap();
            if kind != BSM_PUT {
                frontier_is_the_nests(kind, &c).unwrap();
            }
        }
    }
}
