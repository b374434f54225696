//! Integration tests spanning the workspace crates: every implementation
//! family must agree on prices, and the models must agree with each other
//! and with closed forms in their overlap.

use american_option_pricing::core::lattice;
use american_option_pricing::prelude::*;
use lattice_naive::ExecMode;

fn paper() -> OptionParams {
    OptionParams::paper_defaults()
}

#[test]
fn bopm_implementations_agree_at_multiple_sizes() {
    let cfg = EngineConfig::default();
    for steps in [64usize, 257, 1024, 4096] {
        let m = BopmModel::new(paper(), steps).unwrap();
        let fast = lattice_fast::price_american_call(&m, &cfg);
        let (call, american) = (OptionType::Call, ExerciseStyle::American);
        let serial = lattice_naive::price(&m, call, american, ExecMode::Serial);
        let parallel = lattice_naive::price(&m, call, american, ExecMode::Parallel);
        for (name, v) in [("fast", fast), ("parallel", parallel)] {
            assert!(
                (v - serial).abs() < 1e-9 * serial,
                "steps={steps} {name}: {v} vs serial {serial}"
            );
        }
    }
}

#[test]
fn binomial_and_trinomial_agree_on_the_continuous_limit() {
    let cfg = EngineConfig::default();
    let steps = 4096;
    let bin = BopmModel::new(paper(), steps).unwrap();
    let tri = TopmModel::new(paper(), steps).unwrap();
    let v_bin = lattice_fast::price_american_call(&bin, &cfg);
    let v_tri = lattice_fast::price_american_call(&tri, &cfg);
    assert!((v_bin - v_tri).abs() < 2e-3 * v_bin, "binomial {v_bin} vs trinomial {v_tri}");
}

#[test]
fn american_put_consistent_across_bsm_fd_and_lattice() {
    let cfg = EngineConfig::default();
    let p = OptionParams { dividend_yield: 0.0, rate: 0.05, ..paper() };
    let steps = 4096;
    let fd = BsmModel::new(p, steps).unwrap();
    let v_fd = bsm_fast::price_american_put(&fd, &cfg);
    let lat = BopmModel::new(p, steps).unwrap();
    let v_lat = lattice_fast::price_american_put(&lat, &cfg);
    assert!((v_fd - v_lat).abs() < 5e-3 * v_lat, "fd {v_fd} vs lattice {v_lat}");
}

#[test]
fn european_limits_match_black_scholes_within_discretisation_error() {
    let bs_call = analytic::black_scholes_price(&paper(), OptionType::Call).unwrap();
    let m = BopmModel::new(paper(), 32_768).unwrap();
    let v = lattice::european::price_european_fft(&m, OptionType::Call);
    assert!((v - bs_call).abs() < 1e-3, "lattice {v} vs closed form {bs_call}");
}

#[test]
fn perpetual_put_bounds_long_dated_american_put() {
    // As expiry grows, the American put value approaches (from below) the
    // perpetual closed form of McKean.
    let p = OptionParams { dividend_yield: 0.0, rate: 0.05, expiry: 25.0, ..paper() };
    let perpetual = analytic::perpetual_put(p.spot, p.strike, p.rate, p.volatility).unwrap();
    let m = BsmModel::new(p, 8192).unwrap();
    let long_dated = bsm_fast::price_american_put(&m, &EngineConfig::default());
    assert!(long_dated <= perpetual * 1.005, "{long_dated} vs perpetual {perpetual}");
    assert!(long_dated > perpetual * 0.9, "{long_dated} vs perpetual {perpetual}");
}

#[test]
fn price_is_monotone_in_contract_parameters() {
    let cfg = EngineConfig::default();
    let steps = 1024;
    let price = |p: OptionParams| {
        lattice_fast::price_american_call(&BopmModel::new(p, steps).unwrap(), &cfg)
    };
    let base = paper();
    // Call value rises with spot and vol, falls with strike.
    assert!(price(OptionParams { spot: 140.0, ..base }) > price(base));
    assert!(price(OptionParams { volatility: 0.4, ..base }) > price(base));
    assert!(price(OptionParams { strike: 150.0, ..base }) < price(base));
    // American with more time is worth at least as much.
    assert!(price(OptionParams { expiry: 2.0, ..base }) >= price(base) - 1e-12);
}

#[test]
fn engine_base_cutoff_is_a_pure_performance_knob() {
    let m = BopmModel::new(paper(), 2000).unwrap();
    let reference = lattice_fast::price_american_call(&m, &EngineConfig::default());
    for cutoff in [1u64, 3, 16, 64, 256] {
        let cfg = EngineConfig { base_cutoff: cutoff, ..EngineConfig::default() };
        let v = lattice_fast::price_american_call(&m, &cfg);
        assert!((v - reference).abs() < 1e-9 * reference, "cutoff={cutoff}");
    }
}

#[test]
fn greeks_and_implied_vol_roundtrip_through_the_fast_pricer() {
    let cfg = EngineConfig::default();
    let p = paper();
    let g = greeks::american_call_bopm(&p, 1024, &cfg).unwrap();
    assert!(g.delta > 0.0 && g.delta < 1.0 && g.vega > 0.0);
    let m = BopmModel::new(p, 1024).unwrap();
    let quote = lattice_fast::price_american_call(&m, &cfg);
    let vol = implied_vol::american_call_bopm(&p, 1024, quote, &cfg).unwrap();
    assert!((vol - p.volatility).abs() < 1e-6, "recovered vol {vol}");
}

/// The five fast American routes.
const FAST_ROUTES: [(ModelKind, OptionType); 5] = [
    (ModelKind::Bopm, OptionType::Call),
    (ModelKind::Bopm, OptionType::Put),
    (ModelKind::Topm, OptionType::Call),
    (ModelKind::Topm, OptionType::Put),
    (ModelKind::Bsm, OptionType::Put),
];

/// Prices one contract through a fast route and through its Θ(T²) nest run
/// in `mode` (BSM contracts must be dividend-free).
fn fast_and_nest(
    kind: ModelKind,
    ty: OptionType,
    p: OptionParams,
    steps: usize,
    mode: ExecMode,
) -> (f64, f64) {
    fn on_lattice<const W: usize>(m: Lattice<W>, ty: OptionType, mode: ExecMode) -> (f64, f64) {
        let cfg = EngineConfig::default();
        let fast = match ty {
            OptionType::Call => lattice_fast::price_american_call(&m, &cfg),
            OptionType::Put => lattice_fast::price_american_put(&m, &cfg),
        };
        (fast, lattice_naive::price(&m, ty, ExerciseStyle::American, mode))
    }
    match kind {
        ModelKind::Bopm => on_lattice(BopmModel::new(p, steps).unwrap(), ty, mode),
        ModelKind::Topm => on_lattice(TopmModel::new(p, steps).unwrap(), ty, mode),
        ModelKind::Bsm => {
            let m = BsmModel::new(p, steps).unwrap();
            let fast = bsm_fast::price_american_put(&m, &EngineConfig::default());
            (fast, bsm_naive::price_american_put(&m, mode))
        }
    }
}

/// The early-exercise frontier of one contract through its fast route's
/// extractor, 16 samples asked for.
fn frontier(
    kind: ModelKind,
    ty: OptionType,
    p: OptionParams,
    steps: usize,
) -> Vec<exercise_boundary::BoundaryPoint> {
    fn on_lattice<const W: usize>(
        m: Lattice<W>,
        ty: OptionType,
    ) -> Vec<exercise_boundary::BoundaryPoint> {
        let cfg = EngineConfig::default();
        match ty {
            OptionType::Call => exercise_boundary::lattice_call_boundary(&m, &cfg, 16),
            OptionType::Put => exercise_boundary::lattice_put_boundary(&m, &cfg, 16),
        }
    }
    match (kind, ty) {
        (ModelKind::Bopm, _) => on_lattice(BopmModel::new(p, steps).unwrap(), ty),
        (ModelKind::Topm, _) => on_lattice(TopmModel::new(p, steps).unwrap(), ty),
        (ModelKind::Bsm, OptionType::Put) => exercise_boundary::bsm_put_boundary(
            &BsmModel::new(p, steps).unwrap(),
            &EngineConfig::default(),
            16,
        ),
        (ModelKind::Bsm, OptionType::Call) => unreachable!("not a fast route"),
    }
}

#[test]
fn every_fast_route_prices_the_paper_contract_like_its_parallel_nest() {
    // The pairs the paper's §5 compares: the paper contract at T = 256
    // (dividend-free on the BSM grid), each fast route against its Θ(T²)
    // nest run in parallel.
    for (kind, ty) in FAST_ROUTES {
        let p = match kind {
            ModelKind::Bsm => OptionParams { dividend_yield: 0.0, ..paper() },
            _ => paper(),
        };
        let (fast, nest) = fast_and_nest(kind, ty, p, 256, ExecMode::Parallel);
        assert!((fast - nest).abs() < 1e-9 * nest.max(1.0), "{kind:?} {ty:?}: {fast} vs {nest}");
    }
}

#[test]
fn deep_otm_calls_price_to_exactly_zero_never_below() {
    // Every leaf is out of the money at T = 400, so both nests return
    // exactly 0.  A premium-space call engine recovered the price as
    // (K + rounding) − K: −9.09e-12 on TOPM — a negative American price —
    // and +1.15e-11 on BOPM.  The mirrored put's payoff row is all zeros.
    let p = OptionParams { spot: 1.0, strike: 1000.0, ..paper() };
    for kind in [ModelKind::Bopm, ModelKind::Topm] {
        let (fast, nest) = fast_and_nest(kind, OptionType::Call, p, 400, ExecMode::Serial);
        assert_eq!(nest, 0.0, "{kind:?}");
        assert!(fast >= 0.0, "{kind:?}: negative American price {fast}");
        assert_eq!(fast, nest, "{kind:?}");
    }
}

#[test]
fn tiny_trees_and_extreme_moneyness_are_bounded_on_every_route() {
    // The corner the route adapters introduce: a mirrored or sheared grid
    // only a few cells wide, with the boundary at or beyond its edge.
    for (kind, ty) in FAST_ROUTES {
        for steps in [1usize, 2, 3, 8, 9] {
            for moneyness in [1.0, 1e3, 1e-3] {
                let mut p = OptionParams { spot: 130.0 * moneyness, strike: 130.0, ..paper() };
                if kind == ModelKind::Bsm {
                    p.dividend_yield = 0.0;
                }
                let ctx = format!("{kind:?} {ty:?} T={steps} S/K={moneyness}");
                let (fast, nest) = fast_and_nest(kind, ty, p, steps, ExecMode::Serial);
                let intrinsic = match ty {
                    OptionType::Call => p.spot - p.strike,
                    OptionType::Put => p.strike - p.spot,
                }
                .max(0.0);
                assert!(fast.is_finite() && fast >= 0.0, "{ctx}: price {fast}");
                assert!(fast >= intrinsic * (1.0 - 1e-12), "{ctx}: {fast} below {intrinsic}");
                assert!((fast - nest).abs() <= 1e-9 * nest.max(1.0), "{ctx}: {fast} vs {nest}");

                // Asking for more frontier rows than there are time steps
                // walks the tree one step at a time, expiry to valuation.
                let frontier = frontier(kind, ty, p, steps);
                assert!(!frontier.is_empty() && frontier.len() <= steps + 1, "{ctx}");
                assert_eq!(frontier[0].time_step, steps, "{ctx}");
                for w in frontier.windows(2) {
                    assert_eq!(w[1].time_step + 1, w[0].time_step, "{ctx}");
                }
                for price in frontier.iter().filter_map(|pt| pt.critical_price) {
                    assert!(price.is_finite() && price > 0.0, "{ctx}: critical price {price}");
                }
            }
        }
    }
}
