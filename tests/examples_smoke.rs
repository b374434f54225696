//! Smoke test mirroring `examples/quickstart.rs` so the example's code path
//! is exercised by `cargo test` and cannot silently rot.  (The examples
//! themselves are compile-checked by `cargo check --examples` in CI; this
//! test runs the same calls at a debug-friendly lattice size.)

use american_option_pricing::prelude::*;

/// The exact sequence of calls `examples/quickstart.rs` makes, at a smaller
/// `steps` so it stays fast without optimisation.
#[test]
fn quickstart_code_path_agrees_across_pricers() {
    let params = OptionParams::paper_defaults();
    let steps = 2048;
    let model = BopmModel::new(params, steps).expect("valid lattice");

    let fast = lattice_fast::price_american_call(&model);
    let naive = lattice_naive::price(
        &model,
        OptionType::Call,
        ExerciseStyle::American,
        lattice_naive::ExecMode::Serial,
    );
    let european = analytic::black_scholes_price(&params, OptionType::Call).unwrap();

    assert!((fast - naive).abs() < 1e-8 * naive, "fft {fast} vs naive {naive}");
    // The American call dominates its European counterpart, and the lattice
    // price sits near the closed form (discretisation + early exercise).
    assert!(fast >= european - 1e-3, "american {fast} < european {european}");
    assert!((fast - european).abs() < 0.5, "lattice {fast} far from BS {european}");
}

/// The facade doctest's quick-start claim, kept honest at the exact size it
/// advertises: `paper_defaults()` at 1024 steps prices to 8.32 ± 0.05.
#[test]
fn quickstart_claimed_price_is_accurate() {
    let params = OptionParams::paper_defaults();
    let model = BopmModel::new(params, 1024).unwrap();
    let price = lattice_fast::price_american_call(&model);
    assert!(
        (price - 8.32).abs() < 0.05,
        "documented quick-start price drifted: got {price}, doc claims 8.32 ± 0.05"
    );
}
