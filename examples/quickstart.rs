//! Quickstart: price one American call three ways and confirm they agree.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use american_option_pricing::prelude::*;

fn main() {
    // The paper's §5 parameter set: S=127.62, K=130, R=0.163%, V=20%,
    // Y=1.63%, one year to expiry.
    let params = OptionParams::paper_defaults();
    let steps = 16_384;
    let model = BopmModel::new(params, steps).expect("valid lattice");

    let fast = lattice_fast::price_american_call(&model);
    let naive = lattice_naive::price(
        &model,
        OptionType::Call,
        ExerciseStyle::American,
        lattice_naive::ExecMode::Serial,
    );

    let european = analytic::black_scholes_price(&params, OptionType::Call).unwrap();

    println!("American call, T = {steps} lattice steps");
    println!("  fft trapezoid  : {fast:.6}");
    println!("  naive loop     : {naive:.6}");
    println!("  European (BS)  : {european:.6}   (closed form, lower bound)");
    println!("  agreement      : {:.2e} relative", (fast - naive).abs() / naive);
    assert!((fast - naive).abs() < 1e-8 * naive);
}
