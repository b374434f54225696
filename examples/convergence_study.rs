//! Convergence study: binomial and trinomial European prices vs the
//! Black–Scholes closed form as T grows — including the §3 claim (Langat et
//! al.) that the trinomial lattice needs roughly half the steps of the
//! binomial for matched accuracy.
//!
//! ```sh
//! cargo run --release --example convergence_study
//! ```

use american_option_pricing::prelude::*;

fn main() {
    let params = OptionParams::paper_defaults();
    let target = analytic::black_scholes_price(&params, OptionType::Call).unwrap();
    println!("Black–Scholes European call: {target:.8}\n");
    println!("     T    binomial error   trinomial error");
    for pow in 7..=14 {
        let t = 1usize << pow;
        let bin = BopmModel::new(params, t).unwrap();
        let tri = TopmModel::new(params, t).unwrap();
        let e_bin = (lattice_linear::price_european_fft(&bin, OptionType::Call) - target).abs();
        let e_tri = (lattice_linear::price_european_fft(&tri, OptionType::Call) - target).abs();
        println!("{t:7}   {e_bin:13.3e}   {e_tri:14.3e}");
    }
    println!("\nAmerican put: FD (BSM) vs binomial lattice cross-check");
    let p = OptionParams { dividend_yield: 0.0, ..params };
    let pricer = BatchPricer::new(EngineConfig::default());
    for pow in [10usize, 12, 14] {
        let t = 1usize << pow;
        let fd = PricingRequest::american(ModelKind::Bsm, OptionType::Put, p, t);
        let v_fd = pricer.price_one(&fd).unwrap();
        let lat = BopmModel::new(p, t).unwrap();
        let v_lat = lattice_naive::price(
            &lat,
            OptionType::Put,
            ExerciseStyle::American,
            lattice_naive::ExecMode::Serial,
        );
        println!(
            "  T={t:6}: FD {v_fd:.6} vs lattice {v_lat:.6} (diff {:.2e})",
            (v_fd - v_lat).abs()
        );
    }
}
