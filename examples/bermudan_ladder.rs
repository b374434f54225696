//! Bermudan exercise-rights ladder: how the put value interpolates between
//! European (one exercise date) and American (every date) as rights are
//! added — priced with the O(D·T log T) FFT Bermudan pricer (§6 future-work
//! item of the paper, implemented here).
//!
//! ```sh
//! cargo run --release --example bermudan_ladder
//! ```

use american_option_pricing::core::bermudan;
use american_option_pricing::prelude::*;

fn main() {
    // A visible early-exercise premium needs a real interest rate (the
    // paper's 0.163% makes American ~ European for puts).
    let params = OptionParams { rate: 0.06, ..OptionParams::paper_defaults() };
    let steps = 8192usize;
    let model = BopmModel::new(params, steps).unwrap();

    let european = bermudan::price_bermudan_put_fft(&model, &[steps]).unwrap();
    let american = bopm_naive::price(
        &model,
        OptionType::Put,
        ExerciseStyle::American,
        bopm_naive::ExecMode::Parallel,
    );
    println!("European put  : {european:.6}");
    println!("American put  : {american:.6}\n  dates  value");
    for n_dates in [1usize, 2, 4, 12, 52, 252, 1024] {
        let stride = (steps / n_dates).max(1);
        let dates: Vec<usize> = (1..=n_dates).map(|k| (k * stride).min(steps)).collect();
        let v = bermudan::price_bermudan_put_fft(&model, &dates).unwrap();
        println!("  {n_dates:5}  {v:.6}");
        assert!(v >= european - 1e-9 && v <= american + 1e-6);
    }
}
