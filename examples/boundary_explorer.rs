//! Early-exercise boundary explorer: extract and print the critical-price
//! frontier of a small contract set — BSM put, binomial call/put, and
//! trinomial call/put (the red–green divider of the paper, §2.2/§4.2).
//! Every frontier comes from one fast-engine pricing pass.
//!
//! ```sh
//! cargo run --release --example boundary_explorer
//! ```

use american_option_pricing::prelude::exercise_boundary::*;
use american_option_pricing::prelude::*;

fn main() {
    let cfg = EngineConfig::default();
    let base = OptionParams::paper_defaults();
    let zero_div = OptionParams { dividend_yield: 0.0, ..base };
    let (steps, samples) = (8192, 16);
    let bsm = BsmModel::new(zero_div, steps).expect("valid contract");
    let bopm = BopmModel::new(base, steps).expect("valid contract");
    let topm = TopmModel::new(base, steps).expect("valid contract");

    let frontiers = [
        (
            "American put, BSM grid (exercise when the asset falls below)",
            bsm_put_boundary(&bsm, &cfg, samples),
        ),
        (
            "American call, binomial lattice (exercise when the asset rises above)",
            bopm_call_boundary(&bopm, &cfg, samples),
        ),
        ("American put, binomial lattice", bopm_put_boundary(&bopm, &cfg, samples)),
        ("American call, trinomial lattice", topm_call_boundary(&topm, &cfg, samples)),
        ("American put, trinomial lattice", topm_put_boundary(&topm, &cfg, samples)),
    ];
    for (title, frontier) in frontiers {
        println!("{title} — K = {}:", base.strike);
        println!("  t [yr]   critical price");
        for p in frontier.iter().rev() {
            if let Some(x) = p.critical_price {
                println!("  {:6.3}   {:10.4}", p.time_years, x);
            }
        }
        println!();
    }
}
