//! Shared measurement helpers for the benchmark harness that regenerates
//! the paper's tables and figures (see `src/bin/paper_figures.rs`).

#![forbid(unsafe_code)]

use amopt_core::bopm::{tiled, BopmModel};
use amopt_core::bsm::{self, BsmModel};
use amopt_core::lattice::{fast, naive};
use amopt_core::topm::TopmModel;
use amopt_core::{EngineConfig, ExerciseStyle, OptionParams, OptionType};
use std::time::Instant;

/// Implementations compared in Figure 5 / Table 5 (put-cone engines
/// included, so the Fig. 5-style sweeps cover both cones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// Our FFT trapezoid pricer.
    FftBopm,
    /// The left-cone FFT pricer on the American **put** (same contract,
    /// mirrored geometry).
    FftBopmPut,
    /// Naive parallel loop nest (Par-bin-ops' QuantLib-equivalent).
    QlBopm,
    /// Cache-aware tiled loops (Zubair-style).
    ZbBopm,
    /// FFT trinomial pricer.
    FftTopm,
    /// The left-cone FFT pricer on the trinomial American **put**.
    FftTopmPut,
    /// Parallel trinomial loop nest.
    VanillaTopm,
    /// FFT BSM pricer (an American put by construction).
    FftBsm,
    /// Parallel BSM loop nest.
    VanillaBsm,
}

impl Impl {
    /// Legend string matching the paper's Table 4 (`-put` suffixed for the
    /// left-cone engines, which the paper does not cover).
    pub fn legend(self) -> &'static str {
        match self {
            Impl::FftBopm => "fft-bopm",
            Impl::FftBopmPut => "fft-bopm-put",
            Impl::QlBopm => "ql-bopm",
            Impl::ZbBopm => "zb-bopm",
            Impl::FftTopm => "fft-topm",
            Impl::FftTopmPut => "fft-topm-put",
            Impl::VanillaTopm => "vanilla-topm",
            Impl::FftBsm => "fft-bsm",
            Impl::VanillaBsm => "vanilla-bsm",
        }
    }

    /// Whether the implementation costs `Θ(T²)` work (limits feasible `T`).
    pub fn is_quadratic(self) -> bool {
        matches!(self, Impl::QlBopm | Impl::ZbBopm | Impl::VanillaTopm | Impl::VanillaBsm)
    }
}

/// Prices one instance with `steps` time steps; returns the price.
pub fn run_pricer(which: Impl, steps: usize) -> f64 {
    let params = OptionParams::paper_defaults();
    let cfg = EngineConfig::default();
    match which {
        Impl::FftBopm => {
            let m = BopmModel::new(params, steps).expect("model");
            fast::price_american_call(&m, &cfg)
        }
        Impl::FftBopmPut => {
            let m = BopmModel::new(params, steps).expect("model");
            fast::price_american_put(&m, &cfg)
        }
        Impl::QlBopm => {
            let m = BopmModel::new(params, steps).expect("model");
            naive::price(&m, OptionType::Call, ExerciseStyle::American, naive::ExecMode::Parallel)
        }
        Impl::ZbBopm => {
            let m = BopmModel::new(params, steps).expect("model");
            tiled::price(
                &m,
                OptionType::Call,
                ExerciseStyle::American,
                tiled::TileConfig::default(),
            )
        }
        Impl::FftTopm => {
            let m = TopmModel::new(params, steps).expect("model");
            fast::price_american_call(&m, &cfg)
        }
        Impl::FftTopmPut => {
            let m = TopmModel::new(params, steps).expect("model");
            fast::price_american_put(&m, &cfg)
        }
        Impl::VanillaTopm => {
            let m = TopmModel::new(params, steps).expect("model");
            naive::price(&m, OptionType::Call, ExerciseStyle::American, naive::ExecMode::Parallel)
        }
        Impl::FftBsm => {
            let p = OptionParams { dividend_yield: 0.0, ..params };
            let m = BsmModel::new(p, steps).expect("model");
            bsm::fast::price_american_put(&m, &cfg)
        }
        Impl::VanillaBsm => {
            let p = OptionParams { dividend_yield: 0.0, ..params };
            let m = BsmModel::new(p, steps).expect("model");
            bsm::naive::price_american_put(&m, bsm::naive::ExecMode::Parallel)
        }
    }
}

/// Median-of-`reps` wall-clock time in seconds, plus the computed price.
pub fn time_pricer(which: Impl, steps: usize, reps: usize) -> (f64, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut price = 0.0;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        price = run_pricer(which, steps);
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], price)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amopt_core::lattice::Lattice;

    #[test]
    fn all_impls_price_the_same_contract() {
        // BOPM family must agree with each other; same for TOPM/BSM pairs.
        let t = 256;
        let a = run_pricer(Impl::FftBopm, t);
        let b = run_pricer(Impl::QlBopm, t);
        let c = run_pricer(Impl::ZbBopm, t);
        assert!((a - b).abs() < 1e-9 * b && (c - b).abs() < 1e-9 * b);
        let d = run_pricer(Impl::FftTopm, t);
        let e = run_pricer(Impl::VanillaTopm, t);
        assert!((d - e).abs() < 1e-9 * e);
        let f = run_pricer(Impl::FftBsm, t);
        let g = run_pricer(Impl::VanillaBsm, t);
        assert!((f - g).abs() < 1e-9 * g.max(1.0));
    }

    #[test]
    fn put_impls_match_their_naive_nests() {
        fn nest<const W: usize>(m: Lattice<W>) -> f64 {
            naive::price(&m, OptionType::Put, ExerciseStyle::American, naive::ExecMode::Serial)
        }
        let (t, params) = (256, OptionParams::paper_defaults());
        for (which, want) in [
            (Impl::FftBopmPut, nest(BopmModel::new(params, t).unwrap())),
            (Impl::FftTopmPut, nest(TopmModel::new(params, t).unwrap())),
        ] {
            let got = run_pricer(which, t);
            assert!((got - want).abs() < 1e-9 * want, "{which:?}: {got} vs {want}");
        }
    }

    #[test]
    fn timing_returns_positive_duration() {
        let (secs, price) = time_pricer(Impl::FftBopm, 128, 3);
        assert!(secs > 0.0 && price > 0.0);
    }
}
