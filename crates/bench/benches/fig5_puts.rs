//! Fast-put vs naive-put scaling — the put-side companion to Figure 5:
//! the left-cone FFT trapezoid engine against the `Θ(T²)` loop nest, for
//! both lattice families.  Criterion sizes are kept moderate so
//! `cargo bench` terminates quickly; `paper-figures fig5` sweeps the same
//! put columns up to `--max-t-naive` (default `2¹⁴`).

use amopt_core::bopm::{self, BopmModel};
use amopt_core::topm::{self, TopmModel};
use amopt_core::{EngineConfig, ExerciseStyle, OptionParams, OptionType};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let params = OptionParams::paper_defaults();
    let cfg = EngineConfig::default();
    let mut g = c.benchmark_group("fig5_puts");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for t in [1usize << 10, 1 << 12, 1 << 13] {
        g.bench_with_input(BenchmarkId::new("fft-bopm-put", t), &t, |b, &t| {
            b.iter(|| {
                let m = BopmModel::new(params, t).expect("model");
                bopm::fast::price_american_put(&m, &cfg)
            })
        });
        g.bench_with_input(BenchmarkId::new("ql-bopm-put", t), &t, |b, &t| {
            b.iter(|| {
                let m = BopmModel::new(params, t).expect("model");
                bopm::naive::price(
                    &m,
                    OptionType::Put,
                    ExerciseStyle::American,
                    bopm::naive::ExecMode::Parallel,
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("fft-topm-put", t), &t, |b, &t| {
            b.iter(|| {
                let m = TopmModel::new(params, t).expect("model");
                topm::fast::price_american_put(&m, &cfg)
            })
        });
        g.bench_with_input(BenchmarkId::new("vanilla-topm-put", t), &t, |b, &t| {
            b.iter(|| {
                let m = TopmModel::new(params, t).expect("model");
                topm::naive::price(
                    &m,
                    OptionType::Put,
                    ExerciseStyle::American,
                    topm::naive::ExecMode::Parallel,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
