//! Ablation benches for the two engine knobs ARCHITECTURE.md's tuning table
//! keeps for this purpose: base-case cutoff (the paper found 8 optimal,
//! §5.1) and the linear-advance backend (FFT spectrum powering vs
//! materialised taps).

use amopt_core::bopm::{fast, BopmModel};
use amopt_core::{EngineConfig, OptionParams};
use amopt_stencil::Backend;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let t = 1usize << 13;
    let model = BopmModel::new(OptionParams::paper_defaults(), t).unwrap();
    for cutoff in [2u64, 8, 32, 128] {
        g.bench_with_input(BenchmarkId::new("base_cutoff", cutoff), &cutoff, |b, &cut| {
            let cfg = EngineConfig { base_cutoff: cut, ..EngineConfig::default() };
            b.iter(|| fast::price_american_call(&model, &cfg))
        });
    }
    for (name, backend) in [("fft", Backend::Fft), ("direct_taps", Backend::DirectTaps)] {
        g.bench_with_input(BenchmarkId::new("backend", name), &backend, |b, &bk| {
            let cfg = EngineConfig { backend: bk, ..EngineConfig::default() };
            b.iter(|| fast::price_american_call(&model, &cfg))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
