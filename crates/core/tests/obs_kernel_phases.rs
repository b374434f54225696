//! The kernel phase timers and the linear-advance cell counter advance while
//! pricing — compiled only under the `obs` feature, which is also the only
//! build in which the engine scopes exist at all.
#![cfg(feature = "obs")]

use amopt_core::bopm::{self, BopmModel};
use amopt_core::topm::{self, TopmModel};
use amopt_core::{EngineConfig, OptionParams};
use amopt_obs::kernel::{self, KernelPhase, KERNEL_PHASES};
use std::sync::{Mutex, MutexGuard};

/// The counters are process-wide: the tests of this file take turns.
fn counters() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn pricing_drives_all_three_phase_timers() {
    let _turn = counters();
    kernel::reset();
    let model = BopmModel::new(OptionParams::paper_defaults(), 4096).unwrap();
    let cfg = EngineConfig::default();
    let price = bopm::fast::price_american_call(&model, &cfg);
    assert!(price.is_finite() && price > 0.0);

    let snap = kernel::snapshot();
    for phase in KERNEL_PHASES {
        let s = snap[phase as usize];
        assert!(s.calls > 0, "phase {} never entered during a 4096-step pricing", phase.name());
    }
    // The FFT bulk dominates a deep pricing; sanity-check the timer actually
    // accumulated wall time rather than just call counts.
    assert!(snap[KernelPhase::FftPass as usize].nanos > 0);

    let mut text = String::new();
    kernel::render_into(&mut text);
    assert!(text.contains("amopt_kernel_fft_pass_calls_total"), "{text}");
    assert!(text.contains("amopt_kernel_boundary_window_calls_total"), "{text}");
    assert!(text.contains("amopt_kernel_base_case_calls_total"), "{text}");
    assert!(text.contains("amopt_kernel_linear_cells_total"), "{text}");
    assert!(text.contains("amopt_kernel_power_tables_total"), "{text}");
    assert!(kernel::power_tables() > 0, "a 4096-step pricing built no multiplier table");
}

/// The multiplier memo, checked without a clock: every window of a
/// recursion level correlates at that level's size and height, so the
/// distinct `(n, h)` of a pricing — the tables it builds — grow by a bounded
/// number per doubling of `T`, `O(log T)` in all, while its correlations
/// (the `fft_pass` scopes, one per linear advance) roughly double.  A
/// multiplier evaluated per correlation, not per table, builds as many
/// tables as there are passes.
#[test]
fn multiplier_tables_grow_like_log_t_while_correlations_double() {
    let _turn = counters();
    let cfg = EngineConfig::default();
    let params = OptionParams::paper_defaults();
    let bopm_put = |steps: usize| {
        bopm::fast::price_american_put(&BopmModel::new(params, steps).unwrap(), &cfg)
    };
    let topm_call = |steps: usize| {
        topm::fast::price_american_call(&TopmModel::new(params, steps).unwrap(), &cfg)
    };
    let routes: [(&str, &dyn Fn(usize) -> f64); 2] =
        [("bopm_put", &bopm_put), ("topm_call", &topm_call)];
    for (route, price) in routes {
        let counts: Vec<(u64, u64)> = (10u32..=14)
            .map(|log_t| {
                kernel::reset();
                assert!(price(1 << log_t) > 0.0);
                let passes = kernel::snapshot()[KernelPhase::FftPass as usize].calls;
                let tables = kernel::power_tables();
                println!("{route} T = 2^{log_t}: {tables} tables, {passes} fft passes");
                (tables, passes)
            })
            .collect();
        for pair in counts.windows(2) {
            let ((tables, passes), (more_tables, more_passes)) = (pair[0], pair[1]);
            assert!(
                tables > 0 && more_tables <= tables + 6,
                "{route}: {tables} → {more_tables} tables in one doubling of T ({counts:?})"
            );
            let growth = more_passes as f64 / passes as f64;
            assert!(
                (1.6..=2.5).contains(&growth),
                "{route}: fft passes grew {growth:.2}× in one doubling of T ({counts:?})"
            );
        }
    }
}

/// The paper's bound as a number that does not depend on the machine.
/// `W(h) = 2·W(h/2) + O(h log h)` (Thms 2.8 / 4.4) says every level of the
/// window recursion feeds its correlations `Θ(T)` cells, so the input cells
/// of all linear advances, per step, are `a·log₂T + b`: each factor 4 in `T`
/// adds two levels and therefore the same `2a`.  (The difference cancels `b`
/// — where the recursion bottoms out in the stepped loop, which depends on
/// the kernel's span, and the one `O(T)` all-red advance near the apex — so
/// `a` needs no choice of offset; `cells / (T·log₂(T/64))` is printed beside
/// it because that is how the figure has been quoted.)  An engine that walks
/// a wide row in hops of h/2, h/4, … pays another `log h` per level, and the
/// increment grows with `T`: 2.91 → 3.46 binomial, 5.70 → 6.70 trinomial,
/// 18 % apart, at the commit before the whole-hop rule (1.80 → 1.85 and
/// 3.46 → 3.48 with it).
#[test]
fn linear_advance_cells_per_step_grow_by_a_constant_per_level() {
    let _turn = counters();
    let cfg = EngineConfig::default();
    let params = OptionParams::paper_defaults();
    let bopm_put = |steps: usize| {
        bopm::fast::price_american_put(&BopmModel::new(params, steps).unwrap(), &cfg)
    };
    let topm_call = |steps: usize| {
        topm::fast::price_american_call(&TopmModel::new(params, steps).unwrap(), &cfg)
    };
    let routes: [(&str, &dyn Fn(usize) -> f64); 2] =
        [("bopm_put", &bopm_put), ("topm_call", &topm_call)];
    for (route, price) in routes {
        let per_step: Vec<f64> = [12u32, 14, 16]
            .into_iter()
            .map(|log_t| {
                kernel::reset();
                assert!(price(1 << log_t) > 0.0);
                let cells_per_step = kernel::linear_cells() as f64 / f64::from(1u32 << log_t);
                println!(
                    "{route} T = 2^{log_t}: {cells_per_step:.3} cells per step, {:.3} per \
                     log2(T/64)",
                    cells_per_step / f64::from(log_t - 6)
                );
                cells_per_step
            })
            .collect();
        let (lower, upper) = ((per_step[1] - per_step[0]) / 2.0, (per_step[2] - per_step[1]) / 2.0);
        assert!(
            lower > 0.0 && (upper / lower - 1.0).abs() <= 0.03,
            "{route}: a level costs {lower:.3} cells per step between T = 2^12 and 2^14 but \
             {upper:.3} between 2^14 and 2^16 (cells per step {per_step:.3?})"
        );
    }
}
