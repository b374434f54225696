//! The kernel phase timers and the linear-advance cell counter advance while
//! pricing — compiled only under the `obs` feature, which is also the only
//! build in which the engine scopes exist at all.
#![cfg(feature = "obs")]

use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest};
use amopt_core::bopm::BopmModel;
use amopt_core::lattice::fast;
use amopt_core::topm::TopmModel;
use amopt_core::{EngineConfig, OptionParams, OptionType};
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
    let price = fast::price_american_call(&model);
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
    let params = OptionParams::paper_defaults();
    let bopm_put = |steps: usize| fast::price_american_put(&BopmModel::new(params, steps).unwrap());
    let topm_call =
        |steps: usize| fast::price_american_call(&TopmModel::new(params, steps).unwrap());
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

/// A batch group owns one set of tables for all its members: one expiry's
/// four puts priced as one batch build fewer tables than the same four
/// priced one by one, each with a set of its own — and some.
#[test]
fn one_expirys_puts_share_their_tables_in_a_batch() {
    let _turn = counters();
    let puts: Vec<PricingRequest> = [120.0, 125.0, 130.0, 135.0]
        .into_iter()
        .map(|strike| OptionParams { strike, ..OptionParams::paper_defaults() })
        .map(|params| PricingRequest::american(ModelKind::Bopm, OptionType::Put, params, 252))
        .collect();
    let tables = |price: &(dyn Fn() + Sync)| {
        kernel::reset();
        amopt_parallel::run_with_threads(1, price);
        kernel::power_tables()
    };
    let alone = tables(&|| {
        for put in &puts {
            let model = BopmModel::new(put.params, put.steps).unwrap();
            assert!(fast::price_american_put(&model) > 0.0);
        }
    });
    let together = tables(&|| {
        let prices = BatchPricer::with_memo_capacity(EngineConfig::default(), 0).price_batch(&puts);
        assert!(prices.iter().all(|price| *price.as_ref().unwrap() > 0.0));
    });
    println!("four puts at T = 252: {alone} tables one by one, {together} as one batch");
    assert!(0 < together && together < alone, "{together} tables as a batch, {alone} alone");
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
/// 3.46 → 3.48 with it), measured over T = 2¹², 2¹⁴, 2¹⁶ with a base case
/// of height 8.  The window sits 2⁹ base cases above the bottom of the
/// recursion, below which the levels are not yet all alike: at a base case
/// of height 32 it is T = 2¹⁴, 2¹⁶, 2¹⁸ (over 2¹², 2¹⁴, 2¹⁶ a binomial level
/// costs 7 % more at the upper pair).
#[test]
fn linear_advance_cells_per_step_grow_by_a_constant_per_level() {
    let _turn = counters();
    let params = OptionParams::paper_defaults();
    let bopm_put = |steps: usize| fast::price_american_put(&BopmModel::new(params, steps).unwrap());
    let topm_call =
        |steps: usize| fast::price_american_call(&TopmModel::new(params, steps).unwrap());
    let routes: [(&str, &dyn Fn(usize) -> f64); 2] =
        [("bopm_put", &bopm_put), ("topm_call", &topm_call)];
    for (route, price) in routes {
        let per_step: Vec<f64> = [14u32, 16, 18]
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
            "{route}: a level costs {lower:.3} cells per step between T = 2^14 and 2^16 but \
             {upper:.3} between 2^16 and 2^18 (cells per step {per_step:.3?})"
        );
    }
}

/// The work of a chain-book pricing as exact counts, on one thread: the
/// base cases it steps, the correlations it runs (one `fft_pass` each), the
/// cells those read and the multiplier tables it builds (one per distinct
/// kernel, transform size and height; a set that built one per transformed
/// correlation would read about one per pass).  The engine's schedule is a
/// function of the sizes alone, so these move only with it — `BASE_CUTOFF`,
/// the hop rule, where a row goes all-red — and a change of schedule must
/// re-pin them, stating the old counts; how a table's multipliers are
/// evaluated moves their rounding, not these.  Both contracts exercise
/// early (R = 5 %, Y = 2 %).  With a base case of height 8 the same
/// pricings read, as (base cases, passes, cells) at T = 63 / 252 / 504:
/// BOPM put (7, 9, 183) / (30, 42, 1 478) / (61, 90, 3 557); TOPM call
/// (5, 9, 451) / (25, 40, 3 078) / (54, 81, 7 551).  The table counts were
/// pinned later, when the power became square-and-multiply, and read the
/// same on the commit before.
#[test]
fn book_sized_pricings_do_pinned_work() {
    let _turn = counters();
    let params =
        OptionParams { rate: 0.05, dividend_yield: 0.02, ..OptionParams::paper_defaults() };
    let bopm_put = |steps: usize| fast::price_american_put(&BopmModel::new(params, steps).unwrap());
    let topm_call =
        |steps: usize| fast::price_american_call(&TopmModel::new(params, steps).unwrap());
    // (T, base cases, fft passes, linear cells, tables) per route.
    type Pins = [(usize, u64, u64, u64, u64); 3];
    let routes: [(&str, &(dyn Fn(usize) -> f64 + Sync), Pins); 2] = [
        ("bopm_put", &bopm_put, [(63, 2, 1, 32, 0), (252, 8, 8, 649, 3), (504, 16, 19, 1813, 4)]),
        (
            "topm_call",
            &topm_call,
            [(63, 2, 1, 89, 1), (252, 7, 9, 1552, 5), (504, 14, 19, 4458, 6)],
        ),
    ];
    for (route, price, pins) in routes {
        let got = pins.map(|(steps, ..)| {
            kernel::reset();
            assert!(amopt_parallel::run_with_threads(1, || price(steps)) > 0.0);
            let snap = kernel::snapshot();
            let base_cases = snap[KernelPhase::BaseCase as usize].calls;
            let passes = snap[KernelPhase::FftPass as usize].calls;
            (steps, base_cases, passes, kernel::linear_cells(), kernel::power_tables())
        });
        println!("{route} (T, base cases, passes, cells, tables): {got:?}");
        assert_eq!(got, pins, "{route}: (T, base cases, fft passes, linear cells, tables)");
    }
}
