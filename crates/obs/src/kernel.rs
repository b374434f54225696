//! Static kernel phase timers for the trapezoid/cone engines.
//!
//! The engines spend their time in three places the cache-tuning work
//! (ROADMAP item 4) needs to see separately: the **FFT pass** advancing
//! certified-red regions, the **boundary window** recursion around the
//! red/green boundary, and the **base case** naive loops below the
//! cutoff.  A [`KernelScope`] guard wraps each, accumulating call counts
//! and wall nanoseconds into process-wide statics — statics, because the
//! engines are plumbing-free by design and a handle parameter through the
//! recursion would cost more than the timers.
//!
//! Beside the timers sit two work counters.  [`linear_cells`] counts the
//! input cells of every linear advance.  Under the paper's
//! `W(h) = 2·W(h/2) + O(h log h)` recurrence a `T`-step pricing feeds them
//! `T·(a·log₂T + b)` cells, so cells per step grow by the same `a` with
//! every doubling of `T` exactly when the engine meets the bound, whatever
//! the machine.  [`power_tables`] counts the spectrum-multiplier tables the
//! pricings built (`amopt_fft::KernelPowers`): one per distinct correlation
//! size and height of a pricing, `O(log T)` of them while the correlations
//! themselves grow like `T` — so it says, without a clock, that the
//! multipliers are evaluated once per table and not once per correlation.
//!
//! `amopt-core` compiles the scopes only under its `obs` cargo feature;
//! without it the guards do not exist and the engines pay nothing.  The
//! statics here are always present (three pairs of atomics and the two
//! counters), so the service can render them into its metrics exposition
//! unconditionally — they simply stay zero when the engines were built
//! without `obs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of instrumented kernel phases.
pub const KERNEL_PHASE_COUNT: usize = 3;

/// One instrumented phase of the stencil engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPhase {
    /// Linear FFT advance over a certified-red region.
    FftPass = 0,
    /// Boundary-anchored window recursion (the cone-shaped subproblem).
    BoundaryWindow = 1,
    /// Naive base-case loop at or below the cutoff height.
    BaseCase = 2,
}

/// Every phase, in discriminant order.
pub const KERNEL_PHASES: [KernelPhase; KERNEL_PHASE_COUNT] =
    [KernelPhase::FftPass, KernelPhase::BoundaryWindow, KernelPhase::BaseCase];

impl KernelPhase {
    /// Stable snake_case name (used in metric names).
    pub fn name(self) -> &'static str {
        match self {
            KernelPhase::FftPass => "fft_pass",
            KernelPhase::BoundaryWindow => "boundary_window",
            KernelPhase::BaseCase => "base_case",
        }
    }
}

struct PhaseCell {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl PhaseCell {
    const fn new() -> PhaseCell {
        PhaseCell { calls: AtomicU64::new(0), nanos: AtomicU64::new(0) }
    }
}

static TIMERS: [PhaseCell; KERNEL_PHASE_COUNT] =
    [PhaseCell::new(), PhaseCell::new(), PhaseCell::new()];

static LINEAR_CELLS: AtomicU64 = AtomicU64::new(0);

static POWER_TABLES: AtomicU64 = AtomicU64::new(0);

/// Counts the `cells` input cells of one linear advance.
#[inline]
pub fn record_linear_cells(cells: u64) {
    LINEAR_CELLS.fetch_add(cells, Ordering::Relaxed);
}

/// Input cells of every linear advance since the last [`reset`].
pub fn linear_cells() -> u64 {
    LINEAR_CELLS.load(Ordering::Relaxed)
}

/// Counts the `tables` multiplier tables one pricing built.
#[inline]
pub fn record_power_tables(tables: u64) {
    POWER_TABLES.fetch_add(tables, Ordering::Relaxed);
}

/// Multiplier tables built by every pricing since the last [`reset`].
pub fn power_tables() -> u64 {
    POWER_TABLES.load(Ordering::Relaxed)
}

/// A scope guard timing one phase: accumulates on drop.
#[derive(Debug)]
pub struct KernelScope {
    phase: KernelPhase,
    start: Instant,
}

impl KernelScope {
    /// Starts timing `phase`.
    #[inline]
    pub fn start(phase: KernelPhase) -> KernelScope {
        KernelScope { phase, start: Instant::now() }
    }
}

impl Drop for KernelScope {
    #[inline]
    fn drop(&mut self) {
        // amopt-lint: hot-path
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(cell) = TIMERS.get(self.phase as usize) {
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

/// Point-in-time counters of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelPhaseStats {
    /// Scopes entered.
    pub calls: u64,
    /// Wall nanoseconds accumulated across scopes (nested scopes — a base
    /// case inside a window — count their full extent in each).
    pub nanos: u64,
}

/// Snapshot of every phase, indexed like [`KERNEL_PHASES`].
pub fn snapshot() -> [KernelPhaseStats; KERNEL_PHASE_COUNT] {
    std::array::from_fn(|i| KernelPhaseStats {
        calls: TIMERS[i].calls.load(Ordering::Relaxed),
        nanos: TIMERS[i].nanos.load(Ordering::Relaxed),
    })
}

/// Zeroes every phase counter and both work counters (bench/test
/// isolation).
pub fn reset() {
    for cell in &TIMERS {
        cell.calls.store(0, Ordering::Relaxed);
        cell.nanos.store(0, Ordering::Relaxed);
    }
    LINEAR_CELLS.store(0, Ordering::Relaxed);
    POWER_TABLES.store(0, Ordering::Relaxed);
}

/// Appends the kernel phase counters to a metrics exposition in the same
/// Prometheus-style text the registry renders.
pub fn render_into(out: &mut String) {
    use std::fmt::Write as _;
    for (phase, stats) in KERNEL_PHASES.iter().zip(snapshot()) {
        let name = phase.name();
        let _ = writeln!(
            out,
            "# HELP amopt_kernel_{name}_calls_total Kernel {name} scopes entered (0 unless built \
             with the obs feature)"
        );
        let _ = writeln!(out, "# TYPE amopt_kernel_{name}_calls_total counter");
        let _ = writeln!(out, "amopt_kernel_{name}_calls_total {}", stats.calls);
        let _ = writeln!(
            out,
            "# HELP amopt_kernel_{name}_nanos_total Wall nanoseconds inside kernel {name} scopes"
        );
        let _ = writeln!(out, "# TYPE amopt_kernel_{name}_nanos_total counter");
        let _ = writeln!(out, "amopt_kernel_{name}_nanos_total {}", stats.nanos);
    }
    let _ = writeln!(
        out,
        "# HELP amopt_kernel_linear_cells_total Input cells of the engines' linear advances (0 \
         unless built with the obs feature)"
    );
    let _ = writeln!(out, "# TYPE amopt_kernel_linear_cells_total counter");
    let _ = writeln!(out, "amopt_kernel_linear_cells_total {}", linear_cells());
    let _ = writeln!(
        out,
        "# HELP amopt_kernel_power_tables_total Spectrum-multiplier tables the engines' pricings \
         built (0 unless built with the obs feature)"
    );
    let _ = writeln!(out, "# TYPE amopt_kernel_power_tables_total counter");
    let _ = writeln!(out, "amopt_kernel_power_tables_total {}", power_tables());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_and_reset_zeroes() {
        reset();
        {
            let _fft = KernelScope::start(KernelPhase::FftPass);
            let _base = KernelScope::start(KernelPhase::BaseCase);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        record_linear_cells(40);
        record_linear_cells(2);
        record_power_tables(3);
        let snap = snapshot();
        assert_eq!(linear_cells(), 42);
        assert_eq!(snap[KernelPhase::FftPass as usize].calls, 1);
        assert_eq!(snap[KernelPhase::BaseCase as usize].calls, 1);
        assert_eq!(snap[KernelPhase::BoundaryWindow as usize].calls, 0);
        assert!(snap[KernelPhase::FftPass as usize].nanos >= 1_000_000);
        let mut text = String::new();
        render_into(&mut text);
        assert!(text.contains("amopt_kernel_fft_pass_calls_total 1"), "{text}");
        assert!(text.contains("# TYPE amopt_kernel_base_case_nanos_total counter"));
        assert!(text.contains("amopt_kernel_linear_cells_total 42"), "{text}");
        assert!(text.contains("amopt_kernel_power_tables_total 3"), "{text}");
        reset();
        assert_eq!(snapshot()[0], KernelPhaseStats::default());
        assert_eq!(linear_cells(), 0);
        assert_eq!(power_tables(), 0);
    }
}
