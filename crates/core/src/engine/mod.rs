//! The nonlinear-stencil solver — the paper's primary contribution.
//!
//! A *nonlinear stencil* in the sense of the paper updates each cell with
//! `max(linear combination of the previous row, closed-form obstacle)`.
//! The space-time grid then splits into a **red** region (linear update wins)
//! and a **green** region (obstacle wins) separated by a monotone boundary
//! whose drift per step is bounded (Cor. 2.7 / Thm 4.3 / Cor. A.6).
//!
//! ## One geometry
//!
//! There is a single engine, [`left_cone`]: kernel anchored at offset 0
//! (cell `(t+1, c)` reads `(t, c), …, (t, c+σ')` with `σ'` the kernel span),
//! green region on the **left** of every row, last green column `f_t`
//! moving left by at most `σ'` columns per step and never right, values
//! stored raw, and an exact implicit zero tail right of the expiry payoff's
//! support.  It advances a [`left_cone::GreenPrefixRow`] by `h` steps in
//! `O(h log² h)` work and `O(h)` span: everything right of the current
//! boundary is certified red at every depth, so it advances *any* height
//! with one FFT correlation of `amopt-stencil`; only the freshly exposed
//! columns need a recursion, on the boundary-anchored window that is their
//! cone, and only a row that is its own cone halves — the second half of
//! its height waits for the boundary the first half finds.  A window of
//! height `H` therefore costs two correlations of `O(H)` cells and two
//! windows of `H/2`, the paper's `W(H) = 2·W(H/2) + O(H log H)`
//! ([`left_cone`]'s hop rule; at equality a row halves, or a window would
//! hand itself to its own recursion).  Lattice **puts** under BOPM
//! (`σ' = 1`) and TOPM (`σ' = 2`) are this geometry as they stand.  The
//! paper's other two geometries reach it by a change of variables — the
//! mirror for calls, the lattice embedding of the BSM grid — applied in the
//! one model adapter, [`crate::lattice::fast`], rather than by a second
//! engine.
//!
//! ## Lattice calls: the put–call mirror (§2.3's right cone)
//!
//! On a recombining lattice with `u·d = 1` the discrete McDonald–Schroder
//! symmetry `C(S, K, R, Y) = P(K, S, Y, R)` is exact node by node: the value
//! at call node `(i, j)` is the mirrored put's value at node `(i, w·i − j)`
//! (`w = 1` BOPM, `2` TOPM) times the positive factor `φ(i, j)/S`, which
//! scales continuation and exercise alike.  A call is therefore priced as
//! the put of the mirrored contract, and its red–green divider is the
//! mirrored put's read backwards: last red call column `j = w·i − f − 1`.
//!
//! Why raw value space is safe after the mirror: call grid values grow like
//! `S·u^T`, and an FFT's *absolute* error scales with its largest input, so
//! a call-shaped engine must work on the bounded premium `G − green`
//! instead (and recover a deep out-of-the-money price as a difference of
//! two `O(K)` numbers — which can come out negative).  The mirrored put's
//! values lie in `[0, S]` everywhere, with exact zeros where the call is
//! worthless, so nothing needs rescaling and a zero price stays exactly `0`.
//!
//! ## BSM put: the shear (§4.3's centered cone)
//!
//! The explicit-FD kernel is anchored at −1: row `n` spans
//! `k ∈ [−(T−n), T−n]` and cell `(n+1, k)` reads `k−1, k, k+1`.  In the
//! sheared column `c' = k + (T − n)` the same cell reads `c', c'+1, c'+2` —
//! an anchor-0 kernel of span 2 with cone edge `hi' = 2(T − n)` — and the
//! last green column `f' = f + (T − n)` moves left 1–2 columns per step
//! because `f` itself moves left 0–1 (Thm 4.3).  That is the TOPM-put case
//! of the engine; the sheared column is the trinomial lattice column
//! `j = k + i` of market row `i = T − n`, so the grid is built as a
//! `Lattice<2>` ([`crate::lattice`]) and needs no adapter of its own.
//! (Front-fixing finite-difference schemes make the same move to turn a
//! moving boundary into a fixed one.)
//!
//! Why the zero tail is exact here: the expiry payoff `(1 − e^{s_k})₊` is
//! exactly zero for `k > f₀`, i.e. `c' > f₀ + T`, and an anchor-0 cone only
//! looks right — so every cell with `c' > f₀ + T` is a combination of exact
//! zeros floored by a negative obstacle, at every step.  In the original
//! columns the support creeps right one column per step; the shear pins it.

pub mod left_cone;

use amopt_fft::KernelPowers;

/// Times the enclosing scope as one kernel phase when the crate is built
/// with the `obs` feature; expands to nothing otherwise, so the default
/// build pays no cost — not even the `Instant::now` call.
macro_rules! kernel_scope {
    ($phase:ident) => {
        #[cfg(feature = "obs")]
        let _kernel_scope =
            amopt_obs::kernel::KernelScope::start(amopt_obs::kernel::KernelPhase::$phase);
    };
}
pub(crate) use kernel_scope;

/// Counts the input cells of one linear advance under the `obs` feature
/// (`amopt_obs::kernel::linear_cells`); expands to nothing otherwise.
macro_rules! linear_cells {
    ($cells:expr) => {
        #[cfg(feature = "obs")]
        amopt_obs::kernel::record_linear_cells($cells as u64);
    };
}
pub(crate) use linear_cells;

/// Counts the multiplier tables a set built under the `obs` feature
/// (`amopt_obs::kernel::power_tables`); expands to nothing otherwise.
macro_rules! power_tables {
    ($tables:expr) => {
        #[cfg(feature = "obs")]
        amopt_obs::kernel::record_power_tables($tables as u64);
    };
}

/// Runs `f` with a set of multiplier tables of its own: the owner of a
/// `KernelPowers` (a single pricing, or a batch group of contracts that
/// share their kernels).  The tables live until `f` returns; the ones the
/// set built are counted once, then.
pub(crate) fn with_powers<R>(f: impl FnOnce(&KernelPowers) -> R) -> R {
    let powers = KernelPowers::new();
    let out = f(&powers);
    power_tables!(powers.tables_built());
    out
}

/// Trapezoid height at or below which the naive base case runs: all of the
/// window's steps in one per-worker buffer, each a downward boundary scan and
/// an in-place sweep of the red cells, its obstacles read from the pricing's
/// node table rather than evaluated ([`left_cone`]'s module docs).  The paper
/// takes 8 from one sweep on its own machine (§5.1); this base case is a
/// flat, `exp`-free loop, and at 8 a small pricing spends its time setting up
/// correlations of tiny windows rather than on arithmetic.  The chain book
/// (the benchmark harness's `book_cold`, T = 63 to 504, two cores, medians
/// of two 10 s runs) prices 39.3k / 45.1k / 52.5k / 60.6k / 67.9k options
/// per second at 8 / 16 / 32 / 64 / 128; at 32 one T = 252 pricing steps
/// 8.6 base cases and runs 11.0 correlations where it stepped 33.0 and ran
/// 49.1 at 8.  The curve keeps rising, but the harness keeps every answer
/// for its final check, so its resident set grows with throughput: at 64
/// `quote_saturate`'s peak rises 27 % over 8's, beyond the benchmark's 25 %
/// bound, so the value stays at 32 until that harness stops holding its
/// answers (ARCHITECTURE erratum 7).  A higher cutoff computes in the base
/// case cells that correlations compute at 32, so it moves the last bits of
/// a price.
pub(crate) const BASE_CUTOFF: u64 = 32;

/// Heights below this run without fork-join.  A fork costs about a
/// microsecond, so this does not price the fork: it bounds how small a
/// window is worth another worker's wake-up and cache misses.  Measured at
/// T = 65 536 on two cores with the whole-hop rule (`deep_lattice`, six
/// interleaved 10 s runs each), options per second at 128 / 256 / 512 /
/// 1 024 / 2 048 read 21.7 / 21.4 / 20.6 / 20.6 / 20.0 with single runs
/// 2–4 apart: flat.  512 stays because everything below it is more than
/// half of a pricing by now (the windows below this height are its
/// sequential chain, so two cores cannot gain much either way) and because
/// a lower value makes the T ≤ 504 pricings of a batch fork inside a
/// fan-out that already fills the pool.  With more cores the lower end buys
/// parallelism.  It decides only where the engine forks, never a bit.
pub(crate) const SEQUENTIAL_BELOW: u64 = 512;

/// An empty marker, kept only because the benchmark harness (`perf/`) still
/// names it: it passes one to `BatchPricer::new` / `with_memo_capacity`, the
/// `bopm` / `topm` / `bsm` `fast` forwards and
/// `implied_vol::american_call_bopm`, each of which ignores it.  The engine
/// has no knobs; its cutoffs are constants, so there is no field to set:
///
/// ```compile_fail
/// let _ = amopt_core::EngineConfig { base_cutoff: 32, ..Default::default() };
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {}
