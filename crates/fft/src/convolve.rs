//! The kernel-power correlation primitive, taken by FFT.
//!
//! [`correlate_power_valid`] is the computational heart of the paper: inside
//! an all-red region, `h` steps of a linear stencil with kernel `w` collapse
//! into a single correlation with `W = w^{⊛h}` (the `h`-fold self-convolution
//! of `w`).  Rather than materialising `W`, its spectrum is obtained by
//! pointwise powering `FFT(w)^h` — this is the linear-stencil algorithm of
//! Ahmad et al. (SPAA 2021), reference \[1\] of the paper.
//!
//! The row is real, so it travels as `n/2` complex points
//! (`real::RealFft`: samples `2j`, `2j+1` in one point, one `n/2`-point
//! transform), and only bins `0 … n/2` of its length-`n` spectrum are ever
//! formed: the correlation multiplies bin `k` by `conj(K_k)^h`, a multiplier
//! with the row's own conjugate symmetry, so the upper half of the product
//! is the conjugate of the lower and the packed inverse rebuilds the real
//! output from the lower half alone.
//!
//! The input is a row's stored cells and its length: cells past the stored
//! ones are exact zeros (the pricing engine's zero tail), which the packed
//! transform buffer holds anyway, so they are never materialised.  Every
//! size below is read from the length, so a row correlates bit for bit as
//! its zero-extended copy would.
//!
//! Aliasing correctness: packing changes how the length-`n` cyclic
//! correlation is computed, not what it is.  With `n = next_pow2(x.len())`,
//! the cyclic correlation at output index `c` touches `x[c] … x[c + |W| − 1]`;
//! for every index in the *valid* output range `c ≤ x.len() − |W|` this stays
//! below `x.len() ≤ n`, so no wrapped (aliased) term is ever read — the
//! period is still `n`, not the `n/2` of the transform that carries it.
//!
//! The multiplier is evaluated *directly* per bin, `K_k = Σ_m w_m
//! e^{−2πikm/n}`, rather than by transforming the kernel alongside `x`: a
//! shared transform would leave the tiny kernel spectrum with absolute error
//! proportional to ‖x‖, which the pointwise `h`-th power then amplifies by a
//! factor of `h` — observed as ~1e-6 price error at T = 252.  Direct
//! evaluation is exact to ε and costs O(σ) per bin for a σ-tap kernel, over
//! `n/2 + 1` bins, once per table (below).  The roots `e^{−2πij/n}`,
//! `j = km mod n`, are *read* from the cached length-`n` plan
//! ([`Fft::root`]) rather than computed: the plan's table
//! holds the `sin_cos` of `−2πj/n` for `j < n/2`, each taken from its own
//! angle (no recurrence, nothing accumulated), and the upper half is its
//! exact negative — the values a `cis` call per tap per bin would return (to
//! the last place; bit for bit below `n/2`), so reading them *is* direct
//! evaluation, at a load in place of a `sin_cos` and a mask in place of a
//! division.  `K_0` and `K_{n/2}` read roots that are exactly `±1`, sum
//! `±w_m`, and are taken as the real numbers they are.
//!
//! Most of those bins then carry nothing.  `|K_k|^h` decays like
//! `e^{−hθ²/8}` (`θ = 2πk/n`) for a two-tap lattice kernel, so at the heights
//! a deep pricing runs all but a few percent of the multipliers are below any
//! magnitude that could reach an output bit.  Before paying for the power
//! (`Complex64::powu`: up to `2·log₂h` complex multiplies by
//! square-and-multiply, 15–45 ns a bin at the heights a pricing runs on a
//! 2-core Xeon VM), each bin tests `|K_k|² < τ^{2/h}` — one `exp` per table,
//! a few flops per bin — and a bin below it gets an exact zero.  With
//! `|X_k| ≤ ‖x‖₁`, the dropped terms of
//! `out[c] = (1/n) Σ_k X_k conj(K_k)^h e^{2πikc/n}` sum to at most
//! `τ·‖x‖₁ ≤ τ·n·‖x‖_∞`; at τ = 1e-40 and the largest rows the pricer sends
//! (`n = 2²¹`) that is eighteen orders of magnitude below the `ε·‖x‖_∞` the
//! transform's own rounding leaves.  The test is made bin by bin, never as
//! "every `k` above some `k_c`": `|K_k|` need not fall with `k` — the sheared
//! BSM kernel, like any three-tap kernel with a small middle weight, has
//! `K(π)` near `−1` and keeps a live band at Nyquist behind a dead
//! mid-band — and a kernel whose taps sum past 1 (a growing DC mode) is
//! never cut at all.
//!
//! The same decay bounds the power kernel in space, and there the cut pays:
//! a correlation transforms only the cells its kernel's *band* can reach.
//! A kernel whose taps are all ≥ 0, of mass `s = Σ w_m` and mean tap
//! `μ₁ = Σ m·w_m / s`, is `s` times the law of a draw from `[0, σ']`
//! (`σ' = kernel.len() − 1`), so `W_m = s^h·P(S_h = m)` for the sum `S_h` of
//! `h` independent draws.  Hoeffding's inequality gives `P(|S_h − h·μ₁| > a)
//! ≤ 2·exp(−2a²/(h·σ'²))`; with `a = σ'·√(h·(ln(2/τ) + max(0, h·ln s)) / 2)`
//! the taps outside `[lo, hi] = [⌊h·μ₁ − a⌋, ⌈h·μ₁ + a⌉]` weigh at most
//! `τ·min(1, s^h)`, and so at most `τ·max(1, s^h)` whatever the kernel's
//! growth.  At the heights a deep pricing runs, `2a ≈ 13.6·σ'·√h` is a few
//! percent of the `σ'·h + 1` taps.  Output `c` needs cells `[c + lo, c + hi]`,
//! so the `out_len` outputs need `out_len + hi − lo` cells from `lo` on, and
//! they are placed *cyclically* in a transform of `n' =
//! next_pow2(out_len + hi − lo)` points: cell `p ∈ [lo, lo + n')` goes to
//! slot `p mod n'` (`lo` rounded down to even, so that cells still pack two
//! to a point).  The cyclic correlation at `c` sums `W_m·y[(c + m) mod n']`
//! over every tap: a band tap reaches `c + m ∈ [lo, out_len − 1 + hi]`, fewer
//! than `n'` consecutive cells, each alone in its slot, so it reads `x[c +
//! m]` and `out[c]` is slot `c` with no rotation of the output; a tap outside
//! the band wraps onto some other cell or a zero, at most `‖x‖_∞`.  The band
//! therefore moves an output by at most `τ·max(1, s^h)·‖x‖_∞`, beside the
//! vanished bins' `τ·‖x‖₁`.  The multipliers are those of `(kernel, n', h)`,
//! the same tables at a smaller `n'`.  A kernel with a negative tap has no
//! such bound, and a band that does not shrink the transform buys nothing:
//! both take `lo = 0` and `n' = next_pow2(x.len())`, the whole row, bit for
//! bit the correlation before the band.
//!
//! The multipliers depend on the kernel, `n` and `h` alone, never on `x`, and
//! the trapezoid engines ask for few of them: every window of a recursion
//! level correlates at that level's size and height, so a pricing issues
//! thousands of correlations over a few dozen distinct `(n, h)`.  A
//! [`KernelPowers`] therefore evaluates each table once — on its first use,
//! with the expressions above, so every bit is what a fresh evaluation
//! gives — and hands it to every later correlation with the same kernel and
//! `(n, h)`.
//!
//! A table is laid out in the order the spectrum step reads it.  The
//! forward transform leaves the packed spectrum in position order and the
//! inverse takes it back from there (`real` module docs: position `p` holds
//! bin `rev(p)`, and the octave mirror pairs each bin `k` with `n/2 − k`),
//! so the step is one walk over the pairs in order, and the table holds, in
//! the same order, each pair's split twiddle `e^{−2πik/n}` beside the
//! multipliers of its two bins.  Each multiplier carries the scaling the
//! transforms leave out: the inverse's `1/(n/2)`, and the split's and the
//! merge's halvings — `conj(K_k)^h/(2n)` for a pair, `K_k^h/n` at DC and
//! Nyquist, `conj(K_{n/4})^h/(n/2)` for the bin that pairs with itself — so
//! no pass over the row scales it.  A table keeps only its live pairs (a
//! pair is live when either bin is): a bitmap of pair slots with the count
//! of live pairs before each 64-bit word, and the live pairs' entries in
//! slot order; a vanished bin of a live pair has an exact zero multiplier,
//! and a vanished pair writes exact zeros.  At the heights a deep pricing
//! runs that is a few percent of the `n/4` pairs.
//!
//! A set is keyed on the kernel's weight *bits* as well as `(n, h)`, and
//! owns no kernel: the caller passes it with each correlation, so a set
//! handed another kernel builds that kernel's table and never reads the
//! wrong one.  Whoever prices holds the set.  A single pricing holds one
//! for its own correlations; the batch pricer holds one per group of
//! contracts that share their kernels (the strikes of one expiry), for as
//! long as the group's pricings run.  The tables hold no request's data,
//! but nothing bounds how many distinct `(n, h)` a stream of requests would
//! leave behind, so no set outlives the batch that built it.
//! [`correlate_power_valid_with`] is the same path with a [`KernelPowers`]
//! of its own, used once.

use crate::complex::{c64, Complex64};
use crate::radix2::{next_pow2, Fft};
use crate::real::{self, RealFft};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Reusable buffer for [`correlate_power_valid_with`].
///
/// One correlation needs one complex buffer of half the transform size: the
/// packed row, its spectrum, the pointwise product and the inverse transform
/// all live in it in turn.  Holding it in a scratch that outlives the call
/// makes repeated correlations — the trapezoid engines issue thousands per
/// pricing — allocation-free apart from the returned output vector, which
/// the caller keeps.  The buffer grows to the largest transform seen and
/// never shrinks; keep one instance per thread (as
/// `amopt_stencil::with_scratch` does) rather than sharing one.
#[derive(Debug, Default)]
pub struct FftScratch {
    buf: Vec<Complex64>,
}

/// τ: a multiplier `conj(K_k)^h` of magnitude below this is taken as an exact
/// zero and its `powu` is never paid for; the dropped terms together move an
/// output by at most `τ·‖x‖₁` (module comment).  The taps of a power kernel
/// outside its band weigh at most `τ` too.
const VANISHED: f64 = 1e-40;

/// Number of taps of the `h`-fold self-convolution of a kernel of `k` taps.
#[inline]
pub fn power_kernel_len(kernel_len: usize, h: u64) -> usize {
    debug_assert!(kernel_len >= 1);
    (kernel_len - 1) * h as usize + 1
}

/// Valid-mode correlation of `x` with the `h`-th convolution power of
/// `kernel`:
///
/// `out[c] = Σ_m W_m · x[c + m]` for `c ∈ [0, x.len() − |W|]`,
/// where `W = kernel^{⊛h}` and `|W| = h·(kernel.len()−1) + 1`.
///
/// This advances the `x.len()`-cell row of a linear stencil `h` time steps
/// and returns the cells whose full dependency cone lies inside `x`.
///
/// # Panics
/// If `kernel` is empty or `x` is shorter than `|W|`.
pub fn correlate_power_valid(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
    correlate_power_valid_with(x, kernel, h, &mut FftScratch::default())
}

/// [`correlate_power_valid`] with a caller-owned scratch buffer: bitwise the
/// same output, but the transform buffer is reused across calls instead of
/// reallocated.  The multipliers are evaluated for this call alone; a caller
/// that correlates with one kernel many times holds a [`KernelPowers`].
pub fn correlate_power_valid_with(
    x: &[f64],
    kernel: &[f64],
    h: u64,
    scratch: &mut FftScratch,
) -> Vec<f64> {
    KernelPowers::new().correlate(x, x.len(), kernel, h, scratch, 0)
}

/// Bitmap words (64 pair slots, 128 bins each) one task of a table build
/// evaluates; longer ranges fork.  A word costs 128 responses of a few
/// nanoseconds each and a power by square-and-multiply, 15–45 ns by the
/// height on a 2-core Xeon VM, per live bin: 16 words make a task of about
/// ten microseconds and more, several forks' worth.
const WORD_GRAIN: usize = 16;

/// The spectrum multipliers `conj(K_k)^h` of the kernels a caller
/// correlates with, one table per kernel, transform size `n` and height
/// `h`, each evaluated on its first use and kept until this value is
/// dropped (module docs).  A table is found by the kernel's weight bits, so
/// it is only ever read for the kernel it was built from.
///
/// Workers share one by reference.  Two that miss the same table at once
/// both build it, outside the lock, and the first insert wins; the two
/// builds are the same bits, so no output depends on which worker ran what.
#[derive(Debug, Default)]
pub struct KernelPowers {
    /// A few dozen per kernel and pricing, so found by a scan.
    tables: Mutex<Vec<Arc<PowerTable>>>,
    built: AtomicUsize,
}

impl KernelPowers {
    /// An empty set of tables; nothing is allocated until the first
    /// correlation that needs a transform.
    pub fn new() -> Self {
        KernelPowers::default()
    }

    /// Tables built so far, counting both builds of a table two workers
    /// raced for.
    pub fn tables_built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// [`correlate_power_valid_with`] of the row of `len` cells whose first
    /// `x.len()` are `x` and whose rest are exact zeros, with the multipliers
    /// of `(kernel, n', h)` read from their table.  The stored cells pack
    /// straight into the transform, which is zero past them anyway, so the
    /// output is the materialised row's bit for bit, and `n'` is the
    /// transform that holds the power kernel's band and the output (module
    /// docs): `next_pow2(out_len + hi − lo)`, or `next_pow2(len)` for a kernel
    /// with a negative tap or a band that does not shrink the transform.  The
    /// output has room for `spare` more cells, which its caller appends.
    ///
    /// # Panics
    /// If `kernel` is empty, `x` is longer than `len`, or `len` is shorter
    /// than `|W|`.
    pub fn correlate(
        &self,
        x: &[f64],
        len: usize,
        kernel: &[f64],
        h: u64,
        scratch: &mut FftScratch,
        spare: usize,
    ) -> Vec<f64> {
        // amopt-lint: hot-path
        assert!(!kernel.is_empty(), "kernel must have at least one tap");
        assert!(x.len() <= len, "{} stored cells in a row of {len}", x.len());
        let w_len = power_kernel_len(kernel.len(), h);
        assert!(
            h == 0 || len >= w_len,
            "input of {len} cells cannot host a {w_len}-tap power kernel"
        );
        let out_len = len + 1 - w_len;
        let (lo, n) = if h == 0 { (0, 0) } else { transform(kernel, h, len) };
        if n < 4 || kernel.len() == 1 {
            // No transform: the identity, a one-tap kernel's scale, or two
            // cells, which host one step of a two-tap kernel and nothing
            // else, so the power kernel is the kernel.
            // amopt-lint: allow(hot-path-alloc) -- single output vector per correlation, sized once with the caller's spare; the caller keeps it
            let mut out = Vec::with_capacity(out_len + spare);
            if h == 0 {
                out.extend_from_slice(x);
                out.resize(len, 0.0);
            } else if kernel.len() == 1 {
                let s = kernel[0].powi(h.min(i32::MAX as u64) as i32);
                out.extend(x.iter().map(|&v| v * s));
                out.resize(out_len, 0.0 * s);
            } else {
                let at = |i: usize| x.get(i).copied().unwrap_or(0.0);
                let dot = |c: usize| -> f64 {
                    kernel.iter().enumerate().map(|(m, w)| at(c + m) * w).sum()
                };
                out.extend((0..out_len).map(dot));
            }
            return out;
        }
        let table = self.table(kernel, n, h);
        let buf = &mut scratch.buf;
        // Cell `p ∈ [lo, lo + n)` to slot `p mod n`, so `out[c]` is slot `c`.
        table.real.forward_rotated(&x[lo.min(x.len())..x.len().min(lo + n)], lo % n, buf);
        table.apply(buf);
        table.real.inverse_positions(buf, out_len, spare)
    }

    /// The table of `(kernel, n, h)`, built now if no correlation has asked
    /// for it yet.
    fn table(&self, kernel: &[f64], n: usize, h: u64) -> Arc<PowerTable> {
        let find = |tables: &[Arc<PowerTable>]| {
            tables.iter().find(|table| table.is_for(kernel, n, h)).map(Arc::clone)
        };
        if let Some(table) = find(&self.lock()) {
            return table;
        }
        let built = Arc::new(PowerTable::build(kernel, n, h));
        self.built.fetch_add(1, Ordering::Relaxed);
        let mut tables = self.lock();
        find(&tables).unwrap_or_else(|| {
            tables.push(Arc::clone(&built));
            built
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<PowerTable>>> {
        // Nothing panics under this lock (a scan, or a push of an `Arc`).
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The multipliers of one `(kernel, n, h)` in position order, scaled, live
/// pairs only (module docs).
#[derive(Debug)]
struct PowerTable {
    /// The bits of the kernel's weights, in tap order.
    taps: Box<[u64]>,
    /// The transform of rows of length `n`, planned once for the table.
    real: RealFft,
    h: u64,
    /// Position 0's multipliers: `K_0^h/n` and `K_{n/2}^h/n` (real).
    dc: f64,
    nyquist: f64,
    /// Position 1's: `conj(K_{n/4})^h/(n/2)`.
    quarter: Complex64,
    /// Per 64 pair slots: bit `s % 64` set when the pair in slot `s` is
    /// live, and the number of live pairs in the words before.
    live: Vec<(u64, usize)>,
    /// `[e^{−2πik/n}, conj(K_k)^h/(2n), conj(K_{n/2−k})^h/(2n)]` of the live
    /// pairs in slot order, `k` the bin of the pair's lower position.
    pairs: Vec<[Complex64; 3]>,
}

impl PowerTable {
    /// Evaluates every bin's multiplier for rows of length `n`.
    fn build(kernel: &[f64], n: usize, h: u64) -> PowerTable {
        let real = RealFft::new(n);
        let (full, vanished, scale) = (real.full(), vanished_below(h), 1.0 / n as f64);
        let mut live = vec![(0u64, 0usize); (n / 4 - 1).div_ceil(64)];
        mark_live(kernel, full, vanished, &mut live, 0);
        let mut total = 0;
        for (word, before) in &mut live {
            *before = total;
            total += word.count_ones() as usize;
        }
        let mut pairs = vec![[Complex64::ZERO; 3]; total];
        fill_pairs(kernel, full, h, vanished, &live, 0, &mut pairs);
        let real_part = |k| multiplier(kernel, k, full, h, vanished, scale).map_or(0.0, |v| v.re);
        let (dc, nyquist) = (real_part(0), real_part(n / 2));
        let quarter = multiplier(kernel, n / 4, full, h, vanished, 2.0 * scale);
        let quarter = quarter.unwrap_or(Complex64::ZERO);
        let taps = kernel.iter().map(|w| w.to_bits()).collect();
        PowerTable { taps, real, h, dc, nyquist, quarter, live, pairs }
    }

    /// Whether this is the table of `kernel` (bit for bit) at `(n, h)`.
    fn is_for(&self, kernel: &[f64], n: usize, h: u64) -> bool {
        (self.real.full().len(), self.h) == (n, h)
            && self.taps.len() == kernel.len()
            && self.taps.iter().zip(kernel).all(|(&bits, w)| bits == w.to_bits())
    }

    /// The spectrum step: every bin of the packed spectrum `z`, in position
    /// order, times its multiplier, scaled for the unscaled inverse.
    fn apply(&self, z: &mut [Complex64]) {
        // amopt-lint: hot-path
        let (even, odd) = (z[0].re, z[0].im);
        let (dc, nyquist) = ((even + odd) * self.dc, (even - odd) * self.nyquist);
        z[0] = c64(dc + nyquist, dc - nyquist);
        z[1] = (self.quarter * z[1].conj()).conj();
        real::octave_pairs(z, &|s0, lo, hi| self.apply_pairs(s0, lo, hi));
    }

    /// [`PowerTable::apply`] on the pairs of slots `s0 …`: lower points in
    /// `lo`, their partners backwards in `hi`.
    fn apply_pairs(&self, s0: usize, lo: &mut [Complex64], hi: &mut [Complex64]) {
        // amopt-lint: hot-path
        let (word, before) = self.live[s0 / 64];
        let mut next = before + (word & ((1 << (s0 % 64)) - 1)).count_ones() as usize;
        for (s, (zk, zm)) in (s0..).zip(lo.iter_mut().zip(hi.iter_mut().rev())) {
            if self.live[s / 64].0 & (1 << (s % 64)) == 0 {
                (*zk, *zm) = (Complex64::ZERO, Complex64::ZERO);
                continue;
            }
            let [w, mk, mm] = self.pairs[next];
            next += 1;
            let (xk, xm) = real::split_pair(*zk, *zm, w);
            (*zk, *zm) = real::merge_pair(xk * mk, xm * mm, w);
        }
    }
}

/// Sets the bits of the live pairs in `words` — slots `64·w0` on: those
/// with a bin whose `|K_k|²` is not below `vanished`.  Ranges longer than
/// [`WORD_GRAIN`] fork in halves.
fn mark_live(kernel: &[f64], full: &Fft, vanished: f64, words: &mut [(u64, usize)], w0: usize) {
    if words.len() > WORD_GRAIN {
        let (head, tail) = words.split_at_mut(words.len() / 2);
        let w1 = w0 + head.len();
        amopt_parallel::join(
            || mark_live(kernel, full, vanished, head, w0),
            || mark_live(kernel, full, vanished, tail, w1),
        );
        return;
    }
    let (n, m) = (full.len(), full.len() / 2);
    let live = |k| kernel_response(kernel, k, full).norm_sqr() >= vanished;
    for (w, (word, _)) in (w0..).zip(words) {
        for (b, s) in (64 * w..(64 * w + 64).min(n / 4 - 1)).enumerate() {
            let k = real::bin_at(real::slot_position(s), m);
            *word |= u64::from(live(k) || live(m - k)) << b;
        }
    }
}

/// Writes the entries of the live pairs marked in `words` — slots `64·w0`
/// on, counted — to `out` in slot order; a bin whose `|K_k|²` is below
/// `vanished` has an exact zero multiplier.  Ranges longer than
/// [`WORD_GRAIN`] fork in halves, `out` split where the second half's live
/// pairs begin.
fn fill_pairs(
    kernel: &[f64],
    full: &Fft,
    h: u64,
    vanished: f64,
    words: &[(u64, usize)],
    w0: usize,
    out: &mut [[Complex64; 3]],
) {
    if words.len() > WORD_GRAIN {
        let (head, tail) = words.split_at(words.len() / 2);
        let (out_head, out_tail) = out.split_at_mut(tail[0].1 - head[0].1);
        let w1 = w0 + head.len();
        amopt_parallel::join(
            || fill_pairs(kernel, full, h, vanished, head, w0, out_head),
            || fill_pairs(kernel, full, h, vanished, tail, w1, out_tail),
        );
        return;
    }
    let (n, m) = (full.len(), full.len() / 2);
    let scale = 0.5 / n as f64;
    let multiplier = |k| multiplier(kernel, k, full, h, vanished, scale).unwrap_or(Complex64::ZERO);
    let live_slots = words.iter().zip(w0..).flat_map(|(&(word, _), w)| {
        (0..64).filter(move |b| word & (1 << b) != 0).map(move |b| 64 * w + b)
    });
    for (entry, s) in out.iter_mut().zip(live_slots) {
        let k = real::bin_at(real::slot_position(s), m);
        *entry = [full.root(k), multiplier(k), multiplier(m - k)];
    }
}

/// `conj(K_k)^h·scale` for bin `k ∈ [0, n/2]` of rows of length `n =
/// full.len()`, or `None` where `|K_k|²` is below `vanished`; at DC and
/// Nyquist the real `K_k^h·scale` (the roots read there are exactly `±1`,
/// so `K_k` is a sum of `±w_m`).
fn multiplier(
    kernel: &[f64],
    k: usize,
    full: &Fft,
    h: u64,
    vanished: f64,
    scale: f64,
) -> Option<Complex64> {
    let response = kernel_response(kernel, k, full);
    if response.norm_sqr() < vanished {
        None
    } else if k == 0 || 2 * k == full.len() {
        Some(c64(response.re.powf(h as f64) * scale, 0.0))
    } else {
        Some(response.conj().powu(h).scale(scale))
    }
}

/// Bin `k ∈ [0, n)` of the length-`n` DFT of a short real kernel,
/// `K_k = Σ_m w_m e^{−2πi k m / n}`, evaluated directly with the roots of
/// unity read from `full`, the length-`n` plan.
#[inline]
fn kernel_response(kernel: &[f64], k: usize, full: &Fft) -> Complex64 {
    // amopt-lint: hot-path
    let mask = full.len() - 1;
    let mut acc = Complex64::ZERO;
    for (m, &w) in kernel.iter().enumerate() {
        acc += full.root((k * m) & mask) * w;
    }
    acc
}

/// `τ^{2/h}`: a bin whose response has `|K_k|²` below this has a multiplier
/// `|K_k|^h` below [`VANISHED`].
#[inline]
fn vanished_below(h: u64) -> f64 {
    (2.0 * VANISHED.ln() / h as f64).exp()
}

/// `(lo, n)`: the first cell of a row of `x_len` cells that a correlation
/// with `kernel^{⊛h}` reads, and its transform size — the power kernel's band
/// where that shrinks the transform, the whole row otherwise (module docs).
fn transform(kernel: &[f64], h: u64, x_len: usize) -> (usize, usize) {
    // amopt-lint: hot-path
    let out_len = x_len + 1 - power_kernel_len(kernel.len(), h);
    let full = next_pow2(x_len);
    band(kernel, h)
        .map(|(lo, hi)| (lo, next_pow2(out_len + hi - lo)))
        .filter(|&(_, n)| n < full)
        .unwrap_or((0, full))
}

/// The taps `[lo, hi]` of `kernel^{⊛h}` outside which it weighs at most
/// `τ·min(1, s^h)`, `s` the kernel's mass (module docs), with `lo` rounded
/// down to even so that the band's cells pack two to a point.  `None` for a
/// kernel with a negative tap, whose power has no such bound.
fn band(kernel: &[f64], h: u64) -> Option<(usize, usize)> {
    // amopt-lint: hot-path
    if !kernel.iter().all(|&w| w >= 0.0) {
        return None;
    }
    let mass: f64 = kernel.iter().sum();
    let mean = kernel.iter().enumerate().map(|(m, &w)| m as f64 * w).sum::<f64>() / mass;
    let last = power_kernel_len(kernel.len(), h) - 1;
    let (h, span) = (h as f64, (kernel.len() - 1) as f64);
    let half_width = span * (h * ((2.0 / VANISHED).ln() + (h * mass.ln()).max(0.0)) / 2.0).sqrt();
    // A NaN mean (no mass, or an infinite one) clamps to every tap; an
    // infinite one leaves no band.
    let lo = (h * mean - half_width).floor().max(0.0);
    let hi = (h * mean + half_width).ceil().min(last as f64);
    (lo <= hi).then_some((lo as usize & !1, hi as usize))
}

/// Explicit taps of `kernel^{⊛h}` (h-fold self-convolution), stepped one
/// convolution with `kernel` at a time in `O(h²·σ²)` for a σ-tap kernel: the
/// reference the correlation tests compare against.  No transform is
/// involved, so each tap is its own sum of products, and for a nonnegative
/// kernel the far tails are their own tiny values, not rounding of the bump.
pub fn kernel_power_taps(kernel: &[f64], h: u64) -> Vec<f64> {
    assert!(!kernel.is_empty());
    let mut taps = vec![1.0];
    for _ in 0..h {
        let mut next = vec![0.0; taps.len() + kernel.len() - 1];
        for (i, &t) in taps.iter().enumerate() {
            for (m, &w) in kernel.iter().enumerate() {
                next[i + m] += t * w;
            }
        }
        taps = next;
    }
    taps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::plan;

    fn naive_correlate_valid(x: &[f64], w: &[f64]) -> Vec<f64> {
        let out_len = x.len() + 1 - w.len();
        (0..out_len).map(|c| w.iter().enumerate().map(|(m, &wm)| wm * x[c + m]).sum()).collect()
    }

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| next()).collect()
    }

    #[test]
    fn kernel_power_taps_binomial() {
        // [s0, s1]^⊛h has binomial taps C(h,m) s0^{h-m} s1^m.
        let s0 = 0.45;
        let s1 = 0.52;
        let h = 12u64;
        let taps = kernel_power_taps(&[s0, s1], h);
        assert_eq!(taps.len(), 13);
        let mut binom = 1.0f64;
        for (m, &t) in taps.iter().enumerate() {
            let want = binom * s0.powi((h as usize - m) as i32) * s1.powi(m as i32);
            assert!((t - want).abs() < 1e-12, "m={m}: {t} vs {want}");
            binom = binom * (h as f64 - m as f64) / (m as f64 + 1.0);
        }
    }

    #[test]
    fn correlate_power_valid_equals_stepped_naive() {
        let kernel = [0.48, 0.5];
        let x = rand_real(200, 7);
        for h in [1u64, 2, 3, 10, 37] {
            let got = correlate_power_valid(&x, &kernel, h);
            // step the stencil naively h times
            let mut row = x.clone();
            for _ in 0..h {
                row = (0..row.len() - 1)
                    .map(|c| kernel[0] * row[c] + kernel[1] * row[c + 1])
                    .collect();
            }
            assert_eq!(got.len(), row.len());
            for (g, w) in got.iter().zip(&row) {
                assert!((g - w).abs() < 1e-9, "h={h}");
            }
        }
    }

    #[test]
    fn correlate_power_valid_three_tap() {
        let kernel = [0.3, 0.35, 0.3];
        let x = rand_real(150, 8);
        let h = 20u64;
        let got = correlate_power_valid(&x, &kernel, h);
        let mut row = x.clone();
        for _ in 0..h {
            row = (0..row.len() - 2)
                .map(|c| kernel[0] * row[c] + kernel[1] * row[c + 1] + kernel[2] * row[c + 2])
                .collect();
        }
        assert_eq!(got.len(), row.len());
        for (g, w) in got.iter().zip(&row) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn correlate_power_valid_equals_explicit_tap_correlation() {
        // Independent cross-check: materialise W = kernel^{⊛h} and correlate
        // naively; the spectral shortcut must agree.
        let kernel = [0.47, 0.51];
        let x = rand_real(64, 21);
        for h in [1u64, 4, 9] {
            let taps = kernel_power_taps(&kernel, h);
            let want = naive_correlate_valid(&x, &taps);
            let got = correlate_power_valid(&x, &kernel, h);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-10, "h={h}");
            }
        }
    }

    /// `h` explicit single steps: the reference semantics.
    fn stepped(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
        (0..h).fold(x.to_vec(), |row, _| naive_correlate_valid(&row, kernel))
    }

    fn assert_rows_close(got: &[f64], want: &[f64], tol: f64, ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (c, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < tol, "{ctx} c={c}: {g} vs {w}");
        }
    }

    #[test]
    fn degenerate_rows_match_the_stepped_reference() {
        // Two cells (no transform that small: the direct sum), three (odd, the
        // smallest transform, no bin pairs) and on up through odd and even
        // lengths, at every height the row can host.
        for kernel in [&[0.48, 0.5][..], &[0.3, 0.35, 0.3]] {
            for len in 2usize..=17 {
                let x = rand_real(len, 40 + len as u64);
                for h in (1u64..).take_while(|&h| power_kernel_len(kernel.len(), h) <= len) {
                    let got = correlate_power_valid(&x, kernel, h);
                    let ctx = format!("taps={} len={len} h={h}", kernel.len());
                    assert_rows_close(&got, &stepped(&x, kernel, h), 1e-13, &ctx);
                }
            }
        }
    }

    #[test]
    fn dc_and_nyquist_multipliers_are_real_whatever_their_sign() {
        // K(π) = 0.2 − 0.7 = −0.5: a negative real raised to odd and even
        // powers; and K(π) = 0.5 − 0.5 = 0, which must annihilate the bin.
        for kernel in [[0.2, 0.7], [0.5, 0.5]] {
            let nyquist = kernel[0] - kernel[1];
            for h in [1u64, 2, 7, 8] {
                // A pure Nyquist row is an eigenvector: every cell picks up
                // K(π) per step.  64 cells fill the transform exactly.
                let alternating: Vec<f64> =
                    (0..64).map(|j| if j % 2 == 0 { 1.0 } else { -1.0 }).collect();
                let got = correlate_power_valid(&alternating, &kernel, h);
                let want: Vec<f64> = alternating[..64 - h as usize]
                    .iter()
                    .map(|s| s * nyquist.powi(h as i32))
                    .collect();
                assert_rows_close(&got, &want, 1e-15, &format!("{kernel:?} alternating h={h}"));
                for len in [33usize, 64] {
                    let x = rand_real(len, len as u64);
                    let got = correlate_power_valid(&x, &kernel, h);
                    let ctx = format!("{kernel:?} len={len} h={h}");
                    assert_rows_close(&got, &stepped(&x, &kernel, h), 1e-13, &ctx);
                }
            }
        }
    }

    /// The correlation on the transform `(lo, n)` with each multiplier
    /// evaluated in the spectrum step itself, on every call, position by
    /// position; below the vanishing test's threshold an exact zero if
    /// `cut`, paid for if not.
    fn correlate_on(
        x: &[f64],
        kernel: &[f64],
        h: u64,
        (lo, n): (usize, usize),
        cut: bool,
    ) -> Vec<f64> {
        let (real, m, nf) = (RealFft::new(n), n / 2, n as f64);
        let vanished = if cut { vanished_below(h) } else { 0.0 };
        // conj(K_k)^h·scale, None where it vanished; real at DC and Nyquist.
        let multiplier = |k: usize, scale: f64| {
            let response = kernel_response(kernel, k, real.full());
            if response.norm_sqr() < vanished {
                None
            } else if k == 0 || k == m {
                Some(c64(response.re.powf(h as f64) * scale, 0.0))
            } else {
                Some(response.conj().powu(h).scale(scale))
            }
        };
        let zero = Complex64::ZERO;
        let mut z = Vec::new();
        real.forward_rotated(&x[lo..x.len().min(lo + n)], lo % n, &mut z);
        // Position 0 holds bins 0 and n/2, position 1 bin n/4.
        let real_part = |k| multiplier(k, 1.0 / nf).map_or(0.0, |v| v.re);
        let (even, odd) = (z[0].re, z[0].im);
        let (dc, nyquist) = ((even + odd) * real_part(0), (even - odd) * real_part(m));
        z[0] = c64(dc + nyquist, dc - nyquist);
        z[1] = (multiplier(m / 2, 2.0 / nf).unwrap_or(zero) * z[1].conj()).conj();
        // Every other position pairs with its octave mirror.
        for p in 2..m {
            let q = 3 * (1 << p.ilog2()) - 1 - p;
            if q < p {
                continue;
            }
            let k = p.reverse_bits() >> (usize::BITS - m.trailing_zeros());
            let (mk, mm) = (multiplier(k, 0.5 / nf), multiplier(m - k, 0.5 / nf));
            if mk.is_none() && mm.is_none() {
                (z[p], z[q]) = (zero, zero);
                continue;
            }
            let w = real.full().root(k);
            let (xk, xm) = real::split_pair(z[p], z[q], w);
            (z[p], z[q]) = real::merge_pair(xk * mk.unwrap_or(zero), xm * mm.unwrap_or(zero), w);
        }
        real.inverse_positions(&mut z, x.len() + 1 - power_kernel_len(kernel.len(), h), 0)
    }

    /// The correlation with every multiplier paid for, on the transform
    /// `correlate` picks: no vanishing test.
    fn correlate_uncut(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
        correlate_on(x, kernel, h, transform(kernel, h, x.len()), false)
    }

    #[test]
    fn vanished_bins_change_nothing_measurable() {
        // Two lattice-like kernels, whose response dies away from DC, and one
        // with K(π) = 0.49 − 0.02 + 0.49 = −0.96: the middle of the band
        // vanishes while a band around Nyquist survives, so a cut "above some
        // k" would be wrong there.  (The same kernels and heights run against
        // the stepped backend in `amopt-stencil`'s `advance` tests.)
        let kernels = [&[0.4999, 0.4998][..], &[0.25, 0.4997, 0.25], &[0.49, 0.02, 0.49]];
        for (kernel, len) in kernels.into_iter().zip([4100usize, 8192, 8192]) {
            let x = rand_real(len, 90 + len as u64);
            let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for h in [64u64, 512, 2048] {
                let ctx = format!("{kernel:?} h={h}");
                let (n, cut) = (transform(kernel, h, len).1, vanished_below(h));
                let full = plan(n);
                let dead = (0..=n / 2)
                    .filter(|&k| kernel_response(kernel, k, &full).norm_sqr() < cut)
                    .count();
                assert!(16 * dead > n, "{ctx}: the cut is not exercised, {dead} bins vanish");
                let got = correlate_power_valid(&x, kernel, h);
                let uncut = correlate_uncut(&x, kernel, h);
                assert_rows_close(&got, &uncut, 4.0 * f64::EPSILON * peak, &ctx);
            }
        }
    }

    #[test]
    fn a_nyquist_band_survives_a_vanished_middle() {
        // The alternating row is an eigenvector with eigenvalue K(π) = −0.96.
        let kernel = [0.49, 0.02, 0.49];
        let h = 1000u64;
        let mid = kernel_response(&kernel, 1024, &plan(4096)); // K(π/2) = −0.02i
        assert!(mid.norm_sqr() < vanished_below(h));
        let alternating: Vec<f64> =
            (0..4096).map(|j| if j % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let got = correlate_power_valid(&alternating, &kernel, h);
        let want = 0.96f64.powi(h as i32);
        for (c, g) in got.iter().enumerate() {
            let signed = if c % 2 == 0 { want } else { -want };
            assert!((g - signed).abs() < 1e-12 * want, "c={c}: {g} vs {signed}");
        }
    }

    #[test]
    fn a_row_whose_every_multiplier_vanishes_comes_back_as_zeros() {
        // K(0) = 0.6 is the largest response: 0.6^100000 is far below any f64.
        let h = 100_000u64;
        let x = rand_real(h as usize + 1, 12);
        let got = correlate_power_valid(&x, &[0.3, 0.3], h);
        let norm1: f64 = x.iter().map(|v| v.abs()).sum();
        assert_eq!(got.len(), 1);
        assert!(got[0].is_finite() && got[0].abs() <= 1e-300 * norm1, "{}", got[0]);
    }

    #[test]
    fn a_growing_dc_response_is_not_cut() {
        // Tap sum 1.02: the constant row grows by 1.02 per step.
        let kernel = [0.51, 0.51];
        let h = 2000u64;
        let got = correlate_power_valid(&vec![1.0; 4096], &kernel, h);
        let want = 1.02f64.powi(h as i32);
        for g in &got {
            assert!((g - want).abs() < 1e-9 * want, "{g} vs {want}");
        }
    }

    #[test]
    fn reused_scratch_carries_no_state_between_calls() {
        let x = rand_real(301, 5);
        let kernel = [0.3, 0.35, 0.3];
        let fresh = correlate_power_valid(&x, &kernel, 40);
        let mut scratch = FftScratch::default();
        // A larger transform with another kernel first, then a smaller one.
        correlate_power_valid_with(&rand_real(5000, 6), &[0.48, 0.5], 900, &mut scratch);
        correlate_power_valid_with(&rand_real(9, 7), &[0.48, 0.5], 3, &mut scratch);
        let reused = correlate_power_valid_with(&x, &kernel, 40, &mut scratch);
        assert_eq!(fresh, reused);
    }

    /// Each multiplier evaluated in the pointwise pass itself, on every call,
    /// on the transform `correlate` picks: the bits a table must reproduce.
    fn correlate_direct(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
        correlate_on(x, kernel, h, transform(kernel, h, x.len()), true)
    }

    /// [`correlate_direct`] on the whole row's transform, band or none.
    fn correlate_full(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
        correlate_on(x, kernel, h, (0, next_pow2(x.len())), true)
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_kept_table_gives_the_direct_bits_and_is_built_once() {
        // Lattice-like two- and three-tap kernels; a live band at Nyquist
        // behind a vanished middle; K(π) < 0 and K(π) = 0; a growing DC mode.
        // One set serves them all: every kernel meets the `(n, h)` of the
        // kernels before it and must build, and read, a table of its own.
        let kernels: [&[f64]; 7] = [
            &[0.4999, 0.4998],
            &[0.25, 0.4997, 0.25],
            &[0.49, 0.02, 0.49],
            &[0.2, 0.7],
            &[0.5, 0.5],
            &[0.51, 0.51],
            &[0.3, 0.35, 0.3],
        ];
        // Two cells (no transform), n = 4 at h = 1, and on up to heights at
        // which most bins vanish; last, a two-tap kernel's band, which runs
        // at 1 024 points where the row alone would need 8 192.
        let shapes = [
            (2usize, 1u64),
            (3, 1),
            (4, 1),
            (5, 2),
            (64, 1),
            (200, 37),
            (4100, 64),
            (8192, 2048),
            (4160, 4096),
        ];
        let powers = KernelPowers::new();
        let mut scratch = FftScratch::default();
        let mut tables = std::collections::HashSet::new();
        for (i, kernel) in kernels.into_iter().enumerate() {
            let hosted = |&(len, h): &(usize, u64)| power_kernel_len(kernel.len(), h) <= len;
            for (len, h) in shapes.into_iter().filter(hosted) {
                let ctx = format!("{kernel:?} len={len} h={h}");
                let x = rand_real(len, 60 + i as u64 + len as u64);
                let first = bits(&powers.correlate(&x, len, kernel, h, &mut scratch, 0));
                if len > 2 {
                    tables.insert((i, transform(kernel, h, len).1, h));
                    assert_eq!(first, bits(&correlate_direct(&x, kernel, h)), "{ctx}");
                }
                assert_eq!(powers.tables_built(), tables.len(), "{ctx}: one build per first use");
                let again =
                    bits(&powers.correlate(&rand_real(len, 3), len, kernel, h, &mut scratch, 0));
                assert_eq!(
                    powers.tables_built(),
                    tables.len(),
                    "{ctx}: a second use builds nothing"
                );
                assert_eq!(again, bits(&correlate_power_valid(&rand_real(len, 3), kernel, h)));
                assert_eq!(
                    first,
                    bits(&powers.correlate(&x, len, kernel, h, &mut scratch, 0)),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn a_first_use_raced_on_any_pool_width_gives_the_same_bits() {
        // 2¹⁶ cells: tables of 513 bitmap words, whose build forks.
        let x = rand_real(1 << 16, 13);
        for (kernel, h) in [(&[0.48, 0.5][..], 64u64), (&[0.49, 0.02, 0.49], 700)] {
            let want = bits(&correlate_direct(&x, kernel, h));
            for threads in [1, 2, 3] {
                let powers = KernelPowers::new();
                let use_it = || {
                    bits(&powers.correlate(&x, x.len(), kernel, h, &mut FftScratch::default(), 0))
                };
                let (a, b) = amopt_parallel::run_with_threads(threads, || {
                    amopt_parallel::join(use_it, use_it)
                });
                assert_eq!(a, want, "{kernel:?} on {threads} threads");
                assert_eq!(b, want, "{kernel:?} on {threads} threads");
                assert!((1..=2).contains(&powers.tables_built()), "{threads} threads");
                assert_eq!(use_it(), want, "{kernel:?}: the kept table");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_a_single_bit() {
        // 2¹⁶ cells: the half-length transform is at the size where the
        // butterfly passes and the pointwise pass fork.
        let x = rand_real(1 << 16, 11);
        for (kernel, h) in [(&[0.48, 0.5][..], 5000u64), (&[0.3, 0.35, 0.3], 2500)] {
            let on = |threads| {
                amopt_parallel::run_with_threads(threads, || correlate_power_valid(&x, kernel, h))
            };
            let one = on(1);
            assert_eq!(one, on(2));
            assert_eq!(one, on(3));
            assert_eq!(one, correlate_power_valid(&x, kernel, h), "default pool");
            // and it is the right row: spot-check against explicit taps
            let taps = kernel_power_taps(kernel, h);
            for c in [0usize, 1, 30_000, (1 << 16) - taps.len()] {
                let want: f64 = taps.iter().zip(&x[c..]).map(|(w, v)| w * v).sum();
                assert!((one[c] - want).abs() < 1e-10, "c={c}: {} vs {want}", one[c]);
            }
        }
    }

    /// The band's kernels: a discounted two-tap (binomial) kernel, a
    /// Boyle-like three-tap one, one whose response stays live at Nyquist,
    /// and one whose mass exceeds 1.
    const BAND_KERNELS: [&[f64]; 4] =
        [&[0.4999, 0.4998], &[0.25, 0.4997, 0.25], &[0.49, 0.02, 0.49], &[0.51, 0.51]];

    /// `max(1, s^h)`: how far a power of a kernel of mass `s` can grow a row.
    fn growth(kernel: &[f64], h: u64) -> f64 {
        kernel.iter().sum::<f64>().powf(h as f64).max(1.0)
    }

    #[test]
    fn a_power_kernel_weighs_at_most_tau_outside_its_band() {
        // The stepped taps of a nonnegative kernel are sums of nonnegative
        // products, the far tails their own values.  Taps taken by FFT
        // powering carry rounding of about ε times the bump's peak, of either
        // sign: for [0.4999, 0.4998] at h = 4 096, 2 297 of them were
        // negative and 1.8e-13 lay outside the band.
        for kernel in BAND_KERNELS {
            let mass: f64 = kernel.iter().sum();
            for h in [1u64, 7, 64, 512, 4096] {
                let taps = kernel_power_taps(kernel, h);
                assert!(taps.iter().all(|&t| t >= 0.0), "{kernel:?} h={h}: a negative tap");
                let (lo, hi) = band(kernel, h).expect("a nonnegative kernel has a band");
                assert!(lo % 2 == 0 && lo <= hi && hi < taps.len(), "{kernel:?} h={h}");
                let outside: f64 = taps[..lo].iter().chain(&taps[hi + 1..]).sum();
                let bound = VANISHED * mass.powf(h as f64).min(1.0);
                assert!(outside <= bound, "{kernel:?} h={h}: {outside:e} outside [{lo}, {hi}]");
                if h == 4096 {
                    assert!(
                        2 * (hi - lo) < taps.len(),
                        "{kernel:?}: the band [{lo}, {hi}] is wide"
                    );
                }
            }
        }
    }

    #[test]
    fn banded_correlations_change_nothing_measurable() {
        // Rows a few cells wider than the power kernel, the deep recursion's
        // shape: the band shrinks the transform two- to eight-fold.
        for kernel in BAND_KERNELS {
            for (h, spare) in [(512u64, 1usize), (512, 64), (4096, 1), (4096, 64), (4096, 700)] {
                let len = power_kernel_len(kernel.len(), h) + spare - 1;
                let ctx = format!("{kernel:?} h={h} len={len}");
                let n = transform(kernel, h, len).1;
                assert!(n < next_pow2(len), "{ctx}: the band is not used");
                let x = rand_real(len, 70 + h + spare as u64);
                let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let got = correlate_power_valid(&x, kernel, h);
                assert_eq!(bits(&got), bits(&correlate_direct(&x, kernel, h)), "{ctx}");
                // The two transforms round differently, each by about the
                // h·ε the h-th power of a multiplier carries; the dropped
                // taps weigh below τ = 1e-40.
                let tol = h as f64 * f64::EPSILON * peak * growth(kernel, h);
                assert_rows_close(&got, &correlate_full(&x, kernel, h), tol, &ctx);
            }
        }
    }

    #[test]
    fn without_a_shrinking_band_the_bits_are_the_full_transforms() {
        // A negative tap has no band; a row much wider than its kernel's
        // band needs the full transform anyway.
        let negative: &[f64] = &[0.5, 0.5001, -0.0002];
        let cases =
            [(negative, 4096u64, 8256usize), (negative, 64, 4100), (BAND_KERNELS[1], 512, 8192)];
        for (kernel, h, len) in cases {
            let ctx = format!("{kernel:?} h={h} len={len}");
            assert_eq!(transform(kernel, h, len), (0, next_pow2(len)), "{ctx}");
            let x = rand_real(len, 80 + h);
            let got = bits(&correlate_power_valid(&x, kernel, h));
            assert_eq!(got, bits(&correlate_full(&x, kernel, h)), "{ctx}");
        }
    }

    #[test]
    fn zero_extended_input_is_the_materialised_row_bit_for_bit() {
        // Stored cells empty, shorter than the band's first cell, of odd
        // length (a lone last sample packs with a zero partner), and the
        // whole row; two- and three-tap kernels, whose powers have a band at
        // the taller heights, and one with a negative tap, which has none.
        let kernels: [&[f64]; 3] =
            [&[0.4999, 0.4998], &[0.25, 0.4997, 0.25], &[0.5, 0.5001, -0.0002]];
        let powers = KernelPowers::new();
        let mut scratch = FftScratch::default();
        for kernel in kernels {
            for h in [1u64, 3, 64, 1024] {
                let lo = band(kernel, h).map_or(0, |(lo, _)| lo);
                for extra in [0usize, 1, 64, 700] {
                    let len = power_kernel_len(kernel.len(), h) + extra;
                    let row = rand_real(len, h + extra as u64);
                    let odd = (len / 3) | 1;
                    for stored in [0, lo.saturating_sub(1), odd, len] {
                        let ctx = format!("{kernel:?} h={h} len={len} stored={stored} lo={lo}");
                        let mut materialised = row[..stored].to_vec();
                        materialised.resize(len, 0.0);
                        let want = correlate_power_valid(&materialised, kernel, h);
                        for spare in [0usize, 9] {
                            let got = powers.correlate(
                                &row[..stored],
                                len,
                                kernel,
                                h,
                                &mut scratch,
                                spare,
                            );
                            assert_eq!(bits(&got), bits(&want), "{ctx}");
                            assert!(
                                got.capacity() >= got.len() + spare,
                                "{ctx}: no room to append"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn correlate_power_valid_h_zero_is_identity() {
        let x = rand_real(10, 3);
        assert_eq!(correlate_power_valid(&x, &[0.5, 0.5], 0), x);
    }

    #[test]
    fn correlate_power_valid_single_tap_kernel() {
        let x = rand_real(8, 4);
        let got = correlate_power_valid(&x, &[0.9], 10);
        for (g, xv) in got.iter().zip(&x) {
            assert!((g - xv * 0.9f64.powi(10)).abs() < 1e-12);
        }
    }

    #[test]
    fn huge_power_does_not_blow_up() {
        // ‖kernel‖₁ < 1 ⇒ the evolved row must decay, never explode/NaN.
        let kernel = [0.4, 0.55];
        let x = vec![1.0; 4000];
        let got = correlate_power_valid(&x, &kernel, 2000);
        assert_eq!(got.len(), 2000);
        for &v in &got {
            assert!(v.is_finite());
            assert!(v.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn valid_mode_rejects_short_input() {
        correlate_power_valid(&[1.0, 2.0, 3.0], &[0.5, 0.5], 5);
    }
}
