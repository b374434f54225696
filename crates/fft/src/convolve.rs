//! FFT-backed convolution and the kernel-power correlation primitive.
//!
//! [`correlate_power_valid`] is the computational heart of the paper: inside
//! an all-red region, `h` steps of a linear stencil with kernel `w` collapse
//! into a single correlation with `W = w^{⊛h}` (the `h`-fold self-convolution
//! of `w`).  Rather than materialising `W`, its spectrum is obtained by
//! pointwise powering `FFT(w)^h` — this is the linear-stencil algorithm of
//! Ahmad et al. (SPAA 2021), reference \[1\] of the paper.
//!
//! The row is real, so it travels as `n/2` complex points
//! ([`RealFft`]: samples `2j`, `2j+1` in one point, one `n/2`-point
//! transform), and only bins `0 … n/2` of its length-`n` spectrum are ever
//! formed: the correlation multiplies bin `k` by `conj(K_k)^h`, a multiplier
//! with the row's own conjugate symmetry, so the upper half of the product
//! is the conjugate of the lower and the packed inverse rebuilds the real
//! output from the lower half alone.
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
//! (`hypot`, `ln`, `exp`, `atan2`, `sin_cos`), each bin tests `|K_k|² <
//! τ^{2/h}` — one `exp` per table, a few flops per bin — and a bin below it
//! gets an exact zero.  With `|X_k| ≤ ‖x‖₁`, the dropped terms of
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
//! The multipliers depend on the kernel, `n` and `h` alone, never on `x`, and
//! the trapezoid engines ask for few of them: every window of a recursion
//! level correlates at that level's size and height, so a pricing issues
//! thousands of correlations over a few dozen distinct `(n, h)`.  A
//! [`KernelPowers`] therefore evaluates each table once — on its first use,
//! with the expressions above, so every bit is what a fresh evaluation
//! gives — and hands it to every later correlation at the same `(n, h)`.  A
//! table keeps only its live bins: a bitmap of bins `0 … n/2` with the count
//! of live bins before each 64-bit word, and the live multipliers in rising
//! `k`; a vanished bin reads back as the exact zero it always was.  At the
//! heights a deep pricing runs that is a few percent of `n/2 + 1` entries.
//! The engines scope one [`KernelPowers`] to one pricing: the tables hold no
//! request's data, but nothing bounds how many distinct `(n, h)` a stream of
//! requests would leave behind, and within one pricing nearly every
//! correlation already finds its table.  [`correlate_power_valid_with`] is
//! the same path with a [`KernelPowers`] of its own, used once.

use crate::complex::{c64, Complex64};
use crate::radix2::{next_pow2, Fft};
use crate::real::RealFft;
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
/// never shrinks; pool instances per worker (e.g. via
/// `amopt_parallel::WorkspacePool`) rather than sharing one.
#[derive(Debug, Default)]
pub struct FftScratch {
    buf: Vec<Complex64>,
}

/// τ: a multiplier `conj(K_k)^h` of magnitude below this is taken as an exact
/// zero and its `powu` is never paid for; the dropped terms together move an
/// output by at most `τ·‖x‖₁` (module comment).
const VANISHED: f64 = 1e-40;

/// Full linear convolution of two real sequences (`len = a + b − 1`).
pub fn linear_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    // Small problems: direct O(ab) beats FFT constants.
    if a.len().min(b.len()) <= 16 || out_len <= 64 {
        let mut out = vec![0.0; out_len];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        return out;
    }
    let real = RealFft::new(next_pow2(out_len));
    let sa = real.spectrum(a);
    let mut buf = Vec::new();
    real.forward(b, &mut buf);
    real.map_bins(&mut buf, |k, v| v * sa[k]);
    real.inverse(&mut buf, out_len)
}

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
    KernelPowers::new(kernel).correlate(x, h, scratch)
}

/// Bitmap words (64 bins each) one task of a table build evaluates; longer
/// ranges fork.  A word costs 64 responses of a few nanoseconds each and a
/// polar power, about fifty, per live bin: 32 words make a task of ten
/// microseconds and more, several forks' worth.
const WORD_GRAIN: usize = 32;

/// The spectrum multipliers `conj(K_k)^h` of one kernel, one table per
/// transform size `n` and height `h`, each evaluated on its first use and
/// kept until this value is dropped (module docs).
///
/// Workers share one by reference.  Two that miss the same table at once
/// both build it, outside the lock, and the first insert wins; the two
/// builds are the same bits, so no output depends on which worker ran what.
#[derive(Debug)]
pub struct KernelPowers<'k> {
    kernel: &'k [f64],
    /// A few dozen per pricing, so found by a scan.
    tables: Mutex<Vec<Arc<PowerTable>>>,
    built: AtomicUsize,
}

impl<'k> KernelPowers<'k> {
    /// An empty set of tables for `kernel`; nothing is allocated until the
    /// first correlation that needs a transform.
    ///
    /// # Panics
    /// If `kernel` is empty.
    pub fn new(kernel: &'k [f64]) -> Self {
        assert!(!kernel.is_empty(), "kernel must have at least one tap");
        KernelPowers { kernel, tables: Mutex::default(), built: AtomicUsize::new(0) }
    }

    /// The kernel whose powers these are.
    pub fn kernel(&self) -> &'k [f64] {
        self.kernel
    }

    /// Tables built so far, counting both builds of a table two workers
    /// raced for.
    pub fn tables_built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// [`correlate_power_valid_with`] of this kernel, with the multipliers
    /// of `(next_pow2(x.len()), h)` read from their table.
    ///
    /// # Panics
    /// If `x` is shorter than `|W|`.
    pub fn correlate(&self, x: &[f64], h: u64, scratch: &mut FftScratch) -> Vec<f64> {
        // amopt-lint: hot-path
        let kernel = self.kernel;
        if h == 0 {
            // amopt-lint: allow(hot-path-alloc) -- h = 0 identity returns a fresh copy; this is the output the caller keeps
            return x.to_vec();
        }
        let w_len = power_kernel_len(kernel.len(), h);
        assert!(
            x.len() >= w_len,
            "input of {} cells cannot host a {}-tap power kernel",
            x.len(),
            w_len
        );
        let out_len = x.len() - w_len + 1;

        if kernel.len() == 1 {
            let s = kernel[0].powi(h.min(i32::MAX as u64) as i32);
            // amopt-lint: allow(hot-path-alloc) -- single output vector per correlation, kept by the caller
            return x[..out_len].iter().map(|&v| v * s).collect();
        }

        let n = next_pow2(x.len());
        if n < 4 {
            // Two cells host one step of a two-tap kernel and nothing else,
            // so the power kernel is the kernel: no transform that small.
            let dot = |c: &[f64]| c.iter().zip(kernel).map(|(v, w)| v * w).sum();
            // amopt-lint: allow(hot-path-alloc) -- single output vector per correlation, kept by the caller
            return x.windows(w_len).map(dot).collect();
        }
        let table = self.table(n, h);
        let buf = &mut scratch.buf;
        table.real.forward(x, buf);
        table.real.map_bins(buf, |k, v| table.apply(k, v));
        table.real.inverse(buf, out_len)
    }

    /// The table of `(n, h)`, built now if no correlation has asked for it
    /// yet.
    fn table(&self, n: usize, h: u64) -> Arc<PowerTable> {
        let find = |tables: &[Arc<PowerTable>]| {
            tables.iter().find(|table| (table.real.full().len(), table.h) == (n, h)).map(Arc::clone)
        };
        if let Some(table) = find(&self.lock()) {
            return table;
        }
        let built = Arc::new(PowerTable::build(self.kernel, n, h));
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

/// The multipliers of one `(n, h)`: bins `0 … n/2`, live ones only.
#[derive(Debug)]
struct PowerTable {
    /// The transform of rows of length `n`, planned once for the table.
    real: RealFft,
    h: u64,
    /// Per 64 bins: bit `k % 64` set when bin `k` is live, and the number of
    /// live bins in the words before.
    live: Vec<(u64, usize)>,
    /// `conj(K_k)^h` of the live bins in rising `k`; at DC and Nyquist the
    /// real `K_k^h` (a zero imaginary part).
    values: Vec<Complex64>,
}

impl PowerTable {
    /// Evaluates every bin's multiplier for rows of length `n`.
    fn build(kernel: &[f64], n: usize, h: u64) -> PowerTable {
        let real = RealFft::new(n);
        let mut live = vec![(0u64, 0usize); (n / 2 + 1).div_ceil(64)];
        let mut values = live_words(kernel, real.full(), h, vanished_below(h), &mut live, 0);
        values.shrink_to_fit();
        let mut total = 0;
        for (word, before) in &mut live {
            *before = total;
            total += word.count_ones() as usize;
        }
        PowerTable { real, h, live, values }
    }

    /// Bin `k` of a spectrum times its multiplier; an exact zero where the
    /// multiplier has vanished.
    #[inline]
    fn apply(&self, k: usize, v: Complex64) -> Complex64 {
        // amopt-lint: hot-path
        let (word, before) = self.live[k / 64];
        let bit = 1u64 << (k % 64);
        if word & bit == 0 {
            return Complex64::ZERO;
        }
        let m = self.values[before + (word & (bit - 1)).count_ones() as usize];
        if k == 0 || 2 * k == self.real.full().len() {
            v.scale(m.re)
        } else {
            v * m
        }
    }
}

/// Sets the bits of the live bins in `words` — bins `64·w0` on — and returns
/// their multipliers in rising `k`; a bin whose `|K_k|²` is below `vanished`
/// stays clear.  Ranges longer than [`WORD_GRAIN`] fork in halves.
fn live_words(
    kernel: &[f64],
    full: &Fft,
    h: u64,
    vanished: f64,
    words: &mut [(u64, usize)],
    w0: usize,
) -> Vec<Complex64> {
    if words.len() > WORD_GRAIN {
        let (head, tail) = words.split_at_mut(words.len() / 2);
        let w1 = w0 + head.len();
        let (mut values, rest) = amopt_parallel::join(
            || live_words(kernel, full, h, vanished, head, w0),
            || live_words(kernel, full, h, vanished, tail, w1),
        );
        values.extend_from_slice(&rest);
        return values;
    }
    let n = full.len();
    let mut values = Vec::new();
    let mut responses = [Complex64::ZERO; 64];
    for (w, (word, _)) in (w0..).zip(words) {
        let bins = 64 * w..(64 * w + 64).min(n / 2 + 1);
        for (b, (k, response)) in bins.zip(&mut responses).enumerate() {
            *response = kernel_response(kernel, k, full);
            let vanishes = response.norm_sqr() < vanished;
            *word |= u64::from(!vanishes) << b;
        }
        values.reserve(word.count_ones() as usize);
        for b in set_bits(*word) {
            let (k, response) = (64 * w + b, responses[b]);
            values.push(if k == 0 || 2 * k == n {
                // Sums of ±w_m: the roots read there are exactly ±1.
                c64(response.re.powf(h as f64), 0.0)
            } else {
                response.conj().powu(h)
            });
        }
    }
    values
}

/// Positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
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

/// Explicit taps of `kernel^{⊛h}` (h-fold self-convolution), computed by
/// FFT powering: the reference the correlation tests compare against.
pub fn kernel_power_taps(kernel: &[f64], h: u64) -> Vec<f64> {
    assert!(!kernel.is_empty());
    if h == 0 {
        return vec![1.0];
    }
    if h == 1 {
        return kernel.to_vec();
    }
    let w_len = power_kernel_len(kernel.len(), h);
    // (A one-tap kernel has a one-tap power; it still needs the smallest plan.)
    let real = RealFft::new(next_pow2(w_len).max(4));
    let mut buf = Vec::new();
    real.forward(kernel, &mut buf);
    real.map_bins(&mut buf, |_, v| v.powu(h));
    real.inverse(&mut buf, w_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::plan;

    fn naive_correlate_valid(x: &[f64], w: &[f64]) -> Vec<f64> {
        let out_len = x.len() + 1 - w.len();
        (0..out_len).map(|c| w.iter().enumerate().map(|(m, &wm)| wm * x[c + m]).sum()).collect()
    }

    fn naive_conv(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        out
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
    fn linear_convolve_matches_naive_small_and_large() {
        for (la, lb, seed) in [(3usize, 5usize, 1u64), (40, 17, 2), (300, 120, 3)] {
            let a = rand_real(la, seed);
            let b = rand_real(lb, seed + 100);
            let got = linear_convolve(&a, &b);
            let want = naive_conv(&a, &b);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "la={la} lb={lb}");
            }
        }
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
    fn kernel_power_taps_by_repeated_convolution() {
        let kernel = [0.2, 0.5, 0.25];
        let mut want = vec![1.0];
        for h in 0..=9u64 {
            let got = kernel_power_taps(&kernel, h);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "h={h}");
            }
            want = naive_conv(&want, &kernel);
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

    /// The correlation with every multiplier paid for: the public transform
    /// pieces and `powu`, no vanishing test.
    fn correlate_uncut(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
        let n = next_pow2(x.len());
        let real = RealFft::new(n);
        let mut buf = Vec::new();
        real.forward(x, &mut buf);
        real.map_bins(&mut buf, |k, v| {
            let response = kernel_response(kernel, k, real.full());
            if k == 0 || 2 * k == n {
                v.scale(response.re.powf(h as f64))
            } else {
                v * response.conj().powu(h)
            }
        });
        real.inverse(&mut buf, x.len() + 1 - power_kernel_len(kernel.len(), h))
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
                let (n, cut) = (next_pow2(len), vanished_below(h));
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

    /// Each multiplier evaluated in the pointwise pass itself, on every call:
    /// the expressions a table must reproduce bit for bit.
    fn correlate_direct(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
        let n = next_pow2(x.len());
        let (real, vanished) = (RealFft::new(n), vanished_below(h));
        let mut buf = Vec::new();
        real.forward(x, &mut buf);
        real.map_bins(&mut buf, |k, v| {
            let response = kernel_response(kernel, k, real.full());
            if response.norm_sqr() < vanished {
                Complex64::ZERO
            } else if k == 0 || 2 * k == n {
                v.scale(response.re.powf(h as f64))
            } else {
                v * response.conj().powu(h)
            }
        });
        real.inverse(&mut buf, x.len() + 1 - power_kernel_len(kernel.len(), h))
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_kept_table_gives_the_direct_bits_and_is_built_once() {
        // Lattice-like two- and three-tap kernels; a live band at Nyquist
        // behind a vanished middle; K(π) < 0 and K(π) = 0; a growing DC mode.
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
        // which most bins vanish.
        let shapes =
            [(2usize, 1u64), (3, 1), (4, 1), (5, 2), (64, 1), (200, 37), (4100, 64), (8192, 2048)];
        for (i, kernel) in kernels.into_iter().enumerate() {
            let powers = KernelPowers::new(kernel);
            let mut scratch = FftScratch::default();
            let mut tables = std::collections::HashSet::new();
            let hosted = |&(len, h): &(usize, u64)| power_kernel_len(kernel.len(), h) <= len;
            for (len, h) in shapes.into_iter().filter(hosted) {
                let ctx = format!("{kernel:?} len={len} h={h}");
                let x = rand_real(len, 60 + i as u64 + len as u64);
                let first = bits(&powers.correlate(&x, h, &mut scratch));
                if len > 2 {
                    tables.insert((next_pow2(len), h));
                    assert_eq!(first, bits(&correlate_direct(&x, kernel, h)), "{ctx}");
                }
                assert_eq!(powers.tables_built(), tables.len(), "{ctx}: one build per first use");
                let again = bits(&powers.correlate(&rand_real(len, 3), h, &mut scratch));
                assert_eq!(
                    powers.tables_built(),
                    tables.len(),
                    "{ctx}: a second use builds nothing"
                );
                assert_eq!(again, bits(&correlate_power_valid(&rand_real(len, 3), kernel, h)));
                assert_eq!(first, bits(&powers.correlate(&x, h, &mut scratch)), "{ctx}");
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
                let powers = KernelPowers::new(kernel);
                let use_it = || bits(&powers.correlate(&x, h, &mut FftScratch::default()));
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
