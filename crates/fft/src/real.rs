//! Real-input transform: a length-`n` real row through one `n/2`-point
//! complex FFT.
//!
//! Neighbouring samples share a complex point, `z_j = x_{2j} + i·x_{2j+1}`
//! for `j < m = n/2`, so `Z = FFT_m(z)` carries the spectra `E`, `O` of the
//! even and the odd samples as `Z_k = E_k + i·O_k`.  Both belong to real
//! sequences, hence `conj(Z_{m−k}) = E_k − i·O_k`, and one pair of packed
//! bins yields one pair of bins of the length-`n` DFT `X` of `x`:
//!
//! `X_k = E_k + w^k·O_k`,  `X_{m−k} = conj(E_k − w^k·O_k)`,  `w = e^{−2πi/n}`.
//!
//! That is bins `0 … n/2`; bins `n/2+1 … n−1` are their conjugates and are
//! never formed.  `X_0 = Re Z_0 + Im Z_0` and `X_{n/2} = Re Z_0 − Im Z_0` are
//! real, and bin `n/4` pairs with itself (`X_{n/4} = conj(Z_{n/4})`).  The
//! inverse solves the same two equations for `E_k`, `O_k` and runs the
//! `n/2`-point inverse transform, which leaves the real row interleaved in
//! the real and imaginary parts.

use crate::complex::{c64, Complex64};
use crate::radix2::{self, Fft};
use std::sync::Arc;

/// Bin pairs one task of [`RealFft::map_bins`] handles; longer ranges fork.
/// A pair costs what its multiplier does.  In a kernel-power correlation the
/// multipliers come from a table evaluated once per size and height
/// (`convolve::KernelPowers`, whose build forks on its own), so a pair is
/// cheap and uniform: a bitmap test, and a load and a complex product where
/// the bin is live — a few nanoseconds, which makes 1 024 pairs a task of a
/// few microseconds, a few forks' worth.  The value was measured while the
/// powers were still taken in this pass (a hundred nanoseconds and more per
/// live pair): on `deep_lattice`, 2 cores, 15 s runs interleaved, medians of
/// 5–6, 256, 512 and 1 024 pairs read 9.09, 9.21 and 9.19 options/s (flat);
/// 2 048, 4 096 and 8 192 read 8.97, 8.78 and 8.57.
const PAIR_GRAIN: usize = 1024;

/// Transform of real rows of one power-of-two length `n ≥ 4`.
///
/// [`forward`](Self::forward) leaves the *packed spectrum* — `n/2` complex
/// points carrying bins `0 … n/2` — in the caller's buffer,
/// [`map_bins`](Self::map_bins) rewrites those bins in place, and
/// [`inverse`](Self::inverse) returns to the real row.
#[derive(Debug)]
pub struct RealFft {
    /// The `n/2`-point transform the packed row goes through.
    half: Arc<Fft>,
    /// The length-`n` plan, read only for its twiddles `e^{−2πik/n}`.
    full: Arc<Fft>,
}

impl RealFft {
    /// Plans for rows of length `n`, through the process-wide plan cache.
    ///
    /// # Panics
    /// If `n` is not a power of two or is below 4.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "real FFT size must be a power of two ≥ 4, got {n}");
        RealFft { half: radix2::plan(n / 2), full: radix2::plan(n) }
    }

    /// The length-`n` plan, whose roots of unity `e^{−2πij/n}` the split and
    /// merge passes read.
    #[inline]
    pub fn full(&self) -> &Fft {
        &self.full
    }

    /// Packs `x`, zero-padded to `n`, into `buf` (resized to `n/2` points)
    /// and transforms it: `buf` then holds the packed spectrum of `x`.
    ///
    /// # Panics
    /// If `x` is longer than `n`.
    pub fn forward(&self, x: &[f64], buf: &mut Vec<Complex64>) {
        // amopt-lint: hot-path
        pack(x, self.half.len(), buf);
        self.half.forward(buf);
    }

    /// Replaces every bin `X_k`, `k ∈ [0, n/2]`, of a packed spectrum by
    /// `f(k, X_k)`, in one pass: each pair of packed points is split into its
    /// two bins, mapped, and merged back.  Bins are visited in no particular
    /// order and, past a thousand pairs, on several threads.  `X_0` and
    /// `X_{n/2}` are real: they arrive with a zero imaginary part, and only
    /// the real part of what `f` returns for them is kept (conjugate symmetry
    /// admits no other).
    pub fn map_bins(&self, z: &mut [Complex64], f: impl Fn(usize, Complex64) -> Complex64 + Sync) {
        // amopt-lint: hot-path
        let m = self.half.len();
        assert_eq!(z.len(), m, "packed spectrum of {} points != n/2 = {m}", z.len());
        let (even, odd) = (z[0].re, z[0].im);
        let dc = f(0, c64(even + odd, 0.0)).re;
        let nyquist = f(m, c64(even - odd, 0.0)).re;
        z[0] = c64(0.5 * (dc + nyquist), 0.5 * (dc - nyquist));
        let (lo, hi) = z.split_at_mut(m / 2);
        hi[0] = f(m / 2, hi[0].conj()).conj();
        self.map_pairs(&mut lo[1..], &mut hi[1..], 1, &f);
    }

    /// [`map_bins`](Self::map_bins) over the bin pairs `(k, n/2 − k)` for
    /// `k = k0 … k0 + lo.len() − 1`: `lo` holds the packed points `Z_k` in
    /// rising order of `k`, `hi` their partners `Z_{n/2−k}`, which therefore
    /// run backwards.  Ranges longer than [`PAIR_GRAIN`] fork in halves.
    fn map_pairs<F>(&self, lo: &mut [Complex64], hi: &mut [Complex64], k0: usize, f: &F)
    where
        F: Fn(usize, Complex64) -> Complex64 + Sync,
    {
        // amopt-lint: hot-path
        let (m, pairs) = (self.half.len(), lo.len());
        if pairs <= PAIR_GRAIN {
            for (i, (zk, zm)) in lo.iter_mut().zip(hi.iter_mut().rev()).enumerate() {
                let k = k0 + i;
                let w = self.full.twiddle(k);
                let (xk, xm) = split_pair(*zk, *zm, w);
                (*zk, *zm) = merge_pair(f(k, xk), f(m - k, xm), w);
            }
        } else {
            let mid = pairs / 2;
            let (lo_head, lo_tail) = lo.split_at_mut(mid);
            let (hi_tail, hi_head) = hi.split_at_mut(pairs - mid);
            amopt_parallel::join(
                || self.map_pairs(lo_head, hi_head, k0, f),
                || self.map_pairs(lo_tail, hi_tail, k0 + mid, f),
            );
        }
    }

    /// Inverse of [`forward`](Self::forward): transforms the packed spectrum
    /// in `buf` back (normalised) and returns the first `out_len` samples of
    /// the real row.
    ///
    /// # Panics
    /// If `out_len > n`.
    pub fn inverse(&self, buf: &mut [Complex64], out_len: usize) -> Vec<f64> {
        // amopt-lint: hot-path
        self.half.inverse(buf);
        unpack(buf, out_len)
    }

    /// Bins `0 … n/2` of the DFT of `x` zero-padded to `n`, as a vector.
    pub fn spectrum(&self, x: &[f64]) -> Vec<Complex64> {
        let mut buf = Vec::new();
        self.forward(x, &mut buf);
        let m = buf.len();
        let mut bins = vec![Complex64::ZERO; m + 1];
        bins[0] = c64(buf[0].re + buf[0].im, 0.0);
        bins[m] = c64(buf[0].re - buf[0].im, 0.0);
        bins[m / 2] = buf[m / 2].conj();
        for k in 1..m / 2 {
            (bins[k], bins[m - k]) = split_pair(buf[k], buf[m - k], self.full.twiddle(k));
        }
        bins
    }
}

/// `z_j = x_{2j} + i·x_{2j+1}` for `j < m`; samples past the end of `x` are
/// zero (a lone last sample packs with a zero imaginary part).
fn pack(x: &[f64], m: usize, buf: &mut Vec<Complex64>) {
    // amopt-lint: hot-path
    assert!(x.len() <= 2 * m, "row of {} samples longer than transform size {}", x.len(), 2 * m);
    let pairs = x.chunks_exact(2);
    let last = pairs.remainder().first().map(|&v| c64(v, 0.0));
    buf.clear();
    buf.extend(pairs.map(|p| c64(p[0], p[1])).chain(last));
    buf.resize(m, Complex64::ZERO);
}

/// The first `out_len` of the samples `Re z_0, Im z_0, Re z_1, …`.
fn unpack(z: &[Complex64], out_len: usize) -> Vec<f64> {
    // amopt-lint: hot-path
    assert!(out_len <= 2 * z.len(), "{out_len} samples asked of a row of {}", 2 * z.len());
    // amopt-lint: allow(hot-path-alloc) -- the one output row of a transform, kept by the caller
    z.iter().flat_map(|v| [v.re, v.im]).take(out_len).collect()
}

/// Bins `(X_k, X_{m−k})` from packed points `(Z_k, Z_{m−k})`, `w = e^{−2πik/n}`.
#[inline]
fn split_pair(zk: Complex64, zm: Complex64, w: Complex64) -> (Complex64, Complex64) {
    // amopt-lint: hot-path
    let even = (zk + zm.conj()).scale(0.5);
    let i_odd = (zk - zm.conj()).scale(0.5);
    let t = w * c64(i_odd.im, -i_odd.re);
    (even + t, (even - t).conj())
}

/// Packed points `(Z_k, Z_{m−k})` from bins `(X_k, X_{m−k})`: the inverse of
/// [`split_pair`].
#[inline]
fn merge_pair(xk: Complex64, xm: Complex64, w: Complex64) -> (Complex64, Complex64) {
    // amopt-lint: hot-path
    let even = (xk + xm.conj()).scale(0.5);
    let odd = w.conj() * (xk - xm.conj()).scale(0.5);
    let i_odd = c64(-odd.im, odd.re);
    (even + i_odd, (even - i_odd).conj())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::{tests::dft_naive, Direction};

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| next()).collect()
    }

    #[test]
    fn bins_match_the_naive_dft_at_every_size() {
        // Odd, even and full-length rows, from the smallest plan (no bin
        // pairs at all at n = 4) to one with 2 047 of them.
        for (p, len) in [(2u32, 3usize), (2, 4), (3, 5), (4, 16), (6, 41), (8, 256), (12, 3001)] {
            let n = 1usize << p;
            let x = rand_real(len, n as u64 + len as u64);
            let got = RealFft::new(n).spectrum(&x);
            let mut padded: Vec<Complex64> = x.iter().map(|&v| Complex64::from(v)).collect();
            padded.resize(n, Complex64::ZERO);
            let want = dft_naive(&padded, Direction::Forward);
            assert_eq!(got.len(), n / 2 + 1);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (*g - *w).abs() < 1e-12 * n as f64,
                    "n={n} len={len} k={k}: {g:?} vs {w:?}"
                );
            }
            assert_eq!(got[0].im, 0.0);
            assert_eq!(got[n / 2].im, 0.0);
        }
    }

    #[test]
    fn inverse_of_forward_is_the_identity() {
        for (n, len) in
            [(4usize, 4usize), (4, 3), (8, 7), (64, 50), (4096, 4095), (1 << 15, 1 << 15)]
        {
            let x = rand_real(len, 9 + n as u64);
            let real = RealFft::new(n);
            let mut buf = Vec::new();
            real.forward(&x, &mut buf);
            assert_eq!(buf.len(), n / 2);
            real.map_bins(&mut buf, |_, v| v);
            let back = real.inverse(&mut buf, len);
            assert_eq!(back.len(), len);
            for (b, v) in back.iter().zip(&x) {
                assert!((b - v).abs() < 1e-12, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn map_bins_multiplies_spectra_like_a_cyclic_convolution() {
        // Multiplying by the spectrum of a delayed impulse rotates the row.
        let n = 32;
        let x = rand_real(n, 77);
        let real = RealFft::new(n);
        let mut delay = vec![0.0; n];
        delay[5] = 1.0;
        let shift = real.spectrum(&delay);
        let mut buf = Vec::new();
        real.forward(&x, &mut buf);
        real.map_bins(&mut buf, |k, v| v * shift[k]);
        let got = real.inverse(&mut buf, n);
        for (j, g) in got.iter().enumerate() {
            assert!((g - x[(j + n - 5) % n]).abs() < 1e-13, "j={j}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two ≥ 4")]
    fn rejects_sizes_without_a_half_transform() {
        RealFft::new(2);
    }
}
