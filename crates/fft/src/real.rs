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
//!
//! A correlation never puts the packed bins in order.  Its forward transform
//! leaves them in *position order* — position `p` holds `Z_{rev(p)}`, `rev`
//! reversing the `log₂ m` bits (`radix2`) — and its inverse takes them back
//! from there.  Position 0 holds `Z_0` (bins 0 and `n/2`), position 1 holds
//! `Z_{m/2}` (bin `n/4`), and in each octave `[2ʲ, 2ʲ⁺¹)`, `j ≥ 1`,
//! positions `p` and `3·2ʲ − 1 − p` hold `Z_k` and `Z_{m−k}`: the octave
//! mirror.  The pairs a split needs are thus the two halves of each octave,
//! the upper one read backwards, and `octave_pairs` walks them in order
//! from both ends.  Pair *slots* number the pairs in that walk: slot
//! `2ʲ⁻¹ − 1 + i` is the pair at position `2ʲ + i`.

use crate::complex::{c64, Complex64};
use crate::radix2::{self, Fft};
use std::sync::Arc;

/// Bin pairs one task of a pass over a packed spectrum handles; longer runs
/// fork.  In a kernel-power correlation the multipliers come from a table
/// built once per kernel, size and height for a whole pricing or batch
/// group (`convolve::KernelPowers`, whose build forks on its own), so a pair
/// is cheap and uniform: a bitmap test, and where the pair is live a split,
/// two complex products and a merge — a few nanoseconds, which makes 1 024
/// pairs a task of a few microseconds, a few forks' worth.  The value was
/// measured while the powers were still taken in this pass (a hundred
/// nanoseconds and more per live pair): on `deep_lattice`, 2 cores, 15 s
/// runs interleaved, medians of 5–6, 256, 512 and 1 024 pairs read 9.09,
/// 9.21 and 9.19 options/s (flat); 2 048, 4 096 and 8 192 read 8.97, 8.78
/// and 8.57.
const PAIR_GRAIN: usize = 1024;

/// Transform of real rows of one power-of-two length `n ≥ 4`, in position
/// order only: [`forward_rotated`](Self::forward_rotated) leaves the *packed
/// spectrum* — `n/2` complex points carrying bins `0 … n/2` — in the
/// caller's buffer, the caller splits and merges its bin pairs in place
/// (`octave_pairs`, `split_pair`, `merge_pair`), and
/// [`inverse_positions`](Self::inverse_positions) returns to the real row.
#[derive(Debug)]
pub(crate) struct RealFft {
    /// The `n/2`-point transform the packed row goes through.
    half: Arc<Fft>,
    /// The length-`n` plan, read only for its roots `e^{−2πik/n}`.
    full: Arc<Fft>,
}

impl RealFft {
    /// Plans for rows of length `n`, through the process-wide plan cache.
    ///
    /// # Panics
    /// If `n` is not a power of two or is below 4.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "real FFT size must be a power of two ≥ 4, got {n}");
        RealFft { half: radix2::plan(n / 2), full: radix2::plan(n) }
    }

    /// The length-`n` plan, whose roots of unity `e^{−2πij/n}` the split and
    /// merge passes read.
    #[inline]
    pub(crate) fn full(&self) -> &Fft {
        &self.full
    }

    /// The packed spectrum of `x` rotated cyclically, in position order:
    /// sample `i` of `x` goes to slot `(i + shift) mod n` of the zero-padded
    /// row.  The shift is even, so neighbouring samples still share a packed
    /// point.
    ///
    /// # Panics
    /// If `x` is longer than `n`, or `shift` is odd or not below `n`.
    pub(crate) fn forward_rotated(&self, x: &[f64], shift: usize, buf: &mut Vec<Complex64>) {
        // amopt-lint: hot-path
        pack(x, shift, self.half.len(), buf);
        self.half.forward_bit_reversed(buf);
    }

    /// The first `out_len` samples of the real row whose packed spectrum
    /// `buf` holds in position order, times `n/2`: the inverse transform
    /// without its `1/(n/2)`, which a correlation's multipliers carry.  The
    /// row has room for `spare` more samples, which its caller appends.
    ///
    /// # Panics
    /// If `out_len > n`.
    pub(crate) fn inverse_positions(
        &self,
        buf: &mut [Complex64],
        out_len: usize,
        spare: usize,
    ) -> Vec<f64> {
        // amopt-lint: hot-path
        self.half.inverse_bit_reversed(buf);
        unpack(buf, out_len, spare)
    }
}

/// Calls `f(s0, lo, hi)` on runs of the bin pairs of a packed spectrum `z`
/// in position order (module docs): `lo` holds the points from position `p`
/// on in rising order, `hi` their octave-mirror partners, which therefore
/// run backwards, and `s0` is the slot of `lo[0]`'s pair.  Positions 0 and
/// 1, which pair with no other, are the caller's.  Octaves longer than
/// [`PAIR_GRAIN`] pairs fork in halves.
pub(crate) fn octave_pairs<F>(z: &mut [Complex64], f: &F)
where
    F: Fn(usize, &mut [Complex64], &mut [Complex64]) + Sync,
{
    // amopt-lint: hot-path
    let mut octave = 2;
    while octave < z.len() {
        let (lo, hi) = z[octave..2 * octave].split_at_mut(octave / 2);
        pair_runs(lo, hi, octave / 2 - 1, f);
        octave *= 2;
    }
}

/// The position of the lower point of the pair in slot `s`: `2ʲ + i` for
/// slot `2ʲ⁻¹ − 1 + i`.
pub(crate) fn slot_position(s: usize) -> usize {
    let o = s + 1;
    o + (1 << o.ilog2())
}

/// The bin `rev(p)` that position `p` of a packed spectrum of `m ≥ 2`
/// points holds in position order.
pub(crate) fn bin_at(p: usize, m: usize) -> usize {
    p.reverse_bits() >> (usize::BITS - m.trailing_zeros())
}

/// `f(k0, lo, hi)` on `lo` and its partners `hi` (running backwards), or
/// on matching halves of them, forked, if longer than [`PAIR_GRAIN`]; `k0`
/// counts the pairs from `lo[0]`'s.
fn pair_runs<F>(lo: &mut [Complex64], hi: &mut [Complex64], k0: usize, f: &F)
where
    F: Fn(usize, &mut [Complex64], &mut [Complex64]) + Sync,
{
    // amopt-lint: hot-path
    let pairs = lo.len();
    if pairs <= PAIR_GRAIN {
        f(k0, lo, hi);
    } else {
        let mid = pairs / 2;
        let (lo_head, lo_tail) = lo.split_at_mut(mid);
        let (hi_tail, hi_head) = hi.split_at_mut(pairs - mid);
        amopt_parallel::join(
            || pair_runs(lo_head, hi_head, k0, f),
            || pair_runs(lo_tail, hi_tail, k0 + mid, f),
        );
    }
}

/// `z_j = y_{2j} + i·y_{2j+1}` for `j < m`, where `y` is `x` zero-padded to
/// `n = 2m` and rotated by the even `shift`: the samples of `x` that pass
/// slot `n − 1` wrap to slot 0, and a lone last sample of a run packs with a
/// zero imaginary part.
fn pack(x: &[f64], shift: usize, m: usize, buf: &mut Vec<Complex64>) {
    // amopt-lint: hot-path
    assert!(x.len() <= 2 * m, "row of {} samples longer than transform size {}", x.len(), 2 * m);
    assert!(
        shift.is_multiple_of(2) && shift < 2 * m,
        "shift {shift} is odd or not below {}",
        2 * m
    );
    let (head, wrapped) = x.split_at(x.len().min(2 * m - shift));
    buf.clear();
    buf.extend(pairs(wrapped));
    buf.resize(shift / 2, Complex64::ZERO);
    buf.extend(pairs(head));
    buf.resize(m, Complex64::ZERO);
}

/// `x` two samples to a point, a lone last one with a zero imaginary part.
fn pairs(x: &[f64]) -> impl Iterator<Item = Complex64> + '_ {
    let pairs = x.chunks_exact(2);
    let last = pairs.remainder().first().map(|&v| c64(v, 0.0));
    pairs.map(|p| c64(p[0], p[1])).chain(last)
}

/// The first `out_len` of the samples `Re z_0, Im z_0, Re z_1, …`, in one
/// allocation with room for `spare` samples more.
fn unpack(z: &[Complex64], out_len: usize, spare: usize) -> Vec<f64> {
    // amopt-lint: hot-path
    assert!(out_len <= 2 * z.len(), "{out_len} samples asked of a row of {}", 2 * z.len());
    // amopt-lint: allow(hot-path-alloc) -- the one output row of a transform, sized once with the caller's spare; the caller keeps it
    let mut out = Vec::with_capacity(out_len + spare);
    out.extend(z.iter().flat_map(|v| [v.re, v.im]).take(out_len));
    out
}

/// Twice the bins `(X_k, X_{m−k})` from packed points `(Z_k, Z_{m−k})`,
/// `w = e^{−2πik/n}`: the split without its halving, which a correlation
/// folds into its multipliers.
#[inline]
pub(crate) fn split_pair(zk: Complex64, zm: Complex64, w: Complex64) -> (Complex64, Complex64) {
    // amopt-lint: hot-path
    let even = zk + zm.conj();
    let i_odd = zk - zm.conj();
    let t = w * c64(i_odd.im, -i_odd.re);
    (even + t, (even - t).conj())
}

/// Twice the packed points `(Z_k, Z_{m−k})` from bins `(X_k, X_{m−k})`: the
/// inverse of [`split_pair`] up to the factor 4 of the two missing halvings.
#[inline]
pub(crate) fn merge_pair(xk: Complex64, xm: Complex64, w: Complex64) -> (Complex64, Complex64) {
    // amopt-lint: hot-path
    let even = xk + xm.conj();
    let odd = w.conj() * (xk - xm.conj());
    let i_odd = c64(-odd.im, odd.re);
    (even + i_odd, (even - i_odd).conj())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::tests::dft_naive;

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| next()).collect()
    }

    /// The pair of positions holding bins `k` and `m − k`, `0 < k < m/2`,
    /// of a packed spectrum of `m` points: `bin_at` is its own inverse.
    fn positions_of(k: usize, m: usize) -> (usize, usize) {
        (bin_at(k, m), bin_at(m - k, m))
    }

    /// Bins `0 … n/2` of the DFT of `x` zero-padded to `n`, each read from
    /// the position-order packed spectrum through `bin_at` and `split_pair`.
    fn spectrum(x: &[f64], n: usize) -> Vec<Complex64> {
        let real = RealFft::new(n);
        let mut z = Vec::new();
        real.forward_rotated(x, 0, &mut z);
        let m = z.len();
        let mut bins = vec![Complex64::ZERO; m + 1];
        bins[0] = c64(z[0].re + z[0].im, 0.0);
        bins[m] = c64(z[0].re - z[0].im, 0.0);
        bins[m / 2] = z[bin_at(m / 2, m)].conj();
        for k in 1..m / 2 {
            let (p, q) = positions_of(k, m);
            let (xk, xm) = split_pair(z[p], z[q], real.full().root(k));
            (bins[k], bins[m - k]) = (xk.scale(0.5), xm.scale(0.5));
        }
        bins
    }

    #[test]
    fn bins_match_the_naive_dft_at_every_size() {
        // Odd, even and full-length rows, from the smallest plan (no bin
        // pairs at all at n = 4) to one with 2 047 of them.
        for (p, len) in [(2u32, 3usize), (2, 4), (3, 5), (4, 16), (6, 41), (8, 256), (12, 3001)] {
            let n = 1usize << p;
            let x = rand_real(len, n as u64 + len as u64);
            let got = spectrum(&x, n);
            let mut padded: Vec<Complex64> = x.iter().map(|&v| Complex64::from(v)).collect();
            padded.resize(n, Complex64::ZERO);
            let want = dft_naive(&padded, false);
            assert_eq!(got.len(), n / 2 + 1);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (*g - *w).abs() < 1e-12 * n as f64,
                    "n={n} len={len} k={k}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn inverse_of_forward_is_the_identity() {
        // Every bin pair split and merged back on the way, as a correlation
        // does with multipliers of one: the merge undoes the split up to the
        // factor 4 of the two halvings it leaves out.
        for (n, len) in
            [(4usize, 4usize), (4, 3), (8, 7), (64, 50), (4096, 4095), (1 << 15, 1 << 15)]
        {
            let x = rand_real(len, 9 + n as u64);
            let real = RealFft::new(n);
            let mut z = Vec::new();
            real.forward_rotated(&x, 0, &mut z);
            let m = z.len();
            assert_eq!(m, n / 2);
            for k in 1..m / 2 {
                let (p, q) = positions_of(k, m);
                let w = real.full().root(k);
                let (xk, xm) = split_pair(z[p], z[q], w);
                let (zk, zm) = merge_pair(xk, xm, w);
                (z[p], z[q]) = (zk.scale(0.25), zm.scale(0.25));
            }
            let back = real.inverse_positions(&mut z, len, 0);
            assert_eq!(back.len(), len);
            for (b, v) in back.iter().zip(&x) {
                assert!((b / m as f64 - v).abs() < 1e-12, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn a_rotated_row_packs_as_the_row_rotated_by_hand() {
        // Wrapped and unwrapped runs of odd and even length, a row that
        // fills the transform, and shifts either side of the row's end.
        for (n, len, shift) in
            [(8usize, 5usize, 0usize), (8, 5, 4), (8, 8, 6), (16, 7, 10), (16, 11, 14), (64, 33, 2)]
        {
            let x = rand_real(len, 31 + shift as u64);
            let mut by_hand = vec![0.0; n];
            for (i, &v) in x.iter().enumerate() {
                by_hand[(i + shift) % n] = v;
            }
            let real = RealFft::new(n);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            real.forward_rotated(&x, shift, &mut got);
            real.forward_rotated(&by_hand, 0, &mut want);
            let bits = |z: &[Complex64]| {
                z.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&want), "n={n} len={len} shift={shift}");
        }
    }

    #[test]
    fn octave_partners_hold_mirrored_bins() {
        // Every pair the walk hands over holds bins k and m − k, in the slot
        // `slot_position` maps to its lower point; positions 0 and 1 hold
        // bins 0 and m/2, and every other position is visited exactly once.
        for p in 1u32..=17 {
            let m = 1usize << p;
            let mut z: Vec<Complex64> =
                (0..m).map(|q| c64(bin_at(q, m) as f64, q as f64)).collect();
            assert_eq!((bin_at(0, m), bin_at(1, m)), (0, m / 2), "m={m}");
            let seen = std::sync::Mutex::new(vec![0u8; m]);
            octave_pairs(&mut z, &|s0, lo, hi| {
                let mut seen = seen.lock().unwrap();
                assert_eq!(lo.len(), hi.len(), "m={m}");
                for (s, (a, b)) in (s0..).zip(lo.iter().zip(hi.iter().rev())) {
                    let (pa, pb) = (a.im as usize, b.im as usize);
                    assert_eq!(a.re as usize + b.re as usize, m, "m={m} positions {pa}, {pb}");
                    assert_eq!(slot_position(s), pa, "m={m} slot {s}");
                    assert_eq!(pb, 3 * (1 << pa.ilog2()) - 1 - pa, "m={m} position {pa}");
                    seen[pa] += 1;
                    seen[pb] += 1;
                }
            });
            let seen = seen.into_inner().unwrap();
            assert!(seen[2..].iter().all(|&v| v == 1) && seen[..2] == [0, 0], "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two ≥ 4")]
    fn rejects_sizes_without_a_half_transform() {
        RealFft::new(2);
    }
}
