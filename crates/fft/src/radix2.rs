//! Radix-2 Cooley–Tukey FFT (decimation in time) with cached twiddle tables,
//! run depth first and forked over halves.
//!
//! Sizes must be powers of two (every caller pads to the next one).  Plans
//! are cached process-wide because the trapezoid decomposition of the pricing
//! algorithms requests the same handful of sizes thousands of times.
//!
//! After the bit-reversal permutation, a block of the buffer is transformed
//! by transforming each of its halves and then running the one butterfly
//! pass that combines them; a block of at most `LEAF_LEN` points runs its
//! passes one after another.  These are the butterflies of the textbook
//! pass-by-pass loop in the same arithmetic — only their order differs, so
//! every output bit is that loop's (tested against a copy of it) — and the
//! order is the point: pass by pass, a transform that outgrows a cache level
//! streams the whole buffer through it `log n` times, whereas depth first
//! each block does all its passes at the innermost level that holds it, and
//! only the `log(n / that block)` passes above it reach further out.
//!
//! A block of `PAR_MIN_LEN` points or more transforms its halves under a
//! `join` — each half then lives in one core's L2 rather than being traded
//! between two every pass — and its combining pass forks over runs of
//! `COMBINE_GRAIN` butterfly pairs.  The join tree is fixed by the sizes; the
//! pool only decides which worker runs a node, so no thread count moves a bit.
//!
//! Measured: forward transform, ns per point, pass-by-pass → depth-first,
//! medians of alternating runs on a 2-core Xeon VM (48 KiB L1d and 2 MiB L2 a
//! core).  One thread: 2¹⁰ 7.6 → 7.5, 2¹² 9.8 → 9.5, 2¹⁴ 13.8 → 12.3,
//! 2¹⁶ 17.4 → 15.6, 2¹⁷ 24.1 → 19.2, 2¹⁸ 38.3 → 35.0.  Two workers:
//! 2¹⁴ 13.4 → 12.2, 2¹⁶ 17.4 → 12.5, 2¹⁷ 20.9 → 13.1, 2¹⁸ 28.6 → 19.0.  Of
//! what remains at 2¹⁵–2¹⁷ points, `bit_reverse_permute` is 3.5–4 ns a point
//! — serial, a scattered swap per point — which a decimation-in-frequency
//! forward paired with a decimation-in-time inverse would remove altogether
//! (ROADMAP item 2(d)).

use crate::complex::Complex64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `X_k = Σ_n x_n e^{-2πi nk/N}`.
    Forward,
    /// `x_n = (1/N) Σ_k X_k e^{+2πi nk/N}` (scaling included).
    Inverse,
}

/// Blocks shorter than this are transformed by one worker.  A fork costs
/// about a microsecond (a stolen one a wake-up more), and half of a shorter
/// block is tens of microseconds of butterflies: too little to share.
const PAR_MIN_LEN: usize = 1 << 14;

/// Blocks of at most this many points (16 KiB, a share of one core's L1) run
/// their passes one after another; longer blocks recurse on their halves.
const LEAF_LEN: usize = 1 << 10;

/// Butterfly pairs one task of a combining pass handles; longer runs fork.
const COMBINE_GRAIN: usize = PAR_MIN_LEN / 4;

/// A reusable transform plan for one power-of-two size.
#[derive(Debug)]
pub struct Fft {
    n: usize,
    /// `twiddles[j] = e^{-2πi j / n}` for `j ∈ [0, n/2)`.
    twiddles: Vec<Complex64>,
}

impl Fft {
    /// Builds a plan for size `n`.
    ///
    /// # Panics
    /// If `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "radix-2 FFT size must be a power of two, got {n}");
        let half = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles = (0..half).map(|j| Complex64::cis(step * j as f64)).collect();
        Fft { n, twiddles }
    }

    /// Transform size this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate size-0 plan, which cannot exist; present
    /// to satisfy the `len`/`is_empty` API convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The plan's root of unity `e^{-2πi j / n}`, for `j ∈ [0, n/2)`.
    #[inline]
    pub fn twiddle(&self, j: usize) -> Complex64 {
        self.twiddles[j]
    }

    /// The root of unity `e^{-2πi j / n}` for any `j ∈ [0, n)`, read from the
    /// twiddle table: the lower half as stored, the upper half as its exact
    /// negative (`e^{-πi} = −1`).  A caller reducing an index modulo `n` needs
    /// only `j & (n − 1)`.
    ///
    /// # Panics
    /// If `j ≥ n`, or on the one-point plan, which has no table.
    #[inline]
    pub fn root(&self, j: usize) -> Complex64 {
        // amopt-lint: hot-path
        let half = self.n / 2;
        if j < half {
            self.twiddles[j]
        } else {
            -self.twiddles[j - half]
        }
    }

    /// In-place forward DFT.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.transform(buf, Direction::Forward);
    }

    /// In-place inverse DFT, including the `1/n` normalisation.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.transform(buf, Direction::Inverse);
    }

    /// In-place transform in the given direction.
    pub fn transform(&self, buf: &mut [Complex64], dir: Direction) {
        // amopt-lint: hot-path
        assert_eq!(buf.len(), self.n, "buffer length {} != plan size {}", buf.len(), self.n);
        let inverse = dir == Direction::Inverse;
        if self.n >= PAR_MIN_LEN {
            // The halves fork.  Forking from a pool worker is a deque push;
            // from a thread outside the pool it is a hand-over and a wait.
            // This join moves such a caller's whole transform onto a worker,
            // so it pays one hand-over rather than one per fork (on a worker
            // the join itself is a push and a pop).
            amopt_parallel::join(|| self.passes(buf, inverse), || ());
        } else {
            self.passes(buf, inverse);
        }
    }

    /// Bit reversal, the butterflies and, for the inverse, the scaling.
    fn passes(&self, buf: &mut [Complex64], inverse: bool) {
        // amopt-lint: hot-path
        if self.n <= 1 {
            return;
        }
        bit_reverse_permute(buf);
        self.butterflies(buf, inverse);
        if inverse {
            let scale = 1.0 / self.n as f64;
            amopt_parallel::for_each_chunk_mut(buf, PAR_MIN_LEN / 2, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.scale(scale);
                }
            });
        }
    }

    /// Every butterfly pass of the aligned block `buf` (a power-of-two run of
    /// the bit-reversed buffer), depth first: all passes of each half, then
    /// the one pass that combines them.
    fn butterflies(&self, buf: &mut [Complex64], inverse: bool) {
        // amopt-lint: hot-path
        let block = buf.len();
        if block <= LEAF_LEN {
            let mut len = 1; // half the butterfly block size
            while len < block {
                for b in buf.chunks_exact_mut(2 * len) {
                    let (lo, hi) = b.split_at_mut(len);
                    butterfly_run(lo, hi, 0, &self.twiddles, self.n / (2 * len), inverse);
                }
                len *= 2;
            }
            return;
        }
        let (lo, hi) = buf.split_at_mut(block / 2);
        if block >= PAR_MIN_LEN {
            amopt_parallel::join(
                || self.butterflies(lo, inverse),
                || self.butterflies(hi, inverse),
            );
        } else {
            self.butterflies(lo, inverse);
            self.butterflies(hi, inverse);
        }
        combine(lo, hi, 0, &self.twiddles, self.n / block, inverse);
    }
}

/// One run of a butterfly block: pairs `lo[j]` with `hi[j]` under the
/// twiddle of index `(j0 + j)·stride`, `j0` being the run's offset in its
/// block.
#[inline]
fn butterfly_run(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    j0: usize,
    tw: &[Complex64],
    stride: usize,
    inverse: bool,
) {
    // amopt-lint: hot-path
    for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let mut w = tw[(j0 + j) * stride];
        if inverse {
            w = w.conj();
        }
        let t = w * *h;
        *h = *l - t;
        *l += t;
    }
}

/// The pass that combines two transformed halves `lo`, `hi` of one block.
/// Runs longer than [`COMBINE_GRAIN`] pairs split at matching offsets, so
/// each task owns disjoint memory, and fork.
fn combine(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    j0: usize,
    tw: &[Complex64],
    stride: usize,
    inverse: bool,
) {
    // amopt-lint: hot-path
    if lo.len() <= COMBINE_GRAIN {
        butterfly_run(lo, hi, j0, tw, stride, inverse);
    } else {
        let mid = lo.len() / 2;
        let (l0, l1) = lo.split_at_mut(mid);
        let (h0, h1) = hi.split_at_mut(mid);
        amopt_parallel::join(
            || combine(l0, h0, j0, tw, stride, inverse),
            || combine(l1, h1, j0 + mid, tw, stride, inverse),
        );
    }
}

/// In-place bit-reversal permutation (size must be a power of two).
fn bit_reverse_permute(buf: &mut [Complex64]) {
    // amopt-lint: hot-path
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
}

/// Returns the cached plan for power-of-two size `n`, creating it on first use.
///
/// # Panics
/// If `n` is zero or not a power of two — before the cache is touched, so a
/// bad size costs the caller its own call and nobody else theirs.
pub fn plan(n: usize) -> Arc<Fft> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Fft>>>> = OnceLock::new();
    assert!(n.is_power_of_two(), "radix-2 FFT size must be a power of two, got {n}");
    // Nothing can panic under this lock (lookups and inserts of `Arc`s), so a
    // poisoned guard still holds a valid map.
    let cache =
        || CACHE.get_or_init(Default::default).lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = cache().get(&n) {
        return Arc::clone(plan);
    }
    // Built outside the lock: a first large plan (1.4 ms at n = 2¹⁸) must not
    // stall lookups of other sizes.  Two threads may both build; the first
    // insert wins and both return that one.
    let built = Arc::new(Fft::new(n));
    Arc::clone(cache().entry(n).or_insert(built))
}

/// Convenience: forward transform through the plan cache.
pub fn fft(buf: &mut [Complex64]) {
    plan(buf.len()).forward(buf);
}

/// Convenience: inverse transform (normalised) through the plan cache.
pub fn ifft(buf: &mut [Complex64]) {
    plan(buf.len()).inverse(buf);
}

/// Smallest power of two `≥ n` (and `≥ 1`).
#[inline]
pub(crate) fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::complex::c64;

    /// O(n²) reference DFT.
    pub(crate) fn dft_naive(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
        let n = x.len();
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut out = vec![Complex64::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += v * Complex64::cis(theta);
            }
            *o = if dir == Direction::Inverse { acc.scale(1.0 / n as f64) } else { acc };
        }
        out
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Small deterministic LCG; avoids pulling rand into the unit tests.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| c64(next(), next())).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft(&mut x);
        for v in &x {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut x = vec![Complex64::ONE; 8];
        fft(&mut x);
        assert!((x[0] - c64(8.0, 0.0)).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft_across_sizes() {
        for &n in &[1usize, 2, 4, 8, 32, 128, 256] {
            let x = rand_signal(n, n as u64);
            let mut got = x.clone();
            fft(&mut got);
            let want = dft_naive(&x, Direction::Forward);
            assert!(max_err(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for &n in &[2usize, 64, 1024, 1 << 15] {
            let x = rand_signal(n, 7 + n as u64);
            let mut buf = x.clone();
            fft(&mut buf);
            ifft(&mut buf);
            assert!(max_err(&buf, &x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 512;
        let x = rand_signal(n, 99);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut spec = x.clone();
        fft(&mut spec);
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 256;
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let alpha = c64(0.7, -0.2);
        let mut lhs: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| alpha * x + y).collect();
        fft(&mut lhs);
        let mut fa = a.clone();
        fft(&mut fa);
        let mut fb = b.clone();
        fft(&mut fb);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| alpha * x + y).collect();
        assert!(max_err(&lhs, &rhs) < 1e-9);
    }

    #[test]
    fn large_parallel_size_matches_small_block_composition() {
        // Cross-check a size big enough to trigger the parallel paths against
        // the roundtrip identity and Parseval, which are backend-independent.
        let n = 1 << 16;
        let x = rand_signal(n, 1234);
        let mut buf = x.clone();
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
        ifft(&mut buf);
        assert!(max_err(&buf, &x) < 1e-9);
    }

    #[test]
    fn root_reads_the_table_below_half_and_its_negative_above() {
        for n in [4usize, 64, 4096] {
            let fft = Fft::new(n);
            let step = -2.0 * std::f64::consts::PI / n as f64;
            let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
            for j in 0..n / 2 {
                let lower = fft.root(j);
                assert_eq!(bits(lower), bits(Complex64::cis(step * j as f64)), "n={n} j={j}");
                assert_eq!(bits(fft.root(j + n / 2)), bits(-lower), "n={n} j={j}");
            }
        }
    }

    /// The pass-by-pass loop the depth-first recursion replaced: every pass
    /// over the whole buffer before the next one starts.
    fn iterative_passes(fft: &Fft, buf: &mut [Complex64], inverse: bool) {
        bit_reverse_permute(buf);
        let mut len = 1;
        while len < fft.n {
            let stride = fft.n / (2 * len);
            for b in buf.chunks_exact_mut(2 * len) {
                let (lo, hi) = b.split_at_mut(len);
                for j in 0..len {
                    let w = if inverse {
                        fft.twiddles[j * stride].conj()
                    } else {
                        fft.twiddles[j * stride]
                    };
                    let t = w * hi[j];
                    hi[j] = lo[j] - t;
                    lo[j] += t;
                }
            }
            len *= 2;
        }
        if inverse {
            let scale = 1.0 / fft.n as f64;
            for v in buf.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }

    #[test]
    fn depth_first_passes_are_the_iterative_passes_bit_for_bit() {
        // Below the leaf, the sizes that recurse without forking, and the
        // sizes whose halves and combining passes fork.
        for p in 4u32..=17 {
            // (Not through `plan`: another test needs 2¹⁷ absent from the cache.)
            let fft = Fft::new(1 << p);
            let x = rand_signal(1 << p, 60 + p as u64);
            let bits = |buf: Vec<Complex64>| -> Vec<(u64, u64)> {
                buf.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
            };
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut want = x.clone();
                iterative_passes(&fft, &mut want, dir == Direction::Inverse);
                let want = bits(want);
                let run = || {
                    let mut got = x.clone();
                    fft.transform(&mut got, dir);
                    bits(got)
                };
                for threads in [1, 2, 3] {
                    let got = amopt_parallel::run_with_threads(threads, run);
                    assert!(got == want, "n=2^{p} {dir:?} on {threads} threads");
                }
                assert!(run() == want, "n=2^{p} {dir:?} on the default pool");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        Fft::new(12);
    }

    #[test]
    fn a_rejected_size_does_not_poison_the_plan_cache() {
        // `plan`, `fft` and `ifft` are public: a bad size must fail its own
        // caller and leave the process-wide cache serving everyone else.
        assert!(std::panic::catch_unwind(|| plan(3)).is_err());
        assert!(std::panic::catch_unwind(|| fft(&mut [Complex64::ZERO; 3])).is_err());
        assert_eq!(plan(8).len(), 8);
    }

    #[test]
    fn racing_first_requests_for_a_size_share_one_plan() {
        // 2¹⁷ is a size no other test of this binary plans, so both threads
        // find the cache empty and build outside the lock.
        let n = 1 << 17;
        let start = std::sync::Barrier::new(2);
        let ask = || {
            start.wait();
            plan(n)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(ask);
            (ask(), other.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &plan(n)));
    }

    #[test]
    fn shift_theorem() {
        // x delayed by d ⇒ spectrum multiplied by e^{-2πi k d / n}.
        let n = 128;
        let x = rand_signal(n, 5);
        let d = 13usize;
        let shifted: Vec<Complex64> = (0..n).map(|i| x[(i + n - d) % n]).collect();
        let mut fx = x.clone();
        fft(&mut fx);
        let mut fs = shifted;
        fft(&mut fs);
        for k in 0..n {
            let phase = Complex64::cis(-2.0 * std::f64::consts::PI * (k * d % n) as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-9);
        }
    }
}
