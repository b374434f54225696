//! Power-of-two Cooley–Tukey FFT in radix-4 passes, with cached twiddle
//! tables, run depth first and forked over sub-blocks.
//!
//! Sizes must be powers of two (every caller pads to the next one).  Plans
//! are cached process-wide because the trapezoid decomposition of the pricing
//! algorithms requests the same handful of sizes thousands of times.
//!
//! There are two transforms and no permutation between them.  The forward
//! transform is a decimation in frequency: natural order in, *bit-reversed*
//! order out (position `p` holds bin `rev(p)`).  The inverse is a decimation
//! in time: bit-reversed in, natural out, and unscaled.  A correlation
//! multiplies its spectrum position by position, so it never needs the bins
//! in order; only the natural-order [`Fft::forward`] and [`Fft::inverse`]
//! add the one `bit_reverse_permute` (and the inverse its `1/n`).
//!
//! Each pass is a radix-4 butterfly on four points a quarter block apart:
//! three twiddle multiplies, the `±i` free.  It is two radix-2 passes fused,
//! so the outputs land where those passes would put them and the order stays
//! bit-reversed.  When `log₂ n` is odd, one radix-2 pass runs first in the
//! forward transform (on the whole buffer) and last in the inverse; every
//! block below it then has a power-of-four size, down to the twiddle-free
//! four-point pass.
//!
//! A block of at most `LEAF_LEN` points runs its passes one after another,
//! reading the plan's leaf table: each pass's twiddle triples, contiguous.
//! A longer block runs its one pass and then its sub-blocks (forward), or
//! its sub-blocks and then its pass (inverse), reading its twiddles from the
//! plan's table by stride.  These are the butterflies of the textbook
//! pass-by-pass loop in the same arithmetic — only their order differs, so
//! every output bit is that loop's (tested against one) — and the order is
//! the point: pass by pass, a transform that outgrows a cache level streams
//! the whole buffer through it every pass, whereas depth first each block
//! does all its passes at the innermost level that holds it.
//!
//! A block of `PAR_MIN_LEN` points or more transforms its halves under a
//! `join`, and its own pass forks over runs of `COMBINE_GRAIN` butterflies.
//! The join tree is fixed by the sizes; the pool only decides which worker
//! runs a node, so no thread count moves a bit.
//!
//! Measured: ns per point per transform over a forward–inverse pair, one
//! thread, medians of 5 alternating runs on a 2-core Xeon VM (48 KiB L1d and
//! 2 MiB L2 a core).  In natural order (both permutations and the `1/n`
//! included), radix-2 → radix-4: 2⁶ 9.6 → 7.6, 2⁸ 14.0 → 8.9, 2¹⁰
//! 13.3 → 12.0, 2¹⁴ 22.6 → 17.3, 2¹⁸ 43.9 → 27.3.  Without the
//! permutations, as a correlation runs them (and with a copy of the input
//! put back each pair): 2⁶ 5.4, 2⁸ 6.8, 2¹⁰ 9.5, 2¹⁴ 12.1, 2¹⁸ 21.2.  A
//! warm kernel-power correlation of (cells, height) = (112, 64), (448, 256)
//! and (4 096, 1 024), µs: 2.1 → 1.2, 8.4 → 5.2, 74.7 → 46.6.

use crate::complex::{c64, Complex64};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Blocks shorter than this are transformed by one worker.  A fork costs
/// about a microsecond (a stolen one a wake-up more), and half of a shorter
/// block is tens of microseconds of butterflies: too little to share.
const PAR_MIN_LEN: usize = 1 << 14;

/// Blocks of at most this many points (16 KiB, a share of one core's L1) run
/// their passes one after another; longer blocks recurse on their sub-blocks.
const LEAF_LEN: usize = 1 << 10;

/// Butterflies one task of a longer block's pass handles; longer runs fork.
const COMBINE_GRAIN: usize = PAR_MIN_LEN / 4;

/// A reusable transform plan for one power-of-two size.
#[derive(Debug)]
pub struct Fft {
    n: usize,
    /// `twiddles[j] = e^{-2πi j / n}` for `j ∈ [0, n/2)`.
    twiddles: Vec<Complex64>,
    /// The twiddles of the radix-4 passes of blocks of `L ∈ {4, 16, …} ≤
    /// min(n, LEAF_LEN)` points: from index `(L/4 − 1)/3` on, `(w^j, w^{2j},
    /// w^{3j})` for `j < L/4`, `w = e^{−2πi/L}` — copies of [`Fft::root`]'s
    /// values.
    leaf: Vec<[Complex64; 3]>,
}

impl Fft {
    /// Builds a plan for size `n`.
    ///
    /// # Panics
    /// If `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT size must be a power of two, got {n}");
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles = (0..n / 2).map(|j| Complex64::cis(step * j as f64)).collect();
        let mut plan = Fft { n, twiddles, leaf: Vec::new() };
        let mut block = 4;
        while block <= n.min(LEAF_LEN) {
            let stride = n / block;
            let triple = |j| [j, 2 * j, 3 * j].map(|t| plan.root(t * stride));
            let leaf: Vec<[Complex64; 3]> = (0..block / 4).map(triple).collect();
            plan.leaf.extend(leaf);
            block *= 4;
        }
        plan
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

    /// In-place forward DFT, in natural order.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.forward_bit_reversed(buf);
        bit_reverse_permute(buf);
    }

    /// In-place inverse DFT, in natural order, including the `1/n`
    /// normalisation.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        bit_reverse_permute(buf);
        self.inverse_bit_reversed(buf);
        let scale = 1.0 / self.n as f64;
        amopt_parallel::for_each_chunk_mut(buf, PAR_MIN_LEN / 2, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = v.scale(scale);
            }
        });
    }

    /// In-place forward DFT that leaves bin `rev(p)` at position `p`
    /// (`rev` reverses the `log₂ n` bits).
    pub(crate) fn forward_bit_reversed(&self, buf: &mut [Complex64]) {
        // amopt-lint: hot-path
        self.run::<false>(buf);
    }

    /// In-place inverse DFT of a spectrum holding bin `rev(p)` at position
    /// `p`, *without* the `1/n`: the output is `n` times the signal.
    pub(crate) fn inverse_bit_reversed(&self, buf: &mut [Complex64]) {
        // amopt-lint: hot-path
        self.run::<true>(buf);
    }

    fn run<const INVERSE: bool>(&self, buf: &mut [Complex64]) {
        // amopt-lint: hot-path
        assert_eq!(buf.len(), self.n, "buffer length {} != plan size {}", buf.len(), self.n);
        if self.n >= PAR_MIN_LEN {
            // The halves fork.  Forking from a pool worker is a deque push;
            // from a thread outside the pool it is a hand-over and a wait.
            // This join moves such a caller's whole transform onto a worker,
            // so it pays one hand-over rather than one per fork (on a worker
            // the join itself is a push and a pop).
            amopt_parallel::join(|| self.block::<INVERSE>(buf), || ());
        } else {
            self.block::<INVERSE>(buf);
        }
    }

    /// Every pass of the aligned block `buf`, depth first: the block's own
    /// pass, then each sub-block's passes (forward); or the sub-blocks first
    /// and the block's pass last (inverse).
    fn block<const INVERSE: bool>(&self, buf: &mut [Complex64]) {
        // amopt-lint: hot-path
        let len = buf.len();
        if len <= LEAF_LEN {
            self.leaf::<INVERSE>(buf);
            return;
        }
        let radix = if len.trailing_zeros() % 2 == 1 { 2 } else { 4 };
        if !INVERSE {
            self.combine::<INVERSE>(buf, radix);
        }
        self.sub_blocks::<INVERSE>(buf, radix);
        if INVERSE {
            self.combine::<INVERSE>(buf, radix);
        }
    }

    /// [`Fft::block`] on each of the `parts` (1, 2 or 4) sub-blocks of
    /// `buf`, split in halves; halves of a run of `PAR_MIN_LEN` points or
    /// more fork.
    fn sub_blocks<const INVERSE: bool>(&self, buf: &mut [Complex64], parts: usize) {
        // amopt-lint: hot-path
        if parts == 1 {
            self.block::<INVERSE>(buf);
            return;
        }
        let forks = buf.len() >= PAR_MIN_LEN;
        let (lo, hi) = buf.split_at_mut(buf.len() / 2);
        let each = |half: &mut [Complex64]| self.sub_blocks::<INVERSE>(half, parts / 2);
        if forks {
            amopt_parallel::join(|| each(lo), || each(hi));
        } else {
            each(lo);
            each(hi);
        }
    }

    /// All passes of a block of at most `LEAF_LEN` points, one after
    /// another, radix-4 twiddles read from the leaf table.  Only a whole
    /// buffer of odd `log₂ n` reaches here with a radix-2 pass to run.
    fn leaf<const INVERSE: bool>(&self, buf: &mut [Complex64]) {
        // amopt-lint: hot-path
        let len = buf.len();
        let radix2 = len.trailing_zeros() % 2 == 1;
        let top = if radix2 { len / 2 } else { len };
        if radix2 && !INVERSE {
            self.combine::<INVERSE>(buf, 2);
        }
        let mut block = if INVERSE { 4 } else { top };
        while (4..=top).contains(&block) {
            self.leaf_pass::<INVERSE>(buf, block);
            block = if INVERSE { block * 4 } else { block / 4 };
        }
        if radix2 && INVERSE {
            self.combine::<INVERSE>(buf, 2);
        }
    }

    /// The radix-4 pass of every `block`-point run of `buf`.
    fn leaf_pass<const INVERSE: bool>(&self, buf: &mut [Complex64], block: usize) {
        // amopt-lint: hot-path
        if block == 4 {
            for x in buf.chunks_exact_mut(4) {
                let y = radix4_unit::<INVERSE>([x[0], x[1], x[2], x[3]]);
                x.copy_from_slice(&y);
            }
            return;
        }
        let quarter = block / 4;
        let tw = &self.leaf[(quarter - 1) / 3..][..quarter];
        for b in buf.chunks_exact_mut(block) {
            let (x0, rest) = b.split_at_mut(quarter);
            let (x1, rest) = rest.split_at_mut(quarter);
            let (x2, x3) = rest.split_at_mut(quarter);
            let points = x0.iter_mut().zip(x1.iter_mut()).zip(x2.iter_mut().zip(x3.iter_mut()));
            for (((a, b), (c, d)), &w) in points.zip(tw) {
                [*a, *b, *c, *d] = radix4::<INVERSE>([*a, *b, *c, *d], w);
            }
        }
    }

    /// The radix-`radix` pass of the block `buf`, twiddles read from the
    /// plan's table by stride: a block longer than `LEAF_LEN`, or a whole
    /// buffer's radix-2 pass.
    fn combine<const INVERSE: bool>(&self, buf: &mut [Complex64], radix: usize) {
        // amopt-lint: hot-path
        let stride = self.n / buf.len();
        if radix == 2 {
            let (lo, hi) = buf.split_at_mut(buf.len() / 2);
            self.combine2::<INVERSE>(lo, hi, 0, stride);
        } else {
            let (front, back) = buf.split_at_mut(buf.len() / 2);
            let (x0, x1) = front.split_at_mut(front.len() / 2);
            let (x2, x3) = back.split_at_mut(back.len() / 2);
            self.combine4::<INVERSE>([x0, x1, x2, x3], 0, stride);
        }
    }

    /// Radix-2 butterflies `j0 + j` of a block whose halves are `lo`, `hi`,
    /// twiddle `e^{−2πi (j0 + j)·stride / n}`; runs longer than
    /// [`COMBINE_GRAIN`] split at matching offsets, so each task owns
    /// disjoint memory, and fork.
    fn combine2<const INVERSE: bool>(
        &self,
        lo: &mut [Complex64],
        hi: &mut [Complex64],
        j0: usize,
        stride: usize,
    ) {
        // amopt-lint: hot-path
        if lo.len() <= COMBINE_GRAIN {
            for (j, (a, b)) in (j0..).zip(lo.iter_mut().zip(hi.iter_mut())) {
                [*a, *b] = radix2::<INVERSE>([*a, *b], self.twiddles[j * stride]);
            }
        } else {
            let mid = lo.len() / 2;
            let (l0, l1) = lo.split_at_mut(mid);
            let (h0, h1) = hi.split_at_mut(mid);
            amopt_parallel::join(
                || self.combine2::<INVERSE>(l0, h0, j0, stride),
                || self.combine2::<INVERSE>(l1, h1, j0 + mid, stride),
            );
        }
    }

    /// Radix-4 butterflies `j0 + j` of a block whose quarters are `x`, as
    /// [`Fft::combine2`] forks.
    fn combine4<const INVERSE: bool>(&self, x: [&mut [Complex64]; 4], j0: usize, stride: usize) {
        // amopt-lint: hot-path
        let len = x[0].len();
        if len <= COMBINE_GRAIN {
            let [x0, x1, x2, x3] = x;
            let points = x0.iter_mut().zip(x1.iter_mut()).zip(x2.iter_mut().zip(x3.iter_mut()));
            for (j, ((a, b), (c, d))) in (j0..).zip(points) {
                let t = j * stride;
                let w = [self.twiddles[t], self.twiddles[2 * t], self.root(3 * t)];
                [*a, *b, *c, *d] = radix4::<INVERSE>([*a, *b, *c, *d], w);
            }
        } else {
            let [x0, x1, x2, x3] = x.map(|q| q.split_at_mut(len / 2));
            amopt_parallel::join(
                || self.combine4::<INVERSE>([x0.0, x1.0, x2.0, x3.0], j0, stride),
                || self.combine4::<INVERSE>([x0.1, x1.1, x2.1, x3.1], j0 + len / 2, stride),
            );
        }
    }
}

/// The radix-2 butterfly on points half a block apart, `w = e^{−2πij/L}`:
/// forward (decimation in frequency) `(a + b, (a − b)·w)`; inverse
/// (decimation in time) `(a + w̄·b, a − w̄·b)`.
#[inline(always)]
fn radix2<const INVERSE: bool>([a, b]: [Complex64; 2], w: Complex64) -> [Complex64; 2] {
    if INVERSE {
        let t = w.conj() * b;
        [a + t, a - t]
    } else {
        [a + b, (a - b) * w]
    }
}

/// The radix-4 butterfly on points a quarter block apart, twiddles
/// `w = (w^j, w^{2j}, w^{3j})`: the two radix-2 passes of blocks `L` and
/// `L/2` fused, three multiplies, `±i` as a swap and a sign.
#[inline(always)]
fn radix4<const INVERSE: bool>(x: [Complex64; 4], w: [Complex64; 3]) -> [Complex64; 4] {
    if INVERSE {
        let (t1, t2, t3) = (w[1].conj() * x[1], w[0].conj() * x[2], w[2].conj() * x[3]);
        let (a, b, c, d) = (x[0] + t1, x[0] - t1, t2 + t3, t2 - t3);
        let i_d = c64(-d.im, d.re);
        [a + c, b + i_d, a - c, b - i_d]
    } else {
        let (a, b, c, d) = (x[0] + x[2], x[0] - x[2], x[1] + x[3], x[1] - x[3]);
        let minus_i_d = c64(d.im, -d.re);
        [a + c, (a - c) * w[1], (b + minus_i_d) * w[0], (b - minus_i_d) * w[2]]
    }
}

/// [`radix4`] of a four-point block, whose one twiddle triple is `(1, 1, 1)`:
/// no multiply at all.
#[inline(always)]
fn radix4_unit<const INVERSE: bool>(x: [Complex64; 4]) -> [Complex64; 4] {
    if INVERSE {
        let (a, b, c, d) = (x[0] + x[1], x[0] - x[1], x[2] + x[3], x[2] - x[3]);
        let i_d = c64(-d.im, d.re);
        [a + c, b + i_d, a - c, b - i_d]
    } else {
        let (a, b, c, d) = (x[0] + x[2], x[0] - x[2], x[1] + x[3], x[1] - x[3]);
        let minus_i_d = c64(d.im, -d.re);
        [a + c, a - c, b + minus_i_d, b - minus_i_d]
    }
}

/// In-place bit-reversal permutation (size must be a power of two).
fn bit_reverse_permute(buf: &mut [Complex64]) {
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
    assert!(n.is_power_of_two(), "FFT size must be a power of two, got {n}");
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

/// Smallest power of two `≥ n` (and `≥ 1`).
#[inline]
pub(crate) fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// O(n²) reference DFT; the inverse includes the `1/n`.
    pub(crate) fn dft_naive(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = vec![Complex64::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += v * Complex64::cis(theta);
            }
            *o = if inverse { acc.scale(1.0 / n as f64) } else { acc };
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

    fn bits(buf: &[Complex64]) -> Vec<(u64, u64)> {
        buf.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    /// `p` with its `log₂ n` bits reversed.
    fn rev(p: usize, n: usize) -> usize {
        p.reverse_bits().checked_shr(usize::BITS - n.trailing_zeros()).unwrap_or(0)
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        plan(x.len()).forward(&mut x);
        for v in &x {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut x = vec![Complex64::ONE; 8];
        plan(x.len()).forward(&mut x);
        assert!((x[0] - c64(8.0, 0.0)).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft_across_sizes() {
        // Even and odd log₂ n, below and above the leaf.
        for &n in &[1usize, 2, 4, 8, 16, 32, 128, 256, 2048, 4096] {
            let x = rand_signal(n, n as u64);
            let mut got = x.clone();
            plan(got.len()).forward(&mut got);
            let want = dft_naive(&x, false);
            assert!(max_err(&got, &want) < 1e-12 * n as f64, "n={n}");
            let mut back = want.clone();
            plan(back.len()).inverse(&mut back);
            assert!(max_err(&back, &dft_naive(&want, true)) < 1e-12 * n as f64, "n={n}");
        }
    }

    #[test]
    fn the_bit_reversed_passes_are_the_permuted_transforms() {
        for p in [1u32, 2, 5, 6, 11, 12] {
            let n = 1 << p;
            let x = rand_signal(n, 40 + p as u64);
            let plan = Fft::new(n);
            let mut positions = x.clone();
            plan.forward_bit_reversed(&mut positions);
            let want = dft_naive(&x, false);
            for (q, v) in positions.iter().enumerate() {
                assert!((*v - want[rev(q, n)]).abs() < 1e-12 * n as f64, "n={n} q={q}");
            }
            plan.inverse_bit_reversed(&mut positions);
            let back: Vec<Complex64> = positions.iter().map(|v| v.scale(1.0 / n as f64)).collect();
            assert!(max_err(&back, &x) < 1e-13 * p as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for &n in &[2usize, 64, 1024, 1 << 15] {
            let x = rand_signal(n, 7 + n as u64);
            let mut buf = x.clone();
            plan(buf.len()).forward(&mut buf);
            plan(buf.len()).inverse(&mut buf);
            assert!(max_err(&buf, &x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 512;
        let x = rand_signal(n, 99);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut spec = x.clone();
        plan(spec.len()).forward(&mut spec);
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
        plan(lhs.len()).forward(&mut lhs);
        let mut fa = a.clone();
        plan(fa.len()).forward(&mut fa);
        let mut fb = b.clone();
        plan(fb.len()).forward(&mut fb);
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
        plan(buf.len()).forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
        plan(buf.len()).inverse(&mut buf);
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

    /// The textbook pass-by-pass loop: every pass over the whole buffer
    /// before the next one starts, each butterfly's twiddles read from
    /// [`Fft::root`] at `j·n/L` for a block of `L` points.  Forward: a
    /// radix-2 pass first when `log₂ n` is odd, then radix-4 passes from the
    /// largest block down; inverse: the same passes in reverse order.
    fn textbook<const INVERSE: bool>(fft: &Fft, buf: &mut [Complex64]) {
        let n = fft.n;
        let mut passes = Vec::new();
        let mut block = n;
        if n.trailing_zeros() % 2 == 1 {
            passes.push((block, 2));
            block /= 2;
        }
        while block >= 4 {
            passes.push((block, 4));
            block /= 4;
        }
        if INVERSE {
            passes.reverse();
        }
        for (block, radix) in passes {
            let (part, stride) = (block / radix, n / block);
            for b in buf.chunks_exact_mut(block) {
                for j in 0..part {
                    let t = j * stride;
                    if radix == 2 {
                        let y = radix2::<INVERSE>([b[j], b[j + part]], fft.root(t));
                        [b[j], b[j + part]] = y;
                        continue;
                    }
                    let x = [b[j], b[j + part], b[j + 2 * part], b[j + 3 * part]];
                    let y = if block == 4 {
                        radix4_unit::<INVERSE>(x)
                    } else {
                        radix4::<INVERSE>(x, [fft.root(t), fft.root(2 * t), fft.root(3 * t)])
                    };
                    [b[j], b[j + part], b[j + 2 * part], b[j + 3 * part]] = y;
                }
            }
        }
    }

    #[test]
    fn depth_first_passes_are_the_textbook_passes_bit_for_bit() {
        // Odd and even log₂ n: the sizes below the leaf, the sizes that
        // recurse without forking, and the sizes whose sub-blocks and
        // passes fork.
        for p in 0u32..=17 {
            // (Not through `plan`: another test needs 2¹⁷ absent from the cache.)
            let fft = Fft::new(1 << p);
            let x = rand_signal(1 << p, 60 + p as u64);
            let (mut dif, mut dit) = (x.clone(), x.clone());
            textbook::<false>(&fft, &mut dif);
            textbook::<true>(&fft, &mut dit);
            let (dif, dit) = (bits(&dif), bits(&dit));
            let run = || {
                let (mut forward, mut inverse) = (x.clone(), x.clone());
                fft.forward_bit_reversed(&mut forward);
                fft.inverse_bit_reversed(&mut inverse);
                (bits(&forward), bits(&inverse))
            };
            for threads in [1, 2, 3] {
                let (forward, inverse) = amopt_parallel::run_with_threads(threads, run);
                assert!(forward == dif, "n=2^{p} forward on {threads} threads");
                assert!(inverse == dit, "n=2^{p} inverse on {threads} threads");
            }
            let (forward, inverse) = run();
            assert!(forward == dif, "n=2^{p} forward on the default pool");
            assert!(inverse == dit, "n=2^{p} inverse on the default pool");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        Fft::new(12);
    }

    #[test]
    fn a_rejected_size_does_not_poison_the_plan_cache() {
        // `plan` is public: a bad size must fail its own caller and leave the
        // process-wide cache serving everyone else.
        assert!(std::panic::catch_unwind(|| plan(3)).is_err());
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
        plan(fx.len()).forward(&mut fx);
        let mut fs = shifted;
        plan(fs.len()).forward(&mut fs);
        for k in 0..n {
            let phase = Complex64::cis(-2.0 * std::f64::consts::PI * (k * d % n) as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-9);
        }
    }
}
