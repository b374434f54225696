//! Multi-step linear stencil advancement over an aperiodic grid.
//!
//! `advance(seg, kernel, h)` evolves a row segment `h` time steps under a
//! *purely linear* stencil and returns exactly the cells whose dependency
//! cone is contained in the input — the primitive the trapezoid algorithms of
//! the paper invoke on certified all-red regions.
//!
//! Output geometry: one step maps input column `c + anchor + m` onto output
//! column `c`, so after `h` steps the valid output covers absolute columns
//! `[start − h·anchor, start − h·anchor + len − h·span)`.

use crate::kernel::StencilKernel;
use crate::segment::Segment;
use amopt_fft::{FftScratch, KernelPowers};
use amopt_parallel::WorkspacePool;
use std::sync::OnceLock;

/// Per-worker scratch for the advance primitives: FFT buffers plus a staging
/// row for callers that assemble padded/stitched inputs before advancing.
///
/// Engines running inside a fork-join pool check one of these out of the
/// process-wide pool ([`with_scratch`]) per linear advance, so steady-state
/// pricing — in particular the batch layer's hot loop — allocates only the
/// output rows it actually keeps.  Buffers grow to the largest problem seen
/// and stay checked in for reuse (bounded by peak worker concurrency).
#[derive(Debug, Default)]
pub struct AdvanceScratch {
    /// Caller-assembled input row (stored reds, zero-extended to the cone edge).
    pub staging: Vec<f64>,
    /// Reusable FFT transform buffers.
    pub fft: FftScratch,
}

/// Runs `f` with an [`AdvanceScratch`] checked out of the process-wide pool.
///
/// The pool grows to at most the number of concurrently active workers; a
/// sequential caller reuses a single scratch forever.
pub fn with_scratch<R>(f: impl FnOnce(&mut AdvanceScratch) -> R) -> R {
    static POOL: OnceLock<WorkspacePool<AdvanceScratch>> = OnceLock::new();
    POOL.get_or_init(WorkspacePool::new).with(AdvanceScratch::default, f)
}

/// Strategy for computing a multi-step advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Spectrum powering, `O(L log L)` — the paper's algorithm.
    #[default]
    Fft,
    /// `h` explicit single steps, `O(L·h)` — the reference semantics.
    Stepped,
}

/// Number of valid output cells when advancing `len` cells by `h` steps.
/// Returns `None` if the cone swallows the whole segment.
pub fn valid_output_len(len: usize, kernel: &StencilKernel, h: u64) -> Option<usize> {
    let shrink = (kernel.span() as u64).checked_mul(h)? as usize;
    len.checked_sub(shrink)
}

/// Absolute start column of the output segment.
#[inline]
pub fn output_start(start: i64, kernel: &StencilKernel, h: u64) -> i64 {
    start - kernel.anchor() * h as i64
}

/// Advances `seg` by `h` linear steps using the requested backend.
///
/// Scratch comes from the process-wide pool ([`with_scratch`]); callers that
/// already hold scratch (or stage their input in one) should use
/// [`advance_values_with`] directly.
///
/// # Panics
/// If the segment is too short to produce at least one valid cell.
pub fn advance(seg: &Segment, kernel: &StencilKernel, h: u64, backend: Backend) -> Segment {
    with_scratch(|s| advance_values_with(&seg.values, seg.start, kernel, h, backend, &mut s.fft))
}

/// [`advance`] over a raw value slice anchored at absolute column `start`,
/// reusing caller-owned FFT scratch.  Bitwise identical to [`advance`].
///
/// # Panics
/// If the slice is too short to produce at least one valid cell.
pub fn advance_values_with(
    values: &[f64],
    start: i64,
    kernel: &StencilKernel,
    h: u64,
    backend: Backend,
    fft: &mut FftScratch,
) -> Segment {
    let powers = KernelPowers::new(kernel.weights());
    advance_by(values, start, kernel, h, backend, &powers, fft)
}

/// [`advance_values_with`] on the FFT backend, with the spectrum multipliers
/// of `kernel` read from (and first built into) `powers`: a caller advancing
/// by one kernel many times evaluates each `(size, height)` once.  Bitwise
/// identical to a fresh [`advance_values_with`].
///
/// # Panics
/// If the slice is too short to produce at least one valid cell.
pub fn advance_powered(
    values: &[f64],
    start: i64,
    kernel: &StencilKernel,
    h: u64,
    powers: &KernelPowers,
    fft: &mut FftScratch,
) -> Segment {
    debug_assert_eq!(powers.kernel(), kernel.weights(), "powers of another kernel");
    advance_by(values, start, kernel, h, Backend::Fft, powers, fft)
}

fn advance_by(
    values: &[f64],
    start: i64,
    kernel: &StencilKernel,
    h: u64,
    backend: Backend,
    powers: &KernelPowers,
    fft: &mut FftScratch,
) -> Segment {
    // amopt-lint: hot-path
    let out_len =
        valid_output_len(values.len(), kernel, h).filter(|&l| l > 0).unwrap_or_else(|| {
            panic!(
                "segment of {} cells cannot be advanced {h} steps by a span-{} kernel",
                values.len(),
                kernel.span()
            )
        });
    let start = output_start(start, kernel, h);
    if h == 0 {
        // amopt-lint: allow(hot-path-alloc) -- h = 0 identity copies the input into the output segment the caller keeps
        return Segment::new(start, values.to_vec());
    }
    let out = match backend {
        Backend::Fft => {
            // Small problems: the stepped loop beats FFT constants and keeps
            // base cases allocation-light.
            if values.len() <= 64 {
                stepped(values, kernel, h)
            } else {
                powers.correlate(values, h, fft)
            }
        }
        Backend::Stepped => stepped(values, kernel, h),
    };
    debug_assert_eq!(out.len(), out_len);
    Segment::new(start, out)
}

/// `h` single steps over one buffer: a step reads `row[c ..= c + span]` to
/// produce cell `c`, so updating in ascending order over a row of shrinking
/// length is [`StencilKernel::step`]'s arithmetic in its order, bit for bit,
/// with one allocation per call instead of one per step.
fn stepped(row: &[f64], kernel: &StencilKernel, h: u64) -> Vec<f64> {
    let w = kernel.weights();
    let mut cur = row.to_vec();
    for _ in 0..h {
        let len = cur.len() - kernel.span();
        for c in 0..len {
            cur[c] = w.iter().enumerate().map(|(m, &wm)| wm * cur[c + m]).sum();
        }
        cur.truncate(len);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(31);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| next()).collect()
    }

    fn assert_close(a: &Segment, b: &Segment, tol: f64, ctx: &str) {
        assert_eq!(a.start, b.start, "{ctx}: start mismatch");
        assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() <= tol, "{ctx}: {x} vs {y}");
        }
    }

    #[test]
    fn backends_agree_right_leaning() {
        let kernel = StencilKernel::new(vec![0.49, 0.5], 0);
        let seg = Segment::new(10, rand_real(300, 1));
        for h in [1u64, 2, 17, 100] {
            let f = advance(&seg, &kernel, h, Backend::Fft);
            let s = advance(&seg, &kernel, h, Backend::Stepped);
            assert_close(&f, &s, 1e-9, &format!("fft vs stepped h={h}"));
            assert_eq!(f.start, 10);
            assert_eq!(f.len(), 300 - h as usize);
        }
    }

    #[test]
    fn backends_agree_centered() {
        let kernel = StencilKernel::new(vec![0.3, 0.35, 0.3], -1);
        let seg = Segment::new(-50, rand_real(220, 2));
        for h in [1u64, 8, 50] {
            let f = advance(&seg, &kernel, h, Backend::Fft);
            let s = advance(&seg, &kernel, h, Backend::Stepped);
            assert_close(&f, &s, 1e-9, &format!("h={h}"));
            // symmetric kernel with anchor −1: both ends shrink by h
            assert_eq!(f.start, -50 + h as i64);
            assert_eq!(f.len(), 220 - 2 * h as usize);
        }
    }

    #[test]
    fn fft_backend_agrees_where_the_nyquist_response_is_negative_or_zero() {
        // K(π) = 0.2 − 0.7 = −0.5 and K(π) = 0.5 − 0.5 = 0, at odd and even
        // heights, on rows (odd and even, past the stepped cut-off) that
        // carry most of their energy in the alternating mode.
        for weights in [vec![0.2, 0.7], vec![0.5, 0.5]] {
            let kernel = StencilKernel::new(weights.clone(), 0);
            for len in [65usize, 128, 129] {
                let values: Vec<f64> = rand_real(len, len as u64)
                    .iter()
                    .enumerate()
                    .map(|(j, v)| 0.1 * v + if j % 2 == 0 { 1.0 } else { -1.0 })
                    .collect();
                let seg = Segment::new(3, values);
                for h in [1u64, 2, 7, 8, 63] {
                    let f = advance(&seg, &kernel, h, Backend::Fft);
                    let s = advance(&seg, &kernel, h, Backend::Stepped);
                    assert_close(&f, &s, 1e-13, &format!("{weights:?} len={len} h={h}"));
                }
            }
        }
    }

    #[test]
    fn fft_backend_agrees_with_stepped_where_most_multipliers_vanish() {
        // Heights at which the FFT backend skips most bins as vanished; the
        // last kernel (K(π) = −0.96) keeps a live band at Nyquist while the
        // middle of its spectrum is gone.
        for weights in [vec![0.4999, 0.4998], vec![0.25, 0.4997, 0.25], vec![0.49, 0.02, 0.49]] {
            let kernel = StencilKernel::new(weights.clone(), 0);
            let seg = Segment::new(0, rand_real(8192, weights.len() as u64));
            for h in [64u64, 512, 2048] {
                let f = advance(&seg, &kernel, h, Backend::Fft);
                let s = advance(&seg, &kernel, h, Backend::Stepped);
                assert_close(&f, &s, 1e-9, &format!("{weights:?} h={h}"));
            }
        }
    }

    #[test]
    fn stepped_in_place_is_h_single_steps_bit_for_bit() {
        for weights in [vec![0.4999, 0.4998], vec![0.25, 0.4997, 0.25]] {
            let kernel = StencilKernel::new(weights.clone(), 0);
            for len in [3usize, 17, 64, 65] {
                let row = rand_real(len, len as u64);
                let capacity = ((len - 1) / kernel.span()) as u64;
                let mut folded = row.clone();
                for h in 0..=capacity {
                    let got = stepped(&row, &kernel, h);
                    assert_eq!(got.len(), folded.len(), "{weights:?} len={len} h={h}");
                    for (a, b) in got.iter().zip(&folded) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{weights:?} len={len} h={h}");
                    }
                    if h < capacity {
                        folded = kernel.step(&folded);
                    }
                }
            }
        }
    }

    #[test]
    fn trinomial_anchor_zero_geometry() {
        let kernel = StencilKernel::new(vec![0.3, 0.33, 0.3], 0);
        let seg = Segment::new(0, rand_real(101, 3));
        let out = advance(&seg, &kernel, 7, Backend::Fft);
        assert_eq!(out.start, 0);
        assert_eq!(out.len(), 101 - 14);
    }

    #[test]
    fn h_zero_is_identity() {
        let kernel = StencilKernel::new(vec![0.5, 0.5], 0);
        let seg = Segment::new(3, rand_real(10, 4));
        let out = advance(&seg, &kernel, 0, Backend::Fft);
        assert_close(&out, &seg, 0.0, "identity");
    }

    #[test]
    fn composition_of_advances_equals_single_advance() {
        // advance(h1) ∘ advance(h2) == advance(h1+h2) — the property the
        // trapezoid recursion is built on.
        let kernel = StencilKernel::new(vec![0.2, 0.5, 0.28], -1);
        let seg = Segment::new(0, rand_real(400, 5));
        let once = advance(&seg, &kernel, 60, Backend::Fft);
        let mid = advance(&seg, &kernel, 25, Backend::Fft);
        let twice = advance(&mid, &kernel, 35, Backend::Fft);
        assert_close(&once, &twice, 1e-8, "composition");
    }

    #[test]
    #[should_panic(expected = "cannot be advanced")]
    fn advance_rejects_cone_overflow() {
        let kernel = StencilKernel::new(vec![0.5, 0.5], 0);
        let seg = Segment::new(0, vec![1.0; 5]);
        advance(&seg, &kernel, 5, Backend::Fft);
    }
}
