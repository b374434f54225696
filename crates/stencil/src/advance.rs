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
use std::cell::RefCell;

/// Per-thread scratch for the advance primitives: FFT buffers plus the
/// engine's base-case buffer.
///
/// Engines take one of these from their own thread's free list
/// ([`with_scratch`]) per linear advance or base case, so steady-state
/// pricing — in particular the batch layer's hot loop — allocates only the
/// output rows it actually keeps.  Buffers grow to the largest problem their
/// thread has seen and stay on that thread for reuse until it exits.
#[derive(Debug, Default)]
pub struct AdvanceScratch {
    /// The buffer a nonlinear base case steps its window in (the left-cone
    /// engine of `amopt-core`).  No advance stages its input here: a
    /// correlation reads a row's stored cells as they are, zero-extended to
    /// the row's length ([`advance_powered`]).
    pub staging: Vec<f64>,
    /// Reusable FFT transform buffers.
    pub fft: FftScratch,
}

thread_local! {
    /// This thread's idle scratches: one per level of [`with_scratch`]
    /// nesting the thread has reached, never shared with another thread.
    static FREE: RefCell<Vec<AdvanceScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with an [`AdvanceScratch`] taken from the calling thread's free
/// list, and returns it there afterwards; no lock is taken.
///
/// The list is not borrowed while `f` runs, so a worker that steals a job
/// inside `f` (a fork-join wait) and reaches `with_scratch` again takes a
/// second scratch.  A sequential caller reuses a single scratch forever.
pub fn with_scratch<R>(f: impl FnOnce(&mut AdvanceScratch) -> R) -> R {
    // amopt-lint: hot-path
    let mut scratch = FREE.with_borrow_mut(Vec::pop).unwrap_or_default();
    let out = f(&mut scratch);
    FREE.with_borrow_mut(|free| free.push(scratch));
    out
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
///
/// # Panics
/// If the cone swallows the whole row.
fn output_len(len: usize, kernel: &StencilKernel, h: u64) -> usize {
    (kernel.span() as u64)
        .checked_mul(h)
        .and_then(|shrink| len.checked_sub(shrink as usize))
        .filter(|&l| l > 0)
        .unwrap_or_else(|| {
            panic!(
                "segment of {len} cells cannot be advanced {h} steps by a span-{} kernel",
                kernel.span()
            )
        })
}

/// Absolute start column of the output segment.
#[inline]
fn output_start(start: i64, kernel: &StencilKernel, h: u64) -> i64 {
    start - kernel.anchor() * h as i64
}

/// Advances `seg` by `h` linear steps using the requested backend.
///
/// The multipliers are evaluated for this call alone; a caller advancing by
/// one kernel many times holds a `KernelPowers` and calls
/// [`advance_powered`].
///
/// # Panics
/// If the segment is too short to produce at least one valid cell.
pub fn advance(seg: &Segment, kernel: &StencilKernel, h: u64, backend: Backend) -> Segment {
    let (values, len) = (&seg.values, seg.len());
    match backend {
        Backend::Fft => advance_powered(values, len, seg.start, kernel, h, &KernelPowers::new(), 0),
        Backend::Stepped => {
            Segment::new(output_start(seg.start, kernel, h), stepped(values, len, kernel, h, 0))
        }
    }
}

/// [`advance`] on the FFT backend over the row of `len` cells anchored at
/// absolute column `start` whose first `values.len()` cells are `values` and
/// whose rest are exact zeros — a row's stored cells read as they are, never
/// staged — with the spectrum multipliers of `kernel` read from (and first
/// built into) `powers`: a caller advancing by one kernel many times
/// evaluates each `(size, height)` once.  Scratch comes from the calling
/// thread's free list ([`with_scratch`]).  The output has room for `spare`
/// more cells, which its caller appends.  Bitwise identical to [`advance`] of
/// the materialised row.
///
/// # Panics
/// If `values` is longer than `len`, or the row is too short to produce at
/// least one valid cell.
pub fn advance_powered(
    values: &[f64],
    len: usize,
    start: i64,
    kernel: &StencilKernel,
    h: u64,
    powers: &KernelPowers,
    spare: usize,
) -> Segment {
    // amopt-lint: hot-path
    assert!(values.len() <= len, "{} stored cells in a row of {len}", values.len());
    let out_len = output_len(len, kernel, h);
    // Small problems: the stepped loop beats FFT constants and keeps base
    // cases allocation-light.
    let out = if len <= 64 {
        stepped(values, len, kernel, h, spare)
    } else {
        with_scratch(|s| powers.correlate(values, len, kernel.weights(), h, &mut s.fft, spare))
    };
    debug_assert_eq!(out.len(), out_len);
    Segment::new(output_start(start, kernel, h), out)
}

/// `h` single steps over one buffer: a step reads `row[c ..= c + span]` to
/// produce cell `c`, so updating in ascending order over a row of shrinking
/// length is [`StencilKernel::step`]'s arithmetic in its order, bit for bit,
/// with one allocation per call instead of one per step.  The buffer is the
/// output row: `row`'s cells zero-extended to `len`, with room for `spare`
/// cells past the output, which the caller appends.
///
/// Every advance of at most 64 cells lands here, and the pricing engine's
/// sequential chain of boundary windows is made of them.  So the two-tap
/// (BOPM) and three-tap (TOPM, the BSM grid) kernels get arms of their own,
/// with the taps and the sliding input cells in registers; other widths take
/// the generic loop.  Each arm keeps `Iterator::sum`'s left fold from `−0.0`,
/// `((−0.0 + w₀x₀) + w₁x₁) + w₂x₂`, so it is that loop bit for bit.
fn stepped(row: &[f64], len: usize, kernel: &StencilKernel, h: u64, spare: usize) -> Vec<f64> {
    // amopt-lint: hot-path
    let out_len = output_len(len, kernel, h);
    // amopt-lint: allow(hot-path-alloc) -- the output row the caller keeps, sized once with its spare; every step runs in it
    let mut cur = Vec::with_capacity(len.max(out_len + spare));
    cur.extend_from_slice(row);
    cur.resize(len, 0.0);
    match *kernel.weights() {
        [w0, w1] => {
            for _ in 0..h {
                let len = cur.len() - 1;
                let mut x0 = cur[0];
                for c in 0..len {
                    let x1 = cur[c + 1];
                    cur[c] = -0.0 + w0 * x0 + w1 * x1;
                    x0 = x1;
                }
                cur.truncate(len);
            }
        }
        [w0, w1, w2] => {
            for _ in 0..h {
                let len = cur.len() - 2;
                let (mut x0, mut x1) = (cur[0], cur[1]);
                for c in 0..len {
                    let x2 = cur[c + 2];
                    cur[c] = -0.0 + w0 * x0 + w1 * x1 + w2 * x2;
                    (x0, x1) = (x1, x2);
                }
                cur.truncate(len);
            }
        }
        ref w => {
            for _ in 0..h {
                let len = cur.len() - kernel.span();
                for c in 0..len {
                    cur[c] = w.iter().enumerate().map(|(m, &wm)| wm * cur[c + m]).sum();
                }
                cur.truncate(len);
            }
        }
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
        // Rows of four kinds: plain; runs of +0.0 and −0.0 ahead of an
        // exact-zero tail (a cell whose products are all −0.0 is −0.0 only
        // if the fold starts at −0.0); subnormal; and near the top of f64.
        let rows = |len: usize| -> Vec<Vec<f64>> {
            let plain = rand_real(len, len as u64);
            let zeros = (0..len)
                .map(|j| match j {
                    _ if j >= len - len / 3 => 0.0,
                    _ if j % 8 < 3 => -0.0,
                    _ if j % 8 < 5 => 0.0,
                    _ => plain[j],
                })
                .collect();
            let tiny = plain.iter().map(|v| v * 1e-308).collect();
            let huge = plain.iter().map(|v| v * 1e307).collect();
            vec![plain, zeros, tiny, huge]
        };
        let kernels = [
            vec![0.4999, 0.4998],
            vec![0.2, -0.7],
            vec![0.25, 0.4997, 0.25],
            vec![-0.3, 0.8, 0.45],
            vec![0.1, 0.4, 0.3, 0.2],
        ];
        for weights in kernels {
            let kernel = StencilKernel::new(weights.clone(), 0);
            for len in 1usize..=65 {
                for (kind, row) in rows(len).into_iter().enumerate() {
                    let ctx = |h| format!("{weights:?} len={len} row kind {kind} h={h}");
                    let capacity = ((len - 1) / kernel.span()) as u64;
                    let mut folded = row.clone();
                    for h in 0..=capacity {
                        let got = stepped(&row, len, &kernel, h, 0);
                        assert_eq!(got.len(), folded.len(), "{}", ctx(h));
                        for (a, b) in got.iter().zip(&folded) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{}", ctx(h));
                        }
                        if h < capacity {
                            folded = kernel.step(&folded);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_extended_row_advances_as_the_materialised_row_bit_for_bit() {
        // Rows either side of the 64-cell switch to the stepped loop, stored
        // cells empty, of one cell, of odd length and the whole row.
        let kernels = [vec![0.4999, 0.4998], vec![0.25, 0.4997, 0.25], vec![0.5, 0.5001, -0.0002]];
        let powers = KernelPowers::new();
        for weights in kernels {
            let kernel = StencilKernel::new(weights.clone(), 0);
            for len in [40usize, 64, 65, 300] {
                let row = rand_real(len, len as u64);
                for h in [1u64, 3, 19] {
                    for stored in [0, 1, (len / 3) | 1, len] {
                        let ctx = format!("{weights:?} len={len} h={h} stored={stored}");
                        let mut materialised = row[..stored].to_vec();
                        materialised.resize(len, 0.0);
                        let want =
                            advance(&Segment::new(5, materialised), &kernel, h, Backend::Fft);
                        let got = advance_powered(&row[..stored], len, 5, &kernel, h, &powers, 7);
                        assert_eq!(got.start, want.start, "{ctx}");
                        let bits =
                            |s: &Segment| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                        assert!(got.values.capacity() >= got.len() + 7, "{ctx}: no room to append");
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

    /// Idle scratches on the calling thread's free list.
    fn idle() -> usize {
        FREE.with_borrow(Vec::len)
    }

    /// Runs `f` on a new thread, whose free list starts empty.
    fn on_a_new_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread panicked");
    }

    #[test]
    fn a_nested_checkout_takes_a_distinct_scratch_and_both_return_to_the_thread() {
        on_a_new_thread(|| {
            let outer = with_scratch(|a| {
                a.staging.push(1.0);
                with_scratch(|b| {
                    assert!(b.staging.is_empty(), "the outer scratch was handed out twice");
                    b.staging.push(2.0);
                });
                assert_eq!(idle(), 1, "the inner scratch is back while the outer runs");
                a.staging.as_ptr()
            });
            assert_eq!(idle(), 2);
            // The outer scratch went back last, so it comes out first.
            with_scratch(|a| {
                assert_eq!(a.staging.as_ptr(), outer);
                with_scratch(|b| assert_eq!(b.staging, [2.0]));
            });
            assert_eq!(idle(), 2);
        });
    }

    #[test]
    fn a_warm_thread_reuses_its_scratch_and_allocates_no_other() {
        on_a_new_thread(|| {
            let grown = with_scratch(|s| {
                s.staging.resize(4096, 0.0);
                (s.staging.as_ptr(), s.staging.capacity())
            });
            let kernel = StencilKernel::new(vec![0.25, 0.5, 0.25], -1);
            let seg = Segment::new(0, rand_real(600, 6));
            for _ in 0..50 {
                advance(&seg, &kernel, 40, Backend::Fft);
                with_scratch(|s| {
                    s.staging.clear();
                    s.staging.extend_from_slice(&seg.values);
                    assert_eq!((s.staging.as_ptr(), s.staging.capacity()), grown);
                });
                assert_eq!(idle(), 1);
            }
        });
    }

    #[test]
    fn a_scratch_grown_on_one_thread_is_never_handed_to_another() {
        use std::collections::HashMap;
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};

        // Each scratch is known by its staging row's address once grown;
        // every address must stay with the thread that grew it, through
        // nested advances and whatever the pool's workers steal meanwhile.
        let owners: Mutex<HashMap<usize, ThreadId>> = Mutex::new(HashMap::new());
        let claim = |s: &mut AdvanceScratch| {
            if s.staging.capacity() == 0 {
                s.staging.reserve(64);
            }
            let me = thread::current().id();
            let at = s.staging.as_ptr() as usize;
            let owner = *owners.lock().unwrap().entry(at).or_insert(me);
            assert_eq!(owner, me, "a scratch crossed threads");
        };
        with_scratch(claim);
        let kernel = StencilKernel::new(vec![0.2, 0.5, 0.28], -1);
        let seg = Segment::new(0, rand_real(3000, 7));
        amopt_parallel::run_with_threads(2, || {
            amopt_parallel::parallel_map(256, 1, |i| {
                with_scratch(|s| {
                    claim(s);
                    advance(&seg, &kernel, 1 + i as u64 % 64, Backend::Fft).len()
                })
            })
        });
        assert!(owners.lock().unwrap().len() >= 2);
    }
}
