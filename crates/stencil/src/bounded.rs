//! Linear stencil advance against an absorbing (Dirichlet-zero) wall — the
//! *aperiodic grid* case of Ahmad et al. \[1\], specialised to one wall.
//!
//! Cells at or beyond the wall column hold zero at every time step (an
//! absorbing boundary, e.g. a knocked-out barrier option).  Away from the
//! wall the update is the plain linear stencil, so cells whose dependency
//! cone clears the wall advance with one FFT correlation at *any* height;
//! only the `h` cells hugging the wall need a recursion, on the `2h`-cell
//! window that is their cone, which halves — the same divide-and-conquer
//! shape as the nonlinear engine, but with a *known* boundary, hence no
//! tracking.  A window of height `h` costs two correlations of `O(h)` cells
//! and two windows of `h/2`, so the work is `O(n log n + h log² h)`,
//! matching \[1\]'s aperiodic bound.
//!
//! Only symmetric 3-point kernels (anchor −1) are supported — that is what
//! the barrier pricers need; the right side of the segment behaves like the
//! ordinary valid-mode cone.

use crate::advance::{advance, Backend};
use crate::kernel::StencilKernel;
use crate::segment::Segment;

/// Advances `seg` by `h` steps with an absorbing wall just left of the
/// segment: conceptually `value(wall) = 0` forever, where
/// `wall = seg.start − 1`.
///
/// Output covers `[seg.start, seg.end() − 1 − h]` (the right edge shrinks
/// like a valid-mode cone; the left edge is pinned by the wall).
///
/// # Panics
/// If the kernel is not a 3-point stencil anchored at −1 or the segment is
/// too short for `h` steps.
pub fn advance_left_wall(
    seg: &Segment,
    kernel: &StencilKernel,
    h: u64,
    backend: Backend,
) -> Segment {
    // amopt-lint: hot-path
    assert_eq!(kernel.anchor(), -1, "wall advance requires anchor −1");
    assert_eq!(kernel.span(), 2, "wall advance requires a 3-point kernel");
    assert!(
        seg.len() as u64 > h,
        "segment of {} cells cannot host {h} wall-bounded steps",
        seg.len()
    );
    let wall = seg.start - 1;
    // amopt-lint: allow(hot-path-alloc) -- one working copy per call; subsequent rows replace it via the stitch
    let mut cur = seg.clone();
    let mut remaining = h;
    while remaining > 0 {
        let hi = cur.end() - 1;
        let width = hi - wall; // stored cells
        if remaining <= BASE_CUTOFF {
            cur = stepped_wall(&cur, kernel, remaining);
            break;
        }
        // The wall never moves, so a row wider than the `2·remaining` cells
        // its wall window needs takes the whole hop — the interior's height
        // is not limited by the window's; a row that is exactly its window
        // halves (it would otherwise recurse on itself), capped so the
        // window's input fits the stored cells.
        let h1 = if width > 2 * remaining as i64 {
            remaining
        } else {
            (remaining / 2).min(((width - 1) / 2).max(1) as u64)
        };
        // Interior: cells ≥ wall+1+h1 have cones clear of the wall.
        let interior = advance(&cur, kernel, h1, backend);
        debug_assert_eq!(interior.start, cur.start + h1 as i64);
        // Wall window: cells [wall+1, wall+h1] need input [wall+1, wall+2h1];
        // h1 ≤ (width−1)/2 guarantees the window fits the stored cells.
        let window_hi = wall + 2 * h1 as i64;
        debug_assert!(window_hi <= hi);
        let sub = advance_left_wall(&cur.extract(cur.start, window_hi), kernel, h1, backend);
        debug_assert_eq!(sub.len() as u64, h1);
        // Stitch: wall-adjacent cells from the recursion, the rest from the
        // interior FFT (they are exactly adjacent).
        let mut values = sub.values;
        values.extend_from_slice(&interior.values);
        cur = Segment::new(cur.start, values);
        remaining -= h1;
    }
    cur
}

const BASE_CUTOFF: u64 = 8;

/// Reference semantics: one explicit row per step, reading zero at the wall.
pub fn stepped_wall(seg: &Segment, kernel: &StencilKernel, h: u64) -> Segment {
    let w = kernel.weights();
    debug_assert_eq!(kernel.anchor(), -1);
    let wall = seg.start - 1;
    let mut cur = seg.clone();
    for _ in 0..h {
        let mut next = Vec::with_capacity(cur.len().saturating_sub(1));
        for c in cur.start..cur.end() - 1 {
            let left = if c - 1 <= wall { 0.0 } else { cur.get(c - 1) };
            next.push(w[0] * left + w[1] * cur.get(c) + w[2] * cur.get(c + 1));
        }
        cur = Segment::new(seg.start, next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> StencilKernel {
        StencilKernel::new(vec![0.3, 0.38, 0.3], -1)
    }

    fn rand_vals(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(77);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_stepped_reference() {
        let k = kernel();
        // Rows wider than their wall window (one hop), exactly one cell
        // wider (n = 2h + 1: the interior returns a single cell), and
        // narrower (halving from the start).
        for (n, h) in [
            (50usize, 10u64),
            (200, 64),
            (400, 150),
            (31, 9),
            (5000, 40),
            (3000, 9),
            (129, 64),
            (601, 300),
            (19, 9),
        ] {
            let seg = Segment::new(5, rand_vals(n, n as u64));
            let fast = advance_left_wall(&seg, &k, h, Backend::Fft);
            let slow = stepped_wall(&seg, &k, h);
            assert_eq!(fast.start, slow.start, "n={n} h={h}");
            assert_eq!(fast.len(), slow.len(), "n={n} h={h}");
            for i in 0..fast.len() {
                assert!(
                    (fast.values[i] - slow.values[i]).abs() < 1e-9,
                    "n={n} h={h} i={i}: {} vs {}",
                    fast.values[i],
                    slow.values[i]
                );
            }
        }
    }

    #[test]
    fn wall_absorbs_mass() {
        // With a conservative kernel, mass leaks only through the wall (and
        // the shrinking right edge); values stay bounded and non-negative
        // for a non-negative start.
        let k = StencilKernel::new(vec![0.25, 0.5, 0.25], -1);
        let seg = Segment::new(0, vec![1.0; 300]);
        let out = advance_left_wall(&seg, &k, 100, Backend::Fft);
        for &v in &out.values {
            assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
        // The wall-adjacent cell has lost the most.
        assert!(out.values[0] < out.values[out.len() - 1]);
    }

    #[test]
    fn absorbing_wall_reduces_values_vs_free_space() {
        let k = kernel();
        let vals = vec![1.0; 200];
        let walled = advance_left_wall(&Segment::new(0, vals.clone()), &k, 40, Backend::Fft);
        // Free-space evolution of the same row, restricted to the same cells.
        let free =
            advance(&Segment::new(-60, [vec![1.0; 60], vals].concat()), &k, 40, Backend::Fft);
        for c in walled.start..walled.end() {
            assert!(walled.get(c) <= free.get(c) + 1e-12, "col {c}");
        }
    }

    #[test]
    fn single_step_equals_manual() {
        let k = kernel();
        let seg = Segment::new(10, vec![2.0, 4.0, 8.0]);
        let out = advance_left_wall(&seg, &k, 1, Backend::Fft);
        let w = k.weights();
        // Cell 10 reads wall (0), itself, right neighbor.
        assert!((out.get(10) - (w[0] * 0.0 + w[1] * 2.0 + w[2] * 4.0)).abs() < 1e-15);
        assert!((out.get(11) - (w[0] * 2.0 + w[1] * 4.0 + w[2] * 8.0)).abs() < 1e-15);
    }
}
