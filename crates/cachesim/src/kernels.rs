//! Address-level replicas of the pricing kernels, replayed against the
//! simulated hierarchy.
//!
//! The loop baselines (`naive`, `tiled`) replay their access streams
//! *exactly* (same loop order, same buffers).  The FFT pricer is replayed
//! **structurally**: the driver/trapezoid recursion is reproduced with the
//! same sub-problem sizes and the same butterfly access pattern inside each
//! transform, under a stationary-boundary simplification (the red-region
//! width stays at its expiry value).  The drift only changes sub-problem
//! sizes by low-order terms, so miss *shapes* are preserved; ARCHITECTURE.md
//! ("Errata and substitutions") records this substitution.

use crate::cache::{Hierarchy, SimReport};

/// Byte size of one grid cell (`f64`).
const W: u64 = 8;

/// Disjoint virtual base addresses for the buffers involved.
mod base {
    pub const CUR: u64 = 0x1_0000_0000;
    pub const NEXT: u64 = 0x2_0000_0000;
    pub const SCRATCH: u64 = 0x3_0000_0000;
    pub const FFT_A: u64 = 0x4_0000_0000;
    pub const FFT_B: u64 = 0x5_0000_0000;
    pub const ROW: u64 = 0x6_0000_0000;
}

/// Naive double-buffered row sweep (`ql-bopm` / `vanilla-*` shape):
/// row `i` reads `span+1` cells of the previous row per output cell.
///
/// `width_of(i)` gives the cell count of row `i` (e.g. `i+1` for BOPM,
/// `2i+1` for TOPM, `2(T−n)+1` for the BSM cone).
pub fn trace_naive(t: usize, span: usize, width_of: impl Fn(usize) -> usize) -> SimReport {
    let mut h = Hierarchy::skylake();
    for i in (0..t).rev() {
        let width = width_of(i);
        for j in 0..width as u64 {
            for m in 0..=span as u64 {
                h.touch(base::CUR + (j + m) * W);
            }
            h.touch(base::NEXT + j * W);
            // span+1 multiply-adds, one exercise evaluation, one max.
            h.op(2 * (span as u64 + 1) + 2);
        }
        // The real code ping-pongs between two arrays; keeping fixed roles
        // for CUR/NEXT models the same two live buffers.
    }
    h.report()
}

/// Cache-aware tiled sweep (`zb-bopm` shape): bands of `band` rows, blocks
/// of `width` columns staged through a scratch buffer.
pub fn trace_tiled(t: usize, band: usize, width: usize) -> SimReport {
    let mut h = Hierarchy::skylake();
    let mut i_hi = t;
    while i_hi > 0 {
        let b = band.min(i_hi);
        let i_lo = i_hi - b;
        let out_len = i_lo + 1;
        let mut offset = 0usize;
        while offset < out_len {
            let chunk = width.min(out_len - offset);
            let need = chunk + b;
            // Stage the needed top-row cells into scratch.
            for x in 0..need as u64 {
                h.touch(base::CUR + (offset as u64 + x) * W);
                h.touch(base::SCRATCH + x * W);
            }
            // Sweep the band inside scratch.
            for step in 0..b {
                let valid = chunk + (b - step) - 1;
                for x in 0..valid as u64 {
                    h.touch(base::SCRATCH + x * W);
                    h.touch(base::SCRATCH + (x + 1) * W);
                    h.touch(base::SCRATCH + x * W);
                    h.op(6);
                }
            }
            for x in 0..chunk as u64 {
                h.touch(base::SCRATCH + x * W);
                h.touch(base::NEXT + (offset as u64 + x) * W);
            }
            offset += chunk;
        }
        i_hi = i_lo;
    }
    h.report()
}

/// One radix-2 FFT of complex length `n` over the buffer at `buf`:
/// `log2 n` butterfly passes, each touching every complex element twice.
fn trace_fft_transform(h: &mut Hierarchy, buf: u64, n: usize) {
    let mut len = 1;
    while len < n {
        let block = 2 * len;
        let blocks = n / block;
        for b in 0..blocks as u64 {
            for j in 0..len as u64 {
                let lo = buf + (b * block as u64 + j) * 16;
                let hi = buf + (b * block as u64 + j + len as u64) * 16;
                h.touch(lo);
                h.touch(hi);
                h.touch(lo);
                h.touch(hi);
                h.op(10); // complex mul + add + sub
            }
        }
        len = block;
    }
}

/// One linear advance by `h_steps` over a segment of `len` cells, as the
/// stencil engine performs it: pack, forward FFT, pointwise power-multiply,
/// inverse FFT, unpack.
fn trace_fft_advance(h: &mut Hierarchy, len: usize, _h_steps: u64) {
    let n = len.next_power_of_two().max(2);
    for x in 0..len as u64 {
        h.touch(base::ROW + x * W);
        h.touch(base::FFT_A + x * 16);
    }
    trace_fft_transform(h, base::FFT_A, n);
    for x in 0..n as u64 {
        h.touch(base::FFT_A + x * 16);
        h.touch(base::FFT_B + x * 16);
        h.op(20); // complex power + multiply
    }
    trace_fft_transform(h, base::FFT_A, n);
    for x in 0..len as u64 {
        h.touch(base::FFT_A + x * 16);
        h.touch(base::ROW + x * W);
    }
}

/// Structural replay of the trapezoid driver: red width `red`, cone height
/// `t`, kernel span `span`, base-case cutoff 8.
pub fn trace_fft_pricer(t: usize, span: usize) -> SimReport {
    let mut h = Hierarchy::skylake();
    let red0 = (t / 2).max(16); // stationary-boundary approximation
    fn advance(h: &mut Hierarchy, red: usize, steps: u64, span: usize) {
        let mut remaining = steps;
        while remaining > 0 {
            if remaining <= 8 {
                // Base case: naive rows over the red window.
                for _ in 0..remaining {
                    for x in 0..red as u64 {
                        for m in 0..=span as u64 {
                            h.touch(base::ROW + (x + m) * W);
                        }
                        h.touch(base::ROW + x * W);
                        h.op(2 * (span as u64 + 1) + 2);
                    }
                }
                return;
            }
            // The driver's hop rule: a row wider than what is left of its
            // cone takes the whole hop, a row that is its cone halves.
            let h1 = if red as u64 > span as u64 * remaining {
                remaining
            } else {
                let h1_cap = ((red.saturating_sub(2)) / span + 1).max(1) as u64;
                (remaining / 2).min(h1_cap).max(1)
            };
            // Bulk FFT over the certified-red prefix.
            trace_fft_advance(h, red + span * h1 as usize, h1);
            // Boundary-window recursion: the `span·h1` cells that are its cone.
            let window = (span as u64 * h1) as usize;
            advance(h, window.min(red), h1, span);
            remaining -= h1;
        }
    }
    advance(&mut h, red0, t as u64, span);
    h.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_access_count_is_quadratic() {
        let r1 = trace_naive(256, 1, |i| i + 1);
        let r2 = trace_naive(512, 1, |i| i + 1);
        // Accesses per cell = span+2 = 3; cells = T(T+1)/2.
        assert_eq!(r1.accesses, 3 * 256 * 257 / 2);
        let ratio = r2.accesses as f64 / r1.accesses as f64;
        assert!((ratio - 4.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn tiled_misses_fewer_than_naive_at_scale() {
        let t = 4096;
        let naive = trace_naive(t, 1, |i| i + 1);
        let tiled = trace_tiled(t, 128, 2048);
        assert!(
            tiled.l1_misses * 4 < naive.l1_misses,
            "tiled {} vs naive {}",
            tiled.l1_misses,
            naive.l1_misses
        );
    }

    #[test]
    fn fft_pricer_accesses_subquadratic() {
        let a = trace_fft_pricer(1024, 1);
        let b = trace_fft_pricer(4096, 1);
        let ratio = b.accesses as f64 / a.accesses as f64;
        // T log² T growth: 4× T ⇒ well under 16× (quadratic) growth.
        assert!(ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn fft_pricer_misses_far_below_naive() {
        let t = 4096;
        let naive = trace_naive(t, 1, |i| i + 1);
        let fft = trace_fft_pricer(t, 1);
        assert!(
            fft.l1_misses * 2 < naive.l1_misses,
            "fft {} vs naive {}",
            fft.l1_misses,
            naive.l1_misses
        );
    }

    #[test]
    fn trinomial_span_supported() {
        let r = trace_naive(128, 2, |i| 2 * i + 1);
        assert!(r.accesses > 0 && r.ops > 0);
        let f = trace_fft_pricer(512, 2);
        assert!(f.accesses > 0);
    }
}
