//! Property-based tests for the FFT substrate: transforms and correlations
//! must agree with their quadratic-time definitions on arbitrary inputs.

use amopt_fft::{c64, correlate_power_valid, kernel_power_taps, plan, power_kernel_len, Complex64};
use proptest::prelude::*;

fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let theta = -2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                acc += v * Complex64::cis(theta);
            }
            acc
        })
        .collect()
}

fn arb_signal(max_pow: u32) -> impl Strategy<Value = Vec<Complex64>> {
    (1u32..=max_pow).prop_flat_map(|p| {
        prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1 << p)
            .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
    })
}

/// A 2- or 3-tap kernel of unit mass (so that thousands of steps neither
/// blow the row up nor decay it below the tolerance) and a row that hosts
/// `h` steps of it with 1 … 64 cells to spare.
fn arb_kernel_and_row(max_h: u64) -> impl Strategy<Value = (Vec<f64>, u64, Vec<f64>)> {
    (prop::collection::vec(0.1..0.5f64, 2..4), 1..=max_h, 1usize..=64).prop_flat_map(
        |(w, h, spare)| {
            let mass: f64 = w.iter().sum();
            let kernel: Vec<f64> = w.iter().map(|v| v / mass).collect();
            let len = power_kernel_len(kernel.len(), h) + spare - 1;
            prop::collection::vec(-3.0..3.0f64, len).prop_map(move |x| (kernel.clone(), h, x))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fft_matches_naive_dft(x in arb_signal(8)) {
        let mut got = x.clone();
        plan(got.len()).forward(&mut got);
        let want = dft_naive(&x);
        let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((*g - *w).abs() < 1e-10 * scale);
        }
    }

    #[test]
    fn roundtrip_identity(x in arb_signal(12)) {
        let mut buf = x.clone();
        let fft = plan(buf.len());
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (g, w) in buf.iter().zip(&x) {
            prop_assert!((*g - *w).abs() < 1e-10);
        }
    }

    #[test]
    fn power_taps_compose(kernel in prop::collection::vec(0.0..0.5f64, 2..4), h1 in 1u64..12, h2 in 1u64..12) {
        // kernel^{⊛(h1+h2)} == kernel^{⊛h1} ⊛ kernel^{⊛h2}
        let lhs = kernel_power_taps(&kernel, h1 + h2);
        let rhs = convolve_direct(&kernel_power_taps(&kernel, h1), &kernel_power_taps(&kernel, h2));
        prop_assert_eq!(lhs.len(), rhs.len());
        for (x, y) in lhs.iter().zip(&rhs) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn valid_correlation_matches_stepped_reference(
        x in prop::collection::vec(-3.0..3.0f64, 30..200),
        w0 in 0.05..0.6f64,
        w1 in 0.05..0.6f64,
        h in 1u64..12,
    ) {
        let kernel = [w0, w1];
        let got = correlate_power_valid(&x, &kernel, h);
        let mut row = x.clone();
        for _ in 0..h {
            row = (0..row.len() - 1).map(|c| kernel[0] * row[c] + kernel[1] * row[c + 1]).collect();
        }
        prop_assert_eq!(got.len(), row.len());
        let scale: f64 = x.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (g, w) in got.iter().zip(&row) {
            prop_assert!((g - w).abs() < 1e-9 * scale, "{} vs {}", g, w);
        }
    }

    #[test]
    fn valid_correlation_matches_explicit_power_taps(case in arb_kernel_and_row(64)) {
        let (kernel, h, x) = case;
        let taps = kernel_power_taps(&kernel, h);
        let got = correlate_power_valid(&x, &kernel, h);
        prop_assert_eq!(got.len(), x.len() + 1 - taps.len());
        let scale: f64 = x.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (c, g) in got.iter().enumerate() {
            let want: f64 = taps.iter().zip(&x[c..]).map(|(w, v)| w * v).sum();
            prop_assert!((g - want).abs() < 1e-10 * scale, "{} vs {}", g, want);
        }
    }
}

/// A nonnegative lattice-shaped kernel: a discounted two-tap one, a
/// Boyle-like three-tap one, a three-tap one live at Nyquist (`[q, 1 − 2q,
/// q]`, `q` near ½), or a two-tap one of mass up to 1.02.
fn arb_lattice_kernel() -> impl Strategy<Value = Vec<f64>> {
    (0usize..4, 0.3..0.7f64, 0.0..1.0f64, 0.99..1.0f64).prop_map(|(shape, p, u, d)| match shape {
        0 => vec![p * d, (1.0 - p) * d],
        1 => {
            let middle = 0.2 + 0.4 * u;
            vec![p * (1.0 - middle) * d, middle * d, (1.0 - p) * (1.0 - middle) * d]
        }
        2 => {
            let q = 0.45 + 0.045 * u;
            vec![q * d, (1.0 - 2.0 * q) * d, q * d]
        }
        _ => vec![p * (1.0 + 0.02 * u), (1.0 - p) * (1.0 + 0.02 * u)],
    })
}

/// A lattice-shaped kernel and a row that hosts `h ≤ 4 096` steps of it
/// with 1 … 64 cells to spare.
fn arb_lattice_case() -> impl Strategy<Value = (Vec<f64>, u64, Vec<f64>)> {
    (arb_lattice_kernel(), 1..=4096u64, 1usize..=64).prop_flat_map(|(kernel, h, spare)| {
        let len = power_kernel_len(kernel.len(), h) + spare - 1;
        prop::collection::vec(-3.0..3.0f64, len).prop_map(move |x| (kernel.clone(), h, x))
    })
}

/// The correlation on the whole row's transform, every multiplier paid for,
/// through the public complex transform alone: the row as `n` complex
/// points in natural order, every one of the `n` bins times
/// `conj(K_k)^h` with `K_k` summed from the plan's roots, the natural-order
/// inverse, and the real parts.  No real split, no octave order, no band.
fn correlate_full_size(x: &[f64], kernel: &[f64], h: u64) -> Vec<f64> {
    let n = x.len().next_power_of_two();
    let fft = plan(n);
    let mut row: Vec<Complex64> = x.iter().map(|&v| c64(v, 0.0)).collect();
    row.resize(n, Complex64::ZERO);
    fft.forward(&mut row);
    for (k, bin) in row.iter_mut().enumerate() {
        let mut response = Complex64::ZERO;
        for (m, &w) in kernel.iter().enumerate() {
            response += fft.root((k * m) % n) * w;
        }
        *bin = if k == 0 || 2 * k == n {
            bin.scale(response.re.powf(h as f64))
        } else {
            *bin * response.conj().powu(h)
        };
    }
    fft.inverse(&mut row);
    row.truncate(x.len() + 1 - power_kernel_len(kernel.len(), h));
    row.iter().map(|v| v.re).collect()
}

/// The full linear convolution of `a` and `b`, each output its own sum of
/// products.
fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rows a few cells wider than the power kernel: past a few hundred
    /// steps the correlation transforms only the kernel's band, a fraction
    /// of the row, and must still give the whole row's correlation.
    #[test]
    fn banded_correlation_matches_the_full_size_transform(case in arb_lattice_case()) {
        let (kernel, h, x) = case;
        let got = correlate_power_valid(&x, &kernel, h);
        let want = correlate_full_size(&x, &kernel, h);
        prop_assert_eq!(got.len(), want.len());
        // Each transform rounds by about the h·ε of a multiplier's h-th
        // power, on a row grown by at most max(1, s^h).
        let growth = kernel.iter().sum::<f64>().powf(h as f64).max(1.0);
        let scale = x.iter().map(|v| v.abs()).fold(1.0, f64::max) * growth;
        let tol = 4.0 * h as f64 * f64::EPSILON * scale;
        for (c, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() <= tol, "h={} c={}: {} vs {}", h, c, g, w);
        }
    }
}

proptest! {
    // Each case steps a row of up to 8 256 cells up to 4 096 times.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn deep_valid_correlation_matches_stepped_reference(case in arb_kernel_and_row(4096)) {
        let (kernel, h, x) = case;
        let got = correlate_power_valid(&x, &kernel, h);
        let mut row = x.clone();
        for _ in 0..h {
            row = row.windows(kernel.len()).map(|c| c.iter().zip(&kernel).map(|(v, w)| v * w).sum()).collect();
        }
        prop_assert_eq!(got.len(), row.len());
        let scale: f64 = x.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (g, w) in got.iter().zip(&row) {
            prop_assert!((g - w).abs() < 1e-9 * scale, "h={}: {} vs {}", h, g, w);
        }
    }
}
