//! Property-based tests for the FFT substrate: transforms and convolutions
//! must agree with their quadratic-time definitions on arbitrary inputs.

use amopt_fft::{
    c64, correlate_power_valid, fft, ifft, kernel_power_taps, linear_convolve, power_kernel_len,
    Complex64, RealFft,
};
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

/// A real row of any length (odd or even) up to its transform size
/// `n ∈ {4 … 4 096}`, with that size.
fn arb_real_row() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (2u32..=12).prop_flat_map(|p| {
        let n = 1usize << p;
        prop::collection::vec(-10.0..10.0f64, n / 2 + 1..n + 1).prop_map(move |x| (n, x))
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
    fn real_bins_match_the_naive_dft(row in arb_real_row()) {
        let (n, x) = row;
        let got = RealFft::new(n).spectrum(&x);
        prop_assert_eq!(got.len(), n / 2 + 1);
        let mut padded: Vec<Complex64> = x.iter().map(|&v| Complex64::from(v)).collect();
        padded.resize(n, Complex64::ZERO);
        let want = dft_naive(&padded);
        let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((*g - *w).abs() < 1e-10 * scale, "n={} k={}", n, k);
        }
    }

    #[test]
    fn real_inverse_of_forward_is_the_identity(row in arb_real_row()) {
        let (n, x) = row;
        let real = RealFft::new(n);
        let mut buf = Vec::new();
        real.forward(&x, &mut buf);
        real.map_bins(&mut buf, |_, v| v);
        let back = real.inverse(&mut buf, x.len());
        prop_assert_eq!(back.len(), x.len());
        for (g, w) in back.iter().zip(&x) {
            prop_assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_matches_naive_dft(x in arb_signal(8)) {
        let mut got = x.clone();
        fft(&mut got);
        let want = dft_naive(&x);
        let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((*g - *w).abs() < 1e-10 * scale);
        }
    }

    #[test]
    fn roundtrip_identity(x in arb_signal(12)) {
        let mut buf = x.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (g, w) in buf.iter().zip(&x) {
            prop_assert!((*g - *w).abs() < 1e-10);
        }
    }

    #[test]
    fn convolution_commutes(
        a in prop::collection::vec(-5.0..5.0f64, 1..80),
        b in prop::collection::vec(-5.0..5.0f64, 1..80),
    ) {
        let ab = linear_convolve(&a, &b);
        let ba = linear_convolve(&b, &a);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn convolution_total_mass_is_product_of_masses(
        a in prop::collection::vec(-2.0..2.0f64, 1..60),
        b in prop::collection::vec(-2.0..2.0f64, 1..60),
    ) {
        let conv = linear_convolve(&a, &b);
        let lhs: f64 = conv.iter().sum();
        let rhs = a.iter().sum::<f64>() * b.iter().sum::<f64>();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn power_taps_compose(kernel in prop::collection::vec(0.0..0.5f64, 2..4), h1 in 1u64..12, h2 in 1u64..12) {
        // kernel^{⊛(h1+h2)} == kernel^{⊛h1} ⊛ kernel^{⊛h2}
        let lhs = kernel_power_taps(&kernel, h1 + h2);
        let rhs = linear_convolve(&kernel_power_taps(&kernel, h1), &kernel_power_taps(&kernel, h2));
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
