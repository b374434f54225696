//! Property-based tests for the linear stencil engine: all backends agree on
//! arbitrary kernels/segments, and advancement composes.

use amopt_stencil::{advance, Backend, Segment, StencilKernel};
use proptest::prelude::*;

fn arb_kernel() -> impl Strategy<Value = StencilKernel> {
    (prop::collection::vec(0.01..0.45f64, 2..4), -2i64..=1)
        .prop_map(|(w, anchor)| StencilKernel::new(w, anchor))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backends_agree_on_random_inputs(
        kernel in arb_kernel(),
        values in prop::collection::vec(-5.0..5.0f64, 60..250),
        start in -100i64..100,
        h in 1u64..15,
    ) {
        prop_assume!(values.len() > kernel.span() * h as usize + 1);
        let seg = Segment::new(start, values);
        let f = advance(&seg, &kernel, h, Backend::Fft);
        let s = advance(&seg, &kernel, h, Backend::Stepped);
        prop_assert_eq!(f.start, s.start);
        prop_assert_eq!(f.len(), s.len());
        for i in 0..f.len() {
            prop_assert!((f.values[i] - s.values[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn advancement_composes(
        kernel in arb_kernel(),
        values in prop::collection::vec(-5.0..5.0f64, 120..300),
        h1 in 1u64..10,
        h2 in 1u64..10,
    ) {
        prop_assume!(values.len() > kernel.span() * (h1 + h2) as usize + 1);
        let seg = Segment::new(0, values);
        let once = advance(&seg, &kernel, h1 + h2, Backend::Fft);
        let mid = advance(&seg, &kernel, h1, Backend::Fft);
        let twice = advance(&mid, &kernel, h2, Backend::Fft);
        prop_assert_eq!(once.start, twice.start);
        prop_assert_eq!(once.len(), twice.len());
        for i in 0..once.len() {
            prop_assert!((once.values[i] - twice.values[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn output_geometry_is_exact(
        kernel in arb_kernel(),
        len in 50usize..200,
        start in -50i64..50,
        h in 1u64..12,
    ) {
        prop_assume!(len > kernel.span() * h as usize + 1);
        let seg = Segment::new(start, vec![1.0; len]);
        let out = advance(&seg, &kernel, h, Backend::Fft);
        prop_assert_eq!(out.start, start - kernel.anchor() * h as i64);
        prop_assert_eq!(out.len(), len - kernel.span() * h as usize);
    }
}
