//! # amopt-fft — FFT substrate for the nonlinear-stencil option pricer
//!
//! From-scratch double-precision FFT stack built for the reproduction of
//! *Fast American Option Pricing using Nonlinear Stencils* (PPoPP 2024):
//!
//! * [`Complex64`] — minimal complex arithmetic, including the integer
//!   power by square-and-multiply used for pointwise spectrum powering.
//! * [`radix2`] — depth-first power-of-two Cooley–Tukey transform in
//!   radix-4 passes with a process-wide plan cache, forked over halves: a
//!   decimation-in-frequency forward into bit-reversed order and a
//!   decimation-in-time inverse out of it, so a correlation never permutes.
//! * `real` (private) — the real-input transform: a length-`n` real row
//!   through one `n/2`-point complex FFT, bins `0 … n/2` only, which a
//!   correlation multiplies in the transform's bit-reversed order and never
//!   puts in natural order.
//! * [`convolve`] — the kernel-power correlation primitive
//!   ([`correlate_power_valid`]) that implements the aperiodic
//!   linear-stencil algorithm of Ahmad et al. (SPAA 2021), the substrate
//!   reference \[1\] of the paper; [`KernelPowers`] keeps the spectrum
//!   multipliers of the kernels its owner correlates with — one pricing,
//!   or one batch group of contracts that share their kernels.
//!
//! Everything is `f64`; transforms of the sizes used by the pricer
//! (`≤ 2²¹`) keep relative error around `1e-13 · log n`.

#![forbid(unsafe_code)]

pub mod complex;
pub mod convolve;
pub mod radix2;
mod real;

pub use complex::{c64, Complex64};
pub use convolve::{
    correlate_power_valid, correlate_power_valid_with, kernel_power_taps, power_kernel_len,
    FftScratch, KernelPowers,
};
pub use radix2::{plan, Fft};
