//! # amopt-stencil — linear 1-D stencil engine
//!
//! Implements the linear-stencil substrate the paper builds on (Ahmad et al.,
//! *Fast stencil computations using fast Fourier transforms*, SPAA 2021 —
//! reference \[1\] of the PPoPP 2024 paper):
//!
//! * [`StencilKernel`] — one linear time step (taps + anchor offset);
//! * [`Segment`] — row values anchored at an absolute column;
//! * [`advance()`](advance::advance) — `h`-step aperiodic evolution returning the valid cone
//!   interior, with the FFT backend (`O(L log L)`) and the stepped reference;
//!   [`advance_powered()`](advance::advance_powered) is the FFT backend with a
//!   caller's `amopt_fft::KernelPowers`, whose multiplier tables outlive the
//!   call.
//!
//! The *nonlinear* stencils of the paper (`max(linear, obstacle)`) live in
//! `amopt-core`; they call into this crate on regions certified to be free of
//! the obstacle.

#![forbid(unsafe_code)]

pub mod advance;
pub mod kernel;
pub mod segment;

pub use advance::{
    advance, advance_powered, advance_values_with, output_start, valid_output_len, with_scratch,
    AdvanceScratch, Backend,
};
pub use kernel::StencilKernel;
pub use segment::Segment;
