//! # amopt-core — American option pricing via nonlinear stencils
//!
//! Rust reproduction of *Fast American Option Pricing using Nonlinear
//! Stencils* (Ahmad, Browne, Chowdhury, Das, Huang, Zhu — PPoPP 2024).
//!
//! Three pricing problems, each with a `Θ(T²)`-work reference family and the
//! paper's `O(T log² T)`-work / `O(T)`-span FFT trapezoid algorithm:
//!
//! * [`lattice`] — American **calls and puts** on the binomial (§2) and
//!   trinomial (§3, App. A) lattices, one [`lattice::Lattice<W>`] model
//!   with one fast route, one nest and one European pass for both
//!   ([`bopm::BopmModel`] = `Lattice<1>`, [`topm::TopmModel`] =
//!   `Lattice<2>`);
//! * [`bsm`]  — American **put**, Black–Scholes–Merton explicit finite
//!   difference (§4).
//!
//! The shared machinery lives in [`engine`] (the nonlinear-stencil trapezoid
//! decomposition) on top of `amopt-stencil`/`amopt-fft` (the linear FFT
//! stencil substrate).  [`analytic`] provides closed-form European oracles.
//!
//! Portfolio-scale workloads enter through [`batch`]: heterogeneous books
//! via [`BatchPricer`], finite-difference greeks via [`batch::greeks`], and
//! implied-volatility surfaces via [`batch::surface`] — all sharing one
//! sharded memo and one fork-join fan-out.  See the repository's
//! `ARCHITECTURE.md` for the full paper-section → module map and the batch
//! request lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod batch;
pub mod bermudan;
pub mod bopm;
pub mod bsm;
pub mod engine;
pub mod error;
pub mod exercise_boundary;
pub mod greeks;
pub mod implied_vol;
pub mod lattice;
pub mod params;
pub mod topm;

pub use batch::surface::VolQuote;
pub use batch::{BatchPricer, MemoStats, ModelKind, PricingRequest};
pub use engine::EngineConfig;
pub use error::{PricingError, Result};
pub use greeks::Greeks;
pub use params::{ExerciseStyle, OptionParams, OptionType};
