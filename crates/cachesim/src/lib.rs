//! # amopt-cachesim — cache and energy simulation substrate
//!
//! The paper measures L1/L2 misses with PAPI and energy with RAPL (`perf`)
//! on a Skylake node.  Neither interface is portable or available in a
//! container, so this crate substitutes:
//!
//! * [`cache`] — a set-associative LRU L1+L2 hierarchy with the paper's
//!   Table 3 geometry, driven by address traces;
//! * [`kernels`] — address-level replicas of the naive, tiled, and
//!   FFT-trapezoid pricing kernels (see module docs for the fidelity
//!   contract of each);
//! * [`energy`] — a per-event energy model mapping the counters onto the
//!   RAPL pkg/RAM domains.
//!
//! Together these regenerate the *shape* of the paper's Figures 6, 7 and 10;
//! ARCHITECTURE.md ("Errata and substitutions") documents the substitution
//! rationale.

#![forbid(unsafe_code)]

pub mod cache;
pub mod energy;
pub mod kernels;

pub use cache::{CacheLevel, Hierarchy, SimReport};
pub use energy::{EnergyBreakdown, EnergyModel};
