//! Trinomial Option Pricing Model (Boyle lattice), §3 and Appendix A of the
//! paper: the trinomial [`Lattice`].  The model, its fast route, nest and
//! European pass live in [`crate::lattice`]; `fast`, `naive` and `european`
//! are re-exported here under their old paths, which the benchmark harness
//! (`perf/`) still names.

use crate::lattice::Lattice;
pub use crate::lattice::{european, fast, naive};

/// The trinomial lattice: rows gain two cells per step, a 3-tap kernel.
pub type TopmModel = Lattice<2>;
