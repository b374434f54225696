//! Trinomial Option Pricing Model (Boyle lattice), §3 and Appendix A of the
//! paper: the trinomial [`Lattice`].  The model, its fast route, nest and
//! linear pass live in [`crate::lattice`]; `naive` and `european` (the
//! linear pass, [`crate::lattice::linear`]) are re-exported here under their
//! old paths, and `fast` is [`crate::bopm::fast`]'s two American forwards,
//! because the benchmark harness (`perf/`) still names them.

pub use crate::bopm::fast;
use crate::lattice::Lattice;
pub use crate::lattice::{linear as european, naive};

/// The trinomial lattice: rows gain two cells per step, a 3-tap kernel.
pub type TopmModel = Lattice<2>;
