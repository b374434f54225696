//! Binomial Option Pricing Model (Cox–Ross–Rubinstein lattice), §2 of the
//! paper: the binomial [`Lattice`].  The model, its fast route, nest and
//! linear pass live in [`crate::lattice`]; `naive` and `european` (the
//! linear pass, [`crate::lattice::linear`]) are re-exported here under their
//! old paths, and `fast` forwards the two American routes, because the
//! benchmark harness (`perf/`) still names them.

use crate::lattice::Lattice;
pub use crate::lattice::{linear as european, naive};

/// The binomial lattice: rows gain one cell per step, a 2-tap kernel.
pub type BopmModel = Lattice<1>;

/// The fast American routes of either tree (`fft-bopm` / `fft-topm` in the
/// paper's plots; `topm::fast` is this module), each ignoring the empty
/// [`EngineConfig`](crate::EngineConfig) the benchmark harness passes.
pub mod fast {
    use crate::engine::EngineConfig;
    use crate::lattice::{fast, Lattice};

    /// [`crate::lattice::fast::price_american_call`].
    pub fn price_american_call<const W: usize>(model: &Lattice<W>, _: &EngineConfig) -> f64 {
        fast::price_american_call(model)
    }

    /// [`crate::lattice::fast::price_american_put`].
    pub fn price_american_put<const W: usize>(model: &Lattice<W>, _: &EngineConfig) -> f64 {
        fast::price_american_put(model)
    }
}
