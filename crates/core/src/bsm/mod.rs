//! Black–Scholes–Merton American put via explicit finite differences (§4 of
//! the paper): a put-only handle on the grid.
//!
//! The scheme is a trinomial-shaped [`Lattice`] (its derivation is in the
//! [`crate::lattice`] module docs), priced by the lattice's fast route, nest
//! and European pass.  [`BsmModel`] wraps it so that no call route reaches
//! it: a dividend-free FD grid has no mirror.  `fast` and `naive` forward to
//! the lattice under the paths the benchmark harness (`perf/`) still names.

use crate::error::Result;
use crate::lattice::Lattice;
use crate::params::OptionParams;

/// The explicit-FD discretisation of the BSM put problem.
#[derive(Debug, Clone)]
pub struct BsmModel(pub(crate) Lattice<2>);

impl BsmModel {
    /// Builds the discretisation, validating parameters and stability.
    ///
    /// The paper's BSM section has no dividend yield; a non-zero
    /// `dividend_yield` is rejected to avoid silently mispricing.
    pub fn new(params: OptionParams, steps: usize) -> Result<Self> {
        Lattice::explicit_fd(params, steps).map(BsmModel)
    }
}

/// The fast American put (`fft-bsm` in the paper's plots).
pub mod fast {
    use super::BsmModel;
    use crate::engine::EngineConfig;

    /// [`crate::lattice::fast::price_american_put`] on the model's grid.  The
    /// [`EngineConfig`] is an empty marker, ignored.
    pub fn price_american_put(model: &BsmModel, _: &EngineConfig) -> f64 {
        crate::lattice::fast::price_american_put(&model.0)
    }
}

/// The `Θ(T²)` nest (`vanilla-bsm`).
pub mod naive {
    use super::BsmModel;
    pub use crate::lattice::naive::ExecMode;
    use crate::params::{ExerciseStyle, OptionType};

    /// [`crate::lattice::naive::price`] of the American put on the model's
    /// grid.
    pub fn price_american_put(model: &BsmModel, mode: ExecMode) -> f64 {
        crate::lattice::naive::price(&model.0, OptionType::Put, ExerciseStyle::American, mode)
    }
}
