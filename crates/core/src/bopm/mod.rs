//! Binomial Option Pricing Model (Cox–Ross–Rubinstein lattice), §2 of the
//! paper: the binomial [`Lattice`], plus the cache-aware tiled nest the
//! paper benchmarks against.  The model, its fast route, nest and European
//! pass live in [`crate::lattice`]; `fast`, `naive` and `european` are
//! re-exported here under their old paths, which the benchmark harness
//! (`perf/`) still names.

pub mod tiled;

use crate::lattice::Lattice;
pub use crate::lattice::{european, fast, naive};

/// The binomial lattice: rows gain one cell per step, a 2-tap kernel.
pub type BopmModel = Lattice<1>;
