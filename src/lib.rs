//! # american-option-pricing
//!
//! Fast American option pricing using nonlinear stencils — a Rust
//! reproduction of Ahmad, Browne, Chowdhury, Das, Huang & Zhu (PPoPP 2024).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`fft`] — from-scratch FFT substrate (radix-2, real packing,
//!   kernel-power correlation);
//! * [`parallel`] — fork-join facade over the work-stealing pool;
//! * [`stencil`] — linear 1-D stencil engine (Ahmad et al., SPAA 2021);
//! * [`core`] — the paper's contribution: nonlinear-stencil trapezoid
//!   engine, one binomial/trinomial lattice (`core::lattice`) and the BSM
//!   grid, each with naive and FFT implementations, greeks, implied vol,
//!   Bermudan options, exercise-boundary extraction, and the batch pricing
//!   subsystem
//!   (`core::batch`: dedup + sharded memo + parallel fan-out over
//!   heterogeneous books, batch-native greeks ladders, and lockstep
//!   implied-vol surface inversion);
//! * [`service`] — the batch-coalescing quote service: a bounded
//!   earliest-deadline-first submission queue with deadline/size coalescing,
//!   backpressure, and a line-JSON TCP front end (a single-threaded epoll
//!   reactor), turning independent incoming quotes into `BatchPricer`
//!   batches;
//! * [`cachesim`] — cache-hierarchy and energy simulation (the PAPI/RAPL
//!   substitute used to regenerate the paper's Figures 6/7/10).
//!
//! ## Quick start
//!
//! ```
//! use american_option_pricing::prelude::*;
//!
//! let params = OptionParams::paper_defaults();
//! let model = BopmModel::new(params, 1024).unwrap();
//! let price = lattice_fast::price_american_call(&model, &EngineConfig::default());
//! assert!((price - 8.32).abs() < 0.05);
//! ```
//!
//! Derived quantities route through the batch layer — greeks ladders and
//! implied-vol surfaces fan out through one [`BatchPricer`](prelude::BatchPricer):
//!
//! ```
//! use american_option_pricing::prelude::*;
//!
//! let pricer = BatchPricer::new(EngineConfig::default());
//! let req = PricingRequest::american(
//!     ModelKind::Bopm,
//!     OptionType::Call,
//!     OptionParams::paper_defaults(),
//!     256,
//! );
//! let g: Greeks = batch_greeks(&pricer, std::slice::from_ref(&req)).remove(0).unwrap();
//! assert!(g.delta > 0.0 && g.vega > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use amopt_cachesim as cachesim;
pub use amopt_core as core;
pub use amopt_fft as fft;
pub use amopt_parallel as parallel;
pub use amopt_service as service;
pub use amopt_stencil as stencil;

/// Most-used items in one import.
pub mod prelude {
    pub use amopt_core::batch::greeks::greeks as batch_greeks;
    pub use amopt_core::batch::surface::{implied_vol_surface, VolQuote};
    pub use amopt_core::batch::{self, BatchPricer, MemoStats, ModelKind, PricingRequest};
    pub use amopt_core::bopm::BopmModel;
    pub use amopt_core::bsm::{fast as bsm_fast, naive as bsm_naive, BsmModel};
    pub use amopt_core::greeks::{greeks_by_fd, Greeks};
    pub use amopt_core::lattice::{fast as lattice_fast, naive as lattice_naive, Lattice};
    pub use amopt_core::topm::TopmModel;
    pub use amopt_core::{
        analytic, bermudan, exercise_boundary, greeks, implied_vol, EngineConfig, ExerciseStyle,
        OptionParams, OptionType, PricingError,
    };
    pub use amopt_service::{
        QuoteServer, QuoteService, ServiceConfig, ServiceError, ServiceRequest, ServiceResponse,
        ServiceStats, TcpQuoteClient,
    };
}
