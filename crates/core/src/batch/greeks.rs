//! Batch-native finite-difference greeks.
//!
//! A full set of greeks is 8–9 repricings of *near-identical* contracts —
//! exactly the workload the batch layer is built for.  This module expresses
//! each contract's bump stencil (spot ±h and base for delta/gamma, vol ±h
//! for vega, rate bumps for rho, expiry ±h for theta) as
//! [`PricingRequest`]s, fans **all bumps for all contracts** through one
//! [`BatchPricer::price_batch`] call, and reassembles per-contract
//! [`Greeks`] from the returned prices:
//!
//! * every bump prices in parallel over the fork-join pool (a book of `n`
//!   contracts is one batch of `~9n` requests, not `n` serial ladders);
//! * ladders share the dedup/memo machinery — the base-parameter request of
//!   the rho fallback is the same request as gamma's centre point, bumped
//!   requests repeated across calls hit the memo, and two contracts that
//!   share a bumped neighbour price it once;
//! * the arithmetic is identical to the serial path, so
//!   [`crate::greeks::greeks_by_fd`] — now a batch-of-one facade over this
//!   module — returns bitwise-identical greeks.
//!
//! ```
//! use amopt_core::batch::{greeks, BatchPricer, ModelKind, PricingRequest};
//! use amopt_core::{EngineConfig, OptionParams, OptionType};
//!
//! let pricer = BatchPricer::new(EngineConfig::default());
//! let base = OptionParams::paper_defaults();
//! let book: Vec<PricingRequest> = (0..4)
//!     .map(|i| OptionParams { strike: 110.0 + 10.0 * i as f64, ..base })
//!     .map(|p| PricingRequest::american(ModelKind::Bopm, OptionType::Call, p, 256))
//!     .collect();
//! for g in greeks::greeks(&pricer, &book) {
//!     let g = g.unwrap();
//!     assert!(g.delta > 0.0 && g.delta < 1.0 && g.vega > 0.0);
//! }
//! ```

use crate::batch::{BatchPricer, PricingRequest};
use crate::error::Result;
use crate::greeks::{Greeks, BUMP_RATE, BUMP_SPOT, BUMP_TIME, BUMP_VOL, VOL_BUMP_FLOOR};
use crate::params::OptionParams;

/// The bump ladder of one contract: where its requests start in the fanned
/// batch, the bump widths, and whether rho got a symmetric down bump.
struct Ladder {
    start: usize,
    hs: f64,
    hv: f64,
    ht: f64,
    /// `false` when `rate < BUMP_RATE`: the down bump would leave the
    /// admissible domain, so rho is the documented one-sided forward
    /// difference against the base price.
    central_rho: bool,
}

impl Ladder {
    /// Number of requests the ladder occupies (base + 2 spot + 2 vol +
    /// 2 expiry + 1 or 2 rate).
    fn len(&self) -> usize {
        if self.central_rho {
            9
        } else {
            8
        }
    }
}

/// Builds the bump requests for `req` in the serial path's evaluation order:
/// spot up, base, spot down, vol up, vol down, rate up, (rate down), expiry
/// up, expiry down.
fn push_ladder(req: &PricingRequest, start: usize, out: &mut Vec<PricingRequest>) -> Ladder {
    let p = req.params;
    let bump = |params: OptionParams| PricingRequest { params, ..req.clone() };
    let hs = p.spot * BUMP_SPOT;
    let hv = p.volatility.max(VOL_BUMP_FLOOR) * BUMP_VOL;
    let ht = p.expiry * BUMP_TIME;
    let central_rho = p.rate >= BUMP_RATE;
    out.push(bump(OptionParams { spot: p.spot + hs, ..p }));
    out.push(req.clone());
    out.push(bump(OptionParams { spot: p.spot - hs, ..p }));
    out.push(bump(OptionParams { volatility: p.volatility + hv, ..p }));
    out.push(bump(OptionParams { volatility: p.volatility - hv, ..p }));
    out.push(bump(OptionParams { rate: p.rate + BUMP_RATE, ..p }));
    if central_rho {
        out.push(bump(OptionParams { rate: p.rate - BUMP_RATE, ..p }));
    }
    out.push(bump(OptionParams { expiry: p.expiry + ht, ..p }));
    out.push(bump(OptionParams { expiry: p.expiry - ht, ..p }));
    Ladder { start, hs, hv, ht, central_rho }
}

/// Reassembles one contract's [`Greeks`] from its ladder's prices,
/// propagating the first error in the serial path's evaluation order.
fn assemble(ladder: &Ladder, prices: &[Result<f64>]) -> Result<Greeks> {
    let at = |i: usize| -> Result<f64> { prices[ladder.start + i].clone() };
    let s_up = at(0)?;
    let mid = at(1)?;
    let s_dn = at(2)?;
    let delta = (s_up - s_dn) / (2.0 * ladder.hs);
    let gamma = (s_up - 2.0 * mid + s_dn) / (ladder.hs * ladder.hs);
    let v_up = at(3)?;
    let v_dn = at(4)?;
    let vega = (v_up - v_dn) / (2.0 * ladder.hv);
    let r_up = at(5)?;
    let (rho, time_base) = if ladder.central_rho {
        ((r_up - at(6)?) / (2.0 * BUMP_RATE), 7)
    } else {
        // One-sided forward difference against the base price — which the
        // batch deduplicated onto gamma's centre request, exactly the value
        // the serial path recomputes.  See `Greeks::rho`.
        ((r_up - mid) / BUMP_RATE, 6)
    };
    let e_up = at(time_base)?;
    let e_dn = at(time_base + 1)?;
    let theta = -(e_up - e_dn) / (2.0 * ladder.ht);
    debug_assert_eq!(time_base + 2, ladder.len());
    Ok(Greeks { delta, gamma, theta, vega, rho })
}

/// Finite-difference greeks for every contract in `requests`, all bumps
/// fanned through `pricer` as **one batch**.
///
/// Returns one `Result` per input contract, order-preserving.  A contract
/// with invalid base parameters, or whose bumped neighbours fail to price
/// (e.g. an unstable discretisation at `volatility − h`), gets the error in
/// its own slot; the rest of the book is unaffected.  Works for any
/// [`PricingRequest`] the batch layer routes — model × call/put × exercise
/// style — since the ladder only rewrites `params`.
pub fn greeks(pricer: &BatchPricer, requests: &[PricingRequest]) -> Vec<Result<Greeks>> {
    // Build every ladder first (validation errors short-circuit without
    // submitting bumps), then price all of them in a single batch.
    let mut bumps: Vec<PricingRequest> = Vec::with_capacity(9 * requests.len());
    let ladders: Vec<Result<Ladder>> = requests
        .iter()
        .map(|req| {
            req.params.validated()?;
            Ok(push_ladder(req, bumps.len(), &mut bumps))
        })
        .collect();
    let prices = pricer.price_batch(&bumps);
    ladders.into_iter().map(|ladder| assemble(&ladder?, &prices)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ModelKind;
    use crate::engine::EngineConfig;
    use crate::params::{OptionParams, OptionType};

    fn p() -> OptionParams {
        OptionParams::paper_defaults()
    }

    #[test]
    fn batch_of_one_matches_the_serial_facade_bitwise() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let req = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 400);
        let batch = greeks(&pricer, std::slice::from_ref(&req)).pop().unwrap().unwrap();
        let one_shot = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
        let serial = crate::greeks::greeks_by_fd(&one_shot, &req).unwrap();
        for (a, b) in [
            (batch.delta, serial.delta),
            (batch.gamma, serial.gamma),
            (batch.theta, serial.theta),
            (batch.vega, serial.vega),
            (batch.rho, serial.rho),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{batch:?} vs {serial:?}");
        }
    }

    #[test]
    fn rate_below_bump_takes_the_shorter_one_sided_ladder() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let zero_rate = OptionParams { rate: 0.0, ..p() };
        let book = vec![
            PricingRequest::american(ModelKind::Bopm, OptionType::Call, zero_rate, 200),
            PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 200),
        ];
        let out = greeks(&pricer, &book);
        assert!(out.iter().all(Result::is_ok));
        // 8 bumps for the zero-rate ladder + 9 for the central one, all
        // distinct (different rates everywhere).
        assert_eq!(pricer.memo_stats().misses, 17);
        assert!(out[0].as_ref().unwrap().rho.is_finite());
    }

    #[test]
    fn invalid_contract_gets_its_own_error_and_prices_nothing() {
        let pricer = BatchPricer::new(EngineConfig::default());
        let bad = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { spot: -3.0, ..p() },
            64,
        );
        let good = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 64);
        let out = greeks(&pricer, &[bad, good]);
        assert!(out[0].is_err());
        assert!(out[1].is_ok());
        // Only the good contract's 9 bumps were submitted.
        assert_eq!(pricer.memo_stats().misses, 9);
    }

    #[test]
    fn ladders_share_bumped_neighbours_through_dedup() {
        // Two contracts whose spot bumps collide: 100*(1+1e-2) == 102*(1-1e-2)
        // would need matching spots; instead just submit the same contract
        // twice — the whole second ladder must dedup onto the first.
        let pricer = BatchPricer::new(EngineConfig::default());
        let req = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 128);
        let out = greeks(&pricer, &[req.clone(), req]);
        assert_eq!(pricer.memo_stats().misses, 9);
        let (a, b) = (out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
        assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
    }
}
