//! Piecewise-constant volatility term structure — the "time dependent
//! volatility model" future-work item of the paper's §6, for European
//! contracts.
//!
//! A CRR tree with per-step `u` changing over time stops recombining, so we
//! fix the *grid* spacing from a reference volatility and let each time
//! segment carry its own risk-neutral weights on that common grid (the
//! standard fixed-grid trick: the per-segment probability
//! `p_k = (e^{(R−Y)Δt} − 1/u)/(u − 1/u)` absorbs the vol change through the
//! segment's own `Δt`-scaled drift... more precisely we pick the grid `u`
//! from the *largest* segment volatility so every segment's `p_k ∈ (0, 1)`).
//!
//! Because each segment is a *linear* stencil with a constant kernel, the
//! whole evolution is a product of kernel powers in the spectral domain:
//! `FFT(payoff) · Π_k FFT(kernel_k)^{h_k}` — one transform pair total,
//! `O(T log T)` regardless of the number of segments.

use super::BopmModel;
use crate::error::{PricingError, Result};
use crate::params::{OptionParams, OptionType};
use amopt_fft::{kernel_response, next_pow2, RealFft};

/// One segment of the volatility term structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolSegment {
    /// Number of lattice steps in this segment (from the expiry backward).
    pub steps: usize,
    /// Annualised volatility over the segment.
    pub volatility: f64,
}

/// European price under a piecewise-constant volatility term structure.
///
/// `segments` are ordered from the valuation date toward expiry and their
/// step counts must sum to the lattice size `T`.  Uses put pricing plus
/// exact parity for calls (dynamic-range safety; see `bopm::european`).
pub fn price_european_term_fft(
    params: &OptionParams,
    segments: &[VolSegment],
    opt: OptionType,
) -> Result<f64> {
    let params = params.validated()?;
    if segments.is_empty() {
        return Err(PricingError::InvalidParams {
            field: "segments",
            reason: "need at least one volatility segment".into(),
        });
    }
    let t: usize = segments.iter().map(|s| s.steps).sum();
    if t == 0 {
        return Err(PricingError::InvalidParams {
            field: "segments",
            reason: "segments must contain at least one step in total".into(),
        });
    }
    // Common grid from the largest volatility (guarantees p ∈ (0,1) for the
    // quieter segments as long as each segment model validates).
    let v_max = segments.iter().map(|s| s.volatility).fold(0.0, f64::max);
    let grid = BopmModel::new(OptionParams { volatility: v_max, ..params }, t)?;
    let dt = params.dt(t);
    let u = grid.up();
    let growth = ((params.rate - params.dividend_yield) * dt).exp();
    let discount = (-params.rate * dt).exp();

    // Per-segment kernels on the shared grid: only p changes.
    let mut kernels = Vec::with_capacity(segments.len());
    for seg in segments {
        if seg.volatility > v_max + 1e-15 || seg.volatility <= 0.0 {
            return Err(PricingError::InvalidParams {
                field: "segments",
                reason: "segment volatilities must be positive".into(),
            });
        }
        // Match the segment's variance on the fixed grid: the price takes a
        // ±1 grid step with probability q, stays via a 2-step split…  On a
        // binomial grid the only freedom is p; matching the first moment
        // exactly keeps the tree risk-neutral, and the vol enters through
        // the *effective* variance p(1−p)(2 ln u)² ≤ (V_max √Δt·…)².  For
        // segments quieter than the grid this under-disperses, so we blend
        // an identity component: kernel = (1−θ)·δ + θ·[1−p, p] with
        // θ = (V_seg/V_max)² chosen to reproduce the segment variance
        // (E and Var of log-price per step match the CRR segment to O(Δt)).
        let theta = (seg.volatility / v_max).powi(2);
        if !(0.0 < theta && theta <= 1.0) {
            return Err(PricingError::InvalidParams {
                field: "segments",
                reason: format!("volatility {} exceeds the grid volatility", seg.volatility),
            });
        }
        // Drift: (1−θ)·1 + θ·((1−p)/u + p·u) = e^{(R−Y)Δt} ⇒ solve for p.
        let target = (growth - 1.0) / theta + 1.0;
        let p = (target - 1.0 / u) / (u - 1.0 / u);
        if !(p > 0.0 && p < 1.0) {
            return Err(PricingError::UnstableDiscretisation {
                reason: format!(
                    "term-structure segment with V={} needs p={p:.4} outside (0,1)",
                    seg.volatility
                ),
            });
        }
        // 3-tap kernel on offsets {0,1,2} of the *doubled* grid: to keep the
        // cone arithmetic simple we express the blended kernel on a 2-step
        // composite lattice: identity maps to the middle offset.
        let k0 = discount * theta * (1.0 - p);
        let k1 = discount * (1.0 - theta);
        let k2 = discount * theta * p;
        kernels.push(([k0, k1, k2], seg.steps));
    }

    // Payoff on the doubled-resolution expiry row: columns 0..=2T carry
    // price S·u^{(j − T)}  (offset {0,1,2} per step ⇒ trinomial-like grid).
    let payoff_at = |j: i64| -> f64 {
        let price = params.spot * ((j - t as i64) as f64 * u.ln()).exp();
        OptionType::Put.payoff(price, params.strike)
    };
    let payoff: Vec<f64> = (0..=2 * t as i64).map(payoff_at).collect();

    // Spectral chain: one forward transform, per-segment pointwise powers,
    // one inverse.
    let n = next_pow2(payoff.len());
    let real = RealFft::new(n);
    let full = real.full();
    let mut spec = Vec::new();
    real.forward(&payoff, &mut spec);
    real.map_bins(&mut spec, |k, x| {
        kernels.iter().fold(x, |x, (taps, steps)| {
            x * kernel_response(taps, k, full).conj().powu(*steps as u64)
        })
    });
    let out = real.inverse(&mut spec, 1);
    let put = out[0];
    Ok(match opt {
        OptionType::Put => put,
        OptionType::Call => {
            // Parity: Σ weights of the full chain acting on (price − K).
            let lambda: f64 = kernels
                .iter()
                .map(|(taps, steps)| {
                    let per = taps[0] / u + taps[1] + taps[2] * u;
                    per.ln() * *steps as f64
                })
                .sum::<f64>()
                .exp();
            let mu: f64 = kernels
                .iter()
                .map(|(taps, steps)| (taps[0] + taps[1] + taps[2]).ln() * *steps as f64)
                .sum::<f64>()
                .exp();
            put + params.spot * lambda - params.strike * mu
        }
    })
}

/// Reference: dense backward induction with the same per-segment kernels.
pub fn price_european_term_naive(
    params: &OptionParams,
    segments: &[VolSegment],
    opt: OptionType,
) -> Result<f64> {
    // Reuse the fast path's kernel construction by recomputing it here.
    let params = params.validated()?;
    let t: usize = segments.iter().map(|s| s.steps).sum();
    let v_max = segments.iter().map(|s| s.volatility).fold(0.0, f64::max);
    let grid = BopmModel::new(OptionParams { volatility: v_max, ..params }, t)?;
    let dt = params.dt(t);
    let u = grid.up();
    let growth = ((params.rate - params.dividend_yield) * dt).exp();
    let discount = (-params.rate * dt).exp();
    let payoff_at = |j: i64| -> f64 {
        let price = params.spot * ((j - t as i64) as f64 * u.ln()).exp();
        OptionType::Put.payoff(price, params.strike)
    };
    let mut row: Vec<f64> = (0..=2 * t as i64).map(payoff_at).collect();
    // Walk segments backward from expiry: the *last* listed segment is the
    // one adjacent to expiry.
    for seg in segments.iter().rev() {
        let theta = (seg.volatility / v_max).powi(2);
        let target = (growth - 1.0) / theta + 1.0;
        let p = (target - 1.0 / u) / (u - 1.0 / u);
        let (k0, k1, k2) =
            (discount * theta * (1.0 - p), discount * (1.0 - theta), discount * theta * p);
        for _ in 0..seg.steps {
            row = (0..row.len() - 2)
                .map(|j| k0 * row[j] + k1 * row[j + 1] + k2 * row[j + 2])
                .collect();
        }
    }
    debug_assert_eq!(row.len(), 1);
    let put = row[0];
    Ok(match opt {
        OptionType::Put => put,
        OptionType::Call => {
            let fwd = params.spot * (-params.dividend_yield * params.expiry).exp()
                - params.strike * (-params.rate * params.expiry).exp();
            put + fwd
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;

    fn params() -> OptionParams {
        OptionParams::paper_defaults()
    }

    #[test]
    fn fft_matches_naive_reference() {
        let segs = [
            VolSegment { steps: 100, volatility: 0.15 },
            VolSegment { steps: 80, volatility: 0.30 },
            VolSegment { steps: 120, volatility: 0.22 },
        ];
        for opt in [OptionType::Put, OptionType::Call] {
            let fast = price_european_term_fft(&params(), &segs, opt).unwrap();
            let slow = price_european_term_naive(&params(), &segs, opt).unwrap();
            assert!(
                (fast - slow).abs() < 1e-7 * slow.abs().max(1.0),
                "{opt:?}: fft {fast} vs naive {slow}"
            );
        }
    }

    #[test]
    fn flat_term_structure_matches_black_scholes() {
        // One segment at constant vol must converge to plain Black–Scholes.
        let p = params();
        let segs = [VolSegment { steps: 4000, volatility: p.volatility }];
        let got = price_european_term_fft(&p, &segs, OptionType::Put).unwrap();
        let bs = analytic::black_scholes_price(&p, OptionType::Put).unwrap();
        assert!((got - bs).abs() < 2e-2, "term {got} vs BS {bs}");
    }

    #[test]
    fn matches_root_variance_flat_equivalent() {
        // A two-segment structure prices like a flat lattice at the
        // root-mean-square volatility (exactly true in the continuous limit).
        let p = params();
        let segs = [
            VolSegment { steps: 2000, volatility: 0.10 },
            VolSegment { steps: 2000, volatility: 0.28 },
        ];
        let rms = ((0.10f64.powi(2) + 0.28f64.powi(2)) / 2.0).sqrt();
        let term = price_european_term_fft(&p, &segs, OptionType::Put).unwrap();
        let flat =
            analytic::black_scholes_price(&OptionParams { volatility: rms, ..p }, OptionType::Put)
                .unwrap();
        assert!((term - flat).abs() < 5e-2 * flat, "term {term} vs flat-RMS {flat}");
    }

    #[test]
    fn more_volatile_tail_is_worth_more() {
        let p = params();
        let quiet = [VolSegment { steps: 400, volatility: 0.15 }];
        let loud = [
            VolSegment { steps: 200, volatility: 0.15 },
            VolSegment { steps: 200, volatility: 0.4 },
        ];
        let a = price_european_term_fft(&p, &quiet, OptionType::Put).unwrap();
        let b = price_european_term_fft(&p, &loud, OptionType::Put).unwrap();
        assert!(b > a, "extra vol must add value: {b} vs {a}");
    }

    #[test]
    fn rejects_empty_and_degenerate_segments() {
        assert!(price_european_term_fft(&params(), &[], OptionType::Put).is_err());
        let zero = [VolSegment { steps: 0, volatility: 0.2 }];
        assert!(price_european_term_fft(&params(), &zero, OptionType::Put).is_err());
        let neg = [VolSegment { steps: 10, volatility: -0.1 }];
        assert!(price_european_term_fft(&params(), &neg, OptionType::Put).is_err());
    }
}
