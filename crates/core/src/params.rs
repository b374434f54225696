//! Market and contract parameters (Table 1 of the paper).

use crate::engine::left_cone::indexable_offset;
use crate::error::{PricingError, Result};

/// Call or put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionType {
    /// Right to buy at the strike.
    Call,
    /// Right to sell at the strike.
    Put,
}

impl OptionType {
    /// Intrinsic (exercise) value at asset price `s` and strike `k`.
    #[inline]
    pub fn payoff(self, s: f64, k: f64) -> f64 {
        match self {
            OptionType::Call => (s - k).max(0.0),
            OptionType::Put => (k - s).max(0.0),
        }
    }
}

/// Exercise style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExerciseStyle {
    /// Exercisable only at expiry.
    European,
    /// Exercisable at any time up to expiry.
    American,
}

/// Market/contract parameters, following Table 1 of the paper.
///
/// All rates are annualised with continuous compounding; `expiry` is in
/// years.  The paper's experiments use `E = 252` trading days ≙ one year,
/// i.e. [`OptionParams::paper_defaults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionParams {
    /// Current asset price `S`.
    pub spot: f64,
    /// Strike price `K`.
    pub strike: f64,
    /// Risk-free rate `R`.
    pub rate: f64,
    /// Volatility `V`.
    pub volatility: f64,
    /// Continuous dividend yield `Y`.
    pub dividend_yield: f64,
    /// Time to expiry `E`, in years.
    pub expiry: f64,
}

impl OptionParams {
    /// Validates every field; returns `self` for chaining.
    ///
    /// The four positive fields must also be *normal* numbers.  A subnormal
    /// carries fewer than 53 significant bits — `5e-324 · 1.3 == 5e-324` —
    /// so `S·u^k` is no longer the geometric grid every model assumes, and
    /// its reciprocal and its ratios with ordinary prices overflow.
    pub fn validated(self) -> Result<Self> {
        fn positive(field: &'static str, v: f64) -> Result<()> {
            if !(v.is_finite() && v > 0.0) {
                return Err(PricingError::InvalidParams {
                    field,
                    reason: format!("must be a positive finite number, got {v}"),
                });
            }
            if !v.is_normal() {
                return Err(PricingError::InvalidParams {
                    field,
                    reason: format!("must be a normal number, got the subnormal {v:e}"),
                });
            }
            Ok(())
        }
        positive("spot", self.spot)?;
        positive("strike", self.strike)?;
        positive("volatility", self.volatility)?;
        positive("expiry", self.expiry)?;
        for (field, v) in [("rate", self.rate), ("dividend_yield", self.dividend_yield)] {
            if !v.is_finite() || v < 0.0 {
                return Err(PricingError::InvalidParams {
                    field,
                    reason: format!("must be a non-negative finite number, got {v}"),
                });
            }
        }
        Ok(self)
    }

    /// The fixed parameter set used throughout §5 of the paper:
    /// `E = 252` days (1 trading year), `K = 130`, `S = 127.62`,
    /// `R = 0.00163`, `V = 0.2`, `Y = 0.0163`.
    pub fn paper_defaults() -> Self {
        OptionParams {
            spot: 127.62,
            strike: 130.0,
            rate: 0.00163,
            volatility: 0.2,
            dividend_yield: 0.0163,
            expiry: 1.0,
        }
    }

    /// The put–call mirror of the contract: spot ↔ strike and rate ↔
    /// dividend yield, volatility and expiry unchanged.  An American call on
    /// `self` is worth an American put on the mirror (McDonald–Schroder:
    /// `C(S, K, R, Y) = P(K, S, Y, R)`), exactly so on lattices with
    /// `u·d = 1`.  Valid whenever `self` is.
    pub fn mirrored(self) -> Self {
        OptionParams {
            spot: self.strike,
            strike: self.spot,
            rate: self.dividend_yield,
            dividend_yield: self.rate,
            ..self
        }
    }

    /// `ln(K/S)/ln u`: how many price levels of a lattice with up factor `u`
    /// the strike sits above the spot.  A difference of logarithms: the
    /// ratio `K/S` overflows for prices that are each representable.
    #[inline]
    pub(crate) fn levels_to_strike(&self, ln_up: f64) -> f64 {
        (self.strike.ln() - self.spot.ln()) / ln_up
    }

    /// What a lattice must satisfy beyond probabilities in `(0, 1)` (which
    /// is also what a `ln u` that underflowed to zero or overflowed reads
    /// as), given its per-step `discount`, `ln u` and row width in `cells`:
    ///
    /// * `e^{−RΔt}` did not underflow to zero, taking every kernel weight
    ///   and the eigenvalues `λ`, `μ` with it;
    /// * the expiry boundary is a column that can be indexed
    ///   ([`indexable_offset`]) — in magnitude, so the mirrored lattice,
    ///   whose offset is the negative, is covered too;
    /// * a row can be transformed.  Row values reach `max(S, K)` (a put is
    ///   worth up to `K`, the mirrored put that prices a call up to `S`), a
    ///   transform of `n` points sums all of them, and the inverse sums the
    ///   spectrum before it scales by `1/n` — so `max(S, K)·n²` must be
    ///   representable, `n ≤ 4·cells` covering the padding to a power of
    ///   two.  Past that the sums are `inf − inf`, which a `max` against the
    ///   payoff then hides.
    pub(crate) fn check_lattice(&self, discount: f64, ln_up: f64, cells: f64) -> Result<()> {
        if discount <= 0.0 {
            return Err(PricingError::UnstableDiscretisation {
                reason: format!("per-step discount e^(−RΔt) = {discount:e} is not positive"),
            });
        }
        indexable_offset(self.levels_to_strike(ln_up))?;
        let (field, v) =
            if self.strike > self.spot { ("strike", self.strike) } else { ("spot", self.spot) };
        if !(v * (4.0 * cells).powi(2)).is_finite() {
            return Err(PricingError::InvalidParams {
                field,
                reason: format!("{v:e} overflows the transform of a {cells}-cell lattice row"),
            });
        }
        Ok(())
    }

    /// Per-step interval for a `steps`-step lattice.
    #[inline]
    pub fn dt(&self, steps: usize) -> f64 {
        self.expiry / steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        assert!(OptionParams::paper_defaults().validated().is_ok());
    }

    #[test]
    fn rejects_nonpositive_spot() {
        let p = OptionParams { spot: 0.0, ..OptionParams::paper_defaults() };
        assert!(matches!(p.validated(), Err(PricingError::InvalidParams { field: "spot", .. })));
    }

    #[test]
    fn rejects_negative_rate() {
        let p = OptionParams { rate: -0.01, ..OptionParams::paper_defaults() };
        assert!(p.validated().is_err());
    }

    #[test]
    fn rejects_subnormals_where_positive_is_required() {
        let p = OptionParams { spot: 5e-324, ..OptionParams::paper_defaults() };
        assert!(matches!(p.validated(), Err(PricingError::InvalidParams { field: "spot", .. })));
        let p = OptionParams { expiry: 1e-310, ..OptionParams::paper_defaults() };
        assert!(matches!(p.validated(), Err(PricingError::InvalidParams { field: "expiry", .. })));
        // The edge of the normal range, and a subnormal rate (as good as 0), pass.
        let p = OptionParams {
            spot: f64::MIN_POSITIVE,
            rate: 5e-324,
            ..OptionParams::paper_defaults()
        };
        assert!(p.validated().is_ok());
    }

    #[test]
    fn rejects_nan_vol() {
        let p = OptionParams { volatility: f64::NAN, ..OptionParams::paper_defaults() };
        assert!(p.validated().is_err());
    }

    #[test]
    fn payoff_call_put() {
        assert_eq!(OptionType::Call.payoff(110.0, 100.0), 10.0);
        assert_eq!(OptionType::Call.payoff(90.0, 100.0), 0.0);
        assert_eq!(OptionType::Put.payoff(90.0, 100.0), 10.0);
        assert_eq!(OptionType::Put.payoff(110.0, 100.0), 0.0);
    }

    #[test]
    fn dt_divides_expiry() {
        let p = OptionParams::paper_defaults();
        assert!((p.dt(252) - 1.0 / 252.0).abs() < 1e-15);
    }
}
