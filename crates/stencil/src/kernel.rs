//! Linear 1-D stencil kernels.
//!
//! A kernel describes one time step of a linear stencil:
//!
//! `out[c] = Σ_m weights[m] · in[c + anchor + m]`
//!
//! `anchor` is the column offset of the first tap relative to the output
//! cell.  The three pricing models of the paper use:
//!
//! | model | weights               | anchor | cone                |
//! |-------|-----------------------|--------|---------------------|
//! | BOPM  | `[m(1−p), m·p]`       | 0      | leans right         |
//! | TOPM  | `[m·p_d, m·p_o, m·p_u]`| 0     | leans right, slope 2|
//! | BSM   | `[b, c, a]`           | −1     | symmetric           |

/// One time step of a linear 1-D stencil.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilKernel {
    weights: Vec<f64>,
    anchor: i64,
}

impl StencilKernel {
    /// Creates a kernel from taps and the offset of the first tap.
    ///
    /// # Panics
    /// If `weights` is empty or contains non-finite values.
    pub fn new(weights: Vec<f64>, anchor: i64) -> Self {
        assert!(!weights.is_empty(), "stencil kernel needs at least one tap");
        assert!(weights.iter().all(|w| w.is_finite()), "stencil kernel taps must be finite");
        StencilKernel { weights, anchor }
    }

    /// Taps in column order.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Offset of the first tap relative to the output cell.
    #[inline]
    pub fn anchor(&self) -> i64 {
        self.anchor
    }

    /// Number of taps minus one: how much the dependency cone widens per step.
    #[inline]
    pub fn span(&self) -> usize {
        self.weights.len() - 1
    }

    /// Column offset of the last tap relative to the output cell.
    #[inline]
    pub fn hi_offset(&self) -> i64 {
        self.anchor + self.span() as i64
    }

    /// `Σ|w|` — the ℓ¹ norm; `≤ 1` guarantees numerically stable powering.
    pub fn l1_norm(&self) -> f64 {
        self.weights.iter().map(|w| w.abs()).sum()
    }

    /// Applies a single step to `row`, returning the valid cells.
    /// The output corresponds to input columns shifted by `anchor` (the
    /// caller tracks absolute positions; see [`crate::segment::Segment`]).
    pub fn step(&self, row: &[f64]) -> Vec<f64> {
        let span = self.span();
        assert!(row.len() > span, "row of {} cells is too short for span {span}", row.len());
        (0..row.len() - span)
            .map(|c| self.weights.iter().enumerate().map(|(m, &w)| w * row[c + m]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let k = StencilKernel::new(vec![0.25, 0.5, 0.25], -1);
        assert_eq!(k.span(), 2);
        assert_eq!(k.anchor(), -1);
        assert_eq!(k.hi_offset(), 1);
        assert!((k.l1_norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn step_matches_hand_computation() {
        let k = StencilKernel::new(vec![2.0, 3.0], 0);
        let out = k.step(&[1.0, 10.0, 100.0]);
        assert_eq!(out, vec![32.0, 320.0]);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn rejects_empty() {
        StencilKernel::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        StencilKernel::new(vec![0.5, f64::NAN], 0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn step_rejects_short_rows() {
        StencilKernel::new(vec![1.0, 1.0, 1.0], 0).step(&[1.0, 2.0]);
    }
}
