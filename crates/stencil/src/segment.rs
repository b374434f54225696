//! A row segment: contiguous cell values anchored at an absolute column.
//!
//! The pricing grids use absolute column coordinates (`i64`, since the BSM
//! grid is centred on zero and extends to negative log-price indices).  A
//! `Segment` couples a value buffer with the column of its first cell so the
//! geometric reasoning of the trapezoid algorithms stays readable.

/// Values over the half-open absolute column range `[start, start + len)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Segment {
    /// Absolute column of `values[0]`.
    pub start: i64,
    /// Cell values.
    pub values: Vec<f64>,
}

impl Segment {
    /// Creates a segment with `values[0]` at absolute column `start`.
    pub fn new(start: i64, values: Vec<f64>) -> Self {
        Segment { start, values }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the segment holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// One past the last absolute column.
    #[inline]
    pub fn end(&self) -> i64 {
        self.start + self.values.len() as i64
    }

    /// Whether absolute column `col` lies inside the segment.
    #[inline]
    pub fn contains(&self, col: i64) -> bool {
        col >= self.start && col < self.end()
    }

    /// Value at absolute column `col`.
    ///
    /// # Panics
    /// If `col` is outside the segment.
    #[inline]
    pub fn get(&self, col: i64) -> f64 {
        debug_assert!(self.contains(col), "column {col} outside [{}, {})", self.start, self.end());
        self.values[(col - self.start) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_bookkeeping() {
        let s = Segment::new(-3, vec![10.0, 11.0, 12.0, 13.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.end(), 1);
        assert!(s.contains(-3) && s.contains(0) && !s.contains(1) && !s.contains(-4));
        assert_eq!(s.get(-3), 10.0);
        assert_eq!(s.get(0), 13.0);
    }
}
