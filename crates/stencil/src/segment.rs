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

    /// Mutable value at absolute column `col`.
    #[inline]
    pub fn get_mut(&mut self, col: i64) -> &mut f64 {
        debug_assert!(self.contains(col), "column {col} outside [{}, {})", self.start, self.end());
        let i = (col - self.start) as usize;
        &mut self.values[i]
    }

    /// Borrow of the value slice covering absolute columns `[lo, hi]`
    /// (inclusive on both ends).
    pub fn slice(&self, lo: i64, hi: i64) -> &[f64] {
        assert!(
            lo >= self.start && hi < self.end() && lo <= hi + 1,
            "range [{lo}, {hi}] outside segment [{}, {})",
            self.start,
            self.end()
        );
        &self.values[(lo - self.start) as usize..=(hi - self.start) as usize]
    }

    /// Sub-segment copy covering absolute columns `[lo, hi]` inclusive.
    pub fn extract(&self, lo: i64, hi: i64) -> Segment {
        Segment::new(lo, self.slice(lo, hi).to_vec())
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

    #[test]
    fn slice_and_extract() {
        let s = Segment::new(5, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.slice(6, 7), &[2.0, 3.0]);
        let e = s.extract(6, 8);
        assert_eq!(e.start, 6);
        assert_eq!(e.values, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn get_mut_writes_through() {
        let mut s = Segment::new(0, vec![0.0; 3]);
        *s.get_mut(2) = 9.0;
        assert_eq!(s.values[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_range_panics() {
        Segment::new(0, vec![1.0]).slice(0, 1);
    }
}
