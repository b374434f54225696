//! Fixture: every catalogued allocation idiom inside a hot-path region.
//! Expected: 11 `hot-path-alloc` findings, no marker errors.

// amopt-lint: hot-path
pub fn hot(xs: &[f64]) -> f64 {
    let grown: Vec<f64> = Vec::new();
    let lit = vec![0.0; xs.len()];
    let copied = xs.to_vec();
    let boxed = Box::new(xs.len());
    let doubled: Vec<f64> = xs.iter().map(|v| v * 2.0).collect();
    let dup = doubled.clone();
    grown.len() as f64 + lit.len() as f64 + copied.len() as f64 + *boxed as f64 + dup.len() as f64
}

pub fn sized(xs: &[f64], rows: &mut Vec<f64>) -> usize {
    let mut row = Vec::with_capacity(xs.len());
    row.extend_from_slice(xs);
    let label = String::with_capacity(16);
    rows.reserve(row.len());
    rows.extend(row);
    label.capacity()
}

pub fn turbofish(n: usize) -> usize {
    let grown = Vec::<f64>::new();
    let rows = Vec::<Vec<f64>>::with_capacity(n);
    grown.len() + rows.capacity()
}
