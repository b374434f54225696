//! Fixture: allocation outside hot regions, allowed sites inside them, and
//! test code are all exempt.  Expected: no findings, no unused allows.

pub fn cold(xs: &[f64]) -> Vec<f64> {
    xs.to_vec()
}

pub fn cold_sized(xs: &[f64], rows: &mut Vec<f64>) -> String {
    rows.reserve(xs.len());
    rows.extend_from_slice(xs);
    String::with_capacity(xs.len())
}

// amopt-lint: hot-path
pub fn hot(xs: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    for v in xs {
        acc += v;
    }
    // amopt-lint: allow(hot-path-alloc) -- single output vector per call, kept by the caller
    xs.iter().map(|v| v / acc).collect()
}

pub fn hot_row(xs: &[f64]) -> Vec<f64> {
    // amopt-lint: allow(hot-path-alloc) -- the one output row, sized once and kept by the caller
    let mut out = Vec::with_capacity(xs.len());
    out.extend_from_slice(xs);
    out
}

pub fn hot_turbofish(rows: &[Vec<f64>]) -> Vec<usize> {
    // amopt-lint: allow(hot-path-alloc) -- the one output row, sized once and kept by the caller
    let mut lens = Vec::<usize>::with_capacity(rows.len());
    lens.extend(rows.iter().map(Vec::<f64>::len));
    lens
}

#[cfg(test)]
mod tests {
    // amopt-lint: hot-path
    fn scratch() -> Vec<u8> {
        Vec::new()
    }
}
