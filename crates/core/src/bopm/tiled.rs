//! Cache-aware tiled binomial pricer — the `zb-bopm` baseline (Zubair &
//! Mukkamala-style blocking, as packaged by Par-bin-ops; "Tiled Loop" row of
//! Table 2).
//!
//! The backward induction is banded into groups of `band` rows.  Within a
//! band, the new row is partitioned into column blocks; each block pulls the
//! `width + band` cells of the band's top row it depends on into a local
//! scratch buffer and sweeps the whole band inside L1, so each band reads
//! main memory once instead of `band` times.  Work stays `Θ(T²)`; blocks are
//! independent, giving `Θ(T²/p + T·B + …)` parallel time.

use super::BopmModel;
use crate::params::{ExerciseStyle, OptionType};
use amopt_parallel::for_each_chunk_mut;

/// Tile geometry.
#[derive(Debug, Clone, Copy)]
pub struct TileConfig {
    /// Rows per band.  The default (128) keeps the per-block working set
    /// `(width + 2·band)·8 B` within a 32 KiB L1 at the default width.
    pub band: usize,
    /// Columns per block.
    pub width: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig { band: 128, width: 2048 }
    }
}

/// American/European call or put price by cache-aware tiled induction.
pub fn price(model: &BopmModel, opt: OptionType, style: ExerciseStyle, tile: TileConfig) -> f64 {
    let t = model.steps();
    let (s0, s1) = (model.weights()[0], model.weights()[1]);
    let band_rows = tile.band.max(1);
    let block_width = tile.width.max(band_rows + 1);
    let exercise = |i: usize, j: i64| model.exercise(opt, i, j);

    // Row T (expiry) values.
    let mut top: Vec<f64> = (0..=t as i64).map(|j| exercise(t, j).max(0.0)).collect();
    let mut bottom = vec![0.0; t + 1];

    let mut i_hi = t; // top row index of the current band
    while i_hi > 0 {
        let band = band_rows.min(i_hi);
        let i_lo = i_hi - band; // bottom row index (exclusive top)
        let out_len = i_lo + 1; // row i_lo has columns 0..=i_lo
        {
            let read: &[f64] = &top;
            for_each_chunk_mut(&mut bottom[..out_len], block_width, |offset, chunk| {
                // This block needs top-row columns [offset, offset+len+band).
                let need = chunk.len() + band;
                let mut scratch = Vec::with_capacity(need);
                scratch.extend_from_slice(&read[offset..offset + need]);
                // Sweep the band fully inside the scratch buffer.
                for (step, i) in (i_lo..i_hi).rev().enumerate() {
                    let rows_left = band - step; // cells still meaningful
                    let valid = chunk.len() + rows_left - 1;
                    for x in 0..valid {
                        let cont = s0 * scratch[x] + s1 * scratch[x + 1];
                        scratch[x] = match style {
                            ExerciseStyle::European => cont,
                            ExerciseStyle::American => cont.max(exercise(i, (offset + x) as i64)),
                        };
                    }
                }
                chunk.copy_from_slice(&scratch[..chunk.len()]);
            });
        }
        std::mem::swap(&mut top, &mut bottom);
        i_hi = i_lo;
    }
    top[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::naive::{self, ExecMode};
    use crate::params::OptionParams;

    #[test]
    fn matches_naive_across_sizes_and_styles() {
        for steps in [1usize, 2, 7, 127, 128, 129, 500, 1111] {
            let m = BopmModel::new(OptionParams::paper_defaults(), steps).unwrap();
            for opt in [OptionType::Call, OptionType::Put] {
                for style in [ExerciseStyle::European, ExerciseStyle::American] {
                    let want = naive::price(&m, opt, style, ExecMode::Serial);
                    let got = price(&m, opt, style, TileConfig::default());
                    assert!(
                        (got - want).abs() < 1e-9 * want.abs().max(1.0),
                        "steps={steps} {opt:?} {style:?}: tiled {got} vs naive {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_tile_geometries_agree() {
        let m = BopmModel::new(OptionParams::paper_defaults(), 700).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        for (band, width) in [(1, 8), (3, 5), (64, 64), (200, 4096), (1000, 10)] {
            let got =
                price(&m, OptionType::Call, ExerciseStyle::American, TileConfig { band, width });
            assert!((got - want).abs() < 1e-9 * want, "band={band} width={width}: {got} vs {want}");
        }
    }
}
