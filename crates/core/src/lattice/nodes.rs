//! Exp-free obstacles: the node table.
//!
//! Every obstacle a lattice pricing reads is `strike − spot·e^{base +
//! levels·ln u}` ([`Lattice`]'s node), with an integer `levels = (2/W)·j − i`
//! that lies in `[−T, T]` on the triangle.  A [`NodeTable`] holds `E[levels] =
//! e^{base + levels·ln u}`, evaluated by the very expression the node
//! evaluates (`level_exp`), so `spot·E[levels]` carries the node's bits and
//! a read costs a load where the node costs an `exp`.  Outside `[−T, T]` (the
//! locators' probes on the column-unbounded extension) a read evaluates the
//! expression itself.
//!
//! The table fills lazily, a block of levels at a time, each block behind a
//! `OnceLock`: a deep pricing makes resident only the levels it reads — the
//! boundary's band — while a Θ(T²) nest, which reads every level, fills all
//! of them once.
//!
//! On the trees `base = 0`, so a table depends on `ln u` and `T` alone: one
//! serves every contract of a batch's kernel group, puts and mirrored calls
//! alike, whatever their spot.  [`NodeTables`] is that group's set, and finds
//! a table by a scan on the bits of `(base, ln u, T)`.  The FD grid's
//! `base = ln(S/K)` is the contract's own, so it gets a table per pricing.

use super::Lattice;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Levels per block of a [`NodeTable`]: a block's `exp`s cost about as much
/// as a few base cases, and a pricing at T = 65 536 reads a few dozen blocks.
pub const NODE_BLOCK: usize = 256;

/// `e^{base + levels·ln u}`: the exponential of every lattice node.
#[inline]
pub(super) fn level_exp(base: f64, ln_up: f64, levels: i64) -> f64 {
    (base + levels as f64 * ln_up).exp()
}

/// `E[levels] = e^{base + levels·ln u}` for `levels ∈ [−T, T]`, filled a
/// block at a time on first read (module docs).
#[derive(Debug)]
pub struct NodeTable {
    base: f64,
    ln_up: f64,
    steps: i64,
    /// Block `b` holds levels `b·NODE_BLOCK − T` onwards.
    blocks: Box<[OnceLock<Box<[f64]>>]>,
}

impl NodeTable {
    /// An empty table of the levels `[−steps, steps]`; nothing is evaluated
    /// until a read.
    pub(super) fn new(base: f64, ln_up: f64, steps: usize) -> Self {
        let blocks = (2 * steps + 1).div_ceil(NODE_BLOCK);
        NodeTable {
            base,
            ln_up,
            steps: steps as i64,
            blocks: (0..blocks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Whether this is the table of `(base, ln u, steps)`, bit for bit.
    pub(super) fn is_for(&self, base: f64, ln_up: f64, steps: usize) -> bool {
        (self.base.to_bits(), self.ln_up.to_bits(), self.steps)
            == (base.to_bits(), ln_up.to_bits(), steps as i64)
    }

    /// `e^{base + levels·ln u}`, bitwise [`level_exp`].
    #[inline]
    pub fn exp(&self, levels: i64) -> f64 {
        // amopt-lint: hot-path
        let k = levels + self.steps;
        if !(0..=2 * self.steps).contains(&k) {
            return level_exp(self.base, self.ln_up, levels);
        }
        let k = k as usize;
        let block = k / NODE_BLOCK;
        self.blocks[block].get_or_init(|| self.fill(block))[k % NODE_BLOCK]
    }

    /// The levels of block `block`, evaluated.
    fn fill(&self, block: usize) -> Box<[f64]> {
        let first = (block * NODE_BLOCK) as i64 - self.steps;
        let end = (first + NODE_BLOCK as i64).min(self.steps + 1);
        (first..end).map(|levels| level_exp(self.base, self.ln_up, levels)).collect()
    }

    /// Node `exp`s this table has evaluated: its filled blocks' levels.
    #[cfg(test)]
    pub fn exps(&self) -> usize {
        self.blocks.iter().filter_map(OnceLock::get).map(|block| block.len()).sum()
    }
}

/// The node tables of a batch's kernel group (module docs): a tree's table is
/// built on the first member's ask and shared by every later one.
#[derive(Debug, Default)]
pub struct NodeTables {
    /// One per `(ln u, T)` the group's trees use — one, in a kernel group.
    tables: Mutex<Vec<Arc<NodeTable>>>,
}

impl NodeTables {
    /// An empty set.
    pub fn new() -> Self {
        NodeTables::default()
    }

    /// The table `model` reads its nodes from: the set's for a tree, a fresh
    /// one for the FD grid, whose `base` is its contract's.
    pub fn table_for<const W: usize>(&self, model: &Lattice<W>) -> Arc<NodeTable> {
        if model.from_expiry {
            return Arc::new(model.node_table());
        }
        let (base, ln_up, steps) = (model.units.base, model.ln_up, model.steps);
        // Nothing panics under this lock (a scan, or a push of an `Arc`).
        let mut tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables.iter().find(|table| table.is_for(base, ln_up, steps)) {
            return Arc::clone(table);
        }
        let table = Arc::new(model.node_table());
        tables.push(Arc::clone(&table));
        table
    }

    /// Tables the set holds, and the node `exp`s they evaluated.
    #[cfg(test)]
    pub fn census(&self) -> (usize, usize) {
        let tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        (tables.len(), tables.iter().map(|table| table.exps()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{OptionParams, OptionType};

    /// Every level of `[−T, T]`, and a few beyond, read from a lazy table and
    /// from the nest's dense one against the node itself, bit for bit; a full
    /// read costs exactly `2T + 1` `exp`s.
    fn check_every_level<const W: usize>(m: Lattice<W>) {
        let (table, dense) = (m.node_table(), m.node_exps());
        let t = m.steps() as i64;
        for levels in -t - 3..=t + 3 {
            // Row T holds every level of its parity, row T − 1 the others.
            let i = if W == 2 || (levels + t) % 2 == 0 { t } else { t - 1 };
            let j = (levels + i) / (2 / W) as i64;
            assert_eq!((2 / W) as i64 * j - i, levels);
            let (i, ctx) = (i as usize, format!("W={W} T={t} level {levels}"));
            let got = m.units.spot * table.exp(levels);
            assert_eq!(got.to_bits(), m.node(i, j).to_bits(), "{ctx}");
            let put = m.exercise_in(&table, OptionType::Put, i, j);
            assert_eq!(put.to_bits(), m.exercise_put(i, j).to_bits(), "{ctx}");
            let call = m.exercise_in(&table, OptionType::Call, i, j);
            assert_eq!(call.to_bits(), m.exercise_call(i, j).to_bits(), "{ctx}");
            if (-t..=t).contains(&levels) {
                let node = m.units.spot * dense[(levels + t) as usize];
                assert_eq!(node.to_bits(), m.node(i, j).to_bits(), "{ctx}");
            }
        }
        assert_eq!(table.exps(), 2 * m.steps() + 1, "W={W} T={t}");
        assert_eq!(dense.len(), 2 * m.steps() + 1, "W={W} T={t}");
    }

    #[test]
    fn spot_times_the_table_is_the_node_at_every_level() {
        let paper = OptionParams::paper_defaults();
        let fd = OptionParams { dividend_yield: 0.0, ..paper };
        for steps in [1usize, 2, 63, 255, 256, 1000] {
            for spot in [1e-3, 127.62, 130.0, 4e4] {
                let p = OptionParams { spot, ..paper };
                check_every_level(Lattice::<1>::new(p, steps).unwrap());
                check_every_level(Lattice::<2>::new(p, steps).unwrap());
                check_every_level(
                    Lattice::explicit_fd(OptionParams { spot, ..fd }, steps).unwrap(),
                );
            }
        }
    }

    #[test]
    fn a_tree_group_shares_one_table_and_the_fd_grid_builds_its_own() {
        let p = OptionParams { rate: 0.05, dividend_yield: 0.02, ..OptionParams::paper_defaults() };
        let put = Lattice::<1>::new(p, 300).unwrap();
        let strikes = Lattice::<1>::new(OptionParams { strike: 110.0, ..p }, 300).unwrap();
        let tables = NodeTables::new();
        let first = tables.table_for(&put);
        for m in [put.mirrored(), strikes.clone(), strikes.mirrored()] {
            assert!(Arc::ptr_eq(&first, &tables.table_for(&m)));
        }
        // Another step count is another table.
        tables.table_for(&Lattice::<1>::new(p, 301).unwrap());
        let fd = Lattice::explicit_fd(OptionParams { dividend_yield: 0.0, ..p }, 300).unwrap();
        assert!(!Arc::ptr_eq(&tables.table_for(&fd), &tables.table_for(&fd)));
        assert_eq!(tables.census(), (2, 0), "no level read yet");
    }
}
