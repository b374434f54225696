//! The cone engine: anchor-0 kernel, green region on the left.
//!
//! Grid conventions (`t` counts steps *from expiry*, increasing as pricing
//! walks backward in market time): cell `(t+1, c)` depends on cells
//! `(t, c), …, (t, c+σ')` with `σ'` the kernel span (1 for BOPM, 2 for TOPM
//! and the sheared BSM scheme); the green (early-exercise) region sits on
//! the **left** of every row (low columns = low asset prices), the red
//! (continuation) region on the right, and the last green column `f_t`
//! drifts **left** by at most `σ'` columns per interior step and never
//! right: `f_t − σ' ≤ f_{t+1} ≤ f_t`.  For the lattices this is Cor. 2.7 /
//! Cor. A.6 reflected through the discrete put–call symmetry (a fixed
//! column *gains* a factor of `u` per backward step, so the trinomial
//! boundary typically drops 1–2 columns every step); for BSM it is Thm 4.3
//! after the shear.  [`super`] explains how every fast route reaches this
//! geometry.
//!
//! Three structural facts carry the algorithm:
//!
//! * **Raw value space.**  Put grid values are bounded by the strike
//!   everywhere, so there is no `u^T` dynamic-range hazard and rows store
//!   raw values.
//! * **Exact zero tail.**  At expiry the payoff vanishes right of the leaf
//!   boundary `f₀`, and an anchor-0 cone only looks right — so
//!   `G(t, c) = 0` *exactly* for every `c > f₀`, at every `t`.  Rows
//!   therefore store red values only up to the support edge and treat the
//!   tail as implicit zeros.
//! * **Whole-prefix certification.**  The boundary only moves left, so any
//!   cell right of the *current* boundary has an all-red dependency cone at
//!   every depth: the entire stored red region advances with one FFT
//!   correlation, no guard band, at *any* height.  The nonlinear work
//!   concentrates in the trapezoid of freshly exposed columns
//!   `(f_{t+h}, f_t]`, which needs the window `(f_t, f_t + σ'h]` as red
//!   context — a row that is exactly its own cone.  The lower drift bound is
//!   what keeps that window narrow — a work bound; the values are right for
//!   any boundary that never moves right, because the new boundary is always
//!   *located* (a downward scan to the first green cell), never assumed.
//!
//! **The hop rule.**  Only a row that *is* its cone has to halve: the second
//! half of its height needs the boundary the first half finds.  A row
//! strictly wider than what is left of its cone, `hi − f > σ'·remaining`,
//! advances the whole of `remaining` in one hop — the window
//! `(f, f + σ'·remaining]` recurses at that height, the bulk is one
//! correlation of the whole row at that height, whose height the window's
//! never limited.  A window of height `H` is its cone on entry and halves;
//! one half-hop later the boundary has drifted `d = Θ(H)` columns left, the
//! row is `σ'H/2 + d` wide with `H/2` steps to go, and the rest is one hop.
//! So a window costs two correlations of `O(H)` cells and two windows of
//! `H/2`: `W(H) = 2·W(H/2) + O(H log H) = O(H log² H)` work, `O(H)` span
//! (Theorems 2.8 / 4.4) — and every correlation runs at a height about half
//! its row's width over `σ'`, where most of its multipliers have vanished
//! (`amopt_fft::convolve`).  The windows of a level correlate at nearly one
//! size and height, so a pricing asks for a few dozen distinct multiplier
//! tables over thousands of correlations; the `KernelPowers` that
//! `solve_to_root` borrows from its caller — one pricing, or a batch group
//! of contracts with the same kernel — evaluates each once.  (Halving a wide
//! row as well walks it in hops of `H/4, H/8, …`, each a correlation over at
//! least `d` cells: `Θ(H log³ H)`.)
//! At equality the row halves: a window that took the whole hop would hand
//! itself to its own recursion.
//!
//! **The base case.**  A window of height at most `BASE_CUTOFF` (32; the
//! paper's §5.1 sweep chose 8, ARCHITECTURE erratum 7), and a row whose cone
//! edge hugs its boundary, in chunks of at most `BASE_CUTOFF` steps, is
//! stepped naively, all of its steps in one buffer checked out of the
//! worker's `AdvanceScratch`: per step a downward scan locates the new
//! boundary (obstacle taps at or below the old one, buffer taps above it),
//! then one ascending in-place sweep advances the red cells, with two- and
//! three-tap arms.  The only allocation is the row it returns.  Its
//! obstacle reads are `green`'s, which the lattice routes serve from a node
//! table (`lattice::nodes`): a load, not an `exp`.
//!
//! Rows also carry the cone edge `hi` (the triangle hypotenuse in engine
//! coordinates: `hi = σ'·(T − t)`), which shrinks by the span each step; the
//! recursion windows are genuinely truncated rows of the same type.
//!
//! **Rows borrowed, not copied.**  The recursion runs on a borrowed view of
//! a row (`RowView`): `t`, `boundary`, `hi`, the stored red cells and a
//! length, past the stored cells of which the red cells are exact zeros.  An
//! advance reads its caller's row as it is, and a window's red context
//! `(f, f + σ'h₁]` is a prefix of its parent's stored cells, its length the
//! window's whole width, so the zero tail is read in place, never copied out.
//! Every correlation takes the stored cells and the length, and zero-extends
//! in its transform (`amopt_fft::KernelPowers::correlate`): its size is read
//! from the length, as it was from the materialised copy, so no bit depends
//! on how many zeros are stored.  Before the fork a window learns how many
//! cells will follow its output — the bulk's, and on a level's last hop its
//! caller's too — and the base case or correlation that makes the output's
//! first cells allocates the row with room for them, so the stitch appends
//! the bulk into reserved capacity: no regrowth and no copy of the window's
//! cells.  A pricing allocates the output rows of its base cases and
//! correlations, and little else.

use super::{kernel_scope, linear_cells, SEQUENTIAL_BELOW};
use crate::error::{PricingError, Result};
use amopt_fft::KernelPowers;
use amopt_parallel::join;
use amopt_stencil::{advance_powered, with_scratch, Segment, StencilKernel};

/// A row in compressed green-prefix form: cells `[?, boundary]` are green
/// (obstacle closed form), cells `(boundary, hi]` are red with the prefix
/// `(boundary, reds.end())` stored and the tail `[reds.end(), hi]` an
/// implicit *exact* zero (see the module docs on the zero tail).
#[derive(Debug, Clone, PartialEq)]
pub struct GreenPrefixRow {
    /// Steps elapsed from the known initial row (expiry).
    pub t: u64,
    /// Last green column `f`; `< reds.start` of the cone means no green cell
    /// is in view, `≥ hi` means every cone cell is green.
    pub boundary: i64,
    /// Last valid column of the row (the cone's right edge).
    pub hi: i64,
    /// Stored red values starting at `boundary + 1`; columns from
    /// `reds.end()` through `hi` are exact zeros.
    pub reds: Segment,
}

impl GreenPrefixRow {
    /// The whole row, borrowed: its stored reds are its length.
    fn view(&self) -> RowView<'_> {
        debug_assert_eq!(self.reds.start, self.boundary + 1, "red segment must start after f");
        let cells = &self.reds.values;
        RowView { t: self.t, boundary: self.boundary, hi: self.hi, cells, len: cells.len() }
    }

    /// Row value at column `c ∈ [boundary', hi]` (green closed form at or
    /// below the boundary, stored red or implicit zero above it).
    fn value_at<G: Fn(u64, i64) -> f64>(&self, green: &G, c: i64) -> f64 {
        if c <= self.boundary {
            green(self.t, c)
        } else if self.reds.contains(c) {
            self.reds.get(c)
        } else {
            0.0
        }
    }
}

/// A borrowed row, what the engine recurses on: a [`GreenPrefixRow`]'s `t`,
/// `boundary` and `hi`, and its red cells `(boundary, boundary + len]`, of
/// which the first `cells.len()` are stored and the rest exact zeros.  The
/// length, not the stored cells, sizes every correlation, so a window read
/// in place from its parent's cells correlates at the size its materialised
/// copy would.  Columns past `boundary + len` through `hi` are zeros too.
#[derive(Debug, Clone, Copy)]
struct RowView<'a> {
    t: u64,
    boundary: i64,
    hi: i64,
    cells: &'a [f64],
    len: usize,
}

impl<'a> RowView<'a> {
    /// True when every cone cell is green.
    #[inline]
    fn is_all_green(&self) -> bool {
        self.boundary >= self.hi
    }

    /// Last column of the row's length: the support edge, `boundary` when
    /// the row has no red cell.
    #[inline]
    fn support_end(&self) -> i64 {
        self.boundary + self.len as i64
    }

    /// Internal consistency between stored cells, length, boundary and `hi`.
    fn assert_consistent(&self) {
        debug_assert!(self.cells.len() <= self.len, "more stored cells than the row's length");
        debug_assert!(
            self.support_end() <= self.hi,
            "red cells ({}, {}] exceed cone edge {}",
            self.boundary,
            self.support_end(),
            self.hi
        );
    }

    /// The row cut at column `hi`, within the cone: the red cells
    /// `(boundary, hi]`, the stored ones read in place, the rest exact
    /// zeros — a window's red context, sized as its materialised copy.
    fn window(&self, hi: i64) -> RowView<'a> {
        debug_assert!(hi <= self.hi);
        let len = (hi - self.boundary).max(0) as usize;
        RowView { hi, cells: &self.cells[..len.min(self.cells.len())], len, ..*self }
    }
}

/// Largest column magnitude a grid may place its expiry boundary at.  Up to
/// `2⁵²` a column converts to `f64` exactly, so neighbouring columns carry
/// distinct prices, and the column arithmetic of the engine and its adapters
/// (`2j − i`, `f + σ'·h`, the mirror and the shear) stays far inside `i64`.
/// The model constructors refuse a discretisation whose boundary estimate
/// lies beyond it.
const MAX_COLUMN: i64 = 1 << 52;

/// `Ok` when an expiry boundary `offset` columns from the root column can be
/// indexed (`MAX_COLUMN`); a typed error for one that cannot, or whose
/// estimate is not a number at all.
pub fn indexable_offset(offset: f64) -> Result<()> {
    if offset.abs() <= MAX_COLUMN as f64 {
        return Ok(());
    }
    Err(PricingError::UnstableDiscretisation {
        reason: format!(
            "the expiry boundary sits {offset:.3e} grid columns from the spot, beyond the \
             2^52 a column can index; the grid is too fine for this moneyness"
        ),
    })
}

/// Locates the last green column of a single-crossing row: `green(j)` must
/// be monotone (true up to some column, false beyond), and column `−1` acts
/// as a virtual green sentinel (returned when no column is green).
pub fn last_green_from(start: i64, green: impl Fn(i64) -> bool) -> i64 {
    crossing_from(start.max(0), |j| j < 0 || green(j))
}

/// Last column of a signed axis at which the monotone `holds` is true (true
/// up to some column, false beyond).
///
/// Gallops to a true/false bracket from the `start` hint and binary-searches
/// the crossing — `O(log)` predicate evaluations however far the crossing
/// sits from the hint.  The hint is clamped to `±MAX_COLUMN` and the gallop
/// stops `2·MAX_COLUMN` out (a column beyond counts as false on the right
/// and true on the left), so the search ends after at most some hundred
/// evaluations whatever `holds` answers.
fn crossing_from(start: i64, holds: impl Fn(i64) -> bool) -> i64 {
    const LIMIT: i64 = 2 * MAX_COLUMN;
    let start = start.clamp(-MAX_COLUMN, MAX_COLUMN);
    let (mut lo, mut hi); // invariant: holds(lo), !holds(hi)
    let mut step = 1i64;
    if holds(start) {
        lo = start;
        hi = start + 1;
        while hi <= LIMIT && holds(hi) {
            lo = hi;
            hi += step;
            step *= 2;
        }
    } else {
        hi = start;
        lo = start - 1;
        while lo >= -LIMIT && !holds(lo) {
            hi = lo;
            lo -= step;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The base case: `h` naive steps of `row` (`h` at most the cutoff, or a short
/// chunk where the cone edge hugs the boundary) in one buffer checked out of
/// the worker's [`AdvanceScratch`](amopt_stencil::AdvanceScratch) — the
/// allocation is the output row's alone, with room for `spare` cells past
/// its cone edge, which the caller's stitch appends.
///
/// Cells right of the old boundary are certified red (pure linear update);
/// the new boundary is located by scanning *down* from the old one until the
/// obstacle wins — single crossing makes the first green hit the last green
/// column.  The scan length is the boundary's actual drift, which totals
/// `O(σT)` over a whole pricing, so the base case stays linear-time however
/// fast the boundary moves.  The buffer starts where the drift bound keeps
/// every cell a scan exposes; a boundary that outruns it (the FD grid at a
/// vanishing rate) reruns the same steps over a buffer from column 0.
fn advance_naive<G>(
    kernel: &StencilKernel,
    green: &G,
    row: RowView<'_>,
    h: u64,
    spare: usize,
) -> GreenPrefixRow
where
    G: Fn(u64, i64) -> f64,
{
    // amopt-lint: hot-path
    kernel_scope!(BaseCase);
    let mut lo = (row.boundary - kernel.span() as i64 * h as i64 + 1).max(0);
    with_scratch(|s| loop {
        match step_in(kernel, green, row, h, lo, &mut s.staging, spare) {
            Some(out) => return out,
            None => lo = 0,
        }
    })
}

/// [`advance_naive`]'s steps over `buf`, which holds column `c` at
/// `buf[c − lo]`; `None` when a scan walks below `lo`.
///
/// A step scans down from the old boundary `f`, reading the obstacle at `t`
/// for taps at or below `f` and the buffer above it, and writes each cell it
/// passes in place: no later tap reads the buffer at or below `f`.  Then it
/// sweeps the red cells `(f, hi − σ']` in place in ascending order, each cell
/// read before the cell below it is written.  Every cell sums its taps in
/// ascending order from `0.0`.
fn step_in<G>(
    kernel: &StencilKernel,
    green: &G,
    row: RowView<'_>,
    h: u64,
    lo: i64,
    buf: &mut Vec<f64>,
    spare: usize,
) -> Option<GreenPrefixRow>
where
    G: Fn(u64, i64) -> f64,
{
    // amopt-lint: hot-path
    let span = kernel.span() as i64;
    let w = kernel.weights();
    let at = |c: i64| (c - lo) as usize;
    let (mut t, mut f, mut hi) = (row.t, row.boundary, row.hi);
    buf.clear();
    buf.resize(at(f + 1), 0.0);
    buf.extend_from_slice(row.cells);
    buf.resize(at(hi) + 1, 0.0);
    for _ in 0..h {
        debug_assert!(hi >= span, "stepped past the cone apex");
        let (t1, hi1) = (t + 1, hi - span);
        let mut boundary = -1;
        let mut c = f.min(hi1);
        while c >= 0 {
            let mut lin = 0.0;
            for (m, &wm) in w.iter().enumerate() {
                let x = c + m as i64;
                lin += wm * if x <= f { green(t, x) } else { buf[at(x)] };
            }
            let g = green(t1, c);
            if g >= lin {
                boundary = c;
                break;
            }
            if c < lo {
                return None;
            }
            buf[at(c)] = lin.max(g);
            c -= 1;
        }
        step_reds(w, &mut buf[at(f + 1)..=at(hi)]);
        (t, f, hi) = (t1, boundary, hi1);
    }
    // amopt-lint: allow(hot-path-alloc) -- the one red row this call returns, sized once with the caller's spare; the caller keeps it
    let mut values = Vec::with_capacity((hi - f) as usize + spare);
    values.extend_from_slice(&buf[at(f + 1)..=at(hi)]);
    Some(GreenPrefixRow { t, boundary: f, hi, reds: Segment::new(f + 1, values) })
}

/// One linear step of `cells` in place: cell `k` becomes
/// `0.0 + w₀·cells[k] + … + w_σ'·cells[k + σ']` for every `k` that has all
/// its taps, in ascending order.  The two- and three-tap kernels keep their
/// taps and the sliding cells in registers; other widths take the generic
/// loop, the same sum.
fn step_reds(w: &[f64], cells: &mut [f64]) {
    // amopt-lint: hot-path
    let len = cells.len().saturating_sub(w.len() - 1);
    match *w {
        [w0, w1] if len > 0 => {
            let mut x0 = cells[0];
            for k in 0..len {
                let x1 = cells[k + 1];
                cells[k] = 0.0 + w0 * x0 + w1 * x1;
                x0 = x1;
            }
        }
        [w0, w1, w2] if len > 0 => {
            let (mut x0, mut x1) = (cells[0], cells[1]);
            for k in 0..len {
                let x2 = cells[k + 2];
                cells[k] = 0.0 + w0 * x0 + w1 * x1 + w2 * x2;
                (x0, x1) = (x1, x2);
            }
        }
        _ => {
            for k in 0..len {
                let mut lin = 0.0;
                for (m, &wm) in w.iter().enumerate() {
                    lin += wm * cells[k + m];
                }
                cells[k] = lin;
            }
        }
    }
}

/// Pure linear advance of a row with no green cell left (`boundary < 0`):
/// the boundary never returns, so the remaining problem is one correlation,
/// whose output has room for `spare` cells past the row's length.
fn advance_all_red(
    kernel: &StencilKernel,
    powers: &KernelPowers,
    row: RowView<'_>,
    h: u64,
    spare: usize,
) -> GreenPrefixRow {
    // amopt-lint: hot-path
    kernel_scope!(FftPass);
    debug_assert!(row.boundary < 0);
    let span = kernel.span() as i64;
    let hi1 = row.hi - span * h as i64;
    let t1 = row.t + h;
    let start = row.boundary + 1;
    if row.len == 0 {
        // amopt-lint: allow(hot-path-alloc) -- empty-support result, sized for the caller's stitch; no heap when the spare is 0
        let reds = Segment::new(start, Vec::with_capacity(spare));
        return GreenPrefixRow { t: t1, boundary: row.boundary, hi: hi1, reds };
    }
    let len = row.len + span as usize * h as usize;
    linear_cells!(len);
    let mut out = advance_powered(row.cells, len, start, kernel, h, powers, spare);
    if out.end() - 1 > hi1 {
        out.values.truncate((hi1 - out.start + 1).max(0) as usize);
    }
    GreenPrefixRow { t: t1, boundary: row.boundary, hi: hi1, reds: out }
}

/// Advances the certified-red region `(f, hi − σ'h]` by `h` purely linear
/// steps: only the non-zero support prefix is computed (one correlation of
/// the row's stored cells, zero-extended in the transform to the columns the
/// support needs); the zero tail stays implicit.
fn advance_certified(
    kernel: &StencilKernel,
    powers: &KernelPowers,
    row: RowView<'_>,
    h: u64,
    hi_new: i64,
) -> Segment {
    // amopt-lint: hot-path
    kernel_scope!(FftPass);
    let span = kernel.span() as i64;
    let f = row.boundary;
    let out_hi = row.support_end().min(hi_new);
    if out_hi < f + 1 {
        // amopt-lint: allow(hot-path-alloc) -- empty-support result; `vec![]` never touches the heap
        return Segment::new(f + 1, vec![]);
    }
    // Columns past the support edge are exact zeros (module docs), read as
    // such by the correlation; in windows the length reaches the cone edge.
    let len = (out_hi + span * h as i64 - f) as usize;
    linear_cells!(len);
    advance_powered(row.cells, len, f + 1, kernel, h, powers, 0)
}

/// Advances a row by `h` steps of the nonlinear stencil
/// `G_{t+1}[c] = max(Σ_m kernel[m]·G_t[c+m], green(t+1, c))`, in raw value
/// space.  The returned row has room for `spare` cells past its cone edge:
/// the cells its caller's stitch appends.
///
/// Work `O(n log n + h log² h)` for a row of `n` stored cells — `O(h log² h)`
/// for a row that is its cone — and span `O(h)` (Theorems 2.8 / 4.4).  Every
/// correlation reads its multipliers from `powers`, the kernel's tables.
/// Heights at or below `base_cutoff` take the base case: the pricings pass
/// [`BASE_CUTOFF`](super::BASE_CUTOFF), only tests another height.
///
/// # Panics
/// If the kernel anchor is non-zero or it has fewer than two taps.
fn advance_green_prefix<G>(
    kernel: &StencilKernel,
    powers: &KernelPowers,
    green: &G,
    row: RowView<'_>,
    h: u64,
    base_cutoff: u64,
    spare: usize,
) -> GreenPrefixRow
where
    G: Fn(u64, i64) -> f64 + Sync,
{
    // amopt-lint: hot-path
    assert_eq!(kernel.anchor(), 0, "left-cone engine requires anchor 0");
    assert!(kernel.span() >= 1, "left-cone engine requires at least two taps");

    let span = kernel.span() as i64;
    // The caller's row on the first iteration, the last stitch's after.
    let mut held: GreenPrefixRow;
    let mut cur = row;
    let mut remaining = h;
    loop {
        cur.assert_consistent();
        let f = cur.boundary;
        let hi = cur.hi;
        if cur.is_all_green() {
            // Green absorbs: the boundary drops at most span columns per step
            // while the cone edge drops exactly span, so an all-green view
            // stays all-green.  The reported boundary is the conservative
            // drift lower bound `f − span·r`; it stays at or above the
            // shrunken cone edge, so the all-green classification of the
            // result is exact.
            let r = remaining as i64;
            return GreenPrefixRow {
                t: cur.t + remaining,
                boundary: f - span * r,
                hi: hi - span * r,
                // amopt-lint: allow(hot-path-alloc) -- empty-support result, sized for the caller's stitch; no heap when the spare is 0
                reds: Segment::new(f - span * r + 1, Vec::with_capacity(spare)),
            };
        }
        if f < 0 {
            return advance_all_red(kernel, powers, cur, remaining, spare);
        }
        if remaining <= base_cutoff {
            return advance_naive(kernel, green, cur, remaining, spare);
        }

        // The hop rule (module docs): a row strictly wider than what is left
        // of its cone takes all of `remaining`; a row that is its cone halves,
        // capped so the window's red context `(f, f + σ'·h1]` fits the cone.
        let h1 = if hi - f > span * remaining as i64 {
            remaining
        } else {
            (remaining / 2).min(((hi - f) / span).max(0) as u64)
        };
        // What follows the next row's cone edge once it is returned: the
        // caller's spare, on the last hop only.
        let spare_after = |steps: u64| if steps == remaining { spare } else { 0 };
        let (steps, next) = if h1 == 0 {
            // Cone edge hugs the boundary — advance a small chunk naively.
            let steps = remaining.min(base_cutoff.max(1));
            (steps, advance_naive(kernel, green, cur, steps, spare_after(steps)))
        } else {
            let win_hi = f + span * h1 as i64;
            let hi_new = hi - span * h1 as i64;
            let sub_row = cur.window(win_hi);
            // The window's row is the head of the stitched row: reserve the
            // bulk's cells after it, and the caller's after those on the last hop.
            let bulk_len = (cur.support_end().min(hi_new) - f).max(0) as usize;
            let sub_spare = bulk_len + spare_after(h1);
            let parallel = remaining >= SEQUENTIAL_BELOW;
            let bulk_task = || advance_certified(kernel, powers, cur, h1, hi_new);
            let sub_task = || {
                // Inclusive timing: nested window recursions count in full.
                kernel_scope!(BoundaryWindow);
                advance_green_prefix(kernel, powers, green, sub_row, h1, base_cutoff, sub_spare)
            };
            // The window goes first: it is the long chain every later iteration
            // waits for, so the forking worker keeps it and lends out the bulk —
            // one correlation, with forks of its own, that any idle worker can
            // take whole.
            let (sub_out, bulk_out) =
                if parallel { join(sub_task, bulk_task) } else { (sub_task(), bulk_task()) };

            debug_assert_eq!(sub_out.t, cur.t + h1);
            debug_assert_eq!(sub_out.hi, f);
            // Only "never right" is load-bearing here: a boundary that outruns
            // the drift bound (the BSM scheme at a vanishing rate loses its whole
            // exercise region in one step) just makes the window return more
            // columns.
            debug_assert!(sub_out.boundary <= f, "boundary moved right");
            debug_assert_eq!((bulk_out.start, bulk_out.len()), (f + 1, bulk_len));

            // Stitch, in the capacity the window's row was allocated with: window
            // covers (f1, f] (zero-filled up to its cone edge if its support
            // ended early), bulk covers [f+1, support edge], zeros beyond stay
            // implicit.
            let f1 = sub_out.boundary;
            let mut values = sub_out.reds.values;
            debug_assert!(values.capacity() >= (f - f1) as usize + bulk_len, "the stitch regrows");
            values.resize((f - f1) as usize, 0.0);
            values.extend_from_slice(&bulk_out.values);
            // The bulk ends at or before `hi_new`, so the row fits the cone.
            let reds = Segment::new(f1 + 1, values);
            (h1, GreenPrefixRow { t: cur.t + h1, boundary: f1, hi: hi_new, reds })
        };
        remaining -= steps;
        if remaining == 0 {
            return next;
        }
        held = next;
        cur = held.view();
    }
}

/// Builds row `t = 1` of a lattice put straight from the expiry payoff
/// `(green(0, ·))₊`, with an honestly located last green column.
///
/// The expiry transition is the one step the interior drift lemmas do not
/// cover — the boundary can jump further left than the interior bound (for
/// a mirrored call: the one-off *rightward* jump of its red region when
/// `(1 − e^{−RΔt}) > (1 − e^{−YΔt})·u²`) — so the row is materialised from
/// the closed form and its boundary found by a bracketed search from the
/// leaf boundary `leaf` (single crossing holds at `T−1` by Lemma 2.2 / A.1,
/// whose induction starts at the payoff row).  Stored reds reach the
/// non-zero support edge: continuation vanishes exactly right of `leaf`,
/// where every child pays zero.
pub fn first_step_row<G>(kernel: &StencilKernel, green: &G, leaf: i64, hi: i64) -> GreenPrefixRow
where
    G: Fn(u64, i64) -> f64,
{
    let continuation = |c: i64| -> f64 {
        kernel.weights().iter().enumerate().map(|(m, &w)| w * green(0, c + m as i64).max(0.0)).sum()
    };
    let f = last_green_from(leaf, |c| green(1, c) >= continuation(c));
    let values: Vec<f64> = ((f + 1)..=leaf.min(hi)).map(continuation).collect();
    GreenPrefixRow { t: 1, boundary: f, hi, reds: Segment::new(f + 1, values) }
}

/// Drives the engine from `init` to the apex in advances of at most `chunk`
/// steps.  Returns the grid value of the root cell `(total_steps, 0)`, never
/// below zero, and the frontier `(t, last green column)` of every row an
/// advance ended on — one whole-height advance for a price
/// (`chunk ≥ total_steps`), evenly spaced rows for an exercise boundary.
/// The frontier stops early once green has absorbed the whole cone (it then
/// reaches the apex).  Every advance reads its multipliers from `powers`,
/// which the caller owns: a set of its own for one pricing, or one shared by
/// the pricings of a batch group.  `base_cutoff` is
/// [`advance_green_prefix`]'s.
pub(crate) fn solve_to_root<G>(
    kernel: &StencilKernel,
    powers: &KernelPowers,
    green: &G,
    init: GreenPrefixRow,
    total_steps: u64,
    chunk: u64,
    base_cutoff: u64,
) -> (f64, Vec<(u64, i64)>)
where
    G: Fn(u64, i64) -> f64 + Sync,
{
    debug_assert_eq!(
        init.hi,
        kernel.span() as i64 * (total_steps - init.t) as i64,
        "initial row's cone must end at the root"
    );
    let mut cur = init;
    let mut frontier = Vec::new();
    while cur.t < total_steps && !cur.view().is_all_green() {
        let h = chunk.max(1).min(total_steps - cur.t);
        cur = advance_green_prefix(kernel, powers, green, cur.view(), h, base_cutoff, 0);
        frontier.push((cur.t, cur.boundary));
    }
    let root = if cur.t < total_steps { green(total_steps, 0) } else { cur.value_at(green, 0) };
    // A put is worth at least zero.  A red root whose exact value underflows
    // (every path to an in-the-money leaf is less likely than f64 can hold)
    // leaves the correlations as roundoff of either sign, so a negative root
    // is the exact zero the nest computes.  NaN passes through.
    (if root < 0.0 { 0.0 } else { root }, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BASE_CUTOFF;

    /// One dense step to row `t1`: explicit max everywhere.  Returns the row
    /// and its last green column.
    fn dense_step<G: Fn(u64, i64) -> f64>(
        kernel: &StencilKernel,
        green: &G,
        t1: u64,
        row: &[f64],
    ) -> (Vec<f64>, i64) {
        let mut f = -1i64;
        let next = (0..row.len() - kernel.span())
            .map(|c| {
                let lin: f64 =
                    kernel.weights().iter().enumerate().map(|(m, &w)| w * row[c + m]).sum();
                let ob = green(t1, c as i64);
                if ob >= lin {
                    f = c as i64;
                }
                lin.max(ob)
            })
            .collect();
        (next, f)
    }

    /// Dense reference on the triangle: every full row from `init` (row 0)
    /// to row `steps`, and the last green column of rows `1..=steps`.
    fn dense_rows<G: Fn(u64, i64) -> f64>(
        kernel: &StencilKernel,
        green: &G,
        init: &[f64],
        steps: u64,
    ) -> (Vec<Vec<f64>>, Vec<i64>) {
        let mut rows = vec![init.to_vec()];
        let mut boundaries = Vec::with_capacity(steps as usize);
        for t in 0..steps {
            let (next, f) = dense_step(kernel, green, t + 1, &rows[t as usize]);
            boundaries.push(f);
            rows.push(next);
        }
        (rows, boundaries)
    }

    /// The dense reference's root value and per-step last-green boundary,
    /// keeping one row at a time.
    fn dense_solve<G: Fn(u64, i64) -> f64>(
        kernel: &StencilKernel,
        green: &G,
        init: &[f64],
        steps: u64,
    ) -> (f64, Vec<i64>) {
        let mut row = init.to_vec();
        let mut boundaries = Vec::with_capacity(steps as usize);
        for t in 0..steps {
            let (next, f) = dense_step(kernel, green, t + 1, &row);
            boundaries.push(f);
            row = next;
        }
        (row[0], boundaries)
    }

    /// The three problem shapes the fast routes feed the engine.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shape {
        /// BOPM put (span 1), started from the materialised row `T−1`.
        Binomial,
        /// TOPM put (span 2), started from the materialised row `T−1`.
        Trinomial,
        /// BSM explicit-FD put after the shear `c' = k + (T − n)`: the
        /// anchor −1 taps `(b, c, a)` re-anchored at 0, a time-independent
        /// obstacle `1 − e^{s_k}` that becomes `K − e^{Δs(c' − i)}` in
        /// sheared columns, started from the expiry row with empty reds.
        ShearedBsm,
    }

    /// A genuine instance of `shape`, for which the drift lemmas hold; the
    /// strike sits `strike_off` columns from the root's price.
    fn synthetic_problem(
        steps: u64,
        shape: Shape,
        strike_off: f64,
    ) -> (StencilKernel, impl Fn(u64, i64) -> f64 + Sync + Clone, Vec<f64>) {
        let r_dt = 0.0010_f64;
        let y_dt = 0.0004_f64;
        let m = (-r_dt).exp();
        let (kernel, alpha_exp) = match shape {
            Shape::Binomial => {
                let alpha = 0.02_f64;
                let u = alpha.exp();
                let p = ((r_dt - y_dt).exp() - 1.0 / u) / (u - 1.0 / u);
                assert!(p > 0.0 && p < 1.0);
                (StencilKernel::new(vec![m * (1.0 - p), m * p], 0), alpha)
            }
            Shape::Trinomial => {
                let alpha = 0.04_f64;
                let su = (alpha / 2.0).exp();
                let sd = 1.0 / su;
                let b = ((r_dt - y_dt) / 2.0).exp();
                let pu = ((b - sd) / (su - sd)).powi(2);
                let pd = ((su - b) / (su - sd)).powi(2);
                let po = 1.0 - pu - pd;
                assert!(pu > 0.0 && pd > 0.0 && po > 0.0);
                (StencilKernel::new(vec![m * pd, m * po, m * pu], 0), alpha)
            }
            Shape::ShearedBsm => {
                let sigma2 = 0.04_f64; // sigma = 0.2
                let omega = 2.0 * 0.03 / sigma2;
                let d_tau = 0.5 * sigma2 / steps as f64;
                let d_s = (d_tau / 0.4).sqrt();
                let diff = d_tau / (d_s * d_s);
                let drift = (omega - 1.0) * d_tau / (2.0 * d_s);
                let (a, b, c) = (diff + drift, diff - drift, 1.0 - omega * d_tau - 2.0 * diff);
                assert!(a >= 0.0 && b >= 0.0 && c >= 0.0);
                (StencilKernel::new(vec![b, c, a], 0), d_s)
            }
        };
        // Node price in grid coordinates: u^{qc − i} with i = steps − t;
        // q = 2 for the binomial layout, 1 for the span-2 ones.
        let q = if shape == Shape::Binomial { 2.0 } else { 1.0 };
        let strike = (alpha_exp * strike_off).exp();
        let phi = move |t: u64, c: i64| -> f64 {
            let i = (steps - t) as f64;
            (alpha_exp * (q * c as f64 - i)).exp()
        };
        let green = move |t: u64, c: i64| strike - phi(t, c);
        let width = steps as usize * kernel.span() + 1;
        let init: Vec<f64> = (0..width as i64).map(|c| green(0, c).max(0.0)).collect();
        (kernel, green, init)
    }

    /// The engine's starting row, built the way the production adapters
    /// build it: lattices materialise `t = 1` (the expiry transition may
    /// break the interior drift bound), the sheared BSM scheme starts at
    /// the expiry row itself with nothing stored.
    fn start_row<G: Fn(u64, i64) -> f64>(
        shape: Shape,
        kernel: &StencilKernel,
        green: &G,
        init: &[f64],
    ) -> GreenPrefixRow {
        let leaf = init.iter().rposition(|&v| v > 0.0).map_or(-1, |c| c as i64);
        let hi = (init.len() - 1) as i64;
        if shape == Shape::ShearedBsm {
            GreenPrefixRow { t: 0, boundary: leaf, hi, reds: Segment::new(leaf + 1, vec![]) }
        } else {
            first_step_row(kernel, green, leaf, hi - kernel.span() as i64)
        }
    }

    fn check_matches_dense(steps: u64, shape: Shape, strike_off: f64, base_cutoff: u64) {
        let (kernel, green, init) = synthetic_problem(steps, shape, strike_off);
        let (want, _) = dense_solve(&kernel, &green, &init, steps);
        let row = start_row(shape, &kernel, &green, &init);
        let (got, _) =
            solve_to_root(&kernel, &KernelPowers::new(), &green, row, steps, steps, base_cutoff);
        assert!(
            (got - want).abs() < 1e-10 * want.abs().max(1.0),
            "steps={steps} {shape:?} off={strike_off}: fast {got} vs dense {want}"
        );
    }

    #[test]
    fn matches_dense_across_sizes() {
        for steps in [1u64, 2, 3, 5, 8, 9, 16, 33, 100, 257, 1000, 1537, 2049] {
            check_matches_dense(steps, Shape::Binomial, 0.5, BASE_CUTOFF);
        }
        for steps in [1u64, 2, 3, 8, 21, 64, 200, 513, 1537, 2049] {
            check_matches_dense(steps, Shape::Trinomial, 0.5, BASE_CUTOFF);
        }
        for steps in [1u64, 2, 5, 8, 9, 16, 33, 100, 257, 600, 1537, 2049] {
            check_matches_dense(steps, Shape::ShearedBsm, -0.5, BASE_CUTOFF);
        }
    }

    #[test]
    fn matches_dense_across_moneyness() {
        for off in [-40.0, -10.0, -1.0, 1.0, 10.0, 40.0] {
            check_matches_dense(300, Shape::Binomial, off, BASE_CUTOFF);
            check_matches_dense(150, Shape::Trinomial, off, BASE_CUTOFF);
            check_matches_dense(300, Shape::ShearedBsm, off, BASE_CUTOFF);
        }
    }

    /// Every cutoff, not only [`BASE_CUTOFF`], prices like the dense
    /// reference: a cutoff above [`BASE_CUTOFF`] sends taller windows
    /// through the base case and one below it splits shorter ones, so this
    /// sweep checks the base case and the recursion at heights the pricings
    /// never give them.
    #[test]
    fn different_base_cutoffs_agree() {
        for cutoff in [1u64, 3, 4, 8, 16, 31, 32, 33, 64, 100, 256] {
            check_matches_dense(300, Shape::Binomial, 0.5, cutoff);
            check_matches_dense(150, Shape::Trinomial, 0.5, cutoff);
            check_matches_dense(200, Shape::ShearedBsm, -1.5, cutoff);
        }
    }

    #[test]
    fn boundary_position_matches_dense_reference() {
        for (shape, steps, drift) in
            [(Shape::Binomial, 240u64, 1), (Shape::Trinomial, 150, 2), (Shape::ShearedBsm, 150, 2)]
        {
            let (kernel, green, init) = synthetic_problem(steps, shape, 0.5);
            let (_, dense_b) = dense_solve(&kernel, &green, &init, steps);
            // Interior rows obey the drift bound the engine relies on, while
            // the boundary is still in view.
            for w in dense_b.windows(2).filter(|w| w[1] >= 0) {
                assert!(w[1] <= w[0] && w[1] >= w[0] - drift, "{shape:?} drift violated: {w:?}");
            }
            // Frontier rows land mid-way, where the cone still holds the
            // boundary, and at the apex; the more rows, the shorter each
            // advance against the width of the row it starts from.
            for rows in [3u64, 16, 64] {
                let row = start_row(shape, &kernel, &green, &init);
                let (_, frontier) = solve_to_root(
                    &kernel,
                    &KernelPowers::new(),
                    &green,
                    row,
                    steps,
                    steps / rows,
                    BASE_CUTOFF,
                );
                assert!(frontier.len() as u64 >= rows);
                for (t, f) in frontier {
                    assert_eq!(f, dense_b[t as usize - 1], "{shape:?} {rows} rows, row {t}");
                }
            }
        }
    }

    #[test]
    fn values_stay_bounded_by_the_strike() {
        // The raw-space justification: every put value is in [0, K].
        let steps = 4096u64;
        let (kernel, green, init) = synthetic_problem(steps, Shape::Binomial, 0.5);
        let strike = green(0, -1_000_000); // φ vanishes far left: green ≈ K
        let row = start_row(Shape::Binomial, &kernel, &green, &init);
        let powers = KernelPowers::new();
        let out =
            advance_green_prefix(&kernel, &powers, &green, row.view(), steps / 2, BASE_CUTOFF, 0);
        assert!(out.reds.len() > 100);
        for &v in &out.reds.values {
            assert!(v.is_finite() && v >= -1e-12 && v <= strike, "value {v} out of [0, K]");
        }
    }

    #[test]
    fn deep_itm_goes_all_green() {
        // Strike far above every node: exercise everywhere, price = green.
        let steps = 64u64;
        for shape in [Shape::Binomial, Shape::ShearedBsm] {
            let (kernel, green, init) = synthetic_problem(steps, shape, 500.0);
            let row = start_row(shape, &kernel, &green, &init);
            assert!(row.view().is_all_green());
            let powers = KernelPowers::new();
            let (got, frontier) =
                solve_to_root(&kernel, &powers, &green, row, steps, steps, BASE_CUTOFF);
            assert_eq!(got, green(steps, 0));
            assert!(frontier.is_empty(), "green absorbed the cone before the first advance");
        }
    }

    #[test]
    fn deep_otm_is_exactly_zero() {
        // Strike below every node: payoff row identically zero, price 0.
        let steps = 64u64;
        for shape in [Shape::Binomial, Shape::ShearedBsm] {
            let (kernel, green, init) = synthetic_problem(steps, shape, -500.0);
            assert!(init.iter().all(|&v| v == 0.0));
            let row = start_row(shape, &kernel, &green, &init);
            assert_eq!(row.boundary, -1);
            let powers = KernelPowers::new();
            let (got, _) = solve_to_root(&kernel, &powers, &green, row, steps, steps, BASE_CUTOFF);
            assert_eq!(got, 0.0);
        }
    }

    #[test]
    fn last_green_from_finds_the_crossing_regardless_of_hint() {
        for boundary in [-1i64, 0, 1, 7, 100, 1_000_000] {
            for hint in [0i64, 1, 5, 64, 2_000_000] {
                let got = last_green_from(hint, |j| j <= boundary);
                assert_eq!(got, boundary, "boundary {boundary} hint {hint}");
            }
        }
        // On the signed axis there is no sentinel, and a saturated hint
        // (what `as i64` makes of ±inf) is as good as any other.
        for boundary in [-1_000_000i64, -300, -1, 0, 12, MAX_COLUMN] {
            for hint in [i64::MIN, -2_000_000, -1, 0, 64, i64::MAX] {
                let got = crossing_from(hint, |k| k <= boundary);
                assert_eq!(got, boundary, "boundary {boundary} hint {hint}");
            }
        }
    }

    #[test]
    fn crossing_from_ends_on_a_predicate_that_never_crosses() {
        // Not a row any validated model produces; the search must still end.
        let calls = std::cell::Cell::new(0u32);
        let count = |answer: bool| {
            calls.set(calls.get() + 1);
            answer
        };
        assert!(crossing_from(0, |_| count(true)) >= 2 * MAX_COLUMN);
        assert!(crossing_from(0, |_| count(false)) < -2 * MAX_COLUMN);
        assert!(calls.get() < 300, "{} evaluations", calls.get());
    }

    #[test]
    fn chunked_advance_composes() {
        // advance(h1) ∘ advance(h2) == advance(h1 + h2) — what frontier
        // sampling relies on.  The one advance starts on a row narrower than
        // its cone and halves; a chunk far shorter than the row it meets
        // takes the wide branch, one at or below `base_cutoff` is stepped.
        for (shape, steps, off) in [
            (Shape::Binomial, 800u64, 0.5),
            (Shape::Trinomial, 500, 0.5),
            (Shape::ShearedBsm, 500, -0.5),
        ] {
            let (kernel, green, init) = synthetic_problem(steps, shape, off);
            let row = start_row(shape, &kernel, &green, &init);
            // Stop where the row still has width to compare.
            let total = steps * 3 / 4 - row.t;
            let powers = KernelPowers::new();
            let once =
                advance_green_prefix(&kernel, &powers, &green, row.view(), total, BASE_CUTOFF, 0);
            assert!(once.boundary >= 0 && once.reds.len() > 50, "{shape:?}: nothing to compare");
            let chunk_lists: [&[u64]; 4] =
                [&[total], &[3, 8, 9, 41, 127, 1, 33], &[17], &[total / 2 + 1, 5, 64]];
            for chunks in chunk_lists {
                let mut chunked = row.clone();
                let mut repeated = chunks.iter().cycle();
                while chunked.t < once.t {
                    let h = repeated.next().map_or(1, |&h| h.min(once.t - chunked.t));
                    let view = chunked.view();
                    chunked =
                        advance_green_prefix(&kernel, &powers, &green, view, h, BASE_CUTOFF, 0);
                }
                let ctx = format!("{shape:?} chunks {chunks:?}");
                assert_eq!(chunked.t, once.t, "{ctx}");
                assert_eq!(chunked.boundary, once.boundary, "{ctx}");
                assert_eq!(chunked.hi, once.hi, "{ctx}");
                for c in (chunked.boundary + 1)..=chunked.hi {
                    let a = chunked.value_at(&green, c);
                    let b = once.value_at(&green, c);
                    assert!((a - b).abs() < 1e-10 * b.abs().max(1.0), "{ctx} col {c}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn staged_reds_are_the_stored_reds_then_exact_zeros() {
        // A window read in place from its parent's stored cells, and the base
        // case's buffer filled from it, against the per-column definition
        // (stored red, else exact zero), bit for bit, for stored support
        // ending before, at and beyond the window's edge, and for empty reds.
        let kernel = StencilKernel::new(vec![0.5, 0.5], 0);
        let green = |_: u64, _: i64| -1.0;
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for f in [-3i64, 0, 5] {
            let cone_hi = f + 30;
            for stored in [0usize, 1, 12, 30] {
                let values: Vec<f64> = (0..stored)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 1.0 / (i as f64 + 0.5) })
                    .collect();
                let row = GreenPrefixRow {
                    t: 7,
                    boundary: f,
                    hi: cone_hi,
                    reds: Segment::new(f + 1, values),
                };
                let view = row.view();
                view.assert_consistent();
                for hi in f..=cone_hi {
                    let want: Vec<u64> = ((f + 1)..=hi)
                        .map(|c| if row.reds.contains(c) { row.reds.get(c) } else { 0.0 })
                        .map(f64::to_bits)
                        .collect();
                    let ctx = format!("f {f} stored {stored} hi {hi}");
                    let window = view.window(hi);
                    window.assert_consistent();
                    assert_eq!((window.t, window.boundary, window.hi), (7, f, hi), "{ctx}");
                    assert!(std::ptr::eq(window.cells.as_ptr(), row.reds.values.as_ptr()), "{ctx}");
                    let mut zero_extended = window.cells.to_vec();
                    zero_extended.resize(window.len, 0.0);
                    assert_eq!(bits(&zero_extended), want, "{ctx}: the window");
                    if f >= 0 {
                        let mut buf = vec![9.0; 40];
                        let out = step_in(&kernel, &green, window, 0, 0, &mut buf, 0).unwrap();
                        assert_eq!(out.reds.start, f + 1, "{ctx}");
                        assert_eq!(bits(&out.reds.values), want, "{ctx}: the base case's buffer");
                        assert_eq!(bits(&buf[..(f + 1) as usize]), vec![0; (f + 1) as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn rows_as_wide_as_their_cone_halve_and_one_cell_wider_hop() {
        // The hop rule at its edge, at the 32 heights just above the base
        // case, and again with a cutoff of 3, under which the same rows
        // recurse further: a row of exactly σ'·h red cells is its own cone
        // and must halve (and terminate); with σ'·h + 1 it is the narrowest
        // wide row — one hop whose bulk returns a single cell.
        for shape in [Shape::Binomial, Shape::Trinomial, Shape::ShearedBsm] {
            let steps = 320u64;
            let t0 = 50u64;
            let (kernel, green, init) = synthetic_problem(steps, shape, 0.5);
            let span = kernel.span() as i64;
            let (rows, dense_b) = dense_rows(&kernel, &green, &init, steps);
            let f = dense_b[t0 as usize - 1];
            assert!(f >= 0, "{shape:?}: boundary out of view at row {t0}");
            for cutoff in [BASE_CUTOFF, 3] {
                for h in (BASE_CUTOFF + 1)..=(BASE_CUTOFF + 32) {
                    for extra in [0i64, 1] {
                        let hi = f + span * h as i64 + extra;
                        assert!(hi <= span * (steps - t0) as i64, "{shape:?}: cut beyond the cone");
                        let reds = rows[t0 as usize][(f + 1) as usize..=hi as usize].to_vec();
                        let row = GreenPrefixRow {
                            t: t0,
                            boundary: f,
                            hi,
                            reds: Segment::new(f + 1, reds),
                        };
                        let powers = KernelPowers::new();
                        let out = advance_green_prefix(
                            &kernel,
                            &powers,
                            &green,
                            row.view(),
                            h,
                            cutoff,
                            0,
                        );
                        let ctx = format!("{shape:?} cutoff {cutoff} h {h} width σ'h + {extra}");
                        assert_eq!(out.t, t0 + h, "{ctx}");
                        assert_eq!(out.hi, f + extra, "{ctx}");
                        assert_eq!(out.boundary, dense_b[(t0 + h) as usize - 1], "{ctx}");
                        let want = &rows[(t0 + h) as usize];
                        for c in (out.boundary + 1)..=out.hi {
                            let (a, b) = (out.value_at(&green, c), want[c as usize]);
                            assert!(
                                (a - b).abs() < 1e-10 * b.abs().max(1.0),
                                "{ctx} col {c}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }
}
