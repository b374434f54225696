//! Spans recorded by the traced run, from the benchmark's side of each
//! layer boundary.
//!
//! A span is one call into a layer's public function.  The benchmark sees
//! layers only from outside, so a span's children are obtained by
//! **substitution**: the work the parent did is replayed, afterwards and
//! one layer down, through direct calls (a `batch.price_batch` span is
//! followed by replayed `engine.price` spans for its jobs, and so on).  A
//! replayed child's clock interval therefore lies outside its parent's;
//! what it contributes to the parent is its duration.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `None` for a root (one per iteration or replayed request).
    pub parent: Option<u32>,
    /// Iteration or request number the span belongs to.
    pub iter: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` when the span replays its parent's work after the fact
    /// instead of running inside it.
    pub replay: bool,
    /// Extra numbers carried by the span (kernel-phase totals, sizes).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span and returns its id with `f`'s result.
    pub fn span<R>(
        &mut self,
        parent: Option<u32>,
        iter: u64,
        layer: &'static str,
        name: &'static str,
        replay: bool,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            iter,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            replay,
            attrs: Vec::new(),
        });
        let out = f();
        self.spans[id as usize].end_ns = self.now_ns();
        (id, out)
    }

    /// Opens a span whose children will be recorded while it runs; close it
    /// with [`Tracer::close`].
    pub fn open(
        &mut self,
        parent: Option<u32>,
        iter: u64,
        layer: &'static str,
        name: &'static str,
    ) -> u32 {
        self.span(parent, iter, layer, name, false, || ()).0
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn attr(&mut self, id: u32, key: &'static str, value: f64) {
        self.spans[id as usize].attrs.push((key, value));
    }

    /// One JSON object per line: `{id, parent, iter, layer, name, start_ns,
    /// end_ns, replay, ...attrs}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"iter\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"replay\":{}",
                s.id, s.iter, s.layer, s.name, s.start_ns, s.end_ns, s.replay
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Self time of every span, indexed like `spans`: the span's duration minus
/// what its children cover.  Children that ran inside the parent cover the
/// union of their intervals clipped to the parent's (overlapping children
/// are not counted twice); replayed children cover their durations.  The
/// result never goes below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut nested: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut replayed = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p as usize];
        if s.replay {
            replayed[p as usize] += s.duration_ns();
        } else {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                nested[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut intervals = std::mem::take(&mut nested[i]);
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered + replayed[i])
        })
        .collect()
}

/// Per-layer share of the roots' total time spent in that layer's own code,
/// plus the share of root time the span tree accounts for at all
/// (`coverage`, 1.0 when every root is fully attributed to some layer).
pub fn layer_self_shares(spans: &[Span], layers: &[&'static str]) -> (Vec<f64>, f64) {
    let root_total: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
    if root_total == 0 {
        return (vec![0.0; layers.len()], 0.0);
    }
    let own = self_times(spans);
    let shares: Vec<f64> = layers
        .iter()
        .map(|layer| {
            let ns: u64 =
                spans.iter().zip(&own).filter(|(s, _)| s.layer == *layer).map(|(_, &t)| t).sum();
            ns as f64 / root_total as f64
        })
        .collect();
    // Self time can exceed the roots' when replays run slower than the work
    // they stand for; coverage reports the raw sum so that shows.
    let coverage = shares.iter().sum();
    (shares, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        layer: &'static str,
        start: u64,
        end: u64,
        replay: bool,
    ) -> Span {
        Span {
            id,
            parent,
            iter: 0,
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            replay,
            attrs: vec![],
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_even_when_they_overlap() {
        let spans = vec![
            span(0, None, "a", 0, 100, false),
            span(1, Some(0), "b", 10, 50, false),
            span(2, Some(0), "b", 40, 70, false), // overlaps span 1 by 10
            span(3, Some(1), "c", 20, 30, false), // grandchild: only its parent shrinks
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans =
            vec![span(0, None, "a", 100, 200, false), span(1, Some(0), "b", 150, 400, false)];
        assert_eq!(self_times(&spans), vec![50, 250]);
    }

    #[test]
    fn replayed_children_cover_their_durations_and_never_push_self_below_zero() {
        let spans = vec![
            span(0, None, "a", 0, 100, false),
            span(1, Some(0), "b", 200, 230, true),
            span(2, Some(0), "b", 300, 340, true),
            span(3, None, "a", 1_000, 1_010, false),
            span(4, Some(3), "b", 2_000, 2_500, true),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40, 0, 500]);
    }

    #[test]
    fn layer_shares_are_taken_over_root_time() {
        let spans = vec![
            span(0, None, "a", 0, 100, false),
            span(1, Some(0), "b", 0, 60, false),
            span(2, Some(1), "c", 500, 520, true),
        ];
        let (shares, coverage) = layer_self_shares(&spans, &["a", "b", "c", "d"]);
        assert_eq!(shares, vec![0.4, 0.4, 0.2, 0.0]);
        assert!((coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parent_links_and_writes_one_object_per_line() {
        let mut t = Tracer::default();
        let root = t.open(None, 7, "workload", "iteration");
        let (child, value) = t.span(Some(root), 7, "engine", "price", false, || 42);
        t.attr(child, "steps", 252.0);
        t.close(root);
        assert_eq!(value, 42);
        assert_eq!(t.spans[child as usize].parent, Some(root));
        assert!(t.spans[root as usize].end_ns >= t.spans[child as usize].end_ns);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"iter\":7,\"layer\":\"engine\""));
        assert!(text.contains("\"steps\":252"));
    }
}
