//! The metrics registry: named counters, gauges, and log2 histograms on
//! plain atomics.
//!
//! Registration (naming an instrument, allocating its cell) happens once
//! at startup and takes the registry mutex; *recording* touches only the
//! pre-allocated atomic cell behind an `Arc` handle — no lock, no
//! allocation, no branch beyond the saturating bucket clamp.  The renderer
//! re-takes the mutex, which is fine: scrapes are cold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buckets per histogram: value `v` lands in bucket `bucket_index(v)`,
/// bucket `i ≥ 1` covering `[2^(i-1), 2^i − 1]` (bucket 0 holds exact
/// zeros), with everything at or above `2^30` saturating into the top
/// bucket.  At microsecond resolution the top bucket starts around 18
/// minutes — nothing the service measures gets close.
pub const HIST_BUCKETS: usize = 32;

/// The log2 bucket of `v`: 0 for 0, otherwise the bit length of `v`,
/// clamped to the top bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
}

#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A monotonic counter handle.  Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// A detached counter not attached to any registry (for tests and
    /// default plumbing).
    pub fn detached() -> Counter {
        Counter(Arc::default())
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        // amopt-lint: hot-path
        self.0.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // amopt-lint: hot-path
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle.  Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// A detached gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge(Arc::default())
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        // amopt-lint: hot-path
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // amopt-lint: hot-path
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races only in the sense
    /// that concurrent add/sub pairs always net out; a lone underflow
    /// wraps, which the service never does).
    #[inline]
    pub fn sub(&self, n: u64) {
        // amopt-lint: hot-path
        self.0.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A log2-bucket histogram handle.  Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// A detached histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram(Arc::default())
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        // amopt-lint: hot-path
        let cell = &self.0;
        if let Some(bucket) = cell.buckets.get(bucket_index(v)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistSnapshot {
        let cell = &self.0;
        HistSnapshot {
            buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
            count: cell.count.load(Ordering::Relaxed),
            sum: cell.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data histogram snapshot: per-bucket counts plus the running
/// count and sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Observations per log2 bucket (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    help: &'static str,
    instrument: Instrument,
}

/// The instrument registry: name → cell, plus the Prometheus-style
/// renderer.  One per service; see the crate docs for the lock shape.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-fetches) the counter `name`.  Registering the same
    /// name twice returns a handle to the same cell, so restartable
    /// components can re-register idempotently.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name {
                if let Instrument::Counter(c) = &e.instrument {
                    return c.clone();
                }
            }
        }
        let c = Counter::detached();
        entries.push(Entry { name, help, instrument: Instrument::Counter(c.clone()) });
        c
    }

    /// Registers (or re-fetches) the gauge `name`.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name {
                if let Instrument::Gauge(g) = &e.instrument {
                    return g.clone();
                }
            }
        }
        let g = Gauge::detached();
        entries.push(Entry { name, help, instrument: Instrument::Gauge(g.clone()) });
        g
    }

    /// Registers (or re-fetches) the histogram `name`.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name {
                if let Instrument::Histogram(h) = &e.instrument {
                    return h.clone();
                }
            }
        }
        let h = Histogram::detached();
        entries.push(Entry { name, help, instrument: Instrument::Histogram(h.clone()) });
        h
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every instrument as Prometheus-style exposition text,
    /// sorted by name: `# HELP` / `# TYPE` comments, plain samples for
    /// counters and gauges, cumulative `_bucket{le="…"}` / `_sum` /
    /// `_count` samples for histograms.
    pub fn render(&self) -> String {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner()).clone();
        drop_duplicates(&mut entries);
        entries.sort_by_key(|e| e.name);
        let mut out = String::new();
        for e in &entries {
            render_entry(&mut out, e);
        }
        out
    }
}

/// Keeps the first registration of each name (duplicates can only arise
/// from a kind mismatch, which is a programming error; rendering the first
/// keeps the output well-formed).
fn drop_duplicates(entries: &mut Vec<Entry>) {
    let mut seen: Vec<&'static str> = Vec::with_capacity(entries.len());
    entries.retain(|e| {
        if seen.contains(&e.name) {
            false
        } else {
            seen.push(e.name);
            true
        }
    });
}

fn render_entry(out: &mut String, e: &Entry) {
    use std::fmt::Write as _;
    match &e.instrument {
        Instrument::Counter(c) => {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE {} counter", e.name);
            let _ = writeln!(out, "{} {}", e.name, c.get());
        }
        Instrument::Gauge(g) => {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE {} gauge", e.name);
            let _ = writeln!(out, "{} {}", e.name, g.get());
        }
        Instrument::Histogram(h) => {
            let snap = h.snapshot();
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE {} histogram", e.name);
            let mut cumulative = 0u64;
            for (i, &n) in snap.buckets.iter().enumerate() {
                cumulative += n;
                // Skip interior empty buckets to keep scrapes compact; the
                // first, last and every non-empty bucket always render so
                // cumulative counts stay reconstructible.
                if n == 0 && i != 0 && i != HIST_BUCKETS - 1 {
                    continue;
                }
                let le = if i >= HIST_BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_bound(i).to_string()
                };
                let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", e.name, le, cumulative);
            }
            let _ = writeln!(out, "{}_sum {}", e.name, snap.sum);
            let _ = writeln!(out, "{}_count {}", e.name, snap.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every bucket's bound is the largest value mapping into it.
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_bound(i)), i);
            assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn registration_is_idempotent_and_cells_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("amopt_test_total", "a test counter");
        let b = reg.counter("amopt_test_total", "a test counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn render_emits_prometheus_text() {
        let reg = Registry::new();
        reg.counter("amopt_b_total", "b").add(7);
        reg.gauge("amopt_a_depth", "a").set(3);
        let h = reg.histogram("amopt_c_us", "c");
        h.record(0);
        h.record(5);
        h.record(1 << 40); // saturates into the top bucket
        let text = reg.render();
        // Sorted by name, typed, with cumulative histogram buckets.
        let a_at = text.find("amopt_a_depth 3").expect("gauge sample");
        let b_at = text.find("amopt_b_total 7").expect("counter sample");
        assert!(a_at < b_at, "not sorted:\n{text}");
        assert!(text.contains("# TYPE amopt_a_depth gauge"));
        assert!(text.contains("# TYPE amopt_b_total counter"));
        assert!(text.contains("# TYPE amopt_c_us histogram"));
        assert!(text.contains("amopt_c_us_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("amopt_c_us_bucket{le=\"7\"} 2"), "{text}");
        assert!(text.contains("amopt_c_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains(&format!("amopt_c_us_sum {}", 5u64 + (1 << 40))));
        assert!(text.contains("amopt_c_us_count 3"));
    }
}
