//! The names of every metric the benchmark prints, and the per-layer
//! ledger a traced run fills in.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step.  A per-layer metric a workload does not exercise (the memo hit
//! rate of a run that uses no memo) reads zero.

use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Regression bound of an end-to-end metric (share of the parent's
    /// median); zero for per-layer metrics, which are not gated.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound }
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("options_per_s", "1/s", true, 0.25),
    e2e("p50_us", "us", false, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: 0.0 }
}

/// The per-layer metrics of the traced run, layer by layer.
pub const PER_LAYER: &[MetricDef] = &[
    // the traced pass as a whole: the two run-level numbers too unsteady
    // on a shared two-core machine to gate
    lo("run.p99_us", "us"),
    lo("run.cpu_us_per_option", "us"),
    // fft
    lo("fft.fwd_ns_per_pt.n1k", "ns"),
    lo("fft.fwd_ns_per_pt.n16k", "ns"),
    lo("fft.fwd_ns_per_pt.n256k", "ns"),
    lo("fft.plan_hit_ns", "ns"),
    lo("fft.plan_build_us.n256k", "us"),
    lo("fft.correlate_us.n4k_h1k", "us"),
    lo("fft.correlate_us.n256k_h64k", "us"),
    lo("fft.correlate3_us.n256k_h32k", "us"),
    lo("fft.correlate_flops.n256k_h64k", "count"),
    lo("fft.correlate_bytes.n256k_h64k", "count"),
    lo("fft.allocs_per_correlate", "count"),
    // stencil
    lo("stencil.advance_us.L4k_h1k", "us"),
    lo("stencil.advance_us.L256k_h64k", "us"),
    lo("stencil.self_share.L256k_h64k", "ratio"),
    lo("stencil.allocs_per_advance", "count"),
    lo("stencil.alloc_bytes_per_advance.L256k_h64k", "count"),
    lo("stencil.scratch_checkout_ns", "ns"),
    // engine, at the workload's lattice size
    lo("engine.steps", "count"),
    lo("engine.t1_us.bopm_call", "us"),
    lo("engine.t1_us.bopm_put", "us"),
    lo("engine.t1_us.topm_call", "us"),
    lo("engine.t1_us.bsm_put", "us"),
    hi("engine.par_speedup.bopm_call", "ratio"),
    hi("engine.par_speedup.bopm_put", "ratio"),
    hi("engine.par_speedup.topm_call", "ratio"),
    hi("engine.par_speedup.bsm_put", "ratio"),
    lo("engine.exponent.bopm_call", "ratio"),
    lo("engine.exponent.bopm_put", "ratio"),
    lo("engine.exponent.topm_call", "ratio"),
    lo("engine.exponent.bsm_put", "ratio"),
    lo("engine.phase_share.fft_pass", "ratio"),
    lo("engine.phase_share.boundary_window", "ratio"),
    lo("engine.phase_share.base_case", "ratio"),
    lo("engine.phase_calls_per_price.fft_pass", "count"),
    lo("engine.phase_calls_per_price.boundary_window", "count"),
    lo("engine.phase_calls_per_price.base_case", "count"),
    lo("engine.allocs_per_price", "count"),
    lo("engine.alloc_kb_per_price", "kB"),
    // parallel
    lo("parallel.join_ns", "ns"),
    lo("parallel.map_ns_per_item.n4096", "ns"),
    hi("parallel.threads", "count"),
    // batch and surface
    lo("batch.overhead_us_per_req", "us"),
    hi("batch.fanout_speedup", "ratio"),
    lo("batch.dedup_ns_per_req", "ns"),
    lo("batch.memo_hit_ns", "ns"),
    lo("batch.memo_publish_ns", "ns"),
    hi("batch.hit_rate", "ratio"),
    lo("batch.evictions_per_req", "ratio"),
    lo("batch.unique_share", "ratio"),
    lo("surface.probes_per_quote", "count"),
    hi("surface.requote_quotes_per_s", "1/s"),
    hi("surface.serial_quotes_per_s", "1/s"),
    // wire
    lo("wire.decode_ns_per_line", "ns"),
    lo("wire.encode_ns_per_reply", "ns"),
    hi("wire.parse_mb_per_s", "MB/s"),
    lo("wire.assemble_ns_per_line", "ns"),
    lo("wire.assemble_split_ns_per_line", "ns"),
    lo("wire.request_bytes_mean", "count"),
    // queue
    lo("queue.submit_ns", "ns"),
    lo("queue.rtt_us.tight", "us"),
    lo("queue.rtt_us.default", "us"),
    hi("queue.inproc_options_per_s", "1/s"),
    hi("queue.batch_mean", "count"),
    lo("queue.heap_pops_per_req", "ratio"),
    lo("queue.deadline_miss_share", "ratio"),
    lo("queue.rejected_share", "ratio"),
    lo("queue.shed_share", "ratio"),
    lo("queue.stage_us.parse", "us"),
    lo("queue.stage_us.admit", "us"),
    lo("queue.stage_us.queue_wait", "us"),
    lo("queue.stage_us.batch_form", "us"),
    lo("queue.stage_us.memo_probe", "us"),
    lo("queue.stage_us.execute", "us"),
    lo("queue.stage_us.reply_write", "us"),
    hi("queue.stage_coverage", "ratio"),
    lo("queue.tagged_p50_us", "us"),
    hi("queue.slo_share", "ratio"),
    lo("queue.tagged_p50_us.hi", "us"),
    hi("queue.slo_share.hi", "ratio"),
    // reactor and the load generator
    lo("reactor.rtt_us.tight", "us"),
    lo("reactor.overhead_us", "us"),
    lo("reactor.conn_setup_us", "us"),
    hi("reactor.front_lines_per_s", "1/s"),
    hi("reactor.events_per_wake", "count"),
    lo("reactor.loop_iters_per_req", "ratio"),
    hi("reactor.rate_at_limit", "1/s"),
    lo("reactor.p50_us.mid", "us"),
    lo("reactor.p99_us.mid", "us"),
    lo("reactor.p50_us.hi", "us"),
    lo("reactor.p99_us.hi", "us"),
    lo("loadgen.late_p99_us", "us"),
    // obs
    lo("obs.record_ns", "ns"),
    lo("obs.stamp_ns", "ns"),
    lo("obs.journal_push_ns", "ns"),
    lo("obs.trace_cost", "ratio"),
    lo("obs.traced_run_cost", "ratio"),
    // the span tree of the traced pass
    hi("trace.spans", "count"),
    lo("trace.self_share.fft", "ratio"),
    lo("trace.self_share.stencil", "ratio"),
    lo("trace.self_share.engine", "ratio"),
    lo("trace.self_share.batch", "ratio"),
    lo("trace.self_share.wire", "ratio"),
    lo("trace.self_share.queue", "ratio"),
    lo("trace.self_share.reactor", "ratio"),
    hi("trace.coverage", "ratio"),
];

/// Layers whose self time the span tree attributes.
pub const SPAN_LAYERS: [&str; 7] =
    ["fft", "stencil", "engine", "batch", "wire", "queue", "reactor"];

/// Values of the per-layer metrics collected by one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of the ledger"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric in listing order; unset ones read zero.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        PER_LAYER.iter().map(|d| (d, self.get(d.name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amopt_service::wire::{self, JsonValue};
    use std::collections::HashSet;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid(d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for w in &crate::workloads::SPECS {
            assert!(valid(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` and the names a run prints are the same lists: a run
    /// prints exactly [`END_TO_END`] (plain) or [`PER_LAYER`] (traced) for
    /// exactly the workloads of `SPECS`.
    #[test]
    fn benchmark_json_lists_exactly_what_a_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = wire::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<JsonValue> {
            match doc.get(key) {
                Some(JsonValue::Arr(items)) => items.clone(),
                other => panic!("`{key}` is not an array: {other:?}"),
            }
        };
        let text_of = |v: &JsonValue, key: &str| {
            v.get(key).and_then(JsonValue::as_str).unwrap_or_default().to_string()
        };

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (text_of(w, "name"), text_of(w, "why"))).collect();
        let ours: Vec<(String, String)> = crate::workloads::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let direction = |d: &MetricDef| if d.higher_is_better { "higher" } else { "lower" };
        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(JsonValue::as_f64).unwrap_or(-1.0),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), direction(d).to_string(), d.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), direction(d).to_string()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn the_ledger_rejects_names_it_does_not_list() {
        let mut ledger = Ledger::default();
        ledger.set("fft.plan_hit_ns", 12.5);
        assert_eq!(ledger.get("fft.plan_hit_ns"), 12.5);
        assert_eq!(ledger.get("fft.fwd_ns_per_pt.n1k"), 0.0);
        assert_eq!(ledger.rows().count(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(|| Ledger::default().set("fft.nope", 1.0)).is_err());
    }
}
