//! Result records: the one-line JSON a workload run ends with, the files
//! `run` / `trace` / `repeat` write, and the `compare` table.

use crate::ledger::{MetricDef, END_TO_END};
use crate::stats::{median, quartiles, spread};
use amopt_service::wire::{self, JsonValue};
use std::fmt::Write as _;

/// One metric value as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one workload run reported.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The gated metrics (plain run) or the per-layer ledger (traced run).
    pub metrics: Vec<Value>,
    /// Workload-specific numbers of the human report; not gated.
    pub detail: Vec<Value>,
}

/// JSON number: shortest round-trip digits; non-finite values (a metric
/// that could not be measured) become 0.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn values_object(values: &[Value]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                wire::quote(&v.name),
                number(v.value),
                wire::quote(&v.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl WorkloadResult {
    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            values_object(&self.metrics)
        )
    }

    /// The record kept in output files: the result line's fields plus the
    /// workload, seed and detail.
    pub fn record(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}, \"detail\": {}}}",
            wire::quote(&self.workload),
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            values_object(&self.metrics),
            values_object(&self.detail)
        )
    }

    fn values_from(doc: &JsonValue, key: &str) -> Vec<Value> {
        let Some(JsonValue::Obj(fields)) = doc.get(key) else { return Vec::new() };
        fields
            .iter()
            .map(|(name, v)| Value {
                name: name.clone(),
                value: v.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0),
                unit: v.get("unit").and_then(JsonValue::as_str).unwrap_or("").to_string(),
            })
            .collect()
    }

    /// Reads a record (or a bare result line, given its workload and seed).
    pub fn from_json(doc: &JsonValue, workload: &str, seed: u64) -> Option<Self> {
        let count = |key: &str| doc.get(key).and_then(JsonValue::as_f64).map(|x| x as u64);
        Some(WorkloadResult {
            workload: doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or(workload)
                .to_string(),
            seed: count("seed").unwrap_or(seed),
            correct: matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: Self::values_from(doc, "metrics"),
            detail: Self::values_from(doc, "detail"),
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// One full pass over the workloads, in the order it ran them.
#[derive(Debug, Clone, PartialEq)]
pub struct Set {
    pub results: Vec<WorkloadResult>,
}

/// An output file: what produced it, on which machine, and its sets.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputFile {
    pub kind: String,
    pub seconds: f64,
    pub comparable: bool,
    pub environment: Vec<(String, String)>,
    pub sets: Vec<Set>,
}

impl OutputFile {
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"perf-ledger/1\",");
        let _ = writeln!(out, "  \"kind\": {},", wire::quote(&self.kind));
        let _ = writeln!(out, "  \"seconds\": {},", number(self.seconds));
        let _ = writeln!(out, "  \"comparable\": {},", self.comparable);
        let env: Vec<String> = self
            .environment
            .iter()
            .map(|(k, v)| format!("{}: {}", wire::quote(k), wire::quote(v)))
            .collect();
        let _ = writeln!(out, "  \"environment\": {{{}}},", env.join(", "));
        let sets: Vec<String> = self
            .sets
            .iter()
            .map(|set| {
                let rows: Vec<String> =
                    set.results.iter().map(|r| format!("      {}", r.record())).collect();
                format!("    {{\"results\": [\n{}\n    ]}}", rows.join(",\n"))
            })
            .collect();
        let _ = writeln!(out, "  \"sets\": [\n{}\n  ]", sets.join(",\n"));
        out.push_str("}\n");
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = wire::parse(text)?;
        let sets = match doc.get("sets") {
            Some(JsonValue::Arr(sets)) => sets,
            _ => return Err("no `sets` array: not a perf-ledger output file".to_string()),
        };
        let sets = sets
            .iter()
            .map(|set| {
                let Some(JsonValue::Arr(rows)) = set.get("results") else {
                    return Err("a set without `results`".to_string());
                };
                let results = rows
                    .iter()
                    .map(|r| {
                        WorkloadResult::from_json(r, "", 0)
                            .ok_or("a malformed result record".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Set { results })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let environment = match doc.get("environment") {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                .collect(),
            _ => Vec::new(),
        };
        Ok(OutputFile {
            kind: doc.get("kind").and_then(JsonValue::as_str).unwrap_or("").to_string(),
            seconds: doc.get("seconds").and_then(JsonValue::as_f64).unwrap_or(0.0),
            comparable: matches!(doc.get("comparable"), Some(JsonValue::Bool(true))),
            environment,
            sets,
        })
    }

    /// Every value of `metric` on `workload`, one per set.
    pub fn series(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.sets
            .iter()
            .flat_map(|s| &s.results)
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metric(metric))
            .collect()
    }

    /// Workload names in first-seen order.
    pub fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in self.sets.iter().flat_map(|s| &s.results) {
            if !names.contains(&r.workload) {
                names.push(r.workload.clone());
            }
        }
        names
    }
}

/// How B's median of a metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side exceeds the bound: the runs
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Change of the median in the direction that is worse for this metric,
    /// as a share of A's median (negative = B is better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges B against A on one metric.  Beyond the bound in the bad direction
/// is `worse`, beyond it in the good direction `better`, inside it `same`
/// — unless either side's own spread is wider than the bound, in which
/// case the verdict stands only if every B run beats (or loses to) every
/// A run.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return (0.0, Verdict::Unresolved);
    }
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    let verdict = if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    if spread(a) > def.bound || spread(b) > def.bound {
        // Badness: the metric's value signed so that larger is worse.
        let bad = |v: &[f64]| v.iter().map(|x| sign * x).collect::<Vec<f64>>();
        let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let most = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (bad_a, bad_b) = (bad(a), bad(b));
        let b_all_worse = least(&bad_b) > most(&bad_a);
        let b_all_better = most(&bad_b) < least(&bad_a);
        let clear = match verdict {
            Verdict::Worse => b_all_worse,
            Verdict::Better => b_all_better,
            _ => false,
        };
        if !clear {
            return (worse_by, Verdict::Unresolved);
        }
    }
    (worse_by, verdict)
}

/// One row per end-to-end metric × workload present in both files.
pub fn compare(a: &OutputFile, b: &OutputFile) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in a.workloads() {
        for def in &END_TO_END {
            let (sa, sb) = (a.series(&workload, def.name), b.series(&workload, def.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let summary = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (median(v), q1, q3)
            };
            let (worse_by, verdict) = judge(def, &sa, &sb);
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: summary(&sa),
                b: summary(&sb),
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

pub fn print_compare(rows: &[Row]) {
    println!(
        "{:<16} {:<18} {:>14} {:>24} {:>14} {:>24} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1 .. q3]",
        "B median",
        "B [q1 .. q3]",
        "worse by",
        "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<18} {:>14.4} {:>24} {:>14.4} {:>24} {:>8.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a.0,
            format!("[{:.4} .. {:.4}]", r.a.1, r.a.2),
            r.b.0,
            format!("[{:.4} .. {:.4}]", r.b.1, r.b.2),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
}

/// Run-to-run spread of every end-to-end metric × workload of a file with
/// several sets; returns the rows that exceed their bound.
pub fn print_spreads(file: &OutputFile) -> Vec<(String, &'static str, f64)> {
    let mut over = Vec::new();
    println!(
        "{:<16} {:<18} {:>4} {:>14} {:>26} {:>8} {:>6}",
        "workload", "metric", "n", "median", "[q1 .. q3]", "spread", "bound"
    );
    for workload in file.workloads() {
        for def in &END_TO_END {
            let series = file.series(&workload, def.name);
            if series.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&series);
            let s = spread(&series);
            // Set-up time is gated on its median only, not on its spread.
            let flag = if s > def.bound && def.name != "setup_s" { "  OVER" } else { "" };
            println!(
                "{:<16} {:<18} {:>4} {:>14.4} {:>26} {:>7.1}% {:>5.0}%{flag}",
                workload,
                def.name,
                series.len(),
                median(&series),
                format!("[{q1:.4} .. {q3:.4}]"),
                s * 100.0,
                def.bound * 100.0
            );
            if !flag.is_empty() {
                over.push((workload.clone(), def.name, s));
            }
        }
    }
    over
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &'static str, higher: bool, bound: f64) -> MetricDef {
        MetricDef { name, unit: "x", higher_is_better: higher, bound }
    }

    #[test]
    fn result_line_round_trips_and_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            workload: "book_cold".to_string(),
            seed: 3,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![Value {
                name: "setup_s".to_string(),
                value: 0.8127,
                unit: "s".to_string(),
            }],
            detail: vec![Value { name: "x.y".to_string(), value: 1.5, unit: "ms".to_string() }],
        };
        let line = r.result_line();
        let doc = wire::parse(&line).unwrap();
        let JsonValue::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"), "{line}");
        let back = WorkloadResult::from_json(&wire::parse(&r.record()).unwrap(), "", 0).unwrap();
        assert_eq!(back, r);
        assert_eq!(number(f64::NAN), "0.0");
    }

    #[test]
    fn output_files_round_trip() {
        let r = WorkloadResult {
            workload: "w".to_string(),
            seed: 1,
            correct: true,
            attempted: 2,
            failed: 0,
            metrics: vec![Value {
                name: "p50_us".to_string(),
                value: 12.25,
                unit: "us".to_string(),
            }],
            detail: vec![],
        };
        let file = OutputFile {
            kind: "repeat".to_string(),
            seconds: 10.0,
            comparable: true,
            environment: vec![("host".to_string(), "box \"a\"".to_string())],
            sets: vec![Set { results: vec![r.clone()] }, Set { results: vec![r] }],
        };
        let back = OutputFile::parse(&file.to_json()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.series("w", "p50_us"), vec![12.25, 12.25]);
        assert!(OutputFile::parse("{\"a\": 1}").is_err());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def("p50_us", false, 0.10);
        let higher = def("options_per_s", true, 0.10);
        let tight = |m: f64| vec![m * 0.99, m, m * 1.01];
        assert_eq!(judge(&lower, &tight(100.0), &tight(105.0)).1, Verdict::Same);
        assert_eq!(judge(&lower, &tight(100.0), &tight(120.0)).1, Verdict::Worse);
        assert_eq!(judge(&lower, &tight(100.0), &tight(80.0)).1, Verdict::Better);
        assert_eq!(judge(&higher, &tight(100.0), &tight(80.0)).1, Verdict::Worse);
        assert_eq!(judge(&higher, &tight(100.0), &tight(120.0)).1, Verdict::Better);
        let (worse_by, _) = judge(&higher, &tight(100.0), &tight(80.0));
        assert!((worse_by - 0.2).abs() < 1e-12);
        // A noisy side leaves the verdict open...
        let noisy = vec![70.0, 100.0, 135.0, 90.0, 125.0];
        assert_eq!(judge(&lower, &noisy, &tight(115.0)).1, Verdict::Unresolved);
        // ...unless every run of B is beyond every run of A.
        assert_eq!(judge(&lower, &noisy, &tight(200.0)).1, Verdict::Worse);
        assert_eq!(judge(&lower, &noisy, &tight(50.0)).1, Verdict::Better);
        assert_eq!(judge(&higher, &noisy, &tight(200.0)).1, Verdict::Better);
    }
}
