//! `perf-ledger` — the benchmark of the option-pricing stack.
//!
//! Six workloads drive the product through its public items only, each in
//! its own process: `deep_lattice`, `book_cold`, `book_churn`,
//! `surface_invert`, `quote_stream` and `quote_saturate`.  A plain run
//! reports the four end-to-end metrics for each; the traced build reports
//! the per-layer ledger.  See `README.md`.

pub mod alloc;
pub mod gen;
pub mod ledger;
pub mod loadgen;
pub mod probes;
pub mod report;
pub mod rng;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod sys;
pub mod workloads;

use ledger::{Ledger, MetricDef, END_TO_END, PER_LAYER, SPAN_LAYERS};
use report::{OutputFile, Set, Value, WorkloadResult};
use speed::Speedometer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Measured, SPECS};

/// Set-up samples of a run: this process's own plus this many child
/// processes that only set up and exit, so every sample pays the
/// process-wide lazy initialisation a user's first request pays.
const SETUP_CHILDREN: usize = 10;

const USAGE: &str = "\
usage: perf-ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       perf-ledger run    [--seed N] [--seconds S] [--smoke] [--baseline] [--out FILE]
       perf-ledger trace  [--seed N] [--seconds S] [--smoke] [--out FILE]
       perf-ledger repeat N [--seed N] [--seconds S] [--out FILE]
       perf-ledger compare A.json B.json
workloads: deep_lattice book_cold book_churn surface_invert quote_stream quote_saturate";

/// Options shared by every form of the command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    baseline: bool,
    setup_only: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
            baseline: false,
            setup_only: false,
            out: None,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => o.workload = Some(value("--workload")?),
                "--seed" => {
                    o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    o.seconds =
                        value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(o.seconds.is_finite() && o.seconds > 0.0) {
                        return Err("--seconds must be a positive number".to_string());
                    }
                }
                "--trace" => {
                    o.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                    }
                }
                "--out" => o.out = Some(PathBuf::from(value("--out")?)),
                "--smoke" => o.smoke = true,
                "--baseline" => o.baseline = true,
                "--setup-only" => o.setup_only = true,
                flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
                _ => o.positional.push(arg.clone()),
            }
        }
        if o.smoke {
            o.seconds = o.seconds.min(1.0);
        }
        Ok(o)
    }
}

/// Entry point of both binaries.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => Options::parse(&args[1..]).and_then(|o| run_sets(&o, 1, false)),
        Some("trace") => Options::parse(&args[1..]).and_then(|o| run_sets(&o, 1, true)),
        Some("repeat") => Options::parse(&args[1..]).and_then(|o| {
            let n: usize = o
                .positional
                .first()
                .and_then(|s| s.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or("repeat needs a count")?;
            run_sets(&o, n, false)
        }),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => Options::parse(&args).and_then(|o| drive(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf-ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// Where output files go: `perf/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs a child that only sets the workload up, and returns the seconds it
/// reports.
fn setup_in_child(o: &Options, workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
            "--setup-only",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or(format!("the set-up child failed: {}", text.trim()))
}

fn print_value(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<44} {value:>16.6} {unit:<6} {note}");
}

/// One workload, in this process: set up, time (or trace), check, report.
/// `Ok(false)` when an output was wrong or a request failed.
fn drive(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or(format!("unknown workload `{name}`\n{USAGE}"))?;
    if o.trace && !cfg!(feature = "traced") {
        return Err(
            "--trace 1 needs the traced build (the `perf-ledger-traced` binary)".to_string()
        );
    }

    let t = Instant::now();
    let mut workload = workloads::setup(name, o.seed, o.seconds).expect("spec exists");
    // Set-up is a few milliseconds of processor work: one reading taken
    // straight after it says how fast the machine ran it.
    let own_setup = t.elapsed().as_secs_f64() / speed::slowdown_now();
    if o.setup_only {
        println!("setup_s {own_setup}");
        return Ok(true);
    }
    println!(
        "perf-ledger {name}: seed {} seconds {} trace {} nproc {}{}",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        sys::nproc(),
        if o.smoke { "  [smoke: numbers are not comparable]" } else { "" }
    );
    println!("  why: {}", spec.why);

    let mut ledger = Ledger::default();
    let mut tracer = spans::Tracer::default();
    let (mut measured, speed): (Measured, _) = Speedometer::during(|| {
        if o.trace {
            workload.trace(o.seconds, &mut tracer, &mut ledger)
        } else {
            workload.measure(o.seconds)
        }
    });
    measured.at_reference_speed(&speed, spec.cpu_bound);
    // Read before the output check allocates its reference data.
    let peak_rss_mb = sys::peak_rss_mb();

    let mut result = WorkloadResult {
        workload: name.to_string(),
        seed: o.seed,
        correct: true,
        attempted: measured.attempted.max(1),
        failed: measured.failed,
        metrics: Vec::new(),
        detail: measured
            .detail
            .iter()
            .map(|(n, v, u)| Value { name: n.clone(), value: *v, unit: u.to_string() })
            .collect(),
    };

    let rows: Vec<(&MetricDef, f64, String)> = if o.trace {
        finish_ledger(o, spec, workload.as_mut(), &measured, &tracer, &mut ledger, t)?;
        ledger.rows().map(|(def, value)| (def, value, String::new())).collect()
    } else {
        let values = end_to_end_values(o, spec, own_setup, peak_rss_mb, &measured)?;
        END_TO_END.iter().zip(values).map(|(def, (value, note))| (def, value, note)).collect()
    };
    for (def, value, note) in rows {
        print_value(def.name, value, def.unit, &note);
        result.metrics.push(Value {
            name: def.name.to_string(),
            value,
            unit: def.unit.to_string(),
        });
    }
    if !o.trace {
        // Not gated: too unsteady on a shared two-core machine (see README).
        result.detail.push(Value {
            name: "p99_us".to_string(),
            value: measured.p99_us(),
            unit: "us".to_string(),
        });
        result.detail.push(Value {
            name: "cpu_us_per_option".to_string(),
            value: measured.cpu_us_per_option(),
            unit: "us".to_string(),
        });
    }
    for v in &result.detail {
        print_value(&v.name, v.value, &v.unit, "(detail)");
    }

    let check = workload.verify();
    drop(workload);
    for note in &check.notes {
        println!("  WRONG: {note}");
    }
    result.failed += check.wrong;
    result.correct = check.wrong == 0;
    print_value(
        "fail_share",
        result.failed as f64 / result.attempted as f64,
        "ratio",
        "failed + refused + missing + wrong ÷ attempted",
    );
    println!(
        "  check: {} outputs checked, {} wrong; {} of {} requests failed",
        check.checked, check.wrong, measured.failed, result.attempted
    );
    println!("detail {}", result.record());
    println!("{}", result.result_line());
    Ok(result.correct && result.failed == 0)
}

/// The rest of a traced run after the workload's own pass: the layer probes,
/// the span tree's shares, the run-level numbers, and the span file.
fn finish_ledger(
    o: &Options,
    spec: &workloads::Spec,
    workload: &mut dyn workloads::Workload,
    measured: &Measured,
    tracer: &spans::Tracer,
    ledger: &mut Ledger,
    started: Instant,
) -> Result<(), String> {
    let scale = o.seconds / 10.0;
    let progress = |what: &str| eprintln!("  [{:6.2} s] {what}", started.elapsed().as_secs_f64());
    progress("traced pass done");
    if ledger.get("engine.steps") == 0.0 {
        probes::engine_at(ledger, o.seed, spec.engine_steps, scale);
    }
    probes::batch_on(ledger, &workload.sample_contracts(), o.seed);
    progress("workload-sized engine and batch probes done");
    probes::run_all(ledger, o.seed, scale);
    progress("fixed-size layer probes done");
    let (shares, coverage) = spans::layer_self_shares(&tracer.spans, &SPAN_LAYERS);
    for (layer, share) in SPAN_LAYERS.iter().zip(shares) {
        ledger.set(&format!("trace.self_share.{layer}"), share);
    }
    ledger.set("trace.coverage", coverage);
    ledger.set("trace.spans", tracer.spans.len() as f64);
    ledger.set("run.p99_us", measured.p99_us());
    ledger.set("run.cpu_us_per_option", measured.cpu_us_per_option());
    // A traced pass that ran one-threaded does not compare with a plain
    // run; the same plain traffic, briefly, in this build does.
    let comparable = if measured.one_thread {
        let (mut plain, speed) = Speedometer::during(|| workload.measure(o.seconds * 0.15));
        plain.at_reference_speed(&speed, spec.cpu_bound);
        plain
    } else {
        measured.clone()
    };
    ledger.set("obs.traced_run_cost", traced_run_cost(o, spec.name, &comparable)?);
    progress("plain comparison run done");
    let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
    write_out(&path, &tracer.to_jsonl())?;
    println!("  spans: {} written to {}", tracer.spans.len(), path.display());
    Ok(())
}

/// The end-to-end metrics of a plain run, in [`END_TO_END`] order, each with
/// the note the human report prints beside it.
fn end_to_end_values(
    o: &Options,
    spec: &workloads::Spec,
    own_setup: f64,
    peak_rss_mb: f64,
    measured: &Measured,
) -> Result<[(f64, String); 4], String> {
    let mut setups = vec![own_setup];
    if !o.smoke {
        for _ in 0..SETUP_CHILDREN {
            setups.push(setup_in_child(o, spec.name)?);
        }
    }
    let (q1, q3) = stats::quartiles(&setups);
    let windows = measured.windows.len();
    let restated = if spec.cpu_bound { " at the reference speed" } else { "" };
    Ok([
        (
            stats::median(&setups),
            format!(
                "median of {} set-ups at the reference speed [{q1:.4} .. {q3:.4}]",
                setups.len()
            ),
        ),
        (peak_rss_mb, "VmHWM at the end of the timed region".to_string()),
        (
            measured.options_per_s(),
            format!(
                "third quartile of {windows} windows{restated}; {} answered in {:.3} s",
                measured.answered, measured.elapsed_s
            ),
        ),
        (
            measured.p50_us(),
            format!(
                "{}; first quartile of {windows} windows{restated}, n = {}",
                spec.op, measured.op_samples
            ),
        ),
    ])
}

/// Traced ÷ plain time of the workload's operation: the plain binary next
/// to this one runs the same workload briefly, with tracing off, and the
/// medians are compared.  Zero when no plain binary is there to ask.
fn traced_run_cost(o: &Options, name: &str, traced: &Measured) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let plain = exe.with_file_name("perf-ledger");
    if !plain.is_file() || traced.p50_us() <= 0.0 {
        return Ok(0.0);
    }
    let seconds = (o.seconds * 0.15).max(0.5);
    let out = Command::new(plain)
        .args([
            "--workload",
            name,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
            "--smoke",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the plain binary: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let plain_p50 = text
        .lines()
        .last()
        .and_then(|l| amopt_service::wire::parse(l).ok())
        .and_then(|doc| WorkloadResult::from_json(&doc, name, o.seed))
        .and_then(|r| r.metric("p50_us"));
    Ok(plain_p50.filter(|p| *p > 0.0).map_or(0.0, |p| traced.p50_us() / p))
}

/// The binary the children of `run` / `trace` / `repeat` execute: this one,
/// or its traced sibling (built on demand).
fn child_binary(traced: bool) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if traced == cfg!(feature = "traced") {
        return Ok(exe);
    }
    let (name, features): (&str, &[&str]) = if traced {
        ("perf-ledger-traced", &["--features", "traced"])
    } else {
        ("perf-ledger", &[])
    };
    let sibling = exe.with_file_name(name);
    // Into the target directory this binary was built into
    // (`<target>/release/<exe>`), so the two stay side by side.
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("this binary is not in a cargo target directory")?;
    println!("building {name} ...");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", name, "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target)
        .args(features)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() || !sibling.is_file() {
        return Err(format!("could not build {name} next to {}", exe.display()));
    }
    Ok(sibling)
}

/// `run`, `trace` and `repeat`: every workload in its own child process,
/// `sets` times over, alternating the order; writes one output file.
fn run_sets(o: &Options, sets: usize, traced: bool) -> Result<bool, String> {
    let binary = child_binary(traced)?;
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![workloads::spec(w).ok_or(format!("unknown workload `{w}`"))?.name],
        None => SPECS.iter().map(|s| s.name).collect(),
    };
    let mut all_ok = true;
    let mut file = OutputFile {
        kind: if traced {
            "trace"
        } else if sets > 1 {
            "repeat"
        } else {
            "run"
        }
        .to_string(),
        seconds: o.seconds,
        comparable: !o.smoke,
        environment: sys::environment().into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        sets: Vec::new(),
    };
    for set in 0..sets {
        let mut order = names.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        let seed = o.seed + set as u64;
        let mut results = Vec::new();
        for name in order {
            let mut cmd = Command::new(&binary);
            cmd.args([
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
            ]);
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
            if o.smoke {
                cmd.arg("--smoke");
            }
            let out =
                cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("spawn {name}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines.pop().and_then(|l| amopt_service::wire::parse(l).ok());
            let record = lines
                .pop()
                .and_then(|l| l.strip_prefix("detail "))
                .and_then(|l| amopt_service::wire::parse(l).ok());
            for line in &lines {
                println!("{line}");
            }
            let parsed = record
                .as_ref()
                .or(result.as_ref())
                .and_then(|doc| WorkloadResult::from_json(doc, name, seed));
            let Some(parsed) = parsed else {
                return Err(format!("{name} printed no result (exit {:?})", out.status.code()));
            };
            check_names(&parsed, traced)?;
            all_ok &= out.status.success() && parsed.correct && parsed.failed == 0;
            results.push(parsed);
        }
        file.sets.push(Set { results });
    }

    println!();
    if sets > 1 {
        let over = report::print_spreads(&file);
        if !over.is_empty() {
            println!("{} metric × workload pairs spread beyond their bound", over.len());
        }
    }
    let default_name = if o.baseline {
        format!("baseline-{}.json", sys::host())
    } else {
        format!("{}{}.json", file.kind, if o.smoke { "-smoke" } else { "" })
    };
    let path = o.out.clone().unwrap_or_else(|| out_dir().join(default_name));
    write_out(&path, &file.to_json())?;
    println!("wrote {}", path.display());
    if o.smoke {
        println!("smoke run: correctness and names checked; the numbers above are not comparable");
    }
    Ok(all_ok)
}

/// A run prints exactly the names the ledger lists — no more, no fewer.
fn check_names(result: &WorkloadResult, traced: bool) -> Result<(), String> {
    let want: Vec<&str> = if traced {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    let got: Vec<&str> = result.metrics.iter().map(|v| v.name.as_str()).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("{} printed metrics {got:?}, the ledger lists {want:?}", result.workload))
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(format!("compare needs two files\n{USAGE}")) };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        OutputFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(a)?, read(b)?);
    if !(a.comparable && b.comparable) {
        println!("note: at least one file is a smoke run; its numbers are not comparable");
    }
    let rows = report::compare(&a, &b);
    report::print_compare(&rows);
    Ok(rows.iter().all(|r| r.verdict != report::Verdict::Worse))
}
