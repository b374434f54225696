//! What the operating system tells the ledger: peak memory, CPU time, and
//! the description of the machine a baseline was taken on.

use std::fs;

/// Peak resident set (`VmHWM`) of this process in MiB; `0.0` off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far (all threads),
/// from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after ")".
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Machine name for the baseline file name, restricted to `[A-Za-z0-9_.-]`.
pub fn host() -> String {
    let raw = fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let clean: String = raw
        .trim()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || "_.-".contains(c) { c } else { '-' })
        .collect();
    if clean.is_empty() {
        "unknown".to_string()
    } else {
        clean
    }
}

fn trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string()).filter(|s| !s.is_empty())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(key, value)` description of the machine and toolchain, recorded in
/// every output file so a trajectory of baselines stays interpretable.
pub fn environment() -> Vec<(&'static str, String)> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |index: usize| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        match (
            trimmed(&format!("{dir}/level")),
            trimmed(&format!("{dir}/type")),
            trimmed(&format!("{dir}/size")),
        ) {
            (Some(level), Some(kind), Some(size)) => Some(format!("L{level} {kind} {size}")),
            _ => None,
        }
    };
    let caches: Vec<String> = (0..6).filter_map(cache).collect();
    vec![
        ("host", host()),
        ("nproc", nproc().to_string()),
        ("cpu", model),
        ("caches", if caches.is_empty() { "unknown".to_string() } else { caches.join(", ") }),
        ("rustc", command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
        ),
        ("traced_build", cfg!(feature = "traced").to_string()),
    ]
}
