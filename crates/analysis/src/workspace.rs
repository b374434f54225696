//! The workspace driver: walks the repository, decides which lints apply to
//! which files, runs them, and filters findings through the allow markers.

use crate::lints::{self, Finding};
use crate::source::{AllowScope, SourceFile};
use std::path::{Path, PathBuf};

/// Where each lint looks, as workspace-relative path prefixes (always `/`
/// separated, also on Windows).  `hot-path-alloc` and `hot-path-lock` are
/// marker-driven and run everywhere; the marker grammar itself is validated
/// everywhere too.
const PANIC_SURFACE_SCOPE: &[&str] = &["crates/service/src/"];
/// `crates/obs/src/` is in scope: the metrics/journal record paths run
/// inside the service's hot loops, so the same lock rules apply there.
const LOCK_DISCIPLINE_SCOPE: &[&str] = &["crates/service/src/", "crates/obs/src/"];
const FLOAT_EQ_SCOPE: &[&str] = &["crates/core/src/", "crates/fft/src/", "crates/stencil/src/"];
/// The two places `unsafe` may live; everywhere *else* gets
/// `unsafe-confined`.  `shims/epoll/` wraps raw syscalls.  `shims/rayon/`
/// stands in for an upstream crate that contains the same one erasure:
/// lending a stack-borrowed closure to an already-running thread cannot be
/// written in safe Rust (`thread::scope` is the safe form, at a thread spawn
/// per fork).
const UNSAFE_EXEMPT_SCOPE: &[&str] = &["shims/epoll/", "shims/rayon/"];

/// Directory names never descended into.  `perf` is the benchmark harness:
/// a standalone package outside this workspace (own manifest and lockfile,
/// frozen per BENCHMARK.json) whose counting global allocator and affinity
/// syscall need `unsafe` by construction.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".github", "perf"];

/// A completed check: gate-failing findings plus advisory notes.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Violations (non-empty ⇒ the gate fails).
    pub findings: Vec<Finding>,
    /// Advisory only: allow markers that suppressed nothing.
    pub unused_allows: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Lints that apply to a workspace-relative path.
pub fn lints_for(rel: &str) -> Vec<&'static str> {
    let mut lints = vec!["hot-path-alloc", "hot-path-lock"];
    if PANIC_SURFACE_SCOPE.iter().any(|p| rel.starts_with(p)) {
        lints.push("panic-surface");
    }
    if FLOAT_EQ_SCOPE.iter().any(|p| rel.starts_with(p)) {
        lints.push("float-eq");
    }
    if LOCK_DISCIPLINE_SCOPE.iter().any(|p| rel.starts_with(p)) {
        lints.push("lock-discipline");
    }
    if !UNSAFE_EXEMPT_SCOPE.iter().any(|p| rel.starts_with(p)) {
        lints.push("unsafe-confined");
    }
    lints
}

/// Checks the whole workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<CheckReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = CheckReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = std::fs::read_to_string(&path)?;
        check_file(Path::new(&rel), text, &lints_for(&rel), &mut report);
    }
    report.findings.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(report)
}

/// Lints one file's text with an explicit lint set, appending to `report`.
/// Marker-grammar errors always count; allow markers filter the rest.
pub fn check_file(path: &Path, text: String, lints: &[&str], report: &mut CheckReport) {
    report.files_scanned += 1;
    let mut marker_findings = Vec::new();
    let file = SourceFile::new(path, text, &mut marker_findings);
    report.findings.append(&mut marker_findings);

    let mut raw = Vec::new();
    lints::run_lints(&file, lints, &mut raw);

    let mut used = vec![false; file.allows.len()];
    'finding: for f in raw {
        for (i, allow) in file.allows.iter().enumerate() {
            if !allow.lints.iter().any(|l| l == f.lint) {
                continue;
            }
            let hit = match allow.scope {
                AllowScope::Line(line) => line == f.line,
                AllowScope::Range(s, e) => {
                    // Compare by the finding's line-start offset so a
                    // finding anywhere on a covered line is suppressed.
                    let offset = line_start_offset(&file, f.line);
                    (s..e).contains(&offset)
                }
            };
            if hit {
                used[i] = true;
                continue 'finding;
            }
        }
        report.findings.push(f);
    }
    for (allow, used) in file.allows.iter().zip(&used) {
        if !used {
            report.unused_allows.push(Finding {
                lint: "marker",
                path: file.path.clone(),
                line: allow.marker_line,
                col: 1,
                message: format!(
                    "allow({}) suppressed nothing — stale marker? ({})",
                    allow.lints.join(", "),
                    allow.reason
                ),
            });
        }
    }
}

fn line_start_offset(file: &SourceFile, line: u32) -> usize {
    // Find any token on that line; fall back to 0.
    file.tokens.iter().find(|t| file.line_of(t.start) == line).map(|t| t.start).unwrap_or(0)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_scopes_route_the_right_lints() {
        assert!(lints_for("crates/service/src/queue.rs").contains(&"panic-surface"));
        assert!(lints_for("crates/service/src/queue.rs").contains(&"lock-discipline"));
        assert!(!lints_for("crates/service/src/queue.rs").contains(&"float-eq"));
        assert!(lints_for("crates/obs/src/registry.rs").contains(&"lock-discipline"));
        assert!(lints_for("crates/obs/src/journal.rs").contains(&"hot-path-alloc"));
        assert!(!lints_for("crates/obs/src/registry.rs").contains(&"panic-surface"));
        assert!(lints_for("crates/core/src/bopm/fast.rs").contains(&"float-eq"));
        assert!(!lints_for("crates/core/src/bopm/fast.rs").contains(&"panic-surface"));
        assert!(
            lints_for("examples/quickstart.rs")
                == vec!["hot-path-alloc", "hot-path-lock", "unsafe-confined"]
        );
    }

    /// A prefix naming no directory lints nothing and fails nothing, so a
    /// deleted or renamed crate would silently drop out of its lint.
    #[test]
    fn every_scope_prefix_names_a_workspace_directory() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        for prefix in PANIC_SURFACE_SCOPE
            .iter()
            .chain(LOCK_DISCIPLINE_SCOPE)
            .chain(FLOAT_EQ_SCOPE)
            .chain(UNSAFE_EXEMPT_SCOPE)
        {
            assert!(root.join(prefix).is_dir(), "scope prefix `{prefix}` names no directory");
        }
    }

    #[test]
    fn unsafe_confinement_exempts_only_the_epoll_and_rayon_shims() {
        assert!(!lints_for("shims/epoll/src/lib.rs").contains(&"unsafe-confined"));
        assert!(!lints_for("shims/rayon/src/lib.rs").contains(&"unsafe-confined"));
        for rel in [
            "crates/service/src/reactor.rs",
            "crates/core/src/bopm/fast.rs",
            "examples/quote_server.rs",
            "shims/other/src/lib.rs",
        ] {
            assert!(lints_for(rel).contains(&"unsafe-confined"), "{rel}");
        }
    }

    #[test]
    fn allow_markers_suppress_and_unused_markers_are_noted() {
        let src = "\
fn f(v: Vec<i32>) -> i32 {
    // amopt-lint: hot-path
    let a = v.clone(); // amopt-lint: allow(hot-path-alloc) -- setup, not per-step
    let b = v.to_vec(); // amopt-lint: allow(panic-surface) -- wrong lint, stays unused
    a[0] + b[0]
}
";
        let mut report = CheckReport::default();
        check_file(Path::new("t.rs"), src.to_string(), &["hot-path-alloc"], &mut report);
        // `.to_vec()` is not suppressed (marker names the wrong lint).
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].lint, "hot-path-alloc");
        assert_eq!(report.unused_allows.len(), 1);
    }

    #[test]
    fn scope_allows_cover_whole_regions() {
        let src = "\
fn f(v: Vec<i32>) -> Vec<i32> {
    // amopt-lint: hot-path
    // amopt-lint: allow-scope(hot-path-alloc) -- allocating convenience wrapper
    let a = v.clone();
    let b = a.to_vec();
    b
}
";
        let mut report = CheckReport::default();
        check_file(Path::new("t.rs"), src.to_string(), &["hot-path-alloc"], &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.unused_allows.is_empty());
    }
}
