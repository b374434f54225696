//! Rendering: human-readable finding lines.

use crate::workspace::CheckReport;
use std::fmt::Write as _;

/// `path:line:col: [lint] message` — one line per finding, stable order.
pub fn human(report: &CheckReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ =
            writeln!(out, "{}:{}:{}: [{}] {}", f.path.display(), f.line, f.col, f.lint, f.message);
    }
    for f in &report.unused_allows {
        let _ = writeln!(out, "{}:{}: note: {}", f.path.display(), f.line, f.message);
    }
    let _ = writeln!(
        out,
        "amopt-lint: {} finding(s), {} unused allow(s), {} file(s) scanned",
        report.findings.len(),
        report.unused_allows.len(),
        report.files_scanned
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Finding;
    use std::path::PathBuf;

    fn sample() -> CheckReport {
        CheckReport {
            findings: vec![Finding {
                lint: "panic-surface",
                path: PathBuf::from("crates/service/src/queue.rs"),
                line: 3,
                col: 7,
                message: "`.unwrap()` can panic \"here\"".to_string(),
            }],
            unused_allows: Vec::new(),
            files_scanned: 2,
        }
    }

    #[test]
    fn human_lines_carry_spans_and_lint_names() {
        let text = human(&sample());
        assert!(text.contains("crates/service/src/queue.rs:3:7: [panic-surface]"));
        assert!(text.contains("1 finding(s)"));
    }
}
