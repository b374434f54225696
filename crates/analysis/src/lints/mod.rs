//! The lint catalogue: six project-specific invariant checkers plus the
//! `marker` pseudo-lint for `// amopt-lint:` grammar errors.
//!
//! Each lint is a function over one lexed [`SourceFile`]; which files a
//! lint runs on is decided by the workspace driver (`workspace.rs`) from
//! path scopes, and by the fixture tests directly.

use crate::source::SourceFile;
use std::path::PathBuf;

mod float_eq;
mod hot_path_alloc;
mod hot_path_lock;
mod lock_discipline;
mod panic_surface;
mod unsafe_confined;

pub use float_eq::float_eq;
pub use hot_path_alloc::hot_path_alloc;
pub use hot_path_lock::hot_path_lock;
pub use lock_discipline::lock_discipline;
pub use panic_surface::panic_surface;
pub use unsafe_confined::unsafe_confined;

/// Every lint an allow marker may name.  `marker` itself is not allowable:
/// a broken marker must always fail the gate.
pub const LINT_NAMES: &[&str] = &[
    "hot-path-alloc",
    "hot-path-lock",
    "panic-surface",
    "float-eq",
    "lock-discipline",
    "unsafe-confined",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint that fired (one of [`LINT_NAMES`], or `marker`).
    pub lint: &'static str,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what the fix direction is.
    pub message: String,
}

impl Finding {
    pub(crate) fn at(
        lint: &'static str,
        file: &SourceFile,
        offset: usize,
        message: String,
    ) -> Self {
        let (line, col) = file.line_col(offset);
        Finding { lint, path: file.path.clone(), line, col, message }
    }
}

/// Runs the named lints over one file (no path scoping, no allow
/// filtering) — the raw engine used by the driver and the fixture tests.
pub fn run_lints(file: &SourceFile, lints: &[&str], findings: &mut Vec<Finding>) {
    for lint in lints {
        match *lint {
            "hot-path-alloc" => hot_path_alloc(file, findings),
            "hot-path-lock" => hot_path_lock(file, findings),
            "panic-surface" => panic_surface(file, findings),
            "float-eq" => float_eq(file, findings),
            "lock-discipline" => lock_discipline(file, findings),
            "unsafe-confined" => unsafe_confined(file, findings),
            other => unreachable!("unknown lint `{other}` requested"),
        }
    }
}
