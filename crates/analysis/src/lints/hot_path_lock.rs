//! **hot-path-lock** — no lock taken in `// amopt-lint: hot-path` regions.
//!
//! A lock on a path every worker takes per step serialises the workers: the
//! fan-out of p cores is then capped by the lock, not by the span.  A region
//! annotated `hot-path` may not take a lock; a lock taken once per request
//! or per batch, not per advance, carries an allow marker whose reason says
//! so.  Per-thread state (`thread_local!`) is the lock-free alternative for
//! per-worker scratch.
//!
//! Flagged (outside `#[cfg(test)]`): the method-call form `.lock(`, on any
//! receiver (`Mutex::lock`, or a helper method of that name), and a call of
//! the service's poison-recovering helper `lock_unpoisoned(`, in either
//! form.  Other names (`try_lock`, a binding called `lock`) are not flagged.

use super::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Runs the lint over one file, appending findings.
pub fn hot_path_lock(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, &t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !file.in_hot(t.start) || file.in_test(t.start) {
            continue;
        }
        let prev = file.prev_code(i).map(|p| file.tok(p));
        let called = file.next_code(i).map(|n| file.tok(n)) == Some("(");
        let takes_lock = match file.tok(i) {
            "lock" => prev == Some("."),
            "lock_unpoisoned" => prev != Some("fn"),
            _ => false,
        };
        if takes_lock && called {
            findings.push(Finding::at(
                "hot-path-lock",
                file,
                t.start,
                "a lock inside a hot-path region serialises the workers; keep per-worker \
                 state per thread, or annotate a once-per-request lock with a reason"
                    .to_string(),
            ));
        }
    }
}
