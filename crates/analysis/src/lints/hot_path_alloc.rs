//! **hot-path-alloc** — no heap allocation in `// amopt-lint: hot-path`
//! regions.
//!
//! ROADMAP item 2(c) ("a row arena", an allocation-free hot path) is only
//! checkable if allocation sites are machine-visible.  A region annotated
//! `hot-path` may not call the allocating idioms below; every remaining
//! allocation must carry an allow marker whose reason explains why it is
//! acceptable (one-time setup, O(batch) not O(steps), kept output rows).
//! The allow inventory *is* the deliverable: it is the work list the row
//! arena of ROADMAP item 2(c) must drain.
//!
//! Flagged (outside `#[cfg(test)]`):
//! * `Vec::new` / `vec![…]` (zero-capacity today is a growth site tomorrow)
//! * `Vec::with_capacity` / `String::with_capacity` / `.reserve()` (sized
//!   up front, but still a fresh buffer or a regrowth)
//! * the path calls above with a turbofish, `Vec::<T>::new` /
//!   `Vec::<T>::with_capacity`
//! * `.to_vec()`
//! * `.collect()` / `.collect::<…>()`
//! * `Box::new`
//! * `.clone()` method calls (the refcount bump `Arc::clone(&x)` written in
//!   path form is deliberately *not* flagged)

use super::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Runs the lint over one file, appending findings.
pub fn hot_path_alloc(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, &t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !file.in_hot(t.start) || file.in_test(t.start) {
            continue;
        }
        let next = file.next_code(i).map(|j| file.tok(j));
        let report = |findings: &mut Vec<Finding>, what: &str| {
            findings.push(Finding::at(
                "hot-path-alloc",
                file,
                t.start,
                format!(
                    "`{what}` allocates inside a hot-path region; reuse scratch/arena storage \
                     or annotate the site with a reason"
                ),
            ));
        };
        match file.tok(i) {
            "vec" if next == Some("!") => report(findings, "vec!"),
            // `Vec::new` / `Box::new` / `Vec::with_capacity` /
            // `String::with_capacity` path calls, a turbofish or none.
            "Vec" | "Box" | "String" if next == Some("::") => {
                let mut j = file.next_code(i).and_then(|j| file.next_code(j));
                if let Some(k) = j.filter(|&k| matches!(file.tok(k), "<" | "<<")) {
                    j = past_generics(file, k)
                        .filter(|&k| file.tok(k) == "::")
                        .and_then(|k| file.next_code(k));
                }
                let (ty, name) = (file.tok(i), j.map(|j| file.tok(j)));
                if matches!((ty, name), ("Vec" | "Box", Some("new")))
                    || matches!((ty, name), ("Vec" | "String", Some("with_capacity")))
                {
                    report(findings, &format!("{ty}::{}", name.unwrap_or_default()));
                }
            }
            "to_vec" | "collect" | "clone" | "reserve" => {
                // Method-call form only: `.name(` or `.name::<…>(`.
                let prev_is_dot = file.prev_code(i).map(|p| file.tok(p)) == Some(".");
                let called = matches!(next, Some("(") | Some("::"));
                if prev_is_dot && called {
                    report(findings, &format!(".{}()", file.tok(i)));
                }
            }
            _ => {}
        }
    }
}

/// The first code token after the generic arguments `<…>` opening at `i`,
/// nested ones included (`>>` closes two).
fn past_generics(file: &SourceFile, i: usize) -> Option<usize> {
    let mut depth = 0;
    let mut j = i;
    loop {
        depth += match file.tok(j) {
            "<" => 1,
            "<<" => 2,
            ">" => -1,
            ">>" => -2,
            _ => 0,
        };
        if depth <= 0 {
            return file.next_code(j);
        }
        j = file.next_code(j)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        let file = SourceFile::new(Path::new("t.rs"), src.to_string(), &mut findings);
        hot_path_alloc(&file, &mut findings);
        findings
    }

    #[test]
    fn flags_every_catalogued_idiom_inside_a_hot_region() {
        let src = "\
// amopt-lint: hot-path
fn f(xs: &[f64]) {
    let a = Vec::new();
    let b = vec![1.0; 4];
    let c = xs.to_vec();
    let d: Vec<f64> = xs.iter().copied().collect();
    let e = Box::new(3);
    let g = d.clone();
    let mut h: Vec<f64> = Vec::with_capacity(4);
    let s = String::with_capacity(8);
    h.reserve(2);
}
";
        let lints: Vec<&str> = run(src).iter().map(|f| f.lint).collect();
        assert_eq!(lints.len(), 9, "{:?}", run(src));
    }

    #[test]
    fn cold_code_and_tests_are_exempt() {
        let src = "\
fn cold() { let a = Vec::new(); }
fn hot() {
    // amopt-lint: hot-path
    let x = 1;
}
#[cfg(test)]
mod tests {
    // amopt-lint: hot-path
    fn t() { let a = Vec::new(); }
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn arc_clone_path_form_is_not_an_allocation() {
        let src = "\
// amopt-lint: hot-path
fn f(x: &std::sync::Arc<i32>) {
    let y = std::sync::Arc::clone(x);
    let z = collect_stats();
    let r = reserve(3);
    let n = String::new();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn turbofish_path_calls_are_flagged() {
        let src = "\
// amopt-lint: hot-path
fn f(n: usize) {
    let a = Vec::<f64>::new();
    let b = Vec::<Vec<f64>>::with_capacity(n);
    let d = Box::<[u8; 4]>::new([0; 4]);
    let e = Vec::<f64>::len(&a);
}
";
        let found: Vec<String> = run(src).into_iter().map(|f| f.message).collect();
        assert_eq!(found.len(), 3, "{found:?}");
    }

    #[test]
    fn turbofish_collect_is_flagged() {
        let src = "// amopt-lint: hot-path\nfn f(xs: &[i32]) { let v = xs.iter().collect::<Vec<_>>(); }\n";
        assert_eq!(run(src).len(), 1);
    }
}
