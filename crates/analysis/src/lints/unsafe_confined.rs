//! **unsafe-confined** — the `unsafe` keyword may appear only inside the
//! `shims/epoll` crate (raw epoll/eventfd syscalls) and the `shims/rayon`
//! crate (the one lifetime erasure by which a fork-join pool lends a
//! stack-borrowed closure to a running worker thread, as the upstream crate
//! it stands in for does).
//!
//! Every other crate in the workspace carries `#![forbid(unsafe_code)]`,
//! but that attribute is self-policing: a future edit could delete the
//! line along with the code it guards and the compiler would not object.
//! This lint is the independent witness — it fires on *any* `unsafe`
//! token (blocks, `unsafe fn`, `unsafe impl`, `unsafe trait`) in a file
//! the workspace driver routes to it, and the driver routes every file
//! except those under `shims/epoll/` and `shims/rayon/`.  There is
//! deliberately no test-code exemption: tests have no more business
//! dereferencing raw pointers than the hot path does.
//!
//! The keyword cannot appear in a false-positive position in valid Rust
//! (`unsafe` is reserved; it is not a method or variable name), so a bare
//! token match is exact, not heuristic.  String literals and comments
//! never fire — the lexer already classified them.

use super::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Runs the lint over one file, appending findings.
pub fn unsafe_confined(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.tok(i) != "unsafe" {
            continue;
        }
        findings.push(Finding::at(
            "unsafe-confined",
            file,
            tok.start,
            "`unsafe` outside `shims/epoll` and `shims/rayon`; raw syscalls and the \
             scheduler's job-lending live in those two audited crates — wrap the need in a \
             safe shim API instead"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        let file = SourceFile::new(Path::new("t.rs"), src.to_string(), &mut findings);
        unsafe_confined(&file, &mut findings);
        findings
    }

    #[test]
    fn every_unsafe_form_is_flagged() {
        let src = "\
unsafe fn raw() {}
unsafe impl Send for X {}
fn f() {
    let p = core::ptr::null::<i32>();
    let _ = unsafe { *p };
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == "unsafe-confined"));
    }

    #[test]
    fn comments_strings_and_lookalike_idents_stay_silent() {
        let src = "\
// this comment says unsafe and must not fire
fn f() -> &'static str {
    let unsafe_count = 0; // `unsafe_count` is a different identifier
    let _ = unsafe_count;
    \"unsafe in a string\"
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn test_code_gets_no_exemption() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = unsafe { core::mem::zeroed::<i32>() };
    }
}
";
        assert_eq!(run(src).len(), 1, "{:?}", run(src));
    }
}
