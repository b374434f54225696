//! # amopt-analysis (`amopt-lint`)
//!
//! Workspace-native static analysis for the invariants this repository's
//! correctness and performance claims rest on — the checks that `clippy -D
//! warnings` cannot express because they are *project* rules, not Rust
//! rules:
//!
//! * **hot-path-alloc** — regions annotated `// amopt-lint: hot-path`
//!   (the trapezoid engines, `amopt_fft`, `amopt_stencil::advance_*`, the
//!   batch execute path) may not allocate (`Vec::new`, `vec!`,
//!   `Vec::with_capacity`, `String::with_capacity`, `.reserve()`,
//!   `.to_vec()`, `.collect()`, `Box::new`, `.clone()`) outside annotated
//!   allow sites.
//! * **hot-path-lock** — the same regions may not call `.lock(` or the
//!   service's `lock_unpoisoned(` outside annotated allow sites: per-worker
//!   state lives per thread (`amopt_stencil::with_scratch`), and a lock once
//!   per request or batch says so in its marker.
//! * **panic-surface** — non-test `crates/service` code may not
//!   `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, or index slices.
//! * **float-eq** — no `==`/`!=` between visibly float-typed expressions
//!   in the numeric crates; identity is `to_bits()`, closeness is an
//!   explicit tolerance.
//! * **lock-discipline** — in `crates/service`, a `MutexGuard` must not
//!   live across a channel send, blocking I/O, or a condvar wait that does
//!   not consume that guard.
//!
//! Findings may be silenced only by an inline marker with a written reason:
//!
//! ```text
//! expr // amopt-lint: allow(<lint>[, <lint>…]) -- <reason>        (this line)
//! // amopt-lint: allow(<lint>) -- <reason>                        (next line)
//! // amopt-lint: allow-scope(<lint>) -- <reason>   (rest of enclosing scope)
//! ```
//!
//! A reasonless or mistyped marker is itself a finding, so the allowlist
//! stays reviewable.  Run it with `cargo run -p amopt-analysis -- check`;
//! the process exits non-zero on any finding, which is the CI gate.
//!
//! Like `shims/`, everything here is hand-rolled (a span-tracked lexer and
//! brace/context analysis rather than `syn`) because the build container
//! has no crates.io access — see `ARCHITECTURE.md` § "Static analysis".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lints;
pub mod report;
pub mod source;
pub mod workspace;

pub use lints::{Finding, LINT_NAMES};
pub use workspace::{check_file, check_workspace, lints_for, CheckReport};
