//! Fixture-corpus integration tests: each lint fires on its violation
//! fixture with the expected count and stays silent on its clean twin, and
//! the workspace itself — the real gate — checks out clean.
//!
//! The `fixtures/` directory is in the workspace walker's skip list, so the
//! deliberately broken files never leak into the production gate.

use amopt_analysis::{check_file, check_workspace, lints_for, CheckReport};
use std::path::Path;

fn run_fixture(name: &str, lints: &[&str]) -> CheckReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    let mut report = CheckReport::default();
    check_file(Path::new(name), text, lints, &mut report);
    report
}

fn assert_all_lint(report: &CheckReport, lint: &str, count: usize, name: &str) {
    assert_eq!(report.findings.len(), count, "{name}: {:#?}", report.findings);
    for f in &report.findings {
        assert_eq!(f.lint, lint, "{name}: {f:?}");
    }
}

#[test]
fn hot_path_alloc_fixture_pair() {
    let bad = run_fixture("hot_path_alloc_violations.rs", &["hot-path-alloc"]);
    assert_all_lint(&bad, "hot-path-alloc", 11, "hot_path_alloc_violations");
    let clean = run_fixture("hot_path_alloc_clean.rs", &["hot-path-alloc"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn hot_path_lock_fixture_pair() {
    let bad = run_fixture("hot_path_lock_violations.rs", &["hot-path-lock"]);
    assert_all_lint(&bad, "hot-path-lock", 4, "hot_path_lock_violations");
    let clean = run_fixture("hot_path_lock_clean.rs", &["hot-path-lock"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn obs_record_alloc_fixture_pair() {
    // The zero-alloc observability contract: a metric-record call that
    // allocates inside a hot-path region is a gate failure, and the
    // atomics-only twin is clean.
    let bad = run_fixture("obs_record_alloc_violations.rs", &["hot-path-alloc"]);
    assert_all_lint(&bad, "hot-path-alloc", 3, "obs_record_alloc_violations");
    let clean = run_fixture("obs_record_alloc_clean.rs", &["hot-path-alloc"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn panic_surface_fixture_pair() {
    let bad = run_fixture("panic_surface_violations.rs", &["panic-surface"]);
    assert_all_lint(&bad, "panic-surface", 6, "panic_surface_violations");
    let clean = run_fixture("panic_surface_clean.rs", &["panic-surface"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn float_eq_fixture_pair() {
    let bad = run_fixture("float_eq_violations.rs", &["float-eq"]);
    assert_all_lint(&bad, "float-eq", 3, "float_eq_violations");
    let clean = run_fixture("float_eq_clean.rs", &["float-eq"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn lock_discipline_fixture_pair() {
    let bad = run_fixture("lock_discipline_violations.rs", &["lock-discipline"]);
    assert_all_lint(&bad, "lock-discipline", 3, "lock_discipline_violations");
    let clean = run_fixture("lock_discipline_clean.rs", &["lock-discipline"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn unsafe_confined_fixture_pair() {
    let bad = run_fixture("unsafe_confined_violations.rs", &["unsafe-confined"]);
    assert_all_lint(&bad, "unsafe-confined", 4, "unsafe_confined_violations");
    let clean = run_fixture("unsafe_confined_clean.rs", &["unsafe-confined"]);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
    assert!(clean.unused_allows.is_empty(), "{:#?}", clean.unused_allows);
}

#[test]
fn marker_grammar_errors_are_not_allowable() {
    // Run with *no* lints enabled: grammar errors must surface regardless.
    let bad = run_fixture("marker_grammar_violations.rs", &[]);
    assert_all_lint(&bad, "marker", 3, "marker_grammar_violations");
}

#[test]
fn fixture_paths_would_route_like_their_home_crates() {
    // The fixtures model code from specific workspace locations; the path
    // router must apply the lints the fixtures exercise.
    assert!(lints_for("crates/service/src/queue.rs").contains(&"panic-surface"));
    assert!(lints_for("crates/service/src/queue.rs").contains(&"lock-discipline"));
    assert!(lints_for("crates/obs/src/registry.rs").contains(&"lock-discipline"));
    assert!(lints_for("crates/fft/src/convolve.rs").contains(&"float-eq"));
    assert!(lints_for("crates/stencil/src/advance.rs").contains(&"hot-path-alloc"));
    assert!(lints_for("crates/stencil/src/advance.rs").contains(&"hot-path-lock"));
    assert!(lints_for("crates/service/src/reactor.rs").contains(&"unsafe-confined"));
    assert!(!lints_for("shims/epoll/src/lib.rs").contains(&"unsafe-confined"));
}

#[test]
fn workspace_is_clean() {
    // The production gate: the repository this crate lives in has zero
    // violations and zero stale allow markers.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = check_workspace(&root).expect("workspace scan");
    assert!(report.findings.is_empty(), "workspace has lint violations:\n{:#?}", report.findings);
    assert!(
        report.unused_allows.is_empty(),
        "workspace has stale allow markers:\n{:#?}",
        report.unused_allows
    );
    assert!(report.files_scanned > 50, "suspiciously few files: {}", report.files_scanned);
}
