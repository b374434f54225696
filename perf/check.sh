#!/usr/bin/env bash
# Smoke check for CI: every workload cut to about a second, plain and
# traced.  Checks outputs and metric names only; the numbers it prints are
# labelled non-comparable.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
export CARGO_TARGET_DIR=$target

cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin perf-ledger
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --features traced --bin perf-ledger-traced
"$target/release/perf-ledger" run --smoke
"$target/release/perf-ledger" trace --smoke
