#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the benchmark from source (the plain binary always; the traced one
# when asked for) into $CARGO_TARGET_DIR, then runs one workload.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$here/../crates/core/Cargo.toml" ]; then
    echo "perf/run.sh: the product's sources are not next to perf/ (no ../crates); nothing to measure" >&2
    exit 2
fi

target=${CARGO_TARGET_DIR:-$here/target}
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [ "${args[i]}" = "--trace" ] && [ $((i + 1)) -lt ${#args[@]} ]; then
        trace=${args[i + 1]}
    fi
done

build() {
    # Quiet unless it fails: the result line must be the last line of stdout.
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" "$@" >&2
}

build --bin perf-ledger
if [ "$trace" = "1" ]; then
    build --features traced --bin perf-ledger-traced
    exec "$target/release/perf-ledger-traced" "$@"
fi
exec "$target/release/perf-ledger" "$@"
