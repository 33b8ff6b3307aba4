#!/usr/bin/env bash
# Builds the dssddi-serve gateway and the benchmark binary from source, then
# runs the benchmark with this script's arguments, for example:
#
#   bash perfbench/run.sh --workload critique --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the last
# line on stdout is the JSON result. Everything the run writes
# (builds, fixtures, gateway logs, spans) lands under $CARGO_TARGET_DIR,
# by default .bench_build.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/replica ]]; then
    echo "perfbench: run from the root of a dssddi checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p dssddi-replica --bin dssddi-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --gateway "$CARGO_TARGET_DIR/release/dssddi-serve" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
