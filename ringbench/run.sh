#!/usr/bin/env bash
# Builds the release `ringrt` server and the benchmark harness from source,
# then runs the harness from the repository root. Arguments pass through:
#
#   bash ringbench/run.sh --workload verdict-mix --seed 1 --seconds 12 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); server
# state dirs and trace files go to `.bench_out`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ringrt-cli --bin ringrt >&2
cargo build --release --offline --quiet --manifest-path ringbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ringbench" \
    --server "$CARGO_TARGET_DIR/release/ringrt" --out .bench_out "$@"
