#!/usr/bin/env bash
# Build the shipped `egocensus` binary and the `servebench` load
# generator from source, then run `servebench` with the given arguments:
#
#   bash servebench/run.sh --workload cold-census --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh --steadiness 5 --workloads churn --seconds 20
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin egocensus >&2
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" "$@"
