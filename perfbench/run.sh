#!/usr/bin/env bash
# Builds the benchmark and its remote worker executable from source, then
# runs the benchmark with this script's arguments, e.g.
#   bash perfbench/run.sh --workload sparse-asgd --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
