#!/usr/bin/env bash
# Builds dcn-serve, dcn-ps and the benchmark, then runs the benchmark with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mnist_benign --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh make-inputs --seed 7
#   bash perfbench/run.sh steady --runs 10
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# generated inputs are cached there too. Cargo's own output goes to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml \
    -p dcn-serve -p dcn-ps --bins >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
