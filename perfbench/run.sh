#!/usr/bin/env bash
# Builds the `tir` CLI and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# result is the last line on stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p tir-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac
exec "$target/release/perfbench" --tir "$target/release/tir" "$@"
