#!/usr/bin/env bash
# Builds the benchmark and the `copernicus-bench` daemon from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default: .bench_build); run artifacts go to .bench_run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
mkdir -p "$target"
export CARGO_TARGET_DIR="$(cd "$target" && pwd)"
cd "$root"
cargo build --release --offline --quiet -p copernicus-bench --bin copernicus-bench >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
