#!/usr/bin/env bash
# Builds the benchmark (offline, against the vendored shims) and runs it.
#
#   benchmark/run.sh --seed S [--seconds T] [--smoke]     the whole ledger -> out/latest.json
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                                         one run, one JSON line (BENCHMARK.json)
#   benchmark/run.sh compare a.json b.json                regression check between two ledgers
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/../target}")"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/bench_e2e"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
exec "$bin" --out "$here/out" "$@"
