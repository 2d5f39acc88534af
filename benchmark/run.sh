#!/bin/bash
# The benchmark's one entry point: build optimized when a source is newer
# than the binary, then hand every argument to `sage-benchmark`.
#
#   benchmark/run.sh --workload <W> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selfcheck     two sets of runs must agree within bounds
#   benchmark/run.sh --test          the harness's own unit tests, and that
#                                    BENCHMARK.json is what the binary declares
#
# The last line of stdout is the result object; build chatter goes to stderr.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
OUT="${CARGO_TARGET_DIR:-$HERE/target}"
case "$OUT" in /*) ;; *) OUT="$PWD/$OUT" ;; esac
BIN="$OUT/release/sage-benchmark"

sources=("$ROOT/Cargo.toml" "$ROOT/src" "$ROOT/crates" "$ROOT/scripts/offline/stubs"
         "$HERE/Cargo.toml" "$HERE/build.sh" "$HERE/src")
if [ ! -x "$BIN" ] || [ -n "$(find "${sources[@]}" -type f -newer "$BIN" -print -quit 2>/dev/null)" ]; then
  CARGO_TARGET_DIR="$OUT" bash "$HERE/build.sh" >/dev/null
fi

if [ "${1:-}" = --test ]; then
  "$BIN" --test
  diff <("$BIN" --manifest) "$ROOT/BENCHMARK.json" \
    || { echo "BENCHMARK.json differs from \`sage-benchmark --manifest\`" >&2; exit 1; }
  echo "BENCHMARK.json matches the binary"
  exit 0
fi
exec "$BIN" "$@" --out "$HERE/out"
