#!/bin/bash
# Build `sage-benchmark` optimized, hermetically per checkout.
#
# Everything is resolved from this script's own location and written under
# one output directory ($CARGO_TARGET_DIR when set, else benchmark/target),
# so two checkouts never share an artifact. Cargo is tried first; in a
# container whose registry cannot resolve the external crates it fails
# before compiling anything, and the same sources are built with bare
# `rustc` against the stand-ins in scripts/offline/stubs/ (read in place).
# The crate build order is derived from the `[dependencies]` tables of
# Cargo.toml and crates/*/Cargo.toml; there is no crate list to keep.
#
# Prints the path of the built binary as the last line of stdout.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
OUT="${CARGO_TARGET_DIR:-$HERE/target}"
case "$OUT" in /*) ;; *) OUT="$PWD/$OUT" ;; esac
[ -f "$ROOT/Cargo.toml" ] && [ -d "$ROOT/crates" ] && [ -f "$ROOT/src/lib.rs" ] \
  || { echo "build: $ROOT holds no sage workspace to build" >&2; exit 1; }
# rustc and the linker put their scratch files here, not in /tmp.
export TMPDIR="$OUT/tmp"
mkdir -p "$OUT" "$TMPDIR"

# --- 1. cargo ---------------------------------------------------------------
if CARGO_TARGET_DIR="$OUT" cargo build --release --offline \
    --manifest-path "$HERE/Cargo.toml" >"$OUT/cargo.log" 2>&1; then
  echo "build: cargo" >&2
  echo "$OUT/release/sage-benchmark"
  exit 0
fi
echo "build: cargo cannot resolve offline ($(grep -m1 -E '^error' "$OUT/cargo.log" || echo 'see cargo.log')); using rustc + stubs" >&2

# --- 2. bare rustc ----------------------------------------------------------
# Same codegen as cargo's release profile with the root manifest's
# `[profile.release] debug = "line-tables-only"`.
DEPS="$OUT/rustc-deps"
STUBS="$ROOT/scripts/offline/stubs"
mkdir -p "$DEPS"
FLAGS=(--edition 2021 -C opt-level=3 -C debuginfo=line-tables-only -C embed-bitcode=no
       -A warnings -L "dependency=$DEPS")

# `<lib name> <src> <dep lib names...>` for every workspace library.
manifest_line() { # manifest
  local dir; dir="$(dirname "$1")"
  [ -f "$dir/src/lib.rs" ] || return 0
  awk -v src="$dir/src/lib.rs" '
    /^\[/ { section = $0; next }
    section == "[package]" && /^name *=/ { gsub(/[" ]/, "", $0); sub(/^name=/, "", $0); name = $0 }
    section == "[dependencies]" && /^[A-Za-z0-9_-]+/ { d = $0; sub(/[ .=].*/, "", d); deps = deps " " d }
    END { gsub(/-/, "_", name); gsub(/-/, "_", deps); print name, src, deps }
  ' "$1"
}
mapfile -t LIBS < <(for m in "$ROOT/Cargo.toml" "$ROOT"/crates/*/Cargo.toml; do manifest_line "$m"; done)

declare -A BUILT=() LOCAL=()
for l in "${LIBS[@]}"; do set -- $l; LOCAL[$1]=1; done
rlib() { echo "$DEPS/lib$1.rlib"; }

compile_lib() { # name src deps...
  local name=$1 src=$2; shift 2
  local ext=() d
  for d in "$@"; do
    ext+=(--extern "$d=$(rlib "$d")")
    [ -f "$DEPS/lib${d}_derive.so" ] && ext+=(--extern "${d}_derive=$DEPS/lib${d}_derive.so")
  done
  rustc "${FLAGS[@]}" --crate-type rlib --crate-name "$name" "$src" -o "$(rlib "$name")" "${ext[@]}"
}
# Only what the facade crate `sage` transitively needs is built.
declare -A NEEDED=()
mark_needed() { # name
  local want=$1 l d
  [ -n "${NEEDED[$want]:-}" ] && return 0
  NEEDED[$want]=1
  for l in "${LIBS[@]}"; do
    set -- $l
    [ "$1" = "$want" ] || continue
    shift 2
    for d in "$@"; do
      if [ -n "${LOCAL[$d]:-}" ]; then mark_needed "$d"; fi
    done
  done
}
mark_needed sage

remaining=()
for l in "${LIBS[@]}"; do set -- $l; [ -n "${NEEDED[$1]:-}" ] && remaining+=("$l"); done

# External crates: every dependency that is not a workspace library must
# have a stand-in; `<name>_derive.rs` is the proc-macro half of `<name>`.
for l in "${remaining[@]}"; do
  set -- $l; shift 2
  for d in "$@"; do
    [ -n "${LOCAL[$d]:-}" ] || [ -n "${BUILT[$d]:-}" ] && continue
    [ -f "$STUBS/$d.rs" ] || { echo "build: no source for external crate '$d'" >&2; exit 1; }
    ext=()
    if [ -f "$STUBS/${d}_derive.rs" ]; then
      rustc --edition 2021 --crate-type proc-macro --crate-name "${d}_derive" \
        "$STUBS/${d}_derive.rs" -A warnings --out-dir "$DEPS"
      ext=(--extern "${d}_derive=$DEPS/lib${d}_derive.so")
    fi
    rustc "${FLAGS[@]}" --crate-type rlib --crate-name "$d" "$STUBS/$d.rs" \
      -o "$(rlib "$d")" "${ext[@]}"
    BUILT[$d]=1
  done
done

# Workspace libraries, wave by wave: every crate whose dependencies are
# built compiles in parallel with the others of its wave.
while [ "${#remaining[@]}" -gt 0 ]; do
  wave=() later=()
  for l in "${remaining[@]}"; do
    set -- $l; shift 2
    ready=1
    for d in "$@"; do [ -n "${BUILT[$d]:-}" ] || ready=0; done
    if [ $ready = 1 ]; then wave+=("$l"); else later+=("$l"); fi
  done
  [ "${#wave[@]}" -gt 0 ] || { echo "build: dependency cycle among: ${later[*]}" >&2; exit 1; }
  pids=()
  for l in "${wave[@]}"; do compile_lib $l & pids+=($!); done
  for p in "${pids[@]}"; do wait "$p"; done
  for l in "${wave[@]}"; do set -- $l; BUILT[$1]=1; done
  remaining=("${later[@]}")
done

mkdir -p "$OUT/release"
rustc "${FLAGS[@]}" --crate-name sage_benchmark "$HERE/src/main.rs" \
  -o "$OUT/release/sage-benchmark" --extern "sage=$(rlib sage)"
echo "build: rustc" >&2
echo "$OUT/release/sage-benchmark"
