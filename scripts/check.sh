#!/bin/bash
# Tier-1 gate: the checks every PR must keep green.
#
#   scripts/check.sh            # build + lint rules + tests + clippy + paper claims + benchmark package + release oracles + core-count smoke
#   scripts/check.sh fast       # skip the all-targets clippy and build, the paper claims, the benchmark package, the release CLI and oracle tests and the smoke
#
# The lint rules are clippy lints (clippy.toml + the root manifest's
# [workspace.lints.clippy], DESIGN.md §9) over the 14 library crates:
# print_stdout / print_stderr / dbg_macro; unwrap_used / expect_used / panic /
# unreachable / todo / unimplemented; disallowed_types (HashMap, HashSet);
# disallowed_methods (Instant::now, SystemTime::now);
# allow_attributes_without_reason. A suppression is an
# `#[expect(clippy::<lint>, reason = "...")]`, which fails once it suppresses
# nothing.
#
# The smokes left here are the ones `cargo test` cannot make: a BM25 soak,
# and a hashed and a BM25 live soak under a crash plan, each pinned to one
# core with `taskset` and on every core (`cmp`). Every other end-to-end
# check is a test of crates/cli/tests/ that `cargo test` runs against the
# debug `sage` and below against the release one: persistence.rs (the
# pinned SHA-256 of the default-budget model file and of the dense and BM25
# index files, two `sage index` runs per retriever byte for byte, the
# recorded `sage segment` listing, `ask` / `query` under an injected reader
# panic), live.rs (the live soak's crash drill, its same-seed replay and
# the SHA-256 of two live logs), ask.rs (the recorded `sage ask
# --show-context` listings), refusals.rs (every removed flag, fault entry
# and scenario key), telemetry.rs (the answer, the stderr summary, a
# retrieve span, a well-formed Prometheus dump), explain.rs (both `sage
# explain` plans byte for byte, the refusal of `--concurrency` and of
# `sage lint`), soak.rs (two same-seed soak logs and report bundles
# byte-equal and pinned, one observation per arrival) and scenarios.rs
# (`--baseline` passes its own rows and names a changed digit). The whole
# scenario grid == BENCH_scenarios.json is tests/end_to_end.rs.
#
# Every dependency is a path crate of this repository, so this runs with an
# empty registry and no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release"
cargo build --release
sage=target/release/sage

echo "=== cargo clippy --workspace --lib -- -D warnings (the lint rules)"
cargo clippy --workspace --lib -- -D warnings

echo "=== module-size ceiling (pipeline stays construction plus one query entry point)"
# The query executor (core/src/exec/) owns query execution;
# pipeline.rs must not grow back into the pre-refactor monolith, nor regrow
# a family of query methods beside `answer`.
pipeline_lines=$(wc -l < crates/core/src/pipeline.rs)
if [ "$pipeline_lines" -ge 650 ]; then
  echo "FAIL: crates/core/src/pipeline.rs is $pipeline_lines lines (ceiling 650);"
  echo "      move execution logic into crates/core/src/exec/ instead"
  exit 1
fi
echo "pipeline.rs at $pipeline_lines lines (< 650)"

echo "=== cargo test -q"
cargo test -q

if [ "${1:-}" != fast ]; then
  echo "=== cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "=== cargo build --workspace --all-targets (every bench and example compiles)"
  cargo build --workspace --all-targets

  echo "=== paper claims (every table and figure at the default budget; exits non-zero when a claim FAILS)"
  # The one run of Table X: it trains 20 models of its own, too slow for the tiny-budget test.
  if ! err=$(cargo bench -q -p sage-bench --bench paper 2>&1 > /dev/null); then
    echo "FAIL: bench paper"; echo "$err"; exit 1
  fi

  echo "=== benchmark package (outside the workspace: builds offline, self-tests, manifest)"
  # The benchmark calls the facade from its own package, so nothing above
  # compiles it: a change that drifts from benchmark/README.md's "Pinned
  # API surface" would pass here and fail only at the driver.
  CARGO_TARGET_DIR=target/bench bash benchmark/run.sh --test

  echo "=== the sage-cli tests against the release binary"
  # The tests `cargo test` ran above against the debug `sage`, here against
  # the release `sage` that ships.
  cargo test -q --release -p sage-cli --test persistence --test live --test ask --test refusals \
    --test telemetry --test explain --test soak --test scenarios

  echo "=== the reader's and the text kernels' oracles in release (the profile the benchmark measures)"
  # Bit-equality of the reader, the judge, the stopword probe and the token
  # count with the bodies they replaced, with the optimizer on.
  cargo test -q --release -p sage-llm -p sage-text --test oracle

  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  echo "=== saved models (for the smoke below)"
  "$sage" train --out "$tmp/models.bin" 2> /dev/null

  echo "=== core-count smoke (one core and every core build the same system and live store)"
  # `RagSystem::build` segments a multi-document corpus on one worker per
  # available core, and indexes it on as many 64-chunk-aligned ranges;
  # pinned to core 0 it takes the one-worker path. The BM25 soak builds over
  # four documents, so its output must not tell them apart. (The ranged
  # index build at 1, 2, 3 and more workers than blocks, per retriever, is
  # `cargo test -p sage-core --lib segmentation::`.)
  soak_bm25=(soak --retriever bm25 --seed 42 --duration 10 --qps 3 --docs 4 --models "$tmp/models.bin")
  taskset -c 0 "$sage" "${soak_bm25[@]}" > "$tmp/soak_one_core.log" 2> "$tmp/soak_one_core.err"
  "$sage" "${soak_bm25[@]}" > "$tmp/soak_all_cores.log" 2> "$tmp/soak_all_cores.err"
  cmp "$tmp/soak_one_core.log" "$tmp/soak_all_cores.log" \
    || { echo "FAIL: the BM25 soak log differs between one core and every core"; exit 1; }
  cmp "$tmp/soak_one_core.err" "$tmp/soak_all_cores.err" \
    || { echo "FAIL: the BM25 soak summary differs between one core and every core"; exit 1; }
  # A live commit prepares its batch on every core, one document range a
  # worker (segmentation, then embedding, and the chunk slots), while its
  # segment and manifest are made durable; it appends each range's rows in
  # range order and compacts on column ranges; recovery replays through the
  # same prepare. Hashed and BM25 stores, each under a crash plan so recovery
  # runs: log and summary must not tell one core from every core.
  for retriever in hashed bm25; do
    # Batches of 192 ops upsert dozens of documents, so each batch is
    # segmented and embedded on two document ranges when two cores are
    # free; every commit compacts.
    live=(soak --live --retriever "$retriever" --ops 24 --batch 192 --docs 400 --seed 42
          --crash pre-rename:0.3,pre-manifest-commit:0.2 --crash-seed 5)
    taskset -c 0 "$sage" "${live[@]}" --live-dir "$tmp/live_one_$retriever" \
      > "$tmp/live_one_core.log" 2> "$tmp/live_one_core.err"
    "$sage" "${live[@]}" --live-dir "$tmp/live_all_$retriever" \
      > "$tmp/live_all_cores.log" 2> "$tmp/live_all_cores.err"
    grep -q '^recover ' "$tmp/live_one_core.log" \
      || { echo "FAIL: the $retriever live soak recovered nothing"; exit 1; }
    cmp "$tmp/live_one_core.log" "$tmp/live_all_cores.log" \
      || { echo "FAIL: the $retriever live soak log differs between one core and every core"; exit 1; }
    cmp "$tmp/live_one_core.err" "$tmp/live_all_cores.err" \
      || { echo "FAIL: the $retriever live soak summary differs between one core and every core"; exit 1; }
  done
  echo "core-count smoke ok ($(nproc) cores)"
fi

echo "=== tier-1 gate OK"
