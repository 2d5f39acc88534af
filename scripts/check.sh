#!/bin/bash
# Tier-1 gate: the checks every PR must keep green.
#
#   scripts/check.sh            # build + lint rules + tests + clippy + benchmark package + smokes
#   scripts/check.sh fast       # skip the all-targets clippy and build, the benchmark package and the smokes
#
# The lint rules are clippy lints (clippy.toml + the root manifest's
# [workspace.lints.clippy], DESIGN.md §9) over the 15 library crates:
# print_stdout / print_stderr / dbg_macro; unwrap_used / expect_used / panic /
# unreachable / todo / unimplemented; disallowed_types (HashMap, HashSet);
# disallowed_methods (Instant::now, SystemTime::now);
# allow_attributes_without_reason. A suppression is an
# `#[expect(clippy::<lint>, reason = "...")]`, which fails once it suppresses
# nothing.
#
# Byte-identity checks among the smokes: same-seed replays of the soak, the
# shard-loss soak and the live soak (two runs, `diff`); 4-shard ask ==
# unsharded ask, with the default retriever and with BM25; two `sage
# index` runs over one model file (`cmp`); `sage segment` == the chunk
# listing recorded in this script; and the full
# scenario grid == the committed BENCH_scenarios.json (one run; `cargo test`
# asserts the same equality).
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

echo "=== module-size ceiling (pipeline stays a thin plan-builder layer)"
# The stage-graph executor (core/src/exec/) owns query execution;
# pipeline.rs must not grow back into the pre-refactor monolith.
pipeline_lines=$(wc -l < crates/core/src/pipeline.rs)
if [ "$pipeline_lines" -ge 700 ]; then
  echo "FAIL: crates/core/src/pipeline.rs is $pipeline_lines lines (ceiling 700);"
  echo "      move execution logic into crates/core/src/exec/ instead"
  exit 1
fi
echo "pipeline.rs at $pipeline_lines lines (< 700)"

echo "=== cargo test -q"
cargo test -q

if [ "${1:-}" != fast ]; then
  echo "=== cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "=== cargo build --workspace --all-targets (every bench and example compiles)"
  cargo build --workspace --all-targets

  echo "=== benchmark package (outside the workspace: builds offline, self-tests, manifest)"
  # The benchmark calls the facade from its own package, so nothing above
  # compiles it: a change that drifts from benchmark/README.md's "Pinned
  # API surface" would pass here and fail only at the driver.
  CARGO_TARGET_DIR=target/bench bash benchmark/run.sh --test

  echo "=== telemetry smoke (exporters well-formed)"
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  printf 'Whiskers is a playful tabby cat. He has bright green eyes.\n\nDorinwick was well known in the region. He lives in Ashford.\n' \
    > "$tmp/corpus.txt"
  "$sage" ask \
    --file "$tmp/corpus.txt" \
    --question "What is the color of Whiskers's eyes?" \
    --telemetry --metrics-out "$tmp/metrics.prom" --trace-out "$tmp/trace.jsonl" \
    > "$tmp/answer.txt" 2> "$tmp/summary.txt"
  grep -q green "$tmp/answer.txt" || { echo "FAIL: wrong answer"; cat "$tmp/answer.txt"; exit 1; }
  grep -q 'sage telemetry' "$tmp/summary.txt" || { echo "FAIL: no stderr summary"; exit 1; }
  grep -q '"name":"retrieve"' "$tmp/trace.jsonl" || { echo "FAIL: no retrieve span in trace"; exit 1; }
  # The Prometheus dump must have TYPE lines, no duplicate metric names,
  # and finite sample values.
  awk '
    /^# TYPE / { types++; if (seen[$3]++) { print "FAIL: duplicate # TYPE " $3; bad = 1 } }
    /^[a-z]/ {
      v = $NF
      if (v !~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/) { print "FAIL: non-finite sample: " $0; bad = 1 }
    }
    END {
      if (types == 0) { print "FAIL: no # TYPE lines"; bad = 1 }
      exit bad
    }
  ' "$tmp/metrics.prom"
  echo "telemetry smoke ok"

  echo "=== persistence smoke (train -> index -> query over saved files)"
  # The offline phase writes files the online phase reloads: the same
  # models and corpus must index to the same bytes twice, the saved index
  # must answer, and one flipped payload byte must be refused by the CRC
  # trailer rather than parsed.
  "$sage" train --out "$tmp/models.bin" 2> /dev/null
  for run in a b; do
    "$sage" index --file "$tmp/corpus.txt" --models "$tmp/models.bin" \
      --out "$tmp/index_$run.bin" 2> /dev/null
  done
  cmp "$tmp/index_a.bin" "$tmp/index_b.bin" \
    || { echo "FAIL: the same models and corpus indexed to different bytes"; exit 1; }
  "$sage" query --index "$tmp/index_a.bin" \
    --question "What is the color of Whiskers's eyes?" > "$tmp/query.txt" 2> /dev/null
  grep -q green "$tmp/query.txt" || { echo "FAIL: wrong answer from the saved index"; cat "$tmp/query.txt"; exit 1; }
  # Byte 100 is chunk text (ASCII), so 0xFF always changes it.
  cp "$tmp/index_a.bin" "$tmp/index_flipped.bin"
  printf '\377' | dd of="$tmp/index_flipped.bin" bs=1 seek=100 conv=notrunc 2> /dev/null
  if "$sage" query --index "$tmp/index_flipped.bin" \
      --question "What is the color of Whiskers's eyes?" > /dev/null 2> "$tmp/flipped.err"; then
    echo "FAIL: a corrupted index answered"; exit 1
  fi
  grep -q 'checksum mismatch' "$tmp/flipped.err" \
    || { echo "FAIL: no checksum error"; cat "$tmp/flipped.err"; exit 1; }
  echo "persistence smoke ok"

  echo "=== segment smoke (the chunk listing is the recorded one; a bad --naive value is refused)"
  # The listing is what the build before the pool-once segmenter (PR 23's
  # parent) printed for this corpus and these models, byte for byte.
  "$sage" segment --file "$tmp/corpus.txt" --models "$tmp/models.bin" \
    > "$tmp/segment.txt" 2> /dev/null
  diff "$tmp/segment.txt" - <<'LISTING' || { echo "FAIL: sage segment printed a different chunk listing"; exit 1; }
[  0] (17 tokens) Whiskers is a playful tabby cat. He has bright green eyes.
[  1] (17 tokens) Dorinwick was well known in the region. He lives in Ashford.
LISTING
  if "$sage" segment --file "$tmp/corpus.txt" --naive abc > /dev/null 2> "$tmp/naive.err"; then
    echo "FAIL: sage segment accepted --naive abc"; exit 1
  fi
  grep -q 'invalid value for --naive' "$tmp/naive.err" \
    || { echo "FAIL: no 'invalid value for --naive' error"; cat "$tmp/naive.err"; exit 1; }
  echo "segment smoke ok"

  echo "=== soak smoke (deterministic overload replay)"
  # Two runs with the same seed must produce bit-identical event logs,
  # complete queries, and shed zero panics (the command itself exits
  # nonzero on any soak-invariant violation).
  "$sage" soak \
    --seed 42 --duration 10 --qps 3 --docs 1 \
    > "$tmp/soak_a.log" 2> "$tmp/soak_a.err"
  "$sage" soak \
    --seed 42 --duration 10 --qps 3 --docs 1 \
    > "$tmp/soak_b.log" 2> /dev/null
  diff -q "$tmp/soak_a.log" "$tmp/soak_b.log" \
    || { echo "FAIL: soak replay is not deterministic"; exit 1; }
  grep -q ' done ' "$tmp/soak_a.log" || { echo "FAIL: soak completed nothing"; exit 1; }
  grep -q 'panics 0' "$tmp/soak_a.err" || { echo "FAIL: soak saw panics"; exit 1; }
  echo "soak smoke ok"

  echo "=== report smoke (recorder + SLO folds over the soak's observation stream)"
  # The bundle's reconciliation section must hold (the command exits
  # nonzero otherwise) and the dashboard must reach stderr.
  "$sage" report \
    --seed 42 --duration 10 --qps 3 --docs 1 \
    > "$tmp/report.json" 2> "$tmp/report.err"
  grep -q '"clean": true' "$tmp/report.json" \
    || { echo "FAIL: report bundle does not reconcile"; exit 1; }
  grep -q '^=== sage telemetry' "$tmp/report.err" \
    || { echo "FAIL: report printed no telemetry summary"; exit 1; }
  grep -q '^slo: ' "$tmp/report.err" \
    || { echo "FAIL: report printed no SLO summary"; exit 1; }
  echo "report smoke ok"

  echo "=== shard smoke (scatter-gather determinism + loss drill)"
  # Scatter-gather must be invisible when healthy: the same question
  # served through 4 shards must print the exact answer the unsharded
  # scan does (the deterministic merge is byte-identical at every N).
  "$sage" ask \
    --file "$tmp/corpus.txt" --question "What is the color of Whiskers's eyes?" \
    > "$tmp/ask_unsharded.txt" 2> /dev/null
  "$sage" ask \
    --file "$tmp/corpus.txt" --question "What is the color of Whiskers's eyes?" \
    --shards 4 \
    > "$tmp/ask_sharded.txt" 2> /dev/null
  diff -q "$tmp/ask_unsharded.txt" "$tmp/ask_sharded.txt" \
    || { echo "FAIL: 4-shard merge diverges from unsharded results"; exit 1; }
  # The BM25 twin: each shard probe scores the shared postings through the
  # shard filter, so answer and context (order included) must not move.
  # Six paragraphs, so that every one of the 4 shards owns a chunk.
  { cat "$tmp/corpus.txt"; printf '\n%s\n' \
      'Mossy is an old tortoise. Her shell is dark green and cracked.' \
      'The harbor town of Ashford keeps a lighthouse. Its keeper paints the door blue.' \
      'Brone the baker lives near the mill. He bakes bread for Ashford every morning.' \
      'Whiskers sleeps on the porch in the afternoon. His favourite toy is a red ball.'; } \
    > "$tmp/corpus_bm25.txt"
  for shards in 1 4; do
    "$sage" ask \
      --file "$tmp/corpus_bm25.txt" --question "What is the color of Whiskers's eyes?" \
      --retriever bm25 --show-context --shards "$shards" \
      > "$tmp/ask_bm25_$shards.txt" 2>&1
  done
  grep -q '^green$' "$tmp/ask_bm25_1.txt" \
    || { echo "FAIL: wrong BM25 answer"; cat "$tmp/ask_bm25_1.txt"; exit 1; }
  diff -q "$tmp/ask_bm25_1.txt" "$tmp/ask_bm25_4.txt" \
    || { echo "FAIL: 4-shard BM25 merge diverges from unsharded results"; exit 1; }
  # Loss drill: kill shard 1 of 4 outright under load. Every completed
  # query must serve from the three survivors under a documented
  # shard-partial rung, with zero panics and zero errors, and the event
  # log must replay byte-for-byte.
  "$sage" soak \
    --seed 42 --duration 10 --qps 3 --docs 1 \
    --shards 4 --resilience --faults "shard:1:down" \
    > "$tmp/shard_a.log" 2> "$tmp/shard_a.err"
  "$sage" soak \
    --seed 42 --duration 10 --qps 3 --docs 1 \
    --shards 4 --resilience --faults "shard:1:down" \
    > "$tmp/shard_b.log" 2> /dev/null
  diff -q "$tmp/shard_a.log" "$tmp/shard_b.log" \
    || { echo "FAIL: shard-loss soak replay is not deterministic"; exit 1; }
  grep -q 'rung=shard-partial:1/4' "$tmp/shard_a.log" \
    || { echo "FAIL: no shard-partial rung on the survivors' answers"; exit 1; }
  grep -q 'panics 0' "$tmp/shard_a.err" \
    || { echo "FAIL: shard-loss soak saw panics"; exit 1; }
  grep -q 'errors 0' "$tmp/shard_a.err" \
    || { echo "FAIL: shard-loss soak saw errors"; exit 1; }
  echo "shard smoke ok"

  echo "=== live-corpus smoke (crash injection + recovery drill)"
  # Mutate a store under a crash plan: every injected crash must recover
  # to the last committed epoch (the command exits nonzero on any live
  # invariant violation), and two runs with the same seeds must produce
  # byte-identical logs even in different directories — the log carries
  # no wall-clock times or paths.
  "$sage" soak --live \
    --live-dir "$tmp/live_a" --ops 12 --seed 42 \
    --crash "pre-rename:0.4,pre-manifest-commit:0.3" --crash-seed 7 \
    > "$tmp/live_a.log" 2> "$tmp/live_a.err"
  "$sage" soak --live \
    --live-dir "$tmp/live_b" --ops 12 --seed 42 \
    --crash "pre-rename:0.4,pre-manifest-commit:0.3" --crash-seed 7 \
    > "$tmp/live_b.log" 2> /dev/null
  diff -q "$tmp/live_a.log" "$tmp/live_b.log" \
    || { echo "FAIL: live soak replay is not deterministic"; exit 1; }
  grep -q '^recover ' "$tmp/live_a.log" \
    || { echo "FAIL: crash plan injected no recovery drill"; exit 1; }
  grep -q 'violations=0 ' "$tmp/live_a.log" \
    || { echo "FAIL: live soak saw invariant violations"; exit 1; }
  # Reload the survivor store: it must reopen cleanly at its last epoch.
  "$sage" soak --live \
    --live-dir "$tmp/live_a" --ops 0 --seed 43 \
    > "$tmp/live_reopen.log" 2> /dev/null
  grep -Eq '^open epoch=[1-9]' "$tmp/live_reopen.log" \
    || { echo "FAIL: live store did not reopen at committed epoch"; cat "$tmp/live_reopen.log"; exit 1; }
  echo "live-corpus smoke ok"

  echo "=== explain smoke (resolved plan rendering)"
  # The plan printer must show the full SAGE stage graph and the rewrite
  # each brownout rung applies; the naive plan must not judge answers.
  "$sage" explain "why is the sky blue" \
    > "$tmp/explain_sage.txt"
  for needle in "embed" "retrieve-dense" "select (gradient)" "feedback" \
                "rung DropFeedback" "rung FlatTopK" "middleware"; do
    grep -q "$needle" "$tmp/explain_sage.txt" \
      || { echo "FAIL: explain output missing '$needle'"; cat "$tmp/explain_sage.txt"; exit 1; }
  done
  "$sage" explain --naive --retriever bm25 \
    > "$tmp/explain_naive.txt"
  grep -q "retrieve-bm25" "$tmp/explain_naive.txt" \
    || { echo "FAIL: naive explain missing bm25 stage"; exit 1; }
  # The naive round template must not judge answers.
  if grep -q "^  feedback" "$tmp/explain_naive.txt"; then
    echo "FAIL: naive plan still judges answers"; exit 1
  fi
  # No command ignores a flag it does not read: `--concurrency` is not an
  # explain flag (there is no schedule to render), so it must fail rather
  # than silently do nothing.
  if "$sage" explain --concurrency 3 > /dev/null 2> "$tmp/explain_unknown.err"; then
    echo "FAIL: explain accepted a flag it does not read"; exit 1
  fi
  grep -q 'unknown flag' "$tmp/explain_unknown.err" \
    || { echo "FAIL: no 'unknown flag' error"; cat "$tmp/explain_unknown.err"; exit 1; }
  # Nor is a removed command accepted: the lint rules run under clippy.
  if "$sage" lint > /dev/null 2> "$tmp/lint_unknown.err"; then
    echo "FAIL: sage accepted the removed lint command"; exit 1
  fi
  grep -q 'unknown command' "$tmp/lint_unknown.err" \
    || { echo "FAIL: no 'unknown command' error"; cat "$tmp/lint_unknown.err"; exit 1; }
  echo "explain smoke ok"

  echo "=== scenario-matrix smoke (the grid renders the committed rows)"
  # Every cell of the grid, byte for byte against BENCH_scenarios.json; on
  # a mismatch the command prints each differing row as its `- committed` /
  # `+ measured` line pair and exits nonzero. Equality with a committed
  # file is also the replay check: a second run could only repeat it.
  "$sage" scenarios run scenarios.toml \
    --baseline BENCH_scenarios.json > /dev/null 2> "$tmp/scen.err" \
    || { echo "FAIL: scenario rows differ from BENCH_scenarios.json"; cat "$tmp/scen.err"; exit 1; }
  echo "scenario-matrix smoke ok"

  echo "=== hostile-label smoke (Prometheus escaping)"
  # A cell name carrying a backslash must round-trip through the metrics
  # dump as an escaped label value without breaking the exposition
  # grammar (TOML strings reject embedded quotes, so backslash is the
  # hostile character a grid can actually smuggle in).
  cat > "$tmp/hostile.toml" <<'HOSTILE'
[[cell]]
name = "smoke\hostile"
docs = 1
duration_s = 4
qps = 2
HOSTILE
  "$sage" scenarios run "$tmp/hostile.toml" \
    --metrics-out "$tmp/hostile.prom" \
    > /dev/null 2> /dev/null
  grep -q 'cell="smoke\\\\hostile"' "$tmp/hostile.prom" \
    || { echo "FAIL: backslash not escaped in label value"; cat "$tmp/hostile.prom"; exit 1; }
  awk '
    /^# TYPE / { types++ }
    /^[a-z]/ {
      v = $NF
      if (v !~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/) { print "FAIL: non-finite sample: " $0; bad = 1 }
      if ($0 !~ /^[a-z_]+(\{[a-z_]+="([^"\\]|\\.)*"(,[a-z_]+="([^"\\]|\\.)*")*\})? /) {
        print "FAIL: malformed series: " $0; bad = 1
      }
    }
    END { if (types == 0) { print "FAIL: no # TYPE lines"; bad = 1 }; exit bad }
  ' "$tmp/hostile.prom"
  echo "hostile-label smoke ok"
fi

echo "=== tier-1 gate OK"
