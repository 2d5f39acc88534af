#!/bin/bash
# Tier-1 gate: the checks every PR must keep green.
#
#   scripts/check.sh            # build + lint rules + tests + clippy + paper claims + benchmark package + smokes
#   scripts/check.sh fast       # skip the all-targets clippy and build, the paper claims, the benchmark package and the smokes
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
# Byte-identity checks among the smokes: same-seed replays of the soak
# (two runs, `diff`); a BM25 soak pinned to one core and the
# same soak on every core (`cmp`); two same-seed `sage report` bundles less
# their wall-clock latency line (`diff`); `sage segment` == the output
# recorded in this script; and the full scenario grid == the committed
# BENCH_scenarios.json (one run; `cargo test` asserts the same equality).
# The pinned SHA-256 of the default-budget model file and of the dense and
# BM25 index files, and two `sage index` runs per retriever compared byte
# for byte, are crates/cli/tests/persistence.rs; the live soak's crash
# drill, its same-seed replay and the SHA-256 of two live logs are
# crates/cli/tests/live.rs; the recorded `sage ask --show-context` listings
# (BM25, a dead embedder, a dead reader) are crates/cli/tests/ask.rs.
# `cargo test` runs all three against the debug `sage` and below against
# the release one.
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
# The stage-graph executor (core/src/exec/) owns query execution;
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

  echo "=== persistence, live-corpus and ask pins against the release binary"
  # The pinned SHA-256 of the model file and of a dense and a BM25 index,
  # two index runs per retriever byte-equal, a saved index answering, a
  # flipped byte refused; the live soak's crash drill (recoveries, no
  # violation, a same-seed replay byte-equal, a reopen at the committed
  # epoch) and both pinned live logs; the three recorded `ask` listings:
  # the tests `cargo test` ran above against the debug `sage`, here
  # against the release `sage` that ships.
  cargo test -q --release -p sage-cli --test persistence --test live --test ask

  echo "=== saved models and index (for the smokes below)"
  "$sage" train --out "$tmp/models.bin" 2> /dev/null
  "$sage" index --file "$tmp/corpus.txt" --models "$tmp/models.bin" \
    --out "$tmp/index_openai_a.bin" 2> /dev/null

  echo "=== panic smoke (an injected reader panic is an error, not a crash)"
  # `ask` and `query` go through the one panic boundary: exit status 1,
  # nothing on stdout, and the structured error as the last stderr line
  # (the default panic hook's message may precede it).
  question="What is the color of Whiskers's eyes?"
  for command in ask query; do
    case $command in
      ask) input=(--file "$tmp/corpus.txt" --models "$tmp/models.bin") ;;
      query) input=(--index "$tmp/index_openai_a.bin") ;;
    esac
    status=0
    "$sage" "$command" "${input[@]}" --question "$question" --faults reader=panic:1.0 \
      > "$tmp/panic.out" 2> "$tmp/panic.err" || status=$?
    [ "$status" -eq 1 ] || { echo "FAIL: sage $command exited $status on an injected panic"; exit 1; }
    [ ! -s "$tmp/panic.out" ] || { echo "FAIL: sage $command printed an answer"; exit 1; }
    [ "$(tail -n 1 "$tmp/panic.err")" = "error: panicked: injected panic at reader for call \"$question\"" ] \
      || { echo "FAIL: sage $command did not end on the panic error"; cat "$tmp/panic.err"; exit 1; }
  done
  echo "panic smoke ok"

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

  echo "=== core-count smoke (one core and every core build the same system)"
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
  echo "core-count smoke ok ($(nproc) cores)"

  echo "=== report smoke (the bundle holds the soak's whole observation stream)"
  # The bundle's reconciliation section must hold (the command exits
  # nonzero otherwise), it must carry one observation per arrival, and the
  # dashboard must reach stderr. A second same-seed run, over the saved
  # models, writes the same bundle but for its one wall-clock line.
  report=(report --seed 42 --duration 10 --qps 3 --docs 1)
  "$sage" "${report[@]}" > "$tmp/report_a.json" 2> "$tmp/report.err"
  "$sage" "${report[@]}" --models "$tmp/models.bin" > "$tmp/report_b.json" 2> /dev/null
  for run in a b; do
    grep -v '"query_latency_ns"' "$tmp/report_$run.json" > "$tmp/report_$run.virtual"
  done
  diff "$tmp/report_a.virtual" "$tmp/report_b.virtual" \
    || { echo "FAIL: two same-seed report bundles differ"; exit 1; }
  mv "$tmp/report_a.json" "$tmp/report.json"
  grep -q '"clean": true' "$tmp/report.json" \
    || { echo "FAIL: report bundle does not reconcile"; exit 1; }
  grep -q '^=== sage telemetry' "$tmp/report.err" \
    || { echo "FAIL: report printed no telemetry summary"; exit 1; }
  arrivals=$(grep '^  "soak": ' "$tmp/report.json" | grep -o '"arrivals": [0-9]*' | grep -o '[0-9]*$')
  observations=$(grep '^  "observations": ' "$tmp/report.json" | grep -o '{"seq":' | wc -l)
  [ -n "$arrivals" ] && [ "$observations" -eq "$arrivals" ] \
    || { echo "FAIL: report bundle holds $observations observations for ${arrivals:-?} arrivals"; exit 1; }
  echo "report smoke ok"

  echo "=== refusal smoke (removed sharding, HNSW, --resilience and report SLO/recorder surfaces fail and name the input)"
  # In-process sharding, the HNSW tier and the opt-in resilience switch are
  # gone: their flags, the sharding fault grammar and scenario axis, and
  # the HNSW live retriever must be refused by name, never silently
  # ignored.
  for command in ask soak explain; do
    for flag in shards quorum; do
      if "$sage" "$command" "--$flag" 4 > /dev/null 2> "$tmp/refused.err"; then
        echo "FAIL: sage $command accepted --$flag"; exit 1
      fi
      grep -q "unknown flag --$flag for \`sage $command\`" "$tmp/refused.err" \
        || { echo "FAIL: no 'unknown flag --$flag' error"; cat "$tmp/refused.err"; exit 1; }
    done
  done
  if "$sage" ask --file "$tmp/corpus.txt" --question "What is the color of Whiskers's eyes?" \
      --models "$tmp/models.bin" --faults "shard:1:down" > /dev/null 2> "$tmp/refused.err"; then
    echo "FAIL: sage ask accepted the fault entry shard:1:down"; exit 1
  fi
  grep -q 'bad fault entry "shard:1:down"' "$tmp/refused.err" \
    || { echo "FAIL: the fault error does not name its entry"; cat "$tmp/refused.err"; exit 1; }
  printf '[[cell]]\nname = "a"\nshards = 4\n' > "$tmp/shards.toml"
  if "$sage" scenarios run "$tmp/shards.toml" --models "$tmp/models.bin" \
      > /dev/null 2> "$tmp/refused.err"; then
    echo "FAIL: sage scenarios accepted the shards key"; exit 1
  fi
  grep -q 'unknown cell key `shards`' "$tmp/refused.err" \
    || { echo "FAIL: the scenario error does not name its key"; cat "$tmp/refused.err"; exit 1; }
  for command in ask query soak; do
    for flag in hnsw resilience; do
      if "$sage" "$command" "--$flag" > /dev/null 2> "$tmp/refused.err"; then
        echo "FAIL: sage $command accepted --$flag"; exit 1
      fi
      grep -q "unknown flag --$flag for \`sage $command\`" "$tmp/refused.err" \
        || { echo "FAIL: no 'unknown flag --$flag' error"; cat "$tmp/refused.err"; exit 1; }
    done
  done
  if "$sage" soak --live --retriever hnsw --live-dir "$tmp/hnsw-live" \
      > /dev/null 2> "$tmp/refused.err"; then
    echo "FAIL: sage soak --live accepted --retriever hnsw"; exit 1
  fi
  grep -q 'bad --retriever "hnsw" for --live' "$tmp/refused.err" \
    || { echo "FAIL: the live retriever error does not name its input"; cat "$tmp/refused.err"; exit 1; }
  # The flight recorder and the SLO engine are gone with their flags.
  for flag in slo strict-slo recorder-capacity; do
    if "$sage" report "--$flag" > /dev/null 2> "$tmp/refused.err"; then
      echo "FAIL: sage report accepted --$flag"; exit 1
    fi
    grep -q "unknown flag --$flag for \`sage report\`" "$tmp/refused.err" \
      || { echo "FAIL: no 'unknown flag --$flag' error"; cat "$tmp/refused.err"; exit 1; }
  done
  echo "refusal smoke ok"

  echo "=== explain smoke (resolved plan rendering)"
  # The plan printer must show the full SAGE stage graph and the rewrite
  # each of the two brownout rungs applies; the naive plan must not judge
  # answers.
  "$sage" explain "why is the sky blue" \
    > "$tmp/explain_sage.txt"
  for needle in "embed" "retrieve-dense" "select (gradient)" "feedback" \
                "rung DropFeedback" "rung FlatTopK" "middleware"; do
    grep -q "$needle" "$tmp/explain_sage.txt" \
      || { echo "FAIL: explain output missing '$needle'"; cat "$tmp/explain_sage.txt"; exit 1; }
  done
  rungs=$(grep -c '^  rung ' "$tmp/explain_sage.txt")
  [ "$rungs" -eq 2 ] \
    || { echo "FAIL: explain printed $rungs rung lines, not 2"; cat "$tmp/explain_sage.txt"; exit 1; }
  # The budget's rung is planned once, before the first slot: the per-slot
  # middleware is telemetry only, and no budget checkpoint comes back.
  grep -q '^middleware (per slot): telemetry span -> stage -> telemetry close ' "$tmp/explain_sage.txt" \
    || { echo "FAIL: explain middleware line is not telemetry only"; cat "$tmp/explain_sage.txt"; exit 1; }
  if grep -q 'budget checkpoint' "$tmp/explain_sage.txt"; then
    echo "FAIL: explain names a per-slot budget checkpoint"; exit 1
  fi
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
