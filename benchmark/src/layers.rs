//! Per-layer metrics of a traced run, one value per round from span self
//! times and from counts taken off return values, then the quiet quartile
//! across rounds. A layer is a crate; a metric that does not apply to a
//! workload (say `vecdb.*` under BM25) reads 0.

use crate::spec::PER_LAYER;
use crate::stats::{nearest_rank, quiet_quartile};
use crate::trace::{self_times_ns, Span};
use crate::RoundOut;
use std::collections::BTreeMap;

/// Spans the harness records around single layer calls while it answers
/// (or replays) a question.
const QUERY_LAYERS: [&str; 8] =
    ["embed-query", "vecdb-search", "bm25-search", "live-search", "rerank", "select", "read", "feedback"];
/// Likewise while it replays a build.
const BUILD_LAYERS: [&str; 5] = ["segment", "embed-index", "vecdb-add", "bm25-index", "fit-idf"];

#[derive(Clone, Copy, Default)]
struct Busy {
    /// Seconds inside spans of this name, children excluded.
    own_s: f64,
    /// Seconds inside spans of this name, children included.
    total_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// By how many percent `a` exceeds `b` (0 when there is no `b`).
fn pct_over(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a / b - 1.0) * 100.0
    }
}

/// One round's values, by metric name.
fn round_values(busy: &BTreeMap<&'static str, Busy>, r: &RoundOut) -> BTreeMap<&'static str, f64> {
    let own = |name: &str| busy.get(name).map_or(0.0, |b| b.own_s);
    let total = |name: &str| busy.get(name).map_or(0.0, |b| b.total_s);
    let c = |key: &str| r.count(key);
    let q = r.latencies_ms.len() as f64;
    let per_query_ms = |seconds: f64| ratio(seconds, q) * 1e3;
    let query_layers: f64 = QUERY_LAYERS.iter().map(|n| own(n)).sum();
    let build_layers: f64 = BUILD_LAYERS.iter().map(|n| own(n)).sum();
    let dense = own("vecdb-add") > 0.0;
    let live = total("commit") > 0.0;
    let index_mb = ratio(c("index_bytes"), c("systems")) / 1e6;
    let plain_query_s = ratio(c("plain_query_s"), c("plain_queries"));

    BTreeMap::from([
        ("segment.busy_s", own("segment")),
        ("segment.tok_per_s", ratio(c("seg_tokens"), own("segment"))),
        ("segment.chunks", c("chunks")),
        ("embed.index_busy_s", own("embed-index")),
        ("embed.query_busy_ms", per_query_ms(own("embed-query"))),
        ("vecdb.add_busy_s", own("vecdb-add")),
        ("vecdb.search_busy_ms", per_query_ms(own("vecdb-search"))),
        ("vecdb.vectors_scanned_per_query", ratio(c("vectors_scanned"), q)),
        ("vecdb.ns_per_vector", ratio(own("vecdb-search") * 1e9, c("vectors_scanned"))),
        ("vecdb.index_mb", if dense { index_mb } else { 0.0 }),
        ("retrieval.bm25_index_busy_s", own("bm25-index")),
        ("retrieval.bm25_search_busy_ms", per_query_ms(own("bm25-search"))),
        ("retrieval.bm25_index_mb", if dense { 0.0 } else { index_mb }),
        ("rerank.fit_idf_busy_s", own("fit-idf")),
        ("rerank.busy_ms", per_query_ms(own("rerank"))),
        ("rerank.pairs_per_query", ratio(c("pairs"), q)),
        ("rerank.us_per_pair", ratio(own("rerank") * 1e6, c("pairs"))),
        ("rerank.select_busy_ms", per_query_ms(own("select"))),
        ("rerank.selected_k", ratio(c("selected_k"), q)),
        ("llm.read_busy_ms", per_query_ms(own("read"))),
        ("llm.feedback_busy_ms", per_query_ms(own("feedback"))),
        ("llm.calls_per_query", ratio(c("reads") + c("feedbacks"), q)),
        ("llm.feedback_rounds_per_query", ratio(c("feedbacks"), q)),
        ("llm.input_tokens_per_query", ratio(c("input_tokens"), q)),
        ("llm.output_tokens_per_query", ratio(c("output_tokens"), q)),
        ("llm.sim_latency_ms", per_query_ms(c("sim_latency_s"))),
        ("core.train_busy_s", own("train")),
        ("corpus.generate_busy_s", own("generate")),
        ("core.build_busy_s", total("build")),
        // What `RagSystem::build` spends outside the layer calls it makes.
        ("core.build_overhead_s", if live { 0.0 } else { total("build") - build_layers }),
        ("core.query_busy_ms", per_query_ms(total("query"))),
        // Executor self time: the query minus the layer calls inside it.
        ("core.exec_overhead_ms", per_query_ms(total("query") - query_layers)),
        ("core.query_p90_ms", nearest_rank(&r.latencies_ms, 0.9)),
        ("core.allocs_per_query", ratio(c("allocs"), c("plain_queries"))),
        ("core.alloc_kb_per_query", ratio(c("alloc_bytes"), c("plain_queries")) / 1e3),
        ("core.replay_cover", ratio(query_layers, total("query"))),
        ("core.replay_match", ratio(c("replay_matches"), c("replayed"))),
        ("core.batch2_queries_per_s", ratio(c("batch_queries"), c("batch_s"))),
        ("core.index_resident_mb", ratio(c("resident_bytes"), c("systems")) / 1e6),
        ("live.commit_busy_s", total("commit")),
        ("live.commit_p50_ms", c("commit_p50_ms")),
        ("live.commit_max_ms", c("commit_max_ms")),
        ("live.search_busy_ms", per_query_ms(own("live-search"))),
        ("live.read_busy_ms", if live { per_query_ms(own("read")) } else { 0.0 }),
        ("live.chunks_indexed", c("chunks_indexed")),
        ("live.tombstones", c("tombstones")),
        ("live.compactions", c("compactions")),
        ("live.disk_bytes_per_user_byte", ratio(c("disk_bytes"), c("user_bytes"))),
        ("telemetry.enabled_overhead_pct", pct_over(c("telemetry_query_s"), c("plain_query_s"))),
        // The same questions on the same system, with the spans and the
        // replay around them against without.
        ("trace.overhead_pct", pct_over(ratio(total("query"), q), plain_query_s)),
    ])
}

pub fn metrics(spans: &[Span], rounds: &[RoundOut]) -> BTreeMap<&'static str, f64> {
    let own_ns = self_times_ns(spans);
    let mut busy: Vec<BTreeMap<&'static str, Busy>> = vec![BTreeMap::new(); rounds.len()];
    for (s, &own) in spans.iter().zip(&own_ns) {
        let b = busy[s.round as usize].entry(s.name).or_default();
        b.own_s += own as f64 / 1e9;
        b.total_s += s.dur_ns() as f64 / 1e9;
    }
    let per_round: Vec<BTreeMap<&'static str, f64>> =
        busy.iter().zip(rounds).map(|(b, r)| round_values(b, r)).collect();

    let mut out = BTreeMap::new();
    for &name in per_round[0].keys() {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is computed but not declared in PER_LAYER"));
        let values: Vec<f64> = per_round.iter().map(|v| v[name]).collect();
        out.insert(name, quiet_quartile(&values, m.better));
    }
    // How disturbed the run was: slowest round over fastest.
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    out.insert("bench.round_spread_pct", (nearest_rank(&walls, 1.0) / nearest_rank(&walls, 0.0) - 1.0) * 100.0);
    out
}

#[cfg_attr(test, test)]
pub fn layer_metrics_are_all_declared() {
    let mut r = RoundOut::new();
    r.latencies_ms.push(1.0);
    r.wall_s = 1.0;
    let computed = metrics(&[], &[r]);
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for name in &declared {
        assert!(computed.contains_key(name), "{name} is declared but never computed");
    }
    assert_eq!(computed.len(), declared.len());
}
