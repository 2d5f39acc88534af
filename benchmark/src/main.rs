//! `sage-benchmark`: the repo benchmark. One process, one client, one
//! thread, closed loop: it builds a system from generated text, asks it
//! generated questions, checks the answers, and times every call it makes
//! into the `sage` facade from outside. See `README.md` beside this crate.

mod alloc;
mod layers;
mod live;
mod rag;
mod replay;
mod spec;
mod stats;
mod trace;

use spec::{Metric, Shape, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, SEEDS};
use stats::{fastest_per_op, nearest_rank, worsening, Digest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Everything one round measured. A round is the whole workload from
/// nothing; nothing but this survives into the next one. Every operation
/// the harness times lands in one or more of the `*_ops` lists, which hold
/// the same operations in the same order in every round.
pub struct RoundOut {
    /// Seconds of each operation before the system is ready: train,
    /// generate, then a corpus-wide build or the live store's seed commits.
    pub setup_ops: Vec<f64>,
    /// Seconds of each call into the write path (`RagSystem::build` or
    /// `CorpusWriter::commit`), wherever in the round it ran, and the
    /// corpus tokens they took in.
    pub ingest_ops: Vec<f64>,
    pub ingest_tokens: u64,
    /// Seconds of each operation from the first question to the last
    /// answer: the questions, and the builds or commits between them.
    pub pass_ops: Vec<f64>,
    /// Latency of each question.
    pub latencies_ms: Vec<f64>,
    in_pass: bool,
    pub f1_sum: f64,
    pub llm_tokens: u64,
    /// Answers and chosen chunks (and, live, the store's own digest).
    pub digest: Digest,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Raw sums behind the per-layer metrics.
    pub counts: BTreeMap<&'static str, f64>,
}

impl RoundOut {
    pub fn new() -> Self {
        RoundOut {
            setup_ops: Vec::new(),
            ingest_ops: Vec::new(),
            ingest_tokens: 0,
            pass_ops: Vec::new(),
            latencies_ms: Vec::new(),
            in_pass: false,
            f1_sum: 0.0,
            llm_tokens: 0,
            digest: Digest::new(),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            counts: BTreeMap::new(),
        }
    }

    /// The system is ready: operations from here on belong to the pass.
    pub fn start_pass(&mut self) {
        self.in_pass = true;
    }

    /// One timed operation of set-up or of the pass.
    pub fn ran(&mut self, took: Duration) {
        let ops = if self.in_pass { &mut self.pass_ops } else { &mut self.setup_ops };
        ops.push(secs(took));
    }

    /// One timed call into the write path.
    pub fn ingested(&mut self, took: Duration, tokens: u64) {
        self.ingest_ops.push(secs(took));
        self.ingest_tokens += tokens;
        self.ran(took);
    }

    /// One timed question.
    pub fn answered(&mut self, took: Duration) {
        self.latencies_ms.push(secs(took) * 1e3);
        self.ran(took);
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    fn queries(&self) -> f64 {
        self.latencies_ms.len() as f64
    }
}

/// The outcome of one run: metric values by name, and the operation tally.
struct RunOut {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    rounds: usize,
    complaints: Vec<String>,
}

/// Run `w` for about `seconds`: whole rounds until the next one would
/// overrun (at least three; two when traced, where a round carries the
/// replay and the side passes).
fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> RunOut {
    alloc::reset_peak();
    let started = Instant::now();
    let mut rec = Recorder::new(traced);
    let mut rounds: Vec<RoundOut> = Vec::new();
    let min_rounds = if traced { 2 } else { 3 };
    let mut longest = 0.0f64;
    loop {
        rec.round = rounds.len() as u32;
        let t = Instant::now();
        let mut r = match &w.shape {
            Shape::Rag(spec) => rag::round(spec, seed, &mut rec),
            Shape::Live(spec) => live::round(spec, seed, &mut rec, &out_dir.join("live-store")),
        };
        r.wall_s = secs(t.elapsed());
        eprintln!(
            "{} round {}: wall {:.3} s, setup {:.3} s, ingest {:.3} s, pass {:.3} s, p50 {:.3} ms",
            w.name,
            rounds.len(),
            r.wall_s,
            r.setup_ops.iter().sum::<f64>(),
            r.ingest_ops.iter().sum::<f64>(),
            r.pass_ops.iter().sum::<f64>(),
            nearest_rank(&r.latencies_ms, 0.5),
        );
        longest = longest.max(r.wall_s);
        rounds.push(r);
        if rounds.len() >= min_rounds && secs(started.elapsed()) + longest > seconds {
            break;
        }
    }
    let peak = alloc::peak_bytes();

    let mut out = RunOut {
        values: BTreeMap::new(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        rounds: rounds.len(),
        complaints: Vec::new(),
    };
    let mut check = |ok: bool, what: String| {
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            out.complaints.push(what);
        }
    };
    let first = &rounds[0];
    check(
        rounds.iter().all(|r| r.digest == first.digest),
        "answers or chosen chunks differ between rounds".into(),
    );
    let f1 = first.f1_sum / first.queries();
    check(f1 >= w.f1_floor, format!("f1 {f1:.4} is below the floor {}", w.f1_floor));

    if traced {
        let values = layers::metrics(rec.spans(), &rounds);
        if matches!(w.shape, Shape::Rag(_)) {
            let (m, c) = (values["core.replay_match"], values["core.replay_cover"]);
            check(m == 1.0, format!("replay matched the pipeline on {m} of questions, not all"));
            check((0.90..=1.10).contains(&c), format!("replayed layers cover {c:.3} of query time"));
        }
        out.values = values;
        let path = out_dir.join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = rec.write_jsonl(&path) {
            check(false, format!("cannot write {}: {e}", path.display()));
        }
    } else {
        // Each operation's fastest repetition over the rounds, then the sum
        // (or the median) over operations: see `stats::fastest_per_op`.
        let fastest = |ops: &dyn Fn(&RoundOut) -> &[f64]| {
            fastest_per_op(&rounds.iter().map(ops).collect::<Vec<_>>())
        };
        let same_ops = |ops: &dyn Fn(&RoundOut) -> &[f64]| rounds.iter().all(|r| ops(r).len() == ops(first).len());
        check(
            same_ops(&|r| &r.setup_ops) && same_ops(&|r| &r.ingest_ops) && same_ops(&|r| &r.pass_ops),
            "rounds did not run the same operations".into(),
        );
        let v = &mut out.values;
        v.insert("setup_s", fastest(&|r| &r.setup_ops).iter().sum());
        v.insert("ingest_tok_per_s", first.ingest_tokens as f64 / fastest(&|r| &r.ingest_ops).iter().sum::<f64>());
        v.insert("queries_per_s", first.queries() / fastest(&|r| &r.pass_ops).iter().sum::<f64>());
        v.insert("query_p50_ms", nearest_rank(&fastest(&|r| &r.latencies_ms), 0.5));
        v.insert("f1", f1);
        v.insert("llm_tokens_per_query", first.llm_tokens as f64 / first.queries());
        v.insert("peak_heap_mb", peak as f64 / 1e6);
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "{}: seed {seed}, {} rounds of {:.2} s (slowest {:.0}% over fastest), {} questions each",
        w.name,
        rounds.len(),
        walls.iter().sum::<f64>() / walls.len() as f64,
        (nearest_rank(&walls, 1.0) / nearest_rank(&walls, 0.0) - 1.0) * 100.0,
        first.latencies_ms.len(),
    );
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Print every metric by name, then the result object as the last line.
fn report(table: &[Metric], out: &RunOut) {
    let mut fields = Vec::new();
    for m in table {
        let v = out.values.get(m.name).copied().unwrap_or(0.0);
        println!("{:<36} {:>16.6} {:<8} {}", m.name, v, m.unit, m.tag());
        fields.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(v), m.unit));
    }
    for c in &out.complaints {
        println!("FAILED CHECK: {c}");
    }
    println!("rounds {}  attempted {}  failed {}", out.rounds, out.attempted, out.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}

/// The same code measured twice must agree within the benchmark's own
/// bounds: every workload in order, then again in reverse order, on the
/// default seed; then a traced run of each workload on both recorded seeds,
/// which must pass every output check.
fn selfcheck(seconds: f64, out_dir: &Path) -> bool {
    let ws = spec::workloads();
    let mut ok = true;
    let mut sets: [Vec<RunOut>; 2] = [Vec::new(), Vec::new()];
    for (set, order) in [(0, ws.iter().collect::<Vec<_>>()), (1, ws.iter().rev().collect())] {
        for w in order {
            sets[set].push(run(w, SEEDS[0], seconds, false, out_dir));
        }
    }
    sets[1].reverse();
    println!("{:<12} {:<22} {:>14} {:>14} {:>8} {:>7}", "workload", "metric", "first", "second", "worse%", "bound%");
    for (i, w) in ws.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a.failed == 0 && b.failed == 0;
        for c in a.complaints.iter().chain(&b.complaints) {
            println!("{:<12} FAILED CHECK: {c}", w.name);
        }
        for m in &END_TO_END {
            let (x, y) = (a.values[m.name], b.values[m.name]);
            let worse = worsening(x, y, m.better).abs();
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "{:<12} {:<22} {:>14.4} {:>14.4} {:>8.2} {:>7.1}{}",
                w.name, m.name, x, y, worse * 100.0, m.bound * 100.0,
                if within { "" } else { "  EXCESS" }
            );
        }
    }
    for seed in SEEDS {
        for w in &ws {
            let t = run(w, seed, seconds, true, out_dir);
            println!(
                "{:<12} traced, seed {seed}: replay_match {} replay_cover {:.3} trace.overhead_pct {:.2} failed {}",
                w.name, t.values["core.replay_match"], t.values["core.replay_cover"],
                t.values["trace.overhead_pct"], t.failed
            );
            for c in &t.complaints {
                println!("{:<12} FAILED CHECK: {c}", w.name);
            }
            ok &= t.failed == 0;
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// Unit tests of the harness's own arithmetic, runnable from the release
/// binary (`--test`) as well as under `cargo test`.
fn self_tests() -> bool {
    let tests: [(&str, fn()); 8] = [
        ("nearest_rank_matches_hand_computed_ranks", stats::nearest_rank_matches_hand_computed_ranks),
        ("quiet_quartile_mirrors_for_rates", stats::quiet_quartile_mirrors_for_rates),
        ("fastest_per_op_ignores_disturbed_repetitions", stats::fastest_per_op_ignores_disturbed_repetitions),
        ("self_time_subtracts_nested_children_once", trace::self_time_subtracts_nested_children_once),
        ("recorder_links_parents_and_is_silent_when_off", trace::recorder_links_parents_and_is_silent_when_off),
        ("peak_tracks_the_high_water_mark", alloc::peak_tracks_the_high_water_mark),
        ("layer_metrics_are_all_declared", layers::layer_metrics_are_all_declared),
        ("manifest_is_within_the_contract_limits", spec::manifest_is_within_the_contract_limits),
    ];
    let mut ok = true;
    for (name, f) in tests {
        let passed = std::panic::catch_unwind(f).is_ok();
        println!("test {name} ... {}", if passed { "ok" } else { "FAILED" });
        ok &= passed;
    }
    ok
}

fn usage() -> ! {
    eprintln!(
        "usage: sage-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      sage-benchmark --selfcheck [--seconds S] [--out DIR] | --test | --manifest",
        spec::workloads().iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed = SEEDS[0];
    let mut seconds = RUN_SECONDS as f64;
    let mut traced = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut mode = "run";
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => traced = true,
            "--out" => out_dir = PathBuf::from(value()),
            "--selfcheck" => mode = "selfcheck",
            "--test" => mode = "test",
            "--manifest" => mode = "manifest",
            _ => usage(),
        }
    }
    let ok = match mode {
        "selfcheck" => selfcheck(seconds, &out_dir),
        "test" => self_tests(),
        "manifest" => {
            print!("{}", spec::manifest());
            true
        }
        _ => {
            let ws = spec::workloads();
            let Some(w) = ws.iter().find(|w| Some(w.name) == workload.as_deref()) else { usage() };
            let out = run(w, seed, seconds, traced, &out_dir);
            report(if traced { &PER_LAYER } else { &END_TO_END }, &out);
            // A failed check is reported in the result object, not by the
            // exit code: the run itself completed.
            true
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
