//! Sharded scatter-gather retrieval: per-shard fault domains, hedged
//! probes, and partial-result degradation.
//!
//! When sharding is enabled ([`crate::RagSystem::enable_sharding`]) the
//! retrieval slots fan out over N deterministic shards (stable FNV-1a
//! routing of the chunk id, see [`sage_vecdb::ShardRouter`]) instead of
//! scanning one monolithic index. Each shard is its own fault domain: a
//! shard-scoped fault plan entry (`shard:2:slow`) can take it down without
//! touching its siblings. The probe protocol per shard:
//!
//! 1. Issue the primary probe (attempt 0). A clean probe contributes the
//!    shard's exact top-k to the merge.
//! 2. A faulted probe burns its full virtual budget slice and triggers a
//!    *hedged* re-probe (attempt 1) against the shard's replica — an
//!    independent fault draw, so transient faults clear on the hedge
//!    exactly like a component retry.
//! 3. A shard whose hedge also faults is *lost* for this query.
//!
//! Gather: survivors merge with [`sage_vecdb::merge_hits`] — score
//! descending, global-id tie-break — which is invariant to shard
//! completion order, and (because every shard returns its full top-k over
//! an exact partition) byte-identical to the unsharded scan when nothing
//! is lost. Losing `m` shards with `N - m >= quorum` serves from the
//! survivors and records the `shard-partial:m/N` rung; below quorum the
//! query walks the ordinary BM25/flat fallback chain instead.
//!
//! Determinism: fault draws are a pure function of `(seed, shard, question,
//! attempt)` and the burned slices are summed per scatter call (per
//! query). No wall clock, no thread-order dependence.

use super::plan::Fanout;
use crate::pipeline::RagSystem;
use crate::retriever::AnyRetriever;
use sage_resilience::FaultPlan;
use sage_retrieval::ScoredChunk;
use sage_telemetry::metrics;
use sage_vecdb::{merge_hits, Hit, ShardRouter, ShardedFlat};
use std::time::Duration;

/// System-wide sharding state: the resolved fan-out plus the partitioned
/// dense index and the sparse shard assignment. Built once per corpus
/// (and rebuilt on `add_documents`); read-only at query time.
pub(crate) struct ShardState {
    /// Resolved fan-out (shard count, quorum, per-probe budget slice).
    pub(crate) fanout: Fanout,
    /// Dense partition (one exact flat arena per shard); `None` for BM25
    /// primaries, which filter postings by `assignment` instead.
    pub(crate) dense: Option<ShardedFlat>,
    /// Chunk id → shard, shared by sparse shard filtering.
    pub(crate) assignment: Vec<u32>,
}

impl ShardState {
    /// Partition `retriever`'s corpus across `shards` fault domains.
    pub(crate) fn build(
        retriever: &AnyRetriever,
        chunk_count: usize,
        shards: u32,
        quorum: Option<u32>,
    ) -> Self {
        let router = ShardRouter::new(shards);
        let fanout = Fanout::new(shards, quorum);
        let dense = retriever.flat_ref().map(|flat| {
            let mut sharded = ShardedFlat::new(router);
            flat.for_each_row(|row| sharded.push(row));
            sharded
        });
        Self { fanout, dense, assignment: router.assignment(chunk_count) }
    }

    /// Re-partition after the chunk store changed, keeping the configured
    /// shard count and quorum.
    pub(crate) fn rebuild(&self, retriever: &AnyRetriever, chunk_count: usize) -> Self {
        Self::build(retriever, chunk_count, self.fanout.shards, Some(self.fanout.quorum))
    }
}

impl RagSystem {
    /// Turn on sharded scatter-gather serving: the retrieval slots fan out
    /// over `shards` deterministic fault domains with hedged probes and
    /// partial-result degradation. `quorum` is the minimum surviving
    /// shards to serve from the shard path (default: majority). With no
    /// shard faults injected the merged results are byte-identical to the
    /// unsharded index at every shard count.
    pub fn enable_sharding(&mut self, shards: u32, quorum: Option<u32>) {
        self.shards = Some(ShardState::build(&self.retriever, self.chunks.len(), shards, quorum));
    }

    /// Turn sharding off (drops the partitioned indexes).
    pub fn disable_sharding(&mut self) {
        self.shards = None;
    }

    /// The resolved fan-out, when sharding is active.
    pub fn shard_fanout(&self) -> Option<Fanout> {
        self.shards.as_ref().map(|s| s.fanout)
    }
}

/// Outcome of one scatter-gather pass over the shard set.
pub(crate) enum Scattered {
    /// Every shard answered: the merge is byte-identical to the unsharded
    /// scan.
    Clean(Vec<ScoredChunk>),
    /// `lost` of `total` shards were lost but quorum held: serve the
    /// survivors' merge under the `shard-partial:<m>/<N>` rung.
    Partial {
        /// Survivors' merged hits.
        hits: Vec<ScoredChunk>,
        /// Shards lost after the hedged probe.
        lost: u8,
        /// Shards fanned out to.
        total: u8,
        /// Probes issued (primaries + hedges).
        attempts: u32,
        /// Virtual time burned by faulted probes.
        delay: Duration,
    },
    /// Survivors fell below quorum: the caller degrades down the ordinary
    /// BM25/flat fallback chain.
    QuorumFailed {
        /// Shards lost after the hedged probe.
        #[cfg_attr(
            not(test),
            allow(dead_code, reason = "the serving path degrades regardless of the count; tests assert on it")
        )]
        lost: u8,
        /// Shards fanned out to.
        #[cfg_attr(
            not(test),
            allow(dead_code, reason = "the serving path degrades regardless of the count; tests assert on it")
        )]
        total: u8,
        /// Probes issued (primaries + hedges).
        attempts: u32,
        /// Virtual time burned by faulted probes.
        delay: Duration,
    },
}

/// One scatter-gather pass: probe every shard (with hedging), merge the
/// survivors, and classify the outcome against the quorum. `probe` runs
/// the shard-local search; shards are visited in index order and the merge
/// is completion-order invariant, so the result is deterministic.
fn run_scatter(
    fanout: Fanout,
    plan: Option<&FaultPlan>,
    question: &str,
    k: usize,
    probe: impl Fn(u32) -> Vec<Hit>,
) -> Scattered {
    let total = fanout.shards;
    let mut parts: Vec<Vec<Hit>> = Vec::with_capacity(total as usize);
    let mut lost: u32 = 0;
    let mut attempts: u32 = 0;
    let mut delay = Duration::ZERO;
    for s in 0..total {
        metrics::SHARD_PROBES.inc();
        attempts += 1;
        if plan.and_then(|p| p.inject_shard(s, question, 0)).is_none() {
            parts.push(probe(s));
            continue;
        }
        // The primary probe overran its slice (or failed outright): charge
        // the slice and hedge against the replica.
        delay += fanout.slice;
        metrics::SHARD_HEDGES.inc();
        metrics::SHARD_PROBES.inc();
        attempts += 1;
        if plan.and_then(|p| p.inject_shard(s, question, 1)).is_none() {
            parts.push(probe(s));
            continue;
        }
        delay += fanout.slice;
        lost += 1;
        metrics::SHARD_LOST.inc();
    }
    let survivors = total - lost;
    let hits: Vec<ScoredChunk> = merge_hits(&parts, k)
        .into_iter()
        .map(|h| ScoredChunk { index: h.id, score: h.score })
        .collect();
    if lost == 0 {
        Scattered::Clean(hits)
    } else if survivors >= fanout.quorum {
        metrics::SHARD_PARTIAL_SERVES.inc();
        Scattered::Partial {
            hits,
            lost: lost.min(255) as u8,
            total: total.min(255) as u8,
            attempts,
            delay,
        }
    } else {
        metrics::SHARD_QUORUM_FAILURES.inc();
        Scattered::QuorumFailed {
            lost: lost.min(255) as u8,
            total: total.min(255) as u8,
            attempts,
            delay,
        }
    }
}

/// Scatter the dense retrieval slot over the shard set. `None` when the
/// system is unsharded (or holds no dense partition) — the caller runs
/// the monolithic path.
pub(crate) fn scatter_dense(
    sys: &RagSystem,
    plan: Option<&FaultPlan>,
    question: &str,
    query_vec: &[f32],
    k: usize,
) -> Option<Scattered> {
    let state = sys.shards.as_ref()?;
    let sharded = state.dense.as_ref()?;
    Some(run_scatter(state.fanout, plan, question, k, |s| {
        sharded.search_shard(s, query_vec, k)
    }))
}

/// Scatter the sparse (BM25 primary) retrieval slot over the shard set:
/// each probe filters the postings to one shard's chunks while keeping
/// the *global* document statistics, so per-shard scores are
/// cross-comparable and the merge equals the global ranking exactly.
/// `None` when the system is unsharded or not a BM25 primary.
pub(crate) fn scatter_bm25(
    sys: &RagSystem,
    plan: Option<&FaultPlan>,
    question: &str,
    k: usize,
) -> Option<Scattered> {
    let state = sys.shards.as_ref()?;
    let AnyRetriever::Bm25(bm25) = &sys.retriever else { return None };
    Some(run_scatter(state.fanout, plan, question, k, |s| {
        bm25.retrieve_shard(question, k, s, &state.assignment)
            .into_iter()
            .map(|c| Hit { id: c.index, score: c.score })
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_resilience::Rates;

    fn fanout(shards: u32, quorum: u32) -> Fanout {
        Fanout::new(shards, Some(quorum))
    }

    fn fake_probe(s: u32) -> Vec<Hit> {
        vec![Hit { id: s as usize, score: 1.0 - s as f32 * 0.1 }]
    }

    #[test]
    fn clean_scatter_merges_all_shards() {
        let out = run_scatter(fanout(4, 3), None, "q", 10, fake_probe);
        match out {
            Scattered::Clean(hits) => {
                assert_eq!(hits.len(), 4);
                assert_eq!(hits[0].index, 0, "best score first");
            }
            _ => panic!("no plan means no faults means clean"),
        }
    }

    #[test]
    fn one_lost_shard_serves_partial_with_quorum_intact() {
        let plan = FaultPlan::seeded(7).with_shard(2, Rates { transient: 1.0, ..Rates::default() });
        let out = run_scatter(fanout(4, 3), Some(&plan), "q", 10, fake_probe);
        match out {
            Scattered::Partial { hits, lost, total, attempts, delay } => {
                assert_eq!((lost, total), (1, 4));
                assert!(hits.iter().all(|h| h.index != 2), "lost shard contributed no hits");
                assert_eq!(hits.len(), 3);
                assert_eq!(attempts, 5, "4 primaries + 1 hedge");
                assert_eq!(delay, fanout(4, 3).slice * 2, "two faulted probes x slice");
            }
            _ => panic!("one loss at quorum 3/4 must serve partial"),
        }
    }

    #[test]
    fn losing_more_than_quorum_allows_fails_the_quorum() {
        let mut plan = FaultPlan::seeded(7);
        for s in 0..3 {
            plan = plan.with_shard(s, Rates { transient: 1.0, ..Rates::default() });
        }
        let out = run_scatter(fanout(4, 3), Some(&plan), "q", 10, fake_probe);
        match out {
            Scattered::QuorumFailed { lost, total, .. } => {
                assert_eq!((lost, total), (3, 4));
            }
            _ => panic!("3 lost of 4 at quorum 3 must fail the quorum"),
        }
    }

    #[test]
    fn transient_shard_fault_can_clear_on_the_hedge() {
        // Sweep seeds until a draw faults at attempt 0 but not attempt 1 —
        // the hedge saves the shard and the scatter stays clean.
        let mut saved = false;
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed)
                .with_shard(1, Rates { transient: 0.5, ..Rates::default() });
            let faulted0 = plan.inject_shard(1, "q", 0).is_some();
            let faulted1 = plan.inject_shard(1, "q", 1).is_some();
            if faulted0 && !faulted1 {
                let out = run_scatter(fanout(2, 1), Some(&plan), "q", 10, fake_probe);
                assert!(
                    matches!(out, Scattered::Clean(_)),
                    "seed {seed}: hedge cleared the fault, scatter must be clean"
                );
                saved = true;
                break;
            }
        }
        assert!(saved, "no seed in 0..64 exercised the hedge-save path");
    }

    #[test]
    fn scatter_is_deterministic_across_runs() {
        let plan = FaultPlan::seeded(11).with_shard(0, Rates { timeout: 1.0, ..Rates::default() });
        let describe = |out: Scattered| match out {
            Scattered::Clean(h) => format!("clean:{}", h.len()),
            Scattered::Partial { hits, lost, total, attempts, delay } => {
                format!("partial:{}:{lost}/{total}:{attempts}:{delay:?}", hits.len())
            }
            Scattered::QuorumFailed { lost, total, attempts, delay } => {
                format!("quorum:{lost}/{total}:{attempts}:{delay:?}")
            }
        };
        let a = describe(run_scatter(fanout(4, 3), Some(&plan), "same question", 5, fake_probe));
        let b = describe(run_scatter(fanout(4, 3), Some(&plan), "same question", 5, fake_probe));
        assert_eq!(a, b);
    }
}
