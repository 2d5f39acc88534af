//! The index build after segmentation (Figure 2 (A), steps 3–4), on every
//! core, each chunk analysed once.
//!
//! The chunk list is cut into consecutive ranges, one per worker, every
//! boundary moved down to a multiple of the `FlatIndex` tile
//! ([`chunk_ranges`]: a list under two tiles stays one range), and each
//! range is built on its own scoped thread ([`on_ranges`]). A dense range fills one [`Analysis`] per chunk, in
//! reused buffers, and that one fill feeds both the chunk's row — written
//! with its norm into the range's stretch of the index's columns
//! ([`FlatIndex::rows_mut`]) — and, when the system reranks, its stems into
//! the range's IDF table ([`Vocab::add_document`]). A BM25 range is a BM25
//! index over its own chunks. The ranges' term tables merge in range order
//! ([`Vocab::merge`]: first occurrence keeps a term's id, frequencies add)
//! and BM25 postings append in range order ([`Bm25Retriever::from_ranges`]),
//! so every row, table and posting is the one-range build's, bit for bit, at
//! any worker count.

#![expect(
    clippy::disallowed_methods,
    reason = "range workers time their phases for BuildStats; nothing branches on the readings"
)]

use crate::result::{BuildPhases, PhaseTime};
use crate::retriever::AnyRetriever;
use crate::segmentation::on_ranges;
use sage_embed::{Analysis, Embedder};
use sage_retrieval::{Bm25Retriever, DenseRetriever, Retriever};
use sage_text::Vocab;
use sage_vecdb::{FlatIndex, Metric, BLOCK};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cut `len` chunks into at most `parts` consecutive ranges of about equal
/// length, each boundary moved down to a multiple of [`BLOCK`] — the start
/// [`FlatIndex::rows_mut`] asks of a range. The alignment sets the smallest
/// range worth a thread: empty ranges are dropped, so fewer than
/// `2 × BLOCK` chunks make one range, built on the caller's thread (every
/// `doc_qa` document), and no chunks none.
pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let mut bounds: Vec<usize> = (0..parts).map(|k| len * k / parts / BLOCK * BLOCK).collect();
    bounds.push(len);
    bounds.dedup();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// What a (re)build over a chunk list produced besides the retriever.
pub(crate) struct Indexed {
    /// The reranker's IDF table over the chunks, when one was asked for: a
    /// BM25 index's own term table, or the one a dense build takes beside
    /// its rows.
    pub idf: Option<Arc<Vocab>>,
    /// The `embed`, `idf` and `bm25` phases (`segment` is zero).
    pub phases: BuildPhases,
}

impl AnyRetriever {
    /// `self`, with its embedder, rebuilt over `chunks` on up to `parts`
    /// ranges, and the IDF table if `idf`.
    pub(crate) fn index_on(self, chunks: &[String], parts: usize, idf: bool) -> (Self, Indexed) {
        let ranges = chunk_ranges(chunks.len(), parts);
        match self {
            AnyRetriever::Hashed(r) => {
                let (r, indexed) = dense(r.into_embedder(), chunks, &ranges, idf);
                (AnyRetriever::Hashed(r), indexed)
            }
            AnyRetriever::Sbert(r) => {
                let (r, indexed) = dense(r.into_embedder(), chunks, &ranges, idf);
                (AnyRetriever::Sbert(r), indexed)
            }
            AnyRetriever::Dpr(r) => {
                let (r, indexed) = dense(r.into_embedder(), chunks, &ranges, idf);
                (AnyRetriever::Dpr(r), indexed)
            }
            AnyRetriever::Bm25(_) => {
                let (bm25, time) = bm25_on_ranges(chunks, &ranges);
                let idf = idf.then(|| Arc::clone(bm25.vocab()));
                let phases = BuildPhases { bm25: time, ..BuildPhases::default() };
                (AnyRetriever::Bm25(bm25), Indexed { idf, phases })
            }
        }
    }
}

/// A BM25 index over `chunks`, on one range per core: the lazily built
/// fallback tier, and a saved BM25 system's index at load.
pub(crate) fn bm25_on_every_core(chunks: &[String]) -> Bm25Retriever {
    bm25_on_ranges(chunks, &chunk_ranges(chunks.len(), crate::segmentation::workers())).0
}

/// A BM25 index over `chunks`, one per range merged in range order.
fn bm25_on_ranges(chunks: &[String], ranges: &[Range<usize>]) -> (Bm25Retriever, PhaseTime) {
    let start = Instant::now();
    let parts = on_ranges(ranges.to_vec(), |range| {
        let worker_start = Instant::now();
        let mut bm25 = Bm25Retriever::new();
        bm25.index(&chunks[range]);
        (bm25, worker_start.elapsed())
    });
    let mut busy: Duration = parts.iter().map(|part| part.1).sum();
    let merge_start = Instant::now();
    let bm25 = Bm25Retriever::from_ranges(parts.into_iter().map(|part| part.0));
    busy += merge_start.elapsed();
    (bm25, PhaseTime { wall: start.elapsed(), busy })
}

/// A dense retriever over `chunks`, its rows filled range by range, and the
/// IDF table if `idf`, from one analysis of each chunk.
fn dense<E: Embedder>(
    embedder: E,
    chunks: &[String],
    ranges: &[Range<usize>],
    idf: bool,
) -> (DenseRetriever<E>, Indexed) {
    let start = Instant::now();
    let mut index = FlatIndex::zeroed(Metric::Cosine, embedder.dim(), chunks.len());
    let parts = on_ranges(index.rows_mut(ranges), |rows| {
        let worker_start = Instant::now();
        let mut analysis = Analysis::default();
        let mut table = idf.then(Vocab::new);
        let (mut ids, mut stems) = (Vec::new(), Duration::ZERO);
        rows.fill(|id, row| {
            analysis.fill(&chunks[id]);
            embedder.embed_analysed(&mut analysis, row);
            if let Some(table) = &mut table {
                let stems_start = Instant::now();
                table.add_document(&mut analysis.tokens, &mut ids);
                stems += stems_start.elapsed();
            }
        });
        (table, worker_start.elapsed() - stems, stems)
    });
    let embed_busy: Duration = parts.iter().map(|part| part.1).sum();
    let stems_busy: Duration = parts.iter().map(|part| part.2).sum();
    let pass = start.elapsed();
    let merge_start = Instant::now();
    let table = idf.then(|| {
        let mut tables = parts.into_iter().filter_map(|part| part.0);
        let mut whole = tables.next().unwrap_or_default();
        for range in tables {
            whole.merge(range);
        }
        Arc::new(whole)
    });
    let merge = merge_start.elapsed();
    // The pass ran both phases chunk by chunk: split its wall by busy time.
    let total_busy = embed_busy + stems_busy;
    let embed_wall = if total_busy.is_zero() {
        pass
    } else {
        pass.mul_f64(embed_busy.as_secs_f64() / total_busy.as_secs_f64())
    };
    let phases = BuildPhases {
        embed: PhaseTime { wall: embed_wall, busy: embed_busy },
        idf: if idf {
            PhaseTime { wall: pass.saturating_sub(embed_wall) + merge, busy: stems_busy + merge }
        } else {
            PhaseTime::default()
        },
        ..BuildPhases::default()
    };
    (DenseRetriever::from_parts(embedder, index), Indexed { idf: table, phases })
}
