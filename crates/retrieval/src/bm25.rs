//! Okapi BM25 over an inverted index (paper retriever #2, §VII-A).
//!
//! Terms are stemmed but stopwords are kept — BM25's IDF term drives their
//! weight toward zero naturally, and dropping them would distort document
//! length normalisation.
//!
//! Layout: the postings are one `Vec` per vocabulary id (ids are dense), each
//! a chunk-ascending list of `(chunk, term frequency)`. A chunk's term
//! frequencies are counted by sorting its term ids and run-length counting
//! them. A query scores into one dense `f32` per chunk, adding each query
//! stem's contributions in stem order, remembers which chunks it touched,
//! and keeps the best `n` of those by a selection followed by a sort of the
//! `n` alone. The rank order is a strict total order (score descending under
//! `total_cmp`, then chunk ascending), so the hits are exactly those a full
//! sort would return.
//!
//! The term table is an `Arc<Vocab>` so a reranker can share it (its IDF is
//! this table: the same stems, ids and document frequencies). The index is
//! built once: a rebuild starts a new table, so a sharer keeps the table it
//! was handed.

use crate::{Retriever, ScoredChunk};
use sage_text::{TokenBuf, Vocab};
use std::cmp::Ordering;
use std::sync::Arc;

/// BM25 hyper-parameters (standard Okapi defaults).
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f32,
    /// Length normalisation strength.
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// BM25 retriever with an inverted index, built by [`Retriever::index`] or
/// merged from ranges by [`from_ranges`](Self::from_ranges).
#[derive(Debug, Clone)]
pub struct Bm25Retriever {
    params: Bm25Params,
    vocab: Arc<Vocab>,
    /// Indexed by term id: postings of (chunk index, term frequency),
    /// chunk-ascending.
    postings: Vec<Vec<(u32, u32)>>,
    /// Token count per chunk.
    chunk_len: Vec<u32>,
    avg_len: f32,
}

impl Default for Bm25Retriever {
    fn default() -> Self {
        Self::new()
    }
}

impl Bm25Retriever {
    /// New retriever with default parameters.
    pub fn new() -> Self {
        Self::with_params(Bm25Params::default())
    }

    /// New retriever with custom parameters.
    pub fn with_params(params: Bm25Params) -> Self {
        Self {
            params,
            vocab: Arc::default(),
            postings: Vec::new(),
            chunk_len: Vec::new(),
            avg_len: 0.0,
        }
    }

    /// Append the postings of `text` as the next chunk, tokenised through
    /// `tokens` with `ids` as scratch.
    fn post_chunk(&mut self, text: &str, tokens: &mut TokenBuf, ids: &mut Vec<u32>) {
        let ci = self.chunk_len.len() as u32;
        let vocab = Arc::make_mut(&mut self.vocab);
        tokens.fill(text);
        vocab.add_document(tokens, ids);
        self.postings.resize_with(vocab.len(), Vec::new);
        // A run of one id is that term's frequency in this chunk.
        for run in ids.chunk_by(|a, b| a == b) {
            self.postings[run[0] as usize].push((ci, run.len() as u32));
        }
        self.chunk_len.push(tokens.len() as u32);
    }

    /// The index over consecutive chunk ranges, each indexed on its own
    /// ([`Retriever::index`] over its slice, on any thread), in range
    /// order. The term tables merge ([`Vocab::merge`]), a range's chunk `i`
    /// becomes chunk `i` plus the chunks of the ranges before it, and each
    /// of its posting lists is appended to the merged list and dropped, so
    /// no second copy of the postings is ever whole. The result is the
    /// index over the concatenated chunks, bit for bit.
    pub fn from_ranges(ranges: impl IntoIterator<Item = Bm25Retriever>) -> Self {
        let mut ranges = ranges.into_iter();
        let Some(mut whole) = ranges.next() else {
            return Self::new();
        };
        for range in ranges {
            whole.append(range);
        }
        whole.set_avg_len();
        whole
    }

    /// Append `range`'s chunks after this index's own (see
    /// [`from_ranges`](Self::from_ranges)).
    fn append(&mut self, range: Bm25Retriever) {
        let offset = self.chunk_len.len() as u32;
        let vocab = Arc::make_mut(&mut self.vocab);
        let ids = vocab.merge(Arc::unwrap_or_clone(range.vocab));
        self.postings.resize_with(vocab.len(), Vec::new);
        for (local, list) in range.postings.into_iter().enumerate() {
            let merged = &mut self.postings[ids[local] as usize];
            merged.extend(list.into_iter().map(|(chunk, tf)| (chunk + offset, tf)));
        }
        self.chunk_len.extend(range.chunk_len);
    }

    /// The mean chunk length, summed in `u64` and divided once (0 over no
    /// chunks).
    fn set_avg_len(&mut self) {
        let total: u64 = self.chunk_len.iter().map(|&len| u64::from(len)).sum();
        let count = self.chunk_len.len();
        self.avg_len = if count == 0 { 0.0 } else { total as f32 / count as f32 };
    }

    /// The term table: every stem indexed, stopwords included, with its
    /// document frequency. It is the table `CrossScorer::fit_idf` fits over
    /// the same chunks.
    pub fn vocab(&self) -> &Arc<Vocab> {
        &self.vocab
    }
}

/// Rank order of hits: score descending under `total_cmp`, then chunk
/// index ascending. A strict total order over distinct chunks.
fn by_rank(a: &ScoredChunk, b: &ScoredChunk) -> Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.index.cmp(&b.index))
}

impl Retriever for Bm25Retriever {
    fn index(&mut self, chunks: &[String]) {
        self.vocab = Arc::default();
        self.postings.clear();
        self.chunk_len.clear();
        let mut tokens = TokenBuf::new();
        let mut ids = Vec::new();
        for chunk in chunks {
            self.post_chunk(chunk, &mut tokens, &mut ids);
        }
        self.set_avg_len();
    }

    fn retrieve(&self, query: &str, n: usize) -> Vec<ScoredChunk> {
        if self.chunk_len.is_empty() || n == 0 {
            return Vec::new();
        }
        sage_telemetry::metrics::BM25_SEARCHES.inc();
        // `touched` lists the chunks a posting reached, marked in `seen`; a
        // score may sum to zero, so `scores` cannot serve as the marker.
        let mut scores = vec![0.0f32; self.chunk_len.len()];
        let mut seen = vec![false; self.chunk_len.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut tokens = TokenBuf::new();
        tokens.fill(query);
        tokens.for_each_stem(|term| {
            let Some(id) = self.vocab.get(term) else { return };
            let Some(postings) = self.postings.get(id as usize) else { return };
            sage_telemetry::metrics::BM25_POSTINGS_SCANNED.add(postings.len() as u64);
            let idf = self.vocab.idf(id);
            for &(chunk, tf) in postings {
                let ci = chunk as usize;
                let tf = tf as f32;
                let len = self.chunk_len[ci] as f32;
                let denom =
                    tf + self.params.k1 * (1.0 - self.params.b + self.params.b * len / self.avg_len);
                let term_score = idf * tf * (self.params.k1 + 1.0) / denom;
                if !seen[ci] {
                    seen[ci] = true;
                    touched.push(chunk);
                }
                scores[ci] += term_score;
            }
        });
        let mut hits: Vec<ScoredChunk> = touched
            .into_iter()
            .map(|chunk| ScoredChunk { index: chunk as usize, score: scores[chunk as usize] })
            .collect();
        if hits.len() > n {
            hits.select_nth_unstable_by(n, by_rank);
            hits.truncate(n);
        }
        hits.sort_unstable_by(by_rank);
        hits
    }

    fn len(&self) -> usize {
        self.chunk_len.len()
    }

    fn name(&self) -> String {
        "BM25".to_string()
    }

    /// Postings (8 B a posting, plus one 24 B `Vec` header per term id),
    /// chunk lengths and 24 B a vocabulary term.
    fn memory_bytes(&self) -> usize {
        let postings: usize = self.postings.iter().map(|p| p.capacity() * 8).sum::<usize>()
            + self.postings.capacity() * size_of::<Vec<(u32, u32)>>();
        postings + self.chunk_len.capacity() * 4 + self.vocab.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks() -> Vec<String> {
        vec![
            "The cat has bright green eyes and soft fur.".to_string(),
            "The dog chased the cat around the yard.".to_string(),
            "Rockets carried the crew toward the distant moon.".to_string(),
            "The moon shone over the quiet harbor town.".to_string(),
            "Bakers knead dough before the town wakes.".to_string(),
        ]
    }

    fn indexed() -> Bm25Retriever {
        let mut r = Bm25Retriever::new();
        r.index(&chunks());
        r
    }

    #[test]
    fn top_hit_shares_vocabulary() {
        let r = indexed();
        let hits = r.retrieve("what color are the cat's eyes", 3);
        assert_eq!(hits[0].index, 0, "{hits:?}");
    }

    #[test]
    fn scores_descend() {
        let r = indexed();
        let hits = r.retrieve("the moon", 5);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn no_match_returns_empty() {
        let r = indexed();
        assert!(r.retrieve("zyzzyva quux", 3).is_empty());
    }

    #[test]
    fn idf_downweights_ubiquitous_terms() {
        let r = indexed();
        // "the" appears everywhere; querying it alone must not rank any
        // chunk far above the rest.
        let hits = r.retrieve("the", 5);
        if hits.len() >= 2 {
            assert!(hits[0].score < 1.0, "stopword score too high: {}", hits[0].score);
        }
    }

    #[test]
    fn stemming_matches_variants() {
        let r = indexed();
        let hits = r.retrieve("rocket", 2); // indexed text says "Rockets"
        assert!(!hits.is_empty());
        assert_eq!(hits[0].index, 2);
    }

    #[test]
    fn reindex_replaces_old_state() {
        let mut r = indexed();
        r.index(&["completely different text about pianos".to_string()]);
        assert_eq!(r.len(), 1);
        assert!(r.retrieve("cat", 3).is_empty());
        assert!(!r.retrieve("piano", 3).is_empty());
    }

    #[test]
    fn empty_index_and_zero_n() {
        let mut r = Bm25Retriever::new();
        r.index(&[]);
        assert!(r.retrieve("anything", 3).is_empty());
        let r2 = indexed();
        assert!(r2.retrieve("cat", 0).is_empty());
    }

    #[test]
    fn length_normalisation_prefers_focused_chunks() {
        let mut r = Bm25Retriever::new();
        r.index(&[
            "green eyes".to_string(),
            "green eyes and a very long trailing description of many unrelated things in the \
             garden near the fence by the road"
                .to_string(),
        ]);
        let hits = r.retrieve("green eyes", 2);
        assert_eq!(hits[0].index, 0, "shorter chunk should win: {hits:?}");
    }

    #[test]
    fn memory_is_positive() {
        assert!(indexed().memory_bytes() > 0);
    }

    #[test]
    fn ranges_merge_into_the_whole_index() {
        let chunks = chunks();
        let whole = indexed();
        for cuts in [&[][..], &[2], &[1, 4], &[0, 5], &[1, 2, 3, 4]] {
            let mut ranges = Vec::new();
            let mut start = 0;
            for &end in cuts.iter().chain([&chunks.len()]) {
                let mut range = Bm25Retriever::new();
                range.index(&chunks[start..end]);
                ranges.push(range);
                start = end;
            }
            let merged = Bm25Retriever::from_ranges(ranges);
            assert_eq!(merged.vocab.terms(), whole.vocab.terms(), "{cuts:?}");
            assert_eq!(merged.vocab.doc_freqs(), whole.vocab.doc_freqs(), "{cuts:?}");
            assert_eq!(merged.vocab.num_docs(), whole.vocab.num_docs(), "{cuts:?}");
            assert_eq!(merged.postings, whole.postings, "{cuts:?}");
            assert_eq!(merged.chunk_len, whole.chunk_len, "{cuts:?}");
            assert_eq!(merged.avg_len.to_bits(), whole.avg_len.to_bits(), "{cuts:?}");
        }
        assert!(Bm25Retriever::from_ranges([]).is_empty());
    }
}
