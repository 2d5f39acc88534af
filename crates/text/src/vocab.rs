//! String interning / vocabulary management.
//!
//! The BM25 inverted index and the trainable encoders address terms by dense
//! `u32` ids rather than strings. `Vocab` provides the bidirectional map and
//! document-frequency bookkeeping needed for IDF weighting. Tables built over
//! consecutive ranges of a document stream [`merge`](Vocab::merge) into the
//! table of the whole stream.

use crate::TokenBuf;

/// A growable vocabulary interning strings to dense ids, with optional
/// document-frequency counts.
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    #[expect(
        clippy::disallowed_types,
        reason = "id lookup table only; every enumeration goes through the id-ordered `terms` Vec"
    )]
    by_term: std::collections::HashMap<String, u32>,
    terms: Vec<String>,
    doc_freq: Vec<u32>,
    num_docs: u32,
}

impl Vocab {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.by_term.insert(term.to_string(), id);
        self.terms.push(term.to_string());
        self.doc_freq.push(0);
        id
    }

    /// Look up an id without inserting.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.by_term.get(term).copied()
    }

    /// The term for an id, if valid.
    pub fn term(&self, id: u32) -> Option<&str> {
        self.terms.get(id as usize).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Record one document's terms for document-frequency accounting.
    /// `term_ids` may contain duplicates; each distinct id counts once.
    /// Strictly ascending ids (already sorted and deduplicated, as BM25
    /// passes them) are counted in place, without a copy or a sort.
    pub fn record_document(&mut self, term_ids: &[u32]) {
        self.num_docs += 1;
        let mut count = |ids: &[u32]| {
            for &id in ids {
                if let Some(df) = self.doc_freq.get_mut(id as usize) {
                    *df += 1;
                }
            }
        };
        if term_ids.is_sorted_by(|a, b| a < b) {
            count(term_ids);
        } else {
            let mut seen: Vec<u32> = term_ids.to_vec();
            seen.sort_unstable();
            seen.dedup();
            count(&seen);
        }
    }

    /// Intern every stem of `tokens` (stopwords included: the term stream
    /// of BM25 and of the reranker's IDF) as one more document. `ids` is
    /// left holding the document's term ids sorted ascending, a term once
    /// per occurrence, so a run of one id is that term's frequency; each
    /// distinct id counts once towards its document frequency.
    pub fn add_document(&mut self, tokens: &mut TokenBuf, ids: &mut Vec<u32>) {
        ids.clear();
        tokens.for_each_stem(|term| ids.push(self.intern(term)));
        ids.sort_unstable();
        self.num_docs += 1;
        for run in ids.chunk_by(|a, b| a == b) {
            self.doc_freq[run[0] as usize] += 1;
        }
    }

    /// Add `other` to this table as if its documents had been recorded here
    /// after this table's own: each of its terms, in its id order, keeps the
    /// id it has here or takes the next free one, and its document frequency
    /// and document count add. Returns the id here of each of `other`'s
    /// terms, indexed by its id there. So interning a stream cut into
    /// consecutive ranges and merging the ranges' tables in order gives the
    /// table of the whole stream: the same ids, frequencies and count.
    pub fn merge(&mut self, other: Vocab) -> Vec<u32> {
        let Vocab { by_term, terms, doc_freq, num_docs } = other;
        // Its lookup table is never read: free it before this one grows.
        drop(by_term);
        self.num_docs += num_docs;
        terms
            .into_iter()
            .zip(doc_freq)
            .map(|(term, df)| {
                let id = match self.by_term.get(&term) {
                    Some(&id) => id,
                    None => {
                        let id = self.terms.len() as u32;
                        self.by_term.insert(term.clone(), id);
                        self.terms.push(term);
                        self.doc_freq.push(0);
                        id
                    }
                };
                self.doc_freq[id as usize] += df;
                id
            })
            .collect()
    }

    /// Number of documents recorded.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Document frequency of a term id.
    pub fn doc_freq(&self, id: u32) -> u32 {
        self.doc_freq.get(id as usize).copied().unwrap_or(0)
    }

    /// All interned terms in id order (serialization).
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// All interned terms in id order, the lookup table freed unread.
    pub fn into_terms(self) -> Vec<String> {
        self.terms
    }

    /// All document frequencies in id order (serialization).
    pub fn doc_freqs(&self) -> &[u32] {
        &self.doc_freq
    }

    /// Rebuild from persisted parts. `None` when lengths mismatch or terms
    /// contain duplicates.
    pub fn from_parts(terms: Vec<String>, doc_freq: Vec<u32>, num_docs: u32) -> Option<Self> {
        if terms.len() != doc_freq.len() {
            return None;
        }
        #[expect(
            clippy::disallowed_types,
            reason = "rebuilt lookup table for the same id-ordered `terms` Vec; never iterated"
        )]
        let mut by_term = std::collections::HashMap::with_capacity(terms.len());
        for (id, term) in terms.iter().enumerate() {
            if by_term.insert(term.clone(), id as u32).is_some() {
                return None;
            }
        }
        Some(Self { by_term, terms, doc_freq, num_docs })
    }

    /// Smoothed inverse document frequency:
    /// `ln(1 + (N - df + 0.5)/(df + 0.5))`, the BM25 IDF form, always ≥ 0.
    pub fn idf(&self, id: u32) -> f32 {
        let n = self.num_docs as f32;
        let df = self.doc_freq(id) as f32;
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("cat");
        let b = v.intern("dog");
        assert_ne!(a, b);
        assert_eq!(v.intern("cat"), a);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn roundtrip_term() {
        let mut v = Vocab::new();
        let id = v.intern("whiskers");
        assert_eq!(v.term(id), Some("whiskers"));
        assert_eq!(v.get("whiskers"), Some(id));
        assert_eq!(v.get("absent"), None);
        assert_eq!(v.term(999), None);
    }

    #[test]
    fn doc_freq_counts_distinct_per_doc() {
        let mut v = Vocab::new();
        let cat = v.intern("cat");
        let dog = v.intern("dog");
        v.record_document(&[cat, cat, dog]);
        v.record_document(&[cat]);
        assert_eq!(v.num_docs(), 2);
        assert_eq!(v.doc_freq(cat), 2);
        assert_eq!(v.doc_freq(dog), 1);
    }

    fn three_terms() -> (Vocab, [u32; 3]) {
        let mut v = Vocab::new();
        let ids = [v.intern("cat"), v.intern("dog"), v.intern("owl")];
        (v, ids)
    }

    #[test]
    fn strictly_ascending_ids_are_counted_in_place() {
        let (mut v, [cat, dog, owl]) = three_terms();
        v.record_document(&[cat, dog, owl]);
        v.record_document(&[dog]);
        v.record_document(&[]);
        assert_eq!(v.num_docs(), 3);
        assert_eq!(v.doc_freqs(), &[1, 2, 1]);
    }

    #[test]
    fn unsorted_or_repeated_ids_count_each_distinct_id_once() {
        let (mut v, [cat, dog, owl]) = three_terms();
        // Descending, repeated out of order, and sorted but repeated: none
        // is strictly ascending, so each takes the copying path.
        v.record_document(&[owl, cat, dog]);
        v.record_document(&[dog, cat, dog, dog]);
        v.record_document(&[cat, cat, owl]);
        assert_eq!(v.num_docs(), 3);
        assert_eq!(v.doc_freqs(), &[3, 2, 2]);
        // Either path counts a document the same.
        let (mut sorted, _) = three_terms();
        sorted.record_document(&[cat, dog, owl]);
        sorted.record_document(&[cat, dog]);
        sorted.record_document(&[cat, owl]);
        assert_eq!(sorted.doc_freqs(), v.doc_freqs());
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let mut v = Vocab::new();
        let common = v.intern("the");
        let rare = v.intern("zyzzyva");
        for i in 0..10 {
            if i == 0 {
                v.record_document(&[common, rare]);
            } else {
                v.record_document(&[common]);
            }
        }
        assert!(v.idf(rare) > v.idf(common));
        assert!(v.idf(common) >= 0.0);
    }

    /// The term stream of `docs`, one document each, interned whole.
    fn interned(docs: &[Vec<String>]) -> Vocab {
        let mut v = Vocab::new();
        for doc in docs {
            let ids: Vec<u32> = doc.iter().map(|t| v.intern(t)).collect();
            v.record_document(&ids);
        }
        v
    }

    fn assert_same_table(a: &Vocab, b: &Vocab) {
        assert_eq!(a.terms(), b.terms());
        assert_eq!(a.doc_freqs(), b.doc_freqs());
        assert_eq!(a.num_docs(), b.num_docs());
    }

    #[test]
    fn add_document_interns_stems_and_sorts_ids() {
        let mut tokens = TokenBuf::new();
        let mut ids = Vec::new();
        let mut v = Vocab::new();
        tokens.fill("Cats chase cats; the dog chases.");
        v.add_document(&mut tokens, &mut ids);
        let (cat, chase) = (v.get("cat").expect("cat"), v.get("chase").expect("chase"));
        assert_eq!(ids.iter().filter(|&&id| id == cat).count(), 2);
        assert_eq!(ids.iter().filter(|&&id| id == chase).count(), 2);
        assert!(ids.is_sorted());
        tokens.fill("A cat.");
        v.add_document(&mut tokens, &mut ids);
        assert_eq!((v.num_docs(), v.doc_freq(cat), v.doc_freq(chase)), (2, 2, 1));
        // The same documents through `intern` and `record_document`.
        let mut by_hand = Vocab::new();
        for text in ["Cats chase cats; the dog chases.", "A cat."] {
            tokens.fill(text);
            let mut doc = Vec::new();
            tokens.for_each_stem(|stem| doc.push(by_hand.intern(stem)));
            by_hand.record_document(&doc);
        }
        assert_same_table(&v, &by_hand);
    }

    #[test]
    fn merge_returns_the_id_map() {
        let docs = |words: &[&str]| vec![words.iter().map(|w| w.to_string()).collect()];
        let mut v = interned(&docs(&["owl", "cat"]));
        let map = v.merge(interned(&docs(&["dog", "owl", "dog"])));
        assert_eq!(map, [2, 0]);
        assert_eq!(v.terms(), ["owl", "cat", "dog"]);
        assert_eq!((v.doc_freqs(), v.num_docs()), (&[2, 1, 1][..], 2));
        assert_eq!(v.get("dog"), Some(2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A stream of documents cut at random points into consecutive
        /// ranges, each interned on its own and merged in order, is the
        /// stream interned whole.
        #[test]
        fn merged_ranges_equal_serial_interning(
            docs in proptest::collection::vec(
                proptest::collection::vec("[abcde]{1,2}", 0..6),
                0..24,
            ),
            cuts in proptest::collection::vec(0..25usize, 0..4),
        ) {
            let whole = interned(&docs);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(docs.len())).collect();
            cuts.sort_unstable();
            let mut merged = Vocab::new();
            let mut start = 0;
            for end in cuts.into_iter().chain([docs.len()]) {
                let part = interned(&docs[start..end]);
                let map = merged.merge(part.clone());
                for (local, term) in part.terms().iter().enumerate() {
                    proptest::prop_assert_eq!(merged.get(term), Some(map[local]));
                }
                start = end;
            }
            proptest::prop_assert_eq!(merged.terms(), whole.terms());
            proptest::prop_assert_eq!(merged.doc_freqs(), whole.doc_freqs());
            proptest::prop_assert_eq!(merged.num_docs(), whole.num_docs());
            for term in whole.terms() {
                proptest::prop_assert_eq!(merged.get(term), whole.get(term));
            }
            proptest::prop_assert_eq!(merged.get("zz"), None);
        }
    }

    #[test]
    fn empty_vocab() {
        let v = Vocab::new();
        assert!(v.is_empty());
        assert_eq!(v.num_docs(), 0);
    }
}
