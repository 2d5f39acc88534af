//! String interning / vocabulary management.
//!
//! The BM25 inverted index and the trainable encoders address terms by dense
//! `u32` ids rather than strings. `Vocab` provides the bidirectional map and
//! document-frequency bookkeeping needed for IDF weighting.

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
    pub fn record_document(&mut self, term_ids: &[u32]) {
        self.num_docs += 1;
        let mut seen: Vec<u32> = term_ids.to_vec();
        seen.sort_unstable();
        seen.dedup();
        for id in seen {
            if let Some(df) = self.doc_freq.get_mut(id as usize) {
                *df += 1;
            }
        }
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

    #[test]
    fn empty_vocab() {
        let v = Vocab::new();
        assert!(v.is_empty());
        assert_eq!(v.num_docs(), 0);
    }
}
