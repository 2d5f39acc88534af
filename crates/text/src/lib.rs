//! # sage-text
//!
//! Text-processing substrate for the SAGE RAG framework.
//!
//! Every other crate in the workspace funnels raw text through this crate:
//! the segmentation model consumes [`split_sentences`] output, the BM25 and
//! dense retrievers consume [`tokenize`] + [`stem`] output, the metrics crate
//! compares token streams, and the LLM cost model (paper Eq. 1) counts tokens
//! with [`count_tokens`].
//!
//! The implementation is self-contained (no external NLP dependencies) and
//! deterministic, which keeps every experiment in the bench harness exactly
//! reproducible.
//!
//! ## Modules
//!
//! - [`token`] — word tokenization and LLM-style token counting
//! - [`sentence`] — sentence and paragraph splitting (paper §III-A splits
//!   paragraphs on `'\n'` before fine-grained segmentation)
//! - [`stem`] — a Porter-style suffix stripper used by BM25 and METEOR
//! - [`stopwords`] — a small English stopword list
//! - [`ngram`] — n-gram extraction and stable feature hashing
//! - [`proper`] — capitalised surface forms (entity mentions)
//! - [`vocab`] — string interning / vocabulary management

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod ngram;
pub mod proper;
pub mod sentence;
pub mod stem;
pub mod stopwords;
pub mod token;
pub mod vocab;

pub use ngram::{bigrams, hash_bigram, hash_token, ngrams, HashedFeature};
pub use proper::{is_capitalized, proper_nouns, WordSet};
pub use sentence::{split_paragraphs, split_sentences};
pub use stem::{stem, stem_into};
pub use stopwords::is_stopword;
pub use token::{count_tokens, normalize, tokenize, tokenize_filtered, TokenBuf};
pub use vocab::Vocab;
