//! # sage-corpus
//!
//! Synthetic dataset substrate. The paper evaluates on QuALITY, QASPER,
//! NarrativeQA, and TriviaQA, and trains its segmentation model on
//! Wikipedia — none of which can be downloaded in this offline environment.
//! This crate generates analog corpora that reproduce the *mechanisms* those
//! datasets exercise (see DESIGN.md §1 for the substitution argument):
//!
//! * **Entity-fact world model** ([`facts`], [`lexicon`]): documents are
//!   built from (entity, relation, value) facts rendered through templates.
//!   Ground truth — which sentences carry the evidence for each question —
//!   is therefore known exactly.
//! * **Pronoun coreference** ([`render`]): inside a paragraph, facts about
//!   an entity are often stated with pronouns ("He has bright green
//!   eyes."), so splitting a paragraph mid-way produces exactly the
//!   semantically broken chunks of the paper's Figure 3 (limitation L1).
//! * **Conflicting distractors** ([`document`]): other entities share
//!   relations with different values ("Brone's eyes are orange"), creating
//!   the noisy chunks of Figure 8 (limitation L2).
//! * **Elimination questions** ([`qa`]): "Which technology was NOT
//!   developed by X?" needs many evidence chunks at once — the missing
//!   retrieval case of Figure 9.
//!
//! Dataset generators live in [`datasets`]; trainable-model data
//! (paraphrase pairs, DPR triples, segmentation sentence pairs) in
//! [`training`]. Everything is deterministic given a seed.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod datasets;
pub mod document;
pub mod facts;
pub mod lexicon;
pub mod qa;
pub mod render;
pub mod training;

pub use document::{Dataset, Document, QaTask};
pub use facts::{Entity, EntityKind, Fact, RelationSpec, RELATIONS};
pub use lexicon::Lexicon;
pub use qa::{QaItem, QuestionKind};
