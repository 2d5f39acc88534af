//! Every comparison method from the paper's §VII-A, behind one [`Method`]
//! enum. `Method::build` constructs a per-document (or per-corpus)
//! [`DocSystem`] that answers questions with the same [`QueryResult`]
//! bookkeeping as SAGE, so the experiment harness treats all methods
//! uniformly.
//!
//! | Paper method | Here |
//! |---|---|
//! | Naive RAG | [`Method::NaiveRag`] — 200-token sentence chunks, fixed top-K |
//! | Title+Abstract | [`Method::TitleAbstract`] |
//! | BM25+BERT | [`Method::Bm25Bert`] — BM25 retrieval + reranker, fixed K |
//! | Recursively Summarizing Books | [`Method::RecursiveSummary`] |
//! | RAPTOR | [`Method::Raptor`] — cluster-summary tree, collapsed retrieval |
//! | BiDAF | [`Method::BiDaf`] — truncated-window reader |
//! | Longformer-base | [`Method::Longformer`] — whole-document reader |
//! | CoLISA | [`Method::Colisa`] — question+option sentence selection |
//! | DPR+DeBERTaV3 | [`Method::DprReader`] — DPR retrieval, fixed K |
//! | SAGE | [`Method::Sage`] |

use crate::config::{RetrieverKind, SageConfig};
use crate::models::TrainedModels;
use crate::pipeline::{QueryResult, RagSystem, Request};
use sage_corpus::Document;
use sage_embed::{Embedder, HashedEmbedder};
use sage_llm::{LlmProfile, SimLlm};
use sage_segment::Segmenter;
use sage_text::{count_tokens, is_capitalized, is_stopword, split_sentences, stem, tokenize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A QA method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Full SAGE with the given first-stage retriever.
    Sage(RetrieverKind),
    /// Naive RAG with the given retriever.
    NaiveRag(RetrieverKind),
    /// Any explicit configuration (ablation rows).
    Custom(RetrieverKind, SageConfig),
    /// Title + abstract as the only context.
    TitleAbstract,
    /// BM25 retrieval + reranker at fixed K.
    Bm25Bert,
    /// Recursive extractive summarization, then QA over the summary.
    RecursiveSummary,
    /// RAPTOR-style cluster-summary tree with collapsed retrieval.
    Raptor,
    /// BiDAF analog: reads only a truncated window of the document.
    BiDaf,
    /// Longformer analog: reads the whole document (up to a budget).
    Longformer,
    /// CoLISA analog: question+option-driven sentence selection.
    Colisa,
    /// DPR retrieval + reader at fixed K.
    DprReader,
}

impl Method {
    /// Table label.
    pub fn label(&self) -> String {
        match self {
            Method::Sage(r) => format!("SAGE ({})", r.label()),
            Method::NaiveRag(r) => format!("Naive RAG ({})", r.label()),
            Method::Custom(r, _) => format!("Custom ({})", r.label()),
            Method::TitleAbstract => "Title+Abstract".to_string(),
            Method::Bm25Bert => "BM25+BERT".to_string(),
            Method::RecursiveSummary => "Recursively Summarizing Books".to_string(),
            Method::Raptor => "RAPTOR".to_string(),
            Method::BiDaf => "BiDAF".to_string(),
            Method::Longformer => "Longformer-base".to_string(),
            Method::Colisa => "CoLISA".to_string(),
            Method::DprReader => "DPR".to_string(),
        }
    }

    /// Build the method's system over one document.
    pub fn build(
        &self,
        models: &TrainedModels,
        profile: LlmProfile,
        doc: &Document,
    ) -> DocSystem {
        let corpus = vec![doc.text()];
        match self {
            Method::Sage(kind) => DocSystem::Rag(Box::new(RagSystem::build(
                models,
                *kind,
                SageConfig::sage(),
                profile,
                &corpus,
            ))),
            Method::NaiveRag(kind) => DocSystem::Rag(Box::new(RagSystem::build(
                models,
                *kind,
                SageConfig::naive_rag(),
                profile,
                &corpus,
            ))),
            Method::Custom(kind, config) => DocSystem::Rag(Box::new(RagSystem::build(
                models, *kind, *config, profile, &corpus,
            ))),
            Method::Bm25Bert => DocSystem::Rag(Box::new(RagSystem::build(
                models,
                RetrieverKind::Bm25,
                SageConfig::rerank_fixed_k(),
                profile,
                &corpus,
            ))),
            Method::DprReader => DocSystem::Rag(Box::new(RagSystem::build(
                models,
                RetrieverKind::Dpr,
                SageConfig { min_k: 5, ..SageConfig::naive_rag() },
                profile,
                &corpus,
            ))),
            Method::TitleAbstract => DocSystem::FixedContext {
                context: vec![doc.title.clone(), doc.abstract_text.clone()],
                llm: SimLlm::new(profile),
            },
            Method::RecursiveSummary => DocSystem::FixedContext {
                context: recursive_summary(&doc.text(), 800),
                llm: SimLlm::new(profile),
            },
            Method::BiDaf => DocSystem::FixedContext {
                context: truncate_tokens(&doc.text(), 300),
                llm: SimLlm::new(profile),
            },
            Method::Longformer => DocSystem::FixedContext {
                context: truncate_tokens(&doc.text(), 4096),
                llm: SimLlm::new(profile),
            },
            Method::Colisa => DocSystem::Colisa {
                sentences: doc
                    .paragraphs
                    .iter()
                    .flat_map(|p| split_sentences(p))
                    .map(str::to_string)
                    .collect(),
                llm: SimLlm::new(profile),
                keep: 12,
            },
            Method::Raptor => DocSystem::Rag(Box::new(build_raptor(models, profile, doc))),
        }
    }
}

/// A built per-document QA system.
pub enum DocSystem {
    /// Retrieval-based (SAGE / Naive / BM25+BERT / DPR / RAPTOR). Boxed:
    /// a built system is orders of magnitude larger than the other
    /// variants.
    Rag(Box<RagSystem>),
    /// A fixed context independent of the question.
    FixedContext {
        /// Context chunks.
        context: Vec<String>,
        /// The reader.
        llm: SimLlm,
    },
    /// CoLISA-style question+option sentence selection.
    Colisa {
        /// All document sentences.
        sentences: Vec<String>,
        /// The reader.
        llm: SimLlm,
        /// Sentences kept as context.
        keep: usize,
    },
}

impl DocSystem {
    /// Answer a question (open-ended when `options` is `None`).
    pub fn answer(&self, question: &str, options: Option<&[String]>) -> QueryResult {
        match self {
            DocSystem::Rag(system) => {
                crate::exec::execute(system, &Request { options, ..Request::new(question) })
            }
            DocSystem::FixedContext { context, llm } => {
                answer_with_context(llm, question, options, context.clone(), Duration::ZERO)
            }
            DocSystem::Colisa { sentences, llm, keep } => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "retrieval latency bookkeeping feeding QueryResult, mirroring the pipeline's timing; nothing branches on it"
                )]
                let start = Instant::now();
                let context = colisa_select(sentences, question, options, *keep);
                let retrieval = start.elapsed();
                answer_with_context(llm, question, options, context, retrieval)
            }
        }
    }
}

/// Wrap a plain LLM call in the common [`QueryResult`] bookkeeping.
fn answer_with_context(
    llm: &SimLlm,
    question: &str,
    options: Option<&[String]>,
    context: Vec<String>,
    retrieval_latency: Duration,
) -> QueryResult {
    let (picked, answer) = match options {
        Some(opts) => {
            let (idx, a) = llm.answer_multiple_choice(question, opts, &context);
            (Some(idx), a)
        }
        None => (None, llm.answer_open(question, &context)),
    };
    QueryResult::single_read(answer, picked, Vec::new(), retrieval_latency)
}

/// Sentence-aligned truncation to roughly `budget` tokens, returned as one
/// chunk (the reader sees a contiguous window, so coreference works).
fn truncate_tokens(text: &str, budget: usize) -> Vec<String> {
    let mut kept = Vec::new();
    let mut used = 0usize;
    'outer: for paragraph in sage_text::split_paragraphs(text) {
        for sentence in split_sentences(paragraph) {
            let t = count_tokens(sentence);
            if used + t > budget && used > 0 {
                break 'outer;
            }
            used += t;
            kept.push(sentence);
        }
    }
    if kept.is_empty() {
        vec![]
    } else {
        vec![kept.join(" ")]
    }
}

/// Rewrite sentence-initial pronouns to the most recent subject name —
/// the abstractive step of summarization ("He sang…" → "Gavir sang…"),
/// which keeps extracted sentences self-contained after their antecedents
/// are dropped. Purely textual: the subject is the most recent sentence-
/// initial-or-early capitalised non-stopword.
fn flatten_coreference(text: &str) -> String {
    let mut out_paragraphs = Vec::new();
    for paragraph in sage_text::split_paragraphs(text) {
        let mut last_subject: Option<String> = None;
        let mut rewritten = Vec::new();
        for sentence in split_sentences(paragraph) {
            let words: Vec<&str> = sentence.split_whitespace().collect();
            let mut sentence_out = sentence.to_string();
            if let Some(first) = words.first() {
                let lower = first.to_lowercase();
                if let Some(subject) = &last_subject {
                    let replacement = match lower.as_str() {
                        "he" | "she" | "it" | "they" => Some(subject.clone()),
                        "his" | "her" | "its" | "their" => Some(format!("{subject}'s")),
                        _ => None,
                    };
                    if let Some(r) = replacement {
                        sentence_out = format!("{r} {}", words[1..].join(" "));
                    }
                }
            }
            // Update the running subject from capitalised tokens.
            for (i, w) in words.iter().enumerate() {
                if is_capitalized(w) {
                    let t = w.trim_matches(|c: char| !c.is_alphanumeric()).to_string();
                    let lower = t.to_lowercase();
                    if !lower.is_empty()
                        && !is_stopword(&lower)
                        && (i > 0 || !["the", "a", "rain", "bells", "dust", "lanterns", "everyone"]
                            .contains(&lower.as_str()))
                    {
                        last_subject = Some(t.strip_suffix("'s").unwrap_or(&t).to_string());
                        break;
                    }
                }
            }
            rewritten.push(sentence_out);
        }
        out_paragraphs.push(rewritten.join(" "));
    }
    out_paragraphs.join("\n")
}

/// Recursive summarization ("Recursively Summarizing Books" [49]): flatten
/// coreference (the abstractive rewrite), then per 200-token window keep
/// the most central sentences, repeating until the text fits `budget`
/// tokens.
pub fn recursive_summary(text: &str, budget: usize) -> Vec<String> {
    let mut current = flatten_coreference(text);
    for _ in 0..6 {
        if count_tokens(&current) <= budget {
            break;
        }
        // Document-level term frequencies (centrality weights). BTreeMap
        // so the map is deterministic however it is consumed; the seed's
        // HashMap made chunk ordering RandomState-dependent in principle.
        let mut tf: BTreeMap<String, f32> = BTreeMap::new();
        for t in tokenize(&current) {
            if !is_stopword(&t) {
                *tf.entry(stem(&t)).or_insert(0.0) += 1.0;
            }
        }
        let windows = sage_segment::SentenceSegmenter { max_tokens: 200 }.segment(&current);
        let mut kept: Vec<String> = Vec::new();
        for window in windows {
            let sentences = split_sentences(&window);
            // Keep the ~half of sentences most central to the document.
            // Raw term frequency would rank repeated boilerplate highest,
            // so centrality is damped (sqrt) and sentences naming an
            // entity — the content carriers a narrative summary keeps —
            // get a strong prior, like real summarizers' salience models.
            let mut scored: Vec<(f32, usize)> = sentences
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let toks = tokenize(s);
                    let tf_score: f32 = toks
                        .iter()
                        .filter(|t| !is_stopword(t))
                        .map(|t| tf.get(&stem(t)).copied().unwrap_or(0.0).sqrt())
                        .sum::<f32>()
                        / toks.len().max(1) as f32;
                    // "Names an entity" ≈ contains a capitalised word that
                    // is *rare* in the document (boilerplate sentence
                    // openers repeat; character names do not).
                    let has_proper = s.split_whitespace().any(|w| {
                        is_capitalized(w) && {
                            let lower = w
                                .trim_matches(|c: char| !c.is_alphanumeric())
                                .to_lowercase();
                            !lower.is_empty()
                                && !is_stopword(&lower)
                                && tf.get(&stem(&lower)).copied().unwrap_or(0.0) <= 8.0
                        }
                    });
                    let score = tf_score + if has_proper { 10.0 } else { 0.0 };
                    (score, i)
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let keep_n = sentences.len().div_ceil(2).max(1);
            // Entity-bearing sentences are what narrative summaries retain;
            // boilerplate only survives in windows that have nothing else.
            let proper_count = scored.iter().filter(|(s, _)| *s >= 10.0).count();
            let keep_n = if proper_count > 0 { keep_n.min(proper_count) } else { keep_n };
            let mut keep_idx: Vec<usize> = scored[..keep_n.min(scored.len())]
                .iter()
                .map(|(_, i)| *i)
                .collect();
            keep_idx.sort_unstable();
            kept.push(
                keep_idx.into_iter().map(|i| sentences[i]).collect::<Vec<_>>().join(" "),
            );
        }
        let next = kept.join("\n");
        if count_tokens(&next) >= count_tokens(&current) {
            break; // no progress; avoid looping forever
        }
        current = next;
    }
    sage_text::split_paragraphs(&current).into_iter().map(str::to_string).collect()
}

/// CoLISA-style selection: sentences scored by overlap with the question
/// *and its options* (the "inner interaction" idea), top `keep` kept in
/// document order.
fn colisa_select(
    sentences: &[String],
    question: &str,
    options: Option<&[String]>,
    keep: usize,
) -> Vec<String> {
    let mut probe_stems: Vec<String> = tokenize(question)
        .iter()
        .filter(|t| !is_stopword(t))
        .map(|t| stem(t))
        .collect();
    if let Some(opts) = options {
        for o in opts {
            probe_stems
                .extend(tokenize(o).iter().filter(|t| !is_stopword(t)).map(|t| stem(t)));
        }
    }
    let mut scored: Vec<(f32, usize)> = sentences
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let stems: std::collections::BTreeSet<String> =
                tokenize(s).iter().filter(|t| !is_stopword(t)).map(|t| stem(t)).collect();
            let hits = probe_stems.iter().filter(|p| stems.contains(*p)).count();
            (hits as f32, i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut keep_idx: Vec<usize> =
        scored[..keep.min(scored.len())].iter().map(|(_, i)| *i).collect();
    keep_idx.sort_unstable();
    // CoLISA builds one short passage from the selected sentences (in
    // document order), so in-passage coreference still works.
    let passage =
        keep_idx.into_iter().map(|i| sentences[i].clone()).collect::<Vec<_>>().join(" ");
    if passage.is_empty() {
        Vec::new()
    } else {
        vec![passage]
    }
}

/// RAPTOR analog: k-means over leaf-chunk embeddings, one extractive
/// summary per cluster, everything indexed together ("collapsed tree"),
/// fixed-K retrieval.
fn build_raptor(models: &TrainedModels, profile: LlmProfile, doc: &Document) -> RagSystem {
    // Leaf chunks.
    let leaves = sage_segment::SentenceSegmenter { max_tokens: 100 }.segment(&doc.text());
    let embedder = HashedEmbedder::default_model();
    let vectors: Vec<Vec<f32>> = leaves.iter().map(|c| embedder.embed(c)).collect();
    let k = (leaves.len() as f32).sqrt().ceil() as usize;
    let assignments = sage_nn::cluster::kmeans(&vectors, k.max(1), 5).assignments;
    // Cluster summaries: two most central sentences per cluster.
    let mut summaries: Vec<String> = Vec::new();
    for cluster in 0..k.max(1) {
        let members: Vec<&String> = leaves
            .iter()
            .zip(&assignments)
            .filter(|(_, &a)| a == cluster)
            .map(|(l, _)| l)
            .collect();
        if members.is_empty() {
            continue;
        }
        let text = members.iter().map(|m| m.as_str()).collect::<Vec<_>>().join(" ");
        let sentences = split_sentences(&text);
        summaries.push(sentences.into_iter().take(2).collect::<Vec<_>>().join(" "));
    }
    // Collapsed tree: leaves + summaries form the retrieval corpus. The
    // summaries are separated by newlines so segmentation-off chunking
    // keeps them as-is.
    let mut collapsed: Vec<String> = leaves;
    collapsed.extend(summaries);
    let corpus = vec![collapsed.join("\n")];
    RagSystem::build(
        models,
        RetrieverKind::OpenAiSim,
        SageConfig { min_k: 10, naive_chunk_tokens: 110, ..SageConfig::naive_rag() },
        profile,
        &corpus,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sage_corpus::document::{generate_document, DocSpec};

    fn doc() -> Document {
        let mut rng = StdRng::seed_from_u64(77);
        generate_document(0, &DocSpec::default(), &mut rng).document
    }

    #[test]
    fn all_methods_build_and_answer() {
        let d = doc();
        let methods = [
            Method::Sage(RetrieverKind::OpenAiSim),
            Method::NaiveRag(RetrieverKind::Bm25),
            Method::TitleAbstract,
            Method::Bm25Bert,
            Method::RecursiveSummary,
            Method::Raptor,
            Method::BiDaf,
            Method::Longformer,
            Method::Colisa,
            Method::DprReader,
        ];
        for m in methods {
            let sys = m.build(models(), LlmProfile::gpt4o_mini(), &d);
            let r = sys.answer("Where does anyone live?", None);
            assert!(!r.answer.text.is_empty(), "{} returned empty", m.label());
            assert!(r.cost.input_tokens > 0, "{} has no cost", m.label());
        }
    }

    #[test]
    fn truncation_respects_budget() {
        let d = doc();
        let small = truncate_tokens(&d.text(), 100);
        assert_eq!(small.len(), 1);
        assert!(count_tokens(&small[0]) <= 130, "{}", count_tokens(&small[0]));
        let all = truncate_tokens(&d.text(), 1_000_000);
        assert!(count_tokens(&all[0]) > count_tokens(&small[0]));
    }

    #[test]
    fn recursive_summary_shrinks_text() {
        let d = doc();
        let original = count_tokens(&d.text());
        let summary = recursive_summary(&d.text(), 200);
        let after: usize = summary.iter().map(|s| count_tokens(s)).sum();
        assert!(after < original, "{after} !< {original}");
        assert!(!summary.is_empty());
    }

    #[test]
    fn colisa_keeps_option_relevant_sentences() {
        let sentences = vec![
            "Whiskers has bright green eyes.".to_string(),
            "The fog settled over the valley.".to_string(),
            "Brone has orange eyes.".to_string(),
            "Bells rang from the tower.".to_string(),
        ];
        let options = vec!["green".to_string(), "orange".to_string()];
        let ctx = colisa_select(&sentences, "What color are the eyes?", Some(&options), 2);
        // One short passage of the two option-relevant sentences.
        assert_eq!(ctx.len(), 1);
        assert!(ctx[0].contains("green"));
        assert!(ctx[0].contains("orange"));
        assert!(!ctx[0].contains("fog"));
    }

    #[test]
    fn kmeans_clusters_separable_points() {
        let mut vectors = Vec::new();
        for i in 0..10 {
            vectors.push(vec![0.0 + i as f32 * 0.01, 0.0]);
            vectors.push(vec![10.0 + i as f32 * 0.01, 0.0]);
        }
        let assignments = sage_nn::cluster::kmeans(&vectors, 2, 10).assignments;
        // All evens together, all odds together.
        let a0 = assignments[0];
        let a1 = assignments[1];
        assert_ne!(a0, a1);
        for (i, &a) in assignments.iter().enumerate() {
            assert_eq!(a, if i % 2 == 0 { a0 } else { a1 }, "point {i}");
        }
    }

    #[test]
    fn kmeans_edge_cases() {
        assert!(sage_nn::cluster::kmeans(&[], 3, 5).assignments.is_empty());
        let one = sage_nn::cluster::kmeans(&[vec![1.0, 2.0]], 3, 5);
        assert_eq!(one.assignments, vec![0]);
    }

    #[test]
    fn method_labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            Method::Sage(RetrieverKind::OpenAiSim),
            Method::NaiveRag(RetrieverKind::OpenAiSim),
            Method::TitleAbstract,
            Method::Bm25Bert,
            Method::RecursiveSummary,
            Method::Raptor,
            Method::BiDaf,
            Method::Longformer,
            Method::Colisa,
            Method::DprReader,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 10);
    }
}
