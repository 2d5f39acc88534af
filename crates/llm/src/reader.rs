//! The simulated reader: candidate extraction + temperature sampling.

#![expect(
    clippy::disallowed_types,
    reason = "sets here are membership guards and the candidate map is drained into a Vec that is fully sorted (score, then lexicographic) before any sampling; the expectations map is get()-only"
)]

use crate::profile::LlmProfile;
use crate::prompt::{mc_prompt, open_prompt, prompt_tokens};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_corpus::datasets::{wiki, SizeConfig};
use sage_eval::Cost;
use sage_text::ngram::fnv1a;
use sage_text::{
    count_tokens, is_capitalized, is_stopword, proper_nouns, split_sentences, stem, tokenize, Vocab,
    WordSet,
};
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Duration;

/// The reader's answer plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Answer text (a short phrase, an option text, or "unanswerable").
    pub text: String,
    /// Reader confidence in `[0, 1]` (margin-based).
    pub confidence: f32,
    /// Token usage of this one call.
    pub cost: Cost,
    /// Simulated wall-clock latency of the call.
    pub latency: Duration,
}

impl Answer {
    /// Structural validity: what a transport-level response check can see.
    /// A truncated or corrupt reader response (empty text, non-finite or
    /// out-of-range confidence) fails this; every answer the simulated
    /// reader produces organically passes it.
    pub fn is_wellformed(&self) -> bool {
        !self.text.is_empty()
            && self.confidence.is_finite()
            && (0.0..=1.0).contains(&self.confidence)
    }
}

/// Subject pronouns that trigger in-chunk coreference credit.
const PRONOUNS: &[&str] = &["he", "she", "it", "his", "her", "its", "they", "their"];

/// Background IDF statistics standing in for the model's language prior:
/// informative (rare) words make better answers than template/function
/// words. Built once from a fixed synthetic sample.
fn language_prior() -> &'static Vocab {
    static PRIOR: OnceLock<Vocab> = OnceLock::new();
    PRIOR.get_or_init(|| {
        let ds = wiki::generate(SizeConfig { num_docs: 30, questions_per_doc: 0, seed: 0x1D1 });
        let mut vocab = Vocab::new();
        for doc in &ds.documents {
            for para in &doc.paragraphs {
                for sentence in split_sentences(para) {
                    let ids: Vec<u32> =
                        tokenize(sentence).iter().map(|t| vocab.intern(&stem(t))).collect();
                    vocab.record_document(&ids);
                }
            }
        }
        vocab
    })
}

/// World-knowledge table: the reader knows what *kind* of phrase answers a
/// question ("what color" expects a color, "where" expects a place) — the
/// lexical-semantics knowledge every real LLM has. Maps question stems to
/// the value pools they select, plus membership sets for the pools.
struct TypeLexicon {
    /// question stem → pool ids it selects.
    expectations: std::collections::HashMap<&'static str, Vec<usize>>,
    /// full lowercase phrases per pool.
    phrases: Vec<HashSet<String>>,
    /// individual tokens per pool.
    tokens: Vec<HashSet<String>>,
    /// Relation-synonym classes (as stem sets): "born"/"childhood" is one
    /// relation, "lives"/"settled" another. Lets the reader distinguish
    /// same-pool relations (both answer with a place) the way a competent
    /// LLM does.
    relation_classes: Vec<HashSet<String>>,
}

fn type_lexicon() -> &'static TypeLexicon {
    use sage_corpus::facts::Pool;
    static LEX: OnceLock<TypeLexicon> = OnceLock::new();
    LEX.get_or_init(|| {
        let pools = [
            Pool::Colors,
            Pool::Places,
            Pool::Professions,
            Pool::Foods,
            Pool::Technologies,
            Pool::Instruments,
            Pool::Animals,
        ];
        let mut phrases = Vec::new();
        let mut tokens = Vec::new();
        for pool in pools {
            let mut ph = HashSet::new();
            let mut tk = HashSet::new();
            for w in pool.words() {
                ph.insert(w.to_lowercase());
                for t in tokenize(w) {
                    tk.insert(t);
                }
            }
            phrases.push(ph);
            tokens.push(tk);
        }
        // Indices into `pools` above.
        const COLORS: usize = 0;
        const PLACES: usize = 1;
        const PROFESSIONS: usize = 2;
        const FOODS: usize = 3;
        const TECH: usize = 4;
        const INSTRUMENTS: usize = 5;
        const ANIMALS: usize = 6;
        let mut expectations: std::collections::HashMap<&'static str, Vec<usize>> =
            std::collections::HashMap::new();
        for (stem_key, pool) in [
            ("color", COLORS),
            ("eye", COLORS),
            ("fur", COLORS),
            ("live", PLACES),
            ("born", PLACES),
            ("town", PLACES),
            ("profession", PROFESSIONS),
            ("trade", PROFESSIONS),
            ("liv", PROFESSIONS), // stem of "living" ("do for a living")
            ("food", FOODS),
            ("eat", FOODS),
            ("instrument", INSTRUMENTS),
            ("plai", INSTRUMENTS), // stem of "play(s)"
            ("device", TECH),
            ("develop", TECH),
            ("built", TECH),
            ("animal", ANIMALS),
            ("pet", ANIMALS),
            ("keep", ANIMALS),
        ] {
            expectations.entry(stem_key).or_default().push(pool);
        }
        let relation_surface: &[&[&str]] = &[
            &["born", "childhood"],
            &["lives", "live", "settled", "settle", "house", "town"],
            &["profession", "trade", "works", "work", "earns", "earning", "living"],
            &["food", "eat", "eats", "eating", "begs", "turns", "favorite"],
            &["eyes", "eye", "glow"],
            &["fur", "coat"],
            &["plays", "play", "practices", "practice", "instrument"],
            &["developed", "develop", "built", "invented", "invent", "device", "workbench"],
            &["keeps", "keep", "care", "animal", "pet"],
        ];
        let relation_classes = relation_surface
            .iter()
            .map(|words| words.iter().map(|w| stem(w)).collect::<HashSet<String>>())
            .collect();
        TypeLexicon { expectations, phrases, tokens, relation_classes }
    })
}

/// Classes (indices into `relation_classes`) touched by a stem set.
fn relation_classes_of(stems: &HashSet<String>) -> Vec<usize> {
    let lex = type_lexicon();
    lex.relation_classes
        .iter()
        .enumerate()
        .filter(|(_, class)| class.iter().any(|c| stems.contains(c)))
        .map(|(i, _)| i)
        .collect()
}

/// Analysis of the question: entity terms, content stems, negation flag.
struct QuestionInfo {
    entity_terms: HashSet<String>,
    content_stems: HashSet<String>,
    negation: bool,
    /// Value pools the answer is expected to come from (empty = no
    /// expectation).
    expected_pools: Vec<usize>,
}

fn strip_possessive(token: &str) -> &str {
    token.strip_suffix("'s").unwrap_or_else(|| token.strip_suffix('\'').unwrap_or(token))
}

fn analyze_question(question: &str) -> QuestionInfo {
    let mut entity_terms = HashSet::new();
    for word in question.split_whitespace() {
        if is_capitalized(word) {
            let cleaned = word.trim_matches(|c: char| !c.is_alphanumeric() && c != '\'');
            let lower = cleaned.to_lowercase();
            let base = strip_possessive(&lower).to_string();
            if !base.is_empty() && !is_stopword(&base) && !base.chars().all(|c| c.is_numeric()) {
                entity_terms.insert(base);
            }
        }
    }
    let mut content_stems = HashSet::new();
    let mut negation = false;
    for tok in tokenize(question) {
        if tok == "not" || tok.ends_with("n't") {
            negation = true;
        }
        if is_stopword(&tok) {
            continue;
        }
        let base = strip_possessive(&tok).to_string();
        if entity_terms.contains(&base) {
            continue;
        }
        content_stems.insert(stem(&base));
    }
    let lex = type_lexicon();
    let mut expected_pools: Vec<usize> = content_stems
        .iter()
        .filter_map(|s| lex.expectations.get(s.as_str()))
        .flatten()
        .copied()
        .collect();
    expected_pools.sort_unstable();
    expected_pools.dedup();
    QuestionInfo { entity_terms, content_stems, negation, expected_pools }
}

/// Answer-type bonus: candidates of the expected kind are strongly
/// preferred (a reader never answers "bright" to a color question), others
/// are damped; with no expectation everything is neutral.
fn type_bonus(q: &QuestionInfo, phrase: &str) -> f32 {
    if q.expected_pools.is_empty() {
        return 1.0;
    }
    let lex = type_lexicon();
    let lower = phrase.to_lowercase();
    let toks = tokenize(&lower);
    let mut bonus: f32 = 0.7;
    for &pool in &q.expected_pools {
        if lex.phrases[pool].contains(&lower) {
            // Exact pool member ("black", "pygmy goat"): the strongest
            // answer-type evidence.
            return 1.6;
        }
        if toks.iter().any(|t| lex.tokens[pool].contains(t)) {
            // Contains a pool token ("bright black"): plausible but less
            // canonical than the exact member.
            bonus = bonus.max(1.35);
        }
    }
    bonus
}

/// One context sentence with its relevance score.
struct ScoredSentence {
    tokens: Vec<String>,
    stems: HashSet<String>,
    score: f32,
    /// Whether the sentence is grounded in the question's subject (entity
    /// or coreference credit). Ungrounded sentences can still support
    /// answers, but a careful reader discounts them.
    grounded: bool,
}

/// The simulated LLM.
///
/// ```
/// use sage_llm::{LlmProfile, SimLlm};
///
/// let llm = SimLlm::new(LlmProfile::gpt4o_mini());
/// let context = vec!["Whiskers is a tabby cat. He has bright green eyes.".to_string()];
/// let answer = llm.answer_open("What is the color of Whiskers's eyes?", &context);
/// assert!(answer.text.contains("green"));
/// assert!(answer.cost.input_tokens > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimLlm {
    profile: LlmProfile,
    seed: u64,
}

impl SimLlm {
    /// A reader with the given profile and a default seed.
    pub fn new(profile: LlmProfile) -> Self {
        Self { profile, seed: 0x51A9E }
    }

    /// The behavioural profile.
    pub fn profile(&self) -> &LlmProfile {
        &self.profile
    }

    /// Per-call RNG: keyed by the call content, so results are independent
    /// of call order.
    fn call_rng(&self, key: &str) -> StdRng {
        StdRng::seed_from_u64(fnv1a(key.as_bytes(), self.seed))
    }

    /// Crate-internal access to the per-call RNG (used by the feedback
    /// module).
    pub(crate) fn call_rng_pub(&self, key: &str) -> StdRng {
        self.call_rng(key)
    }

    /// Score every context sentence. Chunk boundaries matter: pronoun
    /// coreference credit only flows *within* a chunk (the model can link
    /// "He has green eyes" to "Whiskers is a cat" only when both are in the
    /// provided chunk — limitation L1's mechanism).
    fn score_sentences(&self, q: &QuestionInfo, context: &[String]) -> Vec<ScoredSentence> {
        let entity_weight = self.profile.entity_weight();
        let mut out = Vec::new();
        for chunk in context {
            let mut entity_seen = false;
            // Name-chain coreference: proper nouns introduced by sentences
            // that are grounded in the question (entity match or strong
            // content overlap) become anchors; later sentences about the
            // same name inherit subject credit. This is how a reader links
            // "Mossy is the tortoise…" to "Mossy has amber eyes" when the
            // question asks about the tortoise.
            let mut anchors: HashSet<String> = HashSet::new();
            let mut proper = WordSet::new();
            for sentence in split_sentences(chunk) {
                let tokens = tokenize(sentence);
                proper_nouns(sentence, &mut proper);
                let has_entity = tokens
                    .iter()
                    .any(|t| q.entity_terms.contains(strip_possessive(t)));
                let has_pronoun =
                    tokens.iter().take(4).any(|t| PRONOUNS.contains(&t.as_str()));
                let has_anchor = proper.iter().any(|p| anchors.contains(p));
                let credit = if has_entity {
                    entity_seen = true;
                    1.0
                } else if has_anchor || (has_pronoun && (entity_seen || !anchors.is_empty())) {
                    0.9
                } else {
                    0.0
                };
                let stems: HashSet<String> =
                    tokens.iter().filter(|t| !is_stopword(t)).map(|t| stem(t)).collect();
                let rel = if q.content_stems.is_empty() {
                    0.0
                } else {
                    q.content_stems.iter().filter(|s| stems.contains(*s)).count() as f32
                        / q.content_stems.len() as f32
                };
                // A sentence donates its proper nouns as anchors only when
                // it is grounded, or when it shares an *informative* (rare)
                // content term with the question — a single generic word
                // like "town" appearing in both templates must not link an
                // unrelated entity to the question's subject.
                let informative_overlap = q
                    .content_stems
                    .iter()
                    .any(|qs| stems.contains(qs) && self.stem_idf_norm(qs) >= 0.5);
                if credit > 0.0 || (rel >= 0.3 && informative_overlap) {
                    anchors.extend(proper.iter().map(str::to_string));
                }
                let score = entity_weight * credit + 2.0 * rel;
                out.push(ScoredSentence { tokens, stems, score, grounded: credit > 0.0 });
            }
        }
        out
    }

    /// Maximum achievable sentence score (used to normalise thresholds).
    /// Questions with no recognisable entity cannot earn entity credit, so
    /// they normalise against the content-overlap ceiling only.
    fn max_score_for(&self, q: &QuestionInfo) -> f32 {
        if q.entity_terms.is_empty() {
            2.0
        } else {
            self.profile.entity_weight() + 2.0
        }
    }

    /// Normalised IDF of one already-stemmed term under the language prior.
    fn stem_idf_norm(&self, stemmed: &str) -> f32 {
        let prior = language_prior();
        let max_idf = (1.0 + (prior.num_docs() as f32 + 0.5) / 0.5).ln();
        match prior.get(stemmed) {
            Some(id) => (prior.idf(id) / max_idf).clamp(0.0, 1.0),
            None => 1.0,
        }
    }

    fn idf_norm(&self, phrase: &str) -> f32 {
        let prior = language_prior();
        let max_idf = (1.0 + (prior.num_docs() as f32 + 0.5) / 0.5).ln();
        let mut total = 0.0;
        let mut n = 0;
        for tok in tokenize(phrase) {
            let s = stem(&tok);
            let idf = match prior.get(&s) {
                Some(id) => prior.idf(id),
                None => max_idf,
            };
            total += idf / max_idf;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            (total / n as f32).clamp(0.0, 1.0)
        }
    }

    /// Extract candidate answer phrases (content unigrams/bigrams not in
    /// the question) with scores.
    fn candidates(&self, q: &QuestionInfo, sentences: &[ScoredSentence]) -> Vec<(String, f32)> {
        let mut best: std::collections::HashMap<String, f32> = std::collections::HashMap::new();
        // A careful reader notices when a passage is about a different
        // subject than the question asks for; ungrounded sentences are
        // discounted in proportion to the model's distractor resistance.
        let ungrounded_damp = if q.entity_terms.is_empty() {
            1.0
        } else {
            1.0 - 0.5 * self.profile.distractor_resistance
        };
        // Relation-semantics check: a sentence stating a *different known
        // relation* than the question asks about ("lives in Eastmere" for
        // "where was X born?") does not contain the answer. Strong readers
        // discount such sentences heavily; weak readers confuse them.
        let q_classes = relation_classes_of(&q.content_stems);
        let wrong_relation_damp = 1.0 - 0.75 * self.profile.distractor_resistance;
        for s in sentences {
            if s.score <= 0.3 {
                continue;
            }
            let mut damp = if s.grounded { 1.0 } else { ungrounded_damp };
            if !q_classes.is_empty() {
                let s_classes = relation_classes_of(&s.stems);
                if !s_classes.is_empty() {
                    if s_classes.iter().any(|c| q_classes.contains(c)) {
                        damp *= 1.2;
                    } else {
                        damp *= wrong_relation_damp;
                    }
                }
            }
            // Content token positions eligible as answer material.
            let eligible: Vec<(usize, &String)> = s
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    !is_stopword(t)
                        && !q.entity_terms.contains(strip_possessive(t))
                        && !q.content_stems.contains(&stem(strip_possessive(t)))
                        && !PRONOUNS.contains(&t.as_str())
                        && t.chars().any(|c| c.is_alphabetic())
                })
                .collect();
            for (pos, (i, tok)) in eligible.iter().enumerate() {
                let uni_score =
                    s.score * damp * (0.4 + 0.6 * self.idf_norm(tok)) * type_bonus(q, tok);
                let entry = best.entry((*tok).clone()).or_insert(0.0);
                *entry = entry.max(uni_score);
                // Adjacent bigram (adjacent in the original sentence).
                if let Some((j, next)) = eligible.get(pos + 1) {
                    if *j == i + 1 {
                        let phrase = format!("{tok} {next}");
                        let bi_score = s.score
                            * damp
                            * (0.4 + 0.6 * self.idf_norm(&phrase))
                            * type_bonus(q, &phrase)
                            * 1.05;
                        let entry = best.entry(phrase).or_insert(0.0);
                        *entry = entry.max(bi_score);
                    }
                }
            }
        }
        let mut out: Vec<(String, f32)> = best.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Effective sampling temperature: grows with context size, modelling
    /// long-context attention dilution ("lost in the middle"). A 300-
    /// sentence context reads several times less reliably than a 10-
    /// sentence one — this is what makes whole-document readers
    /// (Longformer baseline) and over-retrieval (Figure 8) lose accuracy.
    fn effective_temperature(&self, context_sentences: usize) -> f32 {
        self.profile.temperature * (1.0 + context_sentences as f32 / 50.0)
    }

    /// Softmax-sample an index from scores at temperature `t`.
    fn sample_at(&self, scores: &[f32], t: f32, rng: &mut StdRng) -> usize {
        debug_assert!(!scores.is_empty());
        let t = t.max(1e-3);
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let weights: Vec<f64> = scores.iter().map(|s| (((s - max) / t) as f64).exp()).collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.random_range(0.0..1.0) * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        scores.len() - 1
    }

    /// Answer an open-ended question from retrieved context chunks.
    /// Seeded per call, so the result is independent of call order.
    pub fn answer_open(&self, question: &str, context: &[String]) -> Answer {
        let prompt = open_prompt(question, context);
        let input_tokens = prompt_tokens(&prompt);
        let q = analyze_question(question);
        let sentences = self.score_sentences(&q, context);
        let candidates = self.candidates(&q, &sentences);

        let (text, confidence) = if candidates.is_empty()
            || candidates[0].1 / self.max_score_for(&q) < self.profile.answer_threshold
        {
            ("unanswerable".to_string(), 0.15)
        } else {
            let mut rng = self.call_rng(&format!("open|{question}|{}", context.len()));
            let scores: Vec<f32> = candidates.iter().map(|c| c.1).collect();
            let t = self.effective_temperature(sentences.len());
            let pick = self.sample_at(&scores, t, &mut rng);
            let top = scores[0];
            let second = scores.get(1).copied().unwrap_or(0.0);
            let margin = ((top - second) / top.max(1e-6)).clamp(0.0, 1.0);
            let strength = (top / self.max_score_for(&q)).clamp(0.0, 1.0);
            (candidates[pick].0.clone(), (0.5 * margin + 0.5 * strength).clamp(0.0, 1.0))
        };

        let output_tokens = count_tokens(&text) + 3;
        let mut cost = Cost::zero();
        cost.add_call(input_tokens, output_tokens);
        sage_telemetry::metrics::LLM_READER_CALLS.inc();
        sage_telemetry::metrics::LLM_INPUT_TOKENS.add(input_tokens as u64);
        sage_telemetry::metrics::LLM_OUTPUT_TOKENS.add(output_tokens as u64);
        Answer { text, confidence, cost, latency: self.profile.call_latency(output_tokens) }
    }

    /// Support score for a multiple-choice option: the best sentence that
    /// mentions (most of) the option.
    fn option_support(&self, option: &str, sentences: &[ScoredSentence]) -> f32 {
        let opt_stems: Vec<String> = tokenize(option)
            .iter()
            .filter(|t| !is_stopword(t))
            .map(|t| stem(t))
            .collect();
        if opt_stems.is_empty() {
            return 0.0;
        }
        let need = opt_stems.len().div_ceil(2).max(1);
        sentences
            .iter()
            .filter_map(|s| {
                let hits = opt_stems.iter().filter(|o| s.stems.contains(*o)).count();
                if hits >= need {
                    // Full mention outranks partial mention.
                    let completeness = hits as f32 / opt_stems.len() as f32;
                    Some((0.5 + s.score) * completeness)
                } else {
                    None
                }
            })
            .fold(0.0, f32::max)
    }

    /// Answer a multiple-choice question; returns the chosen option index
    /// and the bookkeeping answer (text = option text). Seeded per call,
    /// so the result is independent of call order.
    pub fn answer_multiple_choice(
        &self,
        question: &str,
        options: &[String],
        context: &[String],
    ) -> (usize, Answer) {
        assert!(!options.is_empty());
        let prompt = mc_prompt(question, options, context);
        let input_tokens = prompt_tokens(&prompt);
        let q = analyze_question(question);
        let sentences = self.score_sentences(&q, context);
        let supports: Vec<f32> =
            options.iter().map(|o| self.option_support(o, &sentences)).collect();

        let mut rng =
            self.call_rng(&format!("mc|{question}|{}|{}", options.len(), context.len()));
        let pick = if q.negation {
            // Elimination: the correct option is the one *without* support.
            // Difficulty modulates success: when exactly one option is
            // clearly unsupported and the rest are clearly supported, the
            // reasoning is easy and even mid readers usually get it; the
            // profile's base skill governs the ambiguous cases.
            let mut sorted = supports.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let easy = sorted[0] <= 0.0 && sorted.get(1).copied().unwrap_or(0.0) > 0.5;
            let base = self.profile.elimination_skill;
            let skill = if easy {
                // Strong models reliably exploit clear evidence; weak ones
                // only partially (elimination stays hard for them even
                // with everything in context — the paper's hard-set gap).
                base + (1.0 - base) * 0.7 * self.profile.distractor_resistance
            } else {
                base
            };
            if rng.random_range(0.0..1.0) < skill {
                // Min-support reasoning; break ties randomly (the reader
                // cannot distinguish options it has no evidence about).
                let min = supports.iter().copied().fold(f32::INFINITY, f32::min);
                let tied: Vec<usize> = supports
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| (**s - min).abs() < 1e-6)
                    .map(|(i, _)| i)
                    .collect();
                tied[rng.random_range(0..tied.len())]
            } else {
                // Failed to apply elimination: falls for the best-supported
                // (wrong) option.
                self.sample_at(&supports, self.effective_temperature(sentences.len()), &mut rng)
            }
        } else if supports.iter().all(|s| *s == 0.0) {
            // No evidence at all: uniform guess.
            rng.random_range(0..options.len())
        } else {
            self.sample_at(&supports, self.effective_temperature(sentences.len()), &mut rng)
        };

        let confidence = if q.negation {
            // Elimination confidence: how clearly one option stands apart
            // as unsupported while the rest are supported.
            let mut sorted = supports.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let min = sorted[0];
            let second_min = sorted.get(1).copied().unwrap_or(0.0);
            if second_min <= 0.0 {
                0.25 // several options unsupported: a guess
            } else {
                ((second_min - min) / second_min).clamp(0.0, 1.0)
            }
        } else {
            let mut sorted = supports.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            if sorted[0] <= 0.0 {
                0.25
            } else {
                ((sorted[0] - sorted.get(1).copied().unwrap_or(0.0)) / sorted[0]).clamp(0.0, 1.0)
            }
        };

        let text = options[pick].clone();
        let output_tokens = 2;
        let mut cost = Cost::zero();
        cost.add_call(input_tokens, output_tokens);
        sage_telemetry::metrics::LLM_READER_CALLS.inc();
        sage_telemetry::metrics::LLM_INPUT_TOKENS.add(input_tokens as u64);
        sage_telemetry::metrics::LLM_OUTPUT_TOKENS.add(output_tokens as u64);
        (
            pick,
            Answer { text, confidence, cost, latency: self.profile.call_latency(output_tokens) },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(chunks: &[&str]) -> Vec<String> {
        chunks.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn answers_from_clear_evidence() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let a = llm.answer_open(
            "What is the color of Whiskers's eyes?",
            &ctx(&["Whiskers is a tabby cat. He has bright green eyes."]),
        );
        assert!(a.text.contains("green"), "got: {}", a.text);
        assert!(a.confidence > 0.2);
        assert!(a.cost.input_tokens > 0 && a.cost.output_tokens > 0);
    }

    #[test]
    fn orphan_pronoun_chunk_fails_l1() {
        // The L1 mechanism: the pronoun sentence alone (antecedent cut off
        // by bad segmentation) must not support a confident answer.
        let llm = SimLlm::new(LlmProfile::gpt4());
        let a = llm.answer_open(
            "What is the color of Whiskers's eyes?",
            &ctx(&["He has bright green eyes."]),
        );
        assert_eq!(a.text, "unanswerable", "orphan pronoun chunk should not be enough");
    }

    #[test]
    fn pronoun_with_antecedent_succeeds() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let joined = llm.answer_open(
            "What is the color of Whiskers's eyes?",
            &ctx(&["Whiskers is a playful tabby cat. His eyes are a deep green."]),
        );
        assert!(joined.text.contains("green"), "got: {}", joined.text);
    }

    #[test]
    fn unanswerable_without_evidence() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let a = llm.answer_open(
            "Where does Dorinwick live?",
            &ctx(&["The morning fog settled over the valley, as it had for years."]),
        );
        assert_eq!(a.text, "unanswerable");
    }

    #[test]
    fn strong_reader_resists_distractors() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let context = ctx(&[
            "Whiskers is a tabby cat. He has bright green eyes.",
            "Patchy is a ferret. Patchy has bright orange eyes.",
            "Brone is a hedgehog. Brone has bright amber eyes.",
        ]);
        let a = llm.answer_open("What is the color of Whiskers's eyes?", &context);
        assert!(a.text.contains("green"), "gpt4 analog must resist distractors: {}", a.text);
    }

    #[test]
    fn weak_reader_is_misled_by_enough_noise() {
        // Statistical check over many questions: the UnifiedQA analog must
        // err on a noticeable fraction when distractors outnumber evidence.
        let llm = SimLlm::new(LlmProfile::unifiedqa_3b());
        let mut wrong = 0;
        let total = 40;
        for i in 0..total {
            let q = format!("What is the color of Whiskers{i}'s eyes?");
            let context = vec![
                format!("Whiskers{i} is a tabby cat. He has bright green eyes."),
                "Patchy has bright orange eyes.".to_string(),
                "Brone has bright amber eyes.".to_string(),
                "Moss has bright copper eyes.".to_string(),
                "Tufty has bright violet eyes.".to_string(),
                "Dapple has bright hazel eyes.".to_string(),
            ];
            let a = llm.answer_open(&q, &context);
            if !a.text.contains("green") {
                wrong += 1;
            }
        }
        assert!(wrong > 0, "weak reader should be misled at least sometimes");
        assert!(wrong < total, "but not always");
    }

    #[test]
    fn multiple_choice_picks_supported_option() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let options: Vec<String> =
            ["orange", "green", "violet", "gray"].iter().map(|s| s.to_string()).collect();
        let (idx, a) = llm.answer_multiple_choice(
            "What is the color of Whiskers's eyes?",
            &options,
            &ctx(&["Whiskers is a tabby cat. He has bright green eyes."]),
        );
        assert_eq!(idx, 1, "answer: {}", a.text);
    }

    #[test]
    fn multiple_choice_no_evidence_guesses() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let options: Vec<String> =
            ["orange", "green", "violet", "gray"].iter().map(|s| s.to_string()).collect();
        let (_, a) = llm.answer_multiple_choice(
            "What is the color of Whiskers's eyes?",
            &options,
            &ctx(&["The rain fell on the harbor, as it had for years."]),
        );
        assert!(a.confidence <= 0.3, "guessing must not be confident");
    }

    #[test]
    fn elimination_needs_full_evidence() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let options: Vec<String> = ["vapor engine", "tide clock", "salt battery", "echo compass"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Full evidence: Vorden built the first three; echo compass is the
        // correct "not developed" answer.
        let full = ctx(&[
            "Vorden spent years at the workbench. Vorden developed the vapor engine.",
            "He also built the tide clock. He developed the salt battery.",
        ]);
        let (idx, _) = llm.answer_multiple_choice(
            "Which device was not developed by Vorden?",
            &options,
            &full,
        );
        assert_eq!(idx, 3);
        // Partial evidence: only one positive fact retrieved — the reader
        // cannot distinguish the other three options (tie → may guess
        // wrong). Check it is not *reliably* correct across questions.
        let mut correct = 0;
        for i in 0..30 {
            let q = format!("Which device was not developed by Vorden{i}?");
            let partial = vec![format!("Vorden{i} developed the vapor engine.")];
            let (idx, _) = llm.answer_multiple_choice(&q, &options, &partial);
            if idx == 3 {
                correct += 1;
            }
        }
        assert!(correct < 25, "partial evidence should often fail: {correct}/30");
    }

    #[test]
    fn deterministic_per_call() {
        let llm = SimLlm::new(LlmProfile::gpt35_turbo());
        let context = ctx(&["Whiskers has bright green eyes.", "Patchy has orange eyes."]);
        let a1 = llm.answer_open("What is the color of Whiskers's eyes?", &context);
        let a2 = llm.answer_open("What is the color of Whiskers's eyes?", &context);
        assert_eq!(a1.text, a2.text);
        assert_eq!(a1.confidence, a2.confidence);
    }

    #[test]
    fn cost_scales_with_context() {
        let llm = SimLlm::new(LlmProfile::gpt4o_mini());
        let small = llm.answer_open("q?", &ctx(&["short context."]));
        let big_ctx: Vec<String> =
            (0..20).map(|i| format!("Filler sentence number {i} about the town.")).collect();
        let big = llm.answer_open("q?", &big_ctx);
        assert!(big.cost.input_tokens > small.cost.input_tokens);
    }

    #[test]
    fn latency_is_simulated() {
        let llm = SimLlm::new(LlmProfile::gpt4o_mini());
        let a = llm.answer_open("q?", &ctx(&["some context."]));
        assert!(a.latency.as_secs_f64() >= 1.0, "API-call latency should be over a second");
    }

    #[test]
    fn organic_answers_are_wellformed_and_corruption_is_not() {
        let llm = SimLlm::new(LlmProfile::gpt4o_mini());
        let mut a = llm.answer_open("q?", &ctx(&["some context."]));
        assert!(a.is_wellformed());
        // Even the unanswerable path is structurally valid.
        let empty = llm.answer_open("what color is the moon lizard?", &[]);
        assert!(empty.is_wellformed());
        // Truncation and NaN poisoning are caught.
        a.text.clear();
        assert!(!a.is_wellformed());
        a.text = "x".to_string();
        a.confidence = f32::NAN;
        assert!(!a.is_wellformed());
        a.confidence = 1.5;
        assert!(!a.is_wellformed());
    }
}
