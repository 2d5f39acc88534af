//! `SimLlm`'s readers and judge against the per-token `String`-set bodies
//! they replaced, kept here verbatim as the oracle: answer text, confidence
//! bits, `Cost`, latency, the picked option and every `FeedbackOutcome` are
//! compared on seeded dataset contexts for all four profiles, and on
//! arbitrary strings.

#![allow(clippy::disallowed_types, reason = "the oracle keeps the replaced hash sets verbatim")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_corpus::datasets::{narrativeqa, quality, triviaqa, wiki, SizeConfig};
use sage_corpus::document::Dataset;
use sage_eval::Cost;
use sage_llm::feedback::feedback_prompt;
use sage_llm::prompt::{mc_prompt, open_prompt, prompt_tokens};
use sage_llm::{Answer, LlmProfile, SimLlm};
use sage_text::ngram::fnv1a;
use sage_text::{
    count_tokens, is_capitalized, is_stopword, proper_nouns, split_sentences, stem, tokenize, Vocab,
    WordSet,
};
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Duration;

const PRONOUNS: &[&str] = &["he", "she", "it", "his", "her", "its", "they", "their"];

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

struct TypeLexicon {
    expectations: std::collections::HashMap<&'static str, Vec<usize>>,
    phrases: Vec<HashSet<String>>,
    tokens: Vec<HashSet<String>>,
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
            ("liv", PROFESSIONS),
            ("food", FOODS),
            ("eat", FOODS),
            ("instrument", INSTRUMENTS),
            ("plai", INSTRUMENTS),
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

fn relation_classes_of(stems: &HashSet<String>) -> Vec<usize> {
    let lex = type_lexicon();
    lex.relation_classes
        .iter()
        .enumerate()
        .filter(|(_, class)| class.iter().any(|c| stems.contains(c)))
        .map(|(i, _)| i)
        .collect()
}

struct QuestionInfo {
    entity_terms: HashSet<String>,
    content_stems: HashSet<String>,
    negation: bool,
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
            return 1.6;
        }
        if toks.iter().any(|t| lex.tokens[pool].contains(t)) {
            bonus = bonus.max(1.35);
        }
    }
    bonus
}

struct ScoredSentence {
    tokens: Vec<String>,
    stems: HashSet<String>,
    score: f32,
    grounded: bool,
}

/// The replaced reader and judge: `SimLlm`'s bodies before the one-pass
/// analysis, minus the telemetry counters.
struct OldLlm {
    profile: LlmProfile,
    seed: u64,
}

impl OldLlm {
    fn new(profile: LlmProfile) -> Self {
        Self { profile, seed: 0x51A9E }
    }

    fn call_rng(&self, key: &str) -> StdRng {
        StdRng::seed_from_u64(fnv1a(key.as_bytes(), self.seed))
    }

    fn score_sentences(&self, q: &QuestionInfo, context: &[String]) -> Vec<ScoredSentence> {
        let entity_weight = self.profile.entity_weight();
        let mut out = Vec::new();
        for chunk in context {
            let mut entity_seen = false;
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

    fn max_score_for(&self, q: &QuestionInfo) -> f32 {
        if q.entity_terms.is_empty() {
            2.0
        } else {
            self.profile.entity_weight() + 2.0
        }
    }

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

    fn candidates(&self, q: &QuestionInfo, sentences: &[ScoredSentence]) -> Vec<(String, f32)> {
        let mut best: std::collections::HashMap<String, f32> = std::collections::HashMap::new();
        let ungrounded_damp = if q.entity_terms.is_empty() {
            1.0
        } else {
            1.0 - 0.5 * self.profile.distractor_resistance
        };
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

    fn effective_temperature(&self, context_sentences: usize) -> f32 {
        self.profile.temperature * (1.0 + context_sentences as f32 / 50.0)
    }

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

    fn answer_open(&self, question: &str, context: &[String]) -> Answer {
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
        Answer { text, confidence, cost, latency: self.profile.call_latency(output_tokens) }
    }

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
                    let completeness = hits as f32 / opt_stems.len() as f32;
                    Some((0.5 + s.score) * completeness)
                } else {
                    None
                }
            })
            .fold(0.0, f32::max)
    }

    fn answer_multiple_choice(
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
            let mut sorted = supports.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let easy = sorted[0] <= 0.0 && sorted.get(1).copied().unwrap_or(0.0) > 0.5;
            let base = self.profile.elimination_skill;
            let skill = if easy {
                base + (1.0 - base) * 0.7 * self.profile.distractor_resistance
            } else {
                base
            };
            if rng.random_range(0.0..1.0) < skill {
                let min = supports.iter().copied().fold(f32::INFINITY, f32::min);
                let tied: Vec<usize> = supports
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| (**s - min).abs() < 1e-6)
                    .map(|(i, _)| i)
                    .collect();
                tied[rng.random_range(0..tied.len())]
            } else {
                self.sample_at(&supports, self.effective_temperature(sentences.len()), &mut rng)
            }
        } else if supports.iter().all(|s| *s == 0.0) {
            rng.random_range(0..options.len())
        } else {
            self.sample_at(&supports, self.effective_temperature(sentences.len()), &mut rng)
        };

        let confidence = if q.negation {
            let mut sorted = supports.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let min = sorted[0];
            let second_min = sorted.get(1).copied().unwrap_or(0.0);
            if second_min <= 0.0 {
                0.25
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
        (
            pick,
            Answer { text, confidence, cost, latency: self.profile.call_latency(output_tokens) },
        )
    }

    /// `(score, adjustment, cost, latency)` of the old judge.
    fn self_feedback(
        &self,
        question: &str,
        context: &[String],
        answer: &Answer,
    ) -> (u8, i8, Cost, Duration) {
        let prompt = feedback_prompt(question, context, &answer.text);
        let input_tokens = prompt_tokens(&prompt);
        let output_tokens = 10;
        let mut cost = Cost::zero();
        cost.add_call(input_tokens, output_tokens);

        let answer_stems: Vec<String> = tokenize(&answer.text)
            .iter()
            .filter(|t| !is_stopword(t))
            .map(|t| stem(t))
            .collect();
        let q_stems: std::collections::HashSet<String> = tokenize(question)
            .iter()
            .filter(|t| !is_stopword(t))
            .map(|t| stem(t))
            .collect();
        let mut support = 0.0f32;
        let mut relevant_sentences = 0usize;
        let mut total_sentences = 0usize;
        for chunk in context {
            for sentence in split_sentences(chunk) {
                total_sentences += 1;
                let stems: std::collections::HashSet<String> = tokenize(sentence)
                    .iter()
                    .filter(|t| !is_stopword(t))
                    .map(|t| stem(t))
                    .collect();
                let q_overlap = q_stems.iter().filter(|s| stems.contains(*s)).count();
                if q_overlap > 0 {
                    relevant_sentences += 1;
                }
                if !answer_stems.is_empty()
                    && answer_stems.iter().all(|s| stems.contains(s))
                    && q_overlap > 0
                {
                    support = support.max(0.6 + 0.4 * (q_overlap as f32 / q_stems.len().max(1) as f32));
                }
            }
        }
        let unanswerable = answer.text == "unanswerable";
        let negation =
            tokenize(question).iter().any(|t| t == "not" || t.ends_with("n't"));
        if negation && support < 0.6 && relevant_sentences >= 4 && answer.confidence >= 0.4 {
            support = 0.7;
        }
        let score = if unanswerable {
            2.0
        } else if support >= 0.6 {
            if answer.confidence >= 0.2 {
                9.0 + f32::from(answer.confidence >= 0.45)
            } else {
                8.0
            }
        } else {
            (3.0 + 4.0 * answer.confidence).round()
        };
        let score = score.clamp(1.0, 10.0) as u8;

        let noise_ratio = if total_sentences == 0 {
            1.0
        } else {
            1.0 - relevant_sentences as f32 / total_sentences as f32
        };
        let mut rng = self.call_rng(&format!("fb|{question}|{}", context.len()));
        let adjustment = if unanswerable || support < 0.3 {
            1
        } else if noise_ratio > 0.6 || rng.random_range(0.0..1.0) < 0.6 {
            -1
        } else {
            1
        };

        let latency = self.profile.call_latency(output_tokens);
        (score, adjustment, cost, latency)
    }
}

fn profiles() -> [LlmProfile; 4] {
    [LlmProfile::gpt4(), LlmProfile::gpt4o_mini(), LlmProfile::gpt35_turbo(), LlmProfile::unifiedqa_3b()]
}

/// What a caller can see of an answer, with the confidence as bits.
fn seen(a: &Answer) -> (String, u32, Cost, Duration) {
    (a.text.clone(), a.confidence.to_bits(), a.cost, a.latency)
}

/// Both answer kinds and the judge of each answer, new against old, for
/// every profile. Returns how many open answers were not "unanswerable".
fn check(question: &str, options: &[String], context: &[String]) -> usize {
    let mut answered = 0;
    for profile in profiles() {
        let (new, old) = (SimLlm::new(profile), OldLlm::new(profile));
        let open = new.answer_open(question, context);
        let want = old.answer_open(question, context);
        assert_eq!(seen(&open), seen(&want), "{}: open {question:?} over {context:?}", profile.name);
        answered += usize::from(open.text != "unanswerable");
        let mut judged = vec![open];
        if !options.is_empty() {
            let (pick, mc) = new.answer_multiple_choice(question, options, context);
            let (want_pick, want) = old.answer_multiple_choice(question, options, context);
            assert_eq!(
                (pick, seen(&mc)),
                (want_pick, seen(&want)),
                "{}: choice {question:?} {options:?} over {context:?}",
                profile.name
            );
            judged.push(mc);
        }
        for answer in &judged {
            let fb = new.self_feedback(question, context, answer);
            assert_eq!(
                (fb.score, fb.adjustment, fb.cost, fb.latency),
                old.self_feedback(question, context, answer),
                "{}: judge of {:?} for {question:?} over {context:?}",
                profile.name,
                answer.text
            );
        }
    }
    answered
}

/// Reader contexts cut from a task's document: the evidence alone, the
/// first paragraphs, two-sentence chunks (the ≈ 14-chunk shape of a
/// corpus-wide query), the evidence among another document's chunks, and
/// nothing at all.
fn contexts(ds: &Dataset, doc: usize, evidence: &[String]) -> Vec<Vec<String>> {
    let chunks_of = |doc: usize| -> Vec<String> {
        let sentences: Vec<&str> =
            ds.documents[doc].paragraphs.iter().flat_map(|p| split_sentences(p)).collect();
        sentences.chunks(2).map(|pair| pair.join(" ")).collect()
    };
    let own = chunks_of(doc);
    let other = chunks_of((doc + 1) % ds.documents.len());
    let mut mixed: Vec<String> = other.iter().take(12).cloned().collect();
    mixed.splice(mixed.len() / 2..mixed.len() / 2, evidence.iter().cloned());
    vec![
        evidence.to_vec(),
        ds.documents[doc].paragraphs.iter().take(4).cloned().collect(),
        own.iter().take(14).cloned().collect(),
        mixed,
        Vec::new(),
    ]
}

fn check_dataset(ds: &Dataset, tasks: usize) -> usize {
    let mut answered = 0;
    for (n, task) in ds.tasks.iter().take(tasks).enumerate() {
        // Open datasets get options from their neighbours' gold answers.
        let options: Vec<String> = if task.item.options.is_empty() {
            (0..4).map(|k| ds.tasks[(n + k) % ds.tasks.len()].item.answers[0].clone()).collect()
        } else {
            task.item.options.clone()
        };
        for context in contexts(ds, task.doc, &task.item.evidence) {
            answered += check(&task.item.question, &options, &context);
        }
    }
    answered
}

#[test]
fn seeded_dataset_contexts_match_the_oracle() {
    let size = SizeConfig { num_docs: 4, questions_per_doc: 3, seed: 0x0A11 };
    let mut answered = 0;
    for ds in [triviaqa::generate(size), narrativeqa::generate(size)] {
        answered += check_dataset(&ds, 8);
    }
    let quality = quality::generate(size);
    let negated = quality.tasks.iter().filter(|t| t.item.question.contains(" not ")).count();
    assert!(negated > 0, "QuALITY's hard subset asks negated questions");
    answered += check_dataset(&quality, quality.tasks.len());
    // The comparison covers the sampling path, not only "unanswerable".
    assert!(answered > 100, "only {answered} open answers were answered");
}

/// The `live_mixed` read: the top 7 sentence-segmented chunks a live
/// store's snapshot retrieves for each TriviaQA question, options from the
/// neighbours' gold answers.
#[test]
fn live_store_contexts_match_the_oracle() {
    use sage_core::{CorpusWriter, LiveConfig, LiveOp};
    let ds = triviaqa::generate(SizeConfig { num_docs: 60, questions_per_doc: 1, seed: 0x11FE });
    let dir = std::env::temp_dir().join(format!("sage-llm-oracle-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (mut writer, _) = CorpusWriter::open(&dir, LiveConfig::default()).unwrap();
    let upserts: Vec<LiveOp> = ds
        .documents
        .iter()
        .enumerate()
        .map(|(d, doc)| LiveOp::Upsert { doc_id: format!("doc-{d}"), text: doc.text() })
        .collect();
    writer.commit(&upserts).unwrap();
    let snapshot = writer.snapshot();
    std::fs::remove_dir_all(&dir).ok();
    let mut answered = 0;
    for (n, task) in ds.tasks.iter().take(24).enumerate() {
        let hits = snapshot.search(&task.item.question, 7);
        assert_eq!(hits.len(), 7);
        let context: Vec<String> = hits.into_iter().map(|h| h.chunk).collect();
        let options: Vec<String> =
            (0..4).map(|k| ds.tasks[(n + k) % ds.tasks.len()].item.answers[0].clone()).collect();
        answered += check(&task.item.question, &options, &context);
    }
    assert!(answered > 48, "only {answered} open answers were answered");
}

#[test]
fn hand_picked_contexts_match_the_oracle() {
    let ctx = |chunks: &[&str]| -> Vec<String> { chunks.iter().map(|c| c.to_string()).collect() };
    let options = ctx(&["green", "orange", "bright green", "Whiskers' eyes", "the", ""]);
    for question in [
        "What is the color of Whiskers's eyes?",
        "What color are Whiskers' eyes?",
        "Which device was not developed by Vorden?",
        "Which animal doesn't Mossy keep?",
        "Where does Dorinwick live?",
        "What did Gavir sing for the moderator?",
        "Where was İlker born, in ΟΔΟΣ?",
        "",
        "?",
    ] {
        for context in [
            ctx(&["Whiskers is a tabby cat. He has bright green eyes."]),
            ctx(&["He has bright green eyes.", "Whiskers is a tabby cat."]),
            ctx(&[
                "Whiskers is a tabby cat. He has bright green eyes.",
                "Patchy is a ferret. Patchy has bright orange eyes.",
                "Mossy is the tortoise. Mossy has amber eyes. Mossy keeps a pygmy goat.",
            ]),
            ctx(&[
                "Vorden spent years at the workbench. Vorden developed the vapor engine.",
                "He also built the tide clock. He developed the salt battery.",
                "Vorden's well-known state-of-the-art salt-battery works; it's Vorden's.",
            ]),
            ctx(&[
                "İlker was born in İstanbul. ΟΔΟΣ is a street; İlker's house is on ΟΔΟΣ.",
                "Émile's café sells crème brûlée. Σ σ ς ǅ ß straße ﬁsh.",
            ]),
            ctx(&["Gavir is a quiet shepherd. He sang a tribal song for the moderator."]),
            // The subject named in lowercase leaves no anchor; the pronoun
            // sentence after it is grounded and donates "Patchy".
            ctx(&["whiskers is a tabby cat. He has a friend, Patchy. Patchy has orange eyes."]),
            ctx(&["", " ", "...", "?!"]),
            Vec::new(),
        ] {
            check(question, &options, &context);
        }
    }
}

/// Exercises every sampled branch: the reader's IDF and type tables, the
/// word ranks and bigram keys, the anchors and pronouns, the judge's
/// distinct-stem counts.
const PIECES: [&str; 72] = [
    "Whiskers ", "Whiskers's ", "Whiskers' ", "whiskers ", "Mossy ", "Mossy's ", "Vorden ",
    "He ", "he ", "She ", "It ", "His ", "Their ", "they ", "the ", "The ", "a ", "is ", "not ",
    "doesn't ", "has ", "eyes ", "eye ", "bright ", "green ", "orange ", "amber ", "color ",
    "What ", "Which ", "Where ", "lives ", "born ", "in ", "Ashford ", "town ", "house ", "works ",
    "baker ", "plays ", "cello ", "keeps ", "pygmy goat ", "pet ", "developed ", "vapor engine ",
    "tide clock ", "state-of-the-art ", "well-known ", "it's ", "İstanbul ", "İ ", "ΟΔΟΣ ", "Σ ",
    "σ ", "ς ", "Émile's ", "café ", "ß ", "ǅ ", "zyzzyva ", "quux ", "42 ", "3.1 ", ". ", "? ",
    "! ", ", ", "'", "-", "\n", "",
];

fn text(pieces: &[usize]) -> String {
    pieces.iter().map(|&i| PIECES[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_text_reads_and_judges_like_the_oracle(
        question in proptest::collection::vec(0..PIECES.len(), 0..16),
        chunks in proptest::collection::vec(proptest::collection::vec(0..PIECES.len(), 0..40), 0..8),
        options in proptest::collection::vec(proptest::collection::vec(0..PIECES.len(), 0..4), 0..5),
    ) {
        let context: Vec<String> = chunks.iter().map(|c| text(c)).collect();
        let options: Vec<String> = options.iter().map(|o| text(o)).collect();
        check(&text(&question), &options, &context);
    }
}

/// A unigram and a bigram with the same score are ordered by their text,
/// so "afoo bfoo" comes before "ufoo". Built to tie exactly for the GPT-3.5
/// analog (entity weight 2.0, unseen words, no answer type): "Zork qa ufoo."
/// scores `2.0 + 2 · 1/20` = `2.1f32` for "ufoo", and "Zork afoo bfoo."
/// scores `2.0 · 1.05f32` = `2.1f32` for the bigram.
#[test]
fn a_unigram_and_a_bigram_that_tie_keep_their_text_order() {
    let stems: Vec<String> = (b'a'..=b't').map(|c| format!("q{}", c as char)).collect();
    let mut tie_picked = 0;
    for name in ["Zork", "Quiv", "Brel", "Fent", "Golm", "Hask", "Jorv", "Kelt"] {
        let question = format!("What is {} of {name}?", stems.join(" "));
        let context = vec![format!("{name} qa ufoo."), format!("{name} afoo bfoo.")];
        let old = OldLlm::new(LlmProfile::gpt35_turbo());
        let q = analyze_question(&question);
        let candidates = old.candidates(&q, &old.score_sentences(&q, &context));
        let top: Vec<(&str, u32)> =
            candidates.iter().take(2).map(|(text, score)| (text.as_str(), score.to_bits())).collect();
        assert_eq!(top, [("afoo bfoo", 2.1f32.to_bits()), ("ufoo", 2.1f32.to_bits())]);
        check(&question, &[], &context);
        let text = SimLlm::new(LlmProfile::gpt35_turbo()).answer_open(&question, &context).text;
        tie_picked += usize::from(text == "afoo bfoo" || text == "ufoo");
    }
    assert!(tie_picked > 0, "no question sampled one of the tied pair");
}

/// Counts are not capped at 64 stems: a question of 100 distinct content
/// words, each of which some context sentence repeats, and an answer of 70.
#[test]
fn more_than_64_distinct_stems_count_like_the_oracle() {
    let words: Vec<String> = (0..100).map(|i| format!("w{i}x")).collect();
    let question = format!("What is {} of Whiskers?", words.join(" "));
    let context = vec![
        format!("Whiskers has {}.", words[..70].join(" ")),
        format!("He keeps {} bright green eyes.", words[30..].join(" ")),
        words.join(" "),
    ];
    let options = vec![words[..70].join(" "), words[..3].join(" "), "green".to_string()];
    check(&question, &options, &context);
    for profile in profiles() {
        let (new, old) = (SimLlm::new(profile), OldLlm::new(profile));
        let answer = Answer {
            text: words[..70].join(" "),
            confidence: 0.5,
            cost: Cost::zero(),
            latency: Duration::ZERO,
        };
        let fb = new.self_feedback(&question, &context, &answer);
        assert_eq!((fb.score, fb.adjustment, fb.cost, fb.latency), old.self_feedback(&question, &context, &answer));
    }
}
