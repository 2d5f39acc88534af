//! The simulated reader: candidate extraction + temperature sampling.
//!
//! A call does each piece of work once:
//!
//! - its input tokens are counted from the prompt's pieces; no prompt is
//!   built;
//! - its context is read once, into a `Reading`: one token-buffer fill per
//!   sentence, every content word stemmed once, and per sentence the score
//!   that weighs the candidates (open questions) and the options (multiple
//!   choice);
//! - a sentence's proper nouns are read only when they can match an anchor
//!   or be donated as one;
//! - which words can be answer material is worked out only for the
//!   sentences an open question's answer can come from;
//! - what the reader knows of a string (the language prior's ratio of a
//!   stem, its relation classes, the answer pools of a word or phrase) is
//!   one probe of one table, the lexicon, built once per process; each
//!   distinct candidate word probes it once for its stem and once as a
//!   word.
//!
//! Candidate phrases are keyed by integer word ranks, and only the picked
//! one is spelled out.

use crate::profile::LlmProfile;
use crate::prompt::{mc_prompt_tokens, open_prompt_tokens};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_corpus::datasets::{wiki, SizeConfig};
use sage_eval::Cost;
use sage_text::ngram::fnv1a;
use sage_text::{
    count_tokens, is_capitalized, is_stopword, proper_nouns, split_sentences, stem, stem_into,
    tokenize, TokenBuf, Vocab, WordSet,
};
use std::collections::BTreeMap;
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

/// An answer can come only from a sentence scoring above this.
const ANSWERING_SCORE: f32 = 0.3;

/// Subject pronouns that trigger in-chunk coreference credit.
const PRONOUNS: &[&str] = &["he", "she", "it", "his", "her", "its", "they", "their"];

/// Background IDF statistics standing in for the model's language prior:
/// informative (rare) words make better answers than template/function
/// words. Built once from a fixed synthetic sample, and read only while
/// [`lexicon`] is built.
fn language_prior() -> Vocab {
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
}

/// Normalised IDF of a phrase: the mean of its words' prior ratios
/// ([`Entry::ratio`]), summed in word order from 0.0 and clamped to
/// `[0, 1]`; 0.0 for no words.
fn idf_of(ratios: &[f32]) -> f32 {
    if ratios.is_empty() {
        return 0.0;
    }
    let total = ratios.iter().fold(0.0f32, |total, r| total + r);
    (total / ratios.len() as f32).clamp(0.0, 1.0)
}

/// Everything the reader knows of one string. A string is probed as a
/// stem (the prior ratio, relation classes and expected pools) or as a
/// word or phrase (the pools holding it); a string the lexicon lacks reads
/// as [`Entry::UNKNOWN`].
#[derive(Clone, Copy)]
struct Entry {
    /// `idf / max_idf` of the stem under the language prior: informative
    /// stems read near 1.0, and a stem the prior never saw is as rare as a
    /// stem can be (1.0).
    ratio: f32,
    /// The stem's relation-synonym classes, a bit per class: "born" /
    /// "childhood" is one relation, "lives" / "settled" another. Lets the
    /// reader distinguish same-pool relations (both answer with a place)
    /// the way a competent LLM does.
    relations: u16,
    /// The value pools a question with this stem expects its answer from
    /// ("color" expects a color, "born" a place), a bit per pool.
    expects: u8,
    /// The pools holding the word as a token of a pool phrase.
    token_pools: u8,
    /// The pools holding the whole lowercase phrase.
    phrase_pools: u8,
}

impl Entry {
    const UNKNOWN: Entry =
        Entry { ratio: 1.0, relations: 0, expects: 0, token_pools: 0, phrase_pools: 0 };
}

/// The reader's lexicon: the language prior and the world-knowledge
/// tables in one open-addressed table, so every question a call asks of a
/// string is one probe. The world knowledge is what *kind* of phrase
/// answers a question ("what color" expects a color, "where" a place) —
/// the lexical-semantics knowledge every real LLM has.
struct Lexicon {
    /// Every key back to back: the prior's stems and the tables' strings,
    /// each once.
    keys: String,
    /// Per key: its byte range in `keys` and its entry.
    entries: Vec<(u32, u32, Entry)>,
    /// Index into `entries` per slot, `u32::MAX` when free; a power of two
    /// at least twice the key count, probed linearly from the key's hash.
    slots: Vec<u32>,
}

impl Lexicon {
    /// The slot `key` is probed from.
    fn home(&self, key: &str) -> usize {
        fnv1a(key.as_bytes(), 0) as usize & (self.slots.len() - 1)
    }

    /// The entry of `key`: one probe, then a linear walk over the few
    /// keys that share its slot.
    fn get(&self, key: &str) -> &Entry {
        let mut at = self.home(key);
        loop {
            let Some(&(start, end, ref entry)) = self.entries.get(self.slots[at] as usize) else {
                return &Entry::UNKNOWN;
            };
            if &self.keys[start as usize..end as usize] == key {
                return entry;
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// The table of `entries`.
    fn build(entries: BTreeMap<String, Entry>) -> Self {
        let slots = vec![u32::MAX; (2 * entries.len()).next_power_of_two().max(2)];
        let mut lex = Lexicon { keys: String::new(), entries: Vec::new(), slots };
        for (key, entry) in entries {
            let mut at = lex.home(&key);
            while lex.slots[at] != u32::MAX {
                at = (at + 1) & (lex.slots.len() - 1);
            }
            lex.slots[at] = lex.entries.len() as u32;
            let start = lex.keys.len() as u32;
            lex.keys.push_str(&key);
            lex.entries.push((start, lex.keys.len() as u32, entry));
        }
        lex
    }
}

fn lexicon() -> &'static Lexicon {
    use sage_corpus::facts::Pool;
    static LEX: OnceLock<Lexicon> = OnceLock::new();
    LEX.get_or_init(|| {
        let prior = language_prior();
        let max_idf = (1.0 + (prior.num_docs() as f32 + 0.5) / 0.5).ln();
        let ratios: Vec<f32> = (0..prior.len() as u32).map(|id| prior.idf(id) / max_idf).collect();
        let mut entries: BTreeMap<String, Entry> = prior
            .into_terms()
            .into_iter()
            .zip(ratios)
            .map(|(term, ratio)| (term, Entry { ratio, ..Entry::UNKNOWN }))
            .collect();

        let pools = [
            Pool::Colors,
            Pool::Places,
            Pool::Professions,
            Pool::Foods,
            Pool::Technologies,
            Pool::Instruments,
            Pool::Animals,
        ];
        for (bit, pool) in pools.iter().enumerate() {
            for w in pool.words() {
                entries.entry(w.to_lowercase()).or_insert(Entry::UNKNOWN).phrase_pools |= 1 << bit;
                for t in tokenize(w) {
                    entries.entry(t).or_insert(Entry::UNKNOWN).token_pools |= 1 << bit;
                }
            }
        }
        // Indices into `pools` above.
        const COLORS: usize = 0;
        const PLACES: usize = 1;
        const PROFESSIONS: usize = 2;
        const FOODS: usize = 3;
        const TECH: usize = 4;
        const INSTRUMENTS: usize = 5;
        const ANIMALS: usize = 6;
        let expectations = [
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
        ];
        for (key, pool) in expectations {
            entries.entry(key.to_string()).or_insert(Entry::UNKNOWN).expects |= 1 << pool;
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
        for (bit, words) in relation_surface.iter().enumerate() {
            for w in *words {
                entries.entry(stem(w)).or_insert(Entry::UNKNOWN).relations |= 1 << bit;
            }
        }
        Lexicon::build(entries)
    })
}

/// Answer-type bonus: candidates of the expected kind are strongly
/// preferred (a reader never answers "bright" to a color question), others
/// are damped; with no expectation (`expected == 0`) everything is neutral.
/// `phrase_pools` are the pools holding the whole phrase, `token_pools`
/// those holding one of its tokens.
fn type_bonus(expected: u8, phrase_pools: u8, token_pools: u8) -> f32 {
    if expected == 0 {
        1.0
    } else if phrase_pools & expected != 0 {
        // Exact pool member ("black", "pygmy goat"): the strongest
        // answer-type evidence.
        1.6
    } else if token_pools & expected != 0 {
        // Contains a pool token ("bright black"): plausible but less
        // canonical than the exact member.
        1.35
    } else {
        0.7
    }
}

/// [`type_bonus`] of any phrase, read as the reader always has: lowercased,
/// then tokenized.
fn phrase_type_bonus(expected: u8, phrase: &str) -> f32 {
    if expected == 0 {
        return 1.0;
    }
    let lex = lexicon();
    let lower = phrase.to_lowercase();
    let token_pools = tokenize(&lower).iter().fold(0, |m, t| m | lex.get(t).token_pools);
    type_bonus(expected, lex.get(&lower).phrase_pools, token_pools)
}

/// [`idf_of`] any phrase: tokenized, each token stemmed.
fn phrase_idf(phrase: &str) -> f32 {
    let lex = lexicon();
    let ratios: Vec<f32> = tokenize(phrase).iter().map(|t| lex.get(&stem(t)).ratio).collect();
    idf_of(&ratios)
}

/// Index of `key` in a sorted list.
pub(crate) fn position(sorted: &[String], key: &str) -> Option<usize> {
    sorted.binary_search_by(|s| s.as_str().cmp(key)).ok()
}

/// `words` sorted and without repeats.
pub(crate) fn sorted_distinct(mut words: Vec<String>) -> Vec<String> {
    words.sort_unstable();
    words.dedup();
    words
}

/// Analysis of the question: entity terms, content stems, negation flag.
/// Both lists are sorted and distinct; every use is a count or a
/// membership test.
struct QuestionInfo {
    entity_terms: Vec<String>,
    content_stems: Vec<String>,
    /// Per content stem: whether it is informative (rare) enough to link
    /// an anchor.
    informative: Vec<bool>,
    negation: bool,
    /// Value pools the answer is expected from, a bit per pool (0 = no
    /// expectation).
    expected: u8,
    /// The relation classes the question asks about.
    relations: u16,
}

fn strip_possessive(token: &str) -> &str {
    token.strip_suffix("'s").unwrap_or_else(|| token.strip_suffix('\'').unwrap_or(token))
}

fn analyze_question(question: &str) -> QuestionInfo {
    let mut entity_terms = Vec::new();
    for word in question.split_whitespace() {
        if is_capitalized(word) {
            let cleaned = word.trim_matches(|c: char| !c.is_alphanumeric() && c != '\'');
            let lower = cleaned.to_lowercase();
            let base = strip_possessive(&lower).to_string();
            if !base.is_empty() && !is_stopword(&base) && !base.chars().all(|c| c.is_numeric()) {
                entity_terms.push(base);
            }
        }
    }
    let entity_terms = sorted_distinct(entity_terms);
    let mut content_stems = Vec::new();
    let mut negation = false;
    let mut tokens = TokenBuf::new();
    tokens.fill(question);
    for (i, tok) in tokens.iter().enumerate() {
        if tok == "not" || tok.ends_with("n't") {
            negation = true;
        }
        if tokens.is_stop(i) {
            continue;
        }
        let base = strip_possessive(tok);
        if position(&entity_terms, base).is_none() {
            content_stems.push(stem(base));
        }
    }
    let content_stems = sorted_distinct(content_stems);
    let lex = lexicon();
    let (mut informative, mut expected, mut relations) = (Vec::new(), 0, 0);
    for entry in content_stems.iter().map(|s| lex.get(s)) {
        informative.push(entry.ratio >= 0.5);
        expected |= entry.expects;
        relations |= entry.relations;
    }
    QuestionInfo { entity_terms, content_stems, informative, negation, expected, relations }
}

/// One context word as the reader sees it.
struct Word {
    /// Its lowercase text in [`Reading::text`].
    text: (usize, usize),
    /// Its stem in [`Reading::stems`]; empty for a stopword.
    stem: (usize, usize),
    /// Whether it is a content word (no stopword).
    content: bool,
    /// Whether, without its possessive, it is one of the question's entity
    /// terms.
    entity: bool,
    /// Whether its stem is one of the question's content stems.
    hit: bool,
    /// Whether it can be answer material: a content word, not the
    /// question's entity or content, with a letter in it. Worked out only
    /// where an answer can come from: the answering sentences
    /// ([`ANSWERING_SCORE`]) of an open question.
    eligible: bool,
}

/// One context sentence with its relevance score.
struct Sentence {
    /// Its words, a range of [`Reading::words`].
    words: std::ops::Range<usize>,
    score: f32,
    /// Whether the sentence is grounded in the question's subject (entity
    /// or coreference credit). Ungrounded sentences can still support
    /// answers, but a careful reader discounts them.
    grounded: bool,
}

/// One call's reading of its context: every sentence's words, their stems
/// and the sentence scores, each computed once.
#[derive(Default)]
struct Reading {
    /// Word texts back to back.
    text: String,
    /// Stems back to back.
    stems: String,
    words: Vec<Word>,
    sentences: Vec<Sentence>,
}

impl Reading {
    fn word(&self, i: usize) -> &str {
        let (start, end) = self.words[i].text;
        &self.text[start..end]
    }

    fn stem(&self, i: usize) -> &str {
        let (start, end) = self.words[i].stem;
        &self.stems[start..end]
    }

    fn push_word(&mut self, token: &str, stemmed: &str, entity: bool, hit: bool) {
        let text = (self.text.len(), self.text.len() + token.len());
        let stem = (self.stems.len(), self.stems.len() + stemmed.len());
        self.text.push_str(token);
        self.stems.push_str(stemmed);
        // A content word's stem is never empty.
        let content = !stemmed.is_empty();
        self.words.push(Word { text, stem, content, entity, hit, eligible: false });
    }

    /// Work out which words of `words` are answer material.
    /// `base_stem` is scratch.
    fn mark_eligible(
        &mut self,
        q: &QuestionInfo,
        words: std::ops::Range<usize>,
        base_stem: &mut String,
    ) {
        for i in words {
            let (w, token) = (&self.words[i], self.word(i));
            if !w.content || w.entity {
                continue;
            }
            // Answer material is tested on the stem of the word without
            // its possessive.
            let base = strip_possessive(token);
            let base_hit = if base.len() == token.len() {
                w.hit
            } else {
                stem_into(base, base_stem);
                position(&q.content_stems, base_stem).is_some()
            };
            // A pronoun is a stopword, so never a content word.
            let eligible = !base_hit && token.chars().any(char::is_alphabetic);
            self.words[i].eligible = eligible;
        }
    }

    /// Overwrite `out` with words `i` and `i + 1`, joined by a space.
    fn bigram(&self, i: usize, out: &mut String) {
        out.clear();
        out.push_str(self.word(i));
        out.push(' ');
        out.push_str(self.word(i + 1));
    }

    /// Whether a word of `sentence` has the stem `stemmed` (never empty).
    fn has_stem(&self, sentence: &Sentence, stemmed: &str) -> bool {
        sentence.words.clone().any(|i| self.stem(i) == stemmed)
    }
}

/// A distinct eligible word, with what its candidates need of it.
struct Ranked {
    /// One of its occurrences in [`Reading::words`].
    word: usize,
    /// Whether the shortcuts below hold: an ASCII token lowercases to
    /// itself and tokenizes to itself alone.
    ascii: bool,
    /// The prior ratio of its stem.
    ratio: f32,
    /// Its normalised IDF and type bonus as a unigram.
    idf: f32,
    bonus: f32,
    /// The pools holding it as a token.
    pools: u8,
}

/// Candidate answer phrases with scores, best first. A phrase is keyed by
/// the ranks of its words in text order: `a << 32` for the unigram `a`,
/// `a << 32 | (b + 1)` for the bigram `a b`. Key order is the byte order of
/// the phrases, because every byte that can continue a token sorts after
/// the joining space.
struct Candidates {
    /// An occurrence of each rank's word.
    words: Vec<usize>,
    /// `(key, score)`: score descending, then key ascending.
    scored: Vec<(u64, f32)>,
}

impl Candidates {
    fn key(a: usize, b: Option<usize>) -> u64 {
        ((a as u64) << 32) | b.map_or(0, |b| b as u64 + 1)
    }

    /// The text of the phrase keyed `key`.
    fn phrase(&self, reading: &Reading, key: u64) -> String {
        let mut text = reading.word(self.words[(key >> 32) as usize]).to_string();
        let b = key & u64::from(u32::MAX);
        if b != 0 {
            text.push(' ');
            text.push_str(reading.word(self.words[b as usize - 1]));
        }
        text
    }
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
    pub(crate) fn call_rng(&self, key: &str) -> StdRng {
        StdRng::seed_from_u64(fnv1a(key.as_bytes(), self.seed))
    }

    /// Read and score every context sentence; for an `open` question, also
    /// work out the answer material of the answering sentences. Chunk
    /// boundaries matter: pronoun coreference credit only flows *within* a
    /// chunk (the model can link "He has green eyes" to "Whiskers is a cat"
    /// only when both are in the provided chunk — limitation L1's
    /// mechanism).
    fn read(&self, q: &QuestionInfo, context: &[String], open: bool) -> Reading {
        let entity_weight = self.profile.entity_weight();
        // The sentence that last hit each question stem, so a sentence
        // counts distinct hits.
        let mut hit_by = vec![usize::MAX; q.content_stems.len()];
        let mut reading = Reading::default();
        let mut tokens = TokenBuf::new();
        let mut proper = WordSet::new();
        let mut anchors = WordSet::new();
        let mut base_stem = String::new();
        for chunk in context {
            let mut entity_seen = false;
            // Name-chain coreference: proper nouns introduced by sentences
            // that are grounded in the question (entity match or strong
            // content overlap) become anchors; later sentences about the
            // same name inherit subject credit. This is how a reader links
            // "Mossy is the tortoise…" to "Mossy has amber eyes" when the
            // question asks about the tortoise.
            anchors.clear();
            for sentence in split_sentences(chunk) {
                let n = reading.sentences.len();
                let first = reading.words.len();
                tokens.fill(sentence);
                let (mut has_entity, mut has_pronoun) = (false, false);
                let (mut hits, mut informative_overlap) = (0usize, false);
                for i in 0..tokens.len() {
                    let stop = tokens.is_stop(i);
                    let (token, stemmed) =
                        if stop { (tokens.get(i), "") } else { tokens.with_stem(i) };
                    let entity = position(&q.entity_terms, strip_possessive(token)).is_some();
                    has_entity |= entity;
                    has_pronoun |= i < 4 && PRONOUNS.contains(&token);
                    let hit = if stop { None } else { position(&q.content_stems, stemmed) };
                    if let Some(h) = hit.filter(|&h| hit_by[h] != n) {
                        hit_by[h] = n;
                        hits += 1;
                        informative_overlap |= q.informative[h];
                    }
                    reading.push_word(token, stemmed, entity, hit.is_some());
                }
                let rel = if q.content_stems.is_empty() {
                    0.0
                } else {
                    hits as f32 / q.content_stems.len() as f32
                };
                // A sentence donates its proper nouns as anchors only when
                // it is grounded, or when it shares an *informative* (rare)
                // content term with the question — a single generic word
                // like "town" appearing in both templates must not link an
                // unrelated entity to the question's subject.
                let overlap_donates = rel >= 0.3 && informative_overlap;
                // Its proper nouns are read only when they can match an
                // anchor or be donated as one.
                let needs_proper = !anchors.is_empty()
                    || has_entity
                    || (has_pronoun && entity_seen)
                    || overlap_donates;
                if needs_proper {
                    proper_nouns(sentence, &mut proper);
                } else {
                    proper.clear();
                }
                let has_anchor = proper.iter().any(|p| anchors.contains(p));
                let credit = if has_entity {
                    entity_seen = true;
                    1.0
                } else if has_anchor || (has_pronoun && (entity_seen || !anchors.is_empty())) {
                    0.9
                } else {
                    0.0
                };
                if credit > 0.0 || overlap_donates {
                    for p in proper.iter() {
                        anchors.insert(p);
                    }
                }
                let score = entity_weight * credit + 2.0 * rel;
                let words = first..reading.words.len();
                if open && score > ANSWERING_SCORE {
                    reading.mark_eligible(q, words.clone(), &mut base_stem);
                }
                reading.sentences.push(Sentence { words, score, grounded: credit > 0.0 });
            }
        }
        reading
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

    /// Extract candidate answer phrases (content unigrams/bigrams not in
    /// the question) with scores.
    fn candidates(&self, q: &QuestionInfo, reading: &Reading) -> Candidates {
        let lex = lexicon();
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
        let wrong_relation_damp = 1.0 - 0.75 * self.profile.distractor_resistance;
        let answering = || reading.sentences.iter().filter(|s| s.score > ANSWERING_SCORE);

        // Rank the distinct eligible words (all in answering sentences) by
        // text, and look up what a candidate needs of each word once: one
        // probe of its stem, one of the word.
        let mut order: Vec<usize> =
            (0..reading.words.len()).filter(|&i| reading.words[i].eligible).collect();
        order.sort_unstable_by(|&a, &b| reading.word(a).cmp(reading.word(b)));
        let mut rank_of = vec![0; reading.words.len()];
        let mut ranked: Vec<Ranked> = Vec::new();
        for (n, &i) in order.iter().enumerate() {
            let word = reading.word(i);
            if n == 0 || reading.word(order[n - 1]) != word {
                let ascii = word.is_ascii();
                let ratio = lex.get(reading.stem(i)).ratio;
                let entry = lex.get(word);
                let pools = entry.token_pools;
                let (idf, bonus) = if ascii {
                    (idf_of(&[ratio]), type_bonus(q.expected, entry.phrase_pools, pools))
                } else {
                    (phrase_idf(word), phrase_type_bonus(q.expected, word))
                };
                ranked.push(Ranked { word: i, ascii, ratio, idf, bonus, pools });
            }
            rank_of[i] = ranked.len() - 1;
        }

        let mut scored: Vec<(u64, f32)> = Vec::new();
        let mut phrase = String::new();
        for s in answering() {
            let mut damp = if s.grounded { 1.0 } else { ungrounded_damp };
            if q.relations != 0 {
                let s_relations = s
                    .words
                    .clone()
                    .filter(|&i| reading.words[i].content)
                    .fold(0, |m, i| m | lex.get(reading.stem(i)).relations);
                if s_relations != 0 {
                    if s_relations & q.relations != 0 {
                        damp *= 1.2;
                    } else {
                        damp *= wrong_relation_damp;
                    }
                }
            }
            for i in s.words.clone().filter(|&i| reading.words[i].eligible) {
                let (ra, a) = (rank_of[i], &ranked[rank_of[i]]);
                let uni_score = s.score * damp * (0.4 + 0.6 * a.idf) * a.bonus;
                scored.push((Candidates::key(ra, None), uni_score));
                // Adjacent bigram (adjacent in the original sentence).
                if i + 1 == s.words.end || !reading.words[i + 1].eligible {
                    continue;
                }
                let (rb, b) = (rank_of[i + 1], &ranked[rank_of[i + 1]]);
                let (idf, bonus) = if a.ascii && b.ascii {
                    // A pool holding the phrase holds both its tokens, so
                    // the phrase is probed only when some expected pool
                    // holds both.
                    let phrase_pools = if a.pools & b.pools & q.expected == 0 {
                        0
                    } else {
                        reading.bigram(i, &mut phrase);
                        lex.get(&phrase).phrase_pools
                    };
                    let bonus = type_bonus(q.expected, phrase_pools, a.pools | b.pools);
                    (idf_of(&[a.ratio, b.ratio]), bonus)
                } else {
                    reading.bigram(i, &mut phrase);
                    (phrase_idf(&phrase), phrase_type_bonus(q.expected, &phrase))
                };
                let bi_score = s.score * damp * (0.4 + 0.6 * idf) * bonus * 1.05;
                scored.push((Candidates::key(ra, Some(rb)), bi_score));
            }
        }

        // One score per phrase: the best, merged by `max` from 0.0.
        scored.sort_unstable_by_key(|&(key, _)| key);
        let mut merged: Vec<(u64, f32)> = Vec::with_capacity(scored.len());
        for (key, score) in scored {
            match merged.last_mut() {
                Some(last) if last.0 == key => last.1 = last.1.max(score),
                _ => merged.push((key, 0.0f32.max(score))),
            }
        }
        merged.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Candidates { words: ranked.iter().map(|r| r.word).collect(), scored: merged }
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
        let input_tokens = open_prompt_tokens(question, context);
        let q = analyze_question(question);
        let reading = self.read(&q, context, true);
        let candidates = self.candidates(&q, &reading);
        let scored = &candidates.scored;

        let (text, confidence) = if scored.is_empty()
            || scored[0].1 / self.max_score_for(&q) < self.profile.answer_threshold
        {
            ("unanswerable".to_string(), 0.15)
        } else {
            let mut rng = self.call_rng(&format!("open|{question}|{}", context.len()));
            let scores: Vec<f32> = scored.iter().map(|c| c.1).collect();
            let t = self.effective_temperature(reading.sentences.len());
            let pick = self.sample_at(&scores, t, &mut rng);
            let top = scores[0];
            let second = scores.get(1).copied().unwrap_or(0.0);
            let margin = ((top - second) / top.max(1e-6)).clamp(0.0, 1.0);
            let strength = (top / self.max_score_for(&q)).clamp(0.0, 1.0);
            let text = candidates.phrase(&reading, scored[pick].0);
            (text, (0.5 * margin + 0.5 * strength).clamp(0.0, 1.0))
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
    fn option_support(&self, option: &str, reading: &Reading) -> f32 {
        let opt_stems: Vec<String> = tokenize(option)
            .iter()
            .filter(|t| !is_stopword(t))
            .map(|t| stem(t))
            .collect();
        if opt_stems.is_empty() {
            return 0.0;
        }
        let need = opt_stems.len().div_ceil(2).max(1);
        reading
            .sentences
            .iter()
            .filter_map(|s| {
                let hits = opt_stems.iter().filter(|o| reading.has_stem(s, o)).count();
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
    ///
    /// # Panics
    ///
    /// When `options` is empty: there is no index to return.
    pub fn answer_multiple_choice(
        &self,
        question: &str,
        options: &[String],
        context: &[String],
    ) -> (usize, Answer) {
        assert!(!options.is_empty());
        let input_tokens = mc_prompt_tokens(question, options, context);
        let q = analyze_question(question);
        let reading = self.read(&q, context, false);
        let supports: Vec<f32> =
            options.iter().map(|o| self.option_support(o, &reading)).collect();
        let temperature = self.effective_temperature(reading.sentences.len());

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
                self.sample_at(&supports, temperature, &mut rng)
            }
        } else if supports.iter().all(|s| *s == 0.0) {
            // No evidence at all: uniform guess.
            rng.random_range(0..options.len())
        } else {
            self.sample_at(&supports, temperature, &mut rng)
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
    fn every_pronoun_is_a_stopword() {
        // Answer material is a content word, so it is never a pronoun.
        assert!(PRONOUNS.iter().all(|p| is_stopword(p)));
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
