//! `SegmentationModel::score_adjacent` and `SemanticSegmenter::segment`
//! against the pair-at-a-time bodies they replaced, kept here verbatim as
//! the oracle: scores are compared by bit pattern, chunk lists as
//! `Vec<String>`.

#![allow(clippy::unwrap_used, reason = "every function here runs under a test; a blob that does not parse should fail it")]

use proptest::prelude::*;
use sage_corpus::datasets::{narrativeqa, triviaqa, wiki, SizeConfig};
use sage_corpus::training::segmentation_pairs;
use sage_embed::sentence_features;
use sage_nn::io::Reader;
use sage_nn::matrix::Matrix;
use sage_nn::{BytesSerialize, EmbeddingTable, Mlp};
use sage_segment::{FeatureConfig, SegmentationModel, Segmenter, SemanticSegmenter};
use sage_text::{count_tokens, split_paragraphs, split_sentences};

/// The old model and segmenter, rebuilt from outside the crate: the fields
/// are read back from the model's own blob.
struct Oracle {
    table: EmbeddingTable,
    mlp: Mlp,
    use_diff: bool,
    use_prod: bool,
    buckets: usize,
    dim: usize,
    seed: u64,
    threshold: f32,
    coarse_tokens: usize,
}

impl Oracle {
    fn of(model: &SegmentationModel, threshold: f32, coarse_tokens: usize) -> Self {
        let blob = model.to_bytes();
        let mut r = Reader::new(&blob);
        let buckets = r.u32().unwrap() as usize;
        let dim = r.u32().unwrap() as usize;
        let seed = r.u64().unwrap();
        let use_diff = r.u8().unwrap() != 0;
        let use_prod = r.u8().unwrap() != 0;
        let table = EmbeddingTable::read(&mut r).unwrap();
        let mlp = Mlp::read(&mut r).unwrap();
        r.finish().unwrap();
        Self { table, mlp, use_diff, use_prod, buckets, dim, seed, threshold, coarse_tokens }
    }

    fn blocks(&self) -> usize {
        2 + usize::from(self.use_diff) + usize::from(self.use_prod)
    }

    fn features(&self, sentence: &str) -> Vec<(u32, f32)> {
        let mut feats = sentence_features(sentence, self.buckets, self.seed);
        let tokens = sage_text::tokenize(sentence);
        for (i, tok) in tokens.iter().take(2).enumerate() {
            let f = sage_text::hash_token(tok, self.buckets, self.seed ^ (0xF157 + i as u64));
            feats.push((f.bucket, f.sign * 2.0));
        }
        feats
    }

    fn pool(&self, feats: &[(u32, f32)]) -> Vec<f32> {
        let mut v = vec![0.0; self.dim];
        self.table_pool(feats, &mut v);
        v
    }

    /// `EmbeddingTable::pool`, from before it became `pool_with` of a list.
    fn table_pool(&self, features: &[(u32, f32)], out: &mut [f32]) {
        assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        if features.is_empty() {
            return;
        }
        for &(bucket, sign) in features {
            for (o, &v) in out.iter_mut().zip(self.table.row(bucket)) {
                *o += sign * v;
            }
        }
        let inv = 1.0 / features.len() as f32;
        for o in out {
            *o *= inv;
        }
    }

    fn augment(&self, x1: &[f32], x2: &[f32]) -> Vec<f32> {
        let mut input = Vec::with_capacity(self.dim * self.blocks());
        input.extend_from_slice(x1);
        input.extend_from_slice(x2);
        if self.use_diff {
            input.extend(x1.iter().zip(x2).map(|(a, b)| a - b));
        }
        if self.use_prod {
            input.extend(x1.iter().zip(x2).map(|(a, b)| a * b));
        }
        input
    }

    fn score_pair(&self, s1: &str, s2: &str) -> f32 {
        let x1 = self.pool(&self.features(s1));
        let x2 = self.pool(&self.features(s2));
        let input = Matrix::from_row(&self.augment(&x1, &x2));
        self.mlp.infer(&input).get(0, 0)
    }

    fn starts_with_pronoun(sentence: &str) -> bool {
        const PRONOUNS: &[&str] =
            &["he", "she", "it", "his", "her", "its", "they", "their", "the eyes"];
        let lower = sentence.trim_start().to_lowercase();
        PRONOUNS.iter().any(|p| {
            lower.strip_prefix(p).is_some_and(|rest| {
                rest.chars().next().is_none_or(|c| !c.is_alphanumeric())
            })
        })
    }

    fn refine(&self, sentences: &[String]) -> Vec<String> {
        if sentences.is_empty() {
            return Vec::new();
        }
        let mut chunks = Vec::new();
        let mut current = sentences[0].clone();
        let mut current_tokens = count_tokens(&sentences[0]);
        for pair in sentences.windows(2) {
            let score = self.score_pair(&pair[0], &pair[1]);
            let guard = Self::starts_with_pronoun(&pair[1]);
            let over_budget = current_tokens > self.coarse_tokens;
            let cut = (score < self.threshold || over_budget) && !guard;
            if cut {
                chunks.push(std::mem::take(&mut current));
                current = pair[1].clone();
                current_tokens = count_tokens(&pair[1]);
            } else {
                current.push(' ');
                current.push_str(&pair[1]);
                current_tokens += count_tokens(&pair[1]);
            }
        }
        chunks.push(current);
        chunks
    }

    /// The old `segment`; the old `split_sentences` is `sage-text`'s oracle.
    fn segment(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for paragraph in split_paragraphs(text) {
            let sentences: Vec<String> =
                split_sentences(paragraph).into_iter().map(str::to_string).collect();
            out.extend(self.refine(&sentences));
        }
        out
    }
}

const CONFIGS: [FeatureConfig; 4] = [
    FeatureConfig { use_diff: false, use_prod: false },
    FeatureConfig { use_diff: true, use_prod: false },
    FeatureConfig { use_diff: false, use_prod: true },
    FeatureConfig { use_diff: true, use_prod: true },
];

/// The paper's parameters; a threshold no score reaches with a budget every
/// sentence passes (only the pronoun guard stops a cut); a threshold every
/// score reaches with a small budget (only the budget cuts).
const PARAMS: [(f32, usize); 3] = [(0.55, 400), (2.0, 0), (-1.0, 12)];

fn model(feat: FeatureConfig, trained: bool) -> SegmentationModel {
    let mut model = SegmentationModel::new(512, 12, 8, feat, 0x5E61);
    if trained {
        let ds = wiki::generate(SizeConfig { num_docs: 6, questions_per_doc: 0, seed: 21 });
        model.train(&segmentation_pairs(&ds.documents, 240, 3), 0.05, 2);
    }
    model
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every adjacent-pair score of every paragraph, batched and alone, has the
/// old score's bits; the chunk list is the old one under every `PARAMS`.
fn check(model: &SegmentationModel, text: &str) {
    let oracle = Oracle::of(model, 0.0, 0);
    for paragraph in split_paragraphs(text) {
        let sentences = split_sentences(paragraph);
        let want: Vec<f32> = sentences.windows(2).map(|p| oracle.score_pair(p[0], p[1])).collect();
        assert_eq!(bits(&model.score_adjacent(&sentences)), bits(&want), "{paragraph:?}");
        for (pair, want) in sentences.windows(2).zip(&want) {
            assert_eq!(model.score_pair(pair[0], pair[1]).to_bits(), want.to_bits(), "{pair:?}");
        }
    }
    for (threshold, coarse_tokens) in PARAMS {
        let oracle = Oracle::of(model, threshold, coarse_tokens);
        let segmenter = SemanticSegmenter::with_params(model.clone(), threshold, coarse_tokens);
        assert_eq!(segmenter.segment(text), oracle.segment(text), "{text:?} at {threshold} / {coarse_tokens}");
    }
}

#[test]
fn generated_documents_score_and_segment_like_the_old_path() {
    let size = SizeConfig { num_docs: 2, questions_per_doc: 1, seed: 20250612 };
    let texts: Vec<String> = [wiki::generate(size), triviaqa::generate(size), narrativeqa::generate(size)]
        .iter()
        .flat_map(|dataset| dataset.documents.iter().map(|doc| doc.text()))
        .collect();
    for feat in CONFIGS {
        for trained in [false, true] {
            let model = model(feat, trained);
            for text in &texts {
                check(&model, text);
            }
        }
    }
}

#[test]
fn the_default_trained_shape_scores_like_the_old_path() {
    // `TrainedModels::train`'s own dimensions, briefly trained.
    let ds = wiki::generate(SizeConfig { num_docs: 8, questions_per_doc: 0, seed: 0xA11CE });
    let mut model = SegmentationModel::new(2048, 24, 24, FeatureConfig::default(), 0x5E61);
    model.train(&segmentation_pairs(&ds.documents, 400, 0xB0B), 0.05, 2);
    for doc in triviaqa::generate(SizeConfig { num_docs: 3, questions_per_doc: 1, seed: 7 }).documents {
        check(&model, &doc.text());
    }
}

#[test]
fn degenerate_paragraphs_segment_like_the_old_path() {
    for feat in CONFIGS {
        let model = model(feat, true);
        for text in [
            "",
            "\n\n \n",
            "a",
            "a \n A",
            ".",
            "One sentence only.",
            "One. Two.",
            "x. y. z.\nw",
            "?! ... \"'\n)]”’",
            "He. She. It. They.",
            "Whiskers is a cat. His eyes are green. The eyes glow. Brone is a dog.\n\nIt rained.",
        ] {
            check(&model, text);
        }
        assert!(model.score_adjacent(&[]).is_empty());
        assert!(model.score_adjacent(&["alone"]).is_empty());
        assert_eq!(model.score_adjacent(&["", ""]).len(), 1);
    }
}

/// With a threshold no score reaches, a sentence starts a new chunk exactly
/// when the guard lets it: the chunk list is the guard, made visible.
fn check_guard(segmenter: &SemanticSegmenter, oracle: &Oracle, opening: &str) {
    let text = format!("Lead sentence. {opening} and the rest");
    assert_eq!(segmenter.segment(&text), oracle.segment(&text), "{opening:?}");
}

#[test]
fn the_pronoun_guard_matches_the_lowercasing_one_it_replaced() {
    const PRONOUNS: [&str; 9] = ["he", "she", "it", "his", "her", "its", "they", "their", "the eyes"];
    // What follows the pronoun, and what may stand in for one of its letters:
    // ASCII of every class, and the characters whose lowercase is, starts
    // with, or looks like an ASCII letter.
    const NEXT: [&str; 14] =
        ["", " ", "s", "S", "1", "_", "-", "'", ",", "\u{307}", "é", "İ", "\u{212A}", "\u{a0}"];
    const ODD: [char; 14] =
        ['İ', '\u{212A}', 'ſ', 'ß', 'Σ', 'ı', 'é', '\u{307}', 'I', 'T', 'h', 'E', '1', ' '];
    let model = model(FeatureConfig::default(), false);
    let segmenter = SemanticSegmenter::with_params(model.clone(), 2.0, 0);
    let oracle = Oracle::of(&model, 2.0, 0);
    let mut guarded = 0;
    for pronoun in PRONOUNS {
        for cased in [pronoun.to_string(), pronoun.to_uppercase(), capitalize(pronoun)] {
            for next in NEXT {
                check_guard(&segmenter, &oracle, &format!("{cased}{next}"));
                check_guard(&segmenter, &oracle, &format!("  {cased}{next}"));
            }
            for (at, _) in cased.char_indices() {
                for odd in ODD {
                    // `odd` in place of the letter at `at`, and before it.
                    check_guard(&segmenter, &oracle, &format!("{}{odd}{}", &cased[..at], &cased[at + 1..]));
                    check_guard(&segmenter, &oracle, &format!("{}{odd}{}", &cased[..at], &cased[at..]));
                }
            }
            let text = format!("Lead sentence. {cased} came next.");
            guarded += usize::from(segmenter.segment(&text).len() == 1);
        }
    }
    assert_eq!(guarded, 27, "every casing of every pronoun vetoes the cut");
    for (opening, vetoes) in
        [("İt", false), ("\u{212A}it", false), ("ſhe", false), ("Item", false), ("IT", true), ("The Eyes", true)]
    {
        let text = format!("Lead sentence. {opening} came next.");
        assert_eq!(segmenter.segment(&text).len() == 1, vetoes, "{opening:?}");
    }
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    chars.next().map(|c| c.to_uppercase().chain(chars).collect()).unwrap_or_default()
}

/// Why an ASCII-case-insensitive prefix match equals `to_lowercase()` +
/// `strip_prefix` for an ASCII pronoun list, over every `char` there is.
#[test]
fn no_character_outside_ascii_lowercases_into_a_pronoun() {
    let mut ascii_leading = Vec::new();
    for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
        // The test on the character after the pronoun reads the same before
        // and after lowercasing.
        let lowered = c.to_lowercase().next().unwrap();
        assert_eq!(c.is_alphanumeric(), lowered.is_alphanumeric(), "{c:?}");
        // A non-ASCII character can only match a pronoun's letters if its
        // lowercase holds an ASCII one.
        if !c.is_ascii() && c.to_lowercase().any(|l| l.is_ascii()) {
            ascii_leading.push(c);
        }
    }
    // İ → "i̇" (the dot is U+0307, so "İt" is not "it") and K → "k" (no
    // pronoun has a k); both are in the directed test above.
    assert_eq!(ascii_leading, ['İ', '\u{212A}']);
    assert_eq!('İ'.to_lowercase().collect::<String>(), "i\u{307}");
    assert_eq!('\u{212A}'.to_lowercase().collect::<String>(), "k");
}

/// What segmentation branches on: the tokenizer's hostile alphabet, the
/// splitter's terminators and closers, digits around periods, abbreviations,
/// pronouns in three casings, paragraph breaks.
const PIECES: [&str; 64] = [
    "a", "b", "c", "A", "B", "E", "0", "1", "2", "-", "'", "_", " ", " ", " ", ",", ";", "—", "İ", "ß",
    "Σ", "σ", "é", "ǅ", "\t", "\n", ".", ". ", ". ", "!", "? ", "\"", "'", ")", "]", "”", "’", "3.1",
    "2. ", "Mr. ", "e.g. ", "etc. ", "Fig. ", "J. ", "vs. ", "He ", "she ", "IT ", "his ", "Her ",
    "its ", "They ", "their ", "The eyes ", "the eyes", "it's ", "Item ", "the cat ", "Whiskers ",
    "green eyes", "sleeps", "Brone's ", "\n\n", "\u{212A}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_text_scores_and_segments_like_the_old_path(
        pieces in proptest::collection::vec(0..PIECES.len(), 0..60),
        config in 0..CONFIGS.len(),
    ) {
        static TRAINED: std::sync::OnceLock<Vec<SegmentationModel>> = std::sync::OnceLock::new();
        let models = TRAINED.get_or_init(|| CONFIGS.iter().map(|&feat| model(feat, true)).collect());
        let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
        check(&models[config], &text);
    }
}
