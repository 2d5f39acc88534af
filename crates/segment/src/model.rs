//! The segmentation model (paper Figure 4) and its Algorithm-1 trainer.
//!
//! Architecture: hashed sentence features → shared [`EmbeddingTable`]
//! (mean-pooled) → feature augmentation → MLP → sigmoid score. A score near
//! 1 means "these adjacent sentences belong in the same chunk", near 0
//! means "segment here". Training updates both the embedding table and the
//! MLP (Algorithm 1, line 8 updates `f_e` and `M`).

use sage_embed::Analysis;
use sage_nn::io::{put_u32, put_u64, Reader};
use sage_nn::layer::Activation;
use sage_nn::matrix::Matrix;
use sage_nn::{EmbeddingTable, Mlp};

/// Which augmented features feed the MLP (Table X ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Include the elementwise difference `x₁ − x₂`.
    pub use_diff: bool,
    /// Include the elementwise product `x₁ · x₂`.
    pub use_prod: bool,
}

impl Default for FeatureConfig {
    /// The paper's full feature set.
    fn default() -> Self {
        Self { use_diff: true, use_prod: true }
    }
}

impl FeatureConfig {
    /// Only `(x₁, x₂)` — the Table X baseline row.
    pub fn base() -> Self {
        Self { use_diff: false, use_prod: false }
    }

    /// Number of concatenated feature blocks.
    fn blocks(self) -> usize {
        2 + usize::from(self.use_diff) + usize::from(self.use_prod)
    }

    /// Human-readable label matching the paper's Table X rows.
    pub fn label(self) -> &'static str {
        match (self.use_diff, self.use_prod) {
            (false, false) => "(x1), (x2)",
            (true, false) => "(x1), (x2), (x1 - x2)",
            (false, true) => "(x1), (x2), (x1 * x2)",
            (true, true) => "(x1), (x2), (x1 - x2), (x1 * x2)",
        }
    }
}

/// Per-epoch training metrics returned by [`SegmentationModel::train`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean MSE loss per epoch.
    pub epoch_losses: Vec<f32>,
}

/// The Figure-4 segmentation model.
#[derive(Debug, Clone)]
pub struct SegmentationModel {
    table: EmbeddingTable,
    mlp: Mlp,
    feat: FeatureConfig,
    buckets: usize,
    dim: usize,
    seed: u64,
}

impl SegmentationModel {
    /// Build an untrained model.
    ///
    /// * `buckets`/`dim` size the sentence embedder;
    /// * `hidden` sizes the MLP's hidden layer;
    /// * `feat` selects augmented features;
    /// * `seed` makes initialisation deterministic.
    pub fn new(buckets: usize, dim: usize, hidden: usize, feat: FeatureConfig, seed: u64) -> Self {
        let input = dim * feat.blocks();
        Self {
            table: EmbeddingTable::new(buckets, dim, seed),
            mlp: Mlp::new(&[input, hidden, 1], Activation::Tanh, Activation::Sigmoid, seed ^ 0x11),
            feat,
            buckets,
            dim,
            seed,
        }
    }

    /// The configuration used by experiment presets.
    pub fn default_model() -> Self {
        Self::new(2048, 32, 32, FeatureConfig::default(), 0x5E6)
    }

    /// Sentence featurization for the segmentation task: the shared hashed
    /// bag-of-features plus, last, high-weight *leading-token* features.
    /// Sentence openings carry most of the boundary signal (pronoun-initial
    /// continuations vs. name-initial introductions), and making them
    /// separately addressable lets the linear layers pick that up without
    /// fighting the pooled average.
    fn for_each_feature(&self, analysis: &mut Analysis, mut emit: impl FnMut(u32, f32)) {
        analysis.for_each_feature(self.buckets, self.seed, &mut emit);
        for (i, tok) in analysis.tokens.iter().take(2).enumerate() {
            let f = sage_text::hash_token(tok, self.buckets, self.seed ^ (0xF157 + i as u64));
            emit(f.bucket, f.sign * 2.0);
        }
    }

    /// Mean-pool an analysed sentence's features into `out` (`dim` floats),
    /// in feature order, with no list of them in between; zeros when it has
    /// none.
    fn pool(&self, analysis: &mut Analysis, out: &mut [f32]) {
        self.table.pool_with(out, |add| self.for_each_feature(analysis, add));
    }

    /// Write `(x₁, x₂[, x₁−x₂][, x₁·x₂])` per the feature config into `row`.
    fn augment(&self, x1: &[f32], x2: &[f32], row: &mut [f32]) {
        let d = self.dim;
        row[..d].copy_from_slice(x1);
        row[d..2 * d].copy_from_slice(x2);
        let mut offset = 2 * d;
        if self.feat.use_diff {
            for ((o, a), b) in row[offset..offset + d].iter_mut().zip(x1).zip(x2) {
                *o = a - b;
            }
            offset += d;
        }
        if self.feat.use_prod {
            for ((o, a), b) in row[offset..offset + d].iter_mut().zip(x1).zip(x2) {
                *o = a * b;
            }
        }
    }

    /// The one scorer: pool each sentence once, then score every adjacent
    /// pair in a single forward — `scores[i]` is for `(sentences[i],
    /// sentences[i + 1])`. A row of a matrix product depends on no other
    /// row, so each score has the bits it would have scored alone.
    pub(crate) fn score_adjacent_into(&self, sentences: &[&str], scratch: &mut Scratch) {
        let Scratch { analysis, pooled, scores } = scratch;
        scores.clear();
        if sentences.len() < 2 {
            return;
        }
        let d = self.dim;
        pooled.resize(sentences.len() * d, 0.0);
        for (sentence, x) in sentences.iter().zip(pooled.chunks_exact_mut(d)) {
            analysis.fill(sentence);
            self.pool(analysis, x);
        }
        let mut input = Matrix::zeros(sentences.len() - 1, d * self.feat.blocks());
        // Sentence i's vector and the next one's are adjacent in `pooled`.
        for (i, pair) in pooled.windows(2 * d).step_by(d).enumerate() {
            let (x1, x2) = pair.split_at(d);
            self.augment(x1, x2, input.row_mut(i));
        }
        scores.extend_from_slice(self.mlp.infer(&input).data());
    }

    /// Score every adjacent pair of a paragraph's sentences in `[0, 1]`
    /// (one fewer score than sentences); below the threshold `ss` the pair
    /// should be segmented (§IV-D).
    pub fn score_adjacent(&self, sentences: &[&str]) -> Vec<f32> {
        let mut scratch = Scratch::default();
        self.score_adjacent_into(sentences, &mut scratch);
        scratch.scores
    }

    /// [`score_adjacent`](Self::score_adjacent) of two sentences.
    pub fn score_pair(&self, s1: &str, s2: &str) -> f32 {
        self.score_adjacent(&[s1, s2])[0]
    }

    /// Algorithm 1: train on `(s₁, s₂, label)` pairs with MSE, updating the
    /// embedder and the MLP jointly.
    pub fn train(&mut self, pairs: &[(String, String, f32)], lr: f32, epochs: usize) -> TrainReport {
        // Features depend on nothing trained: one extraction per sentence
        // serves every epoch. Pairs with a featureless side are skipped.
        let mut analysis = Analysis::default();
        let mut features = |sentence: &str| {
            analysis.fill(sentence);
            let mut feats = Vec::with_capacity(analysis.tokens.len() * 3 + 2);
            self.for_each_feature(&mut analysis, |bucket, sign| feats.push((bucket, sign)));
            feats
        };
        let examples: Vec<_> = pairs
            .iter()
            .map(|(s1, s2, label)| (features(s1), features(s2), *label))
            .filter(|(f1, f2, _)| !f1.is_empty() && !f2.is_empty())
            .collect();

        let d = self.dim;
        let (mut x1, mut x2) = (vec![0.0; d], vec![0.0; d]);
        let (mut gx1, mut gx2) = (vec![0.0; d], vec![0.0; d]);
        let mut input = Matrix::zeros(1, d * self.feat.blocks());
        let mut target = Matrix::zeros(1, 1);
        let mut epoch_losses = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            // Geometric learning-rate decay stabilises the final epochs.
            let lr = lr * 0.75f32.powi(epoch as i32);
            let mut total = 0.0;
            for (f1, f2, label) in &examples {
                self.table.pool(f1, &mut x1);
                self.table.pool(f2, &mut x2);
                self.augment(&x1, &x2, input.row_mut(0));
                target.set(0, 0, *label);
                let (loss, input_grad) = self.mlp.train_batch_mse(&input, &target, lr);
                total += loss;
                // Split the input gradient back into dL/dx₁ and dL/dx₂.
                let g = input_grad.row(0);
                gx1.copy_from_slice(&g[..d]);
                gx2.copy_from_slice(&g[d..2 * d]);
                let mut offset = 2 * d;
                if self.feat.use_diff {
                    let gd = &g[offset..offset + d];
                    for i in 0..d {
                        gx1[i] += gd[i];
                        gx2[i] -= gd[i];
                    }
                    offset += d;
                }
                if self.feat.use_prod {
                    let gp = &g[offset..offset + d];
                    for i in 0..d {
                        gx1[i] += gp[i] * x2[i];
                        gx2[i] += gp[i] * x1[i];
                    }
                }
                // Embedder update (SGD on the participating rows).
                self.table.apply_pooled_grad(f1, &gx1, lr);
                self.table.apply_pooled_grad(f2, &gx2, lr);
            }
            epoch_losses.push(if examples.is_empty() { 0.0 } else { total / examples.len() as f32 });
        }
        TrainReport { epoch_losses }
    }

    /// Classification accuracy at threshold 0.5 on labelled pairs — the
    /// metric reported by the Table X ablation.
    pub fn evaluate(&self, pairs: &[(String, String, f32)]) -> f32 {
        if pairs.is_empty() {
            return 0.0;
        }
        let mut scratch = Scratch::default();
        let correct = pairs
            .iter()
            .filter(|(s1, s2, label)| {
                self.score_adjacent_into(&[s1.as_str(), s2.as_str()], &mut scratch);
                (scratch.scores[0] >= 0.5) == (*label >= 0.5)
            })
            .count();
        correct as f32 / pairs.len() as f32
    }
}

/// What [`SegmentationModel::score_adjacent_into`] reuses from call to
/// call, and where it leaves the scores.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    analysis: Analysis,
    /// One pooled `dim`-vector per sentence, row-major.
    pooled: Vec<f32>,
    /// One score per adjacent pair of the last call's sentences.
    pub(crate) scores: Vec<f32>,
}

impl sage_nn::BytesSerialize for SegmentationModel {
    fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.buckets as u32);
        put_u32(buf, self.dim as u32);
        put_u64(buf, self.seed);
        buf.push(u8::from(self.feat.use_diff));
        buf.push(u8::from(self.feat.use_prod));
        self.table.write(buf);
        self.mlp.write(buf);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let buckets = r.u32()? as usize;
        let dim = r.u32()? as usize;
        let seed = r.u64()?;
        let feat = FeatureConfig { use_diff: r.u8()? != 0, use_prod: r.u8()? != 0 };
        let table = EmbeddingTable::read(r)?;
        let mlp = Mlp::read(r)?;
        if table.buckets() != buckets || table.dim() != dim || mlp.in_dim() != dim * feat.blocks()
        {
            return None;
        }
        Some(Self { table, mlp, feat, buckets, dim, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_corpus::datasets::{wiki, SizeConfig};
    use sage_corpus::training::segmentation_pairs;

    fn train_eval(feat: FeatureConfig) -> f32 {
        let ds = wiki::generate(SizeConfig { num_docs: 14, questions_per_doc: 0, seed: 42 });
        let pairs = segmentation_pairs(&ds.documents, 1000, 1);
        let (train, val) = pairs.split_at(pairs.len() * 4 / 5);
        let mut model = SegmentationModel::new(2048, 24, 24, feat, 3);
        model.train(train, 0.05, 8);
        model.evaluate(val)
    }

    #[test]
    fn training_reduces_loss() {
        let ds = wiki::generate(SizeConfig { num_docs: 6, questions_per_doc: 0, seed: 1 });
        let pairs = segmentation_pairs(&ds.documents, 300, 2);
        let mut model = SegmentationModel::new(1024, 16, 16, FeatureConfig::default(), 4);
        let report = model.train(&pairs, 0.05, 5);
        assert!(
            report.epoch_losses.last().unwrap() < &(report.epoch_losses[0] * 0.9),
            "losses: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn trained_model_beats_chance() {
        let acc = train_eval(FeatureConfig::default());
        assert!(acc > 0.7, "validation accuracy {acc}");
    }

    #[test]
    fn full_features_beat_base_features() {
        // The Table X ordering: (x1,x2,diff,prod) >= (x1,x2). Small margin
        // tolerance — both are trained on the same data.
        let full = train_eval(FeatureConfig::default());
        let base = train_eval(FeatureConfig::base());
        assert!(full + 0.02 >= base, "full {full} vs base {base}");
    }

    #[test]
    fn scores_in_unit_interval() {
        let model = SegmentationModel::default_model();
        for (a, b) in [
            ("The cat sat.", "He slept."),
            ("", "x"),
            ("Rain fell over the town.", "Rockets launched at dawn."),
        ] {
            let s = model.score_pair(a, b);
            assert!((0.0..=1.0).contains(&s), "score {s} for ({a}, {b})");
        }
    }

    #[test]
    fn feature_config_labels() {
        assert_eq!(FeatureConfig::default().label(), "(x1), (x2), (x1 - x2), (x1 * x2)");
        assert_eq!(FeatureConfig::base().label(), "(x1), (x2)");
        assert_eq!(FeatureConfig::base().blocks(), 2);
        assert_eq!(FeatureConfig::default().blocks(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SegmentationModel::new(256, 8, 8, FeatureConfig::default(), 9);
        let b = SegmentationModel::new(256, 8, 8, FeatureConfig::default(), 9);
        assert_eq!(a.score_pair("one two", "three four"), b.score_pair("one two", "three four"));
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let model = SegmentationModel::default_model();
        assert_eq!(model.evaluate(&[]), 0.0);
    }
}
