//! One-stop training of every trainable component, with a process-wide
//! cached instance for the experiment harnesses.
//!
//! Training data comes from the synthetic world's *generators* (standalone
//! facts and Wikipedia-analog documents with fixed seeds), never from the
//! evaluation datasets themselves — the same pretrain/evaluate split the
//! paper uses (its segmentation model trains on Wikipedia, not on QuALITY).

use sage_corpus::datasets::{wiki, SizeConfig};
use sage_corpus::training::{paraphrase_pairs, retrieval_triples, segmentation_pairs};
use sage_embed::{DualEncoder, PairExample, SiameseEncoder, TripletExample};
use sage_nn::io::Reader;
use sage_nn::BytesSerialize;
use sage_rerank::CrossScorer;
use sage_segment::{FeatureConfig, SegmentationModel};

const MAGIC: &[u8; 8] = b"SAGEMDL1";

/// Bundle of trained models shared by pipelines and baselines.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// Algorithm-1 segmentation model.
    pub segmentation: SegmentationModel,
    /// Cross-feature reranker.
    pub scorer: CrossScorer,
    /// SBERT-analog siamese encoder.
    pub siamese: SiameseEncoder,
    /// DPR-analog dual-tower encoder.
    pub dual: DualEncoder,
}

/// Training budget knobs (lowered in unit tests for speed).
#[derive(Debug, Clone, Copy)]
pub struct TrainBudget {
    /// Wikipedia-analog documents for segmentation pairs.
    pub wiki_docs: usize,
    /// Cap on segmentation pairs.
    pub seg_pairs: usize,
    /// Paraphrase pairs for the siamese encoder.
    pub para_pairs: usize,
    /// Triples for the dual encoder and reranker.
    pub triples: usize,
    /// Epochs for each trainer.
    pub epochs: usize,
}

impl Default for TrainBudget {
    fn default() -> Self {
        Self { wiki_docs: 30, seg_pairs: 2400, para_pairs: 400, triples: 400, epochs: 10 }
    }
}

impl TrainBudget {
    /// A tiny budget for fast unit tests.
    pub fn tiny() -> Self {
        Self { wiki_docs: 12, seg_pairs: 900, para_pairs: 120, triples: 120, epochs: 8 }
    }
}

impl TrainedModels {
    /// Train everything with the given budget. Deterministic.
    pub fn train(budget: TrainBudget) -> Self {
        // Segmentation model on Wikipedia-analog paragraph pairs.
        let wiki_ds =
            wiki::generate(SizeConfig { num_docs: budget.wiki_docs, questions_per_doc: 0, seed: 0xA11CE });
        let seg_data = segmentation_pairs(&wiki_ds.documents, budget.seg_pairs, 0xB0B);
        let mut segmentation =
            SegmentationModel::new(2048, 24, 24, FeatureConfig::default(), 0x5E61);
        segmentation.train(&seg_data, 0.05, budget.epochs);

        // Reranker on (question, positive, negative) triples.
        let triples = retrieval_triples(budget.triples, 0xC0DE);
        let mut scorer = CrossScorer::new(0x5C0);
        scorer.train_from_triples(&triples, 0.05, budget.epochs.min(6));

        // SBERT analog on paraphrase pairs.
        let mut siamese = SiameseEncoder::new(4096, 48, 0x5BE7);
        let pairs: Vec<PairExample> = paraphrase_pairs(budget.para_pairs, 0xFACE)
            .into_iter()
            .map(|(a, b, label)| PairExample { a, b, label })
            .collect();
        siamese.train(&pairs, 0.3, budget.epochs.min(6) + 2);

        // DPR analog on retrieval triples.
        let mut dual = DualEncoder::new(4096, 48, 0.3, 0xD9A);
        let dpr_triples: Vec<TripletExample> = retrieval_triples(budget.triples, 0xDEED)
            .into_iter()
            .map(|(query, positive, negative)| TripletExample { query, positive, negative })
            .collect();
        dual.train(&dpr_triples, 0.3, budget.epochs.min(6) + 2);

        Self { segmentation, scorer, siamese, dual }
    }

    /// Serialize all four trained models to one binary blob
    /// (`SAGEMDL1` header + segmentation + scorer + siamese + dual).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        self.segmentation.write(&mut buf);
        self.scorer.write(&mut buf);
        self.siamese.write(&mut buf);
        self.dual.write(&mut buf);
        buf
    }

    /// Deserialize a blob produced by [`TrainedModels::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC)?;
        let models = Self {
            segmentation: SegmentationModel::read(&mut r)?,
            scorer: CrossScorer::read(&mut r)?,
            siamese: SiameseEncoder::read(&mut r)?,
            dual: DualEncoder::read(&mut r)?,
        };
        r.finish()?;
        Some(models)
    }

    /// Save the models to a file, atomically and with an integrity
    /// trailer (the shared [`crate::fsx`] commit path: CRC-32 `SAGECRC1`
    /// trailer, tmp+fsync+rename+dir-fsync).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::fsx::commit_bytes(path, &crate::fsx::frame(&self.to_bytes()))
    }

    /// Load models from a file saved by [`TrainedModels::save`].
    ///
    /// A torn write or bit rot surfaces as a distinct checksum-mismatch
    /// [`std::io::ErrorKind::InvalidData`] error, a file cut short of its
    /// trailer as a missing-trailer one.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let raw = crate::fsx::unframe(std::fs::read(path)?, "SAGE model file")?;
        Self::from_bytes(&raw).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed SAGE model file")
        })
    }

    /// Train the flexible chunk selector (paper future-work SX(3)) on
    /// ranked lists with evidence ground truth: documents are generated,
    /// segmented, and reranked exactly as in the pipeline, and each
    /// candidate chunk is labelled "keep" iff it contains one of the
    /// question's gold evidence sentences.
    pub fn train_flexible_selector(
        &self,
        num_docs: usize,
        seed: u64,
    ) -> sage_rerank::FlexibleSelector {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sage_corpus::document::{generate_document, DocSpec};
        use sage_corpus::qa::{elimination_item, factoid_item};
        use sage_rerank::flexible::training_examples;
        use sage_segment::{Segmenter, SemanticSegmenter};

        let mut rng = StdRng::seed_from_u64(seed);
        let segmenter = SemanticSegmenter::new(self.segmentation.clone());
        let mut lists = Vec::new();
        for doc_id in 0..num_docs {
            let generated = generate_document(doc_id, &DocSpec::default(), &mut rng);
            let chunks = segmenter.segment(&generated.document.text());
            let mut scorer = self.scorer.clone();
            scorer.fit_idf(&chunks);
            let refs: Vec<&str> = chunks.iter().map(String::as_str).collect();
            let mut items = Vec::new();
            for record in generated.records.iter().filter(|r| !r.fact.spec().multi_valued) {
                items.push(factoid_item(record, &mut rng));
            }
            // Broad-evidence lists too: without them the selector learns
            // "keep one chunk" and starves elimination questions.
            let multi: Vec<_> = generated
                .records
                .iter()
                .filter(|r| r.fact.spec().multi_valued)
                .cloned()
                .collect();
            if let Some(item) = elimination_item(&multi, &mut rng) {
                items.push(item);
            }
            for item in items {
                let ranked = scorer.rerank(&item.question, &refs);
                let useful: Vec<bool> = ranked
                    .iter()
                    .map(|r| item.evidence.iter().any(|e| chunks[r.index].contains(e)))
                    .collect();
                lists.push((ranked, useful));
            }
        }
        let examples = training_examples(&lists);
        let mut selector = sage_rerank::FlexibleSelector::new(seed ^ 0xF1E);
        selector.train(&examples, 0.05, 6);
        selector
    }
}

/// The tiny-budget bundle every unit test of this crate shares: one
/// training run per test binary.
#[cfg(test)]
pub(crate) fn tiny_models() -> &'static TrainedModels {
    static M: std::sync::OnceLock<TrainedModels> = std::sync::OnceLock::new();
    M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_embed::Embedder;

    #[test]
    fn tiny_training_runs_and_is_deterministic() {
        let a = TrainedModels::train(TrainBudget::tiny());
        let b = TrainedModels::train(TrainBudget::tiny());
        assert_eq!(
            a.segmentation.score_pair("The cat sat.", "He slept."),
            b.segmentation.score_pair("The cat sat.", "He slept.")
        );
        assert_eq!(a.siamese.embed("hello town"), b.siamese.embed("hello town"));
    }

    /// Every trained weight bit of the tiny bundle: a trainer refactor that
    /// reorders one float operation changes this digest.
    #[test]
    fn tiny_training_bytes_are_pinned() {
        let bytes = tiny_models().to_bytes();
        let digest = sage_text::ngram::Fnv1a::new(0).fold(&bytes).finish();
        assert_eq!((bytes.len(), digest), (2_565_944, 15_649_338_828_764_704_304));
    }

    #[test]
    fn serialization_roundtrip_preserves_behaviour() {
        let m = TrainedModels::train(TrainBudget::tiny());
        let back = TrainedModels::from_bytes(&m.to_bytes()).expect("roundtrip");
        assert_eq!(
            m.segmentation.score_pair("The cat sat.", "He slept."),
            back.segmentation.score_pair("The cat sat.", "He slept.")
        );
        let q = "What is the color of Whiskers's eyes?";
        let c = "Whiskers has bright green eyes.";
        assert_eq!(m.scorer.score(q, c), back.scorer.score(q, c));
        assert_eq!(m.siamese.embed(c), back.siamese.embed(c));
        assert_eq!(m.dual.embed_query(q), back.dual.embed_query(q));
    }

    #[test]
    fn save_load_file_roundtrip() {
        let m = TrainedModels::train(TrainBudget::tiny());
        let path = std::env::temp_dir().join("sage_models_test.bin");
        m.save(&path).expect("save");
        let back = TrainedModels::load(&path).expect("load");
        assert_eq!(
            m.segmentation.score_pair("a b", "c d"),
            back.segmentation.score_pair("a b", "c d")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_model_file_rejected() {
        assert!(TrainedModels::from_bytes(b"nope").is_none());
        assert!(TrainedModels::from_bytes(b"SAGEMDL1junk").is_none());
    }

    #[test]
    fn torn_model_write_is_a_checksum_error() {
        let m = TrainedModels::train(TrainBudget::tiny());
        let path = std::env::temp_dir().join("sage_models_torn_test.bin");
        m.save(&path).expect("save");
        // The atomic commit leaves no scratch file behind.
        assert!(!crate::fsx::tmp_path(&path).exists());
        let mut raw = std::fs::read(&path).expect("read back");
        let mid = raw.len() / 2;
        raw[mid] ^= 0x08;
        let cut = raw[..raw.len() - crate::fsx::TRAILER_LEN].to_vec();
        for (bytes, message) in [
            (raw, "checksum mismatch in SAGE model file"),
            (cut, "missing SAGECRC1 trailer in SAGE model file"),
        ] {
            std::fs::write(&path, &bytes).expect("write corrupt");
            let err = match TrainedModels::load(&path) {
                Ok(_) => panic!("corrupt model file must not load"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(message), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trained_models_have_signal() {
        let m = TrainedModels::train(TrainBudget::tiny());
        // Reranker separates evidence from filler.
        let q = "What is the color of Whiskers's eyes?";
        let ev = m.scorer.score(q, "Whiskers has bright green eyes.");
        let fl = m.scorer.score(q, "The morning fog settled over the valley, as usual.");
        assert!(ev > fl, "scorer: {ev} vs {fl}");
        // Segmentation model separates in-paragraph from cross-paragraph
        // pairs at least directionally on an obvious case.
        let cohesive = m
            .segmentation
            .score_pair("Dorinwick lives in Ashford.", "He works as a baker.");
        let shift = m.segmentation.score_pair(
            "Dorinwick lives in Ashford.",
            "The morning fog settled over the valley, as it had for many years.",
        );
        assert!(cohesive > shift, "segmentation: {cohesive} vs {shift}");
    }
}
