//! Word pools and a syllable-based proper-name generator.
//!
//! Names are generated (not drawn from a fixed list) so corpora of any size
//! have distinct entities; value pools are fixed English word lists so
//! questions and answers read naturally and the reader's lexical matching
//! has realistic collision structure (several entities share a value pool,
//! which is what makes distractors confusable).

use rand::rngs::StdRng;
use rand::Rng;

/// Colors — eye/fur color values.
pub const COLORS: &[&str] = &[
    "green", "orange", "blue", "amber", "gray", "hazel", "silver", "golden", "copper", "violet",
    "brown", "black", "white", "crimson", "teal", "ivory",
];

/// Cities / places.
pub const PLACES: &[&str] = &[
    "Ashford", "Brinmore", "Caldreth", "Dunhaven", "Eastmere", "Farrowdale", "Glenport",
    "Hartwick", "Ironvale", "Juniper Falls", "Kestrel Bay", "Larkspur", "Mistral Point",
    "Northgate", "Oakhollow", "Pinecrest", "Quarryton", "Ravenmoor", "Silverbrook", "Thornfield",
];

/// Professions.
pub const PROFESSIONS: &[&str] = &[
    "engineer", "botanist", "cartographer", "blacksmith", "astronomer", "baker", "archivist",
    "surgeon", "composer", "navigator", "chemist", "weaver", "geologist", "translator",
    "beekeeper", "locksmith", "sculptor", "falconer", "printer", "glassblower",
];

/// Foods.
pub const FOODS: &[&str] = &[
    "roasted chestnuts", "plum dumplings", "barley soup", "smoked trout", "honey cakes",
    "pickled beets", "rye bread", "apple tarts", "lentil stew", "ginger biscuits",
    "blackberry jam", "corn fritters", "onion pie", "salted almonds", "pear cider",
];

/// Animals — pet species and fears.
pub const ANIMALS: &[&str] = &[
    "tabby cat", "border collie", "gray parrot", "dwarf rabbit", "hedgehog", "tortoise",
    "ferret", "canary", "iguana", "pygmy goat", "barn owl", "koi carp",
];

/// Technologies / inventions (multi-valued relation pool, used by
/// elimination questions).
pub const TECHNOLOGIES: &[&str] = &[
    "signal lattice", "vapor engine", "glass capacitor", "echo compass", "spring loom",
    "arc furnace", "tide clock", "copper telegraph", "prism lens", "steam bellows",
    "gear press", "wind turbine", "salt battery", "chain elevator", "mirror beacon",
    "rail brake", "ink duplicator", "coil heater", "flux meter", "drum pump",
];

/// Musical instruments.
pub const INSTRUMENTS: &[&str] = &[
    "cello", "oboe", "mandolin", "harpsichord", "accordion", "viola", "bassoon", "zither",
    "dulcimer", "piccolo",
];

/// Academic fields (QASPER-analog paper topics).
pub const FIELDS: &[&str] = &[
    "semantic parsing", "relation extraction", "question answering", "text summarization",
    "machine translation", "dialogue modeling", "entity linking", "sentiment analysis",
    "coreference resolution", "information retrieval", "speech recognition", "topic modeling",
];

/// Filler sentence fragments — low-information scenery used to pad
/// paragraphs without adding evidence.
pub const FILLER_OPENERS: &[&str] = &[
    "The morning fog settled over the valley",
    "Rain tapped gently on the old roof",
    "The market square was quiet that season",
    "A cold wind moved through the pines",
    "Lanterns flickered along the harbor road",
    "Dust drifted in the afternoon light",
    "The river ran high after the storms",
    "Bells rang faintly from the far tower",
];

/// Filler sentence closers.
pub const FILLER_CLOSERS: &[&str] = &[
    "and nobody paid it much attention",
    "as it had for many years",
    "while the town carried on as usual",
    "long before the visitors arrived",
    "though few remembered why",
    "and the day passed slowly",
];

/// Syllables for generated proper names.
const NAME_STARTS: &[&str] = &[
    "Bar", "Dor", "Vel", "Mar", "Tam", "Ren", "Cal", "Fen", "Gal", "Hol", "Ingr", "Jor", "Kel",
    "Lor", "Mira", "Nor", "Orin", "Pell", "Quin", "Ros", "Sel", "Tor", "Ul", "Vor", "Wen", "Yar",
];
const NAME_MIDDLES: &[&str] = &["a", "e", "i", "o", "u", "an", "el", "in", "or", "ar"];
const NAME_ENDS: &[&str] = &[
    "dan", "mir", "ros", "wick", "ton", "ley", "brook", "stad", "wyn", "fell", "mond", "ric",
    "vale", "gard", "holm", "eth",
];

/// Deterministic name/word sampling over the static pools.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lexicon;

impl Lexicon {
    /// Generate a proper name like "Dorinwick" or "Mirabrook".
    pub fn person_name(rng: &mut StdRng) -> String {
        let start = NAME_STARTS[rng.random_range(0..NAME_STARTS.len())];
        let end = NAME_ENDS[rng.random_range(0..NAME_ENDS.len())];
        if rng.random_bool(0.5) {
            let mid = NAME_MIDDLES[rng.random_range(0..NAME_MIDDLES.len())];
            format!("{start}{mid}{end}")
        } else {
            format!("{start}{end}")
        }
    }

    /// Generate a pet name like "Whiskin" (shorter, friendlier).
    pub fn pet_name(rng: &mut StdRng) -> String {
        const PETS: &[&str] = &[
            "Whisk", "Patch", "Brone", "Moss", "Fid", "Tuft", "Bram", "Clov", "Dapp", "Smudge",
        ];
        const SUFFIX: &[&str] = &["ers", "y", "et", "o", "le", "in"];
        let base = PETS[rng.random_range(0..PETS.len())];
        let suf = SUFFIX[rng.random_range(0..SUFFIX.len())];
        format!("{base}{suf}")
    }

    /// Pick one word from a pool.
    pub fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
        pool[rng.random_range(0..pool.len())]
    }

    /// Pick `n` distinct words from a pool (n must be ≤ pool size).
    pub fn pick_distinct<'a>(rng: &mut StdRng, pool: &[&'a str], n: usize) -> Vec<&'a str> {
        assert!(n <= pool.len(), "cannot pick {n} distinct from pool of {}", pool.len());
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        // Partial Fisher-Yates.
        for i in 0..n {
            let j = rng.random_range(i..indices.len());
            indices.swap(i, j);
        }
        indices[..n].iter().map(|&i| pool[i]).collect()
    }

    /// A filler sentence with no evidence content.
    pub fn filler_sentence(rng: &mut StdRng) -> String {
        let open = Self::pick(rng, FILLER_OPENERS);
        let close = Self::pick(rng, FILLER_CLOSERS);
        format!("{open}, {close}.")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn names_are_deterministic() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(Lexicon::person_name(&mut a), Lexicon::person_name(&mut b));
    }

    #[test]
    fn names_vary_across_draws() {
        let mut rng = StdRng::seed_from_u64(2);
        let names: std::collections::HashSet<String> =
            (0..50).map(|_| Lexicon::person_name(&mut rng)).collect();
        assert!(names.len() > 30, "only {} distinct names in 50 draws", names.len());
    }

    #[test]
    fn pick_distinct_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let picked = Lexicon::pick_distinct(&mut rng, COLORS, 5);
            let set: std::collections::HashSet<&&str> = picked.iter().collect();
            assert_eq!(set.len(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pick_distinct_overflow_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        Lexicon::pick_distinct(&mut rng, INSTRUMENTS, 100);
    }

    #[test]
    fn filler_has_no_pool_values() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let f = Lexicon::filler_sentence(&mut rng).to_lowercase();
            for c in COLORS {
                assert!(!f.contains(c), "filler leaked value: {f}");
            }
        }
    }

    #[test]
    fn pools_are_nonempty_and_lowercase_values() {
        for pool in [COLORS, PROFESSIONS, FOODS, TECHNOLOGIES] {
            assert!(!pool.is_empty());
            for v in pool {
                assert_eq!(*v, v.to_lowercase(), "value pools must be lowercase: {v}");
            }
        }
    }
}
