//! The entity-fact world model: entities, relations, and facts.
//!
//! A fact is an `(entity, relation, value)` triple. Relations carry the
//! templates used to render statements (entity-form and pronoun-form) and
//! questions, plus the value pool answers are drawn from. Because every
//! sentence in a generated document comes from a known fact (or is known
//! filler), the generator can annotate each question with its exact
//! evidence sentences — ground truth the experiments rely on.

use crate::lexicon::{self, Lexicon};
use rand::rngs::StdRng;
use rand::Rng;

/// What kind of thing an entity is (drives templates and pronouns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityKind {
    /// A human character.
    Person,
    /// A pet/animal character (the paper's running "Whiskers" example).
    Pet,
}

/// A named participant in a document.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Proper name, e.g. "Dorinwick" or "Whiskers".
    pub name: String,
    /// Person or pet.
    pub kind: EntityKind,
    /// Subject pronoun ("he", "she", "it").
    pub pronoun: &'static str,
    /// Possessive pronoun ("his", "her", "its").
    pub possessive: &'static str,
    /// Species for pets ("tabby cat"), empty for persons.
    pub species: String,
}

impl Entity {
    /// Generate a random person.
    pub fn person(rng: &mut StdRng) -> Self {
        let (pronoun, possessive) =
            if rng.random_bool(0.5) { ("he", "his") } else { ("she", "her") };
        Self {
            name: Lexicon::person_name(rng),
            kind: EntityKind::Person,
            pronoun,
            possessive,
            species: String::new(),
        }
    }

    /// Generate a random pet.
    pub fn pet(rng: &mut StdRng) -> Self {
        let (pronoun, possessive) = match rng.random_range(0..3) {
            0 => ("he", "his"),
            1 => ("she", "her"),
            _ => ("it", "its"),
        };
        Self {
            name: Lexicon::pet_name(rng),
            kind: EntityKind::Pet,
            pronoun,
            possessive,
            species: Lexicon::pick(rng, lexicon::ANIMALS).to_string(),
        }
    }

    /// An introductory sentence that names the entity (the coreference
    /// antecedent for later pronoun-form fact sentences).
    pub fn intro_sentence(&self, rng: &mut StdRng) -> String {
        match self.kind {
            EntityKind::Person => {
                const INTROS: &[&str] = &[
                    "{e} was well known in the region.",
                    "{e} had lived an unusual and busy life.",
                    "Everyone in town had a story about {e}.",
                    "{e} rarely spoke about the past.",
                ];
                Lexicon::pick(rng, INTROS).replace("{e}", &self.name)
            }
            EntityKind::Pet => {
                const INTROS: &[&str] = &[
                    "{e} is a playful {s}.",
                    "{e}, a {s}, rules the house.",
                    "{e} is a {s} with a stubborn streak.",
                ];
                Lexicon::pick(rng, INTROS).replace("{e}", &self.name).replace("{s}", &self.species)
            }
        }
    }
}

/// Which static word pool a relation draws values from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Eye/fur colors.
    Colors,
    /// Cities and places.
    Places,
    /// Professions.
    Professions,
    /// Foods.
    Foods,
    /// Technologies (multi-valued; used by elimination questions).
    Technologies,
    /// Musical instruments.
    Instruments,
    /// Pet species.
    Animals,
}

impl Pool {
    /// The words in this pool.
    pub fn words(self) -> &'static [&'static str] {
        match self {
            Pool::Colors => lexicon::COLORS,
            Pool::Places => lexicon::PLACES,
            Pool::Professions => lexicon::PROFESSIONS,
            Pool::Foods => lexicon::FOODS,
            Pool::Technologies => lexicon::TECHNOLOGIES,
            Pool::Instruments => lexicon::INSTRUMENTS,
            Pool::Animals => lexicon::ANIMALS,
        }
    }
}

/// A relation type with rendering templates.
///
/// Template placeholders: `{e}` entity name, `{p}` capitalized subject
/// pronoun, `{pos}` possessive pronoun, `{v}` value.
#[derive(Debug)]
pub struct RelationSpec {
    /// Identifier, e.g. "eye_color".
    pub name: &'static str,
    /// Which entity kinds this relation applies to.
    pub applies_to: &'static [EntityKind],
    /// Whether one entity can hold several values (→ elimination questions).
    pub multi_valued: bool,
    /// Entity-form statement templates (at least 2, for paraphrase pairs).
    pub statement_entity: &'static [&'static str],
    /// Pronoun-form statement templates (the L1 mechanism).
    pub statement_pronoun: &'static [&'static str],
    /// Question templates.
    pub question: &'static [&'static str],
    /// Value pool.
    pub pool: Pool,
}

/// The global relation table.
///
/// A `static` (not `const`): relation identity is by address, so code that
/// maps a `&RelationSpec` back to its index via `std::ptr::eq` needs one
/// canonical copy of the table.
pub static RELATIONS: &[RelationSpec] = &[
    RelationSpec {
        name: "eye_color",
        applies_to: &[EntityKind::Pet],
        multi_valued: false,
        statement_entity: &[
            "{e} has bright {v} eyes.",
            "{e}'s eyes are a deep {v}.",
            "The eyes of {e} glow {v} in dim light.",
        ],
        statement_pronoun: &[
            "{p} has bright {v} eyes.",
            "{pos} eyes are a deep {v}.",
        ],
        question: &[
            "What is the color of {e}'s eyes?",
            "What color are the eyes of {e}?",
        ],
        pool: Pool::Colors,
    },
    RelationSpec {
        name: "fur_color",
        applies_to: &[EntityKind::Pet],
        multi_valued: false,
        statement_entity: &[
            "{e}'s fur is mostly {v}.",
            "{e} wears a thick {v} coat of fur.",
        ],
        statement_pronoun: &[
            "{pos} fur is mostly {v}.",
            "{p} wears a thick {v} coat of fur.",
        ],
        question: &["What color is {e}'s fur?"],
        pool: Pool::Colors,
    },
    RelationSpec {
        name: "pet_food",
        applies_to: &[EntityKind::Pet],
        multi_valued: false,
        statement_entity: &[
            "{e} loves eating {v}.",
            "{e} begs for {v} every evening.",
        ],
        statement_pronoun: &[
            "{p} loves eating {v}.",
            "{p} begs for {v} every evening.",
        ],
        question: &["What does {e} love to eat?"],
        pool: Pool::Foods,
    },
    RelationSpec {
        name: "lives_in",
        applies_to: &[EntityKind::Person],
        multi_valued: false,
        statement_entity: &[
            "{e} lives in {v}.",
            "{e} settled in {v} many years ago.",
            "{e} keeps a small house in {v}.",
        ],
        statement_pronoun: &[
            "{p} lives in {v}.",
            "{p} settled in {v} many years ago.",
        ],
        question: &["Where does {e} live?", "In which town does {e} live?"],
        pool: Pool::Places,
    },
    RelationSpec {
        name: "born_in",
        applies_to: &[EntityKind::Person],
        multi_valued: false,
        statement_entity: &[
            "{e} was born in {v}.",
            "{e} spent a childhood in {v}.",
        ],
        statement_pronoun: &[
            "{p} was born in {v}.",
            "{p} spent a childhood in {v}.",
        ],
        question: &["Where was {e} born?"],
        pool: Pool::Places,
    },
    RelationSpec {
        name: "profession",
        applies_to: &[EntityKind::Person],
        multi_valued: false,
        statement_entity: &[
            "{e} works as a {v}.",
            "{e} earns a living as a {v}.",
            "By trade, {e} is a {v}.",
        ],
        statement_pronoun: &[
            "{p} works as a {v}.",
            "{p} earns a living as a {v}.",
        ],
        question: &["What is {e}'s profession?", "What does {e} do for a living?"],
        pool: Pool::Professions,
    },
    RelationSpec {
        name: "favorite_food",
        applies_to: &[EntityKind::Person],
        multi_valued: false,
        statement_entity: &[
            "{e}'s favorite food is {v}.",
            "{e} never turns down {v}.",
        ],
        statement_pronoun: &[
            "{pos} favorite food is {v}.",
            "{p} never turns down {v}.",
        ],
        question: &["What is {e}'s favorite food?"],
        pool: Pool::Foods,
    },
    RelationSpec {
        name: "plays",
        applies_to: &[EntityKind::Person],
        multi_valued: false,
        statement_entity: &[
            "{e} plays the {v}.",
            "{e} practices the {v} every morning.",
        ],
        statement_pronoun: &[
            "{p} plays the {v}.",
            "{p} practices the {v} every morning.",
        ],
        question: &["Which instrument does {e} play?"],
        pool: Pool::Instruments,
    },
    RelationSpec {
        name: "developed",
        applies_to: &[EntityKind::Person],
        multi_valued: true,
        statement_entity: &[
            "{e} developed the {v}.",
            "{e} built the first {v}.",
            "The {v} was invented by {e}.",
        ],
        statement_pronoun: &[
            "{p} developed the {v}.",
            "{p} also built the {v}.",
        ],
        question: &["Which device did {e} develop?"],
        pool: Pool::Technologies,
    },
    RelationSpec {
        name: "keeps_pet",
        applies_to: &[EntityKind::Person],
        multi_valued: false,
        statement_entity: &[
            "{e} keeps a {v} at home.",
            "{e} takes care of a {v}.",
        ],
        statement_pronoun: &[
            "{p} keeps a {v} at home.",
            "{p} takes care of a {v}.",
        ],
        question: &["What kind of animal does {e} keep?"],
        pool: Pool::Animals,
    },
];

/// Relations applicable to a given entity kind.
pub fn relations_for(kind: EntityKind) -> Vec<&'static RelationSpec> {
    RELATIONS.iter().filter(|r| r.applies_to.contains(&kind)).collect()
}

/// A grounded fact.
#[derive(Debug, Clone)]
pub struct Fact {
    /// The subject entity.
    pub entity: Entity,
    /// Index into [`RELATIONS`].
    pub relation: usize,
    /// The value (drawn from the relation's pool).
    pub value: String,
}

impl Fact {
    /// The relation spec.
    pub fn spec(&self) -> &'static RelationSpec {
        &RELATIONS[self.relation]
    }

    /// Draw a random fact for `entity` over `relation` (an index into
    /// [`RELATIONS`]).
    pub fn sample(entity: &Entity, relation: usize, rng: &mut StdRng) -> Self {
        let spec = &RELATIONS[relation];
        debug_assert!(spec.applies_to.contains(&entity.kind));
        let value = Lexicon::pick(rng, spec.pool.words()).to_string();
        Self { entity: entity.clone(), relation, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn relation_table_is_consistent() {
        for (i, r) in RELATIONS.iter().enumerate() {
            assert!(!r.statement_entity.is_empty(), "{}: no entity templates", r.name);
            assert!(!r.statement_pronoun.is_empty(), "{}: no pronoun templates", r.name);
            assert!(!r.question.is_empty(), "{}: no question templates", r.name);
            assert!(!r.applies_to.is_empty(), "{}: applies to nothing", r.name);
            for t in r.statement_entity {
                assert!(t.contains("{e}") || t.contains("{v}"), "{}: template {t}", r.name);
                assert!(t.contains("{v}"), "{}: statement must mention value: {t}", r.name);
            }
            for t in r.statement_pronoun {
                assert!(
                    t.contains("{p}") || t.contains("{pos}"),
                    "{}: pronoun template must use a pronoun: {t}",
                    r.name
                );
                assert!(!t.contains("{e}"), "{}: pronoun template must not name entity: {t}", r.name);
            }
            for q in r.question {
                assert!(q.contains("{e}"), "{}: question must name entity: {q}", r.name);
            }
            // Names unique.
            for other in &RELATIONS[i + 1..] {
                assert_ne!(r.name, other.name);
            }
        }
    }

    #[test]
    fn multi_valued_pool_is_large() {
        for r in RELATIONS.iter().filter(|r| r.multi_valued) {
            assert!(
                r.pool.words().len() >= 8,
                "{}: elimination questions need a large pool",
                r.name
            );
        }
    }

    #[test]
    fn relations_for_partition() {
        let person = relations_for(EntityKind::Person);
        let pet = relations_for(EntityKind::Pet);
        assert!(person.len() >= 5);
        assert!(pet.len() >= 3);
    }

    #[test]
    fn entities_have_pronouns() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Entity::person(&mut rng);
        assert!(["he", "she"].contains(&p.pronoun));
        let pet = Entity::pet(&mut rng);
        assert!(["he", "she", "it"].contains(&pet.pronoun));
        assert!(!pet.species.is_empty());
    }

    #[test]
    fn intro_names_entity() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = Entity::person(&mut rng);
        let intro = e.intro_sentence(&mut rng);
        assert!(intro.contains(&e.name));
    }

    #[test]
    fn fact_value_from_pool() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = Entity::pet(&mut rng);
        let eye = RELATIONS.iter().position(|r| r.name == "eye_color").unwrap();
        let f = Fact::sample(&e, eye, &mut rng);
        assert!(Pool::Colors.words().contains(&f.value.as_str()));
    }
}
