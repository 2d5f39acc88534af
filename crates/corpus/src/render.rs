//! Template rendering: facts → statement sentences, facts → questions.
//!
//! The pronoun form is the load-bearing detail: a pronoun-form sentence is
//! only interpretable next to its antecedent (the intro or a prior
//! entity-form sentence). Fixed-length segmentation that separates the two
//! reproduces the paper's Figure 3-B failure exactly.

use crate::facts::Fact;
use rand::rngs::StdRng;
use rand::Rng;

/// Capitalize the first character of a string.
fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Fill a statement/question template with an entity's fields and a value.
fn fill(template: &str, fact: &Fact) -> String {
    let e = &fact.entity;
    let mut out = template
        .replace("{e}", &e.name)
        .replace("{v}", &fact.value)
        .replace("{pos}", e.possessive)
        .replace("{p}", e.pronoun);
    // Sentence-initial pronouns must be capitalized.
    if template.starts_with("{p}") || template.starts_with("{pos}") {
        out = capitalize(&out);
    }
    out
}

/// Render the fact as an entity-form sentence using template `variant`
/// (wraps around the available templates).
pub fn statement_entity(fact: &Fact, variant: usize) -> String {
    let ts = fact.spec().statement_entity;
    fill(ts[variant % ts.len()], fact)
}

/// Render the fact as a pronoun-form sentence using template `variant`.
pub fn statement_pronoun(fact: &Fact, variant: usize) -> String {
    let ts = fact.spec().statement_pronoun;
    fill(ts[variant % ts.len()], fact)
}

/// Render the fact as either form, chosen by `use_pronoun`.
pub fn statement(fact: &Fact, use_pronoun: bool, variant: usize) -> String {
    if use_pronoun {
        statement_pronoun(fact, variant)
    } else {
        statement_entity(fact, variant)
    }
}

/// Render a question about the fact (template chosen by `variant`).
pub fn question(fact: &Fact, variant: usize) -> String {
    let qs = fact.spec().question;
    fill(qs[variant % qs.len()], fact)
}

/// Two different entity-form renderings of the same fact — a positive
/// paraphrase pair for the siamese (SBERT-analog) trainer. Returns `None`
/// when the relation has only one entity template.
pub fn paraphrase_pair(fact: &Fact, rng: &mut StdRng) -> Option<(String, String)> {
    let n = fact.spec().statement_entity.len();
    if n < 2 {
        return None;
    }
    let a = rng.random_range(0..n);
    let mut b = rng.random_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    Some((statement_entity(fact, a), statement_entity(fact, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{Entity, Fact, RELATIONS};
    use rand::SeedableRng;

    fn eye_fact() -> Fact {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = Entity::pet(&mut rng);
        e.name = "Whiskers".into();
        e.pronoun = "he";
        e.possessive = "his";
        let rel = RELATIONS.iter().position(|r| r.name == "eye_color").unwrap();
        Fact { entity: e, relation: rel, value: "green".into() }
    }

    #[test]
    fn entity_form_names_entity_and_value() {
        let s = statement_entity(&eye_fact(), 0);
        assert!(s.contains("Whiskers"), "{s}");
        assert!(s.contains("green"), "{s}");
    }

    #[test]
    fn pronoun_form_hides_entity() {
        let f = eye_fact();
        for v in 0..4 {
            let s = statement_pronoun(&f, v);
            assert!(!s.contains("Whiskers"), "{s}");
            assert!(s.contains("green"), "{s}");
        }
    }

    #[test]
    fn pronoun_form_is_capitalized() {
        let s = statement_pronoun(&eye_fact(), 0);
        assert!(s.starts_with(char::is_uppercase), "{s}");
    }

    #[test]
    fn question_mentions_entity_not_value() {
        let q = question(&eye_fact(), 0);
        assert!(q.contains("Whiskers"), "{q}");
        assert!(!q.contains("green"), "{q}");
        assert!(q.ends_with('?'), "{q}");
    }

    #[test]
    fn template_variants_cycle() {
        let f = eye_fact();
        let n = f.spec().statement_entity.len();
        assert_eq!(statement_entity(&f, 0), statement_entity(&f, n));
    }

    #[test]
    fn paraphrase_pair_differs() {
        let f = eye_fact();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let (a, b) = paraphrase_pair(&f, &mut rng).unwrap();
            assert_ne!(a, b);
            assert!(a.contains("green") && b.contains("green"));
        }
    }
}
