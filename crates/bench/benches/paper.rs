//! The paper's evaluation in one run: every claim of [`sage_bench::paper`]
//! at the default training budget, each table in the paper's layout, then
//! the scorecard (`holds`, `gap (…)` or `FAILS` per claim). Exits non-zero,
//! with the scorecard on stderr too, when a claim fails.

use sage_bench::paper::{claims, scorecard};

fn main() {
    let models = sage_bench::models();
    let results: Vec<_> = claims()
        .into_iter()
        .map(|claim| {
            let verdict = (claim.run)(models);
            print!("{}", verdict.rows);
            (claim, verdict)
        })
        .collect();
    let (card, passes) = scorecard(&results);
    print!("{card}");
    if !passes {
        // `check.sh` shows stderr only: repeat the scorecard there.
        eprint!("{card}");
        std::process::exit(1);
    }
}
