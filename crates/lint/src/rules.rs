//! The five workspace rules, expressed as token-pattern checks.
//!
//! Each check walks the lexed token stream of one file. Tokens inside
//! test-only regions (`in_test`) are exempt from every rule: tests may
//! print, panic, and measure wall-clock time freely. Tokens inside
//! strings and comments never reach the checks at all — the lexer has
//! already dropped them.

use crate::lexer::{Tok, TokKind};
use crate::Violation;

/// Determinism: no stdout/stderr writes from library crates.
pub const NO_PRINT: &str = "no-print";
/// Robustness: no `.unwrap()`/`.expect()`/`panic!`-family macro in any
/// library crate a query links — the serving path must not be able to
/// abort the process.
pub const NO_PANIC_SERVING: &str = "no-panic-serving";
/// Determinism: no RandomState-ordered containers feeding ordered output.
pub const DETERMINISTIC_ITERATION: &str = "deterministic-iteration";
/// Reproducibility: no wall-clock reads outside the telemetry layer.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Memory-model hygiene: Relaxed atomics only in telemetry-style counters.
pub const RELAXED_ATOMICS: &str = "relaxed-atomics-confined";
/// Engine-level rule: a valid `allow`/`allow-file` marker that no longer
/// suppresses any live violation is itself an error, keeping the
/// suppression inventory honest across refactors. Not suppressible and
/// not a valid name inside a marker.
pub const STALE_SUPPRESSION: &str = "stale-suppression";
/// Engine-level rule for malformed or unjustified suppression markers.
/// Not suppressible and not a valid name inside a marker.
pub const BAD_ALLOW: &str = "bad-allow";

/// Every rule a suppression marker may name.
pub const ALL_RULES: &[&str] = &[
    NO_PRINT,
    NO_PANIC_SERVING,
    DETERMINISTIC_ITERATION,
    NO_WALLCLOCK,
    RELAXED_ATOMICS,
];

/// Every rule the engine can report, suppressible or not — the ratchet
/// file tracks all of them.
pub const REPORTABLE_RULES: &[&str] = &[
    NO_PRINT,
    NO_PANIC_SERVING,
    DETERMINISTIC_ITERATION,
    NO_WALLCLOCK,
    RELAXED_ATOMICS,
    STALE_SUPPRESSION,
    BAD_ALLOW,
];

/// Crates exempt from library rules entirely: binaries own their stdout
/// and may stitch any crates together.
pub const BINARY_CRATES: &[&str] = &["cli", "bench"];

fn punct(t: &Tok) -> Option<char> {
    if t.kind == TokKind::Punct {
        t.text.chars().next()
    } else {
        None
    }
}

/// Run every applicable rule over one file's token stream.
pub fn check_file(crate_key: &str, file: &str, tokens: &[Tok]) -> Vec<Violation> {
    let library = !BINARY_CRATES.contains(&crate_key);
    // Every library crate is linked into a query; the linter itself is not.
    let serving = library && crate_key != "lint";
    let telemetry = crate_key == "telemetry";
    let mut out: Vec<Violation> = Vec::new();
    let mut in_use = false;

    for i in 0..tokens.len() {
        let t = &tokens[i];
        // Track `use …;` spans across test boundaries so the flag cannot
        // leak out of a skipped region.
        if t.kind == TokKind::Ident && t.text == "use" {
            in_use = true;
        }
        if in_use && punct(t) == Some(';') {
            in_use = false;
            continue;
        }
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let next_punct = |c: char| tokens.get(i + 1).is_some_and(|n| punct(n) == Some(c));
        let prev_punct = |c: char| i > 0 && punct(&tokens[i - 1]) == Some(c);
        let word = t.text.as_str();

        if library {
            if matches!(word, "println" | "eprintln" | "print" | "eprint" | "dbg")
                && next_punct('!')
            {
                out.push(Violation::new(
                    NO_PRINT,
                    file,
                    t.line,
                    t.col,
                    format!(
                        "`{word}!` in library crate `{crate_key}`; return data and let \
                         the CLI or a telemetry exporter own the output stream"
                    ),
                ));
            }
            if !in_use && matches!(word, "HashMap" | "HashSet") {
                out.push(Violation::new(
                    DETERMINISTIC_ITERATION,
                    file,
                    t.line,
                    t.col,
                    format!(
                        "`{word}` in library code: iteration order depends on \
                         RandomState; use BTreeMap/BTreeSet, sort before emitting, \
                         or justify why ordering cannot escape"
                    ),
                ));
            }
            if !telemetry && !in_use && matches!(word, "Instant" | "SystemTime") {
                out.push(Violation::new(
                    NO_WALLCLOCK,
                    file,
                    t.line,
                    t.col,
                    format!(
                        "`{word}` outside the telemetry crate: wall-clock reads make \
                         runs non-reproducible; route timing through telemetry spans"
                    ),
                ));
            }
            if !telemetry && !in_use && word == "Relaxed" {
                out.push(Violation::new(
                    RELAXED_ATOMICS,
                    file,
                    t.line,
                    t.col,
                    "`Ordering::Relaxed` outside telemetry counters: prove the value \
                     carries no cross-thread ordering dependency or use Acquire/Release"
                        .to_string(),
                ));
            }
        }

        if serving {
            let method_panic = matches!(word, "unwrap" | "expect") && prev_punct('.');
            let macro_panic = matches!(
                word,
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && next_punct('!');
            if method_panic || macro_panic {
                let shown = if method_panic {
                    format!(".{word}()")
                } else {
                    format!("{word}!")
                };
                out.push(Violation::new(
                    NO_PANIC_SERVING,
                    file,
                    t.line,
                    t.col,
                    format!(
                        "`{shown}` on the serving path (crate `{crate_key}`): \
                         propagate a Result or degrade via sage-resilience"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(key: &str, src: &str) -> Vec<Violation> {
        check_file(key, "x.rs", &lex(src).tokens)
    }

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn print_macros_flagged_in_library_not_cli() {
        let src = "fn f() { println!(\"x\"); dbg!(1); }";
        assert_eq!(rules_of(&run("text", src)), vec![NO_PRINT, NO_PRINT]);
        assert!(run("cli", src).is_empty());
    }

    #[test]
    fn print_ident_without_bang_is_fine() {
        assert!(run("text", "fn f(p: &Printer) { p.print(); }").is_empty());
    }

    #[test]
    fn panics_flagged_only_on_serving_crates() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for key in ["core", "text", "telemetry", "nn", "sage"] {
            assert_eq!(rules_of(&run(key, src)), vec![NO_PANIC_SERVING], "{key}");
        }
        for key in ["cli", "bench", "lint"] {
            assert!(run(key, src).is_empty(), "{key}");
        }
        let src2 = "fn g() { unreachable!() }";
        assert_eq!(rules_of(&run("vecdb", src2)), vec![NO_PANIC_SERVING]);
    }

    #[test]
    fn unwrap_or_variants_are_not_panics() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }";
        assert!(run("core", src).is_empty());
        let src2 = "fn f(x: Result<u32, ()>) -> bool { x.expect_err(\"e\"); true }";
        assert!(rules_of(&run("core", src2)).is_empty());
    }

    #[test]
    fn hash_containers_flagged_but_not_in_use_statements() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let vs = run("embed", src);
        assert_eq!(rules_of(&vs), vec![DETERMINISTIC_ITERATION, DETERMINISTIC_ITERATION]);
        assert!(vs.iter().all(|v| v.line == 2));
    }

    #[test]
    fn wallclock_flagged_except_in_telemetry() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_of(&run("segment", src)), vec![NO_WALLCLOCK]);
        assert!(run("telemetry", src).is_empty());
    }

    #[test]
    fn relaxed_flagged_except_in_telemetry() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(rules_of(&run("resilience", src)), vec![RELAXED_ATOMICS]);
        assert!(run("telemetry", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_all_rules() {
        let src = "
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let m = HashMap::new(); println!(\"{:?}\", m.get(&1).unwrap()); }
            }
        ";
        assert!(run("core", src).is_empty());
    }
}
