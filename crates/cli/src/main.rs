//! `sage` — command-line interface to the SAGE RAG framework.
//!
//! ```text
//! sage segment --file corpus.txt [--threshold 0.55] [--coarse 400]
//! sage ask     --file corpus.txt --question "..." [--retriever R] [--llm L]
//!              [--naive] [--show-context] [--telemetry] [--trace-out F]
//!              [--metrics-out F]
//! sage eval    --dataset quality|qasper|narrativeqa [--method sage|naive]
//!              [--docs N] [--questions M] [--llm L]
//! sage train   --out models.bin
//! sage soak    [--seed 42] [--qps 4] [--duration 30] [--capacity 8]
//!              [--concurrency 2] [--deadline-ms 8000]
//!              [--token-budget 50000] [--no-budget]
//!              [--docs N | --file F --question "..."]
//!              [--faults SPEC] [--fault-seed N] [--max-shed-rate 0.9]
//! sage explain ["question"] [--retriever R] [--naive]
//! sage report  [--seed 42] [--qps 4] [--duration 30] [--docs N]
//!              [--out bundle.json] [--metrics-out F]
//! sage scenarios run scenarios.toml [--filter S] [--out F] [--baseline F]
//! sage demo
//! sage help
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy does
//! not include a CLI parser, and the surface is small).

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        commands::print_help();
        return ExitCode::FAILURE;
    };
    // `sage explain "<question>"` reads naturally with the question as a
    // bare positional; rewrite it into the uniform `--question` form.
    let mut rest = rest.to_vec();
    if command == "explain" {
        if let Some(first) = rest.first().filter(|a| !a.starts_with("--")).cloned() {
            rest.splice(0..1, ["--question".to_string(), first]);
        }
    }
    // `sage scenarios run <grid.toml>` reads naturally; the `run` verb is
    // optional and the grid path becomes the uniform `--file` flag.
    if command == "scenarios" {
        if rest.first().is_some_and(|a| a == "run") {
            rest.remove(0);
        }
        if let Some(first) = rest.first().filter(|a| !a.starts_with("--")).cloned() {
            rest.splice(0..1, ["--file".to_string(), first]);
        }
    }
    let parsed = match args::parse_flags(&rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "segment" => commands::segment(&parsed),
        "explain" => commands::explain(&parsed),
        "ask" => commands::ask(&parsed),
        "eval" => commands::eval(&parsed),
        "train" => commands::train(&parsed),
        "index" => commands::index(&parsed),
        "query" => commands::query(&parsed),
        "soak" => commands::soak(&parsed),
        "report" => commands::report(&parsed),
        "scenarios" => commands::scenarios(&parsed),
        "demo" => parsed.reject_unknown("demo", &[]).and_then(|()| commands::demo()),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `sage help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
