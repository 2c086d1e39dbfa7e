//! Reproduces the paper's tables and figures.
//!
//! ```text
//! repro all [--seed N] [--jobs N]     run every experiment in paper order
//! repro <id>... [--seed N] [--jobs N] run specific experiments
//! repro list                          list experiment ids
//! ```
//!
//! `--jobs` caps the worker threads of the deterministic runner; outputs
//! are identical for any value.
//!
//! Text reports go to stdout; CSV series are written under `results/`.

use syndog_bench::{all_experiments, run_experiment, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 20020701u64; // ICDCS 2002 — any fixed default works
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--seed requires a value");
                    std::process::exit(2);
                });
                seed = value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid seed: {value}");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--jobs requires a value");
                    std::process::exit(2);
                });
                let jobs: usize = value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid job count: {value}");
                    std::process::exit(2);
                });
                syndog_sim::par::set_max_jobs(jobs);
            }
            "list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                println!("usage: repro [all | list | <id>...] [--seed N] [--jobs N]");
                println!("experiment ids: {}", EXPERIMENT_IDS.join(", "));
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        for out in all_experiments(seed) {
            println!("{out}");
        }
        return;
    }
    let mut failed = false;
    for id in &ids {
        match run_experiment(id, seed) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment id: {id} (try `repro list`)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
