//! Smoke tests for the experiment-reproduction binary: the cheap
//! experiments run end to end through the real CLI, and the id registry
//! stays consistent.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `repro` with `args` in a scratch directory of its own, so the CSVs
/// it writes stay out of the tree (where `crates/bench/results/` holds the
/// default-seed copies).
fn repro(args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("syndog-repro-smoke-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    std::fs::remove_dir_all(&dir).ok();
    output
}

#[test]
fn list_shows_every_experiment_id() {
    let output = repro(&["list"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for id in syndog_bench::EXPERIMENT_IDS {
        assert!(
            stdout.lines().any(|l| l == *id),
            "id {id} missing from list"
        );
    }
}

#[test]
fn table1_runs_and_reports_all_sites() {
    let output = repro(&["table1", "--seed", "7"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for site in ["LBL", "Harvard", "UNC", "Auckland"] {
        assert!(stdout.contains(site), "{site} missing:\n{stdout}");
    }
}

#[test]
fn unknown_id_fails_with_nonzero_exit() {
    let output = repro(&["not-an-experiment"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment id"), "{stderr}");
}

#[test]
fn seed_changes_stochastic_output_but_not_structure() {
    let run = |seed: &str| {
        let output = repro(&["fig5", "--seed", seed]);
        assert!(output.status.success());
        String::from_utf8(output.stdout).unwrap()
    };
    let a = run("1");
    let b = run("1");
    let c = run("2");
    assert_eq!(a, b, "same seed must reproduce bit-identically");
    assert_ne!(a, c, "different seed must differ");
    for out in [&a, &c] {
        assert!(out.contains("false alarms"), "{out}");
    }
}
