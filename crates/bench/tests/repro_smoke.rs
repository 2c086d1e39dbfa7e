//! Smoke tests for the experiment-reproduction binary: the cheap
//! experiments run end to end through the real CLI, and the id registry
//! stays consistent.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn list_shows_every_experiment_id() {
    let output = repro().arg("list").output().expect("spawn repro");
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
    let output = repro()
        .args(["table1", "--seed", "7"])
        .output()
        .expect("spawn repro");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for site in ["LBL", "Harvard", "UNC", "Auckland"] {
        assert!(stdout.contains(site), "{site} missing:\n{stdout}");
    }
}

#[test]
fn unknown_id_fails_with_nonzero_exit() {
    let output = repro()
        .arg("not-an-experiment")
        .output()
        .expect("spawn repro");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment id"), "{stderr}");
}

#[test]
fn seed_changes_stochastic_output_but_not_structure() {
    let run = |seed: &str| {
        let output = repro()
            .args(["fig5", "--seed", seed])
            .output()
            .expect("spawn");
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
