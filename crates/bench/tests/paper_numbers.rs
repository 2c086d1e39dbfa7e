//! The reproduction's headline numbers, pinned by value at the default
//! seed (20020701). EXPERIMENTS.md records these figures against the
//! paper's; a change to any of them is a change in what the repository
//! reproduces and must be deliberate.

use std::process::Command;
use std::sync::OnceLock;

/// Runs `repro table1 fig5 fig7 mitigation` once (in a scratch directory,
/// so the CSVs it writes stay out of the tree) and returns its stdout.
fn output() -> &'static str {
    static OUTPUT: OnceLock<String> = OnceLock::new();
    OUTPUT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("syndog-paper-numbers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", "fig5", "fig7", "mitigation", "--seed", "20020701"])
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        std::fs::remove_dir_all(&dir).ok();
        assert!(output.status.success(), "{output:?}");
        String::from_utf8(output.stdout).unwrap()
    })
}

/// The body of experiment `id`'s section.
fn section(id: &str) -> &'static str {
    let header = format!("=== {id} — ");
    let start = output()
        .find(&header)
        .unwrap_or_else(|| panic!("no {id} section"));
    let body = &output()[start + header.len()..];
    &body[..body.find("\n=== ").unwrap_or(body.len())]
}

/// The whitespace-separated cells of the table row in `id` whose first
/// cell is `first`.
fn row(id: &str, first: &str) -> Vec<&'static str> {
    section(id)
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&first))
        .unwrap_or_else(|| panic!("no `{first}` row in {id}:\n{}", section(id)))
}

#[test]
fn table1_expected_k_per_site() {
    for (site, k) in [
        ("LBL", "15"),
        ("Harvard", "403"),
        ("UNC", "2112"),
        ("Auckland", "100"),
    ] {
        // Trace, duration, "min", traffic type, mean rate, K̄, residual.
        assert_eq!(row("table1", site)[5], k, "{site} K̄");
    }
}

#[test]
fn fig5_normal_operation_stays_below_threshold() {
    for (site, max_yn) in [
        ("Harvard", "0.082"),
        ("UNC", "0.000"),
        ("Auckland", "0.327"),
    ] {
        let cells = row("fig5", site);
        assert_eq!(cells[2], max_yn, "{site} max y_n");
        assert_eq!(cells[3], "0", "{site} false alarms");
    }
}

#[test]
fn fig7_first_alarms_at_unc() {
    for (rate, alarm, delay) in [("45", "23", "8"), ("60", "19", "4"), ("80", "17", "2")] {
        let cells = row("fig7", rate);
        assert_eq!(cells[1], "15", "attack start");
        assert_eq!((cells[2], cells[3]), (alarm, delay), "fi = {rate} SYN/s");
    }
}

#[test]
fn mitigation_sheds_the_flood_and_spares_the_crowd() {
    let body = section("mitigation");
    for line in [
        "attack SYNs at the victim: 17238 offered → 454 forwarded \
         (97.4% shed at the source, 0 legitimate SYNs throttled)",
        "flash-crowd-exonerated: 8 surge periods stood down, 0 throttles engaged, \
         0 SYNs throttled",
    ] {
        assert!(body.contains(line), "missing `{line}` in:\n{body}");
    }
    // Throttle key, offered, forwarded, shed %, collateral.
    assert_eq!(
        row("mitigation", "prefix")[2..],
        ["17238", "2434", "85.9", "3855"]
    );
    assert_eq!(
        row("mitigation", "fingerprint")[1..],
        ["17238", "454", "97.4", "0"]
    );
}
