//! The reproduction's paper numbers, pinned at the default seed
//! (20020701). Every table value from Table 1 through §4.2.3 is read from
//! a "Measured" cell of EXPERIMENTS.md and compared with what `repro`
//! prints, so the document and the code cannot drift apart: a change to
//! any of these numbers is a change in what the repository reproduces and
//! must land in both. The mitigation headline is pinned literally.

use std::process::Command;
use std::sync::OnceLock;

/// Runs every paper experiment once (in a scratch directory, so the CSVs
/// it writes stay out of the tree) and returns its stdout.
fn output() -> &'static str {
    static OUTPUT: OnceLock<String> = OnceLock::new();
    OUTPUT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("syndog-paper-numbers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "table1",
                "fig5",
                "fig7",
                "fig8",
                "fig9",
                "table2",
                "table3",
                "disc",
                "mitigation",
                "--seed",
                "20020701",
            ])
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

/// The first cell of every row of `id`'s first table.
fn row_keys(id: &str) -> Vec<&'static str> {
    section(id)
        .lines()
        .skip_while(|line| !line.starts_with("---"))
        .skip(1)
        .take_while(|line| !line.trim().is_empty())
        .filter_map(|line| line.split_whitespace().next())
        .collect()
}

/// The text of `repro`'s line in `id` that starts with `prefix` (leading
/// spaces ignored), after the prefix.
fn line_after(id: &str, prefix: &str) -> &'static str {
    section(id)
        .lines()
        .find_map(|line| line.trim_start().strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in {id}:\n{}", section(id)))
}

/// The first markdown table under the EXPERIMENTS.md heading that starts
/// with `## {heading}`.
struct DocTable {
    heading: &'static str,
    header: Vec<&'static str>,
    rows: Vec<Vec<&'static str>>,
}

impl DocTable {
    fn read(heading: &'static str) -> Self {
        static DOC: OnceLock<String> = OnceLock::new();
        let doc = DOC.get_or_init(|| {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
            std::fs::read_to_string(path).expect("read EXPERIMENTS.md")
        });
        let start = doc
            .find(&format!("\n## {heading}"))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `## {heading}` section"));
        let mut tables = doc[start + 1..]
            .lines()
            .skip(1)
            .take_while(|line| !line.starts_with("## "))
            .skip_while(|line| !line.starts_with('|'))
            .map_while(|line| line.strip_prefix('|')?.strip_suffix('|'))
            .map(|line| line.split('|').map(str::trim).collect::<Vec<_>>())
            .filter(|cells| !cells[0].starts_with("---"));
        let header = tables
            .next()
            .unwrap_or_else(|| panic!("EXPERIMENTS.md {heading}: no table"));
        DocTable {
            heading,
            header,
            rows: tables.collect(),
        }
    }

    /// Checks that the table has the same rows, in order, as `repro id`'s
    /// first table.
    fn same_rows_as(self, id: &str) -> Self {
        let keys: Vec<_> = self.rows.iter().map(|row| row[0]).collect();
        assert_eq!(
            keys,
            row_keys(id),
            "{}: EXPERIMENTS.md rows vs repro {id} rows",
            self.heading
        );
        self
    }

    /// The cell of `row` under the first column whose header starts with
    /// `column`.
    fn cell(&self, row: &[&'static str], column: &str) -> &'static str {
        let i = self
            .header
            .iter()
            .position(|h| h.starts_with(column))
            .unwrap_or_else(|| panic!("{}: no `{column}` column", self.heading));
        row[i]
    }

    /// The `Measured…` cell of the row whose first cell is `first`.
    fn measured(&self, first: &str) -> &'static str {
        let row = self
            .rows
            .iter()
            .find(|row| row[0] == first)
            .unwrap_or_else(|| panic!("{}: no `{first}` row", self.heading));
        self.cell(row, "Measured")
    }

    /// Asserts that this table's `doc` value for `what` is what `repro`
    /// prints.
    fn pin(&self, what: &str, doc: &str, repro: &str) {
        assert!(
            doc == repro,
            "{}, {what}: EXPERIMENTS.md says `{doc}`, repro prints `{repro}`",
            self.heading
        );
    }
}

/// The first word of a cell (`"4 (this seed; …)"` → `"4"`).
fn lead(cell: &str) -> &str {
    cell.split_whitespace().next().unwrap_or("")
}

#[test]
fn table1_expected_k_per_site() {
    let table = DocTable::read("Table 1").same_rows_as("table1");
    for doc_row in &table.rows {
        // "60 min, bi-directional, K̄ ≈ 15/period"
        let measured = table.cell(doc_row, "Measured");
        let k = measured
            .split("K̄ ≈ ")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .unwrap_or(measured);
        // Trace, duration, "min", traffic type, mean rate, K̄, residual.
        let site = doc_row[0];
        table.pin(&format!("{site} K̄"), k, row("table1", site)[5]);
    }
}

#[test]
fn fig5_normal_operation_stays_below_threshold() {
    let table = DocTable::read("Figure 5").same_rows_as("fig5");
    for doc_row in &table.rows {
        let site = doc_row[0];
        // Site, periods, max y_n, false alarms, headroom.
        let cells = row("fig5", site);
        table.pin(
            &format!("{site} max y_n"),
            lead(table.cell(doc_row, "Measured")),
            cells[2],
        );
        table.pin(
            &format!("{site} false alarms"),
            table.cell(doc_row, "False alarms"),
            cells[3],
        );
    }
}

/// Pins the delay column of a single-run figure: fi, attack start, first
/// alarm, delay.
fn pin_delays(heading: &'static str, id: &str) {
    let table = DocTable::read(heading).same_rows_as(id);
    for doc_row in &table.rows {
        let rate = doc_row[0];
        table.pin(
            &format!("fi = {rate} delay"),
            lead(table.cell(doc_row, "Measured")),
            row(id, rate)[3],
        );
    }
}

#[test]
fn fig7_first_alarms_at_unc() {
    pin_delays("Figure 7", "fig7");
}

#[test]
fn fig8_first_alarms_at_auckland() {
    pin_delays("Figure 8", "fig8");
}

#[test]
fn fig9_tuned_parameters_at_the_tuned_f_min() {
    let table = DocTable::read("Figure 9");
    table.pin(
        "plotted run delay",
        lead(table.measured("Plotted run at `fi = 15`, tuned")),
        row("fig9", "15")[3],
    );
    // "tuned (a=0.2, N=0.6) P = 0.23, default (a=0.35, N=1.05) P = 0.00"
    let probabilities: Vec<&str> = line_after("fig9", "over 30 trials at fi = 15 SYN/s: ")
        .split("P = ")
        .skip(1)
        .map(|rest| lead(rest).trim_end_matches(','))
        .collect();
    let [tuned, default] = probabilities[..] else {
        panic!("fig9: expected two P values in:\n{}", section("fig9"));
    };
    table.pin(
        "tuned P",
        table.measured("P over 30 trials, tuned (`a = 0.2`, `N = 0.6`)"),
        tuned,
    );
    table.pin(
        "default P",
        table.measured("P over 30 trials, default (`a = 0.35`, `N = 1.05`)"),
        default,
    );
    table.pin(
        "tuned false alarms",
        table.measured("False alarms on clean traffic, tuned"),
        line_after("fig9", "tuned parameters false alarms on clean traffic: "),
    );
}

/// Pins the `P / T` column of a 50-trial detection table.
fn pin_detection_table(heading: &'static str, id: &str) {
    let table = DocTable::read(heading).same_rows_as(id);
    for doc_row in &table.rows {
        let rate = doc_row[0];
        // fi, detection probability, detection time, max delay, false alarms.
        let cells = row(id, rate);
        table.pin(
            &format!("fi = {rate} P / T"),
            table.cell(doc_row, "Measured"),
            &format!("{} / {}", cells[1], cells[2]),
        );
    }
}

#[test]
fn table2_detection_at_unc() {
    pin_detection_table("Table 2", "table2");
}

#[test]
fn table3_detection_at_auckland() {
    pin_detection_table("Table 3", "table3");
}

#[test]
fn disc_coverage_and_localization() {
    let table = DocTable::read("§4.2.3");
    for (first, site) in [
        ("Max hidden stubs, UNC (`V = 14,000`)", "UNC"),
        ("Max hidden stubs, Auckland", "Auckland"),
    ] {
        // Site, K̄, f_min, max hidden stubs.
        table.pin(
            &format!("{site} max hidden stubs"),
            &table.measured(first).replace(',', ""),
            row("disc", site)[3],
        );
    }
    // "prime suspect MAC = ground-truth attacker MAC (100% of spoofed SYNs), …"
    let localization = table.measured("Localization");
    let doc_verdict = if localization.starts_with("prime suspect MAC = ground-truth attacker MAC") {
        "MATCH"
    } else {
        "MISMATCH"
    };
    // "02:ff:01:00:00:2a — MATCH"
    let repro_verdict = line_after("disc", "ground truth attacker MAC: ")
        .rsplit(' ')
        .next()
        .unwrap();
    table.pin("localization suspect MAC", doc_verdict, repro_verdict);
    let share = |text: &'static str| -> f64 {
        let start = text.find('(').map_or(0, |i| i + 1);
        let end = text.find('%').unwrap_or(start);
        text[start..end].parse().unwrap_or(f64::NAN)
    };
    // "5872 spoofed SYNs (100.0% of all spoofed)"
    let repro_share = share(line_after("disc", "prime suspect MAC "));
    table.pin(
        "localization share of spoofed SYNs",
        &format!("{}%", share(localization)),
        &format!("{repro_share}%"),
    );
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
