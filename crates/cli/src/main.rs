//! `syndog` — command-line front end for the SYN-dog reproduction.
//! `syndog --help` prints every subcommand with its flags ([`USAGE`] is
//! the one copy).
//!
//! Each subcommand lives in the module named for its family; the option
//! groups they share (detector, mitigation, telemetry, faults,
//! checkpoint) are parsed once into [`options::RunOptions`].
//!
//! - [`detect`]: `detect`, `sniff`, `locate` — one capture, one stub, one
//!   detection report.
//! - [`fleet`]: `fleet` — the distributed deployment and correlation tier.
//! - [`serve`]: `serve` — the long-running daemon and its status plane.
//! - [`tools`]: `generate`, `inject`, `stats`, `theory`.

/// `print!` to stdout, ending quietly once the reader has gone: after a
/// closed pipe (`syndog sniff … | head -1`) the rest of the output is
/// dropped, and the command runs to its end and exits as it would have.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] with a newline, as `println!`.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod detect;
mod fleet;
mod options;
mod serve;
mod tools;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => tools::cmd_generate(rest),
        "inject" => tools::cmd_inject(rest),
        "detect" => detect::cmd_detect(rest),
        "sniff" => detect::cmd_sniff(rest),
        "locate" => detect::cmd_locate(rest),
        "fleet" => fleet::cmd_fleet(rest),
        "serve" => serve::cmd_serve(rest),
        "stats" => tools::cmd_stats(rest),
        "theory" => tools::cmd_theory(rest),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Writes to stdout: a closed pipe is the reader's choice, not an error,
/// and any other failure panics as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(err) = std::io::stdout().lock().write_fmt(args) {
        assert!(
            err.kind() == std::io::ErrorKind::BrokenPipe,
            "failed printing to stdout: {err}"
        );
    }
}

const USAGE: &str = "usage:
  syndog generate --site <lbl|harvard|unc|auckland> [--seed N] --out FILE
  syndog inject   --in FILE --out FILE --rate R [--start SECS] [--duration SECS] [--seed N]
  syndog detect   --in FILE --stub CIDR [--detector D] [--mitigate] [--throttle-key K] [--tuned] [--t0 SECS] [--verbose] [--faults SPEC] [--checkpoint FILE] [--resume FILE] [--metrics DEST] [--metrics-format F]
  syndog sniff    --in FILE --stub CIDR [--detector D] [--tuned] [--t0 SECS] [--verbose] [--metrics DEST] [--metrics-format F]
  syndog locate   --in FILE --stub CIDR
  syndog fleet    [--detector D] [--stubs N] [--site S] [--site-minutes M] [--attackers I,J,A-B,..] [--total-rate V] [--start SECS] [--attack-duration SECS] [--seed N] [--jobs N] [--counts] [--regions N] [--label-budget N] [--mitigate] [--throttle-key K] [--faults SPEC] [--csv FILE] [--metrics DEST] [--metrics-format F]
  syndog serve    [--sites S,S,..|--in FILE --stub CIDR] [--plan FILE] [--flood R@START+DURATION] [--periods N] [--t0 SECS] [--seed N] [--detector D] [--threshold N] [--mitigate] [--throttle-key K] [--config FILE] [--checkpoint-dir DIR] [--checkpoint-interval N] [--checkpoint-keep N] [--resume-latest] [--status-json] [--metrics DEST]
  syndog stats    --in FILE.jsonl [--format <prom|jsonl|csv>]
  syndog theory   --k KBAR [--a A] [--c C] [--t0 SECS] [--total-rate V]

FILE format: pcap when the name ends in .pcap, binary trace otherwise.
detect, sniff and locate read FILE one record at a time, never whole,
under one period rule: a record behind the period clock counts in the
open period (the report gives the late count), a binary trace's
declared span sets how many periods close, and a pcap's last period is
the one holding its latest record. sniff classifies a pcap's frames
without decoding records.

--metrics DEST records detector telemetry: a socket address (host:port)
serves live Prometheus scrapes during the run; any other DEST is a file
that receives the final snapshot on exit. The format follows the file
extension (.prom, .jsonl, .csv) unless --metrics-format overrides it.
stats reads a .jsonl snapshot back and summarizes it (or re-renders it
with --format).

--detector D (detect, sniff, fleet) selects the per-period detection
strategy: syndog (the paper's normalized SYN-SYN/ACK CUSUM, the
default), syn-cusum (CUSUM on the SYN count's excursion over its
own recursive mean — no reverse path needed), ewma (adaptive-threshold
EWMA with a two-period persistence rule), or fin-pair (SYN vs FIN/RST
pairing; needs the record-level paths, count-level runs see zero
closes). All four share the same config, checkpoint envelope, and
report shape.

detect accepts fault/recovery flags. --faults SPEC injects seeded,
reproducible faults into the run; SPEC is comma-separated key=value
pairs from drop, dup, truncate, corrupt (probabilities in
[0,1]), reorder (window size), jitter_ms, and seed — for example
--faults drop=0.05,reorder=8,seed=7. The run prints a fault ledger
summary. --checkpoint FILE writes a versioned, CRC-checked snapshot of
the detector and router state after the run; --resume FILE restores
one and reads the input's records from the checkpoint's period
boundary on, keeping the learned K. The checkpoint carries the detector
strategy and configuration, so --tuned/--t0/--detector are rejected
alongside --resume.

fleet simulates the paper's distributed deployment: --stubs copies of
the --site workload in disjoint prefixes (128.i.0.0/16 for the first
256, /20 blocks beyond), one SYN-dog per stub, and a DDoS campaign of
--total-rate SYN/s split across the --attackers stub indices
(comma-separated, inclusive A-B ranges allowed). The report lists
per-stub first alarms, delays, false alarms and suspect MACs, prints
IMPLICATED lines for alarming stubs, and cross-checks against
traceback topology. --counts runs the streaming count-level path (no
MAC localization) — required past 255 stubs. --regions N adds the
hierarchical correlation tier: count-level rows stream to --csv while
N regional collectors cluster alarm onsets and reconstruct the
distributed campaign (CAMPAIGN lines, reconstruction verdict, and its
own topology cross-check) in place of the per-stub table.
--label-budget N (with --metrics) caps label cardinality: past N label
sets agents share per-region rollup series instead of per-stub ones.
--jobs caps workers without changing any output byte.

--mitigate (detect, fleet and serve) arms source-end mitigation: the
first alarm installs keyed token-bucket SYN throttles sized from the
stub's learned K, and a hysteresis gate releases them once the
statistic stays calm. --throttle-key picks the key family: mac (the
default; suspect MAC with /24 spoofed-source fallback), prefix (every
outbound SYN keyed by its /24), or fingerprint (only SYNs bearing the
dominant attack SYN fingerprint — immune to MAC and prefix rotation,
zero legitimate collateral). With fingerprints available, a surge
whose SYNs carry a diverse OS-stack mix and whose handshakes complete
is exonerated as a flash crowd: no throttles engage. detect prints a
MITIGATION summary; fleet adds THROTTLED lines and extends the CSV
with engaged/release periods, throttled / collateral counts, and the
victim-observed SYN rate before and after the first alarm.

serve hosts the agents as a long-running daemon for --periods
observation periods (sim-time; default 720 = 4 sim-hours at the
paper's t0). Traffic comes from a --plan load script (lines of the
form `phase NAME 300s benign=1..2 attack=0..40`) driven over each
--sites profile (comma-separated; each re-homed into 128.i.0.0/16), or
from --in FILE replayed in an endless loop, optionally with --flood
R@START+DURATION SYN/s overlaid on the first stub. --checkpoint-dir
enables atomic, CRC-checked checkpoint rotation every
--checkpoint-interval periods keeping --checkpoint-keep generations;
--resume-latest restores the newest fully-valid generation (engaged
throttles included) and continues. --config FILE is polled at every
period boundary and hot-reloads detector / threshold / mitigation
without a restart. --metrics host:port serves /status and
/status.json beside /metrics; the final status drill-down prints on
exit (--status-json for machine-readable).";

#[cfg(test)]
mod tests {
    use syndog::{DetectorKind, SynDogConfig};
    use syndog_attack::SynFlood;
    use syndog_router::KeyMode;
    use syndog_sim::{SimDuration, SimRng, SimTime};
    use syndog_telemetry::export;
    use syndog_traffic::{SiteProfile, Trace, TraceRecord};

    use crate::detect::{cmd_detect, cmd_sniff};
    use crate::fleet::{cmd_fleet, parse_attackers};
    use crate::options::{
        read_checkpoint, read_trace, site_by_name, victim, write_trace, Flags, RunOptions,
    };
    use crate::serve::{cmd_serve, parse_flood};
    use crate::tools::cmd_stats;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let flags = Flags::parse(
            &args(&["--in", "a.bin", "--tuned", "--rate", "50"]),
            &["tuned"],
            &["in", "rate", "start"],
        )
        .unwrap();
        assert_eq!(flags.get("in"), Some("a.bin"));
        assert!(flags.has("tuned"));
        assert_eq!(flags.parse_value::<f64>("rate", 0.0).unwrap(), 50.0);
        assert_eq!(flags.parse_value::<f64>("start", 300.0).unwrap(), 300.0);
    }

    #[test]
    fn flags_last_value_wins() {
        let flags = Flags::parse(&args(&["--seed", "1", "--seed", "2"]), &[], &["seed"]).unwrap();
        assert_eq!(flags.get("seed"), Some("2"));
    }

    #[test]
    fn flags_reject_malformed_input() {
        assert!(Flags::parse(&args(&["positional"]), &[], &[]).is_err());
        assert!(Flags::parse(&args(&["--rate"]), &[], &["rate"]).is_err());
        assert_eq!(
            Flags::parse(&args(&["--rtae", "5"]), &[], &["rate"]).err(),
            Some("unknown flag --rtae".to_string())
        );
        let flags = Flags::parse(&args(&["--rate", "abc"]), &[], &["rate"]).unwrap();
        assert!(flags.parse_value::<f64>("rate", 0.0).is_err());
        assert!(flags.require("missing").is_err());
    }

    #[test]
    fn attackers_parse_validates_indices() {
        assert_eq!(parse_attackers("0", 4).unwrap(), vec![0]);
        assert_eq!(parse_attackers("1, 3", 4).unwrap(), vec![1, 3]);
        assert!(parse_attackers("4", 4).is_err());
        assert!(parse_attackers("x", 4).is_err());
    }

    #[test]
    fn attackers_parse_expands_ranges() {
        assert_eq!(parse_attackers("2-5", 8).unwrap(), vec![2, 3, 4, 5]);
        assert_eq!(
            parse_attackers("0, 2-4, 7", 8).unwrap(),
            vec![0, 2, 3, 4, 7]
        );
        assert!(parse_attackers("5-2", 8).is_err(), "reversed range");
        assert!(parse_attackers("6-9", 8).is_err(), "range past the fleet");
        assert!(parse_attackers("2-", 8).is_err());
    }

    #[test]
    fn fleet_regions_runs_correlated_and_streams_csv() {
        let csv = std::env::temp_dir().join("syndog_test_fleet_regions.csv");
        let csv = csv.to_str().unwrap().to_string();
        cmd_fleet(&args(&[
            "--stubs",
            "12",
            "--attackers",
            "2-5",
            "--site",
            "lbl",
            "--site-minutes",
            "20",
            "--total-rate",
            "12",
            "--start",
            "400",
            "--attack-duration",
            "400",
            "--seed",
            "31",
            "--regions",
            "3",
            "--jobs",
            "2",
            "--csv",
            &csv,
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&csv).unwrap();
        assert!(written.starts_with("stub,prefix,"));
        assert_eq!(written.lines().count(), 13, "header + one row per stub");
        let _ = std::fs::remove_file(&csv);
        // Correlated runs imply count-level, so big fleets need no --counts;
        // trace-level past 255 stubs is rejected.
        assert!(cmd_fleet(&args(&["--stubs", "300"])).is_err());
        assert!(cmd_fleet(&args(&["--regions", "0"])).is_err());
        assert!(
            cmd_fleet(&args(&["--label-budget", "4"])).is_err(),
            "label budget needs metrics"
        );
    }

    #[test]
    fn fleet_runs_end_to_end_and_writes_csv() {
        let csv = std::env::temp_dir().join("syndog_test_fleet.csv");
        let csv = csv.to_str().unwrap().to_string();
        cmd_fleet(&args(&[
            "--stubs",
            "3",
            "--attackers",
            "1",
            "--site-minutes",
            "20",
            "--total-rate",
            "10",
            "--start",
            "300",
            "--attack-duration",
            "300",
            "--seed",
            "5",
            "--jobs",
            "2",
            "--csv",
            &csv,
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&csv).unwrap();
        assert!(written.starts_with("stub,prefix,"));
        assert_eq!(written.lines().count(), 4, "header + one row per stub");
        let _ = std::fs::remove_file(&csv);
        // The count-level path and validation errors.
        cmd_fleet(&args(&["--stubs", "2", "--counts", "--site-minutes", "10"])).unwrap();
        assert!(cmd_fleet(&args(&["--stubs", "0"])).is_err());
        assert!(cmd_fleet(&args(&["--attackers", "9"])).is_err());
        assert!(cmd_fleet(&args(&["--total-rate", "0"])).is_err());
        assert!(cmd_fleet(&args(&["--site-minutes", "-5"])).is_err());
    }

    #[test]
    fn detector_flag_selects_each_strategy_end_to_end() {
        let dir = std::env::temp_dir();
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(21);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            victim(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let stub = site.stub().to_string();
        let trace_path = dir
            .join("syndog_test_detector.bin")
            .to_str()
            .unwrap()
            .to_string();
        write_trace(&trace, &trace_path).unwrap();
        for kind in DetectorKind::ALL {
            cmd_detect(&args(&[
                "--in",
                &trace_path,
                "--stub",
                &stub,
                "--detector",
                kind.name(),
            ]))
            .unwrap();
        }
        // A checkpoint keeps the strategy on resume.
        let ck = dir
            .join("syndog_test_detector.ck.json")
            .to_str()
            .unwrap()
            .to_string();
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--detector",
            "syn-cusum",
            "--checkpoint",
            &ck,
        ]))
        .unwrap();
        let saved = read_checkpoint(&ck).unwrap();
        assert_eq!(saved.detector.kind(), DetectorKind::SynCusum);
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck,
        ]))
        .unwrap();
        // Misuse fails loudly: unknown strategy, or re-specifying one
        // against a checkpoint that already carries it.
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--detector",
            "bogus"
        ]))
        .is_err());
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck,
            "--detector",
            "ewma"
        ]))
        .is_err());
        for p in [&trace_path, &ck] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn site_lookup_is_case_insensitive() {
        assert_eq!(site_by_name("UNC").unwrap().name(), "UNC");
        assert_eq!(site_by_name("auckland").unwrap().name(), "Auckland");
        assert!(site_by_name("mit").is_err());
    }

    #[test]
    fn detect_config_switches_profiles() {
        let detect_config = |flags: &Flags| RunOptions::from_flags(flags).map(|o| o.config);
        let default = detect_config(&Flags::parse(&[], &["tuned"], &["t0"]).unwrap()).unwrap();
        assert_eq!(default.offset, 0.35);
        let tuned = detect_config(&Flags::parse(&args(&["--tuned"]), &["tuned"], &["t0"]).unwrap())
            .unwrap();
        assert_eq!(tuned.offset, 0.2);
        let custom_t0 =
            detect_config(&Flags::parse(&args(&["--t0", "10"]), &["tuned"], &["t0"]).unwrap())
                .unwrap();
        assert_eq!(custom_t0.observation_period_secs, 10.0);
        assert!(
            detect_config(&Flags::parse(&args(&["--t0", "0"]), &["tuned"], &["t0"]).unwrap())
                .is_err()
        );
    }

    #[test]
    fn fault_and_checkpoint_flags_round_trip() {
        let dir = std::env::temp_dir();
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(9);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            victim(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let stub = site.stub().to_string();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let trace_path = path("syndog_test_faultcli.bin");
        write_trace(&trace, &trace_path).unwrap();

        // The head of the trace as its own capture: checkpoint there,
        // then resume over the full trace picks up from that boundary.
        let period =
            SimDuration::from_secs_f64(SynDogConfig::paper_default().observation_period_secs);
        let head = {
            let cut = SimTime::ZERO + period * 5;
            let records: Vec<TraceRecord> = trace
                .records()
                .iter()
                .filter(|r| r.time < cut)
                .copied()
                .collect();
            Trace::from_records(records, period * 5)
        };
        let head_path = path("syndog_test_faultcli_head.bin");
        write_trace(&head, &head_path).unwrap();

        // Faulted detect runs end to end and prints its ledger.
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--faults",
            "drop=0.05,reorder=8,seed=7",
        ]))
        .unwrap();

        // detect: checkpoint at the head boundary, resume the full trace.
        let ck = path("syndog_test_faultcli.ck.json");
        cmd_detect(&args(&[
            "--in",
            &head_path,
            "--stub",
            &stub,
            "--checkpoint",
            &ck,
        ]))
        .unwrap();
        let saved = read_checkpoint(&ck).unwrap();
        assert_eq!(saved.current_period, 5);
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck,
        ]))
        .unwrap();

        // Misuse fails loudly.
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--faults",
            "bogus=1"
        ]))
        .is_err());
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            "/nonexistent/syndog.ck"
        ]))
        .is_err());
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck,
            "--tuned"
        ]))
        .is_err());
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck,
            "--t0",
            "10"
        ]))
        .is_err());

        for p in [&trace_path, &head_path, &ck] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn mitigate_flag_runs_detect_and_fleet_end_to_end() {
        let dir = std::env::temp_dir();
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(13);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            victim(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let stub = site.stub().to_string();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let trace_path = path("syndog_test_mitigate.bin");
        write_trace(&trace, &trace_path).unwrap();

        // Mitigated detect runs, and its checkpoint carries the engine.
        let ck = path("syndog_test_mitigate.ck.json");
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--mitigate",
            "--checkpoint",
            &ck,
        ]))
        .unwrap();
        let saved = read_checkpoint(&ck).unwrap();
        assert!(
            saved.mitigation.is_some(),
            "checkpoint must carry the engine"
        );
        // Resume restores the armed engine without repeating the flag.
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck,
        ]))
        .unwrap();
        // The mitigated path composes with record-level faults.
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--mitigate",
            "--faults",
            "drop=0.05,seed=7",
        ]))
        .unwrap();

        // Mitigated fleet: the CSV gains the mitigation columns and the
        // attacked stub's row records an engagement.
        let csv = path("syndog_test_mitigate_fleet.csv");
        cmd_fleet(&args(&[
            "--stubs",
            "3",
            "--attackers",
            "1",
            "--site-minutes",
            "20",
            "--total-rate",
            "10",
            "--start",
            "300",
            "--attack-duration",
            "300",
            "--seed",
            "5",
            "--mitigate",
            "--csv",
            &csv,
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&csv).unwrap();
        let mut lines = written.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let column = |name: &str| {
            header
                .iter()
                .position(|c| *c == name)
                .unwrap_or_else(|| panic!("missing CSV column {name}"))
        };
        let engaged = column("engaged_period");
        let mitigated = column("mitigated");
        for line in lines {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[mitigated], "true");
            let attacked_row = fields[0] == "Auckland-1";
            assert_eq!(!fields[engaged].is_empty(), attacked_row, "row: {line}");
        }

        for p in [&trace_path, &ck, &csv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn throttle_key_flag_selects_fingerprint_keying_and_rejects_unknown() {
        let throttle_key_flag =
            |flags: &Flags| RunOptions::from_flags(flags).map(|o| o.throttle_key);
        let bad = Flags::parse(
            &args(&["--throttle-key", "magic"]),
            &["mitigate", "verbose"],
            &["throttle-key"],
        )
        .unwrap();
        assert!(throttle_key_flag(&bad)
            .unwrap_err()
            .contains("unknown throttle key"));

        // Fingerprint-keyed detect over a fingerprinted tool flood: the
        // checkpointed engine must carry the selected key mode.
        let dir = std::env::temp_dir();
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(31);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            victim(),
        )
        .with_fp(syndog_traffic::load::attack_fingerprint().to_bits());
        trace.merge(&flood.generate_trace(&mut rng));
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let trace_path = path("syndog_test_throttle_key.bin");
        write_trace(&trace, &trace_path).unwrap();
        let ck = path("syndog_test_throttle_key.ck.json");
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &site.stub().to_string(),
            "--mitigate",
            "--throttle-key",
            "fingerprint",
            "--checkpoint",
            &ck,
        ]))
        .unwrap();
        let saved = read_checkpoint(&ck).unwrap();
        let state = saved.mitigation.expect("checkpoint must carry the engine");
        assert_eq!(state.policy.key_mode, KeyMode::Fingerprint);
        for p in [&trace_path, &ck] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn serve_runs_resumes_and_validates_from_the_cli() {
        let dir = std::env::temp_dir().join(format!("syndog_test_serve_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let ck = path("ck");
        let plan = path("plan.txt");
        std::fs::write(
            &plan,
            "phase quiet 600s benign=1 attack=0\n\
             phase flood 200s benign=1 attack=12\n\
             phase calm 600s benign=1 attack=0\n",
        )
        .unwrap();
        // A mitigated plan-driven run with rotation enabled.
        cmd_serve(&args(&[
            "--sites",
            "lbl",
            "--plan",
            &plan,
            "--periods",
            "45",
            "--seed",
            "3",
            "--mitigate",
            "--checkpoint-dir",
            &ck,
            "--checkpoint-interval",
            "5",
            "--checkpoint-keep",
            "2",
        ]))
        .unwrap();
        let generations = std::fs::read_dir(&ck)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("ck-")
            })
            .count();
        assert_eq!(generations, 2, "retention keeps exactly --checkpoint-keep");
        // --resume-latest picks the newest generation up and continues.
        cmd_serve(&args(&[
            "--sites",
            "lbl",
            "--plan",
            &plan,
            "--seed",
            "3",
            "--periods",
            "5",
            "--checkpoint-dir",
            &ck,
            "--resume-latest",
            "--status-json",
        ]))
        .unwrap();
        // A looping capture with a flood overlay drives the same daemon.
        let site = SiteProfile::lbl();
        let mut rng = SimRng::seed_from_u64(11);
        let trace = site.generate_trace(&mut rng);
        let trace_path = path("loop.bin");
        write_trace(&trace, &trace_path).unwrap();
        cmd_serve(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &site.stub().to_string(),
            "--flood",
            "5@40+40",
            "--periods",
            "6",
        ]))
        .unwrap();
        // Misuse fails loudly.
        assert!(cmd_serve(&args(&["--periods", "0"])).is_err());
        assert!(cmd_serve(&args(&["--resume-latest"])).is_err());
        assert!(cmd_serve(&args(&[
            "--resume-latest",
            "--checkpoint-dir",
            &ck,
            "--detector",
            "ewma"
        ]))
        .is_err());
        assert!(cmd_serve(&args(&[
            "--in",
            &trace_path,
            "--stub",
            "10.0.0.0/16",
            "--sites",
            "lbl"
        ]))
        .is_err());
        assert!(cmd_serve(&args(&["--flood", "bogus", "--periods", "2"])).is_err());
        assert_eq!(parse_flood("40@600+300").unwrap(), (40.0, 600.0, 300.0));
        assert!(parse_flood("40@600").is_err());
        assert!(parse_flood("-1@0+10").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_sink_serves_scrapes_for_address_destinations() {
        use std::io::{Read, Write};
        let flags = Flags::parse(&args(&["--metrics", "127.0.0.1:0"]), &[], &["metrics"]).unwrap();
        let metrics = RunOptions::from_flags(&flags)
            .unwrap()
            .metrics(Vec::new())
            .unwrap();
        metrics
            .hub()
            .unwrap()
            .registry()
            .counter("syndog_periods_total")
            .add(2);
        let addr = metrics
            .addr()
            .expect("socket address should open a scrape endpoint");
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("syndog_periods_total 2"), "{response}");
        metrics.finish().unwrap();
    }

    #[test]
    fn serve_writes_its_metrics_file_on_exit() {
        let prom = std::env::temp_dir().join(format!(
            "syndog_test_serve_metrics_{}.prom",
            std::process::id()
        ));
        let prom = prom.to_str().unwrap();
        cmd_serve(&args(&[
            "--sites",
            "lbl",
            "--periods",
            "30",
            "--metrics",
            prom,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(prom).unwrap();
        assert!(
            text.contains("# TYPE syndog_periods_total counter"),
            "{text}"
        );
        assert!(text.contains("syndog_periods_total{"), "{text}");
        let _ = std::fs::remove_file(prom);
    }

    #[test]
    fn metrics_flags_dump_snapshots_and_stats_reads_them_back() {
        let dir = std::env::temp_dir();
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(3);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            victim(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let stub = site.stub().to_string();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let trace_path = path("syndog_test_metrics.bin");
        write_trace(&trace, &trace_path).unwrap();

        // detect → Prometheus text (format inferred from the extension).
        let prom = path("syndog_test_metrics.prom");
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--metrics",
            &prom,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            text.contains("# TYPE syndog_periods_total counter"),
            "{text}"
        );
        assert!(text.contains("syndog_alarms_total"), "{text}");

        // sniff → JSONL, then read it back through `stats` both ways.
        let jsonl = path("syndog_test_metrics.jsonl");
        cmd_sniff(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--metrics",
            &jsonl,
        ]))
        .unwrap();
        cmd_stats(&args(&["--in", &jsonl])).unwrap();
        cmd_stats(&args(&["--in", &jsonl, "--format", "prom"])).unwrap();
        let restored = export::parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        assert!(restored.counter("syndog_periods_total", &[]) > Some(0));
        assert!(restored.counter("syndog_frames_total", &[("interface", "outbound")]) > Some(0));
        assert!(restored
            .events
            .iter()
            .any(|event| event.kind == "alarm_raised"));

        // detect → CSV forced over a non-matching extension.
        let csv = path("syndog_test_metrics_snapshot.out");
        cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--metrics",
            &csv,
            "--metrics-format",
            "csv",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("row_type,name,labels,value"), "{text}");
        assert!(text.contains("syndog_frames_total"), "{text}");

        // Flag misuse fails loudly rather than dropping telemetry.
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--metrics-format",
            "csv",
        ]))
        .is_err());
        assert!(cmd_detect(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--metrics",
            &prom,
            "--metrics-format",
            "xml",
        ]))
        .is_err());
        assert!(cmd_stats(&args(&["--in", "/nonexistent/syndog.jsonl"])).is_err());
        assert!(cmd_stats(&args(&["--in", &jsonl, "--format", "xml"])).is_err());

        for p in [&trace_path, &prom, &jsonl, &csv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_io_dispatches_on_extension() {
        let dir = std::env::temp_dir();
        let site = SiteProfile::lbl();
        let mut rng = SimRng::seed_from_u64(1);
        let trace = site.generate_trace(&mut rng);
        for name in ["syndog_test_io.bin", "syndog_test_io.pcap"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            write_trace(&trace, path).unwrap();
            let restored = read_trace(path, site.stub()).unwrap();
            assert_eq!(restored.len(), trace.len());
            let _ = std::fs::remove_file(path);
        }
    }
}
