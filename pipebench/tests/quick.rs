//! Every workload at `--quick` size, untraced and traced; the pcap round
//! trip of every workload capture; the traced import against
//! `Trace::read_pcap`; and `BENCHMARK.json` against the code.

use pipebench::capture;
use pipebench::laps::Laps;
use pipebench::run::Options;
use pipebench::traced::{self, Layer, Observed, Recorder, NO_PARENT};
use pipebench::workloads::{Input, Workload};
use pipebench::{run, Report};
use syndog_traffic::Trace;

fn quick(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        quick: true,
        out: None,
    })
}

fn metric_names(report: &Report) -> Vec<&str> {
    report
        .result_metrics()
        .iter()
        .map(|m| m.name.as_str())
        .collect()
}

/// Untraced and traced quick runs pass every check, decide the same, and
/// report exactly the result-line metrics `BENCHMARK.json` declares.
fn quick_runs_agree(workload: Workload) {
    let untraced = quick(workload, false);
    assert!(untraced.correct(), "{}", untraced.text());
    assert_eq!(
        metric_names(&untraced),
        ["items_per_s", "peak_rss_mib", "setup_s"]
    );
    let traced = quick(workload, true);
    assert!(traced.correct(), "{}", traced.text());
    for name in ["traced-equals-untraced", "self-times-cover-wall"] {
        assert!(
            traced.checks.iter().any(|c| c.name == name && c.pass),
            "{name} missing or failed:\n{}",
            traced.text()
        );
    }
    assert_eq!(untraced.decisions, traced.decisions);
    let names = metric_names(&traced);
    for layer in Layer::MEASURED {
        assert!(
            names.contains(&layer.name()),
            "{} not reported",
            layer.name()
        );
    }
    let json = traced.json_line();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn unc_flood_detect_quick() {
    quick_runs_agree(Workload::FloodDetect);
}

#[test]
fn unc_flood_sniff_quick() {
    quick_runs_agree(Workload::FloodSniff);
}

#[test]
fn unc_flashcrowd_detect_quick() {
    quick_runs_agree(Workload::FlashCrowdDetect);
}

#[test]
fn lbl_fleet_counts_quick() {
    quick_runs_agree(Workload::FleetCounts);
}

#[test]
fn workload_captures_survive_a_pcap_round_trip() {
    let size = capture::QUICK_CAPTURE;
    let stub = capture::unc(size.span).stub();
    for (name, trace) in [
        ("flood", capture::flood_trace(3, size)),
        ("flash crowd", capture::flash_crowd_trace(3, size)),
    ] {
        let back = Trace::read_pcap(
            capture::to_pcap(&trace, &mut Laps::default()).as_slice(),
            stub,
        )
        .expect("an exported capture imports");
        assert_eq!(back.len(), trace.len(), "{name}");
        for (i, (a, b)) in trace.records().iter().zip(back.records()).enumerate() {
            assert_eq!(
                (a.time, a.direction, a.kind, a.fp),
                (b.time, b.direction, b.kind, b.fp),
                "{name} record {i}"
            );
        }
    }
}

/// The traced import rebuilds `Trace::read_pcap` from its layers' calls,
/// so the per-layer times describe `read_pcap` only while the two agree.
#[test]
fn traced_import_equals_read_pcap() {
    for workload in [Workload::FloodDetect, Workload::FlashCrowdDetect] {
        let input = Input::build(workload, 5, true, &mut Laps::default());
        let capture = input.capture().expect("a capture workload");
        let expected = Trace::read_pcap(capture.bytes.as_slice(), capture.stub)
            .expect("an exported capture imports");
        let traced = traced::import(
            capture,
            &mut Recorder::default(),
            NO_PARENT,
            &mut Observed::default(),
        );
        assert_eq!(traced.len(), expected.len(), "{}", workload.name());
        let first_difference = traced
            .records()
            .iter()
            .zip(expected.records())
            .position(|(a, b)| a != b);
        assert_eq!(first_difference, None, "{}", workload.name());
        assert_eq!(
            traced.duration(),
            expected.duration(),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_matches_the_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // a copy of the benchmark without the repository around it
    };
    for workload in Workload::ALL {
        let entry = format!(
            "{{\"name\": \"{}\", \"why\": \"{}\"}}",
            workload.name(),
            workload.why()
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for layer in Layer::MEASURED {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", layer.name())),
            "BENCHMARK.json lacks per-layer metric {}",
            layer.name()
        );
    }
}
