//! The one period rule, pinned on every front end. `detect`, `sniff` and
//! `locate` read a capture one record at a time, and close periods the
//! same way: a record behind the period clock counts in the open period
//! (and as late), a binary trace's declared span sets how many periods
//! close, and a pcap's last period is the one holding its latest record.

use std::path::Path;
use std::process::Command;

use proptest::prelude::*;
use syndog::SynDogConfig;
use syndog_net::pcap::{PcapFrame, PcapPacket, PcapReader, PcapWriter};
use syndog_net::Ipv4Net;
use syndog_router::{KeyMode, MitigationPolicy, SynDogAgent};
use syndog_traffic::{RecordReader, Trace};

#[path = "../crates/traffic/tests/corpus/mod.rs"]
mod corpus;

fn syndog(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_syndog"))
        .args(args)
        .output()
        .expect("spawn syndog");
    assert!(
        output.status.success(),
        "syndog {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

/// The detection report: the late count, when there is one, through the
/// alarm total.
fn report(out: &str) -> Vec<String> {
    let lines: Vec<&str> = out.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.ends_with(" late records counted in the open period"))
        .or_else(|| lines.iter().position(|l| l.contains(" periods, K = ")))
        .unwrap_or_else(|| panic!("no detection report: {out}"));
    let end = lines
        .iter()
        .position(|l| l.ends_with(" alarm periods total"))
        .unwrap_or_else(|| panic!("no alarm reported: {out}"));
    lines[start..=end].iter().map(|l| l.to_string()).collect()
}

/// Moves every 50th frame of a pcap 1,000 frames later.
fn out_of_order(pcap: &[u8]) -> Vec<u8> {
    let mut reader = PcapReader::new(pcap).unwrap();
    let packets: Vec<_> = std::iter::from_fn(|| reader.next_packet().unwrap()).collect();
    let n = packets.len();
    let mut due = vec![Vec::new(); n];
    for moved in (49..n).step_by(50) {
        due[(moved + 1_000).min(n - 1)].push(moved);
    }
    let mut writer = PcapWriter::new(Vec::new()).unwrap();
    let mut write = |packet: &PcapPacket| {
        writer
            .write_frame(&PcapFrame {
                ts_sec: packet.ts_sec,
                ts_nanos: packet.ts_nanos,
                data: &packet.data,
            })
            .unwrap();
    };
    for (i, packet) in packets.iter().enumerate() {
        if i % 50 != 49 {
            write(packet);
        }
        for &moved in &due[i] {
            write(&packets[moved]);
        }
    }
    writer.flush().unwrap();
    writer.into_inner()
}

#[test]
fn every_front_end_closes_the_same_periods_on_one_capture() {
    let dir = std::env::temp_dir().join(format!("syndog_one_rule_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (bg, bin, pcap, late) = (
        path("bg.bin"),
        path("flood.bin"),
        path("flood.pcap"),
        path("late.pcap"),
    );
    syndog(&["generate", "--site", "lbl", "--seed", "1", "--out", &bg]);
    // One capture, written once as a binary trace and once as a pcap.
    for copy in [&bin, &pcap] {
        syndog(&["inject", "--in", &bg, "--out", copy, "--rate", "50"]);
    }
    std::fs::write(&late, out_of_order(&std::fs::read(&pcap).unwrap())).unwrap();

    let mut reports = Vec::new();
    for input in [&bin, &pcap, &late] {
        let run = |command: &str| syndog(&[command, "--in", input, "--stub", "128.3.0.0/16"]);
        let detect = report(&run("detect"));
        assert_eq!(report(&run("sniff")), detect, "sniff on {input}");
        let located = run("locate");
        let alarm = located
            .lines()
            .find_map(|l| l.strip_prefix("alarm at period "))
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("locate raised no alarm on {input}: {located}"));
        let first = detect.iter().find(|l| l.starts_with("FLOODING")).unwrap();
        assert!(
            first.starts_with(&format!("FLOODING DETECTED at period {alarm} ")),
            "locate on {input}: {located}"
        );
        reports.push(detect);
    }
    // The declared span closes 180 periods; the pcap's latest record, 182.
    assert!(
        reports[0][0].starts_with("180 periods, K = 9.8,"),
        "{reports:?}"
    );
    assert!(
        reports[1][0].starts_with("182 periods, K = 8.0,"),
        "{reports:?}"
    );
    // Late records count in the open period, on every front end alike,
    // giving the report `sniff` has always printed on this copy.
    assert_eq!(
        reports[2],
        [
            "869 late records counted in the open period",
            "182 periods, K = 8.3, max y_n = 3145.8462, threshold N = 1.05",
            "FLOODING DETECTED at period 15 (t = 320 s), y = 97.321",
            "167 alarm periods total",
        ]
    );
    let _ = std::fs::remove_dir_all(Path::new(&dir));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// On every capture the mutation corpus makes (out of order, with
    /// frames that fail to classify or parse), the streamed record loop
    /// equals the record loop over the collected trace.
    #[test]
    fn streamed_detect_equals_run_trace_over_read_pcap(
        frames in proptest::collection::vec(corpus::arb_frame(), 0..600),
    ) {
        let stub: Ipv4Net = corpus::STUB.parse().unwrap();
        let file = corpus::capture(&frames);
        let armed = || {
            SynDogAgent::new(stub, SynDogConfig::paper_default()).with_mitigation(
                MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint),
            )
        };
        let mut collected = armed();
        collected.run_trace(&Trace::read_pcap(file.as_slice(), stub).unwrap());
        let mut streamed = armed();
        let mut reader = RecordReader::pcap(file.as_slice(), stub).unwrap();
        streamed.run_trace_with(reader.by_ref(), None, |_, _, _| {});
        reader.finish().unwrap();
        prop_assert_eq!(streamed.detections(), collected.detections());
        prop_assert_eq!(streamed.alarms(), collected.alarms());
        prop_assert_eq!(streamed.router().late(), collected.router().late());
        prop_assert_eq!(
            streamed.router().current_period(),
            collected.router().current_period()
        );
        prop_assert_eq!(
            streamed.mitigation().unwrap().stats(),
            collected.mitigation().unwrap().stats()
        );
    }
}
