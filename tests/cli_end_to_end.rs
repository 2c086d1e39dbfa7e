//! Drives the compiled `syndog` binary end to end: generate → inject →
//! detect → locate, through real files and process boundaries.

use std::process::Command;

fn syndog() -> Command {
    Command::new(env!("CARGO_BIN_EXE_syndog"))
}

fn run_ok(args: &[&str]) -> String {
    let output = syndog().args(args).output().expect("spawn syndog");
    assert!(
        output.status.success(),
        "syndog {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

#[test]
fn generate_inject_detect_locate_roundtrip() {
    let dir = std::env::temp_dir();
    let bg = dir.join("syndog_e2e_bg.bin");
    let flooded = dir.join("syndog_e2e_flooded.bin");
    let bg_s = bg.to_str().unwrap();
    let flooded_s = flooded.to_str().unwrap();

    let out = run_ok(&[
        "generate", "--site", "auckland", "--seed", "3", "--out", bg_s,
    ]);
    assert!(out.contains("generated"), "{out}");

    // Clean trace: no detection.
    let out = run_ok(&["detect", "--in", bg_s, "--stub", "130.216.0.0/16"]);
    assert!(out.contains("no flooding detected"), "{out}");

    let out = run_ok(&[
        "inject", "--in", bg_s, "--out", flooded_s, "--rate", "8", "--start", "1500", "--seed", "4",
    ]);
    assert!(out.contains("injected"), "{out}");

    let out = run_ok(&["detect", "--in", flooded_s, "--stub", "130.216.0.0/16"]);
    assert!(out.contains("FLOODING DETECTED"), "{out}");
    // Flood starts at 1500 s = period 75; detection within 2 periods.
    assert!(
        out.contains("at period 75")
            || out.contains("at period 76")
            || out.contains("at period 77"),
        "{out}"
    );

    let out = run_ok(&["locate", "--in", flooded_s, "--stub", "130.216.0.0/16"]);
    assert!(out.contains("suspects"), "{out}");
    assert!(
        out.contains("02:ff:ff:00:de:ad"),
        "default flood MAC named: {out}"
    );

    let _ = std::fs::remove_file(bg);
    let _ = std::fs::remove_file(flooded);
}

#[test]
fn pcap_path_works_through_the_binary() {
    let dir = std::env::temp_dir();
    let pcap = dir.join("syndog_e2e.pcap");
    let pcap_s = pcap.to_str().unwrap();
    run_ok(&["generate", "--site", "lbl", "--seed", "1", "--out", pcap_s]);
    let out = run_ok(&[
        "detect",
        "--in",
        pcap_s,
        "--stub",
        "128.3.0.0/16",
        "--verbose",
    ]);
    assert!(out.contains("no flooding detected"), "{out}");
    assert!(out.contains("period"), "verbose table shown: {out}");
    let _ = std::fs::remove_file(pcap);
}

/// A reader that leaves early (`syndog sniff … | head -1`) ends the
/// output, not the command: with stdout a pipe whose read end is already
/// closed, every write fails, and each subcommand still does its work and
/// exits 0 without a panic.
#[test]
fn a_closed_stdout_pipe_ends_output_quietly() {
    let dir = std::env::temp_dir();
    let bin = dir.join("syndog_e2e_closed_pipe.bin");
    let pcap = dir.join("syndog_e2e_closed_pipe.pcap");
    let (bin_s, pcap_s) = (bin.to_str().unwrap(), pcap.to_str().unwrap());
    let stub = "128.3.0.0/16";
    let runs: [&[&str]; 7] = [
        &["generate", "--site", "lbl", "--seed", "1", "--out", bin_s],
        &["inject", "--in", bin_s, "--out", pcap_s, "--rate", "50"],
        &["sniff", "--in", pcap_s, "--stub", stub, "--verbose"],
        &["detect", "--in", pcap_s, "--stub", stub, "--mitigate"],
        &["locate", "--in", pcap_s, "--stub", stub],
        &["theory", "--k", "100"],
        &["--help"],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = syndog()
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn syndog");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "syndog {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "syndog {args:?}: {stderr}");
    }
    // The commands did their work: the capture was written whole.
    let out = run_ok(&["sniff", "--in", pcap_s, "--stub", stub]);
    assert!(out.contains("FLOODING DETECTED"), "{out}");
    let _ = std::fs::remove_file(bin);
    let _ = std::fs::remove_file(pcap);
}

#[test]
fn theory_subcommand_reports_paper_numbers() {
    let out = run_ok(&["theory", "--k", "2114"]);
    assert!(out.contains("36.99") || out.contains("37.0"), "{out}");
    assert!(out.contains("378"), "{out}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = syndog().arg("frobnicate").output().expect("spawn");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("usage"), "{err}");
    // The threaded `replay` front end is gone; `detect` covers it.
    let err = run_rejected(&["replay", "--in", "s.bin", "--stub", "128.3.0.0/16"]);
    assert!(err.contains("unknown command: replay"), "{err}");
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn missing_required_flag_fails_cleanly() {
    let output = syndog()
        .args(["generate", "--site", "unc"])
        .output()
        .expect("spawn");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("--out"), "{err}");
}

/// Runs `syndog` expecting the usage-error exit code; returns stderr.
fn run_rejected(args: &[&str]) -> String {
    let output = syndog().args(args).output().expect("spawn syndog");
    assert_eq!(
        output.status.code(),
        Some(2),
        "syndog {args:?} should exit 2: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    String::from_utf8(output.stderr).expect("utf8 stderr")
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    // A misspelled --mitigate must not silently run without mitigation.
    let err = run_rejected(&[
        "detect",
        "--in",
        "s.bin",
        "--stub",
        "128.3.0.0/16",
        "--mitgate",
        "on",
    ]);
    assert!(err.contains("unknown flag --mitgate"), "{err}");
    // detect has no sniffer threads, so no queue to size or shed.
    for flag in ["--capacity", "--batch-size"] {
        let err = run_rejected(&[
            "detect",
            "--in",
            "s.bin",
            "--stub",
            "128.3.0.0/16",
            flag,
            "8",
        ]);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

/// The detection report block `detect` and `sniff` share: the
/// `N periods, K = .., max y_n = .., threshold N = ..` summary, the
/// `FLOODING DETECTED` line and the alarm count.
fn report_block(out: &str) -> Vec<&str> {
    let lines: Vec<&str> = out.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains(" periods, K = "))
        .unwrap_or_else(|| panic!("no detection report: {out}"));
    let block = lines[at..(at + 3).min(lines.len())].to_vec();
    assert!(
        block.len() == 3 && block[1].starts_with("FLOODING DETECTED at period "),
        "no alarm reported: {out}"
    );
    block
}

/// The first integer after `prefix` in `text`.
fn number_after(text: &str, prefix: &str) -> u64 {
    let at = text
        .find(prefix)
        .unwrap_or_else(|| panic!("{prefix:?} missing: {text}"));
    text[at + prefix.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn detect_agrees_with_sniff_and_counts_every_record() {
    let dir = std::env::temp_dir();
    let bg = dir.join("syndog_e2e_agree_bg.bin");
    let flooded = dir.join("syndog_e2e_agree_flooded.bin");
    let flooded_pcap = dir.join("syndog_e2e_agree_flooded.pcap");
    let bg_s = bg.to_str().unwrap();
    let out = run_ok(&["generate", "--site", "lbl", "--seed", "2", "--out", bg_s]);
    let background = number_after(&out, "(");
    let mut written = 0;
    // One capture, written once as a binary trace and once as a pcap.
    for copy in [&flooded, &flooded_pcap] {
        let out = run_ok(&[
            "inject",
            "--in",
            bg_s,
            "--out",
            copy.to_str().unwrap(),
            "--rate",
            "20",
            "--start",
            "600",
            "--seed",
            "5",
        ]);
        written = background + number_after(&out, "injected ");
    }

    for input in [&flooded, &flooded_pcap] {
        let stub = ["--in", input.to_str().unwrap(), "--stub", "128.3.0.0/16"];
        let detect_out = run_ok(&[&["detect"], &stub[..]].concat());
        let sniff_out = run_ok(&[&["sniff"], &stub[..]].concat());
        let detect = report_block(&detect_out);
        assert!(detect[2].ends_with(" alarm periods total"), "{detect_out}");
        assert_eq!(
            report_block(&sniff_out),
            detect,
            "sniff and detect close the same periods on {input:?}"
        );

        // Both read the records inside the trace's declared span: the few
        // handshake tails the generator writes past the end of a binary
        // trace are skipped.
        let records = number_after(&sniff_out, "sniffed ");
        assert!(records > 0 && records <= written, "{records} of {written}");
    }

    for file in [bg, flooded, flooded_pcap] {
        let _ = std::fs::remove_file(file);
    }
}

/// Kill/resume at the CLI: `detect --checkpoint` on the head of a capture
/// cut at a period boundary, then `detect --resume` over the whole
/// capture, prints the report of one uninterrupted run — with
/// fingerprint-keyed mitigation armed, its `MITIGATION` lines too, and
/// whether the cut falls before the alarm or while throttles are engaged.
#[test]
fn resumed_detect_equals_an_uninterrupted_run() {
    use syndog_net::pcap::{PcapReader, PcapWriter};

    let dir = std::env::temp_dir().join(format!("syndog_e2e_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (bg, pcap, head, ck) = (
        path("bg.bin"),
        path("flood.pcap"),
        path("head.pcap"),
        path("head.ck"),
    );
    run_ok(&["generate", "--site", "lbl", "--seed", "1", "--out", &bg]);
    run_ok(&["inject", "--in", &bg, "--out", &pcap, "--rate", "50"]);
    let stub = ["--stub", "128.3.0.0/16"];
    let mitigate = ["--mitigate", "--throttle-key", "fingerprint"];
    // The report block and everything after it: the MITIGATION lines.
    let tail = |out: &str| -> Vec<String> {
        let lines: Vec<&str> = out.lines().collect();
        report_block(out);
        let at = lines.iter().position(|l| l.contains(" periods, K = "));
        lines[at.unwrap()..].iter().map(|l| l.to_string()).collect()
    };

    // Cut at 200 s (period 10, before the flood) and at 400 s (period 20,
    // after the alarm at period 15, with throttles engaged).
    let capture = std::fs::read(&pcap).unwrap();
    for cut_secs in [200u32, 400] {
        let mut reader = PcapReader::new(capture.as_slice()).unwrap();
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        while let Some(frame) = reader.next_frame().unwrap() {
            if frame.ts_sec < cut_secs {
                writer.write_frame(&frame).unwrap();
            }
        }
        writer.flush().unwrap();
        std::fs::write(&head, writer.into_inner()).unwrap();

        for armed in [&[][..], &mitigate[..]] {
            let whole = run_ok(&[&["detect", "--in", &pcap], &stub[..], armed].concat());
            let cut = [&["detect", "--in", &head], &stub[..], armed].concat();
            run_ok(&[&cut[..], &["--checkpoint", &ck]].concat());
            let resumed =
                run_ok(&[&["detect", "--in", &pcap, "--resume", &ck], &stub[..]].concat());
            let period = cut_secs / 20;
            assert!(
                resumed.starts_with(&format!("resumed from {ck} at period {period}\n")),
                "{resumed}"
            );
            assert_eq!(
                tail(&resumed),
                tail(&whole),
                "cut at {cut_secs} s, {armed:?}"
            );
            if !armed.is_empty() {
                assert!(
                    tail(&whole)
                        .iter()
                        .any(|l| l.starts_with("MITIGATION engaged")),
                    "{whole}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--faults` is one record pass: `detect` and `detect --mitigate` print
/// one report block and one fault ledger, and the ledger shows the
/// reordering happened.
#[test]
fn faults_mean_the_same_on_every_front_end() {
    let dir = std::env::temp_dir();
    let bg = dir.join("syndog_e2e_faults_bg.bin");
    let flooded = dir.join("syndog_e2e_faults_flooded.bin");
    let bg_s = bg.to_str().unwrap();
    let flooded_s = flooded.to_str().unwrap();
    run_ok(&["generate", "--site", "lbl", "--seed", "1", "--out", bg_s]);
    run_ok(&["inject", "--in", bg_s, "--out", flooded_s, "--rate", "50"]);

    let run = [
        "--in",
        flooded_s,
        "--stub",
        "128.3.0.0/16",
        "--faults",
        "reorder=64,jitter_ms=500,seed=7",
    ];
    let detect = run_ok(&[&["detect"], &run[..]].concat());
    let mitigated = run_ok(&[&["detect"], &run[..], &["--mitigate"]].concat());
    let ledger = |out: &str| {
        out.lines()
            .find(|line| line.starts_with("faults: "))
            .unwrap_or_else(|| panic!("no fault ledger: {out}"))
            .to_owned()
    };
    assert_eq!(
        report_block(&mitigated),
        report_block(&detect),
        "{mitigated}"
    );
    assert_eq!(ledger(&mitigated), ledger(&detect));
    assert!(
        number_after(&ledger(&detect), "duplicated, ") > 0,
        "records were reordered: {detect}"
    );

    let _ = std::fs::remove_file(bg);
    let _ = std::fs::remove_file(flooded);
}

#[test]
fn hostile_numeric_flags_exit_2_naming_the_flag() {
    let stub = ["--in", "s.bin", "--stub", "128.3.0.0/16"];
    // fleet: a huge range is checked against the fleet before expansion.
    let err = run_rejected(&["fleet", "--stubs", "4", "--attackers", "0-3000000000"]);
    assert!(err.contains("--attackers"), "{err}");
    // sniff reads a pcap in fixed batches: it has no queue to size.
    let err = run_rejected(&[&["sniff"], &stub[..], &["--batch-size", "256"]].concat());
    assert!(err.contains("unknown flag --batch-size"), "{err}");
    // detect / serve: the observation period and threshold must be
    // finite and positive.
    let err = run_rejected(&[&["detect"], &stub[..], &["--t0", "inf"]].concat());
    assert!(err.contains("--t0"), "{err}");
    // Below the clock's 1 µs resolution the period would round to zero.
    for command in ["detect", "sniff"] {
        let err = run_rejected(&[&[command], &stub[..], &["--t0", "0.0000001"]].concat());
        assert!(err.contains("--t0"), "{command}: {err}");
    }
    let err = run_rejected(&["serve", "--periods", "2", "--threshold", "0"]);
    assert!(err.contains("--threshold"), "{err}");
    // theory: --k, --a and --t0 must be finite and positive.
    for (flag, value) in [
        ("--t0", "0"),
        ("--t0", "-5"),
        ("--a", "0"),
        ("--a", "-1"),
        ("--k", "nan"),
        ("--k", "inf"),
    ] {
        let args = if flag == "--k" {
            vec!["theory", "--k", value]
        } else {
            vec!["theory", "--k", "2114", flag, value]
        };
        let err = run_rejected(&args);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

/// A 50-byte pcap whose one record claims a 256 MiB body (and holds 10
/// bytes) is a truncated file to every reader, not an allocation; a
/// record that claims 60 bytes and holds 7 reports the 7 it holds.
#[test]
fn oversized_pcap_record_exits_2() {
    let path = std::env::temp_dir().join("syndog_e2e_oversized.pcap");
    let path_s = path.to_str().unwrap();
    for (caplen, held, message) in [
        (1u32 << 28, 10, "need 268435456 bytes, have 10"),
        (60, 7, "need 60 bytes, have 7"),
    ] {
        let header = [0xa1b2_c3d4u32, 0x0004_0002, 0, 0, 65_535, 1];
        let words = header.into_iter().chain([0, 0, caplen, caplen]);
        let mut file: Vec<u8> = words.flat_map(u32::to_le_bytes).collect();
        file.extend_from_slice(&vec![0xab; held]);
        std::fs::write(&path, &file).unwrap();
        for command in ["sniff", "detect"] {
            let err = run_rejected(&[command, "--in", path_s, "--stub", "128.3.0.0/16"]);
            assert!(err.contains("pcap record"), "{command}: {err}");
            assert!(err.contains(message), "{command}: {err}");
        }
    }
    let _ = std::fs::remove_file(path);
}

/// A 22-byte binary trace whose header claims 2^32 records (160 GiB)
/// and holds none is a truncated stream to every front end, not an
/// allocation.
/// A binary trace that cannot be read names the read's own cause, as a
/// pcap does, instead of calling the stream truncated.
#[test]
fn unreadable_binary_trace_names_its_cause() {
    let dir = std::env::temp_dir().join("syndog_e2e_directory.bin");
    let _ = std::fs::create_dir(&dir);
    let cause = std::fs::read(&dir).unwrap_err().to_string();
    for command in ["detect", "sniff", "locate"] {
        let err = run_rejected(&[
            command,
            "--in",
            dir.to_str().unwrap(),
            "--stub",
            "128.3.0.0/16",
        ]);
        assert!(err.contains(&cause), "{command}: {err}");
        assert!(!err.contains("truncated"), "{command}: {err}");
    }
    let _ = std::fs::remove_dir(dir);
}

#[test]
fn hostile_binary_record_count_exits_2() {
    let path = std::env::temp_dir().join("syndog_e2e_hostile.bin");
    let path_s = path.to_str().unwrap();
    let mut file = b"SDTR".to_vec();
    file.extend_from_slice(&2u16.to_be_bytes());
    file.extend_from_slice(&60_000_000u64.to_be_bytes());
    file.extend_from_slice(&(1u64 << 32).to_be_bytes());
    std::fs::write(&path, &file).unwrap();
    for command in ["detect", "sniff", "locate"] {
        let err = run_rejected(&[command, "--in", path_s, "--stub", "128.3.0.0/16"]);
        assert!(err.contains("truncated trace stream"), "{command}: {err}");
    }
    let _ = std::fs::remove_file(path);
}
