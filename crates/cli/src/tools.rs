//! `generate`, `inject`, `stats` and `theory`: the trace, telemetry and
//! parameter tools around the detectors.

use std::net::Ipv4Addr;

use syndog::{theory, SynDogConfig};
use syndog_attack::SynFlood;
use syndog_net::Ipv4Net;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_telemetry::{export, ExportFormat};

use crate::options::{read_trace, site_by_name, victim, write_trace, Flags};

pub fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["site", "seed", "out"])?;
    let site = site_by_name(flags.require("site")?)?;
    let seed: u64 = flags.parse_value("seed", 1)?;
    let out = flags.require("out")?;
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = site.generate_trace(&mut rng);
    write_trace(&trace, out)?;
    outln!(
        "generated {} ({} records, {:.0} s, stub {})",
        out,
        trace.len(),
        trace.duration().as_secs_f64(),
        site.stub()
    );
    Ok(())
}

pub fn cmd_inject(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[],
        &["in", "out", "rate", "start", "duration", "seed", "stub"],
    )?;
    let input = flags.require("in")?;
    let out = flags.require("out")?;
    let rate: f64 = flags.parse_value("rate", 50.0)?;
    let start: f64 = flags.parse_value("start", 300.0)?;
    let duration: f64 = flags.parse_value("duration", 600.0)?;
    let seed: u64 = flags.parse_value("seed", 1)?;
    // Direction tags are stored in binary traces; pcap import needs the
    // stub prefix to infer them.
    let stub: Ipv4Net = match flags.get("stub") {
        Some(raw) => raw.parse().map_err(|_| "invalid --stub".to_string())?,
        None if input.ends_with(".pcap") => {
            return Err("pcap input requires --stub to infer directions".into())
        }
        None => Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 32),
    };
    let mut trace = read_trace(input, stub)?;
    let mut rng = SimRng::seed_from_u64(seed);
    // Stamp the canonical attack-tool fingerprint so downstream
    // `--throttle-key fingerprint` runs have something to key on;
    // pcap export shapes the SYN headers to match, and import
    // re-extracts the same key.
    let flood = SynFlood::constant(
        rate,
        SimTime::from_secs_f64(start),
        SimDuration::from_secs_f64(duration),
        victim(),
    )
    .with_fp(syndog_traffic::load::attack_fingerprint().to_bits());
    let flood_trace = flood.generate_trace(&mut rng);
    trace.merge(&flood_trace);
    write_trace(&trace, out)?;
    outln!(
        "injected {} flood SYNs ({rate}/s from t={start}s for {duration}s) into {out}",
        flood_trace.len()
    );
    Ok(())
}

pub fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["in", "format"])?;
    let input = flags.require("in")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("open {input}: {e}"))?;
    let snapshot = export::parse_jsonl(&text).map_err(|e| format!("parse {input}: {e}"))?;
    if let Some(name) = flags.get("format") {
        let format = ExportFormat::parse(name)
            .ok_or_else(|| format!("invalid --format: {name} (prom, jsonl, csv)"))?;
        out!("{}", format.render(&snapshot));
        return Ok(());
    }
    let labels = |pairs: &[(String, String)]| {
        if pairs.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", inner.join(","))
        }
    };
    outln!("{input}:");
    for counter in &snapshot.counters {
        outln!(
            "  {}{}  {}",
            counter.name,
            labels(&counter.labels),
            counter.value
        );
    }
    for gauge in &snapshot.gauges {
        outln!("  {}{}  {}", gauge.name, labels(&gauge.labels), gauge.value);
    }
    for histogram in &snapshot.histograms {
        let mean = if histogram.count == 0 {
            0.0
        } else {
            histogram.sum as f64 / histogram.count as f64
        };
        outln!(
            "  {}{}  count {}, mean {:.1}",
            histogram.name,
            labels(&histogram.labels),
            histogram.count,
            mean
        );
    }
    outln!(
        "  {} events retained ({} overwritten)",
        snapshot.events.len(),
        snapshot.events_dropped
    );
    for event in &snapshot.events {
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        outln!(
            "    [{:>5}] t={:.0}s {} {}",
            event.seq,
            event.t,
            event.kind,
            fields.join(" ")
        );
    }
    Ok(())
}

pub fn cmd_theory(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["k", "a", "c", "t0", "total-rate"])?;
    let k = flags
        .positive("k", f64::MAX)?
        .ok_or("missing required --k")?;
    let a = flags.positive("a", f64::MAX)?.unwrap_or(0.35);
    let c: f64 = flags.parse_value("c", 0.0)?;
    let t0 = flags.positive("t0", f64::MAX)?.unwrap_or(20.0);
    let total_rate: f64 = flags.parse_value("total-rate", 14_000.0)?;
    let f_min = theory::min_detectable_rate(a, c, k, t0);
    outln!("parameters: a = {a}, c = {c}, K = {k}/period, t0 = {t0} s");
    outln!("f_min (Eq. 8)          = {f_min:.2} SYN/s");
    let h = 2.0 * a;
    match theory::threshold_for_delay(3.0, h, c, a) {
        Some(n) => outln!("N for 3-period delay   = {n:.2} (h = 2a = {h})"),
        None => outln!("N for 3-period delay   = undefined (h <= |c - a|)"),
    }
    match theory::max_hidden_stub_networks(total_rate, f_min) {
        Some(stubs) => {
            outln!("max hidden stubs       = {stubs} at aggregate V = {total_rate} SYN/s")
        }
        None => outln!("max hidden stubs       = unbounded (f_min = 0)"),
    }
    let config = SynDogConfig::paper_default()
        .with_offset(a)
        .with_observation_period_secs(t0);
    for rate_multiplier in [1.2, 2.0, 4.0] {
        let rate = f_min * rate_multiplier;
        match theory::expected_delay_periods(&config, rate, k, c) {
            Some(delay) => outln!(
                "expected delay at {rate:>8.2} SYN/s ({rate_multiplier}x f_min) = {delay:.1} periods"
            ),
            None => outln!("expected delay at {rate:>8.2} SYN/s = not detectable"),
        }
    }
    Ok(())
}
