//! `detect`, `sniff` and `locate`: one capture, one stub, and (for the
//! first two) one detection report.

use syndog::SynDogConfig;
use syndog_router::{PcapSource, SourceLocator, SynDogAgent};
use syndog_sim::SimTime;
use syndog_traffic::Direction;

use crate::options::{
    read_checkpoint, stream_records, stub_flag, write_checkpoint, Flags, Metrics, RunOptions,
    CHECKPOINT, DETECTOR, FAULTS, MITIGATION, TELEMETRY,
};

/// Streams a capture through one [`SynDogAgent`]'s record loop,
/// [`SynDogAgent::run_trace_with`]: the `--faults` pass, when given, sits
/// between the reader and the loop, and an armed engine judges each
/// record.
pub fn cmd_detect(args: &[String]) -> Result<(), String> {
    let (flags, opts) = RunOptions::parse(
        args,
        &["verbose"],
        &["in", "stub"],
        &[DETECTOR, MITIGATION, TELEMETRY, FAULTS, CHECKPOINT],
    )?;
    let stub = stub_flag(&flags)?;
    let input = flags.require("in")?;
    let metrics = opts.metrics(Vec::new())?;
    let mut agent = match &opts.resume {
        Some(path) => {
            let agent = SynDogAgent::restore(&read_checkpoint(path)?)
                .map_err(|e| format!("restore {path}: {e}"))?;
            let k = agent.router().current_period();
            outln!("resumed from {path} at period {k}");
            agent
        }
        None => SynDogAgent::with_detector(stub, opts.detector.build(opts.config)),
    };
    if let Some(hub) = metrics.hub() {
        agent.set_telemetry(hub);
    }
    // A checkpoint that carried an armed engine restores it whether or
    // not the flag is repeated; `--mitigate` on a fresh run arms one.
    if let (Some(policy), None) = (opts.mitigation(), agent.mitigation()) {
        agent.set_mitigation(policy);
    }
    // A resumed run reads the input from its open period on.
    let router = agent.router();
    let from = SimTime::ZERO + router.period() * router.current_period();
    let (_, ledger) = stream_records(input, stub, from, opts.faults, &metrics, |records, span| {
        agent.run_trace_with(records, span, |_, _, _| {})
    })?;
    if let Some(ledger) = ledger {
        outln!("faults: {}", ledger.summary());
    }
    out!("{}", detection_report(&agent, flags.has("verbose")));
    print_mitigation_report(&agent);
    if let Some(path) = &opts.checkpoint {
        write_checkpoint(&agent.checkpoint(), path)?;
    }
    metrics.finish()
}

/// The `--mitigate` postscript to the detection report (silent when no
/// engine is armed).
fn print_mitigation_report(agent: &SynDogAgent) {
    let Some(engine) = agent.mitigation() else {
        return;
    };
    let stats = engine.stats();
    match engine.engaged_at() {
        Some(engaged) => {
            let released = engine
                .released_at()
                .map(|p| format!("released at period {p}"))
                .unwrap_or_else(|| "still engaged".into());
            outln!(
                "MITIGATION engaged at period {engaged}, {released}: \
                 {} SYNs throttled, {} passed ({} collateral)",
                stats.throttled_syns,
                stats.passed_syns,
                stats.collateral_syns
            );
            if let Some(fraction) = stats.attack_drop_fraction() {
                outln!(
                    "  attack SYNs: {} offered, {} forwarded ({:.1}% shed)",
                    stats.attack_syns_offered,
                    stats.attack_syns_forwarded,
                    fraction * 100.0
                );
            }
        }
        None => outln!("mitigation armed; throttles never engaged"),
    }
}

/// Streams a pcap through [`PcapSource`], classifying frames without
/// decoding records; the same agent as `detect`, closing the same periods.
/// A binary trace goes through the record loop, as in `detect`.
pub fn cmd_sniff(args: &[String]) -> Result<(), String> {
    let (flags, opts) =
        RunOptions::parse(args, &["verbose"], &["in", "stub"], &[DETECTOR, TELEMETRY])?;
    let stub = stub_flag(&flags)?;
    let input = flags.require("in")?;
    let metrics = opts.metrics(Vec::new())?;
    let mut agent = SynDogAgent::with_detector(stub, opts.detector.build(opts.config));
    if let Some(hub) = metrics.hub() {
        agent.set_telemetry(hub);
    }
    let frames_seen = |agent: &SynDogAgent| {
        let router = agent.router();
        router.sniffer(Direction::Outbound).frames_seen()
            + router.sniffer(Direction::Inbound).frames_seen()
    };
    if input.ends_with(".pcap") {
        let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
        let source = PcapSource::new(file, stub).map_err(|e| format!("read {input}: {e}"))?;
        agent
            .run_source(source)
            .map_err(|e| format!("sniff {input}: {e}"))?;
        // A pcap declares no span: close the period holding the latest
        // frame, as the record loop's span rule does.
        if frames_seen(&agent) > 0 {
            agent.close_periods_to(agent.router().current_period() + 1);
        }
    } else {
        stream_records(
            input,
            stub,
            SimTime::ZERO,
            None,
            &metrics,
            |records, span| agent.run_trace_with(records, span, |_, _, _| {}),
        )?;
    }
    let router = agent.router();
    outln!(
        "sniffed {} frames ({} malformed)",
        frames_seen(&agent),
        router.sniffer(Direction::Outbound).malformed()
            + router.sniffer(Direction::Inbound).malformed(),
    );
    out!("{}", detection_report(&agent, flags.has("verbose")));
    metrics.finish()
}

/// The detection report `detect` and `sniff` print: the
/// optional per-period table, the late-record count when there is one,
/// the series summary, and the first alarm.
fn detection_report(agent: &SynDogAgent, verbose: bool) -> String {
    use std::fmt::Write as _;
    let detections = agent.detections();
    let mut out = String::new();
    if verbose {
        out.push_str("period       delta        K         X_n        y_n  alarm\n");
        for d in detections {
            let _ = writeln!(
                out,
                "{:>6}  {:>10.0}  {:>8.1}  {:>9.4}  {:>9.4}  {}",
                d.period,
                d.delta,
                d.k_average,
                d.x,
                d.statistic,
                if d.alarm { "ALARM" } else { "" }
            );
        }
    }
    let late = agent.router().late();
    if late > 0 {
        let _ = writeln!(out, "{late} late records counted in the open period");
    }
    let _ = writeln!(
        out,
        "{} periods, K = {}, max y_n = {:.4}, threshold N = {}",
        detections.len(),
        agent
            .detector()
            .k_average()
            .map(|k| format!("{k:.1}"))
            .unwrap_or_else(|| "-".into()),
        detections
            .iter()
            .map(|d| d.statistic)
            .fold(0.0f64, f64::max),
        agent.detector().config().threshold,
    );
    match agent.first_alarm() {
        Some(alarm) => {
            let _ = writeln!(
                out,
                "FLOODING DETECTED at period {} (t = {:.0} s), y = {:.3}",
                alarm.period,
                alarm.time.as_secs_f64(),
                alarm.statistic
            );
            let _ = writeln!(out, "{} alarm periods total", agent.alarms().len());
        }
        None => out.push_str("no flooding detected\n"),
    }
    out
}

/// Runs `detect`'s record loop with a [`SourceLocator`] in the hook: the
/// first alarm arms per-MAC accounting of spoofed-source SYNs for every
/// record after it (§4.2.3).
pub fn cmd_locate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["in", "stub"])?;
    let stub = stub_flag(&flags)?;
    let input = flags.require("in")?;
    let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
    let mut locator = SourceLocator::new(stub);
    let metrics = Metrics::default();
    stream_records(
        input,
        stub,
        SimTime::ZERO,
        None,
        &metrics,
        |records, span| {
            agent.run_trace_with(records, span, |agent, record, _| {
                locator.observe_after_alarm(agent, record);
            })
        },
    )?;
    let Some(alarm) = agent.first_alarm() else {
        outln!("no flooding detected; nothing to locate");
        return Ok(());
    };
    outln!(
        "alarm at period {} — arming per-MAC accounting",
        alarm.period
    );
    let suspects = locator.suspects();
    if suspects.is_empty() {
        outln!("alarm raised but no spoofed-source SYNs observed afterwards");
        return Ok(());
    }
    outln!("suspects (by spoofed-SYN count):");
    for suspect in suspects.iter().take(5) {
        outln!(
            "  {}  {:>8} spoofed SYNs  ({:.1}%)",
            suspect.mac,
            suspect.spoofed_syns,
            suspect.share * 100.0
        );
    }
    Ok(())
}
