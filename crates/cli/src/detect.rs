//! `detect`, `sniff`, `replay` and `locate`: one capture, one stub, and
//! (for the first three) one detection report.

use syndog::SynDogConfig;
use syndog_router::{
    ConcurrentSynDog, OverflowPolicy, PcapSource, SynDogAgent, DEFAULT_BATCH_SIZE,
};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::{Direction, Trace, TraceRecord};

use crate::options::{
    faulted_trace, read_checkpoint, read_trace, stub_flag, write_checkpoint, Flags, RunOptions,
    CHECKPOINT, DETECTOR, FAULTS, MITIGATION, TELEMETRY,
};

/// Largest `--batch-size` or `--capacity`: each sizes an allocation made
/// up front.
const MAX_QUEUE: u32 = 65_536;

/// Runs a capture through one [`SynDogAgent`]: the `--faults` pass, when
/// given, then [`SynDogAgent::run_trace`], where an armed engine judges
/// each record.
pub fn cmd_detect(args: &[String]) -> Result<(), String> {
    let (flags, opts) = RunOptions::parse(
        args,
        &["verbose"],
        &["in", "stub"],
        &[DETECTOR, MITIGATION, TELEMETRY, FAULTS, CHECKPOINT],
    )?;
    let stub = stub_flag(&flags)?;
    let trace = read_trace(flags.require("in")?, stub)?;
    let metrics = opts.metrics(Vec::new())?;
    let (mut agent, trace) = match &opts.resume {
        Some(path) => {
            let agent = SynDogAgent::restore(&read_checkpoint(path)?)
                .map_err(|e| format!("restore {path}: {e}"))?;
            let k = agent.router().current_period();
            println!("resumed from {path} at period {k}");
            let tail = resume_tail(&trace, k, agent.router().period());
            (agent, tail)
        }
        None => (
            SynDogAgent::with_detector(stub, opts.detector.build(opts.config)),
            trace,
        ),
    };
    if let Some(hub) = metrics.hub() {
        agent.set_telemetry(hub);
    }
    // A checkpoint that carried an armed engine restores it whether or
    // not the flag is repeated; `--mitigate` on a fresh run arms one.
    if let (Some(policy), None) = (opts.mitigation(), agent.mitigation()) {
        agent.set_mitigation(policy);
    }
    let (trace, ledger) = faulted_trace(opts.faults, trace, &metrics);
    if let Some(ledger) = ledger {
        println!("faults: {}", ledger.summary());
    }
    agent.run_trace(&trace);
    print!("{}", detection_report(&agent, flags.has("verbose")));
    print_mitigation_report(&agent);
    if let Some(path) = &opts.checkpoint {
        write_checkpoint(&agent.checkpoint(), path)?;
    }
    metrics.finish()
}

/// The part of `trace` a checkpoint taken at period boundary `k` has not
/// yet covered: records from `k * period` on, with the duration
/// shortened to match so the restored forward-only period clock closes
/// exactly the remaining periods.
fn resume_tail(trace: &Trace, k: u64, period: SimDuration) -> Trace {
    let cut = SimTime::ZERO + period * k;
    let records = trace
        .records()
        .iter()
        .filter(|r| r.time >= cut)
        .copied()
        .collect();
    let remaining = trace
        .duration()
        .as_micros()
        .saturating_sub(period.as_micros() * k);
    Trace::from_records(records, SimDuration::from_micros(remaining))
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
            println!(
                "MITIGATION engaged at period {engaged}, {released}: \
                 {} SYNs throttled, {} passed ({} collateral)",
                stats.throttled_syns, stats.passed_syns, stats.collateral_syns
            );
            if let Some(fraction) = stats.attack_drop_fraction() {
                println!(
                    "  attack SYNs: {} offered, {} forwarded ({:.1}% shed)",
                    stats.attack_syns_offered,
                    stats.attack_syns_forwarded,
                    fraction * 100.0
                );
            }
        }
        None => println!("mitigation armed; throttles never engaged"),
    }
}

/// Streams a pcap capture through [`PcapSource`] in `--batch-size` frame
/// batches, without materializing a trace — the same agent as `detect`,
/// closing the same periods. A binary trace goes through
/// [`SynDogAgent::run_trace`], as in `detect`.
pub fn cmd_sniff(args: &[String]) -> Result<(), String> {
    let (flags, opts) = RunOptions::parse(
        args,
        &["verbose"],
        &["in", "stub", "batch-size"],
        &[DETECTOR, TELEMETRY],
    )?;
    let stub = stub_flag(&flags)?;
    let input = flags.require("in")?;
    let batch_size = batch_size_flag(&flags)?;
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
        let source = PcapSource::with_batch_size(file, stub, batch_size)
            .map_err(|e| format!("read {input}: {e}"))?;
        agent
            .run_source(source)
            .map_err(|e| format!("sniff {input}: {e}"))?;
        // A stream declares no end: close the period holding the last
        // frame, as the span `Trace::read_pcap` infers closes it for
        // `detect`.
        if frames_seen(&agent) > 0 {
            agent.close_periods_to(agent.router().current_period() + 1);
        }
    } else {
        agent.run_trace(&read_trace(input, stub)?);
    }
    let router = agent.router();
    println!(
        "sniffed {} frames ({} malformed), batch size {batch_size}",
        frames_seen(&agent),
        router.sniffer(Direction::Outbound).malformed()
            + router.sniffer(Direction::Inbound).malformed(),
    );
    print!("{}", detection_report(&agent, flags.has("verbose")));
    metrics.finish()
}

fn batch_size_flag(flags: &Flags) -> Result<usize, String> {
    Ok(flags
        .positive("batch-size", MAX_QUEUE)?
        .unwrap_or(DEFAULT_BATCH_SIZE))
}

/// Replays a trace through the concurrent deployment: per-direction
/// [`FrameBatch`]es over one bounded channel per interface, lock-free
/// atomic counters, a `flush` barrier at every period boundary.
///
/// [`FrameBatch`]: syndog_net::FrameBatch
pub fn cmd_replay(args: &[String]) -> Result<(), String> {
    let (flags, opts) = RunOptions::parse(
        args,
        &["drop"],
        &["in", "stub", "batch-size", "capacity"],
        &[DETECTOR, TELEMETRY, FAULTS, CHECKPOINT],
    )?;
    let batch_size = batch_size_flag(&flags)?;
    let capacity = flags.positive("capacity", MAX_QUEUE)?.unwrap_or(64);
    let metrics = opts.metrics(Vec::new())?;
    let stub = stub_flag(&flags)?;
    let trace = read_trace(flags.require("in")?, stub)?;
    let policy = if flags.has("drop") {
        OverflowPolicy::Drop
    } else {
        OverflowPolicy::Block
    };
    let (trace, fault_ledger) = faulted_trace(opts.faults, trace, &metrics);
    let mut dog = match &opts.resume {
        Some(path) => {
            let checkpoint = read_checkpoint(path)?;
            let dog = ConcurrentSynDog::resume(&checkpoint, capacity, policy, metrics.hub())
                .map_err(|e| format!("restore {path}: {e}"))?;
            println!(
                "resumed from {path} at period {}",
                dog.agent().router().current_period()
            );
            dog
        }
        None => ConcurrentSynDog::with_detector(
            opts.detector.build(opts.config),
            capacity,
            policy,
            metrics.hub(),
        ),
    };
    let period = dog.agent().router().period();
    let total_periods = trace
        .duration()
        .as_micros()
        .div_ceil(period.as_micros())
        .max(1)
        .max(dog.agent().router().current_period());
    let start_period = dog.agent().router().current_period();

    fn submit_pending(
        dog: &ConcurrentSynDog,
        direction: Direction,
        pending: &mut Vec<TraceRecord>,
    ) -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        let batch = Trace::frame_batch(pending).map_err(|e| format!("synthesize frames: {e}"))?;
        dog.submit_batch(direction, batch);
        pending.clear();
        Ok(())
    }

    let mut pending_out: Vec<TraceRecord> = Vec::with_capacity(batch_size);
    let mut pending_in: Vec<TraceRecord> = Vec::with_capacity(batch_size);
    let mut current_period = start_period;
    for record in trace.records() {
        let p = record.time.period_index(period);
        if p >= total_periods {
            continue; // past the trace's declared span, like run_trace
        }
        if p < start_period {
            continue; // already covered by the resumed checkpoint
        }
        while current_period < p {
            submit_pending(&dog, Direction::Outbound, &mut pending_out)?;
            submit_pending(&dog, Direction::Inbound, &mut pending_in)?;
            dog.flush();
            dog.close_period();
            current_period += 1;
        }
        let pending = match record.direction {
            Direction::Outbound => &mut pending_out,
            Direction::Inbound => &mut pending_in,
        };
        pending.push(*record);
        if pending.len() >= batch_size {
            submit_pending(&dog, record.direction, pending)?;
        }
    }
    submit_pending(&dog, Direction::Outbound, &mut pending_out)?;
    submit_pending(&dog, Direction::Inbound, &mut pending_in)?;
    while current_period < total_periods {
        dog.flush();
        dog.close_period();
        current_period += 1;
    }

    if let Some(ledger) = &fault_ledger {
        println!("faults: {}", ledger.summary());
    }
    if let Some(path) = &opts.checkpoint {
        write_checkpoint(&dog.checkpoint(), path)?;
    }
    let report = detection_report(dog.agent(), false);
    let dropped_frames = dog.dropped_frames();
    let dropped_batches = dog.dropped_batches();
    let (out_frames, in_frames) = dog.shutdown();
    println!(
        "replayed {} periods through 2 sniffer threads: {out_frames} outbound / {in_frames} inbound frames (batch size {batch_size}, capacity {capacity})",
        total_periods - start_period,
    );
    if dropped_batches > 0 {
        println!("overflow shed {dropped_batches} batches / {dropped_frames} frames");
    }
    print!("{report}");
    metrics.finish()
}

/// The detection report `detect`, `sniff` and `replay` print: the
/// optional per-period table, the series summary, and the first alarm.
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

pub fn cmd_locate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["in", "stub"])?;
    let stub = stub_flag(&flags)?;
    let trace = read_trace(flags.require("in")?, stub)?;
    let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
    let locator = agent.locate(&trace);
    let Some(alarm) = agent.first_alarm() else {
        println!("no flooding detected; nothing to locate");
        return Ok(());
    };
    println!(
        "alarm at period {} — arming per-MAC accounting",
        alarm.period
    );
    let suspects = locator.suspects();
    if suspects.is_empty() {
        println!("alarm raised but no spoofed-source SYNs observed afterwards");
        return Ok(());
    }
    println!("suspects (by spoofed-SYN count):");
    for suspect in suspects.iter().take(5) {
        println!(
            "  {}  {:>8} spoofed SYNs  ({:.1}%)",
            suspect.mac,
            suspect.spoofed_syns,
            suspect.share * 100.0
        );
    }
    Ok(())
}
