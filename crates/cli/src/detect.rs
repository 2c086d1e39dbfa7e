//! `detect`, `sniff`, `replay` and `locate`: one capture, one stub, and
//! (for the first three) one detection report.

use syndog::SynDogConfig;
use syndog_router::{
    ConcurrentSynDog, LeafRouter, OverflowPolicy, PcapSource, SourceLocator, SpanRule, SynDogAgent,
    DEFAULT_BATCH_SIZE,
};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::{Direction, Trace, TraceRecord};

use crate::options::{
    read_checkpoint, stream_records, stub_flag, write_checkpoint, Flags, Metrics, RunOptions,
    CHECKPOINT, DETECTOR, FAULTS, MITIGATION, TELEMETRY,
};

/// Largest `--batch-size` or `--capacity`: each sizes an allocation made
/// up front.
const MAX_QUEUE: u32 = 65_536;

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
            println!("resumed from {path} at period {k}");
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
    let from = open_period_start(agent.router());
    let (_, ledger) = stream_records(input, stub, from, opts.faults, &metrics, |records, span| {
        agent.run_trace_with(records, span, |_, _, _| {})
    })?;
    if let Some(ledger) = ledger {
        println!("faults: {}", ledger.summary());
    }
    print!("{}", detection_report(&agent, flags.has("verbose")));
    print_mitigation_report(&agent);
    if let Some(path) = &opts.checkpoint {
        write_checkpoint(&agent.checkpoint(), path)?;
    }
    metrics.finish()
}

/// Where a run's input starts: the start of the router's open period,
/// zero for a fresh run. A resumed run reads the input from there on.
fn open_period_start(router: &LeafRouter) -> SimTime {
    SimTime::ZERO + router.period() * router.current_period()
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
    println!(
        "sniffed {} frames ({} malformed), batch size {DEFAULT_BATCH_SIZE}",
        frames_seen(&agent),
        router.sniffer(Direction::Outbound).malformed()
            + router.sniffer(Direction::Inbound).malformed(),
    );
    print!("{}", detection_report(&agent, flags.has("verbose")));
    metrics.finish()
}

/// Replays a capture through the concurrent deployment: per-direction
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
    let batch_size = flags
        .positive("batch-size", MAX_QUEUE)?
        .unwrap_or(DEFAULT_BATCH_SIZE);
    let capacity = flags.positive("capacity", MAX_QUEUE)?.unwrap_or(64);
    let metrics = opts.metrics(Vec::new())?;
    let stub = stub_flag(&flags)?;
    let input = flags.require("in")?;
    let policy = if flags.has("drop") {
        OverflowPolicy::Drop
    } else {
        OverflowPolicy::Block
    };
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
    let start_period = dog.agent().router().current_period();
    let from = open_period_start(dog.agent().router());
    let streamed = stream_records(input, stub, from, opts.faults, &metrics, |records, span| {
        feed(&mut dog, records, span, batch_size)
    });
    // A capture that fails mid-stream still joins the sniffer threads.
    let fault_ledger = match streamed.and_then(|(fed, ledger)| fed.map(|()| ledger)) {
        Ok(ledger) => ledger,
        Err(e) => {
            dog.shutdown();
            return Err(e);
        }
    };

    if let Some(ledger) = &fault_ledger {
        println!("faults: {}", ledger.summary());
    }
    if let Some(path) = &opts.checkpoint {
        write_checkpoint(&dog.checkpoint(), path)?;
    }
    let report = detection_report(dog.agent(), false);
    let periods = dog.agent().router().current_period() - start_period;
    let dropped_frames = dog.dropped_frames();
    let dropped_batches = dog.dropped_batches();
    let (out_frames, in_frames) = dog.shutdown();
    println!(
        "replayed {periods} periods through 2 sniffer threads: {out_frames} outbound / {in_frames} inbound frames (batch size {batch_size}, capacity {capacity})",
    );
    if dropped_batches > 0 {
        println!("overflow shed {dropped_batches} batches / {dropped_frames} frames");
    }
    print!("{report}");
    metrics.finish()
}

/// Feeds the concurrent sniffers from a record stream under the agent's
/// period rules: records the [`SpanRule`] admits are synthesized into
/// per-direction batches of `batch_size` frames, and before a record
/// closes periods the held batches are submitted, then each period is
/// flushed and closed.
fn feed(
    dog: &mut ConcurrentSynDog,
    records: &mut dyn Iterator<Item = TraceRecord>,
    span: Option<SimDuration>,
    batch_size: usize,
) -> Result<(), String> {
    fn submit(
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

    let mut span = SpanRule::new(span, dog.agent().router().period());
    let mut pending_out: Vec<TraceRecord> = Vec::with_capacity(batch_size);
    let mut pending_in: Vec<TraceRecord> = Vec::with_capacity(batch_size);
    for record in records {
        if !span.admits(record.time) {
            continue;
        }
        let due = dog.periods_due(record.time);
        if due > 0 {
            submit(dog, Direction::Outbound, &mut pending_out)?;
            submit(dog, Direction::Inbound, &mut pending_in)?;
            for _ in 0..due {
                dog.flush();
                dog.close_period();
            }
        }
        let pending = match record.direction {
            Direction::Outbound => &mut pending_out,
            Direction::Inbound => &mut pending_in,
        };
        pending.push(record);
        if pending.len() >= batch_size {
            submit(dog, record.direction, pending)?;
        }
    }
    submit(dog, Direction::Outbound, &mut pending_out)?;
    submit(dog, Direction::Inbound, &mut pending_in)?;
    let last = span.last(dog.agent().router().current_period());
    while dog.agent().router().current_period() < last {
        dog.flush();
        dog.close_period();
    }
    Ok(())
}

/// The detection report `detect`, `sniff` and `replay` print: the
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
