//! `syndog` — command-line front end for the SYN-dog reproduction.
//!
//! ```text
//! syndog generate --site <lbl|harvard|unc|auckland> [--seed N] --out FILE
//! syndog inject   --in FILE --out FILE --rate R [--start SECS] [--duration SECS] [--seed N]
//! syndog detect   --in FILE --stub CIDR [--detector D] [--mitigate] [--throttle-key K] [--tuned] [--t0 SECS] [--verbose] [--faults SPEC] [--checkpoint FILE] [--resume FILE] [--metrics DEST] [--metrics-format F]
//! syndog sniff    --in FILE --stub CIDR [--detector D] [--batch-size N] [--tuned] [--t0 SECS] [--verbose] [--metrics DEST]
//! syndog replay   --in FILE --stub CIDR [--detector D] [--batch-size N] [--capacity N] [--drop] [--tuned] [--t0 SECS] [--faults SPEC] [--checkpoint FILE] [--resume FILE] [--metrics DEST]
//! syndog locate   --in FILE --stub CIDR
//! syndog fleet    [--detector D] [--stubs N] [--site S] [--site-minutes M] [--attackers I,J,A-B,..] [--total-rate V] [--start SECS] [--attack-duration SECS] [--seed N] [--jobs N] [--counts] [--regions N] [--label-budget N] [--mitigate] [--throttle-key K] [--faults SPEC] [--csv FILE] [--metrics DEST]
//! syndog serve    [--sites S,S,..|--in FILE --stub CIDR] [--plan FILE] [--flood R@START+DURATION] [--periods N] [--t0 SECS] [--seed N] [--detector D] [--threshold N] [--mitigate] [--throttle-key K] [--config FILE] [--checkpoint-dir DIR] [--checkpoint-interval N] [--checkpoint-keep N] [--resume-latest] [--status-json] [--metrics DEST]
//! syndog stats    --in FILE.jsonl [--format <prom|jsonl|csv>]
//! syndog theory   --k KBAR [--a A] [--c C] [--t0 SECS] [--total-rate V]
//! ```
//!
//! `serve` runs the long-lived daemon subsystem ([`syndog_serve`]): one
//! agent per stub fed by a window-addressed supply (a scripted
//! `--plan` over each `--sites` profile, or an `--in` capture replayed
//! in an endless loop, optionally overlaid with a `--flood`), closing
//! periods on sim-time, rotating CRC-checked checkpoint generations
//! into `--checkpoint-dir`, hot-reloading `--config` at period
//! boundaries, and publishing the operator status plane (`/status`,
//! `/status.json`) beside the `--metrics` Prometheus scrape.
//! `--resume-latest` restores the newest fully-valid generation —
//! including mid-attack state such as engaged throttles — and continues
//! exactly where the dead process stopped.
//!
//! `fleet` runs the paper's distributed deployment in one shot: `--stubs`
//! copies of the `--site` workload re-homed into disjoint prefixes
//! (`128.i.0.0/16` for the first 256, /20 blocks beyond), a DDoS campaign
//! of `--total-rate` SYN/s split across the `--attackers` stub indices,
//! one SYN-dog agent per stub on the deterministic parallel runner, and a
//! per-stub report (first alarm, delay, false alarms, suspect MAC) with
//! `IMPLICATED <cidr>` lines and a traceback topology cross-check.
//! `--regions N` attaches the hierarchical correlation tier: the
//! count-level rows stream straight to `--csv` while regional collectors
//! cluster alarm onsets into a reconstructed campaign report. Output is
//! identical for any `--jobs`.
//!
//! Trace files use the pcap format when the name ends in `.pcap`, the
//! compact binary trace format otherwise. `detect` and `locate` run the
//! same agent pipeline the experiments use; `sniff` streams a capture
//! through the batched `FrameSource` pipeline and `replay` drives the
//! concurrent deployment (one sniffer thread per interface) over
//! `FrameBatch` channels.
//!
//! `--metrics DEST` attaches a [`Telemetry`] hub to the run. A socket
//! address (`127.0.0.1:9100`) serves live Prometheus scrapes for the life
//! of the run; anything else is a file path that receives the final
//! snapshot on exit, in the format implied by its extension (`.prom`,
//! `.jsonl`, `.csv`) or forced by `--metrics-format`. `stats` reads a
//! JSON Lines dump back and summarizes or re-renders it.
//!
//! `--mitigate` (on `detect` and `fleet`) closes the paper's detect→act
//! loop at the first mile: an alarm installs keyed token-bucket SYN
//! throttles sized from the stub's learned `K̄`, hysteresis releases them
//! after the attack ends, and the run reports MITIGATION / THROTTLED
//! lines with throttled / passed / collateral accounting.
//!
//! `--detector` (on `detect`, `sniff`, `replay` and `fleet`) selects the
//! per-period detection strategy — `syndog`, `syn-cusum`, `ewma` or
//! `fin-pair` (see [`DetectorKind`]). Checkpoints carry the strategy, so
//! `--resume` rejects the flag along with `--tuned`/`--t0`.
//!
//! `detect` and `replay` additionally take the fault/recovery flags:
//! `--faults SPEC` runs the trace through a seeded [`FaultInjector`]
//! (detect) or a record-level fault pass (replay); `--checkpoint FILE`
//! writes a versioned, CRC-checked [`Checkpoint`] of the detector and
//! router state after the run; `--resume FILE` restores one and
//! continues the input trace from the checkpoint's period boundary
//! without re-learning `K̄`.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::process::ExitCode;
use std::sync::Arc;

use syndog::{theory, DetectorKind, SynDogConfig};
use syndog_attack::SynFlood;
use syndog_net::Ipv4Net;
use syndog_router::{
    Checkpoint, CollectorConfig, ConcurrentSynDog, FaultInjector, FaultSpec, FaultTelemetry, Fleet,
    KeyMode, MitigationPolicy, OverflowPolicy, PcapSource, Scenario, SourceLocator, SynDogAgent,
    TraceSource, DEFAULT_BATCH_SIZE,
};
use syndog_serve::{
    FloodOverlay, LoopingTraceSupply, PlanSupply, ServeConfig, ServeDaemon, ServeSpec,
    StubSpec as ServeStubSpec,
};
use syndog_sim::par::Parallelism;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_telemetry::{export, ExportFormat, LabelBudget, ScrapeServer, Telemetry};
use syndog_traffic::{Direction, SiteProfile, Trace, TraceRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "inject" => cmd_inject(rest),
        "detect" => cmd_detect(rest),
        "sniff" => cmd_sniff(rest),
        "replay" => cmd_replay(rest),
        "locate" => cmd_locate(rest),
        "fleet" => cmd_fleet(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "theory" => cmd_theory(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
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

const USAGE: &str = "usage:
  syndog generate --site <lbl|harvard|unc|auckland> [--seed N] --out FILE
  syndog inject   --in FILE --out FILE --rate R [--start SECS] [--duration SECS] [--seed N]
  syndog detect   --in FILE --stub CIDR [--detector D] [--mitigate] [--throttle-key K] [--tuned] [--t0 SECS] [--verbose] [--faults SPEC] [--checkpoint FILE] [--resume FILE] [--metrics DEST] [--metrics-format F]
  syndog sniff    --in FILE --stub CIDR [--detector D] [--batch-size N] [--tuned] [--t0 SECS] [--verbose] [--metrics DEST] [--metrics-format F]
  syndog replay   --in FILE --stub CIDR [--detector D] [--batch-size N] [--capacity N] [--drop] [--tuned] [--t0 SECS] [--faults SPEC] [--checkpoint FILE] [--resume FILE] [--metrics DEST] [--metrics-format F]
  syndog locate   --in FILE --stub CIDR
  syndog fleet    [--detector D] [--stubs N] [--site S] [--site-minutes M] [--attackers I,J,A-B,..] [--total-rate V] [--start SECS] [--attack-duration SECS] [--seed N] [--jobs N] [--counts] [--regions N] [--label-budget N] [--mitigate] [--throttle-key K] [--faults SPEC] [--csv FILE] [--metrics DEST] [--metrics-format F]
  syndog serve    [--sites S,S,..|--in FILE --stub CIDR] [--plan FILE] [--flood R@START+DURATION] [--periods N] [--t0 SECS] [--seed N] [--detector D] [--threshold N] [--mitigate] [--throttle-key K] [--config FILE] [--checkpoint-dir DIR] [--checkpoint-interval N] [--checkpoint-keep N] [--resume-latest] [--status-json] [--metrics DEST]
  syndog stats    --in FILE.jsonl [--format <prom|jsonl|csv>]
  syndog theory   --k KBAR [--a A] [--c C] [--t0 SECS] [--total-rate V]

FILE format: pcap when the name ends in .pcap, binary trace otherwise.
sniff streams the capture through the batched FrameSource pipeline;
replay drives the concurrent deployment with FrameBatch channels, one
sniffer thread per interface (--drop sheds batches on overflow instead
of blocking).

--metrics DEST records detector telemetry: a socket address (host:port)
serves live Prometheus scrapes during the run; any other DEST is a file
that receives the final snapshot on exit. The format follows the file
extension (.prom, .jsonl, .csv) unless --metrics-format overrides it.
stats reads a .jsonl snapshot back and summarizes it (or re-renders it
with --format).

--detector D (detect, sniff, replay, fleet) selects the per-period
detection strategy: syndog (the paper's normalized SYN-SYN/ACK CUSUM,
the default), syn-cusum (CUSUM on the SYN count's excursion over its
own recursive mean — no reverse path needed), ewma (adaptive-threshold
EWMA with a two-period persistence rule), or fin-pair (SYN vs FIN/RST
pairing; needs the record-level paths, count-level runs see zero
closes). All four share the same config, checkpoint envelope, and
report shape.

detect and replay accept fault/recovery flags. --faults SPEC injects
seeded, reproducible faults into the run; SPEC is comma-separated
key=value pairs from drop, dup, truncate, corrupt (probabilities in
[0,1]), reorder (window size), jitter_ms, and seed — for example
--faults drop=0.05,reorder=8,seed=7. The run prints a fault ledger
summary. --checkpoint FILE writes a versioned, CRC-checked snapshot of
the detector and router state after the run; --resume FILE restores
one and continues the input trace from the checkpoint's period
boundary, keeping the learned K. The checkpoint carries the detector
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

/// Minimal `--flag value` / `--switch` argument map.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args` against a subcommand's declared `switches` (bare
    /// flags) and `values` (flags that take one argument); any other
    /// `--name` is an error, so a typo never silently changes a run.
    fn parse(args: &[String], switches: &[&str], values: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument: {arg}"));
            };
            if switches.contains(&name) {
                pairs.push((name.to_string(), None));
            } else if values.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                pairs.push((name.to_string(), Some(value.clone())));
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid --{name}: {raw}")),
        }
    }
}

fn site_by_name(name: &str) -> Result<SiteProfile, String> {
    match name.to_lowercase().as_str() {
        "lbl" => Ok(SiteProfile::lbl()),
        "harvard" => Ok(SiteProfile::harvard()),
        "unc" => Ok(SiteProfile::unc()),
        "auckland" => Ok(SiteProfile::auckland()),
        other => Err(format!(
            "unknown site: {other} (lbl, harvard, unc, auckland)"
        )),
    }
}

fn write_trace(trace: &Trace, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    if path.ends_with(".pcap") {
        trace
            .write_pcap(&mut writer)
            .map_err(|e| format!("write {path}: {e}"))
    } else {
        trace
            .write_binary(&mut writer)
            .map_err(|e| format!("write {path}: {e}"))
    }
}

fn read_trace(path: &str, stub: Ipv4Net) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    if path.ends_with(".pcap") {
        Trace::read_pcap(reader, stub).map_err(|e| format!("read {path}: {e}"))
    } else {
        Trace::read_binary(reader).map_err(|e| format!("read {path}: {e}"))
    }
}

fn stub_flag(flags: &Flags) -> Result<Ipv4Net, String> {
    flags
        .require("stub")?
        .parse()
        .map_err(|_| "invalid --stub CIDR (e.g. 152.2.0.0/16)".to_string())
}

fn victim() -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::new(199, 0, 0, 80), 80)
}

/// Parses `--detector NAME` into a strategy; absent means the paper's.
fn detector_flag(flags: &Flags) -> Result<DetectorKind, String> {
    match flags.get("detector") {
        None => Ok(DetectorKind::Syndog),
        Some(raw) => raw.parse().map_err(|e| format!("--detector: {e}")),
    }
}

/// Parses `--faults SPEC` (`None` when the flag is absent).
fn faults_flag(flags: &Flags) -> Result<Option<FaultSpec>, String> {
    match flags.get("faults") {
        None => Ok(None),
        Some(raw) => FaultSpec::parse(raw).map(Some),
    }
}

fn read_checkpoint(path: &str) -> Result<Checkpoint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
    Checkpoint::from_json(&text).map_err(|e| format!("read checkpoint {path}: {e}"))
}

fn write_checkpoint(checkpoint: &Checkpoint, path: &str) -> Result<(), String> {
    // Atomic (temp + rename): a crash mid-write can never leave a
    // half-written file where a good checkpoint used to be.
    checkpoint
        .write_atomic(std::path::Path::new(path))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote checkpoint to {path}");
    Ok(())
}

/// A checkpoint restores onto the period boundary `k` it was captured
/// at; `--resume` always rejects the detector-shape flags because the
/// checkpoint itself carries the configuration the restored run must
/// keep using.
fn reject_config_flags_on_resume(flags: &Flags) -> Result<(), String> {
    if flags.has("tuned") || flags.get("t0").is_some() || flags.get("detector").is_some() {
        return Err(
            "--resume restores the checkpoint's detector (strategy and config); \
             drop --tuned/--t0/--detector"
                .into(),
        );
    }
    Ok(())
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

/// Where `--metrics DEST` sends telemetry: a socket address serves live
/// Prometheus scrapes for the life of the run, anything else is a file
/// path written once on exit.
enum MetricsSink {
    Serve(ScrapeServer),
    File { path: String, format: ExportFormat },
}

/// Resolves `--metrics` / `--metrics-format` into a sink (and, for
/// address destinations, starts serving immediately). `None` when the
/// run is untelemetered.
fn metrics_sink(flags: &Flags, hub: &Arc<Telemetry>) -> Result<Option<MetricsSink>, String> {
    let Some(dest) = flags.get("metrics") else {
        if flags.get("metrics-format").is_some() {
            return Err("--metrics-format requires --metrics".into());
        }
        return Ok(None);
    };
    let format = match flags.get("metrics-format") {
        Some(name) => ExportFormat::parse(name)
            .ok_or_else(|| format!("invalid --metrics-format: {name} (prom, jsonl, csv)"))?,
        None => ExportFormat::from_path(dest).unwrap_or_default(),
    };
    if dest.parse::<std::net::SocketAddr>().is_ok() {
        let server = ScrapeServer::bind(Arc::clone(hub), dest)
            .map_err(|e| format!("bind metrics endpoint {dest}: {e}"))?;
        println!("serving metrics at http://{}/metrics", server.addr());
        Ok(Some(MetricsSink::Serve(server)))
    } else {
        Ok(Some(MetricsSink::File {
            path: dest.to_string(),
            format,
        }))
    }
}

impl MetricsSink {
    /// Dumps the final snapshot. File sinks are written here; the scrape
    /// server has been answering with live state all along, so the run's
    /// end just reports where it was.
    fn finish(self, hub: &Telemetry) -> Result<(), String> {
        match self {
            MetricsSink::Serve(server) => {
                println!("metrics served at http://{}/metrics", server.addr());
                Ok(())
            }
            MetricsSink::File { path, format } => {
                std::fs::write(&path, format.render(&hub.snapshot()))
                    .map_err(|e| format!("write {path}: {e}"))?;
                println!("wrote metrics snapshot to {path}");
                Ok(())
            }
        }
    }
}

/// One run's telemetry attachment: the hub every instrumented component
/// registers into plus the sink the `--metrics` flags resolved to. This
/// is the plumbing `detect`, `sniff`, `replay` and `fleet` all share —
/// build it from the flags up front, attach [`Metrics::hub`] when
/// [`Metrics::enabled`], and [`Metrics::finish`] on the way out.
struct Metrics {
    hub: Arc<Telemetry>,
    sink: Option<MetricsSink>,
}

impl Metrics {
    fn from_flags(flags: &Flags) -> Result<Metrics, String> {
        let hub = Arc::new(Telemetry::new());
        let sink = metrics_sink(flags, &hub)?;
        Ok(Metrics { hub, sink })
    }

    /// Whether `--metrics` was given (and components should attach).
    fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The shared hub (only worth attaching when [`Metrics::enabled`]).
    fn hub(&self) -> &Arc<Telemetry> {
        &self.hub
    }

    /// A clone of the hub for components that take ownership, `None`
    /// when the run is untelemetered.
    fn attachment(&self) -> Option<Arc<Telemetry>> {
        self.enabled().then(|| Arc::clone(&self.hub))
    }

    /// Flushes the sink (a no-op without `--metrics`).
    fn finish(self) -> Result<(), String> {
        match self.sink {
            Some(sink) => sink.finish(&self.hub),
            None => Ok(()),
        }
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["site", "seed", "out"])?;
    let site = site_by_name(flags.require("site")?)?;
    let seed: u64 = flags.parse_value("seed", 1)?;
    let out = flags.require("out")?;
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = site.generate_trace(&mut rng);
    write_trace(&trace, out)?;
    println!(
        "generated {} ({} records, {:.0} s, stub {})",
        out,
        trace.len(),
        trace.duration().as_secs_f64(),
        site.stub()
    );
    Ok(())
}

fn cmd_inject(args: &[String]) -> Result<(), String> {
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
    println!(
        "injected {} flood SYNs ({rate}/s from t={start}s for {duration}s) into {out}",
        flood_trace.len()
    );
    Ok(())
}

fn detect_config(flags: &Flags) -> Result<SynDogConfig, String> {
    let config = if flags.has("tuned") {
        SynDogConfig::tuned_site_specific()
    } else {
        SynDogConfig::paper_default()
    };
    let t0: f64 = flags.parse_value("t0", config.observation_period_secs)?;
    if t0 <= 0.0 {
        return Err("--t0 must be positive".into());
    }
    Ok(config.with_observation_period_secs(t0))
}

fn throttle_key_flag(flags: &Flags) -> Result<KeyMode, String> {
    match flags.get("throttle-key") {
        Some(raw) => raw.parse(),
        None => Ok(KeyMode::Mac),
    }
}

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["tuned", "verbose", "mitigate"],
        &[
            "in",
            "stub",
            "detector",
            "throttle-key",
            "t0",
            "faults",
            "checkpoint",
            "resume",
            "metrics",
            "metrics-format",
        ],
    )?;
    let stub = stub_flag(&flags)?;
    let trace = read_trace(flags.require("in")?, stub)?;
    let faults = faults_flag(&flags)?;
    let metrics = Metrics::from_flags(&flags)?;
    let (mut agent, trace) = match flags.get("resume") {
        Some(path) => {
            reject_config_flags_on_resume(&flags)?;
            let checkpoint = read_checkpoint(path)?;
            let agent =
                SynDogAgent::restore(&checkpoint).map_err(|e| format!("restore {path}: {e}"))?;
            let k = agent.router().current_period();
            println!("resumed from {path} at period {k}");
            let tail = resume_tail(&trace, k, agent.router().period());
            (agent, tail)
        }
        None => {
            let detector = detector_flag(&flags)?.build(detect_config(&flags)?);
            (SynDogAgent::with_detector(stub, detector), trace)
        }
    };
    let config = *agent.detector().config();
    if metrics.enabled() {
        agent.set_telemetry(Arc::clone(metrics.hub()));
    }
    // A checkpoint that carried an armed engine restores it whether or
    // not the flag is repeated; `--mitigate` on a fresh run arms one.
    if flags.has("mitigate") && agent.mitigation().is_none() {
        agent.set_mitigation(
            MitigationPolicy::paper_default().with_key_mode(throttle_key_flag(&flags)?),
        );
    }
    if agent.mitigation().is_some() {
        // The engine judges individual records, so the mitigated run
        // streams record by record; faults become the same record-level
        // pass `replay` uses. Periods square off to the trace's declared
        // span exactly as LeafRouter::ingest does for batch runs.
        let trace = match faults {
            Some(spec) => {
                let (faulted, ledger) = spec.apply_to_trace(&trace);
                if metrics.enabled() {
                    FaultTelemetry::new(metrics.hub()).sync(&ledger);
                }
                println!("faults: {}", ledger.summary());
                faulted
            }
            None => trace,
        };
        let period = agent.router().period();
        let last = agent.router().current_period()
            + trace.duration().as_micros().div_ceil(period.as_micros());
        for record in trace.records() {
            if record.time.period_index(period) >= last {
                continue;
            }
            agent.filter_record(record);
        }
        agent.close_periods_to(last);
    } else {
        match faults {
            Some(spec) => {
                let mut injector = FaultInjector::new(TraceSource::new(&trace), spec);
                if metrics.enabled() {
                    injector = injector.with_telemetry(FaultTelemetry::new(metrics.hub()));
                }
                agent
                    .run_source(&mut injector)
                    .map_err(|e| format!("detect: {e}"))?;
                println!("faults: {}", injector.ledger().summary());
            }
            None => {
                agent.run_trace(&trace);
            }
        }
    }
    print_detection_report(&agent, &config, flags.has("verbose"));
    print_mitigation_report(&agent);
    if let Some(path) = flags.get("checkpoint") {
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

/// Parses `--batch-size` with the pipeline default and a positivity check.
fn batch_size_flag(flags: &Flags) -> Result<usize, String> {
    let batch_size: usize = flags.parse_value("batch-size", DEFAULT_BATCH_SIZE)?;
    if batch_size == 0 {
        return Err("--batch-size must be positive".into());
    }
    Ok(batch_size)
}

/// Streams a capture through the batched [`FrameSource`] pipeline — the
/// same agent as `detect`, but fed by `PcapSource` (pcap input, read
/// incrementally in `--batch-size` frame batches) or `TraceSource`
/// (binary input) instead of a fully materialized trace.
///
/// [`FrameSource`]: syndog_router::FrameSource
fn cmd_sniff(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["tuned", "verbose"],
        &[
            "in",
            "stub",
            "detector",
            "batch-size",
            "t0",
            "metrics",
            "metrics-format",
        ],
    )?;
    let stub = stub_flag(&flags)?;
    let input = flags.require("in")?;
    let batch_size = batch_size_flag(&flags)?;
    let config = detect_config(&flags)?;
    let metrics = Metrics::from_flags(&flags)?;
    let mut agent = SynDogAgent::with_detector(stub, detector_flag(&flags)?.build(config));
    if metrics.enabled() {
        agent.set_telemetry(Arc::clone(metrics.hub()));
    }
    if input.ends_with(".pcap") {
        let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
        let source = PcapSource::with_batch_size(std::io::BufReader::new(file), stub, batch_size)
            .map_err(|e| format!("read {input}: {e}"))?;
        agent
            .run_source(source)
            .map_err(|e| format!("sniff {input}: {e}"))?;
    } else {
        let trace = read_trace(input, stub)?;
        agent
            .run_source(TraceSource::with_batch_size(&trace, batch_size))
            .map_err(|e| format!("sniff {input}: {e}"))?;
    }
    let router = agent.router();
    println!(
        "sniffed {} frames ({} malformed), batch size {batch_size}",
        router.sniffer(Direction::Outbound).frames_seen()
            + router.sniffer(Direction::Inbound).frames_seen(),
        router.sniffer(Direction::Outbound).malformed()
            + router.sniffer(Direction::Inbound).malformed(),
    );
    print_detection_report(&agent, &config, flags.has("verbose"));
    metrics.finish()
}

/// Replays a trace through the concurrent deployment: per-direction
/// [`FrameBatch`]es over one bounded channel per interface, lock-free
/// atomic counters, a `flush` barrier at every period boundary.
///
/// [`FrameBatch`]: syndog_net::FrameBatch
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["tuned", "drop"],
        &[
            "in",
            "stub",
            "detector",
            "batch-size",
            "capacity",
            "t0",
            "faults",
            "checkpoint",
            "resume",
            "metrics",
            "metrics-format",
        ],
    )?;
    let metrics = Metrics::from_flags(&flags)?;
    let stub = stub_flag(&flags)?;
    let trace = read_trace(flags.require("in")?, stub)?;
    let batch_size = batch_size_flag(&flags)?;
    let capacity: usize = flags.parse_value("capacity", 64)?;
    if capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    let policy = if flags.has("drop") {
        OverflowPolicy::Drop
    } else {
        OverflowPolicy::Block
    };
    let (trace, fault_ledger) = match faults_flag(&flags)? {
        Some(spec) => {
            let (faulted, ledger) = spec.apply_to_trace(&trace);
            if metrics.enabled() {
                FaultTelemetry::new(metrics.hub()).sync(&ledger);
            }
            (faulted, Some(ledger))
        }
        None => (trace, None),
    };
    let mut dog = match flags.get("resume") {
        Some(path) => {
            reject_config_flags_on_resume(&flags)?;
            let checkpoint = read_checkpoint(path)?;
            let dog = ConcurrentSynDog::resume(&checkpoint, capacity, policy, metrics.attachment())
                .map_err(|e| format!("restore {path}: {e}"))?;
            println!(
                "resumed from {path} at period {}",
                dog.router().current_period()
            );
            dog
        }
        None => {
            let detector = detector_flag(&flags)?.build(detect_config(&flags)?);
            ConcurrentSynDog::with_detector(detector, capacity, policy, metrics.attachment())
        }
    };
    let period = dog.router().period();
    let total_periods = trace
        .duration()
        .as_micros()
        .div_ceil(period.as_micros())
        .max(1)
        .max(dog.router().current_period());
    let start_period = dog.router().current_period();

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
        let p = record.time.period_index(period).min(total_periods);
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
        if p >= total_periods {
            break; // past the trace's declared span, like run_trace
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
    if let Some(path) = flags.get("checkpoint") {
        write_checkpoint(&dog.checkpoint(), path)?;
    }
    let alarms = dog.detections().iter().filter(|d| d.alarm).count();
    let first_alarm = dog.detections().iter().find(|d| d.alarm).copied();
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
    match first_alarm {
        Some(first) => println!(
            "FLOODING DETECTED at period {} (y = {:.3}); {alarms} alarm periods total",
            first.period, first.statistic
        ),
        None => println!("no flooding detected"),
    }
    metrics.finish()
}

/// The shared `detect` / `sniff` result report.
fn print_detection_report(agent: &SynDogAgent, config: &SynDogConfig, verbose: bool) {
    if verbose {
        println!("period       delta        K         X_n        y_n  alarm");
        for d in agent.detections() {
            println!(
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
    println!(
        "{} periods, K = {}, max y_n = {:.4}, threshold N = {}",
        agent.detections().len(),
        agent
            .detector()
            .k_average()
            .map(|k| format!("{k:.1}"))
            .unwrap_or_else(|| "-".into()),
        agent
            .detections()
            .iter()
            .map(|d| d.statistic)
            .fold(0.0f64, f64::max),
        config.threshold,
    );
    match agent.first_alarm() {
        Some(alarm) => {
            println!(
                "FLOODING DETECTED at period {} (t = {:.0} s), y = {:.3}",
                alarm.period,
                alarm.time.as_secs_f64(),
                alarm.statistic
            );
            println!("{} alarm periods total", agent.alarms().len());
        }
        None => println!("no flooding detected"),
    }
}

fn cmd_locate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["in", "stub"])?;
    let stub = stub_flag(&flags)?;
    let trace = read_trace(flags.require("in")?, stub)?;
    let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
    let mut locator = SourceLocator::new(stub);
    for record in trace.records() {
        agent.observe_record(record);
        if !locator.is_armed() {
            if let Some(alarm) = agent.first_alarm() {
                locator.arm();
                println!(
                    "alarm at period {} — arming per-MAC accounting",
                    alarm.period
                );
            }
        }
        locator.observe(record);
    }
    if !locator.is_armed() {
        println!("no flooding detected; nothing to locate");
        return Ok(());
    }
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

/// Reads a JSON Lines metrics dump (written by `--metrics FILE.jsonl`)
/// and prints a human summary, or re-renders it in another exporter
/// format with `--format`.
/// Parses `--attackers` as comma-separated stub indices and inclusive
/// `A-B` index ranges (so a 100-slave campaign over a 2,000-stub fleet
/// doesn't need a 100-entry list).
fn parse_attackers(raw: &str, stubs: usize) -> Result<Vec<usize>, String> {
    let mut indices = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        let bad = || format!("invalid --attackers entry: {part}");
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().map_err(|_| bad())?;
                let hi: usize = hi.trim().parse().map_err(|_| bad())?;
                if lo > hi {
                    return Err(format!("empty --attackers range: {part}"));
                }
                indices.extend(lo..=hi);
            }
            None => indices.push(part.parse().map_err(|_| bad())?),
        }
    }
    if let Some(&bad) = indices.iter().find(|&&i| i >= stubs) {
        return Err(format!(
            "--attackers index {bad} outside the {stubs}-stub fleet"
        ));
    }
    Ok(indices)
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["counts", "mitigate"],
        &[
            "detector",
            "stubs",
            "site",
            "site-minutes",
            "attackers",
            "total-rate",
            "start",
            "attack-duration",
            "seed",
            "jobs",
            "regions",
            "label-budget",
            "throttle-key",
            "faults",
            "csv",
            "metrics",
            "metrics-format",
        ],
    )?;
    let stubs: usize = flags.parse_value("stubs", 4)?;
    if stubs == 0 || stubs > 16_384 {
        return Err("--stubs must be in 1..=16384".into());
    }
    let regions: Option<usize> = match flags.get("regions") {
        Some(raw) => {
            let regions: usize = raw
                .parse()
                .map_err(|_| format!("invalid --regions: {raw}"))?;
            if regions == 0 {
                return Err("--regions must be positive".into());
            }
            Some(regions)
        }
        None => None,
    };
    // The correlated runner is count-level by construction; trace-level
    // runs materialize full record streams and stay capped.
    let counts = flags.has("counts") || regions.is_some();
    if stubs > 255 && !counts {
        return Err(
            "trace-level fleets are capped at 255 stubs; add --counts (or --regions) to scale"
                .into(),
        );
    }
    let mut template = site_by_name(flags.get("site").unwrap_or("auckland"))?;
    if let Some(raw) = flags.get("site-minutes") {
        let minutes: f64 = raw
            .parse()
            .map_err(|_| format!("invalid --site-minutes: {raw}"))?;
        if minutes <= 0.0 {
            return Err("--site-minutes must be positive".into());
        }
        template = template.with_duration(SimDuration::from_secs_f64(minutes * 60.0));
    }
    let attacked = parse_attackers(flags.get("attackers").unwrap_or("0"), stubs)?;
    let total_rate: f64 = flags.parse_value("total-rate", 20.0)?;
    if total_rate <= 0.0 {
        return Err("--total-rate must be positive".into());
    }
    let start: f64 = flags.parse_value("start", 600.0)?;
    let attack_duration: f64 = flags.parse_value("attack-duration", 600.0)?;
    let seed: u64 = flags.parse_value("seed", 1)?;
    let mut scenario = Scenario::distributed_flood(
        "fleet",
        &template,
        stubs,
        &attacked,
        total_rate,
        SimTime::from_secs_f64(start),
        victim(),
        SynDogConfig::paper_default(),
        seed,
    );
    for stub in &mut scenario.stubs {
        if let Some(flood) = &mut stub.attack {
            flood.duration = SimDuration::from_secs_f64(attack_duration);
        }
    }
    scenario = scenario.with_detector(detector_flag(&flags)?);
    if let Some(faults) = faults_flag(&flags)? {
        scenario = scenario.with_faults(faults);
    }
    if flags.has("mitigate") {
        scenario = scenario.with_mitigation(
            MitigationPolicy::paper_default().with_key_mode(throttle_key_flag(&flags)?),
        );
    }
    let mut fleet = Fleet::new(scenario);
    if let Some(raw) = flags.get("jobs") {
        let jobs: usize = raw.parse().map_err(|_| format!("invalid --jobs: {raw}"))?;
        fleet = fleet.with_parallelism(Parallelism::Fixed(jobs));
    }
    let metrics = Metrics::from_flags(&flags)?;
    let label_budget: Option<usize> = match flags.get("label-budget") {
        Some(raw) => {
            let sets: usize = raw
                .parse()
                .map_err(|_| format!("invalid --label-budget: {raw}"))?;
            if sets == 0 {
                return Err("--label-budget must be positive".into());
            }
            if !metrics.enabled() {
                return Err("--label-budget needs --metrics".into());
            }
            Some(sets)
        }
        None => None,
    };
    if metrics.enabled() {
        fleet = match label_budget {
            Some(sets) => {
                fleet.with_telemetry_budget(Arc::clone(metrics.hub()), LabelBudget::new(sets))
            }
            None => fleet.with_telemetry(Arc::clone(metrics.hub())),
        };
    }
    if let Some(regions) = regions {
        // Internet-scale path: stream rows (spilling to --csv as stubs
        // complete), correlate alarm onsets, print the campaign report
        // instead of a per-stub table.
        let config = CollectorConfig::with_regions(regions);
        let mut csv_file = match flags.get("csv") {
            Some(path) => Some(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
            )),
            None => None,
        };
        let run = fleet
            .run_counts_correlated(
                &config,
                csv_file.as_mut().map(|f| f as &mut dyn std::io::Write),
            )
            .map_err(|e| format!("correlated fleet run: {e}"))?;
        print!("{}", run.render());
        if let Some(mut file) = csv_file {
            use std::io::Write as _;
            file.flush().map_err(|e| format!("flush fleet CSV: {e}"))?;
            println!("wrote fleet report to {}", flags.get("csv").expect("csv"));
        }
        return metrics.finish();
    }
    let report = if counts {
        fleet.run_counts()
    } else {
        fleet.run()
    };
    print!("{}", report.render());
    if let Some(path) = flags.get("csv") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        report
            .write_csv(&mut out)
            .and_then(|()| {
                use std::io::Write as _;
                out.flush()
            })
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote fleet report to {path}");
    }
    metrics.finish()
}

/// Parses `--flood R@START+DURATION` (SYN/s, seconds, seconds).
fn parse_flood(raw: &str) -> Result<(f64, f64, f64), String> {
    let bad = || format!("invalid --flood `{raw}` (expected R@START+DURATION, e.g. 40@600+300)");
    let (rate, when) = raw.split_once('@').ok_or_else(bad)?;
    let (start, duration) = when.split_once('+').ok_or_else(bad)?;
    let rate: f64 = rate.parse().map_err(|_| bad())?;
    let start: f64 = start.parse().map_err(|_| bad())?;
    let duration: f64 = duration.parse().map_err(|_| bad())?;
    if rate <= 0.0 || start < 0.0 || duration <= 0.0 {
        return Err(bad());
    }
    Ok((rate, start, duration))
}

/// Builds the daemon's stubs from the source flags: `--in FILE` loops a
/// capture under `--stub`; otherwise each of `--sites` runs the
/// `--plan` (or a steady baseline), re-homed into `128.i.0.0/16`.
/// `--flood` overlays a spoofed SYN flood on the first stub.
fn serve_stubs(flags: &Flags, seed: u64) -> Result<Vec<ServeStubSpec>, String> {
    let plan = match flags.get("plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
            syndog_traffic::LoadPlan::parse(&text)
                .map_err(|e| format!("parse {path}: {e}"))?
                .with_attack_target(victim())
        }
        None => syndog_traffic::LoadPlan::steady_baseline().with_attack_target(victim()),
    };
    let mut stubs: Vec<ServeStubSpec> = match flags.get("in") {
        Some(input) => {
            let stub = stub_flag(flags)?;
            if flags.get("sites").is_some() || flags.get("plan").is_some() {
                return Err("--in replays a capture; drop --sites/--plan".into());
            }
            let trace = read_trace(input, stub)?;
            if trace.records().is_empty() || trace.duration() == SimDuration::ZERO {
                return Err(format!("{input} is empty; nothing to loop"));
            }
            vec![ServeStubSpec {
                stub,
                supply: Box::new(LoopingTraceSupply::new(trace)),
            }]
        }
        None => {
            let names = flags.get("sites").unwrap_or("lbl");
            names
                .split(',')
                .enumerate()
                .map(|(i, name)| {
                    let index = u8::try_from(i + 1)
                        .map_err(|_| "--sites supports at most 255 entries".to_string())?;
                    let prefix = Ipv4Net::new(Ipv4Addr::new(128, index, 0, 0), 16);
                    let profile = site_by_name(name.trim())?.rehomed(prefix, u16::from(index));
                    Ok(ServeStubSpec {
                        stub: prefix,
                        supply: Box::new(PlanSupply::new(
                            plan.clone(),
                            profile,
                            seed.wrapping_add(i as u64),
                        )),
                    })
                })
                .collect::<Result<_, String>>()?
        }
    };
    if let Some(raw) = flags.get("flood") {
        let (rate, start, duration) = parse_flood(raw)?;
        let first = stubs.remove(0);
        stubs.insert(
            0,
            ServeStubSpec {
                stub: first.stub,
                supply: Box::new(FloodOverlay::new(
                    first.supply,
                    rate,
                    SimTime::from_secs_f64(start),
                    SimDuration::from_secs_f64(duration),
                    victim(),
                    seed ^ 0xf100d,
                )),
            },
        );
    }
    Ok(stubs)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["mitigate", "resume-latest", "status-json"],
        &[
            "sites",
            "in",
            "stub",
            "plan",
            "flood",
            "periods",
            "t0",
            "seed",
            "detector",
            "threshold",
            "throttle-key",
            "config",
            "checkpoint-dir",
            "checkpoint-interval",
            "checkpoint-keep",
            "metrics",
            "metrics-format",
        ],
    )?;
    let periods: u64 = flags.parse_value("periods", 720)?;
    if periods == 0 {
        return Err("--periods must be positive".into());
    }
    let seed: u64 = flags.parse_value("seed", 1)?;
    let t0: f64 = flags.parse_value("t0", 20.0)?;
    if t0 <= 0.0 {
        return Err("--t0 must be positive".into());
    }
    let interval: u64 = flags.parse_value("checkpoint-interval", 15)?;
    if interval == 0 {
        return Err("--checkpoint-interval must be positive".into());
    }
    let keep: usize = flags.parse_value("checkpoint-keep", 4)?;
    if keep == 0 {
        return Err("--checkpoint-keep must be positive".into());
    }
    let resume = flags.has("resume-latest");
    if resume
        && (flags.get("detector").is_some()
            || flags.get("threshold").is_some()
            || flags.has("mitigate"))
    {
        return Err(
            "--resume-latest restores the checkpoint's detector and mitigation posture; \
             drop --detector/--threshold/--mitigate (hot-reload via --config instead)"
                .into(),
        );
    }
    let config = ServeConfig {
        detector: detector_flag(&flags)?,
        threshold: flags.parse_value("threshold", ServeConfig::default().threshold)?,
        mitigation: flags.has("mitigate"),
        throttle_key: throttle_key_flag(&flags)?,
    };
    let spec = ServeSpec {
        period: SimDuration::from_secs_f64(t0),
        config,
        config_path: flags.get("config").map(std::path::PathBuf::from),
        checkpoint_dir: flags.get("checkpoint-dir").map(std::path::PathBuf::from),
        checkpoint_interval: interval,
        checkpoint_keep: keep,
        history_keep: 256,
    };
    if resume && spec.checkpoint_dir.is_none() {
        return Err("--resume-latest requires --checkpoint-dir".into());
    }
    let stubs = serve_stubs(&flags, seed)?;
    let mut daemon = if resume {
        ServeDaemon::resume_latest(spec, stubs).map_err(|e| format!("resume-latest: {e}"))?
    } else {
        ServeDaemon::new(spec, stubs).map_err(|e| format!("serve: {e}"))?
    };
    if daemon.resumed() {
        println!(
            "resumed from checkpoint at period {} (t = {:.0} s)",
            daemon.next_window(),
            daemon.sim_now().as_secs_f64()
        );
    }
    // The status plane rides beside the Prometheus scrape: an address
    // destination binds /status and /status.json next to /metrics; a
    // file destination receives the final snapshot on exit.
    let hub = Arc::new(Telemetry::new());
    let mut server = None;
    let mut file_sink = None;
    if let Some(dest) = flags.get("metrics") {
        let format = match flags.get("metrics-format") {
            Some(name) => ExportFormat::parse(name)
                .ok_or_else(|| format!("invalid --metrics-format: {name} (prom, jsonl, csv)"))?,
            None => ExportFormat::from_path(dest).unwrap_or_default(),
        };
        daemon.attach_telemetry(&hub);
        if dest.parse::<std::net::SocketAddr>().is_ok() {
            let bound = ScrapeServer::bind_with_routes(
                Arc::clone(&hub),
                dest,
                vec![daemon.status_board().route_handler()],
            )
            .map_err(|e| format!("bind status endpoint {dest}: {e}"))?;
            println!(
                "serving status at http://{0}/status (metrics at http://{0}/metrics)",
                bound.addr()
            );
            server = Some(bound);
        } else {
            file_sink = Some((dest.to_string(), format));
        }
    } else if flags.get("metrics-format").is_some() {
        return Err("--metrics-format requires --metrics".into());
    }
    daemon.run_for(periods);
    let snapshot = daemon.snapshot();
    if flags.has("status-json") {
        println!("{}", snapshot.render_json());
    } else {
        print!("{}", snapshot.render_text());
    }
    println!(
        "served {periods} periods ({:.0} sim-seconds); missed={} reloads={}",
        SimDuration::from_secs_f64(t0).as_secs_f64() * periods as f64,
        snapshot.missed_periods(),
        snapshot.config_reloads,
    );
    if let Some(mut server) = server {
        server.shutdown();
        println!("status endpoint closed");
    }
    if let Some((path, format)) = file_sink {
        std::fs::write(&path, format.render(&hub.snapshot()))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["in", "format"])?;
    let input = flags.require("in")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("open {input}: {e}"))?;
    let snapshot = export::parse_jsonl(&text).map_err(|e| format!("parse {input}: {e}"))?;
    if let Some(name) = flags.get("format") {
        let format = ExportFormat::parse(name)
            .ok_or_else(|| format!("invalid --format: {name} (prom, jsonl, csv)"))?;
        print!("{}", format.render(&snapshot));
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
    println!("{input}:");
    for counter in &snapshot.counters {
        println!(
            "  {}{}  {}",
            counter.name,
            labels(&counter.labels),
            counter.value
        );
    }
    for gauge in &snapshot.gauges {
        println!("  {}{}  {}", gauge.name, labels(&gauge.labels), gauge.value);
    }
    for histogram in &snapshot.histograms {
        let mean = if histogram.count == 0 {
            0.0
        } else {
            histogram.sum as f64 / histogram.count as f64
        };
        println!(
            "  {}{}  count {}, mean {:.1}",
            histogram.name,
            labels(&histogram.labels),
            histogram.count,
            mean
        );
    }
    println!(
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
        println!(
            "    [{:>5}] t={:.0}s {} {}",
            event.seq,
            event.t,
            event.kind,
            fields.join(" ")
        );
    }
    Ok(())
}

fn cmd_theory(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["k", "a", "c", "t0", "total-rate"])?;
    let k: f64 = flags
        .require("k")?
        .parse()
        .map_err(|_| "invalid --k".to_string())?;
    let a: f64 = flags.parse_value("a", 0.35)?;
    let c: f64 = flags.parse_value("c", 0.0)?;
    let t0: f64 = flags.parse_value("t0", 20.0)?;
    let total_rate: f64 = flags.parse_value("total-rate", 14_000.0)?;
    let f_min = theory::min_detectable_rate(a, c, k, t0);
    println!("parameters: a = {a}, c = {c}, K = {k}/period, t0 = {t0} s");
    println!("f_min (Eq. 8)          = {f_min:.2} SYN/s");
    let h = 2.0 * a;
    match theory::threshold_for_delay(3.0, h, c, a) {
        Some(n) => println!("N for 3-period delay   = {n:.2} (h = 2a = {h})"),
        None => println!("N for 3-period delay   = undefined (h <= |c - a|)"),
    }
    match theory::max_hidden_stub_networks(total_rate, f_min) {
        Some(stubs) => {
            println!("max hidden stubs       = {stubs} at aggregate V = {total_rate} SYN/s")
        }
        None => println!("max hidden stubs       = unbounded (f_min = 0)"),
    }
    let config = SynDogConfig::paper_default()
        .with_offset(a)
        .with_observation_period_secs(t0);
    for rate_multiplier in [1.2, 2.0, 4.0] {
        let rate = f_min * rate_multiplier;
        match theory::expected_delay_periods(&config, rate, k, c) {
            Some(delay) => println!(
                "expected delay at {rate:>8.2} SYN/s ({rate_multiplier}x f_min) = {delay:.1} periods"
            ),
            None => println!("expected delay at {rate:>8.2} SYN/s = not detectable"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // replay threads the strategy through the concurrent deployment
        // and its checkpoint keeps it on resume.
        let ck = dir
            .join("syndog_test_detector.ck.json")
            .to_str()
            .unwrap()
            .to_string();
        cmd_replay(&args(&[
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
        cmd_replay(&args(&[
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
    fn sniff_and_replay_run_end_to_end() {
        // A small flooded trace, exercised through both new subcommands in
        // both file formats. These are smoke tests — count-level
        // equivalence with the single-threaded path is pinned down in
        // syndog-router's source/concurrent tests.
        let dir = std::env::temp_dir();
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(7);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            victim(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let stub = site.stub().to_string();
        for name in ["syndog_test_pipeline.bin", "syndog_test_pipeline.pcap"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            write_trace(&trace, path).unwrap();
            cmd_sniff(&args(&[
                "--in",
                path,
                "--stub",
                &stub,
                "--batch-size",
                "64",
            ]))
            .unwrap();
            cmd_replay(&args(&[
                "--in",
                path,
                "--stub",
                &stub,
                "--batch-size",
                "64",
                "--capacity",
                "8",
            ]))
            .unwrap();
            cmd_replay(&args(&["--in", path, "--stub", &stub, "--drop"])).unwrap();
            let _ = std::fs::remove_file(path);
        }
        assert!(cmd_sniff(&args(&[
            "--in",
            "x.bin",
            "--stub",
            &stub,
            "--batch-size",
            "0"
        ]))
        .is_err());
        assert!(cmd_replay(&args(&[
            "--in",
            "x.bin",
            "--stub",
            &stub,
            "--capacity",
            "0"
        ]))
        .is_err());
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

        // replay: faulted run, checkpoint at the head, resume the rest.
        let ck2 = path("syndog_test_faultcli.ck2.json");
        cmd_replay(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--faults",
            "drop=0.05,seed=7",
        ]))
        .unwrap();
        cmd_replay(&args(&[
            "--in",
            &head_path,
            "--stub",
            &stub,
            "--checkpoint",
            &ck2,
        ]))
        .unwrap();
        cmd_replay(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck2,
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
        assert!(cmd_replay(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--resume",
            &ck2,
            "--t0",
            "10"
        ]))
        .is_err());

        for p in [&trace_path, &head_path, &ck, &ck2] {
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
        let hub = Arc::new(Telemetry::new());
        hub.registry().counter("syndog_periods_total").add(2);
        let flags = Flags::parse(&args(&["--metrics", "127.0.0.1:0"]), &[], &["metrics"]).unwrap();
        let sink = metrics_sink(&flags, &hub).unwrap().unwrap();
        let MetricsSink::Serve(server) = &sink else {
            panic!("socket address should open a scrape endpoint")
        };
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("syndog_periods_total 2"), "{response}");
        sink.finish(&hub).unwrap();
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
        assert!(restored.counter_total("syndog_periods_total") > 0);
        assert!(restored.counter_total("syndog_frames_total") > 0);
        assert!(restored
            .events
            .iter()
            .any(|event| event.kind == "alarm_raised"));

        // replay → CSV forced over a non-matching extension.
        let csv = path("syndog_test_metrics_snapshot.out");
        cmd_replay(&args(&[
            "--in",
            &trace_path,
            "--stub",
            &stub,
            "--drop",
            "--metrics",
            &csv,
            "--metrics-format",
            "csv",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("row_type,name,labels,value"), "{text}");
        assert!(text.contains("syndog_submitted_batches_total"), "{text}");

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
