//! What every subcommand shares: the `--flag` map, the one bounded
//! number reader, the option groups that `detect`, `sniff`, `fleet` and
//! `serve` repeat ([`RunOptions`]), the `--metrics` sink, and trace /
//! checkpoint file I/O.

use std::fs::File;
use std::io::{BufReader, Write as _};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::Arc;

use syndog::{DetectorKind, SynDogConfig};
use syndog_net::Ipv4Net;
use syndog_router::{
    Checkpoint, FaultLedger, FaultSpec, FaultTelemetry, KeyMode, MitigationPolicy,
};
use syndog_sim::{SimDuration, SimTime};
use syndog_telemetry::{ExportFormat, RouteHandler, ScrapeServer, Telemetry};
use syndog_traffic::{RecordReader, SiteProfile, Trace, TraceRecord};

/// Minimal `--flag value` / `--switch` argument map.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args` against a subcommand's declared `switches` (bare
    /// flags) and `values` (flags that take one argument); any other
    /// `--name` is an error, so a typo never silently changes a run.
    pub fn parse(args: &[String], switches: &[&str], values: &[&str]) -> Result<Flags, String> {
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

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    pub fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid --{name}: {raw}")),
        }
    }

    /// Reads `--name` as a number in `(0, max]`, `None` when absent — the
    /// one gate every sized or divided-by flag passes, so no hostile
    /// value reaches an allocation, a division or a panicking
    /// constructor. The bound is checked in `f64` (NaN is not positive,
    /// `inf` exceeds `f64::MAX`), then the value is read as `T`.
    pub fn positive<T: std::str::FromStr>(
        &self,
        name: &str,
        max: impl Into<f64>,
    ) -> Result<Option<T>, String> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        let invalid = || format!("invalid --{name}: {raw}");
        let value: f64 = raw.parse().map_err(|_| invalid())?;
        let max = max.into();
        if value > max && max == f64::MAX {
            Err(format!("--{name} must be finite"))
        } else if value > max {
            Err(format!("--{name} must be at most {max}"))
        } else if value > 0.0 {
            raw.parse().map(Some).map_err(|_| invalid())
        } else {
            Err(format!("--{name} must be positive"))
        }
    }
}

/// Flags several subcommands accept with one meaning, as `(switches,
/// value flags)`; a subcommand lists the groups it takes next to its own
/// flags.
pub type FlagGroup = (&'static [&'static str], &'static [&'static str]);
/// `--detector`, `--tuned`, `--t0`: the detection strategy and its shape.
pub const DETECTOR: FlagGroup = (&["tuned"], &["detector", "t0"]);
/// `--mitigate`, `--throttle-key`.
pub const MITIGATION: FlagGroup = (&["mitigate"], &["throttle-key"]);
/// `--metrics`, `--metrics-format`.
pub const TELEMETRY: FlagGroup = (&[], &["metrics", "metrics-format"]);
/// `--faults`.
pub const FAULTS: FlagGroup = (&[], &["faults"]);
/// `--checkpoint`, `--resume`.
pub const CHECKPOINT: FlagGroup = (&[], &["checkpoint", "resume"]);

/// The shortest `--t0` the detector accepts, in seconds.
const MIN_T0_SECS: f64 = 1e-6;

/// The option groups `detect`, `sniff`, `fleet` and `serve` share,
/// parsed and validated once. A flag a subcommand does not declare is
/// rejected by [`Flags::parse`], so its field keeps the default here.
pub struct RunOptions {
    /// `--detector` (the paper's strategy when absent).
    pub detector: DetectorKind,
    /// The paper's (or `--tuned`) configuration with `--t0` applied.
    pub config: SynDogConfig,
    /// `--mitigate`.
    pub mitigate: bool,
    /// `--throttle-key` (MAC keying when absent).
    pub throttle_key: KeyMode,
    /// `--faults`.
    pub faults: Option<FaultSpec>,
    /// `--checkpoint FILE`.
    pub checkpoint: Option<String>,
    /// `--resume FILE`.
    pub resume: Option<String>,
    /// `--metrics DEST` with its resolved format.
    metrics: Option<(String, ExportFormat)>,
}

impl RunOptions {
    /// Parses a subcommand's own `switches` and `values` plus the flags
    /// of its `groups`, then reads the shared options out of them.
    pub fn parse(
        args: &[String],
        switches: &[&str],
        values: &[&str],
        groups: &[FlagGroup],
    ) -> Result<(Flags, RunOptions), String> {
        let mut switches = switches.to_vec();
        let mut values = values.to_vec();
        for (group_switches, group_values) in groups {
            switches.extend(*group_switches);
            values.extend(*group_values);
        }
        let flags = Flags::parse(args, &switches, &values)?;
        let options = RunOptions::from_flags(&flags)?;
        Ok((flags, options))
    }

    pub fn from_flags(flags: &Flags) -> Result<RunOptions, String> {
        let resume = flags.get("resume").map(str::to_string);
        // A checkpoint carries the detector strategy and configuration
        // the restored run must keep using.
        if resume.is_some()
            && (flags.has("tuned") || flags.get("t0").is_some() || flags.get("detector").is_some())
        {
            return Err(
                "--resume restores the checkpoint's detector (strategy and config); \
                 drop --tuned/--t0/--detector"
                    .into(),
            );
        }
        let config = if flags.has("tuned") {
            SynDogConfig::tuned_site_specific()
        } else {
            SynDogConfig::paper_default()
        };
        let t0 = flags.positive("t0", f64::MAX)?;
        // A shorter period rounds to zero on the 1 µs simulation clock.
        if t0.is_some_and(|t0: f64| t0 < MIN_T0_SECS) {
            return Err(format!(
                "--t0 must be at least {MIN_T0_SECS} (1 µs, the clock's resolution)"
            ));
        }
        let format = flags
            .get("metrics-format")
            .map(|name| {
                ExportFormat::parse(name)
                    .ok_or_else(|| format!("invalid --metrics-format: {name} (prom, jsonl, csv)"))
            })
            .transpose()?;
        let metrics = match flags.get("metrics") {
            Some(dest) => Some((
                dest.to_string(),
                format.unwrap_or_else(|| ExportFormat::from_path(dest).unwrap_or_default()),
            )),
            None if format.is_some() => return Err("--metrics-format requires --metrics".into()),
            None => None,
        };
        Ok(RunOptions {
            detector: match flags.get("detector") {
                None => DetectorKind::Syndog,
                Some(raw) => raw.parse().map_err(|e| format!("--detector: {e}"))?,
            },
            config: config
                .with_observation_period_secs(t0.unwrap_or(config.observation_period_secs)),
            mitigate: flags.has("mitigate"),
            throttle_key: flags
                .get("throttle-key")
                .map_or(Ok(KeyMode::Mac), str::parse)?,
            faults: flags.get("faults").map(FaultSpec::parse).transpose()?,
            checkpoint: flags.get("checkpoint").map(str::to_string),
            resume,
            metrics,
        })
    }

    /// The policy `--mitigate` arms, keyed by `--throttle-key`.
    pub fn mitigation(&self) -> Option<MitigationPolicy> {
        self.mitigate
            .then(|| MitigationPolicy::paper_default().with_key_mode(self.throttle_key))
    }

    /// Starts the `--metrics` sink. An address destination starts serving
    /// `/metrics` (plus `routes`) immediately.
    pub fn metrics(&self, routes: Vec<RouteHandler>) -> Result<Metrics, String> {
        let Some((dest, format)) = &self.metrics else {
            return Ok(Metrics::default());
        };
        let hub = Arc::new(Telemetry::new());
        let mut metrics = Metrics {
            hub: Some(Arc::clone(&hub)),
            ..Metrics::default()
        };
        if dest.parse::<SocketAddr>().is_ok() {
            let server = ScrapeServer::bind_with_routes(hub, dest, routes)
                .map_err(|e| format!("bind metrics endpoint {dest}: {e}"))?;
            outln!("serving metrics at http://{}/metrics", server.addr());
            metrics.server = Some(server);
        } else {
            metrics.file = Some((dest.clone(), *format));
        }
        Ok(metrics)
    }
}

/// One run's `--metrics` attachment: the hub every instrumented
/// component registers into, and where its snapshot goes — a socket
/// address serves live Prometheus scrapes for the life of the run,
/// anything else is a file written once by [`Metrics::finish`].
#[derive(Default)]
pub struct Metrics {
    hub: Option<Arc<Telemetry>>,
    server: Option<ScrapeServer>,
    file: Option<(String, ExportFormat)>,
}

impl Metrics {
    /// The hub to attach, `None` when the run is untelemetered.
    pub fn hub(&self) -> Option<Arc<Telemetry>> {
        self.hub.clone()
    }

    /// The scrape endpoint's address, when `--metrics` named one.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(ScrapeServer::addr)
    }

    /// Writes a file sink's final snapshot; the scrape server has been
    /// answering with live state all along, so the run's end just
    /// reports where it was. A no-op without `--metrics`.
    pub fn finish(self) -> Result<(), String> {
        if let Some(server) = &self.server {
            outln!("metrics served at http://{}/metrics", server.addr());
        }
        if let (Some((path, format)), Some(hub)) = (&self.file, &self.hub) {
            std::fs::write(path, format.render(&hub.snapshot()))
                .map_err(|e| format!("write {path}: {e}"))?;
            outln!("wrote metrics snapshot to {path}");
        }
        Ok(())
    }
}

/// Streams `--in` into `run` one record at a time: the records from
/// `from` on (a resumed run's open period; `--resume` is this filter),
/// through the `--faults` pass when given. Returns what `run` returned
/// and the fault ledger, already synced into telemetry. A read error ends
/// the stream early and is reported once `run` returns.
pub fn stream_records<T>(
    path: &str,
    stub: Ipv4Net,
    from: SimTime,
    faults: Option<FaultSpec>,
    metrics: &Metrics,
    run: impl FnOnce(&mut dyn Iterator<Item = TraceRecord>, Option<SimDuration>) -> T,
) -> Result<(T, Option<FaultLedger>), String> {
    let mut reader = open_records(path, stub)?;
    let span = reader.span();
    let mut records = reader.by_ref().filter(|record| record.time >= from);
    let mut ledger = FaultLedger::default();
    let out = match faults {
        Some(spec) => run(&mut spec.faulted(&mut records, &mut ledger), span),
        None => run(&mut records, span),
    };
    let ledger = faults.map(|_| ledger);
    reader.finish().map_err(|e| format!("read {path}: {e}"))?;
    if let (Some(ledger), Some(hub)) = (&ledger, metrics.hub()) {
        FaultTelemetry::new(&hub).sync(ledger);
    }
    Ok((out, ledger))
}

pub fn site_by_name(name: &str) -> Result<SiteProfile, String> {
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

pub fn write_trace(trace: &Trace, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    let written = if path.ends_with(".pcap") {
        trace.write_pcap(&mut writer)
    } else {
        trace.write_binary(&mut writer)
    };
    written.map_err(|e| format!("write {path}: {e}"))?;
    writer.flush().map_err(|e| format!("write {path}: {e}"))
}

/// Opens a capture as a record stream: a pcap when the name ends in
/// `.pcap`, a binary trace otherwise.
fn open_records(path: &str, stub: Ipv4Net) -> Result<RecordReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let opened = if path.ends_with(".pcap") {
        RecordReader::pcap(reader, stub)
    } else {
        RecordReader::binary(reader)
    };
    opened.map_err(|e| format!("read {path}: {e}"))
}

pub fn read_trace(path: &str, stub: Ipv4Net) -> Result<Trace, String> {
    let trace = open_records(path, stub)?.into_trace();
    trace.map_err(|e| format!("read {path}: {e}"))
}

pub fn stub_flag(flags: &Flags) -> Result<Ipv4Net, String> {
    flags
        .require("stub")?
        .parse()
        .map_err(|_| "invalid --stub CIDR (e.g. 152.2.0.0/16)".to_string())
}

pub fn victim() -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::new(199, 0, 0, 80), 80)
}

pub fn read_checkpoint(path: &str) -> Result<Checkpoint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
    Checkpoint::from_json(&text).map_err(|e| format!("read checkpoint {path}: {e}"))
}

pub fn write_checkpoint(checkpoint: &Checkpoint, path: &str) -> Result<(), String> {
    // Atomic (temp + rename): a crash mid-write can never leave a
    // half-written file where a good checkpoint used to be.
    checkpoint
        .write_atomic(std::path::Path::new(path))
        .map_err(|e| format!("write {path}: {e}"))?;
    outln!("wrote checkpoint to {path}");
    Ok(())
}
