//! `serve`: the long-lived daemon ([`syndog_serve`]) — one agent per stub
//! fed by a window-addressed supply, closing periods on sim-time,
//! rotating checkpoints, hot-reloading `--config`, and publishing the
//! operator status plane beside the `--metrics` scrape.

use std::net::Ipv4Addr;

use syndog_net::Ipv4Net;
use syndog_serve::{
    FloodOverlay, LoopingTraceSupply, PlanSupply, ServeConfig, ServeDaemon, ServeSpec,
    StubSpec as ServeStubSpec,
};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::LoadPlan;

use crate::options::{
    read_trace, site_by_name, stub_flag, victim, Flags, RunOptions, MITIGATION, TELEMETRY,
};

/// Parses `--flood R@START+DURATION` (SYN/s, seconds, seconds).
pub fn parse_flood(raw: &str) -> Result<(f64, f64, f64), String> {
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
            LoadPlan::parse(&text).map_err(|e| format!("parse {path}: {e}"))?
        }
        None => LoadPlan::steady_baseline(),
    }
    .with_attack_target(victim());
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

pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, opts) = RunOptions::parse(
        args,
        &["resume-latest", "status-json"],
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
            "config",
            "checkpoint-dir",
            "checkpoint-interval",
            "checkpoint-keep",
        ],
        &[MITIGATION, TELEMETRY],
    )?;
    let periods = flags.positive("periods", f64::MAX)?.unwrap_or(720);
    let seed: u64 = flags.parse_value("seed", 1)?;
    let resume = flags.has("resume-latest");
    if resume
        && (flags.get("detector").is_some() || flags.get("threshold").is_some() || opts.mitigate)
    {
        return Err(
            "--resume-latest restores the checkpoint's detector and mitigation posture; \
             drop --detector/--threshold/--mitigate (hot-reload via --config instead)"
                .into(),
        );
    }
    let period = SimDuration::from_secs_f64(opts.config.observation_period_secs);
    let spec = ServeSpec {
        period,
        config: ServeConfig {
            detector: opts.detector,
            threshold: flags
                .positive("threshold", f64::MAX)?
                .unwrap_or(ServeConfig::default().threshold),
            mitigation: opts.mitigate,
            throttle_key: opts.throttle_key,
        },
        config_path: flags.get("config").map(std::path::PathBuf::from),
        checkpoint_dir: flags.get("checkpoint-dir").map(std::path::PathBuf::from),
        checkpoint_interval: flags
            .positive("checkpoint-interval", f64::MAX)?
            .unwrap_or(15),
        checkpoint_keep: flags.positive("checkpoint-keep", f64::MAX)?.unwrap_or(4),
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
        outln!(
            "resumed from checkpoint at period {} (t = {:.0} s)",
            daemon.next_window(),
            daemon.sim_now().as_secs_f64()
        );
    }
    // The status plane rides beside the Prometheus scrape: an address
    // destination serves /status and /status.json next to /metrics.
    let metrics = opts.metrics(vec![daemon.status_board().route_handler()])?;
    if let Some(hub) = metrics.hub() {
        daemon.attach_telemetry(&hub);
    }
    if let Some(addr) = metrics.addr() {
        outln!("serving status at http://{addr}/status");
    }
    daemon.run_for(periods);
    let snapshot = daemon.snapshot();
    if flags.has("status-json") {
        outln!("{}", snapshot.render_json());
    } else {
        out!("{}", snapshot.render_text());
    }
    outln!(
        "served {periods} periods ({:.0} sim-seconds); missed={} reloads={}",
        period.as_secs_f64() * periods as f64,
        snapshot.missed_periods(),
        snapshot.config_reloads,
    );
    metrics.finish()
}
