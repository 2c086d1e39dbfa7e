//! `fleet`: the paper's distributed deployment in one shot.

use std::io::Write as _;

use syndog::SynDogConfig;
use syndog_router::{CollectorConfig, Fleet, Scenario};
use syndog_sim::par::Parallelism;
use syndog_sim::{SimDuration, SimTime};
use syndog_telemetry::LabelBudget;

use crate::options::{site_by_name, victim, RunOptions, FAULTS, MITIGATION, TELEMETRY};

/// Largest `--stubs` the CLI runs.
const MAX_STUBS: u32 = 16_384;

/// Parses `--attackers` as comma-separated stub indices and inclusive
/// `A-B` index ranges (so a 100-slave campaign over a 2,000-stub fleet
/// doesn't need a 100-entry list). Each entry is checked against the
/// fleet before it is expanded.
pub fn parse_attackers(raw: &str, stubs: usize) -> Result<Vec<usize>, String> {
    let mut indices = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        let bad = || format!("invalid --attackers entry: {part}");
        let index = |raw: &str| raw.trim().parse::<usize>().map_err(|_| bad());
        let (lo, hi) = match part.split_once('-') {
            Some((lo, hi)) => (index(lo)?, index(hi)?),
            None => (index(part)?, index(part)?),
        };
        if lo > hi {
            return Err(format!("empty --attackers range: {part}"));
        }
        if hi >= stubs {
            return Err(format!(
                "--attackers index {hi} outside the {stubs}-stub fleet"
            ));
        }
        indices.extend(lo..=hi);
    }
    Ok(indices)
}

pub fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let (flags, opts) = RunOptions::parse(
        args,
        &["counts"],
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
            "csv",
        ],
        &[MITIGATION, FAULTS, TELEMETRY],
    )?;
    let stubs = flags.positive("stubs", MAX_STUBS)?.unwrap_or(4);
    let regions = flags.positive("regions", f64::MAX)?;
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
    if let Some(minutes) = flags.positive::<f64>("site-minutes", f64::MAX)? {
        template = template.with_duration(SimDuration::from_secs_f64(minutes * 60.0));
    }
    let attacked = parse_attackers(flags.get("attackers").unwrap_or("0"), stubs)?;
    let total_rate = flags.positive("total-rate", f64::MAX)?.unwrap_or(20.0);
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
    scenario = scenario.with_detector(opts.detector);
    if let Some(faults) = opts.faults {
        scenario = scenario.with_faults(faults);
    }
    if let Some(policy) = opts.mitigation() {
        scenario = scenario.with_mitigation(policy);
    }
    let mut fleet = Fleet::new(scenario);
    if let Some(raw) = flags.get("jobs") {
        let jobs: usize = raw.parse().map_err(|_| format!("invalid --jobs: {raw}"))?;
        fleet = fleet.with_parallelism(Parallelism::Fixed(jobs));
    }
    let metrics = opts.metrics(Vec::new())?;
    let label_budget = flags.positive("label-budget", f64::MAX)?;
    if label_budget.is_some() && metrics.hub().is_none() {
        return Err("--label-budget needs --metrics".into());
    }
    if let Some(hub) = metrics.hub() {
        fleet = match label_budget {
            Some(sets) => fleet.with_telemetry_budget(hub, LabelBudget::new(sets)),
            None => fleet.with_telemetry(hub),
        };
    }
    let csv = flags.get("csv");
    let mut csv_file = match csv {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => None,
    };
    match regions {
        // Internet-scale path: stream rows (spilling to --csv as stubs
        // complete), correlate alarm onsets, print the campaign report
        // instead of a per-stub table.
        Some(regions) => {
            let run = fleet
                .run_counts_correlated(
                    &CollectorConfig::with_regions(regions),
                    csv_file.as_mut().map(|f| f as &mut dyn std::io::Write),
                )
                .map_err(|e| format!("correlated fleet run: {e}"))?;
            out!("{}", run.render());
        }
        None => {
            let report = if counts {
                fleet.run_counts()
            } else {
                fleet.run()
            };
            out!("{}", report.render());
            if let (Some(file), Some(path)) = (&mut csv_file, csv) {
                report
                    .write_csv(file)
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
        }
    }
    if let (Some(mut file), Some(path)) = (csv_file, csv) {
        file.flush().map_err(|e| format!("write {path}: {e}"))?;
        outln!("wrote fleet report to {path}");
    }
    metrics.finish()
}
