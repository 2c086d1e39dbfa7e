//! One benchmark run: set up, warm up, measure, check, report.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::cpus::Rotation;
use crate::laps::{Fastest, Laps};
use crate::traced::{self, Layer, LayerTotals, Observed, Recorder};
use crate::workloads::{self, expectations, Check, Decisions, Input, Outcome, Workload};

/// Untimed rounds before measuring, so caches fill and lazy set-up ends.
pub const WARMUP_ROUNDS: usize = 2;
/// Points in a full run at which the input is built; `setup_s` is the sum
/// of each build segment's fastest pass over every build. The first build
/// feeds the rounds, the others are spread evenly over the untraced
/// rounds' time, so the builds sample the whole run rather than one
/// stretch of it.
pub const SETUP_POINTS: usize = 5;
/// Builds at each later point, so a set-up of a millisecond is still timed
/// hundreds of times. A fixed count keeps the heap the rounds see the same
/// from run to run.
pub const SETUP_POINT_BUILDS: usize = 256;
/// A point stops early once its builds have taken this long (a capture
/// takes one build).
pub const SETUP_POINT_SECS: f64 = 0.2;
/// Fewest measured rounds of each kind, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 3;
/// Measured rounds of each kind under `--quick`.
pub const QUICK_ROUNDS: usize = 2;
/// How far layer self times may sum from the traced wall time.
pub const SELF_SUM_TOLERANCE: f64 = 0.10;

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds from the end of the first build to the end of the run:
    /// warm-up, measured rounds and the further builds (split evenly
    /// between untraced and traced rounds under `--trace`).
    pub seconds: f64,
    /// Also run traced rounds and report per-layer metrics.
    pub trace: bool,
    /// Two-minute capture / 40-stub fleet, no warm-up, two rounds of each
    /// kind.
    pub quick: bool,
    /// Directory for the run report and the spans.
    pub out: Option<PathBuf>,
}

/// Usage text.
pub const USAGE: &str = "usage: pipebench --workload NAME --seconds S [--seed N] \
[--trace [0|1]] [--quick] [--out DIR]\n\
workloads: unc-flood-detect, unc-flood-sniff, unc-flashcrowd-detect, lbl-fleet-counts";

impl Options {
    /// Parses command-line arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Describes the first argument that does not parse.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut args = args.into_iter().peekable();
        let mut workload = None;
        let mut seconds = None;
        let mut options = Options {
            workload: Workload::FloodDetect,
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: false,
            out: None,
        };
        while let Some(arg) = args.next() {
            let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    workload = Some(
                        Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => {
                    options.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
                }
                "--seconds" => {
                    seconds = Some(
                        value("--seconds")?
                            .parse()
                            .ok()
                            .filter(|s: &f64| s.is_finite() && *s > 0.0)
                            .ok_or("--seconds takes a positive number")?,
                    );
                }
                "--trace" => {
                    options.trace = match args.peek().map(String::as_str) {
                        Some("0") => {
                            args.next();
                            false
                        }
                        Some("1") => {
                            args.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--quick" => options.quick = true,
                "--out" => options.out = Some(PathBuf::from(value("--out")?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        options.workload = workload.ok_or("--workload is required")?;
        options.seconds = seconds.ok_or("--seconds is required")?;
        Ok(options)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How it was summarized, for the human-readable line.
    pub note: String,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64, note: String) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            note,
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// The options the run used.
    pub options: Options,
    /// Run facts: host, commit, seed, round counts, input sizes.
    pub facts: Vec<(String, String)>,
    /// Every check, passed or not.
    pub checks: Vec<Check>,
    /// What the first round decided (every other round must agree).
    pub decisions: Decisions,
    /// Items offered over the measured rounds.
    pub attempted: u64,
    /// Items rejected, malformed or skipped over the measured rounds.
    pub failed: u64,
    /// End-to-end metrics, measured untraced.
    pub end_to_end: Vec<Metric>,
    /// Further untraced figures printed beside them: frames/s for the
    /// frame workloads and the failed fraction.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Per-layer operation counts (traced runs only).
    pub layer_ops: Vec<(&'static str, u64)>,
    /// The spans, kept when `--out` is given.
    pub recorder: Option<Recorder>,
}

/// The median and quartiles of a sample, as `statistics.quantiles(n=4)`
/// computes them (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.5), at(0.75))
}

fn rounds_left(done: usize, started: Instant, seconds: f64, quick: bool) -> bool {
    if quick {
        done < QUICK_ROUNDS
    } else {
        done < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds
    }
}

/// Resets the kernel's peak-RSS mark to the current RSS. Best effort: a
/// kernel without `clear_refs` leaves the mark covering set-up too.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB, 0 when the kernel does not say.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Merges per-round check lists: a check passes only if it passed on
/// every round; the detail is the first failing round's.
fn merge_checks(rounds: impl IntoIterator<Item = Vec<Check>>) -> Vec<Check> {
    let mut merged: Vec<Check> = Vec::new();
    for checks in rounds {
        for check in checks {
            match merged.iter_mut().find(|m| m.name == check.name) {
                Some(m) if m.pass && !check.pass => *m = check,
                Some(_) => {}
                None => merged.push(check),
            }
        }
    }
    merged
}

/// A rate: `count` per round, over the sum of each segment's fastest time
/// (see [`crate::laps`]). The whole rounds' median, quartiles and fastest
/// rate are printed beside it.
fn rate_metric(name: &str, count: f64, fastest: &Fastest, secs: &[f64]) -> Metric {
    let rates: Vec<f64> = secs.iter().map(|s| count / s).collect();
    let (q1, median, q3) = quartiles(&rates);
    let best = rates.iter().copied().fold(f64::MIN, f64::max);
    let note = format!(
        "fastest pass of each of {} segments over {} rounds; whole rounds: median {median:.6}, \
         q1 {q1:.6}, q3 {q3:.6}, fastest {best:.6}",
        fastest.segments(),
        rates.len()
    );
    Metric::new(name, "1/s", count / fastest.total(), note)
}

/// The traced run's result-line metrics: every layer's self time per
/// operation, then the fingerprint hit ratio, the trace's resident size
/// and the trace's own quality figures.
fn per_layer_metrics(
    totals: &LayerTotals,
    seen: &Observed,
    traced_secs: &[f64],
    untraced_secs: &[f64],
) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = Layer::MEASURED
        .iter()
        .map(|l| {
            Metric::new(
                l.name(),
                "ns",
                totals.ns_per_op(*l),
                "self ns per operation".into(),
            )
        })
        .collect();
    let hit_ratio = if seen.syns == 0 {
        0.0
    } else {
        seen.fingerprinted as f64 / seen.syns as f64
    };
    metrics.extend([
        Metric::new(
            "fingerprint.hit_ratio",
            "ratio",
            hit_ratio,
            format!("{} of {} SYNs fingerprinted", seen.fingerprinted, seen.syns),
        ),
        Metric::new(
            "traffic.trace.resident_mib",
            "MiB",
            seen.trace_bytes as f64 / (1024.0 * 1024.0),
            "materialized trace records".into(),
        ),
        Metric::new(
            "trace.self_sum_ratio",
            "ratio",
            totals.self_sum_ratio(),
            "layer self times over traced wall".into(),
        ),
        Metric::new(
            "trace.overhead",
            "ratio",
            quartiles(traced_secs).1 / quartiles(untraced_secs).1,
            "median traced round over median untraced round".into(),
        ),
    ]);
    metrics
}

fn agreement(name: &'static str, reference: &Outcome, rounds: &[Outcome]) -> Check {
    let differing = rounds.iter().filter(|o| *o != reference).count();
    Check::new(
        name,
        differing == 0,
        format!(
            "{differing} of {} rounds differ from the first",
            rounds.len()
        ),
    )
}

/// Every set-up build's timing: each segment's fastest pass, and each
/// whole build's time.
#[derive(Debug, Default)]
struct SetupTimes {
    laps: Laps,
    fastest: Fastest,
    secs: Vec<f64>,
}

impl SetupTimes {
    /// Builds the input once on the next CPU, timing it.
    fn build(&mut self, cpus: &mut Rotation, workload: Workload, seed: u64, quick: bool) -> Input {
        cpus.next();
        self.laps.start();
        let input = Input::build(workload, seed, quick, &mut self.laps);
        self.laps.mark();
        self.fastest.add(&self.laps);
        self.secs.push(self.laps.total());
        input
    }

    /// One later set-up point: builds the input [`SETUP_POINT_BUILDS`]
    /// times, or until [`SETUP_POINT_SECS`] have passed. Each build is
    /// dropped before the next starts, and its drop is not timed.
    fn point(&mut self, cpus: &mut Rotation, workload: Workload, seed: u64) {
        let started = Instant::now();
        for _ in 0..SETUP_POINT_BUILDS {
            drop(std::hint::black_box(
                self.build(cpus, workload, seed, false),
            ));
            if started.elapsed().as_secs_f64() >= SETUP_POINT_SECS {
                break;
            }
        }
    }
}

/// Runs the benchmark the options describe.
pub fn run(options: &Options) -> Report {
    let workload = options.workload;
    let quick = options.quick;

    let mut cpus = Rotation::new();
    let mut setup = SetupTimes::default();
    let input = setup.build(&mut cpus, workload, options.seed, quick);
    reset_peak_rss();

    let budget = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let warmups = if quick { 0 } else { WARMUP_ROUNDS };
    let mut laps = Laps::default();
    let mut fastest = Fastest::default();
    let mut untraced_secs = Vec::new();
    let mut peak_rss: f64 = 0.0;
    let mut points = 1;
    let started = Instant::now();
    // Every round, like every set-up build, runs on the next CPU in turn.
    let mut outcomes: Vec<Outcome> = (0..warmups)
        .map(|_| {
            cpus.next();
            workloads::run_round(&input, &mut laps)
        })
        .collect();
    loop {
        // Further set-up builds, spread over the untraced rounds. The mark
        // is read before each and reset after it, so the builds never count
        // toward `peak_rss_mib`.
        let due = budget * points as f64 / SETUP_POINTS as f64;
        if !quick && points < SETUP_POINTS && started.elapsed().as_secs_f64() >= due {
            peak_rss = peak_rss.max(peak_rss_mib());
            setup.point(&mut cpus, workload, options.seed);
            reset_peak_rss();
            points += 1;
            continue;
        }
        if !rounds_left(untraced_secs.len(), started, budget, quick) {
            break;
        }
        cpus.next();
        outcomes.push(workloads::run_round(&input, &mut laps));
        untraced_secs.push(laps.total());
        fastest.add(&laps);
    }

    let mut recorder = Recorder::default();
    let mut totals = LayerTotals::default();
    let mut traced_secs = Vec::new();
    let mut traced = Vec::new();
    let mut seen = Observed::default();
    if options.trace {
        let started = Instant::now();
        while rounds_left(traced_secs.len(), started, budget, quick) {
            cpus.next();
            let round = Instant::now();
            let (outcome, observed) = traced::run_round(&input, &mut recorder);
            traced_secs.push(round.elapsed().as_secs_f64());
            recorder.finish_round(&mut totals, options.out.is_some());
            traced.push(outcome);
            seen = observed;
        }
    }
    peak_rss = peak_rss.max(peak_rss_mib());

    let reference = outcomes[0];
    let mut checks = vec![agreement("rounds-agree", &reference, &outcomes)];
    if options.trace {
        checks.push(agreement("traced-equals-untraced", &reference, &traced));
        let ratio = totals.self_sum_ratio();
        checks.push(Check::new(
            "self-times-cover-wall",
            (ratio - 1.0).abs() <= SELF_SUM_TOLERANCE,
            format!("layer self times sum to {:.3} of traced wall", ratio),
        ));
    }
    checks.extend(merge_checks(
        outcomes
            .iter()
            .chain(&traced)
            .map(|o| expectations(workload, &input, o, quick)),
    ));

    let measured: Vec<&Outcome> = outcomes[warmups..].iter().chain(&traced).collect();
    let items = input.items();
    let attempted = items * measured.len() as u64;
    let failed: u64 = measured.iter().map(|o| o.failed).sum();
    let input_facts = input.facts();
    let is_capture = input.capture().is_some();

    let setup_secs = &setup.secs;
    let (setup_q1, setup_median, setup_q3) = quartiles(setup_secs);
    let (setup_min, setup_max) = setup_secs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
    let end_to_end = vec![
        rate_metric("items_per_s", items as f64, &fastest, &untraced_secs),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            peak_rss,
            "VmHWM over the rounds, reset after every set-up build".into(),
        ),
        Metric::new(
            "setup_s",
            "s",
            setup.fastest.total(),
            format!(
                "fastest pass of each of {} segments over {} builds; whole builds: median \
                 {setup_median:.6}, fastest {setup_min:.6}",
                setup.fastest.segments(),
                setup_secs.len()
            ),
        ),
    ];
    let d = reference.decisions;
    let mut extra = Vec::new();
    if is_capture {
        extra.push(rate_metric(
            "stub_periods_per_s",
            d.periods as f64,
            &fastest,
            &untraced_secs,
        ));
    }
    extra.push(Metric::new(
        "failed_frac",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        format!("{failed} of {attempted} {}s", workload.item()),
    ));
    let mut per_layer = Vec::new();
    let mut layer_ops = Vec::new();
    if options.trace {
        // Decision counts are printed but kept out of the result line: an
        // optimization must not move them, and the checks pin them.
        for (name, count) in [
            ("router.mitigate.throttled", d.throttled),
            ("router.mitigate.exonerated", d.exonerated),
            ("fingerprint.table.distinct", d.distinct_fingerprints),
        ] {
            extra.push(Metric::new(name, "count", count as f64, String::new()));
        }
        per_layer = per_layer_metrics(&totals, &seen, &traced_secs, &untraced_secs);
        layer_ops = Layer::MEASURED
            .iter()
            .map(|l| (l.name(), totals.ops_of(*l)))
            .collect();
    }

    let list = |secs: &[f64]| {
        secs.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut facts: Vec<(String, String)> = vec![
        ("workload".into(), workload.name().into()),
        ("seed".into(), options.seed.to_string()),
        ("quick".into(), quick.to_string()),
        ("item".into(), workload.item().into()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("threads".into(), "1".into()),
        ("cpus_rotated".into(), format!("{:?}", cpus.cpus())),
        ("commit".into(), git_commit()),
        ("setup_builds".into(), setup_secs.len().to_string()),
        ("setup_points".into(), points.to_string()),
        ("segments_per_round".into(), fastest.segments().to_string()),
        ("warmup_rounds".into(), warmups.to_string()),
        ("untraced_rounds".into(), untraced_secs.len().to_string()),
        ("traced_rounds".into(), traced_secs.len().to_string()),
    ];
    facts.extend(input_facts.into_iter().map(|(k, v)| (k.to_string(), v)));
    facts.push((
        "setup_build_secs".into(),
        format!(
            "min {setup_min:.6} q1 {setup_q1:.6} median {setup_median:.6} q3 {setup_q3:.6} \
             max {setup_max:.6}"
        ),
    ));
    facts.push(("untraced_round_secs".into(), list(&untraced_secs)));
    if options.trace {
        facts.push(("traced_round_secs".into(), list(&traced_secs)));
    }

    Report {
        options: options.clone(),
        facts,
        checks,
        decisions: reference.decisions,
        attempted,
        failed,
        end_to_end,
        extra,
        per_layer,
        layer_ops,
        recorder: options.out.is_some().then_some(recorder),
    }
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The metrics the result line carries: end-to-end untraced, per-layer
    /// traced.
    pub fn result_metrics(&self) -> &[Metric] {
        if self.options.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.facts {
            let _ = writeln!(out, "fact {key} {value}");
        }
        for c in &self.checks {
            let verdict = if c.pass { "pass" } else { "FAIL" };
            let _ = writeln!(out, "check {} {verdict}: {}", c.name, c.detail);
        }
        for m in self
            .end_to_end
            .iter()
            .chain(&self.extra)
            .chain(&self.per_layer)
        {
            let _ = writeln!(out, "metric {} {} {} ({})", m.name, m.value, m.unit, m.note);
        }
        for (layer, ops) in &self.layer_ops {
            let _ = writeln!(out, "ops {layer} {ops}");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics, each with its value and unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .result_metrics()
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Writes the report and, for traced runs, every span under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_out(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!("{}-seed{}", self.options.workload.name(), self.options.seed);
        std::fs::write(dir.join(format!("{stem}.txt")), self.text())?;
        if let Some(recorder) = self.recorder.as_ref().filter(|_| self.options.trace) {
            let file = std::fs::File::create(dir.join(format!("{stem}.spans.csv")))?;
            let mut writer = std::io::BufWriter::new(file);
            recorder.write_csv(&mut writer)?;
            std::io::Write::flush(&mut writer)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn quartiles_match_pythons_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn setup_builds_cut_at_the_same_points() {
        let mut setup = SetupTimes::default();
        for _ in 0..2 {
            setup.build(&mut Rotation::new(), Workload::FloodDetect, 4, true);
        }
        // Trace generated, reference run, then one segment per MiB of pcap.
        assert!(setup.fastest.segments() > 3, "{setup:?}");
        assert_eq!(setup.secs.len(), 2);
        // Segment sums may round a nanosecond apart from the whole build.
        assert!(setup.fastest.total() <= setup.secs[0].min(setup.secs[1]) + 1e-9);
    }

    #[test]
    fn options_parse_every_flag() {
        let o = parse(&[
            "--workload",
            "lbl-fleet-counts",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload, Workload::FleetCounts);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (9, 12.0, true, false)
        );
        let sniff = ["--workload", "unc-flood-sniff", "--seconds", "1"];
        assert!(
            !parse(&[&sniff[..], &["--trace", "0"]].concat())
                .unwrap()
                .trace
        );
        let bare = parse(&[&["--trace"], &sniff[..], &["--quick"]].concat()).unwrap();
        assert!(bare.trace && bare.quick);
        assert!(
            parse(&["--seconds", "1"]).is_err(),
            "--workload is required"
        );
        assert!(parse(&sniff[..2]).is_err(), "--seconds is required");
        assert!(parse(&["--workload", "nope", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "unc-flood-sniff", "--seconds", "0"]).is_err());
    }
}
