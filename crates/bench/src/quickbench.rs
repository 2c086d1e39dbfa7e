//! Wall-clock throughput snapshots emitted as machine-readable
//! `BENCH_*.json` files.
//!
//! Complements the statistical `criterion` benches in `benches/`: this
//! module runs in well under a second via `repro bench` and snapshots the
//! six hot paths a deployment pays for — packet classification, SYN
//! fingerprint extraction (alone and riding the batched classifier's
//! per-SYN sink), the concurrent deployment's frame submission channel,
//! the mitigation throttle's admit/deny decision, each detection
//! strategy's per-period `observe`, and the fleet's streaming count-level
//! fold (stub-periods/s per worker). CI writes the files at the repo root and uploads
//! them as an artifact, so throughput regressions show up in the diff of
//! a committed `BENCH_*.json` rather than only in a transient log.

use std::path::{Path, PathBuf};
use std::time::Instant;

use syndog::{DetectorKind, PeriodSignals, SynDogConfig};
use syndog_net::packet::PacketBuilder;
use syndog_net::{classify, classify_batch, FrameBatch, Ipv4Net, MacAddr, SegmentKind, TcpFlags};
use syndog_router::{
    ConcurrentSynDog, MitigationEngine, MitigationPolicy, OverflowPolicy, SynDogAgent,
};
use syndog_sim::SimTime;
use syndog_traffic::trace::{Direction, TraceRecord};

/// One measured case: a label, how many operations ran, and how long the
/// loop took on this machine.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case label within the report (e.g. a detector name).
    pub case: String,
    /// Operations executed.
    pub ops: u64,
    /// Wall-clock seconds for the whole loop.
    pub elapsed_secs: f64,
}

impl BenchCase {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.ops as f64 / self.elapsed_secs
        } else {
            f64::INFINITY
        }
    }
}

/// A named group of measured cases, serialized to `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name; also the file stem suffix.
    pub name: &'static str,
    /// What one operation is (documentation for readers of the JSON).
    pub op: &'static str,
    /// Measured cases.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Renders the report as a small self-describing JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", self.name));
        out.push_str(&format!("  \"op\": \"{}\",\n", self.op));
        out.push_str("  \"unit\": \"ops_per_sec\",\n");
        out.push_str("  \"results\": [\n");
        for (i, case) in self.cases.iter().enumerate() {
            let comma = if i + 1 < self.cases.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"case\": \"{}\", \"ops\": {}, \"elapsed_secs\": {:.6}, \
                 \"ops_per_sec\": {:.1}}}{comma}\n",
                case.case,
                case.ops,
                case.elapsed_secs,
                case.ops_per_sec()
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` under `dir`, returning the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure — a silently missing benchmark artifact is
    /// worse than an aborted run.
    pub fn write(&self, dir: &Path) -> PathBuf {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json()).expect("write benchmark JSON");
        path
    }
}

/// Untimed runs before measurement: first touches of the loop warm the
/// page cache, branch predictors, and any lazily grown arenas, and a cold
/// first run used to be exactly what the snapshot recorded.
const WARMUP_ROUNDS: u32 = 2;
/// Timed repetitions; the best (shortest) is the snapshot. Wall-clock
/// minima are far more stable than single cold runs on a shared machine.
const TIMED_ROUNDS: u32 = 5;

fn timed(case: &str, ops: u64, mut body: impl FnMut()) -> BenchCase {
    for _ in 0..WARMUP_ROUNDS {
        body();
    }
    let mut best = f64::INFINITY;
    for _ in 0..TIMED_ROUNDS {
        let start = Instant::now();
        body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    BenchCase {
        case: case.to_string(),
        ops,
        elapsed_secs: best,
    }
}

/// A realistic classification mix: mostly data/ACK traffic, a handshake
/// minority, a trickle of junk (same mix as the criterion ingest bench).
fn frame_mix(count: usize) -> Vec<Vec<u8>> {
    let src = "10.1.2.3:1025".parse().unwrap();
    let dst = "192.0.2.80:80".parse().unwrap();
    (0..count)
        .map(|i| match i % 8 {
            0 => PacketBuilder::tcp_syn(src, dst).build().unwrap(),
            1 => PacketBuilder::tcp_syn_ack(dst, src).build().unwrap(),
            2 => PacketBuilder::tcp(src, dst, TcpFlags::FIN | TcpFlags::ACK)
                .build()
                .unwrap(),
            7 => vec![0u8; 9], // malformed
            _ => PacketBuilder::tcp(src, dst, TcpFlags::ACK)
                .payload(vec![0u8; 128])
                .build()
                .unwrap(),
        })
        .collect()
}

/// §2 classifier throughput over the realistic frame mix: the SWAR batch
/// fast path next to the per-frame scalar fold it replaced.
pub fn bench_classify(iterations: u64) -> BenchReport {
    let frames = frame_mix(1024);
    let batch: FrameBatch = frames.iter().collect();
    let ops = iterations * frames.len() as u64;
    let swar = timed("classify_fast_path", ops, || {
        let mut alive = 0u64;
        for _ in 0..iterations {
            let counts = classify_batch(&batch);
            alive += counts.total() - counts.malformed();
        }
        assert!(alive > 0);
    });
    let scalar = timed("classify_scalar", ops, || {
        let mut alive = 0u64;
        for _ in 0..iterations {
            for frame in &frames {
                if classify(frame).is_ok() {
                    alive += 1;
                }
            }
        }
        assert!(alive > 0);
    });
    BenchReport {
        name: "classify",
        op: "frames classified",
        cases: vec![swar, scalar],
    }
}

/// SYN fingerprint extraction throughput: the header parse alone over a
/// varied SYN population, and the full batched classifier with
/// [`syndog_fingerprint::extract_syn`] feeding a
/// [`syndog_fingerprint::FingerprintTable`] from the per-SYN sink — the
/// exact configuration a fingerprinting deployment runs, so a regression
/// here is a regression in the line-rate hot path.
pub fn bench_fingerprint_extract(iterations: u64) -> BenchReport {
    use syndog_fingerprint::{extract_syn, FingerprintTable};
    use syndog_net::batch::classify_batch_sink;
    use syndog_net::tcp::TcpOption;

    // A varied SYN population: distinct TTL ladders, windows, and option
    // layouts, so the parse never short-circuits on one constant shape.
    let src = "10.1.2.3:1025".parse().unwrap();
    let dst = "192.0.2.80:80".parse().unwrap();
    let syns: Vec<Vec<u8>> = (0..256u32)
        .map(|i| {
            let mut builder = PacketBuilder::tcp_syn(src, dst)
                .ttl([32, 64, 128, 255][i as usize % 4])
                .window(512 + (i as u16 % 8) * 4096);
            builder = match i % 3 {
                0 => builder.tcp_options(vec![
                    TcpOption::Mss(1460),
                    TcpOption::SackPermitted,
                    TcpOption::Timestamps(i, 0),
                ]),
                1 => builder.tcp_options(vec![TcpOption::Mss(1400), TcpOption::WindowScale(7)]),
                _ => builder.tcp_options(Vec::new()),
            };
            builder.build().unwrap()
        })
        .collect();
    let extract_ops = iterations * syns.len() as u64;
    let extract = timed("extract_syn", extract_ops, || {
        let mut keys = 0u64;
        for _ in 0..iterations {
            for frame in &syns {
                keys += u64::from(extract_syn(frame).is_some());
            }
        }
        assert_eq!(keys, iterations * syns.len() as u64);
    });

    let frames = frame_mix(1024);
    let batch: FrameBatch = frames.iter().collect();
    let sink_ops = iterations * frames.len() as u64;
    let sink = timed("classify_sink_extract", sink_ops, || {
        let mut table = FingerprintTable::new();
        for _ in 0..iterations {
            let counts = classify_batch_sink(&batch, |frame| {
                if let Some(key) = extract_syn(frame) {
                    table.observe_bits(key.to_bits());
                }
            });
            assert!(counts.total() > 0);
        }
        assert!(table.total() > 0);
    });
    BenchReport {
        name: "fingerprint",
        op: "frames through fingerprint extraction",
        cases: vec![extract, sink],
    }
}

/// Batched frame submission through the concurrent deployment's channel,
/// at the realistic cadence: arenas recycled through the
/// [`syndog_net::BatchPool`] (no per-batch allocation) and a flush barrier
/// every `FLUSH_CADENCE` batches — a deployment flushes at period close,
/// not after every batch.
pub fn bench_concurrent_submit(iterations: u64) -> BenchReport {
    /// Batches submitted between flush barriers.
    const FLUSH_CADENCE: u64 = 16;
    let frames = frame_mix(1024);
    let template: FrameBatch = frames.iter().collect();
    let ops = iterations * frames.len() as u64;
    let run = |dog: &ConcurrentSynDog| {
        for i in 0..iterations {
            let mut batch = dog.acquire_batch();
            batch.extend_from_batch(&template);
            dog.submit_batch(Direction::Outbound, batch);
            if (i + 1) % FLUSH_CADENCE == 0 {
                dog.flush();
            }
        }
        dog.flush();
    };
    let dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 256);
    let single = timed("batched_channel", ops, || run(&dog));
    drop(dog);
    let dog = ConcurrentSynDog::with_shards(
        DetectorKind::Syndog.build(SynDogConfig::paper_default()),
        256,
        OverflowPolicy::Block,
        4,
        None,
    );
    let sharded = timed("sharded_4", ops, || run(&dog));
    drop(dog);
    BenchReport {
        name: "concurrent_submit",
        op: "frames submitted and sniffed",
        cases: vec![single, sharded],
    }
}

/// An armed mitigation engine for `stub`, pushed over the engagement gate
/// the way a flooded stub gets there: through a [`SynDogAgent`] closing
/// three periods of 85 unanswered SYNs over `K̄ = 100` (x = 0.85, so the
/// gate climbs x − a = 0.5 per period and crosses N = 1.05 at the third).
pub fn engaged_engine(stub: Ipv4Net) -> MitigationEngine {
    let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default())
        .with_mitigation(MitigationPolicy::paper_default());
    for _ in 0..3 {
        agent.observe_period(PeriodSignals {
            syn: 185,
            synack: 100,
            fin: 0,
            rst: 0,
        });
    }
    let engine = agent.mitigation().cloned().expect("mitigation armed");
    assert!(engine.is_engaged());
    engine
}

/// The mitigation throttle's per-SYN admit/deny decision while engaged.
pub fn bench_throttle(ops: u64) -> BenchReport {
    let mut engine = engaged_engine("128.1.0.0/16".parse().unwrap());
    let syn = TraceRecord::new(
        SimTime::from_secs(60),
        Direction::Outbound,
        SegmentKind::Syn,
        "10.9.9.9:6000".parse().unwrap(),
        "199.0.0.80:80".parse().unwrap(),
    )
    .with_mac(MacAddr::for_host(9, 9));
    let case = timed("engaged_process", ops, || {
        for _ in 0..ops {
            let _ = engine.process(&syn);
        }
    });
    BenchReport {
        name: "throttle",
        op: "SYNs judged by the engaged throttle",
        cases: vec![case],
    }
}

/// Per-period `observe` throughput of every detection strategy.
pub fn bench_detector_observe(ops: u64) -> BenchReport {
    let cases = DetectorKind::ALL
        .iter()
        .map(|&kind| {
            let mut detector = kind.build(SynDogConfig::paper_default());
            timed(kind.name(), ops, || {
                let mut alarms = 0u64;
                for p in 0..ops {
                    // A quiet baseline with a flood in the back half, so
                    // every strategy exercises both branches of its rule.
                    let flood = if p % 64 >= 32 { 900 } else { 0 };
                    let d = detector.observe(PeriodSignals {
                        syn: 100 + flood,
                        synack: 95,
                        fin: 90,
                        rst: 5,
                    });
                    alarms += u64::from(d.alarm);
                }
                assert!(alarms > 0 || ops < 64);
            })
        })
        .collect();
    BenchReport {
        name: "detector_observe",
        op: "periods observed",
        cases,
    }
}

/// Stub-periods/s through the fleet's streaming count-level fold — the
/// rate at which one machine can simulate leaf vantage points. Uses a
/// short-duration LBL fleet so the loop body is dominated by the same
/// per-period work a 2,000-stub scale run pays.
pub fn bench_fleet_period(stubs: usize) -> BenchReport {
    use syndog_sim::par::Parallelism;
    use syndog_sim::SimDuration;
    use syndog_traffic::sites::SiteProfile;

    let template = SiteProfile::lbl().with_duration(SimDuration::from_secs(1200));
    let scenario = syndog_router::Scenario::uniform(
        "quickbench",
        &template,
        stubs,
        SynDogConfig::paper_default(),
        17,
    );
    let fleet = syndog_router::Fleet::new(scenario).with_parallelism(Parallelism::Fixed(1));
    // 1200 s at the paper's 20 s period = 60 periods per stub.
    let ops = (stubs as u64) * 60;
    let case = timed("stream_fold", ops, || {
        let rows = fleet.fold_counts(0usize, |n, _| *n += 1);
        assert_eq!(rows, stubs);
    });
    BenchReport {
        name: "fleet_period",
        op: "stub-periods folded (count-level, 1 worker)",
        cases: vec![case],
    }
}

/// Runs every quick benchmark, returning the in-memory reports.
pub fn run_reports(quick: bool) -> Vec<BenchReport> {
    let (iters, ops, stubs) = if quick {
        (4, 4096, 8)
    } else {
        (200, 200_000, 64)
    };
    vec![
        bench_classify(iters),
        bench_fingerprint_extract(iters),
        bench_concurrent_submit(iters),
        bench_throttle(ops),
        bench_detector_observe(ops),
        bench_fleet_period(stubs),
    ]
}

/// Runs every quick benchmark and writes the `BENCH_*.json` files under
/// `dir`. `quick` shrinks the loops for smoke tests.
pub fn run_all(dir: &Path, quick: bool) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("create benchmark output directory");
    run_reports(quick)
        .iter()
        .map(|report| report.write(dir))
        .collect()
}

/// Fraction a case's throughput may fall below its committed snapshot
/// before [`check_all`] flags it as a regression.
pub const REGRESSION_TOLERANCE: f64 = 0.30;

/// Extracts `(case, ops_per_sec)` pairs from a committed `BENCH_*.json`
/// body. The files are written by [`BenchReport::to_json`] with one case
/// per line, so a line scan is exact for everything this repo commits.
fn parse_committed(body: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find(['"', ',', '}'])?;
        Some(rest[..end].to_string())
    };
    body.lines()
        .filter_map(|line| {
            let case = field(line, "\"case\": \"")?;
            let ops: f64 = field(line, "\"ops_per_sec\": ")?.parse().ok()?;
            Some((case, ops))
        })
        .collect()
}

/// The outcome of comparing one fresh case against its committed snapshot.
#[derive(Debug, Clone)]
pub struct CheckLine {
    /// `report/case` identifier.
    pub case: String,
    /// Human-readable verdict for the log.
    pub message: String,
    /// Whether this case fell more than [`REGRESSION_TOLERANCE`] below
    /// its committed snapshot.
    pub regressed: bool,
}

/// Re-runs every benchmark and compares each case against the committed
/// `BENCH_*.json` snapshots under `dir`, WITHOUT overwriting them.
///
/// A case regresses when its fresh throughput drops more than
/// [`REGRESSION_TOLERANCE`] below the committed number. Missing snapshot
/// files and cases absent from a snapshot (both expected right after a
/// bench is added) are reported but never fail the check.
pub fn check_all(dir: &Path, quick: bool) -> Vec<CheckLine> {
    run_reports(quick)
        .iter()
        .flat_map(|report| {
            let path = dir.join(format!("BENCH_{}.json", report.name));
            let committed = match std::fs::read_to_string(&path) {
                Ok(body) => parse_committed(&body),
                Err(_) => {
                    return vec![CheckLine {
                        case: report.name.to_string(),
                        message: format!("no committed snapshot at {}; skipped", path.display()),
                        regressed: false,
                    }];
                }
            };
            report
                .cases
                .iter()
                .map(|case| {
                    let id = format!("{}/{}", report.name, case.case);
                    let fresh = case.ops_per_sec();
                    match committed.iter().find(|(name, _)| *name == case.case) {
                        Some((_, baseline)) => {
                            let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
                            let regressed = fresh < floor;
                            let verdict = if regressed { "REGRESSED" } else { "ok" };
                            CheckLine {
                                case: id,
                                message: format!(
                                    "{verdict}: {fresh:.0} ops/s vs committed {baseline:.0} \
                                     (floor {floor:.0})"
                                ),
                                regressed,
                            }
                        }
                        None => CheckLine {
                            case: id,
                            message: "not in committed snapshot; skipped".to_string(),
                            regressed: false,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_render_valid_json_shape() {
        let report = bench_detector_observe(256);
        assert_eq!(report.cases.len(), DetectorKind::ALL.len());
        let json = report.to_json();
        assert!(json.contains("\"name\": \"detector_observe\""));
        assert!(json.contains("\"ops_per_sec\""));
        for kind in DetectorKind::ALL {
            assert!(json.contains(kind.name()), "missing {kind}: {json}");
        }
        // Exactly one trailing entry without a comma.
        assert_eq!(json.matches("},\n").count(), DetectorKind::ALL.len() - 1);
    }

    #[test]
    fn parse_committed_reads_back_what_to_json_writes() {
        let report = BenchReport {
            name: "roundtrip",
            op: "ops",
            cases: vec![
                BenchCase {
                    case: "fast".into(),
                    ops: 1000,
                    elapsed_secs: 0.5,
                },
                BenchCase {
                    case: "slow".into(),
                    ops: 1000,
                    elapsed_secs: 2.0,
                },
            ],
        };
        let parsed = parse_committed(&report.to_json());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "fast");
        assert!((parsed[0].1 - 2000.0).abs() < 0.5);
        assert_eq!(parsed[1].0, "slow");
        assert!((parsed[1].1 - 500.0).abs() < 0.5);
    }

    #[test]
    fn check_flags_only_drops_past_the_tolerance() {
        let dir = std::env::temp_dir().join(format!("syndog-benchcheck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Committed snapshots nobody could regress against (0 ops/s floor)
        // pass; absurdly fast committed numbers flag every real case.
        for (speed, expect_regression) in [(0.001, false), (1e15, true)] {
            for name in [
                "classify",
                "fingerprint",
                "concurrent_submit",
                "throttle",
                "detector_observe",
                "fleet_period",
            ] {
                let body = format!(
                    "{{\n  \"results\": [\n    {{\"case\": \"any\", \"ops\": 1, \
                     \"elapsed_secs\": 1.0, \"ops_per_sec\": {speed}}}\n  ]\n}}\n"
                );
                std::fs::write(dir.join(format!("BENCH_{name}.json")), body).unwrap();
            }
            let lines = check_all(&dir, true);
            assert!(!lines.is_empty());
            // Every fresh case is "any"-less, so all are skipped; rewrite
            // the committed files under the real case names instead.
            assert!(lines.iter().all(|l| !l.regressed));
            for report in run_reports(true) {
                let mut renamed = report.clone();
                for case in &mut renamed.cases {
                    case.elapsed_secs = case.ops as f64 / speed;
                }
                renamed.write(&dir);
            }
            let lines = check_all(&dir, true);
            assert_eq!(
                lines.iter().any(|l| l.regressed),
                expect_regression,
                "committed speed {speed}: {lines:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_all_writes_the_six_artifacts() {
        let dir = std::env::temp_dir().join(format!("syndog-quickbench-{}", std::process::id()));
        let files = run_all(&dir, true);
        assert_eq!(files.len(), 6);
        for (file, name) in files.iter().zip([
            "BENCH_classify.json",
            "BENCH_fingerprint.json",
            "BENCH_concurrent_submit.json",
            "BENCH_throttle.json",
            "BENCH_detector_observe.json",
            "BENCH_fleet_period.json",
        ]) {
            assert_eq!(file.file_name().unwrap(), name);
            let body = std::fs::read_to_string(file).unwrap();
            assert!(body.contains("\"ops_per_sec\""), "{name}: {body}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
