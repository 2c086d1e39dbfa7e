//! `pipebench`: SYN-dog's capture-to-decision benchmark.
//!
//! SYN-dog sits on a leaf router. It must keep up with the stub's traffic
//! and reach a decision for every 20 s observation period. This benchmark
//! measures both from the operator's side: pcap bytes (or per-period
//! counts) in, per-period detections and throttle decisions out, through
//! the same public entry points the `syndog` CLI drives. Each workload
//! runs in its own process on one thread. A round is one full pass of the
//! input through a fresh pipeline, and the load is a closed loop: the
//! pipeline pulls its next frame when it has finished the last one.
//!
//! # Workloads
//!
//! | workload | path | input | why |
//! |---|---|---|---|
//! | `unc-flood-detect` | `Trace::read_pcap` → `SynDogAgent::filter_record` per record → `close_periods_to`, paper detector, `--throttle-key fingerprint` | UNC plus an 80 SYN/s tool-fingerprinted flood from t = 600 s for 600 s, cut to its first 2.4 M frames (≈ 59 min, ≈ 176 MB of pcap held in memory) | the whole operator pipeline with throttles engaged for 30 periods; import, fingerprinting and bucketed mitigation all do real work |
//! | `unc-flood-sniff` | `PcapSource` → `SynDogAgent::run_source` (`LeafRouter::ingest`) | the same bytes | the same decode and classify front half with no materialized trace, no fingerprints and no mitigation: the prediction for import, fingerprint and mitigation changes is "no change" |
//! | `unc-flashcrowd-detect` | the record path, `syn-cusum` detector, `/24`-keyed mitigation with exoneration | UNC plus a 2× surge of completed handshakes carrying OS-mix fingerprints from t = 600 s for 600 s, cut to its first 2.4 M frames | the census, entropy and exoneration run every surge period, no bucket is ever created, and the fingerprint table is high-entropy: a change that speeds up buckets at the cost of the census shows here |
//! | `lbl-fleet-counts` | `Fleet::fold_counts` at `Parallelism::Fixed(1)`, mitigation armed | 4,000 one-hour LBL stubs × 180 periods; every 20th stub hosts a 6 SYN/s slave of a distributed flood | no frames: count generation, detector steps and `count_throttle` dominate, so the prediction for every frame-path change is "no change" |
//!
//! # End-to-end metrics
//!
//! Measured with tracing off. `--seconds` runs from the end of the first
//! set-up build: two untimed warm-up rounds, then measured rounds, with
//! the further set-up builds spread among them.
//!
//! - `items_per_s` (1/s, higher is better): offered items per round —
//!   frames on the capture workloads, stub-periods on the fleet — over the
//!   round time, at the stated input size. Each round is cut into segments
//!   of a millisecond or two at fixed points of its input, and the round
//!   time is the sum of each segment's fastest pass over the measured
//!   rounds (see [`laps`]): on a shared host, other tenants slow the CPU
//!   in bursts that come and go within a second, and a short segment still
//!   finds a quiet moment where a whole round does not. Successive rounds
//!   and set-up builds run on the process's CPUs in turn (see [`cpus`]),
//!   so a CPU slowed for seconds by its busy hyperthread sibling does not
//!   slow the whole run. The whole rounds'
//!   median, quartiles and fastest rate are printed beside it. The frame
//!   workloads also print `stub_periods_per_s`, the rate of per-period
//!   decisions (one stub-period is one stub's 20 s period). Captures are
//!   cut to a fixed frame count because an hour of UNC holds 2.27–2.57 M
//!   frames depending on the seed, and round time and memory follow it.
//! - `peak_rss_mib` (MiB, lower): `VmHWM` over the rounds: the mark is
//!   reset after every set-up build, so it covers the pipeline plus the
//!   resident input, never a second copy of the input.
//! - `setup_s` (s, lower): building the input (capture or scenario, plus
//!   the trace-path reference alarm). The input is built at five points
//!   of the run — before the rounds, then evenly among them — once per
//!   point for a capture and 256 times per later point for the fleet's
//!   sub-millisecond scenario. A capture build is cut into segments like
//!   a round: trace generation, the reference detector run, then every
//!   MiB of pcap written. `setup_s` is the sum of each segment's fastest
//!   pass over the builds (for the fleet, whose build is one segment, the
//!   fastest build): a capture build takes over a second, long enough
//!   that the host's bursts slow most builds, and its pcap export, which
//!   first-touches ≈ 180 MB, varies most. The whole builds' median and
//!   fastest time are printed beside it.
//! - `failed_frac` (printed, and as `failed` / `attempted` in the result
//!   line): items rejected, malformed or skipped over those offered.
//!
//! # Per-layer metrics (`--trace`)
//!
//! A traced run first measures untraced rounds for half of `--seconds`,
//! then rebuilds each path from its layers' public calls for the other
//! half, recording a span (name, start, end, parent, round) around every
//! call into a layer: one span per batch of up to 256 calls for per-frame
//! layers, one per call for per-period layers (see [`traced`]). It
//! reports each layer's self time per operation (ns) and prints its
//! operation count. A per-call span includes a clock read, which
//! dominates the cheapest per-period calls (`router.mitigate.count_throttle`
//! reads ≈ 60 ns). Which end-to-end metric each layer should move:
//!
//! | layer | should move |
//! |---|---|
//! | `net.pcap`, `net.classify`, `net.packet`, `fingerprint.extract`, `traffic.trace.import`, `traffic.trace.sort` (+ `fingerprint.hit_ratio`, `traffic.trace.resident_mib`) | `items_per_s` and `peak_rss_mib` on the detect workloads; no change on sniff |
//! | `router.source` | sniff `items_per_s` |
//! | `router.tally` | `items_per_s` on all three frame workloads |
//! | `router.close`, `core.detect`, `router.mitigate.gate` | fleet `items_per_s`; a small share of the frame workloads' |
//! | `router.mitigate.judge.engaged` / `.disengaged` (+ `router.mitigate.throttled`, `router.mitigate.exonerated`, `fingerprint.table.distinct`) | the flood (buckets) against the flash crowd (census) |
//! | `traffic.sites`, `attack.flood`, `router.mitigate.count_throttle`, `router.fleet.stub` | fleet `items_per_s` |
//! | `router.agent` | the agent loop's own work on the frame workloads |
//!
//! `trace.self_sum_ratio` is the layers' summed self time over the traced
//! wall time (a check holds it within 10%), and `trace.overhead` the
//! median traced round over the median untraced round. A layer a workload
//! never calls reads 0. The concurrent `replay` path (three threads) and
//! the `serve` daemon (checkpoint writes hit the disk) are left out.
//!
//! # Checks
//!
//! Every round's decisions are digested and must equal the first round's;
//! traced rounds must equal untraced ones. The pinned expectations hold
//! for every seed (see [`workloads::expectations`]): detect and sniff
//! alarm in the same period as the paper detector over the generated
//! trace, inside the flood window; the flood throttle engages with zero
//! collateral; the flash crowd never engages and is exonerated at least
//! once; every attacked fleet stub is implicated. Any failed check makes
//! the run exit nonzero.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload unc-flood-detect --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 1` (or a bare `--trace`) reports the per-layer metrics,
//! `--quick` runs a two-minute capture or a 40-stub fleet for two rounds,
//! and `--out DIR` writes the report and, when traced, every span as CSV.
//! The run prints its facts (host `nproc`, commit, seed, round counts,
//! input sizes), every check and every metric, then one JSON result line.
//! `cargo test --manifest-path pipebench/Cargo.toml` runs every workload
//! under `--quick`, untraced and traced, checks that each capture survives
//! a pcap round trip, and holds the traced import to `Trace::read_pcap`.
//! The package has a workspace of its own, so the repository's
//! `cargo test` does not run these.

pub mod capture;
pub mod cpus;
pub mod laps;
pub mod run;
pub mod traced;
pub mod workloads;

pub use run::{run, Options, Report};
