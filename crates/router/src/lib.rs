//! The leaf-router side of SYN-dog: sniffers, the detection agent, and
//! flooding-source localization.
//!
//! §2 of the paper: "The SYN-dog consists of two Sniffers, which are
//! installed at the inbound and outbound interfaces of a leaf router …
//! The two sniffers coordinate with each other via shared memory, or IPC
//! inside the router, and periodically exchange the counting information."
//!
//! - `sniffer` — the stateless per-interface counters, fed classified
//!   segments (trace records, or frames the §2 classifier has judged),
//! - `router` — a simulated leaf router binding a stub network prefix to
//!   its two sniffers and slicing time into observation periods,
//! - `agent` — [`SynDogAgent`]: the full pipeline from a packet/record
//!   stream to alarms, wrapping the core detector,
//! - `episodes` — attack-episode extraction (onset / end / peak) from
//!   the detection series, exploiting the CUSUM's climb-and-drain shape,
//! - `locate` — §4.2.3's post-alarm source localization by per-MAC
//!   accounting of spoofed-source SYNs,
//! - `mitigate` — the detect→act loop an alarm enables at the first
//!   mile: keyed token-bucket SYN throttles sized from the stub's `K̄`,
//!   installed on alarm and released by hysteresis, with full
//!   throttled/passed/collateral accounting,
//! - `source` — the frame ingestion boundary: [`PcapSource`] streams a
//!   capture as batches of classified events through
//!   [`LeafRouter::ingest`]; every record stream (a capture read by
//!   `RecordReader`, or an in-memory trace) takes the record loop,
//!   [`SynDogAgent::run_trace_with`], instead,
//! - `fleet` — the distributed deployment the paper actually argues
//!   for: a declarative [`Scenario`] of stub networks (each with its own
//!   workload and optional flooding slave) run by a [`Fleet`] of agents on
//!   a deterministic thread scope, reporting per-stub alarms, delays and
//!   localization cross-checked against `syndog-traceback` topology; the
//!   count-level paths stream compact rows so fleets scale to thousands
//!   of stubs in O(stubs) memory,
//! - `correlate` — the hierarchical tier above the fleet: regional
//!   collectors subscribe to leaf alarm-onset edges, cluster them in
//!   time, and reconstruct a distributed flood's `CampaignReport` —
//!   the master/slave stub sets a per-stub table cannot show — verified
//!   against the same traceback topology,
//! - `faults` — deterministic, seeded fault injection
//!   ([`FaultSpec::faulted`]): one pass over a record stream that every
//!   front end shares, for proving detection degrades gracefully under
//!   loss / reordering / corruption,
//! - `checkpoint` — versioned, CRC-checked capture/restore of detector
//!   and router state, so a restarted agent resumes mid-trace without
//!   re-learning `K̄`,
//! - `telemetry` — the named metric series and structured events the
//!   agent reports into a shared
//!   [`syndog_telemetry::Telemetry`] hub; registration is up-front and
//!   the record path is relaxed atomics, so instrumentation never
//!   touches the ingest hot path.
//!
//! [`LeafRouter::ingest`]: router::LeafRouter::ingest

mod agent;
mod checkpoint;
mod correlate;
mod episodes;
mod faults;
mod fleet;
mod locate;
mod mitigate;
mod router;
mod sniffer;
mod source;
mod telemetry;

pub use agent::SynDogAgent;
pub use checkpoint::{crc32, Checkpoint, CheckpointError};
pub use correlate::CollectorConfig;
pub use faults::{FaultLedger, FaultSpec};
pub use fleet::{Fleet, FleetReport, Scenario, StubReport};
pub use locate::SourceLocator;
pub use mitigate::{KeyMode, MitigationEngine, MitigationPolicy};
pub use router::LeafRouter;
pub use source::{EventBatch, FrameSource, PcapSource, DEFAULT_BATCH_SIZE};
pub use telemetry::FaultTelemetry;
