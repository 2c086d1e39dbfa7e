//! `syndog-telemetry` — observability for an unattended detector.
//!
//! SYN-dog runs at every leaf router with nobody watching. Threshold
//! tuning and false-alarm analysis need continuous visibility into the
//! detector's internal series (`y_n`, per-interface SYN / SYN-ACK
//! tallies, throttle counters), which this crate provides as three
//! pieces:
//!
//! - **metrics** ([`Counter`], [`Gauge`], [`Histogram`] in a
//!   `Registry`) — the record path is relaxed atomics only, safe to
//!   call from the fleet's worker threads sharing one hub while a scrape
//!   reads it;
//! - **events** (`EventLog`) — a bounded ring of structured
//!   `Event`s (alarm transitions, period closes) with sequence numbers
//!   and an explicit overwrite-loss counter, so dropped history is
//!   observable rather than silent;
//! - **exporters** (`export`) — Prometheus text exposition, JSON
//!   Lines and CSV over one shared `Snapshot` shape, plus a std-only
//!   [`ScrapeServer`] HTTP endpoint.
//!
//! For fleet-scale deployments, `budget` adds label-cardinality
//! control: a [`LabelBudget`] decides when per-item labels give way to
//! grouped rollup series plus a bounded [`TopK`] spotlight, so a
//! 10k-agent fleet cannot explode a scrape.
//!
//! [`Telemetry`] bundles one registry with one event log; the rest of
//! the workspace shares it behind an `Arc`:
//!
//! ```
//! use std::sync::Arc;
//! use syndog_telemetry::{FieldValue, Telemetry};
//!
//! let telemetry = Arc::new(Telemetry::new());
//! let periods = telemetry.registry().counter("syndog_periods_total");
//! periods.inc();
//! telemetry.events().emit(20.0, "period_closed", [("syn", FieldValue::U64(14))]);
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter("syndog_periods_total", &[]), Some(1));
//! assert_eq!(snapshot.events.len(), 1);
//! let exposition = syndog_telemetry::ExportFormat::Prometheus.render(&snapshot);
//! assert!(exposition.contains("syndog_periods_total 1"));
//! ```

mod budget;
mod events;
mod export;
mod metrics;
mod registry;
mod scrape;
mod snapshot;

pub use budget::{LabelBudget, LabelMode, TopK};
pub use events::FieldValue;
pub use export::{parse_jsonl, ExportFormat};
pub use metrics::{Counter, Gauge, Histogram};
pub use scrape::{RouteHandler, ScrapeServer};

use events::EventLog;
use registry::Registry;
use snapshot::Snapshot;

/// Default number of events retained by [`Telemetry::new`] — three hours
/// of 20 s periods with room for transition events, small enough to stay
/// memory-bounded under event storms.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One registry plus one event log: the unit the whole stack reports
/// into, shared behind an `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
    events: EventLog,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A telemetry hub with the default event capacity.
    pub fn new() -> Self {
        Telemetry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A telemetry hub retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (see `EventLog::new`).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Telemetry {
            registry: Registry::new(),
            events: EventLog::new(capacity),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Reads metrics and the retained event tail into one `Snapshot`.
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = self.registry.snapshot();
        snapshot.events = self.events.tail();
        snapshot.events_dropped = self.events.dropped();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_combines_metrics_and_events() {
        let telemetry = Telemetry::with_event_capacity(2);
        telemetry.registry().counter("c").add(5);
        telemetry.registry().gauge("g").set(1.5);
        for i in 0..3 {
            telemetry
                .events()
                .emit(i as f64, "tick", [("i", FieldValue::U64(i))]);
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("c", &[]), Some(5));
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 1);
        assert_eq!(snap.events[0].seq, 1);
    }
}
