//! The metrics registry: names + labels → shared metric handles.
//!
//! Registration is the cold path and takes a mutex; recording never does.
//! Instrumented code registers once at construction time, holds the
//! returned `Arc<Counter>` / `Arc<Gauge>` / `Arc<Histogram>`, and records
//! through that handle with relaxed atomics only. [`Registry::snapshot`]
//! walks the registered metrics and reads each atomically — a consistent
//! *per-metric* view, deliberately not a cross-metric barrier (see the
//! module docs in [`crate::metrics`]).

use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};

/// Owned label pairs, sorted by key at registration so `{a="1",b="2"}` and
/// `{b="2",a="1"}` name the same series.
pub type Labels = Vec<(String, String)>;

fn own_labels(labels: &[(&str, &str)]) -> Labels {
    let mut owned: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    owned.sort();
    owned
}

#[derive(Debug)]
struct Registered<M> {
    name: String,
    labels: Labels,
    metric: Arc<M>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<Registered<Counter>>,
    gauges: Vec<Registered<Gauge>>,
    histograms: Vec<Registered<Histogram>>,
}

fn get_or_insert<M: Default>(
    series: &mut Vec<Registered<M>>,
    name: &str,
    labels: &[(&str, &str)],
) -> Arc<M> {
    let labels = own_labels(labels);
    if let Some(existing) = series.iter().find(|r| r.name == name && r.labels == labels) {
        return Arc::clone(&existing.metric);
    }
    let metric = Arc::new(M::default());
    series.push(Registered {
        name: name.to_string(),
        labels,
        metric: Arc::clone(&metric),
    });
    metric
}

/// A named collection of metrics.
///
/// Cheap to share: wrap it in an `Arc` and hand clones to every subsystem
/// that reports into it. Registering the same `(name, labels)` twice
/// returns the same underlying metric, so independent components can
/// safely contribute to one series.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry would mean a panic mid-registration; the
        // data (atomics) is still sound, so recover rather than cascade.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gets or creates an unlabelled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Gets or creates a labelled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_insert(&mut self.lock().counters, name, labels)
    }

    /// Gets or creates an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gets or creates a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_insert(&mut self.lock().gauges, name, labels)
    }

    /// Gets or creates an unlabelled histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Gets or creates a labelled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        get_or_insert(&mut self.lock().histograms, name, labels)
    }

    /// Reads every registered metric into a plain-data [`Snapshot`]
    /// (without events — [`crate::Telemetry::snapshot`] adds those).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|r| MetricValue {
                    name: r.name.clone(),
                    labels: r.labels.clone(),
                    value: r.metric.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|r| MetricValue {
                    name: r.name.clone(),
                    labels: r.labels.clone(),
                    value: r.metric.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|r| HistogramSnapshot::read(&r.name, &r.labels, &r.metric))
                .collect(),
            events: Vec::new(),
            events_dropped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_a_metric() {
        let registry = Registry::new();
        let a = registry.counter_with("hits", &[("kind", "syn")]);
        let b = registry.counter_with("hits", &[("kind", "syn")]);
        let other = registry.counter_with("hits", &[("kind", "synack")]);
        a.add(3);
        b.add(4);
        other.inc();
        assert_eq!(a.get(), 7);
        assert_eq!(other.get(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let registry = Registry::new();
        let a = registry.gauge_with("depth", &[("a", "1"), ("b", "2")]);
        let b = registry.gauge_with("depth", &[("b", "2"), ("a", "1")]);
        a.set(5.0);
        assert_eq!(b.get(), 5.0);
        assert_eq!(registry.snapshot().gauges.len(), 1);
    }

    #[test]
    fn series_count_tracks_distinct_registrations() {
        let registry = Registry::new();
        let series_count = || {
            let snapshot = registry.snapshot();
            snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len()
        };
        assert_eq!(series_count(), 0);
        registry.counter("a");
        registry.counter("a"); // dedupes
        registry.gauge_with("b", &[("x", "1")]);
        registry.histogram("c");
        assert_eq!(series_count(), 3);
    }

    #[test]
    fn snapshot_reads_histograms() {
        let registry = Registry::new();
        let h = registry.histogram("latency");
        h.record(3);
        h.record(100);
        let snap = registry.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 2);
        assert_eq!(snap.histograms[0].sum, 103);
    }
}
