//! Plain-data views of the registry and event log, shared by every
//! exporter.
//!
//! A [`Snapshot`] is what crosses the boundary out of the subsystem: the
//! exporters ([`crate::export`]), the scrape endpoint ([`crate::scrape`])
//! and the CLI all consume this one shape. Serialization goes through the
//! vendored serde shim's `Value` data model so JSONL snapshots round-trip
//! losslessly (pinned by `tests/exporters.rs`).

use serde::{Deserialize, Error, Serialize, Value};

use crate::events::Event;
use crate::metrics::{Histogram, HISTOGRAM_BUCKETS};

/// One sampled series: a metric name, its sorted label pairs, and the
/// value read at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue<T> {
    /// Metric family name (e.g. `syndog_periods_total`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: T,
}

/// A histogram read at snapshot time: non-cumulative bucket counts for the
/// occupied prefix plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric family name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// `(inclusive upper bound, count)` per occupied bucket, in bound
    /// order. Empty trailing buckets are omitted.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Reads a live histogram into a snapshot.
    pub fn read(name: &str, labels: &[(String, String)], histogram: &Histogram) -> Self {
        let counts = histogram.bucket_counts();
        let last_occupied = counts.iter().rposition(|&c| c != 0);
        let buckets = match last_occupied {
            None => Vec::new(),
            Some(last) => (0..=last.min(HISTOGRAM_BUCKETS - 1))
                .map(|i| (Histogram::bucket_bound(i), counts[i]))
                .collect(),
        };
        HistogramSnapshot {
            name: name.to_string(),
            labels: labels.to_vec(),
            buckets,
            count: histogram.count(),
            sum: histogram.sum(),
        }
    }
}

/// Everything the telemetry subsystem knows at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<MetricValue<u64>>,
    /// All gauges.
    pub gauges: Vec<MetricValue<f64>>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// The retained tail of the structured event log, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring-buffer overwrite before this snapshot — made
    /// explicit so exporters can show the loss instead of hiding it.
    pub events_dropped: u64,
}

fn labels_to_value(labels: &[(String, String)]) -> Value {
    Value::Map(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

fn labels_from_value(value: &Value) -> Result<Vec<(String, String)>, Error> {
    let entries = value
        .as_map()
        .ok_or_else(|| Error::custom("labels must be a map"))?;
    entries
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_string()))
                .ok_or_else(|| Error::custom("label values must be strings"))
        })
        .collect()
}

impl<T: Serialize> Serialize for MetricValue<T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("labels".into(), labels_to_value(&self.labels)),
            ("value".into(), self.value.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for MetricValue<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = serde::MapAccess::new(value, "MetricValue")?;
        Ok(MetricValue {
            name: String::from_value(map.field("name")?)?,
            labels: labels_from_value(map.field("labels")?)?,
            value: T::from_value(map.field("value")?)?,
        })
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("labels".into(), labels_to_value(&self.labels)),
            (
                "buckets".into(),
                Value::Seq(
                    self.buckets
                        .iter()
                        .map(|&(le, n)| Value::Seq(vec![Value::U64(le), Value::U64(n)]))
                        .collect(),
                ),
            ),
            ("count".into(), Value::U64(self.count)),
            ("sum".into(), Value::U64(self.sum)),
        ])
    }
}

impl Deserialize for HistogramSnapshot {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = serde::MapAccess::new(value, "HistogramSnapshot")?;
        let buckets = map
            .field("buckets")?
            .as_seq()
            .ok_or_else(|| Error::custom("buckets must be a sequence"))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_seq()
                    .ok_or_else(|| Error::custom("bucket must be [le, count]"))?;
                match pair {
                    [le, n] => Ok((
                        le.as_u64().ok_or_else(|| Error::custom("bucket bound"))?,
                        n.as_u64().ok_or_else(|| Error::custom("bucket count"))?,
                    )),
                    _ => Err(Error::custom("bucket must be [le, count]")),
                }
            })
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(HistogramSnapshot {
            name: String::from_value(map.field("name")?)?,
            labels: labels_from_value(map.field("labels")?)?,
            buckets,
            count: u64::from_value(map.field("count")?)?,
            sum: u64::from_value(map.field("sum")?)?,
        })
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "counters".into(),
                Value::Seq(self.counters.iter().map(Serialize::to_value).collect()),
            ),
            (
                "gauges".into(),
                Value::Seq(self.gauges.iter().map(Serialize::to_value).collect()),
            ),
            (
                "histograms".into(),
                Value::Seq(self.histograms.iter().map(Serialize::to_value).collect()),
            ),
            (
                "events".into(),
                Value::Seq(self.events.iter().map(Serialize::to_value).collect()),
            ),
            ("events_dropped".into(), Value::U64(self.events_dropped)),
        ])
    }
}

impl Deserialize for Snapshot {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = serde::MapAccess::new(value, "Snapshot")?;
        fn seq_of<T: Deserialize>(value: &Value, what: &str) -> Result<Vec<T>, Error> {
            value
                .as_seq()
                .ok_or_else(|| Error::custom(format!("{what} must be a sequence")))?
                .iter()
                .map(T::from_value)
                .collect()
        }
        Ok(Snapshot {
            counters: seq_of(map.field("counters")?, "counters")?,
            gauges: seq_of(map.field("gauges")?, "gauges")?,
            histograms: seq_of(map.field("histograms")?, "histograms")?,
            events: seq_of(map.field("events")?, "events")?,
            events_dropped: u64::from_value(map.field("events_dropped")?)?,
        })
    }
}

impl Snapshot {
    /// The value of a counter with an exact label set, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == sorted)
            .map(|c| c.value)
    }

    /// The value of an unlabelled (or first-matching) gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_value_roundtrip() {
        let snap = Snapshot {
            counters: vec![MetricValue {
                name: "syndog_periods_total".into(),
                labels: vec![],
                value: 7,
            }],
            gauges: vec![MetricValue {
                name: "syndog_cusum_statistic".into(),
                labels: vec![("stub".into(), "10.0.0.0/8".into())],
                value: 0.25,
            }],
            histograms: vec![HistogramSnapshot {
                name: "lat".into(),
                labels: vec![],
                buckets: vec![(1, 2), (2, 0), (4, 1)],
                count: 3,
                sum: 6,
            }],
            events: Vec::new(),
            events_dropped: 1,
        };
        let restored = Snapshot::from_value(&snap.to_value()).unwrap();
        assert_eq!(restored, snap);
        assert_eq!(restored.counter("syndog_periods_total", &[]), Some(7));
        assert_eq!(restored.gauge("syndog_cusum_statistic"), Some(0.25));
    }

    #[test]
    fn counter_lookup_respects_labels() {
        let snap = Snapshot {
            counters: vec![
                MetricValue {
                    name: "syndog_segments_total".into(),
                    labels: vec![
                        ("interface".into(), "outbound".into()),
                        ("kind".into(), "syn".into()),
                    ],
                    value: 5,
                },
                MetricValue {
                    name: "syndog_segments_total".into(),
                    labels: vec![
                        ("interface".into(), "inbound".into()),
                        ("kind".into(), "synack".into()),
                    ],
                    value: 3,
                },
            ],
            ..Snapshot::default()
        };
        assert_eq!(
            snap.counter(
                "syndog_segments_total",
                &[("kind", "syn"), ("interface", "outbound")]
            ),
            Some(5)
        );
        assert_eq!(
            snap.counter(
                "syndog_segments_total",
                &[("interface", "inbound"), ("kind", "synack")]
            ),
            Some(3)
        );
        assert_eq!(snap.counter("syndog_segments_total", &[]), None);
    }
}
