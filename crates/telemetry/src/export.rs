//! Exporters: one [`Snapshot`], three wire formats.
//!
//! - [`render_prometheus`] — the Prometheus text exposition format
//!   (`# TYPE` headers, labelled samples, cumulative histogram buckets
//!   with an implicit `+Inf` tail), what the scrape endpoint serves;
//! - [`render_jsonl`] / [`parse_jsonl`] — JSON Lines: one metrics line
//!   followed by one line per retained event, lossless round-trip through
//!   the vendored serde_json;
//! - [`render_csv`] — flat rows for spreadsheet-style analysis of the
//!   scalar metrics and histogram buckets (events carry nested fields and
//!   stay in JSONL).

use std::fmt::Write as _;

use serde::{Deserialize, Error, Serialize, Value};

use crate::events::Event;
use crate::snapshot::Snapshot;

/// The three exporter formats, as selected by the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportFormat {
    /// Prometheus text exposition.
    #[default]
    Prometheus,
    /// JSON Lines (metrics line + one line per event).
    JsonLines,
    /// Comma-separated rows.
    Csv,
}

impl ExportFormat {
    /// Parses a CLI name (`prom`/`prometheus`, `jsonl`/`json`, `csv`).
    pub fn parse(name: &str) -> Option<ExportFormat> {
        match name.to_lowercase().as_str() {
            "prom" | "prometheus" => Some(ExportFormat::Prometheus),
            "jsonl" | "json" => Some(ExportFormat::JsonLines),
            "csv" => Some(ExportFormat::Csv),
            _ => None,
        }
    }

    /// Infers a format from a file name's extension, if recognizable.
    pub fn from_path(path: &str) -> Option<ExportFormat> {
        let ext = path.rsplit('.').next()?;
        ExportFormat::parse(ext)
    }

    /// Renders a snapshot in this format.
    pub fn render(self, snapshot: &Snapshot) -> String {
        match self {
            ExportFormat::Prometheus => render_prometheus(snapshot),
            ExportFormat::JsonLines => render_jsonl(snapshot),
            ExportFormat::Csv => render_csv(snapshot),
        }
    }
}

fn escape_label_value(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Renders `{k="v",…}` (or nothing for no labels), with an optional extra
/// pair appended (the histogram `le`).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>, out: &mut String) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        escape_label_value(value, out);
        out.push('"');
    }
    out.push('}');
}

fn render_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

/// Emits a `# TYPE` header the first time each family name is seen.
fn type_header(name: &str, kind: &str, seen: &mut Vec<String>, out: &mut String) {
    if !seen.iter().any(|s| s == name) {
        seen.push(name.to_string());
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
}

/// Renders the Prometheus text exposition format.
///
/// Events are summarized rather than inlined (Prometheus has no event
/// type): `syndog_events_emitted_total` and `syndog_events_dropped_total`
/// are appended so scrapes can alert on event loss.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen = Vec::new();
    for counter in &snapshot.counters {
        type_header(&counter.name, "counter", &mut seen, &mut out);
        out.push_str(&counter.name);
        render_labels(&counter.labels, None, &mut out);
        let _ = writeln!(out, " {}", counter.value);
    }
    for gauge in &snapshot.gauges {
        type_header(&gauge.name, "gauge", &mut seen, &mut out);
        out.push_str(&gauge.name);
        render_labels(&gauge.labels, None, &mut out);
        let _ = writeln!(out, " {}", render_f64(gauge.value));
    }
    for histogram in &snapshot.histograms {
        type_header(&histogram.name, "histogram", &mut seen, &mut out);
        let mut cumulative = 0u64;
        for &(bound, count) in &histogram.buckets {
            cumulative += count;
            let _ = write!(out, "{}_bucket", histogram.name);
            render_labels(
                &histogram.labels,
                Some(("le", &bound.to_string())),
                &mut out,
            );
            let _ = writeln!(out, " {cumulative}");
        }
        let _ = write!(out, "{}_bucket", histogram.name);
        render_labels(&histogram.labels, Some(("le", "+Inf")), &mut out);
        let _ = writeln!(out, " {}", histogram.count);
        let _ = write!(out, "{}_sum", histogram.name);
        render_labels(&histogram.labels, None, &mut out);
        let _ = writeln!(out, " {}", histogram.sum);
        let _ = write!(out, "{}_count", histogram.name);
        render_labels(&histogram.labels, None, &mut out);
        let _ = writeln!(out, " {}", histogram.count);
    }
    let emitted = snapshot.events.len() as u64 + snapshot.events_dropped;
    type_header(
        "syndog_events_emitted_total",
        "counter",
        &mut seen,
        &mut out,
    );
    let _ = writeln!(out, "syndog_events_emitted_total {emitted}");
    type_header(
        "syndog_events_dropped_total",
        "counter",
        &mut seen,
        &mut out,
    );
    let _ = writeln!(
        out,
        "syndog_events_dropped_total {}",
        snapshot.events_dropped
    );
    out
}

/// Adapter: the vendored shim's `to_string` wants a `Serialize`, and
/// `Value` itself does not implement it.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn tagged(tag: &str, value: Value) -> Result<String, Error> {
    let Value::Map(mut entries) = value else {
        return Err(Error::custom("tagged line body must be a map"));
    };
    entries.insert(0, ("type".to_string(), Value::Str(tag.to_string())));
    serde_json::to_string(&Raw(Value::Map(entries)))
}

/// Renders JSON Lines: the first line holds every scalar metric and the
/// loss counter (`"type":"snapshot"`), then one `"type":"event"` line per
/// retained event, oldest first.
///
/// Rendering cannot fail for data produced by this crate: the only
/// rejectable content is a non-finite gauge, which JSON cannot represent
/// — those values are clamped (NaN to `0.0`, infinities to `±f64::MAX`).
pub fn render_jsonl(snapshot: &Snapshot) -> String {
    let metrics_only = Snapshot {
        counters: snapshot.counters.clone(),
        gauges: snapshot
            .gauges
            .iter()
            .map(|g| {
                let mut g = g.clone();
                if !g.value.is_finite() {
                    // JSON cannot hold non-finite floats; zero with a
                    // poisoned name would lie, so clamp to the largest
                    // representable signal instead.
                    g.value = if g.value.is_nan() {
                        0.0
                    } else {
                        f64::MAX.copysign(g.value)
                    };
                }
                g
            })
            .collect(),
        histograms: snapshot.histograms.clone(),
        events: Vec::new(),
        events_dropped: snapshot.events_dropped,
    };
    let mut out = tagged("snapshot", metrics_only.to_value())
        .expect("snapshot with finite gauges serializes");
    out.push('\n');
    for event in &snapshot.events {
        out.push_str(&tagged("event", event.to_value()).expect("events hold finite JSON values"));
        out.push('\n');
    }
    out
}

/// Parses text produced by `render_jsonl` back into a `Snapshot`.
///
/// # Errors
///
/// Returns an error for malformed JSON, an unknown line type, or a
/// missing leading snapshot line.
pub fn parse_jsonl(text: &str) -> Result<Snapshot, Error> {
    let mut snapshot: Option<Snapshot> = None;
    let mut events = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let value: ParsedLine = serde_json::from_str(line)?;
        match value {
            ParsedLine::Snapshot(s) if snapshot.is_none() => snapshot = Some(s),
            ParsedLine::Snapshot(_) => {
                return Err(Error::custom("duplicate snapshot line"));
            }
            ParsedLine::Event(e) => events.push(e),
        }
    }
    let mut snapshot = snapshot.ok_or_else(|| Error::custom("missing snapshot line"))?;
    snapshot.events = events;
    Ok(snapshot)
}

enum ParsedLine {
    Snapshot(Snapshot),
    Event(Event),
}

impl Deserialize for ParsedLine {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = serde::MapAccess::new(value, "jsonl line")?;
        match map.field("type")?.as_str() {
            Some("snapshot") => Ok(ParsedLine::Snapshot(Snapshot::from_value(value)?)),
            Some("event") => Ok(ParsedLine::Event(Event::from_value(value)?)),
            _ => Err(Error::custom("unknown jsonl line type")),
        }
    }
}

fn csv_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}={v}"));
    }
    parts.join(";")
}

fn csv_quote(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders flat CSV rows: `row_type,name,labels,value`.
///
/// Histograms expand to one `histogram_bucket` row per occupied bucket
/// (cumulative, matching Prometheus semantics) plus `histogram_sum` /
/// `histogram_count` rows. Events stay in JSONL — their nested fields do
/// not flatten honestly into a fixed-column row.
pub fn render_csv(snapshot: &Snapshot) -> String {
    let mut out = String::from("row_type,name,labels,value\n");
    let mut row = |row_type: &str, name: &str, labels: String, value: String| {
        let _ = writeln!(
            out,
            "{row_type},{},{},{value}",
            csv_quote(name),
            csv_quote(&labels)
        );
    };
    for c in &snapshot.counters {
        row(
            "counter",
            &c.name,
            csv_labels(&c.labels, None),
            c.value.to_string(),
        );
    }
    for g in &snapshot.gauges {
        row(
            "gauge",
            &g.name,
            csv_labels(&g.labels, None),
            render_f64(g.value),
        );
    }
    for h in &snapshot.histograms {
        let mut cumulative = 0u64;
        for &(bound, count) in &h.buckets {
            cumulative += count;
            row(
                "histogram_bucket",
                &h.name,
                csv_labels(&h.labels, Some(("le", bound.to_string()))),
                cumulative.to_string(),
            );
        }
        row(
            "histogram_sum",
            &h.name,
            csv_labels(&h.labels, None),
            h.sum.to_string(),
        );
        row(
            "histogram_count",
            &h.name,
            csv_labels(&h.labels, None),
            h.count.to_string(),
        );
    }
    row(
        "counter",
        "syndog_events_dropped_total",
        String::new(),
        snapshot.events_dropped.to_string(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HistogramSnapshot, MetricValue};

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![
                MetricValue {
                    name: "syndog_periods_total".into(),
                    labels: vec![],
                    value: 3,
                },
                MetricValue {
                    name: "syndog_segments_total".into(),
                    labels: vec![
                        ("interface".into(), "outbound".into()),
                        ("kind".into(), "syn".into()),
                    ],
                    value: 10,
                },
            ],
            gauges: vec![MetricValue {
                name: "syndog_cusum_statistic".into(),
                labels: vec![],
                value: 0.5,
            }],
            histograms: vec![HistogramSnapshot {
                name: "syndog_period_close_micros".into(),
                labels: vec![],
                buckets: vec![(1, 1), (2, 0), (4, 2)],
                count: 3,
                sum: 7,
            }],
            events: vec![],
            events_dropped: 0,
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE syndog_periods_total counter"));
        assert!(text.contains("syndog_periods_total 3"));
        assert!(text.contains("syndog_segments_total{interface=\"outbound\",kind=\"syn\"} 10"));
        assert!(text.contains("# TYPE syndog_cusum_statistic gauge"));
        assert!(text.contains("syndog_cusum_statistic 0.5"));
        // Cumulative buckets: 1, 1, 3, then +Inf = count.
        assert!(text.contains("syndog_period_close_micros_bucket{le=\"1\"} 1"));
        assert!(text.contains("syndog_period_close_micros_bucket{le=\"4\"} 3"));
        assert!(text.contains("syndog_period_close_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("syndog_period_close_micros_sum 7"));
        assert!(text.contains("syndog_period_close_micros_count 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut snap = Snapshot::default();
        snap.counters.push(MetricValue {
            name: "weird".into(),
            labels: vec![("path".into(), "a\"b\\c\nd".into())],
            value: 1,
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("weird{path=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn jsonl_roundtrip_preserves_snapshot() {
        let mut snap = sample_snapshot();
        snap.events.push(Event {
            seq: 5,
            t: 40.0,
            kind: "alarm_raised".into(),
            fields: vec![("y".into(), crate::events::FieldValue::F64(1.25))],
        });
        snap.events_dropped = 2;
        let text = render_jsonl(&snap);
        assert_eq!(text.lines().count(), 2);
        let restored = parse_jsonl(&text).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn csv_rows_cover_all_scalars() {
        let text = render_csv(&sample_snapshot());
        assert!(text.starts_with("row_type,name,labels,value\n"));
        assert!(text.contains("counter,syndog_periods_total,,3"));
        assert!(text.contains("counter,syndog_segments_total,interface=outbound;kind=syn,10"));
        assert!(text.contains("gauge,syndog_cusum_statistic,,0.5"));
        assert!(text.contains("histogram_bucket,syndog_period_close_micros,le=4,3"));
        assert!(text.contains("histogram_count,syndog_period_close_micros,,3"));
    }

    #[test]
    fn format_parsing() {
        assert_eq!(ExportFormat::parse("prom"), Some(ExportFormat::Prometheus));
        assert_eq!(ExportFormat::parse("JSONL"), Some(ExportFormat::JsonLines));
        assert_eq!(ExportFormat::parse("csv"), Some(ExportFormat::Csv));
        assert_eq!(ExportFormat::parse("xml"), None);
        assert_eq!(
            ExportFormat::from_path("out.prom"),
            Some(ExportFormat::Prometheus)
        );
        assert_eq!(
            ExportFormat::from_path("metrics.jsonl"),
            Some(ExportFormat::JsonLines)
        );
        assert_eq!(ExportFormat::from_path("x.bin"), None);
    }
}
