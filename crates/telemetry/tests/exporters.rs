//! Exporter contract tests: the Prometheus text output must *parse* by
//! the exposition grammar (not just contain substrings), and JSONL
//! snapshots must round-trip losslessly through the vendored serde_json.

use syndog_telemetry::export::{parse_jsonl, render_jsonl, render_prometheus};
use syndog_telemetry::{FieldValue, Snapshot, Telemetry};

/// Builds a telemetry hub with every metric shape the stack registers.
fn populated_telemetry() -> Telemetry {
    let telemetry = Telemetry::with_event_capacity(8);
    let registry = telemetry.registry();
    registry.counter("syndog_periods_total").add(42);
    registry
        .counter_with(
            "syndog_segments_total",
            &[("interface", "outbound"), ("kind", "syn")],
        )
        .add(1200);
    registry
        .counter_with(
            "syndog_segments_total",
            &[("interface", "inbound"), ("kind", "synack")],
        )
        .add(1100);
    registry.gauge("syndog_cusum_statistic").set(0.75);
    registry
        .gauge_with("syndog_alarm_active", &[("stub", "128.3.0.0/16")])
        .set(1.0);
    let latency = registry.histogram("syndog_period_close_micros");
    for v in [0, 1, 5, 17, 1000, 65_536] {
        latency.record(v);
    }
    for period in 0..10u64 {
        telemetry.events().emit(
            (period + 1) as f64 * 20.0,
            "period_closed",
            [
                ("period", FieldValue::U64(period)),
                ("y", FieldValue::F64(period as f64 * 0.1)),
            ],
        );
    }
    telemetry
}

/// One parsed Prometheus sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A minimal parser for the Prometheus text exposition format. Rejects
/// anything the grammar would: missing values, unterminated label quotes,
/// samples whose family has no preceding `# TYPE` header.
fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut families: Vec<(String, String)> = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let lineno = number + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts.next().ok_or(format!("{lineno}: TYPE without name"))?;
                let kind = parts.next().ok_or(format!("{lineno}: TYPE without kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("{lineno}: unknown metric type {kind}"));
                }
                families.push((name.to_string(), kind.to_string()));
            }
            continue;
        }
        // sample: name[{labels}] value
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or(format!("{lineno}: sample without value"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => other
                .parse()
                .map_err(|_| format!("{lineno}: bad value {other:?}"))?,
        };
        let (name, labels) = match name_and_labels.split_once('{') {
            None => (name_and_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or(format!("{lineno}: unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in body.split(',') {
                    let (key, quoted) = pair
                        .split_once('=')
                        .ok_or(format!("{lineno}: label without '='"))?;
                    let value = quoted
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or(format!("{lineno}: unquoted label value"))?;
                    labels.push((key.to_string(), value.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        // Histogram child series (`_bucket`/`_sum`/`_count`) belong to
        // their base family's TYPE header.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| families.iter().any(|(n, k)| n == base && k == "histogram"))
            .unwrap_or(&name);
        if !families.iter().any(|(n, _)| n == family) {
            return Err(format!("{lineno}: sample {name} has no # TYPE header"));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[test]
fn prometheus_output_parses_by_the_exposition_grammar() {
    let telemetry = populated_telemetry();
    let text = render_prometheus(&telemetry.snapshot());
    let samples = parse_prometheus(&text).expect("exposition must parse");

    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(find("syndog_periods_total").value, 42.0);
    assert_eq!(find("syndog_cusum_statistic").value, 0.75);

    let syn = samples
        .iter()
        .find(|s| {
            s.name == "syndog_segments_total" && s.labels.contains(&("kind".into(), "syn".into()))
        })
        .expect("labelled syn series");
    assert_eq!(syn.value, 1200.0);
    assert!(syn
        .labels
        .contains(&("interface".into(), "outbound".into())));

    // Histogram invariants: buckets are cumulative and end at +Inf ==
    // count, and the per-family TYPE header admitted the child series.
    let buckets: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "syndog_period_close_micros_bucket")
        .collect();
    assert!(buckets.len() >= 2);
    let mut last = 0.0;
    for bucket in &buckets {
        assert!(bucket.value >= last, "buckets must be cumulative");
        last = bucket.value;
    }
    let inf = buckets.last().expect("at least one bucket");
    assert!(inf.labels.contains(&("le".into(), "+Inf".into())));
    assert_eq!(inf.value, find("syndog_period_close_micros_count").value);
    assert_eq!(find("syndog_period_close_micros_count").value, 6.0);
}

#[test]
fn prometheus_parser_rejects_malformed_expositions() {
    assert!(parse_prometheus("no_type_header 1").is_err());
    assert!(parse_prometheus("# TYPE x counter\nx{a=\"1\"").is_err());
    assert!(parse_prometheus("# TYPE x counter\nx{a=1} 2").is_err());
    assert!(parse_prometheus("# TYPE x counter\nx").is_err());
    assert!(parse_prometheus("# TYPE x widget\nx 1").is_err());
}

#[test]
fn jsonl_snapshot_roundtrips_through_vendored_serde_json() {
    let telemetry = populated_telemetry();
    // Overflow the 8-event ring so the loss counter is non-trivial.
    for i in 0..4u64 {
        telemetry
            .events()
            .emit(500.0, "alarm_raised", [("period", FieldValue::U64(i))]);
    }
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.events_dropped, 6, "14 emitted, 8 retained");

    let text = render_jsonl(&snapshot);
    // One metrics line + one line per retained event.
    assert_eq!(text.lines().count(), 1 + snapshot.events.len());
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL line: {line}"
        );
    }

    let restored = parse_jsonl(&text).expect("rendered JSONL must parse");
    assert_eq!(restored, snapshot, "round-trip must be lossless");
    // Spot-check that equality actually covered the interesting parts.
    assert_eq!(
        restored.counter(
            "syndog_segments_total",
            &[("interface", "outbound"), ("kind", "syn")]
        ),
        Some(1200)
    );
    assert_eq!(
        restored.counter(
            "syndog_segments_total",
            &[("interface", "inbound"), ("kind", "synack")]
        ),
        Some(1100)
    );
    assert_eq!(restored.gauge("syndog_cusum_statistic"), Some(0.75));
    assert_eq!(restored.events.len(), 8);
    assert_eq!(restored.events.last().unwrap().kind, "alarm_raised");
}

#[test]
fn jsonl_parser_rejects_garbage() {
    assert!(parse_jsonl("").is_err(), "no snapshot line");
    assert!(parse_jsonl("{\"type\":\"event\"}").is_err());
    assert!(parse_jsonl("not json at all").is_err());
    let telemetry = Telemetry::new();
    let line = render_jsonl(&telemetry.snapshot());
    let doubled = format!("{line}{line}");
    assert!(parse_jsonl(&doubled).is_err(), "duplicate snapshot line");
}

#[test]
fn empty_snapshot_still_renders_everywhere() {
    let snapshot = Snapshot::default();
    let prom = render_prometheus(&snapshot);
    assert!(parse_prometheus(&prom).is_ok());
    assert!(prom.contains("syndog_events_dropped_total 0"));
    let restored = parse_jsonl(&render_jsonl(&snapshot)).unwrap();
    assert_eq!(restored, snapshot);
}
