//! Snapshot exporter: Prometheus text exposition.
//!
//! It renders a [`MetricsSnapshot`], whose samples are already in
//! deterministic `(name, labels)` order — so the output is a pure
//! function of the registry contents, byte-for-byte reproducible.

use crate::registry::{MetricSample, MetricsSnapshot, SampleValue};

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): one `# TYPE` line per metric name, then one line per series.
/// Distributions render as Prometheus `summary` metrics — `{quantile="…"}`
/// rows plus exact `_sum` and `_count`.
///
/// # Examples
///
/// ```
/// use skywalker_telemetry::{prometheus_text, MetricsRegistry};
///
/// let mut reg = MetricsRegistry::new();
/// reg.inc("requests_total", &[("region", "us-east-1")], 5);
/// let text = prometheus_text(&reg.snapshot());
/// assert!(text.contains("# TYPE requests_total counter"));
/// assert!(text.contains("requests_total{region=\"us-east-1\"} 5"));
/// ```
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for sample in &snap.samples {
        let name = sample.name.as_str();
        if last_name != Some(name) {
            let kind = match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Distribution { .. } => "summary",
            };
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_name = Some(name);
        }
        match &sample.value {
            SampleValue::Counter(c) => line(&mut out, sample, "", None, &c.to_string()),
            SampleValue::Gauge(v) => line(&mut out, sample, "", None, &fmt_float(*v)),
            SampleValue::Distribution {
                count,
                sum,
                p50,
                p90,
                p99,
            } => {
                for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
                    line(&mut out, sample, "", Some(q), &fmt_float(*v));
                }
                line(&mut out, sample, "_sum", None, &fmt_float(*sum));
                line(&mut out, sample, "_count", None, &count.to_string());
            }
        }
    }
    out
}

/// Writes one sample line: `name` and `suffix`, the label block
/// (`{a="1",b="2"}`, with an optional trailing `quantile` label; nothing
/// when there are no labels), and the value.
fn line(out: &mut String, sample: &MetricSample, suffix: &str, q: Option<&str>, value: &str) {
    out.push_str(&sample.name);
    out.push_str(suffix);
    let pairs = sample.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    let pairs = pairs.chain(q.map(|q| ("quantile", q)));
    let mut sep = '{';
    for (k, v) in pairs {
        out.push(sep);
        sep = ',';
        out.push_str(k);
        out.push_str("=\"");
        escape_label(out, v);
        out.push('"');
    }
    if sep == ',' {
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Appends a label value escaped per the exposition format: backslash,
/// quote, and newline.
fn escape_label(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Formats a float the way Prometheus expects: shortest round-trip decimal,
/// `+Inf`/`-Inf`/`NaN` for non-finite values.
fn fmt_float(v: f64) -> String {
    match v {
        f64::INFINITY => "+Inf".to_string(),
        f64::NEG_INFINITY => "-Inf".to_string(),
        _ => v.to_string(), // NaN displays as `NaN`
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn demo_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("requests_total", &[("region", "us-east-1")], 42);
        reg.inc("requests_total", &[("region", "eu-west-1")], 7);
        reg.set_gauge("queue_depth", &[], 3.5);
        for i in 1..=100 {
            reg.observe("ttft_seconds", &[("region", "us-east-1")], i as f64 * 0.01);
        }
        reg
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus_text(&demo_registry().snapshot());
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total{region=\"eu-west-1\"} 7"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 3.5"));
        assert!(text.contains("# TYPE ttft_seconds summary"));
        assert!(text.contains("ttft_seconds{region=\"us-east-1\",quantile=\"0.9\"}"));
        assert!(text.contains("ttft_seconds_count{region=\"us-east-1\"} 100"));
        // One TYPE line per metric name, not per series.
        assert_eq!(text.matches("# TYPE requests_total").count(), 1);
    }

    #[test]
    fn prometheus_text_is_deterministic() {
        let a = prometheus_text(&demo_registry().snapshot());
        let b = prometheus_text(&demo_registry().snapshot());
        assert_eq!(a, b);
        // eu-west-1 sorts before us-east-1 within the same metric name.
        let eu = a.find("requests_total{region=\"eu-west-1\"}").unwrap();
        let us = a.find("requests_total{region=\"us-east-1\"}").unwrap();
        assert!(eu < us);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.inc("x_total", &[("p", "a\"b\\c\nd")], 1);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains(r#"x_total{p="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn float_formatting_is_prometheus_shaped() {
        assert_eq!(fmt_float(0.25), "0.25");
        assert_eq!(fmt_float(f64::INFINITY), "+Inf");
        assert_eq!(fmt_float(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_float(f64::NAN), "NaN");
    }
}
