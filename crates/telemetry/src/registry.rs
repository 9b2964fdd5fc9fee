//! Labeled metrics registry with a deterministic snapshot order.
//!
//! A [`MetricsRegistry`] holds three metric kinds — monotonic counters,
//! point-in-time gauges, and sketch-backed distributions — keyed by metric
//! name plus an *ordered* label set. All storage is `BTreeMap`, so snapshot
//! and export order is a pure function of the registered names and labels
//! (lint rule D02 clean), never of insertion or hash order.

use std::collections::BTreeMap;

use crate::sketch::QuantileSketch;

/// A metric identity: name plus sorted `(key, value)` label pairs.
///
/// Labels are sorted at construction, so `[("b", "2"), ("a", "1")]` and
/// `[("a", "1"), ("b", "2")]` name the same series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style, e.g. `skywalker_ttft_seconds`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// The kind of a metric name. One name has exactly one kind across all of
/// its label sets — mixing kinds under one name would make the exposition
/// format ambiguous, so the registry panics on the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing `u64`.
    Counter,
    /// Point-in-time `f64`, overwritten on every set.
    Gauge,
    /// Sketch-backed value distribution.
    Distribution,
}

#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Sketch(QuantileSketch),
}

/// A registry of counters, gauges, and sketch distributions.
///
/// # Examples
///
/// ```
/// use skywalker_telemetry::{MetricsRegistry, SampleValue};
///
/// let mut reg = MetricsRegistry::new();
/// reg.inc("requests_total", &[("region", "us-east-1")], 3);
/// reg.set_gauge("queue_depth", &[], 7.0);
/// reg.observe("ttft_seconds", &[("region", "us-east-1")], 0.120);
/// reg.observe("ttft_seconds", &[("region", "us-east-1")], 0.480);
///
/// let snap = reg.snapshot();
/// let requests = snap.get("requests_total", &[("region", "us-east-1")]).unwrap();
/// assert_eq!(requests.value, SampleValue::Counter(3));
/// assert_eq!(snap.samples.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, Metric>,
    kinds: BTreeMap<String, MetricKind>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.check_kind(name, MetricKind::Counter);
        let key = MetricKey::new(name, labels);
        match self.metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Sets a gauge to `v` (non-finite values are ignored).
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if !v.is_finite() {
            return;
        }
        self.check_kind(name, MetricKind::Gauge);
        let key = MetricKey::new(name, labels);
        self.metrics.insert(key, Metric::Gauge(v));
    }

    /// Records one observation into a sketch distribution, creating the
    /// sketch on first use.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.check_kind(name, MetricKind::Distribution);
        let key = MetricKey::new(name, labels);
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Sketch(QuantileSketch::new()))
        {
            Metric::Sketch(s) => s.record(v),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Borrows a sketch distribution, if it exists.
    pub fn sketch(&self, name: &str, labels: &[(&str, &str)]) -> Option<&QuantileSketch> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric::Sketch(s)) => Some(s),
            _ => None,
        }
    }

    /// A point-in-time snapshot of every series, in deterministic
    /// `(name, labels)` order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let samples = self
            .metrics
            .iter()
            .map(|(key, metric)| MetricSample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(*c),
                    Metric::Gauge(v) => SampleValue::Gauge(*v),
                    Metric::Sketch(s) => SampleValue::Distribution {
                        count: s.count(),
                        sum: s.sum(),
                        p50: s.quantile(0.50),
                        p90: s.quantile(0.90),
                        p99: s.quantile(0.99),
                    },
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    fn check_kind(&mut self, name: &str, kind: MetricKind) {
        match self.kinds.get(name) {
            None => {
                self.kinds.insert(name.to_string(), kind);
            }
            Some(existing) => assert!(
                *existing == kind,
                "metric {name:?} already registered as {existing:?}, cannot reuse as {kind:?}"
            ),
        }
    }
}

/// One exported series value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Sketch distribution rollup: exact count and sum, approximate
    /// percentiles (within the sketch's relative-error bound).
    Distribution {
        /// Exact observation count.
        count: u64,
        /// Exact observation sum.
        sum: f64,
        /// Approximate median.
        p50: f64,
        /// Approximate 90th percentile.
        p90: f64,
        /// Approximate 99th percentile.
        p99: f64,
    },
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The series value at snapshot time.
    pub value: SampleValue,
}

/// A deterministic point-in-time view of a registry: samples sorted by
/// `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Exported series, in deterministic order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Number of exported series.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Finds a sample by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        let key = MetricKey::new(name, labels);
        self.samples
            .iter()
            .find(|s| s.name == key.name && s.labels == key.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value `reg` exports for one series, if it has it.
    fn value(reg: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> Option<SampleValue> {
        reg.snapshot().get(name, labels).map(|s| s.value.clone())
    }

    #[test]
    fn counters_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.inc("hits_total", &[], 1);
        reg.inc("hits_total", &[], 2);
        assert_eq!(
            value(&reg, "hits_total", &[]),
            Some(SampleValue::Counter(3))
        );
        assert_eq!(value(&reg, "misses_total", &[]), None);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let mut reg = MetricsRegistry::new();
        reg.inc("x_total", &[("b", "2"), ("a", "1")], 1);
        reg.inc("x_total", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(reg.snapshot().len(), 1);
        let labels = [("a", "1"), ("b", "2")];
        assert_eq!(
            value(&reg, "x_total", &labels),
            Some(SampleValue::Counter(2))
        );
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("depth", &[], 4.0);
        reg.set_gauge("depth", &[], 2.0);
        reg.set_gauge("depth", &[], f64::NAN);
        assert_eq!(value(&reg, "depth", &[]), Some(SampleValue::Gauge(2.0)));
    }

    #[test]
    fn observations_feed_a_sketch() {
        let mut reg = MetricsRegistry::new();
        for i in 1..=100 {
            reg.observe("lat", &[("region", "eu-west-1")], i as f64);
        }
        let s = reg.sketch("lat", &[("region", "eu-west-1")]).unwrap();
        assert_eq!(s.count(), 100);
        let p50 = s.quantile(0.5);
        assert!((p50 - 50.0).abs() / 50.0 < 0.02, "p50 = {p50}");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let mut reg = MetricsRegistry::new();
        reg.inc("thing", &[], 1);
        reg.set_gauge("thing", &[], 1.0);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        // Register in two different orders; snapshots must be identical.
        let mut a = MetricsRegistry::new();
        a.inc("z_total", &[], 1);
        a.set_gauge("a_gauge", &[("r", "2")], 2.0);
        a.set_gauge("a_gauge", &[("r", "1")], 1.0);

        let mut b = MetricsRegistry::new();
        b.set_gauge("a_gauge", &[("r", "1")], 1.0);
        b.inc("z_total", &[], 1);
        b.set_gauge("a_gauge", &[("r", "2")], 2.0);

        assert_eq!(a.snapshot(), b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.samples[0].name, "a_gauge");
        assert_eq!(snap.samples[0].labels, vec![("r".into(), "1".into())]);
        assert_eq!(snap.samples[2].name, "z_total");
    }

    #[test]
    fn snapshot_get_finds_series() {
        let mut reg = MetricsRegistry::new();
        reg.inc("x_total", &[("b", "2"), ("a", "1")], 7);
        let snap = reg.snapshot();
        let sample = snap.get("x_total", &[("a", "1"), ("b", "2")]).unwrap();
        assert_eq!(sample.value, SampleValue::Counter(7));
        assert!(snap.get("x_total", &[]).is_none());
    }
}
