//! Labeled metrics registry with a deterministic snapshot order.
//!
//! A [`MetricsRegistry`] is one map of metric families: each metric name
//! holds its series — monotonic counters, point-in-time gauges, or
//! sketch-backed distributions, one kind per name — sorted by label set.
//! A lookup borrows the caller's name and labels and puts the labels in
//! canonical order, so an observation allocates nothing once its series
//! exists. All storage is ordered, so snapshot and export order is a pure
//! function of the registered names and labels (lint rule D02 clean),
//! never of insertion or hash order.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::mem::discriminant;

use crate::sketch::QuantileSketch;

#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Sketch(QuantileSketch),
}

impl Metric {
    fn value(&self) -> SampleValue {
        match self {
            Metric::Counter(c) => SampleValue::Counter(*c),
            Metric::Gauge(v) => SampleValue::Gauge(*v),
            Metric::Sketch(s) => SampleValue::Distribution {
                count: s.count(),
                sum: s.sum(),
                p50: s.quantile(0.50),
                p90: s.quantile(0.90),
                p99: s.quantile(0.99),
            },
        }
    }
}

/// One metric name's series, sorted by label set, all of one kind.
type Family = Vec<(Vec<(String, String)>, Metric)>;

/// `labels` in canonical (sorted) order: borrowed as given when already
/// sorted, so only a caller passing pairs out of order pays for a copy.
/// `[("b", "2"), ("a", "1")]` and `[("a", "1"), ("b", "2")]` name the
/// same series.
fn canonical<'a, 'b>(labels: &'a [(&'b str, &'b str)]) -> Cow<'a, [(&'b str, &'b str)]> {
    let mut labels = Cow::Borrowed(labels);
    if !labels.is_sorted() {
        labels.to_mut().sort_unstable();
    }
    labels
}

/// Orders a stored label set against a canonical borrowed one exactly as
/// two stored sets order.
fn cmp_labels(stored: &[(String, String)], labels: &[(&str, &str)]) -> Ordering {
    let stored = stored.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    stored.cmp(labels.iter().copied())
}

/// Where the series of canonical `labels` is in `family`: `Ok` if it is
/// there, `Err` with the index that keeps the family sorted if it is not.
fn find(family: &Family, labels: &[(&str, &str)]) -> Result<usize, usize> {
    family.binary_search_by(|(stored, _)| cmp_labels(stored, labels))
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
    families: BTreeMap<String, Family>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Metric::Counter(c) = self.series(name, labels, Metric::Counter(0)) {
            *c += delta;
        }
    }

    /// Sets a gauge to `v` (non-finite values are ignored).
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if v.is_finite() {
            *self.series(name, labels, Metric::Gauge(v)) = Metric::Gauge(v);
        }
    }

    /// Records one observation into a sketch distribution, creating the
    /// sketch on first use (non-finite values are ignored).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if !v.is_finite() {
            return;
        }
        if let Metric::Sketch(s) = self.series(name, labels, Metric::Sketch(Default::default())) {
            s.record(v);
        }
    }

    /// Borrows a sketch distribution, if it exists.
    pub fn sketch(&self, name: &str, labels: &[(&str, &str)]) -> Option<&QuantileSketch> {
        let family = self.families.get(name)?;
        match &family[find(family, &canonical(labels)).ok()?].1 {
            Metric::Sketch(s) => Some(s),
            _ => None,
        }
    }

    /// A point-in-time snapshot of every series, in deterministic
    /// `(name, labels)` order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples = Vec::with_capacity(self.families.values().map(Vec::len).sum());
        for (name, family) in &self.families {
            samples.extend(family.iter().map(|(labels, metric)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: metric.value(),
            }));
        }
        MetricsSnapshot { samples }
    }

    /// The series `name{labels}`, created as `fresh` if it is new.
    ///
    /// # Panics
    ///
    /// If `name` already holds series of another kind: mixing kinds under
    /// one name would make the exposition's `# TYPE` line lie.
    fn series(&mut self, name: &str, labels: &[(&str, &str)], fresh: Metric) -> &mut Metric {
        if !self.families.contains_key(name) {
            self.families.insert(name.to_owned(), Family::new());
        }
        let family = self.families.get_mut(name).expect("inserted above");
        if let Some((_, first)) = family.first() {
            let same = discriminant(first) == discriminant(&fresh);
            assert!(same, "metric {name:?} already registered as another kind");
        }
        let labels = canonical(labels);
        let i = find(family, &labels).unwrap_or_else(|i| {
            let owned = labels.iter().map(|&(k, v)| (k.into(), v.into())).collect();
            family.insert(i, (owned, fresh));
            i
        });
        &mut family[i].1
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
        let labels = canonical(labels);
        let same = |s: &&MetricSample| s.name == name && cmp_labels(&s.labels, &labels).is_eq();
        self.samples.iter().find(same)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_sim::DetRng;

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
    fn non_finite_observations_are_dropped_at_the_door() {
        let mut reg = MetricsRegistry::new();
        reg.observe("lat", &[("region", "us-east-1")], f64::NAN);
        reg.observe("lat", &[], f64::INFINITY);
        assert!(reg.snapshot().is_empty());
        assert!(reg.sketch("lat", &[]).is_none());
        // The dropped observations registered no kind for the name.
        reg.inc("lat", &[], 1);
        assert_eq!(value(&reg, "lat", &[]), Some(SampleValue::Counter(1)));
    }

    #[test]
    fn kind_conflicts_panic() {
        let clashes: [fn(&mut MetricsRegistry); 2] = [
            |reg| {
                reg.inc("thing", &[], 1);
                reg.set_gauge("thing", &[], 1.0);
            },
            // Two label sets of one name still share the name's kind.
            |reg| {
                reg.observe("lat", &[("region", "a")], 1.0);
                reg.inc("lat", &[("region", "b")], 1);
            },
        ];
        for clash in clashes {
            let panic = std::panic::catch_unwind(|| clash(&mut MetricsRegistry::new()));
            let message = panic.expect_err("a kind clash panics");
            let message = message
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("already registered"), "{message}");
        }
    }

    /// One step of the model test: which call, on which name, with which
    /// labels (in a random order) and value.
    fn random_call(rng: &mut DetRng, reg: &mut MetricsRegistry, model: &mut Model) {
        const NAMES: [(&str, &str); 5] = [
            ("hits_total", "counter"),
            ("misses_total", "counter"),
            ("depth", "gauge"),
            ("lat", "distribution"),
            ("size", "distribution"),
        ];
        const LABEL_SETS: [&[(&str, &str)]; 5] = [
            &[],
            &[("region", "us-east-1")],
            &[("region", "eu-west-1")],
            &[("region", "us-east-1"), ("role", "prefill")],
            &[("c", "3"), ("a", "1"), ("b", "2")],
        ];
        const VALUES: [f64; 6] = [f64::NAN, f64::INFINITY, -0.25, 0.0, 0.125, 40.0];
        let (name, kind) = *rng.choose(&NAMES).unwrap();
        let mut labels = rng.choose(&LABEL_SETS).unwrap().to_vec();
        rng.shuffle(&mut labels);
        let mut key_labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        key_labels.sort();
        let key = (name.to_string(), key_labels);
        let v = *rng.choose(&VALUES).unwrap();
        match kind {
            "counter" => {
                let delta = rng.below(4);
                reg.inc(name, &labels, delta);
                let Metric::Counter(c) = model.entry(key).or_insert(Metric::Counter(0)) else {
                    panic!()
                };
                *c += delta;
            }
            "gauge" => {
                reg.set_gauge(name, &labels, v);
                if v.is_finite() {
                    model.insert(key, Metric::Gauge(v));
                }
            }
            _ => {
                reg.observe(name, &labels, v);
                if v.is_finite() {
                    let fresh = || Metric::Sketch(QuantileSketch::new());
                    let Metric::Sketch(s) = model.entry(key).or_insert_with(fresh) else {
                        panic!()
                    };
                    s.record(v);
                }
            }
        }
    }

    /// The registry as it was keyed before families: one map from name
    /// plus sorted owned labels to a series.
    type Model = BTreeMap<(String, Vec<(String, String)>), Metric>;

    #[test]
    fn registry_matches_a_map_keyed_by_owned_name_and_sorted_labels() {
        for seed in 0..20 {
            let mut rng = DetRng::for_component(seed, "registry-model");
            let (mut reg, mut model) = (MetricsRegistry::new(), Model::new());
            for _ in 0..300 {
                random_call(&mut rng, &mut reg, &mut model);
                let snap = reg.snapshot();
                let expected: Vec<MetricSample> = model
                    .iter()
                    .map(|((name, labels), metric)| MetricSample {
                        name: name.clone(),
                        labels: labels.clone(),
                        value: metric.value(),
                    })
                    .collect();
                assert_eq!(snap.samples, expected, "seed {seed}");
                for ((name, labels), metric) in &model {
                    let mut labels: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    rng.shuffle(&mut labels);
                    let sample = snap.get(name, &labels).expect("every series is found");
                    assert_eq!(sample.value, metric.value());
                    let sketch = reg.sketch(name, &labels);
                    match metric {
                        Metric::Sketch(s) => assert_eq!(sketch, Some(s)),
                        _ => assert_eq!(sketch, None),
                    }
                }
            }
        }
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
