//! Exact-percentile sample collection.
//!
//! The evaluation's latency plots are box plots over a few thousand request
//! latencies per run, so exact percentiles are affordable: samples are kept
//! verbatim and sorted lazily on query. This avoids the bin-resolution
//! artifacts of approximate sketches, which matter when the paper's claims
//! are ratios of P90s. (For million-request streams and mid-run queries,
//! `skywalker-telemetry`'s `QuantileSketch` trades a bounded relative error
//! for O(buckets) memory.)
//!
//! Queries take `&self`: the sorted state lives in an interior cache
//! (invalidated by `record`/`merge`, rebuilt at most once per batch of
//! queries), so read paths never need a `mut` binding. The cache makes
//! `Histogram` `!Sync`; share it across threads by cloning or merging, not
//! by reference.

use std::cell::{Cell, Ref, RefCell};

/// The box-plot summary the paper draws for every latency distribution:
/// P10/P90 whiskers, P25/P75 box, P50 median line, and the mean marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// 10th percentile (lower whisker).
    pub p10: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 90th percentile (upper whisker).
    pub p90: f64,
    /// 99th percentile (tail behaviour; not in the paper's plots but
    /// essential for SLO reasoning).
    pub p99: f64,
    /// Arithmetic mean (the inverted-triangle marker).
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// A summary of an empty distribution: all fields zero.
    pub const EMPTY: Summary = Summary {
        count: 0,
        p10: 0.0,
        p25: 0.0,
        p50: 0.0,
        p75: 0.0,
        p90: 0.0,
        p99: 0.0,
        mean: 0.0,
        min: 0.0,
        max: 0.0,
    };
}

/// The `q`-quantile (`q` in `[0, 1]`) of a non-empty ascending slice, by
/// linear interpolation between closest ranks — the one convention every
/// exact percentile in this crate uses.
pub(crate) fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An exact histogram: stores every sample, sorts on demand.
///
/// # Examples
///
/// ```
/// use skywalker_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100 {
///     h.record(v as f64);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 100);
/// assert!((s.p50 - 50.0).abs() <= 1.0);
/// assert!((s.mean - 50.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: RefCell<Vec<f64>>,
    sorted: Cell<bool>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: RefCell::new(Vec::new()),
            sorted: Cell::new(true),
        }
    }

    /// Records one sample. Non-finite values are ignored (they would poison
    /// every percentile); callers measuring real latencies never produce
    /// them, but defensive harness code might divide by zero.
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.get_mut().push(v);
            self.sorted.set(false);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    /// Merges all samples from `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples
            .get_mut()
            .extend_from_slice(&other.samples.borrow());
        self.sorted.set(false);
    }

    /// The arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
    /// closest ranks, or 0 for an empty histogram. Sorts lazily through the
    /// interior cache: the first query after a `record`/`merge` pays one
    /// sort, repeat queries are O(1) lookups.
    pub fn quantile(&self, q: f64) -> f64 {
        self.ensure_sorted();
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0.0;
        }
        interpolate(&samples, q.clamp(0.0, 1.0))
    }

    /// The full box-plot summary.
    pub fn summary(&self) -> Summary {
        self.ensure_sorted();
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return Summary::EMPTY;
        }
        let count = samples.len();
        let min = samples[0];
        let max = *samples.last().expect("non-empty");
        drop(samples);
        Summary {
            count,
            p10: self.quantile(0.10),
            p25: self.quantile(0.25),
            p50: self.quantile(0.50),
            p75: self.quantile(0.75),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            mean: self.mean(),
            min,
            max,
        }
    }

    /// The summary of this histogram's and `other`'s samples taken
    /// together. Copies the samples only if `other` has any.
    pub(crate) fn summary_with(&self, other: &Histogram) -> Summary {
        if other.is_empty() {
            return self.summary();
        }
        let mut all = self.clone();
        all.merge(other);
        all.summary()
    }

    /// Read-only view of the raw samples (unsorted insertion order is not
    /// preserved once a quantile has been queried). The returned guard
    /// borrows the interior cache; drop it before calling `record`/`merge`.
    pub fn samples(&self) -> Ref<'_, [f64]> {
        Ref::map(self.samples.borrow(), Vec::as_slice)
    }

    fn ensure_sorted(&self) {
        if !self.sorted.get() {
            self.samples
                .borrow_mut()
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
            self.sorted.set(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.summary(), Summary::EMPTY);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_all_quantiles_equal() {
        let mut h = Histogram::new();
        h.record(7.5);
        let s = h.summary();
        assert_eq!(s.count, 1);
        for v in [
            s.p10, s.p25, s.p50, s.p75, s.p90, s.p99, s.mean, s.min, s.max,
        ] {
            assert_eq!(v, 7.5);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(10.0);
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(0.25), 2.5);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.quantile(-1.0), 1.0);
        assert_eq!(h.quantile(2.0), 2.0);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(3.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.summary().mean, 3.0);
    }

    #[test]
    fn recording_after_query_resorts() {
        let mut h = Histogram::new();
        h.record(5.0);
        h.record(1.0);
        assert_eq!(h.quantile(0.0), 1.0);
        h.record(0.5);
        assert_eq!(h.quantile(0.0), 0.5);
    }

    #[test]
    fn queries_take_shared_references() {
        let mut h = Histogram::new();
        for v in [3.0, 1.0, 2.0] {
            h.record(v);
        }
        // No `mut` binding needed on the read path.
        let r: &Histogram = &h;
        assert_eq!(r.quantile(0.5), 2.0);
        assert_eq!(r.summary().count, 3);
        assert_eq!(&*r.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50 {
            a.record(v as f64);
        }
        for v in 50..100 {
            b.record(v as f64);
        }
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert!((a.quantile(0.5) - 49.5).abs() < 1e-9);
    }

    #[test]
    fn summary_orders_percentiles() {
        let mut h = Histogram::new();
        // A skewed distribution.
        for i in 0..1000 {
            h.record((i as f64).powi(2));
        }
        let s = h.summary();
        assert!(s.min <= s.p10);
        assert!(s.p10 <= s.p25);
        assert!(s.p25 <= s.p50);
        assert!(s.p50 <= s.p75);
        assert!(s.p75 <= s.p90);
        assert!(s.p90 <= s.p99);
        assert!(s.p99 <= s.max);
        // Right-skew puts the mean above the median.
        assert!(s.mean > s.p50);
    }
}
