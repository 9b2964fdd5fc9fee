//! Log-bucketed quantile sketch.
//!
//! The exact path (`skywalker::metrics::Summary::of`) keeps
//! every sample and sorts them once, at the end of a run — the wrong trade
//! for answering "what is the P90 *right now*" mid-flight, on every
//! telemetry tick. `QuantileSketch` trades a bounded *relative* error for
//! O(buckets) memory and query time: values are counted in exponentially
//! sized buckets (`bucket i` covers `(γ^(i-1), γ^i]` with
//! `γ = (1+α)/(1−α)`), so any quantile estimate is within a factor `α` of
//! an exact sample at that rank. Counts and the sum stay exact.
//!
//! Determinism: buckets are integer indices in a `BTreeMap` and all
//! counters are integers, so the sketch's state is a pure function of the
//! recorded values.

use std::collections::BTreeMap;

/// The relative-error bound `α` (1%): a reported P90 of 100ms means the
/// exact rank-0.90 sample lies in `[99ms, 101ms]`.
pub const RELATIVE_ERROR: f64 = 0.01;

/// Bucket growth factor `γ = (1+α)/(1−α)`.
const GAMMA: f64 = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);

/// Values at or below this threshold land in the dedicated zero bucket and
/// are reported as exactly `0.0`. A relative-error guarantee is meaningless
/// arbitrarily close to zero (the bucket index `ln(v)/ln(γ)` diverges), and
/// sub-picosecond latencies are below the simulator's microsecond clock
/// resolution anyway.
pub const MIN_TRACKED: f64 = 1e-12;

/// A deterministic quantile sketch with the fixed relative-error bound
/// [`RELATIVE_ERROR`] (DDSketch-style log buckets).
///
/// # Examples
///
/// ```
/// use skywalker_telemetry::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for v in 1..=1000 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.count(), 1000);
/// // p50 of 1..=1000 is ~500; the sketch is within 1% by construction.
/// let p50 = s.quantile(0.5);
/// assert!((p50 - 500.0).abs() / 500.0 <= 0.011, "p50 = {p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Cached `1 / ln(γ)` for index computation.
    inv_ln_gamma: f64,
    /// Bucket index → count, for values above [`MIN_TRACKED`]. Bucket `i`
    /// covers `(γ^(i-1), γ^i]`.
    buckets: BTreeMap<i32, u64>,
    /// Count of values at or below [`MIN_TRACKED`] (reported as 0.0).
    zero_count: u64,
    /// Exact total count.
    count: u64,
    /// Exact sum of recorded values (clamped to ≥ 0).
    sum: f64,
    /// Exact smallest recorded value (∞ while empty).
    min: f64,
    /// Exact largest recorded value (−∞ while empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            inv_ln_gamma: 1.0 / GAMMA.ln(),
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-finite values are ignored; negative
    /// values are clamped to 0 (the sketch models non-negative measurements
    /// such as latencies and queue depths).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let v = v.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= MIN_TRACKED {
            self.zero_count += 1;
        } else {
            let idx = self.index_of(v);
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    /// Exact number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact arithmetic mean, or 0 for an empty sketch.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest recorded value, or 0 for an empty sketch.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value, or 0 for an empty sketch.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`), or 0 for an
    /// empty sketch.
    ///
    /// The estimate is within relative error `α` of the exact sample at the
    /// nearest rank `round(q·(n−1))`: walking buckets in index order finds
    /// the bucket holding that rank, and the bucket's midpoint-in-ratio
    /// value `2γ^i/(γ+1)` is within `α` of every value the bucket covers.
    /// The result is additionally clamped to the exact `[min, max]` range,
    /// which can only tighten the bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        if rank < self.zero_count {
            return 0.0;
        }
        let mut cum = self.zero_count;
        for (&idx, &c) in &self.buckets {
            cum += c;
            if cum > rank {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Bucket index for a value `> MIN_TRACKED`: `ceil(ln(v) / ln(γ))`.
    fn index_of(&self, v: f64) -> i32 {
        (v.ln() * self.inv_ln_gamma).ceil() as i32
    }

    /// The representative value of bucket `i`: the midpoint-in-ratio
    /// `2γ^i/(γ+1)`, within `α` of every value in `(γ^(i-1), γ^i]`.
    fn bucket_value(idx: i32) -> f64 {
        2.0 * GAMMA.powi(idx) / (GAMMA + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_zeroed() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_value_round_trips_within_bound() {
        let mut s = QuantileSketch::new();
        s.record(0.123);
        for q in [0.0, 0.5, 0.9, 1.0] {
            let est = s.quantile(q);
            assert!((est - 0.123).abs() / 0.123 <= RELATIVE_ERROR + 1e-9);
        }
        assert_eq!(s.min(), 0.123);
        assert_eq!(s.max(), 0.123);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn zeros_and_negatives_hit_the_zero_bucket() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(-5.0);
        s.record(1e-15);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(f64::NEG_INFINITY);
        s.record(2.0);
        assert_eq!(s.count(), 1);
        assert!((s.quantile(0.5) - 2.0).abs() / 2.0 <= RELATIVE_ERROR + 1e-9);
    }

    #[test]
    fn memory_is_bounded_by_buckets_not_samples() {
        let mut s = QuantileSketch::new();
        // A million observations spanning 1µs to 1000s.
        for i in 0..1_000_000u64 {
            let v = 1e-6 * (1.0 + (i % 1_000_000_000) as f64);
            s.record(v);
        }
        assert_eq!(s.count(), 1_000_000);
        // ln(1e9)/ln(γ) ≈ 1036 buckets at α = 1%.
        assert!(s.buckets.len() < 1_100, "buckets = {}", s.buckets.len());
    }

    #[test]
    fn count_and_sum_are_exact() {
        let mut s = QuantileSketch::new();
        let mut exact = 0.0;
        for i in 1..=100 {
            s.record(i as f64);
            exact += i as f64;
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), exact);
        assert_eq!(s.mean(), exact / 100.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut s = QuantileSketch::new();
        for i in 0..1000 {
            s.record((i as f64).powi(2));
        }
        let qs = [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0].map(|q| s.quantile(q));
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(s.min() <= qs[0] && qs[7] <= s.max(), "{qs:?}");
    }
}
