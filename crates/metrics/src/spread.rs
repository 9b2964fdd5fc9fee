//! Seed-to-seed aggregation of a scalar metric across replicates.
//!
//! A sweep runs every experiment cell under several seeds; what the
//! comparison table needs per metric is the central value plus how far
//! individual seeds strayed from it. [`Spread`] is that envelope — mean
//! with min/max whiskers plus p50/p90 — kept deliberately simpler than
//! [`Summary`] (no tail percentiles, no histogram state): it serves
//! both single-digit replicate counts, where p50/p90 collapse toward
//! min/max, and per-phase trace populations, where they carry real
//! signal.
//!
//! [`Summary`]: crate::Summary

use crate::histogram::interpolate;

/// Mean, min/max envelope, and p50/p90 of one metric across samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (closest-rank interpolation, same convention as
    /// [`Summary`]).
    ///
    /// [`Summary`]: crate::Summary
    pub p50: f64,
    /// 90th percentile (closest-rank interpolation).
    pub p90: f64,
}

impl Spread {
    /// The spread of an empty sample set: all fields zero.
    pub const EMPTY: Spread = Spread {
        count: 0,
        mean: 0.0,
        min: 0.0,
        max: 0.0,
        p50: 0.0,
        p90: 0.0,
    };

    /// Aggregates a sample list. Non-finite samples are ignored; an
    /// empty (or all-non-finite) list yields [`Spread::EMPTY`].
    pub fn from_samples(samples: &[f64]) -> Spread {
        let mut kept: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
        if kept.is_empty() {
            return Spread::EMPTY;
        }
        kept.sort_by(|a, b| a.partial_cmp(b).expect("finite samples are ordered"));
        let count = kept.len();
        let sum: f64 = kept.iter().sum();
        Spread {
            count,
            mean: sum / count as f64,
            min: kept[0],
            max: kept[count - 1],
            p50: interpolate(&kept, 0.50),
            p90: interpolate(&kept, 0.90),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_mean_min_max() {
        let s = Spread::from_samples(&[2.0, 4.0, 6.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (2.0, 6.0));
    }

    #[test]
    fn empty_and_nonfinite_samples() {
        assert_eq!(Spread::from_samples(&[]), Spread::EMPTY);
        assert_eq!(
            Spread::from_samples(&[f64::NAN, f64::INFINITY]),
            Spread::EMPTY
        );
        let s = Spread::from_samples(&[f64::NAN, 3.0]);
        assert_eq!(s.count, 1);
        assert_eq!((s.mean, s.min, s.max), (3.0, 3.0, 3.0));
    }

    #[test]
    fn single_sample_has_zero_span() {
        let s = Spread::from_samples(&[7.5]);
        assert_eq!((s.min, s.max), (7.5, 7.5));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = Spread::from_samples(&[0.0, 10.0]);
        assert!((s.p50 - 5.0).abs() < 1e-12);
        assert!((s.p90 - 9.0).abs() < 1e-12);
        let single = Spread::from_samples(&[7.5]);
        assert_eq!((single.p50, single.p90), (7.5, 7.5));
    }

    #[test]
    fn percentiles_match_histogram_convention() {
        let samples: Vec<f64> = (0..37).map(|i| ((i * 31) % 37) as f64).collect();
        let s = Spread::from_samples(&samples);
        let mut h = crate::Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        assert!((s.p50 - h.quantile(0.50)).abs() < 1e-12);
        assert!((s.p90 - h.quantile(0.90)).abs() < 1e-12);
    }

    #[test]
    fn percentiles_ordered_within_envelope() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64).powi(2)).collect();
        let s = Spread::from_samples(&samples);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.max);
    }
}
