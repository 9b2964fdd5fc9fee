//! The one exact reducer of a sample set.
//!
//! The evaluation's latency plots are box plots over a few thousand request
//! latencies per run, so exact percentiles are affordable: callers keep
//! samples verbatim and reduce them once with [`Summary::of`]. This avoids
//! the bin-resolution artifacts of approximate sketches, which matter when
//! the paper's claims are ratios of P90s. (For mid-run queries over a
//! stream, `skywalker-telemetry`'s `QuantileSketch` trades a bounded
//! relative error for O(buckets) memory.)
//!
//! The same reducer serves a run's TTFT and end-to-end latencies, one
//! metric across a sweep cell's replicates, and a trace phase's
//! per-request durations.

/// The box-plot summary the paper draws for every latency distribution:
/// P10/P90 whiskers, P25/P75 box, P50 median line, and the mean marker.
///
/// # Examples
///
/// ```
/// use skywalker_metrics::Summary;
///
/// let samples: Vec<f64> = (1..=100).map(f64::from).collect();
/// let s = Summary::of(&samples);
/// assert_eq!(s.count, 100);
/// assert!((s.p50 - 50.5).abs() < 1e-9);
/// assert!((s.mean - 50.5).abs() < 1e-9);
/// ```
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

    /// Summarizes `samples`. Non-finite values are dropped (they would
    /// poison every percentile); an empty or all-non-finite list yields
    /// [`Summary::EMPTY`]. The result does not depend on the order of
    /// `samples`: they are sorted before anything is summed.
    pub fn of(samples: &[f64]) -> Summary {
        let mut kept: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        Summary::of_in_place(&mut kept)
    }

    /// [`Summary::of`] over samples the caller keeps finite, sorting them
    /// in place instead of copying them.
    pub(crate) fn of_in_place(samples: &mut [f64]) -> Summary {
        samples.sort_unstable_by(f64::total_cmp);
        let sorted = &*samples;
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return Summary::EMPTY;
        };
        let count = sorted.len();
        Summary {
            count,
            p10: interpolate(sorted, 0.10),
            p25: interpolate(sorted, 0.25),
            p50: interpolate(sorted, 0.50),
            p75: interpolate(sorted, 0.75),
            p90: interpolate(sorted, 0.90),
            p99: interpolate(sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / count as f64,
            min,
            max,
        }
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of a non-empty ascending slice, by
/// linear interpolation between closest ranks — the one convention every
/// exact percentile in this crate uses.
fn interpolate(sorted: &[f64], q: f64) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn all_fields(s: &Summary) -> [f64; 9] {
        [
            s.p10, s.p25, s.p50, s.p75, s.p90, s.p99, s.mean, s.min, s.max,
        ]
    }

    #[test]
    fn summary_of_cases() {
        let skewed: Vec<f64> = (0..1000).map(|i| f64::from(i).powi(2)).collect();
        type Check = fn(&Summary);
        let cases: [(&str, Vec<f64>, Check); 7] = [
            ("empty", vec![], |s| assert_eq!(*s, Summary::EMPTY)),
            ("all non-finite", vec![f64::NAN, f64::INFINITY], |s| {
                assert_eq!(*s, Summary::EMPTY)
            }),
            (
                "NaN and ±∞ dropped",
                vec![f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY],
                |s| assert_eq!((s.count, s.mean, s.min, s.max), (1, 3.0, 3.0, 3.0)),
            ),
            ("single sample sets every field", vec![7.5], |s| {
                assert_eq!(s.count, 1);
                assert_eq!(all_fields(s), [7.5; 9]);
            }),
            ("interpolates between ranks", vec![10.0, 0.0], |s| {
                assert_eq!(
                    (s.min, s.p25, s.p50, s.p90, s.max),
                    (0.0, 2.5, 5.0, 9.0, 10.0)
                );
            }),
            ("mean, min and max", vec![2.0, 6.0, 4.0], |s| {
                assert_eq!((s.count, s.mean, s.min, s.max), (3, 4.0, 2.0, 6.0));
            }),
            ("skewed data orders its percentiles", skewed, |s| {
                let ordered = [s.min, s.p10, s.p25, s.p50, s.p75, s.p90, s.p99, s.max];
                assert!(ordered.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
                // Right-skew puts the mean above the median.
                assert!(s.mean > s.p50);
            }),
        ];
        for (name, samples, check) in cases {
            let s = Summary::of(&samples);
            println!("{name}: {s:?}");
            check(&s);
        }
    }

    /// The tracker folds a request's samples in whenever it settles, so
    /// the order samples arrive in must not reach a single bit of the
    /// summary.
    #[test]
    fn permuted_input_gives_a_bit_identical_summary() {
        let samples: Vec<f64> = (0..997)
            .map(|i| 0.001 * f64::from((i * 389) % 997) + 0.1)
            .collect();
        let reference = all_fields(&Summary::of(&samples)).map(f64::to_bits);
        let mut permuted = samples.clone();
        for shift in [1, 17, 500] {
            permuted.rotate_left(shift);
            permuted.reverse();
            let s = Summary::of(&permuted);
            assert_eq!(s.count, samples.len());
            assert_eq!(all_fields(&s).map(f64::to_bits), reference, "shift {shift}");
        }
    }
}
