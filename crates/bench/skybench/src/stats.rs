//! The few order statistics the benchmark reports.

/// Median, quartiles and extremes of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// A metric that was counted, not sampled: no spread.
    pub fn exact(v: f64) -> Self {
        Spread {
            n: 1,
            min: v,
            q1: v,
            median: v,
            q3: v,
        }
    }

    /// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them
    /// (the driver's rule), so a spread printed here is the spread the
    /// driver will compute.
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Spread::exact(0.0),
            1 => Spread::exact(v[0]),
            n => Spread {
                n,
                min: v[0],
                q1: exclusive_quantile(&v, 0.25),
                median: exclusive_quantile(&v, 0.5),
                q3: exclusive_quantile(&v, 0.75),
            },
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `q`-quantile at position `q·(n+1)` of the sorted samples, linearly
/// interpolated and clamped to the extremes.
fn exclusive_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The time one rep takes when nothing disturbs it, estimated from
/// several disturbed ones. Every rep of one seed does the same work in
/// the same order, and `reps[r][k]` is how long rep `r` took over the
/// `k`-th slice of that work. Whatever else runs on the host only ever
/// adds to a slice, in bursts that last from a slice to many reps, so
/// the fastest rendition of each slice is the least disturbed one and
/// their sum is the rep that caught the host quiet throughout. Where
/// the fastest whole rep needs one rep free of bursts, this needs each
/// slice to have been free of them once. `None` unless every rep has the
/// same, non-zero number of slices.
pub fn undisturbed(reps: &[Vec<f64>]) -> Option<f64> {
    let slices = reps.first()?.len();
    if slices == 0 || reps.iter().any(|r| r.len() != slices) {
        return None;
    }
    Some(
        (0..slices)
            .map(|k| reps.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// Nearest-rank percentile of already sorted samples; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency is reported at, lowest first, each with the
/// `k` for which one sample in `k` lies beyond it.
const TAIL_LADDER: [(f64, usize); 4] = [(90.0, 10), (99.0, 100), (99.9, 1_000), (99.99, 10_000)];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples beyond it; `None` when even the 90th does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, one_in)| n / one_in >= 10)
        .map(|(pct, _)| *pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min), (10, 1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which
        // lies outside the data: clamp instead.
        let s = Spread::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        assert_eq!(Spread::of(&[4.0, 1.0, 9.0, 2.0]).median, 3.0);
    }

    #[test]
    fn degenerate_spreads() {
        assert_eq!(Spread::of(&[]), Spread::exact(0.0));
        assert_eq!(Spread::of(&[7.0]), Spread::exact(7.0));
        assert_eq!(Spread::exact(7.0).relative_iqr(), 0.0);
        assert_eq!(Spread::of(&[9.0, 10.0, 11.0]).relative_iqr(), 0.2);
    }

    #[test]
    fn undisturbed_takes_each_slice_from_the_rep_that_ran_it_fastest() {
        // A burst over the first half of one rep and the second half of
        // the other: neither rep is clean, the estimate is.
        let reps = [vec![2.0, 2.0, 1.0, 1.0], vec![1.0, 1.0, 3.0, 3.0]];
        assert_eq!(undisturbed(&reps), Some(4.0));
        assert_eq!(undisturbed(&reps[..1]), Some(6.0));
        // Reps that did not cut the work alike cannot be compared.
        assert_eq!(undisturbed(&[vec![1.0, 1.0], vec![1.0]]), None);
        assert_eq!(undisturbed(&[]), None);
        assert_eq!(undisturbed(&[vec![], vec![]]), None);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(70_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
