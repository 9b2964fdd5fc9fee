//! Timestamped gauge traces.
//!
//! [`TimeSeries`] records `(time, value)` points for one gauge.
//!
//! One type serves every trace in a run summary: the per-region
//! fleet-size traces keep every point, the telemetry plane's
//! per-tick dashboard series are [`TimeSeries::bounded`] so a multi-hour
//! run keeps bounded memory — once full, the oldest point is dropped and
//! an honest `dropped` counter increments (the same contract as the
//! tracer's capacity bound — never silently lossy).

use std::collections::VecDeque;

use skywalker_sim::SimTime;

/// A time-ordered sequence of gauge observations, optionally bounded to
/// the newest `capacity` points. (Its example is in the
/// `skywalker::metrics` docs, which re-export it.)
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    /// `Some(n)` keeps only the newest `n` points.
    capacity: Option<usize>,
    points: VecDeque<(SimTime, f64)>,
    dropped: u64,
}

impl TimeSeries {
    /// Creates an empty series that keeps every point.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            capacity: None,
            points: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Creates an empty series holding at most `capacity` points
    /// (minimum 1), evicting oldest-first.
    pub fn bounded(name: impl Into<String>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TimeSeries {
            name: name.into(),
            capacity: Some(capacity),
            points: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation, evicting the oldest if a bounded series is
    /// full. Non-finite values and points older than the latest one are
    /// ignored (the simulator produces neither).
    pub fn record(&mut self, at: SimTime, value: f64) {
        if !value.is_finite() || self.points.back().is_some_and(|(last, _)| *last > at) {
            return;
        }
        if self.capacity == Some(self.points.len()) {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((at, value));
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of points evicted to honor the capacity bound (always 0
    /// for an unbounded series).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained points oldest-first.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The retained values oldest-first.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// The largest retained value, or 0 for an empty series.
    pub fn peak(&self) -> f64 {
        let mut values = self.points.iter().map(|&(_, v)| v);
        values
            .next()
            .map_or(0.0, |first| values.fold(first, f64::max))
    }

    /// Time-weighted average value over the observation window (each value
    /// holds until the next observation). Zero for fewer than two points.
    pub fn time_weighted_mean(&self) -> f64 {
        let mut acc = 0.0;
        let mut dur = 0.0;
        for (&(t0, v), &(t1, _)) in self.points.iter().zip(self.points.iter().skip(1)) {
            let dt = t1.since(t0).as_secs_f64();
            acc += v * dt;
            dur += dt;
        }
        if dur == 0.0 {
            0.0
        } else {
            acc / dur
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_and_reports_peak() {
        let mut ts = TimeSeries::new("x");
        assert!(ts.is_empty());
        assert_eq!(ts.peak(), 0.0);
        ts.record(t(0), 0.2);
        ts.record(t(1), 0.8);
        ts.record(t(2), 0.5);
        assert_eq!(ts.peak(), 0.8);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.name(), "x");
        assert_eq!(ts.values(), vec![0.2, 0.8, 0.5]);
        // The peak of an all-negative series is its largest value, not 0.
        let mut below = TimeSeries::new("y");
        below.record(t(0), -3.0);
        below.record(t(1), -1.0);
        assert_eq!(below.peak(), -1.0);
    }

    #[test]
    fn bounded_series_drops_oldest_first_and_counts_it() {
        let mut s = TimeSeries::bounded("x", 4);
        for i in 0..10u64 {
            s.record(t(i), i as f64);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        assert_eq!(s.values(), vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(s.points().next(), Some((t(6), 6.0)));
        // A zero bound is clamped to one point.
        let mut one = TimeSeries::bounded("y", 0);
        one.record(t(0), 1.0);
        one.record(t(1), 2.0);
        assert_eq!((one.len(), one.dropped()), (1, 1));
    }

    #[test]
    fn unbounded_series_never_drops_and_allocates_nothing_up_front() {
        let mut s = TimeSeries::new("x");
        assert_eq!(s.points.capacity(), 0, "no bound to pre-allocate");
        for i in 0..10_000u64 {
            s.record(t(i), i as f64);
        }
        assert_eq!((s.len(), s.dropped()), (10_000, 0));
    }

    #[test]
    fn non_finite_and_time_reversed_points_are_refused() {
        for mut s in [TimeSeries::new("x"), TimeSeries::bounded("x", 4)] {
            s.record(t(5), f64::NAN);
            s.record(t(5), f64::INFINITY);
            assert!(s.is_empty());
            s.record(t(5), 1.0);
            s.record(t(4), 2.0);
            s.record(t(5), 3.0); // same instant is in order
            assert_eq!(s.values(), vec![1.0, 3.0]);
            assert_eq!(s.dropped(), 0, "refused points are not evictions");
        }
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(0), 1.0); // holds for 1 s
        ts.record(t(1), 3.0); // holds for 3 s
        ts.record(t(4), 0.0); // terminal marker
        let m = ts.time_weighted_mean();
        assert!((m - (1.0 + 9.0) / 4.0).abs() < 1e-9, "mean {m}");
    }

    #[test]
    fn time_weighted_mean_degenerate() {
        let mut ts = TimeSeries::new("x");
        assert_eq!(ts.time_weighted_mean(), 0.0);
        ts.record(t(1), 5.0);
        assert_eq!(ts.time_weighted_mean(), 0.0);
        // Two points at the same instant: zero duration.
        ts.record(t(1), 6.0);
        assert_eq!(ts.time_weighted_mean(), 0.0);
    }
}
