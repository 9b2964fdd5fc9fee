//! Streaming metrics plane for SkyWalker.
//!
//! Where the tracer (`skywalker::trace`) answers *where did this run's
//! latency go* after the fact, this crate answers *what is the P90 right
//! now*: a labeled [`MetricsRegistry`] of counters, gauges, and
//! [`QuantileSketch`] distributions (one fixed 1% error bound,
//! [`RELATIVE_ERROR`]), a handful of dashboard series sampled on a
//! sim-time cadence into bounded [`TimeSeries`], and Prometheus text
//! exposition. The registry is one map of metric families, found by
//! borrowed name and labels, so an observation allocates nothing once
//! its series exists.
//!
//! A balancer's and a replica's metrics are listed once, in [`publish`],
//! under the names of the one [`names`] table. Both planes publish
//! through that listing: a live TCP server on every scrape (so a running
//! cluster is scrapeable with `nc`), the simulated fabric once at run
//! end.
//!
//! Everything is deterministic by construction: integer bucket indices in
//! `BTreeMap`s, exact integer counts, snapshot order a pure function of
//! metric names and labels. Telemetry is observation-only — enabling it
//! must never perturb a run (the golden-digest suite enforces this
//! byte-for-byte).
//!
//! # Quick start
//!
//! ```
//! use skywalker_telemetry::{prometheus_text, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.observe("ttft_seconds", &[("region", "us-east-1")], 0.120);
//! reg.inc("requests_total", &[("region", "us-east-1")], 1);
//! let text = prometheus_text(&reg.snapshot());
//! assert!(text.contains("ttft_seconds_count{region=\"us-east-1\"} 1"));
//! ```

mod export;
pub mod names;
pub mod publish;
mod registry;
mod sketch;
mod timeseries;

pub use export::prometheus_text;
pub use registry::{MetricSample, MetricsRegistry, MetricsSnapshot, SampleValue};
pub use sketch::{QuantileSketch, MIN_TRACKED, RELATIVE_ERROR};
pub use timeseries::TimeSeries;

use skywalker_sim::SimDuration;

/// Points each sampled dashboard series retains; older points drop
/// first and are counted ([`TimeSeries::dropped`]).
pub const SERIES_CAPACITY: usize = 4096;

/// Telemetry sampling configuration for a fabric run (or a lab cell).
///
/// Off by default; turn it on per-run with
/// `FabricConfig::telemetry(interval)` — the fabric then samples its
/// dashboard series every `interval` of sim time into series bounded to
/// [`SERIES_CAPACITY`] points and attaches a [`TelemetrySummary`] to the
/// run summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Sim-time sampling cadence.
    pub interval: SimDuration,
}

impl TelemetryConfig {
    /// A config sampling every `interval`.
    pub fn every(interval: SimDuration) -> Self {
        TelemetryConfig { interval }
    }
}

/// What a telemetry-enabled run hands back: the registry snapshot taken
/// at run end, the sampled series, and the tick count.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// The sampling cadence the run used.
    pub interval: SimDuration,
    /// Number of telemetry ticks that fired.
    pub ticks: u64,
    /// The registry at run end, in deterministic order: the TTFT
    /// sketches, every balancer's and every replica's listing, and the
    /// fleet-wide totals.
    pub snapshot: MetricsSnapshot,
    /// Series sampled each tick (bounded to [`SERIES_CAPACITY`]
    /// points), sorted by name.
    pub series: Vec<TimeSeries>,
}

impl TelemetrySummary {
    /// Finds a sampled series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_series_lookup() {
        let summary = TelemetrySummary {
            interval: SimDuration::from_secs(1),
            ticks: 2,
            snapshot: MetricsSnapshot::default(),
            series: vec![TimeSeries::bounded("a", 8), TimeSeries::bounded("b", 8)],
        };
        assert!(summary.series("b").is_some());
        assert!(summary.series("c").is_none());
    }
}
