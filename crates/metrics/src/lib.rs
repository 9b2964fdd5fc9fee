//! # skywalker-metrics
//!
//! Client-side measurement for LLM serving experiments.
//!
//! The paper reports three families of numbers for every system it compares
//! (§5): service throughput in tokens per second, Time-to-First-Token
//! (TTFT), and end-to-end request latency, the latter two as box plots
//! (P10/25/50/75/90 plus the mean). It additionally tracks KV-cache hit
//! rates. This crate provides those measurements:
//!
//! - [`Histogram`]: exact-percentile sample collection with the paper's
//!   box-plot summary ([`Summary`]).
//! - [`RequestTracker`]: per-request lifecycle records (arrival, first
//!   token, completion) aggregated into a [`RunReport`].
//! - [`TimeSeries`]: timestamped gauge traces, e.g. a region's fleet
//!   size over time; optionally bounded (oldest points drop first, and
//!   are counted) for sampled dashboards.
//! - [`Spread`]: mean/min/max/p50/p90 aggregation of one metric across
//!   the replicates of a sweep cell or the per-request samples of a
//!   trace phase.
//! - [`json`]: the zero-dependency JSON report serializer shared by the
//!   sweep lab, the golden suites and the telemetry export.

pub mod json;

mod collector;
mod histogram;
mod spread;
mod timeseries;

pub use collector::{RequestTracker, RunReport};
pub use histogram::{Histogram, Summary};
pub use spread::Spread;
pub use timeseries::TimeSeries;
