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
//! - [`Summary`]: the paper's box-plot summary, and [`Summary::of`], the
//!   one exact reducer of a sample set — a run's latencies, one metric
//!   across the replicates of a sweep cell, or the per-request samples of
//!   a trace phase.
//! - [`RequestTracker`]: per-request lifecycle records (arrival, first
//!   token, completion) aggregated into a [`RunReport`].
//! - [`TimeSeries`]: timestamped gauge traces, e.g. a region's fleet
//!   size over time; optionally bounded (oldest points drop first, and
//!   are counted) for sampled dashboards.
//! - [`json`]: the zero-dependency JSON report serializer shared by the
//!   sweep lab and the golden suites.

pub mod json;

mod collector;
mod summary;
mod timeseries;

pub use collector::{RequestTracker, RunReport};
pub use summary::Summary;
pub use timeseries::TimeSeries;
