//! Client-side measurement for LLM serving experiments.
//!
//! The paper reports three families of numbers for every system it compares
//! (§5): service throughput in tokens per second, Time-to-First-Token
//! (TTFT), and end-to-end request latency, the latter two as box plots
//! (P10/25/50/75/90 plus the mean). It additionally tracks KV-cache hit
//! rates. This module provides those measurements:
//!
//! - [`Summary`]: the paper's box-plot summary, and [`Summary::of`], the
//!   one exact reducer of a sample set — a run's latencies, one claim
//!   row's value across its seeds, or the per-request samples of a trace
//!   phase. The [`trace`](crate::trace) reports are its other user.
//! - [`RequestTracker`]: per-request lifecycle records (arrival, first
//!   token, completion) aggregated into a [`RunReport`], by request id.
//!   The fabric keeps each record in its own request table instead and
//!   drives the same reducer directly.
//! - [`TimeSeries`]: timestamped gauge traces, e.g. a region's fleet
//!   size over time; optionally bounded (oldest points drop first, and
//!   are counted) for sampled dashboards. It lives in
//!   `skywalker-telemetry`, whose dashboard series are the bounded ones.
//! - [`json`]: the zero-dependency JSON report serializer shared by the
//!   claims table and the golden suites.
//!
//! ```
//! use skywalker::metrics::Summary;
//!
//! let samples: Vec<f64> = (1..=100).map(f64::from).collect();
//! let s = Summary::of(&samples);
//! assert_eq!(s.count, 100);
//! assert!((s.p50 - 50.5).abs() < 1e-9);
//! assert!((s.mean - 50.5).abs() < 1e-9);
//! ```
//!
//! ```
//! use skywalker::metrics::TimeSeries;
//! use skywalker::sim::SimTime;
//!
//! let mut ts = TimeSeries::new("replica-0/kv");
//! ts.record(SimTime::from_secs(1), 0.4);
//! ts.record(SimTime::from_secs(2), 0.9);
//! assert_eq!(ts.peak(), 0.9);
//! assert_eq!(ts.len(), 2);
//!
//! let mut ring = TimeSeries::bounded("queue_depth", 3);
//! for i in 0..5u64 {
//!     ring.record(SimTime::from_secs(i), i as f64);
//! }
//! assert_eq!(ring.len(), 3); // capacity bound
//! assert_eq!(ring.dropped(), 2); // honest drop counter
//! assert_eq!(ring.values(), vec![2.0, 3.0, 4.0]); // newest kept
//! ```

pub mod json;

mod collector;
mod summary;

pub(crate) use collector::{Ledger, Record};
pub use collector::{RequestTracker, RunReport};
pub use skywalker_telemetry::TimeSeries;
pub(crate) use summary::ratio;
pub use summary::Summary;
