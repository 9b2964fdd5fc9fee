//! Run tracing for SkyWalker: span recording, per-request bottleneck
//! attribution, flamegraph-style reports, and structural run diffs.
//!
//! The crate is deliberately passive. The fabric owns a
//! [`TraceRecorder`] (off by default) and feeds it timestamped
//! [`TraceEvent`]s at its scheduling boundaries; recording never reads
//! clocks, draws randomness, or changes scheduling, so a traced run is
//! byte-identical to an untraced one. The events are held in a
//! [`TraceLog`], losslessly at a few bytes each, so what a traced run
//! adds to the heap is a tenth of the run, not most of it. Everything
//! else happens after the run, on the frozen [`TraceSummary`]:
//!
//! - [`Attribution`] replays each request's timeline and decomposes its
//!   end-to-end latency into exhaustive, non-overlapping [`Phase`]s —
//!   the per-request phase durations sum *exactly* (integer
//!   microseconds) to the request's end-to-end latency, and the suite in
//!   `tests/attribution_props.rs` holds that conservation law across
//!   every engine, chaos fleet, and preemption path in the repository.
//! - [`BottleneckReport`] aggregates the attribution into per-phase
//!   totals, shares, p50/p90 spreads, and top-k offender requests, with
//!   a flamegraph-style text rendering.
//! - [`TraceDiff`] structurally diffs two reports phase-for-phase,
//!   naming the phase that moved a regression.
//!
//! ```
//! use skywalker_sim::SimTime;
//! use skywalker_trace::{Attribution, BottleneckReport, TraceConfig, TraceEventKind, TraceRecorder};
//!
//! let mut rec = TraceRecorder::new(TraceConfig::default());
//! rec.record(SimTime::from_micros(0), TraceEventKind::Issued { req: 1 });
//! rec.record(SimTime::from_micros(50), TraceEventKind::ReplicaQueued { req: 1, replica: 0 });
//! rec.record(SimTime::from_micros(80), TraceEventKind::Admitted { req: 1, replica: 0 });
//! rec.record(SimTime::from_micros(200), TraceEventKind::FirstToken { req: 1, replica: 0 });
//! rec.record(SimTime::from_micros(700), TraceEventKind::ReplicaDone { req: 1, replica: 0 });
//! rec.record(SimTime::from_micros(750), TraceEventKind::Delivered { req: 1 });
//!
//! let attribution = Attribution::from_summary(&rec.into_summary());
//! let report = BottleneckReport::new("example", &attribution, 3);
//! assert_eq!(report.completed, 1);
//! // Per-request conservation: phases sum exactly to end-to-end latency.
//! let r = &attribution.requests[0];
//! assert_eq!(r.phases.total(), r.e2e);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod diff;
mod event;
mod log;
mod recorder;
mod report;

pub use attribution::{Attribution, Phase, PhaseBreakdown, RequestTrace, TraceOutcome, TtftTrace};
pub use diff::{PhaseDelta, TraceDiff};
pub use event::{TraceEvent, TraceEventKind};
pub use log::{TraceLog, TraceLogIter};
pub use recorder::{TraceConfig, TraceRecorder, TraceSummary};
pub use report::{BottleneckReport, PhaseStat};
