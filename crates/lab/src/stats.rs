//! Cross-replicate aggregation: one [`CellStats`] per cell.

use skywalker::RunSummary;
use skywalker_cost::{replica_seconds_cost, Pricing};
use skywalker_metrics::Summary;

use crate::exec::ReplicateRun;

/// Seed-to-seed aggregates of one cell: every headline metric as a
/// [`Summary`] across replicates (the tables read mean, min and max).
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Replicates aggregated.
    pub replicates: usize,
    /// TTFT median, seconds.
    pub ttft_p50: Summary,
    /// TTFT 90th percentile, seconds.
    pub ttft_p90: Summary,
    /// Service throughput, tokens per second.
    pub throughput_tps: Summary,
    /// Replica-measured prefix-cache hit ratio.
    pub hit_rate: Summary,
    /// Requests completed.
    pub completed: Summary,
    /// Requests failed.
    pub failed: Summary,
    /// Cross-region forwards.
    pub forwarded: Summary,
    /// Capacity spent: [`RunSummary::replica_seconds`] of each run.
    pub replica_seconds: Summary,
    /// Reserved-rate price of that capacity
    /// ([`Pricing::P5_48XLARGE`], via `skywalker-cost`).
    pub cost_usd: Summary,
}

impl CellStats {
    /// Aggregates one cell's replicate runs.
    pub fn from_runs(runs: &[ReplicateRun]) -> CellStats {
        let of = |f: &dyn Fn(&RunSummary) -> f64| {
            Summary::of(&runs.iter().map(|r| f(&r.summary)).collect::<Vec<_>>())
        };
        CellStats {
            replicates: runs.len(),
            ttft_p50: of(&|s| s.report.ttft.p50),
            ttft_p90: of(&|s| s.report.ttft.p90),
            throughput_tps: of(&|s| s.report.throughput_tps),
            hit_rate: of(&|s| s.replica_hit_rate),
            completed: of(&|s| s.report.completed as f64),
            failed: of(&|s| s.report.failed as f64),
            forwarded: of(&|s| s.forwarded as f64),
            replica_seconds: of(&RunSummary::replica_seconds),
            cost_usd: of(&|s| replica_seconds_cost(s.replica_seconds(), Pricing::P5_48XLARGE)),
        }
    }
}
