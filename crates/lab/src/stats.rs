//! Cross-replicate aggregation: one [`CellStats`] per cell.

use skywalker::RunSummary;
use skywalker_cost::{replica_seconds_cost, Pricing};
use skywalker_metrics::Spread;

use crate::exec::ReplicateRun;

/// Seed-to-seed aggregates of one cell: every headline metric as a
/// [`Spread`] (mean with min/max whiskers across replicates).
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Replicates aggregated.
    pub replicates: usize,
    /// TTFT median, seconds.
    pub ttft_p50: Spread,
    /// TTFT 90th percentile, seconds.
    pub ttft_p90: Spread,
    /// Service throughput, tokens per second.
    pub throughput_tps: Spread,
    /// Replica-measured prefix-cache hit ratio.
    pub hit_rate: Spread,
    /// Requests completed.
    pub completed: Spread,
    /// Requests failed.
    pub failed: Spread,
    /// Cross-region forwards.
    pub forwarded: Spread,
    /// Capacity spent: [`RunSummary::replica_seconds`] of each run.
    pub replica_seconds: Spread,
    /// Reserved-rate price of that capacity
    /// ([`Pricing::P5_48XLARGE`], via `skywalker-cost`).
    pub cost_usd: Spread,
}

impl CellStats {
    /// Aggregates one cell's replicate runs.
    pub fn from_runs(runs: &[ReplicateRun]) -> CellStats {
        let of = |f: &dyn Fn(&RunSummary) -> f64| {
            Spread::from_samples(&runs.iter().map(|r| f(&r.summary)).collect::<Vec<_>>())
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
