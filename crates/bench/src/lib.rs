//! # skywalker-bench
//!
//! The experiment harness: one bench target per figure of the paper's
//! evaluation (see `benches/`). Wall-clock and per-layer performance
//! numbers live in the standalone `skybench` package next door
//! (`crates/bench/skybench`), the repo's one perf harness.
//!
//! Every bench target uses a custom harness (`harness = false`): the
//! figure benches are experiment drivers that print the same rows/series
//! the paper plots. Run one with:
//!
//! ```sh
//! cargo bench -p skywalker-bench --bench fig08_macro
//! ```
//!
//! This library crate hosts the shared table-printing helpers and the
//! [`rows`] builders that turn a
//! [`RunSummary`](skywalker::RunSummary) into the `BENCH_*.json` row
//! schemas — one definition per schema, shared by every bench target
//! and by `skywalker-lab` reports. The JSON serializer itself lives in
//! `skywalker_metrics::json` and is re-exported here under its
//! historical name.

/// The zero-dependency `BENCH_*.json` serializer (hosted by
/// `skywalker-metrics` so the sweep lab can share it without a
/// dependency cycle; re-exported here under its historical path).
pub use skywalker_metrics::json;

/// The `BENCH_*.json` row schemas, built from a
/// [`RunSummary`](skywalker::RunSummary) in one place so no bench
/// target re-implements field lists (and so schema stays identical
/// when a bench migrates onto `skywalker-lab`).
pub mod rows {
    use crate::json::Val;
    use skywalker::RunSummary;

    /// One `BENCH_fig08.json` row: the macrobenchmark grid schema.
    pub fn fig8_row(workload: &str, s: &RunSummary) -> Vec<(&'static str, Val)> {
        vec![
            ("workload", Val::from(workload)),
            ("system", Val::from(s.label.clone())),
            ("tok_s", Val::from(s.report.throughput_tps)),
            ("ttft_p50_s", Val::from(s.report.ttft.p50)),
            ("ttft_p90_s", Val::from(s.report.ttft.p90)),
            ("ttft_mean_s", Val::from(s.report.ttft.mean)),
            ("e2e_p50_s", Val::from(s.report.e2e.p50)),
            ("e2e_p90_s", Val::from(s.report.e2e.p90)),
            ("hit_rate", Val::from(s.replica_hit_rate)),
            ("forwarded", Val::from(s.forwarded)),
            ("completed", Val::from(s.report.completed)),
            ("end_time_s", Val::from(s.end_time.as_secs_f64())),
        ]
    }

    /// One `BENCH_engine.json` row: the serving-engine shootout schema
    /// (engine label, latency split, and the engine counters —
    /// preemptions, evicted KV tokens, chunked iterations).
    pub fn engine_row(engine: &str, s: &RunSummary) -> Vec<(&'static str, Val)> {
        vec![
            ("engine", Val::from(engine)),
            ("completed", Val::from(s.report.completed)),
            ("failed", Val::from(s.report.failed)),
            ("ttft_p50_s", Val::from(s.report.ttft.p50)),
            ("ttft_p90_s", Val::from(s.report.ttft.p90)),
            ("e2e_p90_s", Val::from(s.report.e2e.p90)),
            ("tok_s", Val::from(s.report.throughput_tps)),
            ("hit_rate", Val::from(s.replica_hit_rate)),
            ("preempted", Val::from(s.preempted)),
            ("evicted_tokens", Val::from(s.evicted_tokens)),
            ("demoted_tokens", Val::from(s.demoted_tokens)),
            ("promoted_tokens", Val::from(s.promoted_tokens)),
            ("kv_transfers", Val::from(s.transfers.started)),
            ("kv_transfer_tokens", Val::from(s.transfers.tokens_sent)),
            ("chunked_steps", Val::from(s.chunked_steps)),
            ("end_time_s", Val::from(s.end_time.as_secs_f64())),
        ]
    }

    /// One `BENCH_disagg.json` row: the prefill/decode-disaggregation
    /// shootout schema — workload shape, split-vs-colocated mode, the
    /// latency verdict, the handoff/tier counters, and the
    /// replica-seconds cost of the run.
    pub fn disagg_row(workload: &str, mode: &str, s: &RunSummary) -> Vec<(&'static str, Val)> {
        let replica_seconds = s.fleet.mean_total() * s.end_time.as_secs_f64();
        vec![
            ("workload", Val::from(workload)),
            ("mode", Val::from(mode)),
            ("completed", Val::from(s.report.completed)),
            ("failed", Val::from(s.report.failed)),
            ("ttft_p50_s", Val::from(s.report.ttft.p50)),
            ("ttft_p90_s", Val::from(s.report.ttft.p90)),
            ("e2e_p90_s", Val::from(s.report.e2e.p90)),
            ("tok_s", Val::from(s.report.throughput_tps)),
            ("hit_rate", Val::from(s.replica_hit_rate)),
            ("kv_transfers", Val::from(s.transfers.started)),
            ("kv_transfer_tokens", Val::from(s.transfers.tokens_sent)),
            ("demoted_tokens", Val::from(s.demoted_tokens)),
            ("promoted_tokens", Val::from(s.promoted_tokens)),
            ("replica_seconds", Val::from(replica_seconds)),
            ("end_time_s", Val::from(s.end_time.as_secs_f64())),
        ]
    }

    /// One `BENCH_fleet.json` row: the fleet-elasticity schema.
    pub fn fleet_row(fleet: &str, s: &RunSummary) -> Vec<(&'static str, Val)> {
        vec![
            ("fleet", Val::from(fleet)),
            ("completed", Val::from(s.report.completed)),
            ("failed", Val::from(s.report.failed)),
            ("retried", Val::from(s.report.retried)),
            ("in_flight", Val::from(s.report.in_flight)),
            ("ttft_p50_s", Val::from(s.report.ttft.p50)),
            ("ttft_p90_s", Val::from(s.report.ttft.p90)),
            ("e2e_p90_s", Val::from(s.report.e2e.p90)),
            ("tok_s", Val::from(s.report.throughput_tps)),
            ("mean_fleet", Val::from(s.fleet.mean_total())),
            ("peak_fleet", Val::from(s.fleet.peak_total())),
            ("joins", Val::from(s.fleet.joins)),
            ("drains", Val::from(s.fleet.drains)),
            ("crashes", Val::from(s.fleet.crashes)),
            ("forwarded", Val::from(s.forwarded)),
        ]
    }
}

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header with a separator line.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a ratio as `N.NN×`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(ratio(2.5), "2.50x");
        assert_eq!(pct(0.405), "40.5%");
    }

    #[test]
    fn json_reexport_still_reachable() {
        // The serializer moved to skywalker-metrics; the historical
        // `skywalker_bench::json` path must keep compiling for every
        // bench target and downstream script.
        let mut rep = json::Report::new("reexport");
        rep.row(&[("k", json::Val::from(1u64))]);
        assert_eq!(rep.len(), 1);
    }

    #[test]
    fn row_schemas_are_stable() {
        // The JSON row schemas are diffed across commits; field names
        // and order are a contract. Guard them with a golden key list.
        use skywalker::{balanced_fleet, Workload};
        use skywalker::{run_scenario, FabricConfig, Scenario};
        let scenario = Scenario::builder()
            .replicas(balanced_fleet())
            .workload(Workload::Tot, 0.02, 7)
            .build()
            .expect("fleet and workload are set");
        let s = run_scenario(&scenario, &FabricConfig::default());

        let keys: Vec<&str> = rows::fig8_row("w", &s).iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "workload",
                "system",
                "tok_s",
                "ttft_p50_s",
                "ttft_p90_s",
                "ttft_mean_s",
                "e2e_p50_s",
                "e2e_p90_s",
                "hit_rate",
                "forwarded",
                "completed",
                "end_time_s"
            ]
        );
        let keys: Vec<&str> = rows::engine_row("e", &s).iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "engine",
                "completed",
                "failed",
                "ttft_p50_s",
                "ttft_p90_s",
                "e2e_p90_s",
                "tok_s",
                "hit_rate",
                "preempted",
                "evicted_tokens",
                "demoted_tokens",
                "promoted_tokens",
                "kv_transfers",
                "kv_transfer_tokens",
                "chunked_steps",
                "end_time_s"
            ]
        );
        let keys: Vec<&str> = rows::disagg_row("w", "m", &s)
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(
            keys,
            [
                "workload",
                "mode",
                "completed",
                "failed",
                "ttft_p50_s",
                "ttft_p90_s",
                "e2e_p90_s",
                "tok_s",
                "hit_rate",
                "kv_transfers",
                "kv_transfer_tokens",
                "demoted_tokens",
                "promoted_tokens",
                "replica_seconds",
                "end_time_s"
            ]
        );
        let keys: Vec<&str> = rows::fleet_row("f", &s).iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "fleet",
                "completed",
                "failed",
                "retried",
                "in_flight",
                "ttft_p50_s",
                "ttft_p90_s",
                "e2e_p90_s",
                "tok_s",
                "mean_fleet",
                "peak_fleet",
                "joins",
                "drains",
                "crashes",
                "forwarded"
            ]
        );
    }
}
