//! The lab's core guarantee, pinned: the same `SweepSpec` produces
//! bit-identical results at any worker count, and the worker pool
//! agrees run-for-run with plain serial `run_scenario` execution.

use skywalker::{fig8_scenario, recipe, run_scenario, SystemKind, Workload};
use skywalker_lab::{derive_seed, SweepSpec};

const SCALE: f64 = 0.02;

fn demo_spec() -> SweepSpec {
    SweepSpec::new("invariance", 61)
        .replicates(2)
        .cell(
            "skywalker/tot",
            recipe(|seed| fig8_scenario(SystemKind::SkyWalker, Workload::Tot, SCALE, seed)),
        )
        .cell(
            "round-robin/tot",
            recipe(|seed| fig8_scenario(SystemKind::RoundRobin, Workload::Tot, SCALE, seed)),
        )
}

/// The satellite acceptance check: workers ∈ {1, 2, 8} serialize to
/// identical `SweepReport` JSON (and markdown).
#[test]
fn report_identical_across_worker_counts() {
    let spec = demo_spec();
    let one = spec.run(1);
    let two = spec.run(2);
    let eight = spec.run(8);

    let reference = one.report().json_string();
    assert!(!reference.is_empty());
    assert_eq!(two.report().json_string(), reference, "2 workers diverged");
    assert_eq!(
        eight.report().json_string(),
        reference,
        "8 workers diverged"
    );
    assert_eq!(two.report().markdown(), one.report().markdown());

    // The pool clamps to the job count; the requested parallelism is
    // still recorded faithfully up to that clamp.
    assert_eq!(one.workers, 1);
    assert_eq!(two.workers, 2);
    assert_eq!(eight.workers, 4, "8 workers clamp to the 4 crossings");
}

/// Parity against hand-rolled serial execution: the pool must produce
/// exactly what a plain loop over `derive_seed` + `run_scenario` does.
#[test]
fn pool_matches_serial_run_scenario() {
    let spec = demo_spec();
    let result = spec.run(8);
    assert_eq!(result.total_runs(), 4);

    for cell in &result.cells {
        let system = if cell.label.starts_with("skywalker") {
            SystemKind::SkyWalker
        } else {
            SystemKind::RoundRobin
        };
        let recipe = recipe(move |seed| fig8_scenario(system, Workload::Tot, SCALE, seed));
        for (rep_idx, run) in cell.runs.iter().enumerate() {
            let expected_seed = derive_seed(61, &cell.label, rep_idx as u64);
            assert_eq!(run.tag, rep_idx as u64);
            assert_eq!(run.seed, expected_seed, "seed derivation drifted");
            let (scenario, cfg) = recipe(expected_seed);
            let serial = run_scenario(&scenario, &cfg);
            assert_eq!(serial.report.completed, run.summary.report.completed);
            assert_eq!(serial.report.failed, run.summary.report.failed);
            assert_eq!(serial.forwarded, run.summary.forwarded);
            assert_eq!(serial.end_time, run.summary.end_time);
            assert!(
                (serial.report.throughput_tps - run.summary.report.throughput_tps).abs() < 1e-12
            );
            assert!((serial.report.ttft.p50 - run.summary.report.ttft.p50).abs() < 1e-12);
        }
    }
}

/// Replicates vary while cells stay comparable: aggregates are ordered
/// (min ≤ mean ≤ max) and the derived seeds differ per replicate.
#[test]
fn cell_stats_aggregate_replicates() {
    let result = demo_spec().run(2);
    for cell in &result.cells {
        assert_eq!(cell.stats.replicates, 2);
        let seeds: Vec<u64> = cell.runs.iter().map(|r| r.seed).collect();
        assert_ne!(seeds[0], seeds[1], "replicates must not share a seed");
        for s in [
            &cell.stats.ttft_p50,
            &cell.stats.throughput_tps,
            &cell.stats.completed,
            &cell.stats.replica_seconds,
            &cell.stats.cost_usd,
        ] {
            assert_eq!(s.count, 2);
            assert!(s.min <= s.mean && s.mean <= s.max, "unordered spread {s:?}");
        }
        // A static 12- or 8-replica fleet over the run duration.
        let rs = &cell.stats.replica_seconds;
        assert!(rs.mean > 0.0);
        assert!(cell.stats.cost_usd.mean > 0.0);
    }
    // Both cells served traffic.
    assert!(result.cells[0].stats.completed.mean > 0.0);
    assert!(result.cells[1].stats.completed.mean > 0.0);
}
