//! The lab's core guarantee, pinned: the same cells give the same full
//! run digest, in spec order, at any worker count — and the same as a
//! plain serial `run_scenario` over the recipes.

use skywalker::{
    fig8_scenario, recipe, run_scenario, FabricConfig, RunSummary, Scenario, SystemKind, Workload,
};
use skywalker_lab::SweepSpec;

/// `(system, scale, seed)` per cell. The first cell is the longest and
/// the last the shortest, so a pool that kept completion order would
/// hand them back reordered.
const CELLS: [(SystemKind, f64, u64); 4] = [
    (SystemKind::SkyWalker, 0.04, 61),
    (SystemKind::RoundRobin, 0.03, 61),
    (SystemKind::SkyWalker, 0.02, 62),
    (SystemKind::RoundRobin, 0.01, 62),
];

fn build((system, scale, seed): (SystemKind, f64, u64)) -> (Scenario, FabricConfig) {
    recipe(move |seed| fig8_scenario(system, Workload::Tot, scale, seed))(seed)
}

fn spec() -> SweepSpec {
    CELLS.into_iter().fold(SweepSpec::new(), |spec, cell| {
        let label = format!("{:?}/{}@{}", cell.0, cell.1, cell.2);
        spec.cell(label, move || build(cell))
    })
}

/// Every digest field, `Debug`-formatted: floats print exactly (NaN
/// included), so equal strings mean bit-equal runs.
fn digest(s: &RunSummary) -> String {
    format!("{:?}", s.digest_fields())
}

fn digests(cells: &[(String, RunSummary)]) -> Vec<(String, String)> {
    cells.iter().map(|(l, s)| (l.clone(), digest(s))).collect()
}

#[test]
fn full_digests_identical_across_worker_counts() {
    let one = digests(&spec().run(1).cells);
    assert_eq!(one.len(), CELLS.len());
    for workers in [2, 8] {
        assert_eq!(
            digests(&spec().run(workers).cells),
            one,
            "{workers} workers diverged"
        );
    }
}

/// The pool must produce, cell for cell, exactly what a plain loop over
/// the recipes and `run_scenario` does.
#[test]
fn pool_matches_serial_run_scenario() {
    let pooled = spec().run(8);
    assert_eq!(pooled.cells.len(), CELLS.len());
    for ((label, run), cell) in pooled.cells.iter().zip(CELLS) {
        let (scenario, cfg) = build(cell);
        let serial = run_scenario(&scenario, &cfg);
        assert!(serial.report.completed > 0, "{label} served nothing");
        assert_eq!(digest(run), digest(&serial), "{label} left the serial run");
        assert_eq!(pooled.cell(label).map(digest), Some(digest(run)));
    }
}

/// A recipe's own panic reaches the caller, not the pool's generic one.
#[test]
#[should_panic(expected = "recipe failed")]
fn recipe_panic_reaches_the_caller() {
    let fail = || -> (Scenario, FabricConfig) { panic!("recipe failed") };
    SweepSpec::new()
        .cell("ok", move || build(CELLS[3]))
        .cell("fails", fail)
        .run(2);
}
