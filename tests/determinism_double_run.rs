//! The reproducibility contract, asserted dynamically: running the same
//! preset twice in one process — and again through the lab's parallel
//! executor — must produce byte-identical metric digests. This is the
//! runtime complement of `skywalker-lint` (which enforces the same
//! contract statically) and of `tests/golden_digests.rs` (which pins
//! digests *across* builds): here we pin them *within* a build, where a
//! violation points at ambient state rather than intended change.

use std::sync::Arc;

use skywalker::lab::SweepSpec;
use skywalker::sim::SimDuration;
use skywalker::{
    disagg_scenario, fig10_diurnal_scenario, fig8_scenario, memory_pressure_scenario, recipe,
    run_scenario, DisaggWorkload, EngineSpec, FabricConfig, RunSummary, Scenario, SystemKind,
    Workload,
};

/// Every digest field, `Debug`-formatted: floats print exactly (NaN
/// included), so equal strings mean bit-equal runs, and so equal golden
/// files.
fn digest(s: &RunSummary) -> String {
    format!("{:?}", s.digest_fields())
}

const SEEDS: [u64; 2] = [1, 7];

fn assert_double_run(tag: &str, preset: impl Fn(u64) -> Scenario + Clone + Send + Sync + 'static) {
    let cell = recipe(preset);
    for seed in SEEDS {
        let run = || {
            let (scenario, cfg) = cell(seed);
            digest(&run_scenario(&scenario, &cfg))
        };
        assert_eq!(
            run(),
            run(),
            "{tag}@{seed}: two in-process runs diverged — ambient state leaked into the sim"
        );
    }
}

/// One lab cell: its label and its recipe, seed and all.
type Cell = (
    String,
    Arc<dyn Fn() -> (Scenario, FabricConfig) + Send + Sync>,
);

/// A seed-parametric preset's cells, `"{label}@{seed}"` for each of
/// [`SEEDS`].
fn seeded(
    label: &str,
    preset: impl Fn(u64) -> Scenario + Clone + Send + Sync + 'static,
) -> Vec<Cell> {
    let cell = recipe(preset);
    SEEDS
        .map(|seed| -> Cell {
            let cell = cell.clone();
            (format!("{label}@{seed}"), Arc::new(move || cell(seed)))
        })
        .to_vec()
}

/// Runs `cells` as one lab sweep per entry of `workers`: every sweep must
/// give each cell's full run digest, in spec order, as the first sweep
/// did, and a label must look up its own cell. Returns the digests.
fn assert_worker_count_invariant(cells: &[Cell], workers: &[usize]) -> Vec<(String, String)> {
    let sweep = |workers| -> Vec<(String, String)> {
        let spec = cells
            .iter()
            .fold(SweepSpec::new(), |spec, (label, recipe)| {
                let recipe = Arc::clone(recipe);
                spec.cell(label.clone(), move || recipe())
            });
        let result = spec.run(workers);
        for (label, run) in &result.cells {
            let found = result.cell(label).expect("every label is found");
            assert!(std::ptr::eq(found, run), "{label} looked up another cell");
        }
        let digests = result.cells.iter().map(|(l, run)| (l.clone(), digest(run)));
        digests.collect()
    };
    let first = sweep(workers[0]);
    for &workers in &workers[1..] {
        assert_eq!(sweep(workers), first, "{workers} workers diverged");
    }
    first
}

#[test]
fn fig8_preset_is_stable_across_reruns() {
    assert_double_run("fig8", |seed| {
        fig8_scenario(SystemKind::SkyWalker, Workload::Tot, 0.02, seed)
    });
}

#[test]
fn memory_pressure_preset_is_stable_across_reruns() {
    assert_double_run("memory_pressure", |seed| {
        memory_pressure_scenario(EngineSpec::default(), 0.25, seed)
    });
}

/// The compressed diurnal day at the scale-curve's 0.25 point. The
/// perf pass rebuilt the hot paths this preset leans on (trie child
/// maps, engine batch drain, fabric scratch buffers), so it gets its
/// own in-process stability cell alongside the legacy presets.
#[test]
fn diurnal_preset_is_stable_across_reruns() {
    assert_double_run("diurnal_q25", |seed| {
        fig10_diurnal_scenario(SystemKind::SkyWalker, 2, DIURNAL_DAY, 0.25, seed)
    });
}

/// Sim-day length of the diurnal determinism cells: long enough to
/// cross several demand-curve segments, short enough for a debug-build
/// test run.
const DIURNAL_DAY: SimDuration = SimDuration::from_secs(120);

/// The disaggregated preset: prefill→decode handoffs add a whole event
/// family (`KvTransfer`) plus the two-tier cache's demote/promote
/// machinery, all of which must be as replayable as the classical path.
/// The digest includes the transfer and tier counters, so a
/// nondeterministic handoff cannot hide behind stable latencies.
#[test]
fn disagg_preset_is_stable_across_reruns() {
    assert_double_run("disagg", |seed| {
        disagg_scenario(DisaggWorkload::DecodeHeavy, true, 0.5, seed)
    });
}

/// The diurnal cell again, through the lab's parallel executor.
#[test]
fn lab_diurnal_sweep_is_worker_count_invariant() {
    let cells = seeded("skywalker-diurnal-q25", |seed| {
        fig10_diurnal_scenario(SystemKind::SkyWalker, 2, DIURNAL_DAY, 0.25, seed)
    });
    assert_worker_count_invariant(&cells, &[1, 2]);
}

/// The role axis through the lab: colocated and split cells of both
/// traffic shapes. Handoff scheduling rides the same deterministic event
/// queue as everything else, so thread placement must be invisible.
#[test]
fn lab_disagg_sweep_is_worker_count_invariant() {
    let mut cells = Vec::new();
    for wl in DisaggWorkload::ALL {
        for disagg in [false, true] {
            let label = format!("{}/{}", wl.label(), if disagg { "split" } else { "colo" });
            cells.extend(seeded(&label, move |seed| {
                disagg_scenario(wl, disagg, 0.5, seed)
            }));
        }
    }
    assert_worker_count_invariant(&cells, &[1, 2]);
}

/// `(system, scale, seed)` per cell. The first cell is the longest and
/// the last the shortest, so a pool that kept completion order would
/// hand them back reordered.
const FIG8_CELLS: [(SystemKind, f64, u64); 4] = [
    (SystemKind::SkyWalker, 0.04, 61),
    (SystemKind::RoundRobin, 0.03, 61),
    (SystemKind::SkyWalker, 0.02, 62),
    (SystemKind::RoundRobin, 0.01, 62),
];

fn fig8_cell((system, scale, seed): (SystemKind, f64, u64)) -> Cell {
    let cell = recipe(move |seed| fig8_scenario(system, Workload::Tot, scale, seed));
    (
        format!("{system:?}/{scale}@{seed}"),
        Arc::new(move || cell(seed)),
    )
}

/// The four longest-first cells and two policies at two seeds, at 1, 2
/// and 8 workers, and against a plain serial `run_scenario` over the
/// recipes.
#[test]
fn lab_sweep_is_worker_count_invariant() {
    let mut cells = FIG8_CELLS.map(fig8_cell).to_vec();
    for (label, system) in [
        ("skywalker-tot", SystemKind::SkyWalker),
        ("least-load-tot", SystemKind::LeastLoad),
    ] {
        cells.extend(seeded(label, move |seed| {
            fig8_scenario(system, Workload::Tot, 0.02, seed)
        }));
    }
    let pooled = assert_worker_count_invariant(&cells, &[1, 2, 8]);
    let serial: Vec<(String, String)> = cells
        .iter()
        .map(|(label, recipe)| {
            let (scenario, cfg) = recipe();
            let run = run_scenario(&scenario, &cfg);
            assert!(run.report.completed > 0, "{label} served nothing");
            (label.clone(), digest(&run))
        })
        .collect();
    assert_eq!(pooled, serial, "the pool left the serial run");
}

/// A recipe's own panic reaches the caller, not the pool's generic one.
#[test]
#[should_panic(expected = "recipe failed")]
fn recipe_panic_reaches_the_caller() {
    let (_, ok) = fig8_cell(FIG8_CELLS[3]);
    let fail = || -> (Scenario, FabricConfig) { panic!("recipe failed") };
    SweepSpec::new()
        .cell("ok", move || ok())
        .cell("fails", fail)
        .run(2);
}

/// A label is the lookup key of `SweepResult::cell`: adding a second
/// cell under it panics, in release builds too.
#[test]
#[should_panic(expected = "duplicate cell label")]
fn duplicate_cell_label_panics() {
    let never = || -> (Scenario, FabricConfig) { unreachable!("the sweep is never run") };
    SweepSpec::new().cell("twice", never).cell("twice", never);
}
