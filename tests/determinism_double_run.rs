//! The reproducibility contract, asserted dynamically: running the same
//! preset twice in one process — and again through the lab's parallel
//! executor — must produce byte-identical metric digests. This is the
//! runtime complement of `skywalker-lint` (which enforces the same
//! contract statically) and of `tests/golden_digests.rs` (which pins
//! digests *across* builds): here we pin them *within* a build, where a
//! violation points at ambient state rather than intended change.

use std::sync::Arc;

use skywalker::sim::SimDuration;
use skywalker::{
    disagg_scenario, fig10_diurnal_scenario, fig8_scenario, memory_pressure_scenario, run_scenario,
    DisaggWorkload, EngineSpec, FabricConfig, RunSummary, Scenario, SystemKind, Workload,
};
use skywalker_lab::SweepSpec;
use skywalker_metrics::json::Report;

/// Renders the run digest as a stable JSON document, so equality here
/// means equality in the golden files.
fn digest(tag: &str, s: &RunSummary) -> String {
    let mut rep = Report::new(format!("double_run_{tag}"));
    rep.row(&s.digest_fields());
    rep.render()
}

const SEEDS: [u64; 2] = [1, 7];

fn config(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        ..FabricConfig::default()
    }
}

fn assert_double_run(tag: &str, build: impl Fn(u64) -> Scenario) {
    for seed in SEEDS {
        let tag = format!("{tag}@{seed}");
        let first = digest(&tag, &run_scenario(&build(seed), &config(seed)));
        let second = digest(&tag, &run_scenario(&build(seed), &config(seed)));
        assert_eq!(
            first, second,
            "{tag}: two in-process runs diverged — ambient state leaked into the sim"
        );
    }
}

/// A seed-parametric preset, as a lab cell list holds it.
type Preset = Arc<dyn Fn(u64) -> Scenario + Send + Sync>;

/// Runs every preset at each of [`SEEDS`] as one lab sweep, on 1 and on
/// 2 workers: every cell's full run digest must be the same.
fn assert_worker_count_invariant(presets: Vec<(String, Preset)>) {
    let spec = || {
        let mut spec = SweepSpec::new();
        for (label, build) in &presets {
            for seed in SEEDS {
                let build = Arc::clone(build);
                let cell = move || (build(seed), config(seed));
                spec = spec.cell(format!("{label}@{seed}"), cell);
            }
        }
        spec
    };
    let digests = |workers| -> Vec<String> {
        let cells = spec().run(workers).cells;
        cells.iter().map(|(label, s)| digest(label, s)).collect()
    };
    assert_eq!(
        digests(1),
        digests(2),
        "a sweep's run digests must be bit-identical at any worker count"
    );
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
    assert_worker_count_invariant(vec![(
        "skywalker-diurnal-q25".into(),
        Arc::new(|seed| fig10_diurnal_scenario(SystemKind::SkyWalker, 2, DIURNAL_DAY, 0.25, seed)),
    )]);
}

/// The role axis through the lab: colocated and split cells of both
/// traffic shapes. Handoff scheduling rides the same deterministic event
/// queue as everything else, so thread placement must be invisible.
#[test]
fn lab_disagg_sweep_is_worker_count_invariant() {
    let mut cells: Vec<(String, Preset)> = Vec::new();
    for wl in DisaggWorkload::ALL {
        for disagg in [false, true] {
            let label = format!("{}/{}", wl.label(), if disagg { "split" } else { "colo" });
            cells.push((
                label,
                Arc::new(move |seed| disagg_scenario(wl, disagg, 0.5, seed)),
            ));
        }
    }
    assert_worker_count_invariant(cells);
}

#[test]
fn lab_sweep_is_worker_count_invariant() {
    let fig8 = |system| -> Preset {
        Arc::new(move |seed| fig8_scenario(system, Workload::Tot, 0.02, seed))
    };
    assert_worker_count_invariant(vec![
        ("skywalker-tot".into(), fig8(SystemKind::SkyWalker)),
        ("least-load-tot".into(), fig8(SystemKind::LeastLoad)),
    ]);
}
