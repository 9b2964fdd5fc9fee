//! The reproducibility contract, asserted dynamically: running the same
//! preset twice in one process — and again through the lab's parallel
//! executor — must produce byte-identical metric digests. This is the
//! runtime complement of `skywalker-lint` (which enforces the same
//! contract statically) and of `tests/golden_digests.rs` (which pins
//! digests *across* builds): here we pin them *within* a build, where a
//! violation points at ambient state rather than intended change.

use skywalker::sim::SimDuration;
use skywalker::{
    disagg_scenario, fig10_diurnal_scenario, fig8_scenario, memory_pressure_scenario, recipe,
    run_scenario, DisaggWorkload, EngineSpec, FabricConfig, RunSummary, Scenario, SystemKind,
    Workload,
};
use skywalker_lab::SweepSpec;
use skywalker_metrics::json::{Report, Val};

/// Renders the run digest as a stable JSON document, so equality here
/// means equality in the golden files.
fn digest(tag: &str, seed: u64, s: &RunSummary) -> String {
    let mut rep = Report::new(format!("double_run_{tag}"));
    let mut row = vec![("seed", Val::from(seed))];
    row.extend(s.digest_fields());
    rep.row(&row);
    rep.render()
}

fn assert_double_run(tag: &str, build: impl Fn(u64) -> Scenario) {
    for seed in [1u64, 7] {
        let cfg = FabricConfig {
            seed,
            ..FabricConfig::default()
        };
        let first = digest(tag, seed, &run_scenario(&build(seed), &cfg));
        let second = digest(tag, seed, &run_scenario(&build(seed), &cfg));
        assert_eq!(
            first, second,
            "{tag}/seed {seed}: two in-process runs diverged — ambient state leaked into the sim"
        );
    }
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

/// The diurnal cell again, through the lab's parallel executor: worker
/// count must be invisible in the rendered sweep report.
#[test]
fn lab_diurnal_sweep_is_worker_count_invariant() {
    let sweep = || {
        SweepSpec::new("double-run-diurnal", 42).replicates(2).cell(
            "skywalker-diurnal-q25",
            recipe(|seed| {
                fig10_diurnal_scenario(SystemKind::SkyWalker, 2, DIURNAL_DAY, 0.25, seed)
            }),
        )
    };
    let serial = sweep().run(1).report().json_string();
    let parallel = sweep().run(2).report().json_string();
    assert_eq!(
        serial, parallel,
        "diurnal sweep results must be bit-identical at any worker count"
    );
}

/// The role axis through the lab: a sweep mixing colocated and split
/// cells of both traffic shapes renders identically at any worker
/// count. Handoff scheduling rides the same deterministic event queue
/// as everything else, so thread placement must be invisible.
#[test]
fn lab_disagg_sweep_is_worker_count_invariant() {
    let sweep = || {
        let mut spec = SweepSpec::new("double-run-disagg", 42).replicates(2);
        for wl in DisaggWorkload::ALL {
            for disagg in [false, true] {
                let label = format!("{}/{}", wl.label(), if disagg { "split" } else { "colo" });
                spec = spec.cell(
                    label,
                    recipe(move |seed| disagg_scenario(wl, disagg, 0.5, seed)),
                );
            }
        }
        spec
    };
    let serial = sweep().run(1).report().json_string();
    let parallel = sweep().run(2).report().json_string();
    assert_eq!(
        serial, parallel,
        "disagg sweep results must be bit-identical at any worker count"
    );
}

/// The lab's slot-addressed pool must be invisible in the results: the
/// same sweep at 1 worker and at 2 workers renders the same JSON.
#[test]
fn lab_sweep_is_worker_count_invariant() {
    let sweep = || {
        SweepSpec::new("double-run", 42)
            .replicates(2)
            .cell(
                "skywalker-tot",
                recipe(|seed| fig8_scenario(SystemKind::SkyWalker, Workload::Tot, 0.02, seed)),
            )
            .cell(
                "least-load-tot",
                recipe(|seed| fig8_scenario(SystemKind::LeastLoad, Workload::Tot, 0.02, seed)),
            )
    };
    let serial = sweep().run(1).report().json_string();
    let parallel = sweep().run(2).report().json_string();
    assert_eq!(
        serial, parallel,
        "sweep results must be bit-identical at any worker count"
    );
}
