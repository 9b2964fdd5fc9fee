//! Golden-run regression harness for the four-axis cross-product.
//!
//! Every preset family — the eight `SystemKind`s, the four workloads,
//! the figure scenarios, and the new `memory_pressure` engine preset —
//! runs at two seeds; each run's `RunSummary::digest_fields` are
//! rendered as a stable JSON row and compared byte-for-byte against
//! the committed files under `tests/golden/`. Any behavioral drift
//! anywhere in the stack (routing, traffic, fleet, serving engine,
//! metrics) now fails CI with a readable first-difference diff instead
//! of sailing through.
//!
//! The whole pipeline is deterministic by construction (integer sim
//! time, seeded RNG streams, sorted-histogram aggregation), so exact
//! float equality is the right bar — looser comparisons would let real
//! drift hide inside the tolerance.
//!
//! To refresh after an *intentional* behavior change, rerun with
//! `UPDATE_GOLDENS=1` (`tests/common/mod.rs`) and commit the diff under
//! `tests/golden/` alongside the change that explains it.

mod common;

use common::{compare_or_update, read_committed, updating_goldens};
use skywalker::sim::SimDuration;
use skywalker::telemetry::names as metric_names;
use skywalker::{
    disagg_scenario, fig10_diurnal_scenario, fig10_scenario, fig8_scenario, fig9_scenario,
    memory_pressure_scenario, run_scenario, DisaggWorkload, EngineSpec, FabricConfig, FcfsBatch,
    LruEvictor, NoEvict, PrefixAwareEvictor, Scenario, ShortestPromptFirst, SystemKind,
    TraceConfig, Workload,
};
use skywalker_metrics::json::{Report, Val};

const SEEDS: [u64; 2] = [1, 2];

/// How a golden re-run is instrumented. Both planes are observation-only
/// by contract, so any variant must render the identical digest.
#[derive(Clone, Copy)]
enum Instrument {
    None,
    Trace,
    Telemetry(SimDuration),
}

/// One golden cell: a tag and a seed-parametric scenario builder.
type GoldenCell = (String, Box<dyn Fn(u64) -> Scenario>);

/// The keys every pre-disagg golden file carries, selected from
/// [`RunSummary::digest_fields`] (which owns the values and the order).
/// A key list per group, not "everything", so the digest can grow
/// without rewriting committed files.
const BASE_KEYS: [&str; 27] = [
    "label",
    "engine",
    "completed",
    "failed",
    "retried",
    "in_flight",
    "prompt_tokens",
    "cached_prompt_tokens",
    "generated_tokens",
    "tok_s",
    "client_hit_rate",
    "replica_hit_rate",
    "ttft_p50_s",
    "ttft_p90_s",
    "ttft_mean_s",
    "e2e_p50_s",
    "e2e_p90_s",
    "end_time_s",
    "forwarded",
    "peak_lb_queue",
    "dispatch_imbalance",
    "preempted",
    "evicted_tokens",
    "chunked_steps",
    "fleet_joins",
    "fleet_crashes",
    "fleet_mean",
];

/// The disagg group appends the handoff and tier counters that only the
/// role-split presets exercise.
const DISAGG_KEYS: [&str; 6] = [
    "kv_transfers",
    "kv_transfers_landed",
    "kv_transfers_aborted",
    "kv_transfer_tokens",
    "demoted_tokens",
    "promoted_tokens",
];

/// Renders one group's report: per cell and seed, `tag`, `seed`, then
/// the digest fields named by [`BASE_KEYS`] plus `extra_keys`.
fn render_group(
    name: &str,
    extra_keys: &[&'static str],
    cells: &[GoldenCell],
    instrument: Instrument,
) -> String {
    // Golden columns carry the digest's own names.
    let schema: Vec<(&str, &str)> = BASE_KEYS
        .iter()
        .chain(extra_keys)
        .map(|&k| (k, k))
        .collect();
    let mut rep = Report::new(format!("golden_{name}"));
    rep.meta("seeds", format!("{SEEDS:?}"));
    for (tag, build) in cells {
        for seed in SEEDS {
            let scenario = build(seed);
            let base = FabricConfig {
                seed,
                ..FabricConfig::default()
            };
            let cfg = match instrument {
                Instrument::None => base,
                Instrument::Trace => FabricConfig {
                    trace: Some(TraceConfig::default()),
                    ..base
                },
                Instrument::Telemetry(interval) => base.telemetry(interval),
            };
            let summary = run_scenario(&scenario, &cfg);
            match instrument {
                Instrument::None => {}
                Instrument::Trace => assert!(
                    summary.trace.as_ref().is_some_and(|t| !t.events.is_empty()),
                    "{tag}/{seed}: tracing was requested but recorded nothing"
                ),
                Instrument::Telemetry(_) => {
                    let t = summary.telemetry.as_ref();
                    assert!(
                        t.is_some_and(|t| t.ticks > 0 && !t.snapshot.is_empty()),
                        "{tag}/{seed}: telemetry was requested but sampled nothing"
                    );
                    assert!(
                        t.and_then(|t| t.series("ttft_p90_seconds"))
                            .is_some_and(|s| s.values().iter().any(|&v| v > 0.0)),
                        "{tag}/{seed}: the sampled TTFT series never saw a first token"
                    );
                    for sample in t.iter().flat_map(|t| &t.snapshot.samples) {
                        assert!(
                            metric_names::ALL.contains(&sample.name.as_str()),
                            "{tag}/{seed}: {} is not in the metric-name table",
                            sample.name
                        );
                    }
                }
            }
            let mut row = vec![("tag", Val::from(tag.as_str())), ("seed", Val::from(seed))];
            row.extend(summary.row(&schema));
            rep.row(&row);
        }
    }
    rep.render()
}

fn run_group(name: &str, extra_keys: &[&'static str], cells: Vec<GoldenCell>) {
    let rendered = render_group(name, extra_keys, &cells, Instrument::None);
    compare_or_update(&format!("tests/golden/{name}.json"), &rendered);
}

type CellList = Vec<GoldenCell>;

/// All eight deployment presets on one workload: routing-axis coverage.
#[test]
fn golden_systems() {
    let mut cells: CellList = Vec::new();
    let mut systems = SystemKind::FIG8.to_vec();
    systems.push(SystemKind::RegionLocal);
    for system in systems {
        cells.push((
            system.label().to_string(),
            Box::new(move |seed| fig8_scenario(system, Workload::Tot, 0.02, seed)),
        ));
    }
    run_group("systems", &[], cells);
}

/// Every column a report or a golden file asks of the digest exists, and
/// digest keys are unique — `RunSummary::row` panics on a key the digest
/// lacks, so a renamed value is a failure here, never a dropped column.
#[test]
fn row_schemas_and_golden_keys_resolve_against_the_digest() {
    let scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Tot, 0.02, 1);
    let s = run_scenario(&scenario, &FabricConfig::default());
    let digest = s.digest_fields();
    for (i, (key, _)) in digest.iter().enumerate() {
        assert!(
            !digest[..i].iter().any(|(k, _)| k == key),
            "duplicate digest key {key}"
        );
    }
    let golden: Vec<(&str, &str)> = BASE_KEYS
        .iter()
        .chain(&DISAGG_KEYS)
        .map(|&k| (k, k))
        .collect();
    let row = s.row(&golden);
    let names: Vec<&str> = row.iter().map(|(name, _)| *name).collect();
    let asked: Vec<&str> = golden.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, asked, "columns come back in schema order");
}

/// All four paper workloads on SkyWalker: traffic-axis coverage.
#[test]
fn golden_workloads() {
    let cells: CellList = Workload::ALL
        .into_iter()
        .map(|w| {
            (
                w.label().to_string(),
                Box::new(move |seed| fig8_scenario(SystemKind::SkyWalker, w, 0.02, seed))
                    as Box<dyn Fn(u64) -> Scenario>,
            )
        })
        .collect();
    run_group("workloads", &[], cells);
}

/// The figure presets (single-region micro, diurnal-imbalance macro).
#[test]
fn golden_figures() {
    let cells: CellList = vec![
        (
            "fig9".to_string(),
            Box::new(|seed| fig9_scenario(SystemKind::SkyWalker, 2, 6, seed)),
        ),
        (
            "fig10".to_string(),
            Box::new(|seed| fig10_scenario(SystemKind::SkyWalker, 4, 0.05, seed)),
        ),
    ];
    run_group("figures", &[], cells);
}

/// The compressed diurnal day at the scale-curve's 0.1 point: pins the
/// exact preset family the perf pass optimized (trie-heavy routing over
/// the trio demand curves), so hot-path rewrites stay behavior-
/// preserving at the byte level.
#[test]
fn golden_diurnal() {
    let cells: CellList = vec![(
        "diurnal-q10".to_string(),
        Box::new(|seed| {
            fig10_diurnal_scenario(
                SystemKind::SkyWalker,
                2,
                SimDuration::from_secs(240),
                0.1,
                seed,
            )
        }),
    )];
    run_group("diurnal", &[], cells);
}

fn memory_pressure_cells() -> CellList {
    type EngineMaker = fn() -> EngineSpec;
    let engines: Vec<(&str, EngineMaker)> = vec![
        ("default", EngineSpec::default),
        ("chunked", || {
            EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor))
        }),
        ("sjf-prefix", || {
            EngineSpec::new(
                Box::new(ShortestPromptFirst::new()),
                Box::new(PrefixAwareEvictor),
            )
        }),
        ("noevict", || {
            EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(NoEvict))
        }),
    ];
    engines
        .into_iter()
        .map(|(tag, mk)| {
            (
                tag.to_string(),
                Box::new(move |seed| memory_pressure_scenario(mk(), 0.25, seed))
                    as Box<dyn Fn(u64) -> Scenario>,
            )
        })
        .collect()
}

/// The memory-pressure preset across engines: serving-engine-axis
/// coverage (incl. the default engine, whose rows double as the
/// byte-level pin of FCFS+LRU at fabric scope).
#[test]
fn golden_memory_pressure() {
    run_group("memory_pressure", &[], memory_pressure_cells());
}

/// The disaggregation axis: both traffic shapes, colocated and split,
/// digested with the transfer and tier-migration counters appended.
/// The colo rows pin that a role-free fleet stays on the classical path
/// (zero transfers); the split rows pin the handoff pipeline itself.
#[test]
fn golden_disagg() {
    let mut cells: CellList = Vec::new();
    for wl in DisaggWorkload::ALL {
        for disagg in [false, true] {
            let tag = format!("{}/{}", wl.label(), if disagg { "split" } else { "colo" });
            cells.push((
                tag,
                Box::new(move |seed| disagg_scenario(wl, disagg, 0.5, seed)),
            ));
        }
    }
    run_group("disagg", &DISAGG_KEYS, cells);
}

/// Tracing is observation-only: re-running the memory-pressure group
/// with the span recorder attached must reproduce the committed digest
/// byte-for-byte. Read-only on purpose — `golden_memory_pressure` owns
/// the file, so this test never writes, even under `UPDATE_GOLDENS=1`
/// (it skips instead: the file may be mid-rewrite in a parallel test).
#[test]
fn golden_memory_pressure_traced_is_byte_identical() {
    if updating_goldens() {
        println!("skipping traced comparison while goldens are being refreshed");
        return;
    }
    let rendered = render_group(
        "memory_pressure",
        &[],
        &memory_pressure_cells(),
        Instrument::Trace,
    );
    let expected = read_committed("tests/golden/memory_pressure.json");
    assert_eq!(
        expected, rendered,
        "attaching the trace recorder changed a run's digest — tracing must be observation-only"
    );
}

/// Telemetry is observation-only at *any* cadence: re-running the
/// memory-pressure group with the metrics plane sampling at two different
/// intervals must reproduce the committed digest byte-for-byte. The
/// telemetry tick only reads component state and feeds the registry, so
/// neither the extra scheduler entries nor the sampling rate may leak
/// into outcomes. Read-only like the traced gate above.
#[test]
fn golden_memory_pressure_telemetry_is_byte_identical_at_two_cadences() {
    if updating_goldens() {
        println!("skipping telemetry comparison while goldens are being refreshed");
        return;
    }
    let expected = read_committed("tests/golden/memory_pressure.json");
    for interval in [SimDuration::from_secs(1), SimDuration::from_millis(100)] {
        let rendered = render_group(
            "memory_pressure",
            &[],
            &memory_pressure_cells(),
            Instrument::Telemetry(interval),
        );
        assert_eq!(
            expected, rendered,
            "telemetry sampling every {interval:?} changed a run's digest — telemetry must be \
             observation-only"
        );
    }
}
