//! Fleet elasticity over the compressed diurnal day: a static fleet vs
//! seeded chaos churn vs reactive and predictive autoscaling, all on the
//! same Fig. 2/3a demand curves. Emits `BENCH_fleet.json` so the
//! elasticity trajectory stays diffable across commits.
//!
//! The four strategies execute concurrently on `skywalker-lab`'s worker
//! pool; every recipe pins the legacy seeds, so the rows are
//! byte-identical to the serial driver (schema:
//! `RunSummary::FLEET_ROW`).

use skywalker::metrics::json::{Report, Val};
use skywalker::sim::SimDuration;
use skywalker::{
    diurnal_reference_predictive, diurnal_reference_reactive, fig10_diurnal_scenario, ChaosConfig,
    ChaosPlan, FabricConfig, FleetPlan, PredictiveAutoscaler, RunSummary, SystemKind,
    ThresholdAutoscaler, L4_LITE,
};
use skywalker_bench::{f, header, row};
use skywalker_lab::SweepSpec;

const DAY: SimDuration = SimDuration::from_secs(1_200);
const SCALE: f64 = 0.008;
const SEED: u64 = 61;

/// Builds one strategy's fleet plan (fresh per invocation, so the
/// recipe closures stay pure and `Send + Sync`).
fn plan_for(name: &str) -> Option<Box<dyn FleetPlan>> {
    match name {
        "static-3/region" => None,
        "chaos" => Some(Box::new(ChaosPlan::new(
            ChaosConfig {
                mtbf: SimDuration::from_secs(120),
                mttr: SimDuration::from_secs(45),
                profile: L4_LITE,
                min_live_per_region: 1,
                ..ChaosConfig::default()
            },
            SEED,
        ))),
        "autoscaled(reactive)" => Some(Box::new(ThresholdAutoscaler::new(
            diurnal_reference_reactive(),
        ))),
        "autoscaled(predictive)" => Some(Box::new(PredictiveAutoscaler::new(
            skywalker::trio_diurnal_profiles(),
            diurnal_reference_predictive(DAY, SCALE),
        ))),
        other => unreachable!("unknown strategy {other}"),
    }
}

/// `(label, starting replicas per region)`.
const STRATEGIES: [(&str, u32); 4] = [
    ("static-3/region", 3),
    ("chaos", 3),
    ("autoscaled(reactive)", 1),
    ("autoscaled(predictive)", 1),
];

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# Fleet elasticity — static vs chaos vs autoscaled over the diurnal day\n");

    let mut spec = SweepSpec::new("fleet_elasticity", SEED);
    for (name, per_region) in STRATEGIES {
        spec = spec.cell(name, move |_| {
            let mut scenario =
                fig10_diurnal_scenario(SystemKind::SkyWalker, per_region, DAY, SCALE, SEED);
            scenario.fleet_plan = plan_for(name);
            (scenario, FabricConfig::default())
        });
    }
    let result = spec.run(workers);

    let mut rep = Report::new("fleet_elasticity");
    rep.meta("day_secs", DAY.as_secs_f64());
    rep.meta("scale", SCALE);
    rep.meta("seed", SEED);

    header(&[
        "fleet",
        "completed",
        "failed",
        "retried",
        "p90 TTFT",
        "tok/s",
        "mean fleet",
        "peak",
        "joins",
        "drains",
        "crashes",
    ]);
    for cell in &result.cells {
        let s = &cell.runs[0].summary;
        row(&[
            cell.label.clone(),
            s.report.completed.to_string(),
            s.report.failed.to_string(),
            s.report.retried.to_string(),
            format!("{:.2}s", s.report.ttft.p90),
            f(s.report.throughput_tps, 0),
            f(s.fleet.mean_total(), 2),
            f(s.fleet.peak_total(), 0),
            s.fleet.joins.to_string(),
            s.fleet.drains.to_string(),
            s.fleet.crashes.to_string(),
        ]);
        let mut fields = vec![("fleet", Val::from(cell.label.as_str()))];
        fields.extend(s.row(RunSummary::FLEET_ROW));
        rep.row(&fields);
    }

    rep.write("BENCH_fleet.json")
        .expect("write BENCH_fleet.json");
    println!("\nChaos completes the day with every request accounted; the");
    println!("autoscalers trade a little churn for tracking the demand curve.");
}
