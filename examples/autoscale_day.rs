//! A full (compressed) diurnal day under three fleet strategies: the
//! paper's Fig. 2/3a demand curves, served by
//!
//! 1. a **static** fleet sized to the day's mean load,
//! 2. a **reactive** [`ThresholdAutoscaler`] (scale on queue pressure),
//! 3. a **predictive** [`PredictiveAutoscaler`] that knows the diurnal
//!    shape and provisions ahead of each region's ramp — implemented
//!    entirely outside `skywalker-fleet`, as the openness proof.
//!
//! Run with:
//! ```sh
//! cargo run --release --example autoscale_day
//! ```

use skywalker::{
    diurnal_day_scenario, equal_cost_lite_fleet, run_scenario, trio_diurnal_profiles, DayStrategy,
    FabricConfig, RunSummary, DIURNAL_DAY, REGIONS,
};

const SEED: u64 = 61;

fn run(strategy: DayStrategy) -> RunSummary {
    run_scenario(
        &diurnal_day_scenario(strategy, SEED),
        &FabricConfig::default(),
    )
}

fn main() {
    println!(
        "== A compressed diurnal day (24 h -> {}s) ==",
        DIURNAL_DAY.as_secs_f64()
    );
    for (region, p) in trio_diurnal_profiles() {
        println!(
            "  {region:<12?} {:<12} swings {:>5.2}x over the day",
            p.name,
            p.variance_ratio()
        );
    }

    // The elastic runs first: their time-weighted mean fleet size prices
    // the equal-cost static baseline.
    let elastic = run(DayStrategy::Reactive);
    let predicted = run(DayStrategy::Predictive);
    let mean = elastic.fleet.mean_total();
    let mut static_scenario = diurnal_day_scenario(DayStrategy::Static, SEED);
    static_scenario.replicas = equal_cost_lite_fleet(mean);
    let fixed = run_scenario(&static_scenario, &FabricConfig::default());

    println!(
        "\n  equal-cost baseline: reactive run averaged {mean:.2} replicas -> static fleet of {}",
        fixed.fleet.final_replicas
    );
    println!(
        "\n  {:<12} {:>9} {:>7} {:>8} {:>9} {:>10} {:>7} {:>7} {:>9}",
        "strategy",
        "completed",
        "failed",
        "p50 TTFT",
        "p90 TTFT",
        "mean fleet",
        "peak",
        "churn",
        "forwarded"
    );
    for (name, s) in [
        ("static", &fixed),
        ("reactive", &elastic),
        ("predictive", &predicted),
    ] {
        println!(
            "  {:<12} {:>9} {:>7} {:>7.2}s {:>8.2}s {:>10.2} {:>7.0} {:>7} {:>9}",
            name,
            s.report.completed,
            s.report.failed,
            s.report.ttft.p50,
            s.report.ttft.p90,
            s.fleet.mean_total(),
            s.fleet.peak_total(),
            s.fleet.joins + s.fleet.drains,
            s.forwarded,
        );
    }

    println!("\n== The day as the reactive autoscaler saw it (fleet size per region) ==");
    for region in REGIONS {
        let Some(series) = elastic.fleet.series(region) else {
            continue;
        };
        let mut row = format!("  {region:<12?} ");
        for k in 0..24 {
            let t = skywalker::sim::SimTime::ZERO + DIURNAL_DAY.mul_f64((k as f64 + 0.5) / 24.0);
            let v = series.value_at(t).unwrap_or(0.0) as u32;
            row.push_str(&format!("{v}"));
        }
        row.push_str("   (one digit per compressed hour)");
        println!("{row}");
    }

    println!("\nThe static fleet pays the morning ramp in queueing every day;");
    println!("the reactive plan pays it once per scale-out; the predictive");
    println!("plan — knowing Fig. 2's shape — pays it before it happens.");
}
