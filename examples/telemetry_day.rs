//! A day in the life, on the dashboard: run the diurnal macro-benchmark
//! with the telemetry plane attached and render what an operator's wall
//! display would show — sparkline time series from the sampled series and
//! a final registry snapshot in markdown and Prometheus form.
//!
//! Run with:
//! ```sh
//! cargo run --release --example telemetry_day
//! ```
//!
//! Tracing (`examples/trace_bottlenecks.rs`) answers *where the time
//! went* after a run; telemetry answers *what is happening now* while
//! one is in flight. Same fabric, opposite direction of gaze.

use skywalker::sim::SimDuration;
use skywalker::telemetry::sparkline;
use skywalker::{
    fig10_diurnal_scenario, markdown_table, prometheus_text, run_scenario, FabricConfig,
    SystemKind, TelemetrySummary,
};

/// One dashboard row: the series' sparkline plus its latest and peak.
fn row(summary: &TelemetrySummary, name: &str, unit: &str, width: usize) {
    let series = summary.series(name).expect("series was sampled");
    let values = series.values();
    let latest = series.latest().map(|(_, v)| v).unwrap_or(0.0);
    let peak = series.peak();
    println!(
        "{name:<22} {}  last {latest:>8.3}{unit}  peak {peak:>8.3}{unit}",
        sparkline(&values, width)
    );
}

fn main() {
    // A compressed day: 24 h of the Fig. 3a demand curves squeezed into
    // 40 simulated minutes, sampled every 15 simulated seconds.
    let day = SimDuration::from_secs(40 * 60);
    let scenario = fig10_diurnal_scenario(SystemKind::SkyWalker, 4, day, 0.05, 42);
    let cfg = FabricConfig {
        seed: 42,
        ..FabricConfig::default()
    }
    .telemetry(SimDuration::from_secs(15));

    let s = run_scenario(&scenario, &cfg);
    let telemetry = s.telemetry.as_ref().expect("telemetry was enabled");

    println!(
        "{} — {} ticks at {:?} cadence",
        s.label, telemetry.ticks, telemetry.interval
    );
    println!("{}", "-".repeat(78));
    row(telemetry, "queue_depth", " req", 40);
    row(telemetry, "ttft_p90_seconds", " s", 40);
    row(telemetry, "hit_ratio", "", 40);
    row(telemetry, "serving_replicas", "", 40);
    row(telemetry, "kv_utilization", "", 40);
    println!("{}", "-".repeat(78));

    println!("\nFinal registry snapshot (markdown):\n");
    println!("{}", markdown_table(&telemetry.snapshot));

    // The same snapshot as a scrape would return it; print a taste.
    let exposition = prometheus_text(&telemetry.snapshot);
    println!(
        "Prometheus exposition (first lines of {} bytes):\n",
        exposition.len()
    );
    for line in exposition.lines().take(8) {
        println!("  {line}");
    }

    // CI smoke value: the dashboard must actually have data on it.
    assert!(telemetry.ticks > 0, "telemetry never ticked");
    assert!(
        !telemetry.snapshot.is_empty(),
        "registry snapshot came back empty"
    );
    let ttft = telemetry
        .series("ttft_p90_seconds")
        .expect("ttft series exists");
    assert!(
        ttft.values().iter().any(|&v| v > 0.0),
        "no TTFT was ever observed"
    );
    assert!(
        s.report.completed > 0,
        "the diurnal day completed no requests"
    );
    println!(
        "\nok: {} requests completed under observation",
        s.report.completed
    );
}
