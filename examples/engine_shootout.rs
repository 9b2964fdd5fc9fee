//! The serving-engine shootout: the `memory_pressure` preset run across
//! five engines on the parallel lab, proving the fourth experiment axis
//! is real — same routing, same traffic, same fleet, and the engines
//! still split on P90 TTFT and hit ratio because the bottleneck is the
//! serving loop itself.
//!
//! Engines raced (each engine label lands in the table and in
//! `BENCH_engine.json`):
//!
//! - `fcfs+lru` — the default, byte-identical to the pre-engine-axis
//!   replica;
//! - `fcfs-chunk64+lru` — chunked prefill bounds iteration length;
//! - `fcfs-preempt0.92+lru` — preempts the youngest decode under KV
//!   pressure;
//! - `sjf+prefix-aware` — `ShortestPromptFirst` (a policy implemented
//!   *outside* the replica crate) over the hot-corpus-protecting
//!   evictor;
//! - `fcfs+noevict` — no recycling: the queueing-over-churn baseline.
//!
//! Run with:
//! ```sh
//! cargo run --release --example engine_shootout
//! ```
//! Knobs: `SHOOTOUT_SCALE` (user population multiplier, default 0.5),
//! `SHOOTOUT_SEED` (sweep root seed, default 7), `SHOOTOUT_WORKERS`.

use skywalker::metrics::json::{Report, Val};
use skywalker::{
    memory_pressure_scenario, recipe, EngineSpec, FcfsBatch, LruEvictor, NoEvict,
    PrefixAwareEvictor, RunSummary, ShortestPromptFirst,
};
use skywalker_lab::SweepSpec;

fn main() {
    let scale: f64 = std::env::var("SHOOTOUT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let seed: u64 = std::env::var("SHOOTOUT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let workers: usize = std::env::var("SHOOTOUT_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

    let engines = vec![
        EngineSpec::default(),
        EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor)),
        EngineSpec::new(
            Box::new(FcfsBatch::new().with_preemption(0.92)),
            Box::new(LruEvictor),
        ),
        EngineSpec::new(
            Box::new(ShortestPromptFirst::new()),
            Box::new(PrefixAwareEvictor),
        ),
        EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(NoEvict)),
    ];
    let labels: Vec<String> = engines.iter().map(|e| e.label()).collect();

    println!(
        "engine shootout: memory_pressure × {} engines × 2 seeds on {} workers (scale {scale})\n",
        engines.len(),
        workers
    );
    let spec = SweepSpec::new("engine_shootout", seed)
        .seeds(vec![1, 2])
        .engine_cells(
            "mp",
            recipe(move |seed| memory_pressure_scenario(EngineSpec::default(), scale, seed)),
            engines,
        );
    let result = spec.run(workers);

    let mut rep = Report::new("engine_shootout");
    rep.meta("scale", scale);
    rep.meta("sweep_seed", seed);
    rep.meta("preset", "memory_pressure");

    println!(
        "| engine | ttft p50 | ttft p90 | e2e p90 | hit | preempt | evicted | chunked | done \
         | fail |\n|---|---|---|---|---|---|---|---|---|---|"
    );
    let mut p90s: Vec<(String, f64)> = Vec::new();
    for (label, cell) in labels.iter().zip(&result.cells) {
        for run in &cell.runs {
            let s = &run.summary;
            let mut fields = s.row(RunSummary::ENGINE_ROW);
            fields.push(("replicate", Val::from(run.tag)));
            rep.row(&fields);
        }
        // The table shows the first replicate; the JSON carries both.
        let s = &cell.runs[0].summary;
        assert_eq!(
            s.engine_label, *label,
            "scenario engine must match the cell"
        );
        p90s.push((label.clone(), s.report.ttft.p90));
        println!(
            "| {label} | {:.3} | {:.3} | {:.3} | {:.1}% | {} | {} | {} | {} | {} |",
            s.report.ttft.p50,
            s.report.ttft.p90,
            s.report.e2e.p90,
            100.0 * s.replica_hit_rate,
            s.preempted,
            s.evicted_tokens,
            s.chunked_steps,
            s.report.completed,
            s.report.failed,
        );
    }

    // The acceptance bar: at least two engines measurably diverge on
    // P90 TTFT under memory pressure (the axis does something).
    let min = p90s
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("engines raced");
    let max = p90s
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("engines raced");
    println!(
        "\nP90 TTFT spread: {} {:.3}s … {} {:.3}s ({:.2}x)",
        min.0,
        min.1,
        max.0,
        max.1,
        max.1 / min.1.max(1e-9)
    );
    assert!(
        max.1 > min.1 * 1.02,
        "engines did not diverge on P90 TTFT: {p90s:?}"
    );

    rep.write("BENCH_engine.json")
        .expect("write BENCH_engine.json");
}
