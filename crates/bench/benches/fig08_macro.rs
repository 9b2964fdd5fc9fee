//! Figure 8: the end-to-end macrobenchmark.
//!
//! Seven systems (GKE Gateway, RR, LL, CH, SGLang Router, SkyWalker-CH,
//! SkyWalker) × four workloads (ChatBot Arena, WildChat, ToT, Mixed
//! Tree), reporting service throughput, TTFT, and end-to-end latency —
//! the twelve panels of the paper's Fig. 8.
//!
//! Paper headline: SkyWalker achieves 1.12–2.06× the throughput and
//! substantially lower TTFT than every baseline; CH edges SkyWalker by
//! ~2 % on the *uniform* ToT workload only.
//!
//! Beyond the paper's grid the table carries the openness demos riding
//! the same harness: `P2C-Local` (a custom routing policy) on every
//! workload, and two custom *traffic sources* — the RAG shared-corpus
//! and flash-crowd workloads, streamed through `ScenarioBuilder::
//! traffic_source` from outside the workload crate.
//!
//! The whole grid executes on `skywalker-lab`'s worker pool (one cell
//! per system × workload crossing), so a multi-core machine runs the
//! panels concurrently; the lab guarantees the numbers are identical to
//! a serial run, and the rows keep the `BENCH_fig08.json` schema
//! (`RunSummary::FIG8_ROW`) so the performance trajectory stays
//! diffable across commits.
//!
//! Environment knobs: `SCALE` (client population multiplier, default
//! 0.25 — the paper's counts at 1.0 take a few minutes per cell) and
//! `SEED`.

use skywalker::metrics::json::{Report, Val};
use skywalker::net::Region;
use skywalker::sim::{SimDuration, SimTime};
use skywalker::{
    balanced_fleet, fig8_scenario, FabricConfig, FlashCrowdSource, P2cLocalFactory,
    RagCorpusConfig, RagCorpusSource, RunSummary, Scenario, SystemKind, Workload,
};
use skywalker_bench::{f, header, pct, ratio, row};
use skywalker_lab::SweepSpec;

fn record(rep: &mut Report, workload: &str, s: &RunSummary) {
    row(&[
        s.label.clone(),
        f(s.report.throughput_tps, 0),
        format!("{:.3}s", s.report.ttft.p50),
        format!("{:.3}s", s.report.ttft.p90),
        format!("{:.3}s", s.report.ttft.mean),
        format!("{:.2}s", s.report.e2e.p50),
        format!("{:.2}s", s.report.e2e.p90),
        pct(s.replica_hit_rate),
        s.forwarded.to_string(),
    ]);
    let mut fields = vec![("workload", Val::from(workload))];
    fields.extend(s.row(RunSummary::FIG8_ROW));
    rep.row(&fields);
}

const COLUMNS: [&str; 9] = [
    "system",
    "tok/s",
    "TTFT p50",
    "TTFT p90",
    "TTFT mean",
    "E2E p50",
    "E2E p90",
    "hit rate",
    "fwd",
];

fn main() {
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let seed: u64 = std::env::var("SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The actual worker count (the pool clamps to the cell count) is
    // reported in the footer, from the executed result.
    println!("# Fig. 8 — Macrobenchmark (scale {scale}, seed {seed})\n");

    let mut rep = Report::new("fig08_macro");
    rep.meta("scale", scale);
    rep.meta("seed", seed);

    // The full grid as one sweep. Every recipe pins the legacy knobs
    // (workload seed from SEED, default fabric seed) and ignores the
    // lab-derived seed, so the JSON rows stay byte-identical to the
    // serial pre-lab driver; the lab contributes parallel execution and
    // stable grid ordering. Cell labels are "{section}/{system}", so
    // the printed table section is recoverable from the label alone.
    let mut spec = SweepSpec::new("fig08_macro", seed);

    for workload in Workload::ALL {
        for system in SystemKind::FIG8 {
            spec = spec.cell(format!("{}/{}", workload.label(), system.label()), {
                move |_| {
                    (
                        fig8_scenario(system, workload, scale, seed),
                        FabricConfig::default(),
                    )
                }
            });
        }
        // The routing openness demo: a custom policy, same deployment
        // shape and grid cell, plugged in through the builder — no
        // SystemKind.
        spec = spec.cell(format!("{}/P2C-Local", workload.label()), {
            move |_| {
                let p2c = Scenario::builder()
                    .deployment(SystemKind::SkyWalker.deployment())
                    .policy_factory(P2cLocalFactory::new(seed))
                    .fig8_fleet(workload)
                    .workload(workload, scale, seed)
                    .build()
                    .expect("fleet and workload are set");
                (p2c, FabricConfig::default())
            }
        });
    }

    // The traffic openness demos: two workloads the paper never shipped,
    // implemented outside skywalker-workload and streamed through the
    // same builder and grid harness. Base counts are scale-1.0
    // populations, scaled exactly like the paper grid above so SCALE
    // means one thing bench-wide.
    let n = move |base: f64| ((base * scale).round() as u32).max(1);
    for system in [
        SystemKind::RoundRobin,
        SystemKind::SglRouter,
        SystemKind::SkyWalker,
    ] {
        spec = spec.cell(format!("RAG corpus/{}", system.label()), {
            move |_| {
                let rag_users = vec![
                    (Region::UsEast, n(80.0)),
                    (Region::EuWest, n(64.0)),
                    (Region::ApNortheast, n(64.0)),
                ];
                let scenario = system
                    .builder()
                    .replicas(balanced_fleet())
                    .traffic_source(Box::new(RagCorpusSource::new(
                        RagCorpusConfig::default(),
                        rag_users,
                        seed,
                    )))
                    .build()
                    .expect("fleet and source are set");
                (scenario, FabricConfig::default())
            }
        });
    }
    for system in [SystemKind::RegionLocal, SystemKind::SkyWalker] {
        spec = spec.cell(format!("Flash crowd/{}", system.label()), {
            move |_| {
                let scenario = system
                    .builder()
                    .replicas(balanced_fleet())
                    .traffic_source(Box::new(
                        FlashCrowdSource::new(
                            vec![(Region::UsEast, n(8.0)), (Region::EuWest, n(8.0))],
                            Region::EuWest,
                            n(240.0),
                            SimTime::from_secs(30),
                            seed,
                        )
                        .with_turns((2, 3))
                        .with_burst_window(SimDuration::from_secs(10)),
                    ))
                    .build()
                    .expect("fleet and source are set");
                (scenario, FabricConfig::default())
            }
        });
    }

    let result = spec.run(workers);

    // Results come back in grid order; print them section by section,
    // recovering each cell's section from its "{section}/{system}"
    // label (no parallel bookkeeping to drift out of sync).
    let mut current_section = String::new();
    let mut skywalker_tps = 0.0;
    let mut best_baseline_tps: f64 = 0.0;
    for cell in &result.cells {
        let (section, _) = cell
            .label
            .split_once('/')
            .expect("fig08 cell labels are \"{section}/{system}\"");
        if section != current_section {
            // Close the previous paper-grid section with its headline.
            if best_baseline_tps > 0.0 {
                println!(
                    "\nSkyWalker vs best baseline: {} (paper: 1.12–2.06x across workloads)\n",
                    ratio(skywalker_tps / best_baseline_tps)
                );
            }
            current_section = section.to_string();
            skywalker_tps = 0.0;
            best_baseline_tps = 0.0;
            match section {
                "RAG corpus" => println!("## RAG shared corpus (custom TrafficSource)\n"),
                "Flash crowd" => {
                    println!("\n## Flash crowd in eu-west at t = 30s (custom TrafficSource)\n")
                }
                _ => println!("## {section}\n"),
            }
            header(&COLUMNS);
        }
        let s = &cell.runs[0].summary;
        record(&mut rep, section, s);
        if Workload::ALL.iter().any(|w| w.label() == section) {
            // The paper-grid ratio tracks the seven FIG8 systems only
            // (not the P2C demo row), exactly as the serial driver did.
            if s.label == SystemKind::SkyWalker.label() {
                skywalker_tps = s.report.throughput_tps;
            } else if s.label != SystemKind::SkyWalkerCh.label()
                && cell.label != format!("{section}/P2C-Local")
                && s.report.throughput_tps > best_baseline_tps
            {
                best_baseline_tps = s.report.throughput_tps;
            }
        }
    }

    println!(
        "\ngrid: {} cells in {:.1}s on {} workers",
        result.total_runs(),
        result.wall.as_secs_f64(),
        result.workers
    );
    if let Err(e) = rep.write("BENCH_fig08.json") {
        eprintln!("could not write BENCH_fig08.json: {e}");
    }
}
