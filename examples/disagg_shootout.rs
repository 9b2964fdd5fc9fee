//! The disaggregation shootout: the `disagg` preset run split vs
//! colocated across both traffic shapes on the parallel lab, showing
//! where prefill/decode disaggregation pays and where it doesn't —
//! same fleet, same two-tier cache, same traffic; only the roles move.
//!
//! The expected verdict crosses over on P90 TTFT:
//!
//! - **decode-heavy**: colocated replicas fill their KV with
//!   long-running decodes and starve prefill admission, so the split —
//!   whose prefill replicas shed every request right after the first
//!   token — wins time-to-first-token;
//! - **prefill-heavy**: decodes are short, admission never starves, and
//!   halving the prefill capacity just doubles the prompt queue — the
//!   split loses.
//!
//! `BENCH_disagg.json` carries the full grid (plus the handoff and
//! tier-residency counters and the replica-seconds cost basis).
//!
//! Run with:
//! ```sh
//! cargo run --release --example disagg_shootout
//! ```
//! Knobs: `DISAGG_SCALE` (user population multiplier, default 1.0),
//! `DISAGG_SEED` (sweep root seed, default 7), `DISAGG_WORKERS`.

use skywalker::metrics::json::{Report, Val};
use skywalker::{disagg_scenario, recipe, DisaggWorkload, RunSummary};
use skywalker_lab::SweepSpec;

fn main() {
    let scale: f64 = std::env::var("DISAGG_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let seed: u64 = std::env::var("DISAGG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let workers: usize = std::env::var("DISAGG_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

    println!(
        "disagg shootout: {} workloads × split/colo × 2 seeds on {} workers (scale {scale})\n",
        DisaggWorkload::ALL.len(),
        workers
    );
    let mut spec = SweepSpec::new("disagg_shootout", seed).seeds(vec![1, 2]);
    let mut cells: Vec<(DisaggWorkload, bool, String)> = Vec::new();
    for wl in DisaggWorkload::ALL {
        for disagg in [false, true] {
            let label = format!("{}/{}", wl.label(), if disagg { "split" } else { "colo" });
            spec = spec.cell(
                label.clone(),
                recipe(move |seed| disagg_scenario(wl, disagg, scale, seed)),
            );
            cells.push((wl, disagg, label));
        }
    }
    let result = spec.run(workers);

    let mut rep = Report::new("disagg_shootout");
    rep.meta("scale", scale);
    rep.meta("sweep_seed", seed);
    rep.meta("preset", "disagg");

    println!(
        "| workload | mode | ttft p50 | ttft p90 | e2e p90 | hit | transfers | demoted | promoted \
         | repl-sec | done | fail |\n|---|---|---|---|---|---|---|---|---|---|---|---|"
    );
    // (workload label, mode) → first-replicate P90 TTFT for the verdict.
    let mut p90: Vec<(DisaggWorkload, bool, f64)> = Vec::new();
    for (wl, disagg, label) in &cells {
        let cell = result.cell(label).expect("cell ran");
        for run in &cell.runs {
            let s = &run.summary;
            let mode = if *disagg { "split" } else { "colo" };
            let mut fields = vec![
                ("workload", Val::from(wl.label())),
                ("mode", Val::from(mode)),
            ];
            fields.extend(s.row(RunSummary::DISAGG_ROW));
            fields.push(("replicate", Val::from(run.tag)));
            rep.row(&fields);
        }
        // The table shows the first replicate; the JSON carries both.
        let s = &cell.runs[0].summary;
        if *disagg {
            assert!(s.transfers.started > 0, "{label}: split mode must hand off");
            assert_eq!(
                s.transfers.in_transfer(),
                0,
                "{label}: a drained run leaves nothing on the wire"
            );
        } else {
            assert_eq!(s.transfers.started, 0, "{label}: colo never hands off");
        }
        p90.push((*wl, *disagg, s.report.ttft.p90));
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.1}% | {} | {} | {} | {:.0} | {} | {} |",
            wl.label(),
            if *disagg { "split" } else { "colo" },
            s.report.ttft.p50,
            s.report.ttft.p90,
            s.report.e2e.p90,
            100.0 * s.replica_hit_rate,
            s.transfers.started,
            s.demoted_tokens,
            s.promoted_tokens,
            s.replica_seconds(),
            s.report.completed,
            s.report.failed,
        );
    }

    // The acceptance bar: the split-vs-colo verdict on P90 TTFT crosses
    // over between the two traffic shapes — disaggregation is a
    // trade-off, not a free win or a strict loss.
    let ttft_of = |wl: DisaggWorkload, disagg: bool| {
        p90.iter()
            .find(|(w, d, _)| *w == wl && *d == disagg)
            .map(|(_, _, v)| *v)
            .expect("cell measured")
    };
    let mut split_wins = 0;
    let mut colo_wins = 0;
    for wl in DisaggWorkload::ALL {
        let split = ttft_of(wl, true);
        let colo = ttft_of(wl, false);
        println!(
            "\n{}: P90 TTFT split {:.3}s vs colo {:.3}s → {}",
            wl.label(),
            split,
            colo,
            if split < colo {
                "split wins"
            } else {
                "colo wins"
            }
        );
        if split < colo {
            split_wins += 1;
        } else {
            colo_wins += 1;
        }
    }
    assert!(
        split_wins >= 1 && colo_wins >= 1,
        "no P90 TTFT crossover between traffic shapes: {p90:?}"
    );

    rep.write("BENCH_disagg.json")
        .expect("write BENCH_disagg.json");
}
