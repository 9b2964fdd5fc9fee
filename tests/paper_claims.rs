//! The paper's evaluation, asserted once: one table of claims, each row
//! naming a figure, what the paper reports, how this codebase measures
//! the same quantity, the band the measurement must fall in, and the
//! verdict — reproduced, or `.departs("why")`.
//!
//! The gate has three rules and no tolerance option:
//!
//! 1. a reproduced row whose measured value is outside its band fails;
//! 2. a departing row whose measured value is inside its band fails —
//!    flip it; the table may only get more honest;
//! 3. the two renderings of the run, `tests/golden/claims.json` (every
//!    measured value plus each cell's digest row) and `docs/claims.md`
//!    (the page a reader opens), must match the committed files byte for
//!    byte (`UPDATE_GOLDENS=1 cargo test --test paper_claims` rewrites them).
//!
//! Bands are not chosen per row: the paper's range for a range claim,
//! one rule for every single number ([`Ratio`] / [`Amount`]: same direction,
//! half to twice the paper's effect), the neutral value for a claim of
//! direction only. A row's measured value is the median over the seeds in
//! `tests/claims/cells.rs`. When a row lands outside its band, record the
//! departure and its reason — do not widen the band, and do not tune the
//! simulator to move it.
//!
//! The `paper` strings are quoted from the ten figure programs this table
//! replaced (`crates/bench/benches/`, deleted in PR 17); none is added
//! from memory. `.demo(..)` rows go beyond the paper; their bands are the
//! inequalities those programs, the shootout examples' old asserts or the
//! tests they replace stated.

mod claims;
mod common;

use claims::Band::{Above, Amount, Below, Range, Ratio};
use claims::{analytic, cells, check, claim, evaluate, render_json, render_markdown};
use claims::{Claim, Results, Verdict};
use skywalker::cost::fleet_reduction;
use skywalker::metrics::Summary;
use skywalker::{RunSummary, SystemKind, Workload};

// Units, appended to every printed value.
const RATIO: &str = "×";
const PERCENT: &str = " %";
const POINTS: &str = " pp";

fn tps(s: &RunSummary) -> f64 {
    s.report.throughput_tps
}

fn p50_ttft(s: &RunSummary) -> f64 {
    s.report.ttft.p50
}

fn p90_ttft(s: &RunSummary) -> f64 {
    s.report.ttft.p90
}

fn hit_pct(s: &RunSummary) -> f64 {
    100.0 * s.replica_hit_rate
}

fn mean_fleet(s: &RunSummary) -> f64 {
    s.fleet.mean_total()
}

/// Requests the run saw: finished, failed or still in flight.
fn accounted(s: &RunSummary) -> f64 {
    (s.report.completed + s.report.failed + s.report.in_flight) as f64
}

/// §2's motivation figures: computed from the generators, no simulation,
/// so every measure but Fig. 4b's is a constant.
fn motivation() -> Vec<Claim> {
    let fixed = |v: f64| move |_: &Results| v;
    let [peak_max, peak_min, afternoon] = analytic::fig2();
    let [calm, wild, aggregated, savings, on_demand] = analytic::fig3();
    let (fig5a, diagonal) = analytic::fig5();
    let afternoon_peaks = "each country peaks in its local afternoon";
    let mut t = vec![
        claim("Fig. 2")
            .says("tallest national peak (United States)")
            .paper("US ≈ 8000", Amount(8000.0), " req/h")
            .measured(fixed(peak_max)),
        claim("Fig. 2")
            .says("shortest national peak (Germany)")
            .paper("Germany ≈ 1500", Amount(1500.0), " req/h")
            .measured(fixed(peak_min)),
        claim("Fig. 2")
            .says("of 6 countries, those peaking 12:00–18:00 local time")
            .paper(afternoon_peaks, Range(6.0, 6.0), " countries")
            .measured(fixed(afternoon)),
        claim("Fig. 3a")
            .says("peak/trough swing of the calmest region")
            .paper("per-region 2.88x – 32.64x", Ratio(2.88), RATIO)
            .measured(fixed(calm)),
        claim("Fig. 3a")
            .says("peak/trough swing of the wildest region")
            .paper("per-region 2.88x – 32.64x", Ratio(32.64), RATIO)
            .measured(fixed(wild)),
        claim("Fig. 3a")
            .says("peak/trough swing of the five-region aggregate")
            .paper("aggregated 1.29x", Ratio(1.29), RATIO)
            .measured(fixed(aggregated)),
        claim("Fig. 3b")
            .says("aggregated vs region-local reserved provisioning, cost saved")
            .paper("-40.5%", Amount(40.5), PERCENT)
            .measured(fixed(savings)),
        claim("Fig. 3b")
            .says("perfect on-demand autoscaling ÷ aggregated reserved cost")
            .paper("2.2x of aggregated", Ratio(2.2), RATIO)
            .measured(fixed(on_demand)),
        claim("Fig. 4a")
            .says("p99 ÷ p50 request length, the lighter-tailed of input and output")
            .paper("heavy tails in both", Above(1.0), RATIO)
            .measured(fixed(analytic::fig4a())),
        claim("Fig. 4b")
            .says("round-robin over 2 replicas: max ÷ min peak KV utilization")
            .paper("2.64x", Ratio(2.64), RATIO)
            .departs("request footprints average out over a run; the peaks differ by a tenth")
            .measured(|r| r.cell("fig4b/RR").kv_peak_gap),
        claim("Fig. 5b")
            .says("100-user similarity matrix: within-user ÷ across-user mean")
            .paper("bright diagonal over a dim field", Above(1.0), RATIO)
            .measured(fixed(diagonal)),
    ];
    let fig5a_paper = [
        ("ChatBot Arena by user", "20.5% / 8.3%", 20.5, 8.3),
        ("WildChat by user", "19.0% / 2.5%", 19.0, 2.5),
        ("WildChat by region", "10.9% / 2.5%", 10.9, 2.5),
    ];
    for ((grouping, paper, within, across), measured) in fig5a_paper.into_iter().zip(fig5a) {
        for (side, paper_value, value) in [
            ("within a group", within, measured.0),
            ("across groups", across, measured.1),
        ] {
            let row = claim("Fig. 5a")
                .says(format!("mean prefix similarity {side}, {grouping}"))
                .paper(paper, Amount(paper_value), PERCENT);
            t.push(row.measured(fixed(value)));
        }
    }
    let fig6_paper = [
        ("cross-user sharing", "-16.49 pp", -16.49),
        ("bursty requests", "-7.07 pp", -7.07),
        ("heterogeneous program", "-8.78 pp", -8.78),
    ];
    for ((scenario, paper, gap), measured) in fig6_paper.into_iter().zip(analytic::fig6()) {
        let row = claim("Fig. 6")
            .says(format!(
                "hit rate, consistent hashing − optimal: {scenario}"
            ))
            .paper(paper, Amount(gap), POINTS);
        t.push(row.measured(fixed(measured)));
    }
    t
}

/// Fig. 8 at the paper's client counts: SkyWalker against the best of the
/// five systems the paper calls baselines (all but the two SkyWalker
/// variants), per workload; and the two traffic-source demos beside it.
fn macrobenchmark() -> Vec<Claim> {
    type Metric = fn(&RunSummary) -> f64;
    let sky = |r: &Results, w: Workload, of: Metric| -> f64 {
        of(r.cell(&format!("fig8/{}/SkyWalker", w.label())))
    };
    let baselines = |r: &Results, w: Workload, of: Metric| -> Summary {
        let ours = [Some(SystemKind::SkyWalker), Some(SystemKind::SkyWalkerCh)];
        let grid = format!("fig8/{}/", w.label());
        let baselines = r.cells(&grid).filter(|s| !ours.contains(&s.system));
        Summary::of(&baselines.map(of).collect::<Vec<_>>())
    };
    let throughput = "1.12–2.06x across workloads";
    let throughput_departs = [
        "the affinity baselines (CH, SGL) saturate the same fleet as SkyWalker",
        "100 closed-loop clients do not saturate 8 replicas; all systems land within a tenth",
        "CH leads on uniform trees (the paper has it ahead here too, by ~2 %)",
        "the cache-aware SGL baseline keeps pace with SkyWalker",
    ];
    let ttft = "substantially lower TTFT than every baseline";
    let mut t = Vec::new();
    for (w, why) in Workload::ALL.into_iter().zip(throughput_departs) {
        let name = w.label();
        t.extend([
            claim("Fig. 8")
                .says(format!("{name}: SkyWalker ÷ best baseline, tokens/s"))
                .paper(throughput, Range(1.12, 2.06), RATIO)
                .departs(why)
                .measured(move |r| sky(r, w, tps) / baselines(r, w, tps).max),
            claim("Fig. 8")
                .says(format!("{name}: best baseline ÷ SkyWalker, median TTFT"))
                .paper(ttft, Above(1.0), RATIO)
                .measured(move |r| baselines(r, w, p50_ttft).min / sky(r, w, p50_ttft)),
        ]);
    }
    t.extend([
        claim("RAG demo")
            .says("shared hot corpus: SkyWalker − round-robin replica hit rate")
            .demo(Above(0.0), POINTS)
            .measured(|r| hit_pct(r.cell("rag/SkyWalker")) - hit_pct(r.cell("rag/RR"))),
        claim("Flash-crowd demo")
            .says("burst in eu-west: requests SkyWalker forwards out")
            .demo(Above(0.0), " requests")
            .measured(|r| r.cell("flash/SkyWalker").forwarded as f64),
        claim("Flash-crowd demo")
            .says("burst in eu-west: requests Region-Local forwards out")
            .demo(Range(0.0, 0.0), " requests")
            .measured(|r| r.cell("flash/Region-Local").forwarded as f64),
        claim("Flash-crowd demo")
            .says("burst in eu-west: Region-Local ÷ SkyWalker P90 TTFT")
            .demo(Above(1.0), RATIO)
            .measured(|r| {
                p90_ttft(r.cell("flash/Region-Local")) / p90_ttft(r.cell("flash/SkyWalker"))
            }),
    ]);
    t
}

/// Figs. 9 and 10 and the five ablations over the same two recipes.
fn microbenchmarks() -> Vec<Claim> {
    let mut t = vec![
        claim("Fig. 9")
            .says("SP-P ÷ BP throughput")
            .paper("1.27x", Ratio(1.27), RATIO)
            .departs("this BP baseline books outstanding requests exactly, so it is stronger than the paper's")
            .measured(|r| tps(r.cell("fig9/SP-P")) / tps(r.cell("fig9/BP"))),
        claim("Fig. 9")
            .says("SP-P ÷ SP-O throughput")
            .paper("1.4x", Ratio(1.4), RATIO)
            .departs("same direction, under half the paper's effect")
            .measured(|r| tps(r.cell("fig9/SP-P")) / tps(r.cell("fig9/SP-O"))),
        claim("Fig. 9")
            .says("BP ÷ SP-P P90 TTFT")
            .paper("18.47x", Ratio(18.47), RATIO)
            .departs("BP's replica queues stay shallow, so its tail does too")
            .measured(|r| p90_ttft(r.cell("fig9/BP")) / p90_ttft(r.cell("fig9/SP-P"))),
        claim("Fig. 9")
            .says("SP-P − BP replica hit rate")
            .paper("89.86% vs 68.89%", Amount(89.86 - 68.89), POINTS)
            .departs("BP keeps its affinity here; the two hit rates are level")
            .measured(|r| hit_pct(r.cell("fig9/SP-P")) - hit_pct(r.cell("fig9/BP"))),
    ];

    let fig10 = |r: &Results, system: &str, n: u32| tps(r.cell(&format!("fig10/{system}/{n}")));
    for n in [6, 9, 12] {
        let row = claim("Fig. 10")
            .says(format!(
                "equal fleets of {n}: SkyWalker ÷ Region-Local throughput"
            ))
            .paper("1.07–1.18x with equal fleets", Range(1.07, 1.18), RATIO)
            .measured(move |r| fig10(r, "SkyWalker", n) / fig10(r, "Region-Local", n));
        t.push(match n {
            12 => row.departs("with twelve replicas neither system is overloaded"),
            _ => row,
        });
    }
    t.extend([
        claim("Fig. 10")
            .says("smallest SkyWalker fleet within 2 % of 12 Region-Local replicas, replicas saved")
            .paper("25% with 9 vs 12", Amount(25.0), PERCENT)
            .measured(move |r| {
                let target = 0.98 * fig10(r, "Region-Local", 12);
                let matched = (9..=12).find(|&n| fig10(r, "SkyWalker", n) >= target);
                100.0 * fleet_reduction(12, matched.unwrap_or(12))
            }),
        claim("Ablation 1 (§4.1)")
            .says("P90 TTFT, probing every 500 ms ÷ every 100 ms (the paper's choice)")
            .demo(Above(1.0), RATIO)
            .measured(|r| {
                p90_ttft(r.cell("abl1/probe-500ms")) / p90_ttft(r.cell("abl1/probe-100ms"))
            }),
        claim("Ablation 2 (Alg. 1 l. 12)")
            .says("requests forwarded with the paper's τ = 4 − with no buffer (τ = 0)")
            .demo(Above(0.0), " requests")
            .measured(|r| {
                (r.cell("abl2/tau-4").forwarded as f64) - r.cell("abl2/tau-0").forwarded as f64
            }),
        claim("Ablation 3 (§5.1)")
            .says("replica hit rate, affinity threshold 0 (always chase) − 1 (never)")
            .demo(Above(0.0), POINTS)
            .measured(|r| {
                hit_pct(r.cell("abl3/threshold-0")) - hit_pct(r.cell("abl3/threshold-1"))
            }),
        claim("Ablation 4")
            .says("replica hit rate, routing trie bounded to 4 Ki tokens ÷ to 16 Mi")
            .demo(Below(1.0), RATIO)
            .measured(|r| {
                hit_pct(r.cell("abl4/trie-4096")) / hit_pct(r.cell("abl4/trie-16777216"))
            }),
        claim("Ablation 5 (§7)")
            .says("throughput, 3×L4 + 3×A100 ÷ 6×L4 under hardware-agnostic SP-P")
            .demo(Above(1.0), RATIO)
            .measured(|r| tps(r.cell("abl5/3xL4+3xA100")) / tps(r.cell("abl5/6xL4"))),
    ]);
    t
}

/// Beyond the paper: fleet elasticity over the reference diurnal day, the
/// serving-engine shootout, and the disaggregation crossover.
fn extensions() -> Vec<Claim> {
    fn day<'a>(r: &'a Results, fleet: &str) -> &'a RunSummary {
        r.cell(&format!("fleet/{fleet}"))
    }
    let mut t = vec![claim("Fleet day")
        .says("crash/replace churn: requests accounted ÷ the static run's")
        .demo(Range(1.0, 1.0), RATIO)
        .measured(|r| accounted(day(r, "chaos")) / accounted(day(r, "static-3/region")))];
    for fleet in ["static-3/region", "reactive", "predictive"] {
        let row = claim("Fleet day")
            .says(format!(
                "{fleet}: requests failed or unfinished (drains are graceful)"
            ))
            .demo(Range(0.0, 0.0), " requests");
        t.push(row.measured(move |r| {
            let s = &day(r, fleet).report;
            (s.failed + s.in_flight) as f64
        }));
    }
    for autoscaler in ["reactive", "predictive"] {
        t.extend([
            claim("Fleet day")
                .says(format!(
                    "{autoscaler} autoscaler: mean fleet ÷ the static fleet's"
                ))
                .demo(Below(1.0), RATIO)
                .measured(move |r| {
                    mean_fleet(day(r, autoscaler)) / mean_fleet(day(r, "static-3/region"))
                }),
            claim("Fleet day")
                .says(format!(
                    "{autoscaler} autoscaler: replicas joined (it scales out, more than once)"
                ))
                .demo(Above(1.0), " replicas")
                .measured(move |r| day(r, autoscaler).fleet.joins as f64),
            claim("Fleet day")
                .says(format!(
                    "{autoscaler} autoscaler: replicas drained (and back in after the peaks)"
                ))
                .demo(Above(0.0), " replicas")
                .measured(move |r| day(r, autoscaler).fleet.drains as f64),
        ]);
    }
    t.push(
        claim("Fleet day")
            .says("reactive autoscaler vs the static fleet of its own mean size: static ÷ reactive P90 TTFT")
            .demo(Above(1.0), RATIO)
            .measured(|r| p90_ttft(day(r, "equal-cost-static")) / p90_ttft(day(r, "reactive"))),
    );
    let split_vs_colo = |r: &Results, workload: &str| {
        let p90 = |mode: &str| p90_ttft(r.cell(&format!("disagg/{workload}/{mode}")));
        p90("split") / p90("colo")
    };
    t.extend([
        claim("Engine shootout")
            .says("memory pressure, five engines: slowest ÷ fastest P90 TTFT")
            .demo(Above(1.02), RATIO)
            .measured(|r| {
                let p90s: Vec<f64> = r.cells("engine/").map(p90_ttft).collect();
                let p90s = Summary::of(&p90s);
                p90s.max / p90s.min
            }),
        claim("Disagg shootout")
            .says("decode-heavy: colocated ÷ split P90 TTFT (split wins)")
            .demo(Above(1.0), RATIO)
            .measured(move |r| 1.0 / split_vs_colo(r, "decode-heavy")),
        claim("Disagg shootout")
            .says("prefill-heavy: split ÷ colocated P90 TTFT (colocated wins)")
            .demo(Above(1.0), RATIO)
            .measured(move |r| split_vs_colo(r, "prefill-heavy")),
    ]);
    t
}

#[test]
fn paper_claims_hold_their_verdicts_and_match_the_committed_table() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = cells::spec().run(workers);
    let table = [
        motivation(),
        macrobenchmark(),
        microbenchmarks(),
        extensions(),
    ];
    let rows = evaluate(table.into_iter().flatten().collect(), &sweep);

    let failures: Vec<String> = rows
        .iter()
        .filter_map(|(c, measured)| check(&c.name(), c.band, c.verdict, measured.p50).err())
        .collect();
    assert!(
        failures.is_empty(),
        "claims changed verdict:\n  {}",
        failures.join("\n  ")
    );

    common::compare_or_update("tests/golden/claims.json", &render_json(&rows, &sweep));
    common::compare_or_update("docs/claims.md", &render_markdown(&rows));
}

/// The gate's own negative tests: a value on the wrong side of a band
/// must fail the check, whichever verdict the row carries.
#[test]
fn reproduced_row_outside_its_band_fails_the_gate() {
    let band = Range(1.12, 2.06);
    assert!(check("t", band, Verdict::Reproduced, 1.5).is_ok());
    let err = check("t", band, Verdict::Reproduced, 1.02).unwrap_err();
    assert!(err.contains("do not widen the band"), "{err}");
    // The point rule: half to twice the paper's effect, same direction.
    assert!(check("t", Ratio(1.27), Verdict::Reproduced, 1.14).is_ok());
    assert!(check("t", Ratio(1.27), Verdict::Reproduced, 0.99).is_err());
    assert!(check("t", Amount(-16.49), Verdict::Reproduced, -12.31).is_ok());
    assert!(check("t", Amount(-16.49), Verdict::Reproduced, 12.31).is_err());
    // Direction-only bands are strict: "no effect" is not an effect.
    assert!(check("t", Above(1.0), Verdict::Reproduced, 1.0).is_err());
}

#[test]
fn departing_row_inside_its_band_fails_the_gate() {
    let band = Range(1.12, 2.06);
    assert!(check("t", band, Verdict::Departs("saturated"), 1.02).is_ok());
    let err = check("t", band, Verdict::Departs("saturated"), 1.5).unwrap_err();
    assert!(err.contains("remove its .departs"), "{err}");
    assert!(check("t", Below(1.0), Verdict::Departs("level"), 0.9).is_err());
}
