//! The conservation property suite: per-request phase decompositions
//! must sum *exactly* to what they decompose, across the whole scenario
//! space.
//!
//! Every run here executes with the span recorder attached, feeds its
//! `TraceSummary` through [`Attribution`], and asserts, for every
//! request:
//!
//! 1. **E2E conservation** — the phase breakdown sums exactly (integer
//!    microseconds, no tolerance) to the request's end-to-end latency.
//! 2. **TTFT conservation** — same for the TTFT-side breakdown.
//! 3. **Outcome agreement** — the attribution's completed/failed/
//!    unfinished counts equal the tracker-side
//!    `RunReport`'s completed/failed/in-flight, and the mean latencies
//!    agree to float tolerance (two independent observers of one run).
//! 4. **Reference agreement** — the one-pass fold in
//!    `Attribution::from_summary` equals, field for field and in the
//!    same request order, the plain group-then-walk model kept at the
//!    bottom of this file.
//!
//! Coverage is the repository's full experiment space: five serving
//! engines under memory pressure (preemption + eviction + KV stalls),
//! all eight deployment presets, all four workloads, balancer-fault
//! runs (retry paths), a chaos fleet (crashes + reroutes + mid-run
//! joins), and a reactive autoscaler (drains + joins) — well over a
//! hundred seeded runs in total.

use std::collections::BTreeMap;

use skywalker::net::Region;
use skywalker::trace::{
    Attribution, Phase, PhaseBreakdown, RequestTrace, TraceEvent, TraceEventKind, TraceOutcome,
    TraceSummary, TtftTrace,
};
use skywalker::workload::LengthModel;
use skywalker::{
    disagg_scenario, fig10_diurnal_scenario, fig8_scenario, fig9_scenario,
    memory_pressure_scenario, run_scenario, ChaosConfig, ChaosPlan, DisaggWorkload, EngineSpec,
    FabricConfig, FcfsBatch, LruEvictor, NoEvict, PrefixAwareEvictor, RagCorpusConfig,
    RagCorpusSource, ReplicaPlacement, RunSummary, Scenario, ShortestPromptFirst, SystemKind,
    ThresholdAutoscaler, TraceConfig, Workload, L4_PRESSURE,
};
use skywalker_sim::{DetRng, SimDuration, SimTime};

fn traced(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        trace: Some(TraceConfig::default()),
        ..FabricConfig::default()
    }
}

/// The five serving engines of the shootout grid.
fn engines() -> Vec<(&'static str, EngineSpec)> {
    vec![
        ("fcfs+lru", EngineSpec::default()),
        (
            "chunked+lru",
            EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor)),
        ),
        (
            "sjf+prefix",
            EngineSpec::new(
                Box::new(ShortestPromptFirst::new()),
                Box::new(PrefixAwareEvictor),
            ),
        ),
        (
            "fcfs+noevict",
            EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(NoEvict)),
        ),
        (
            "preempt+lru",
            EngineSpec::new(
                Box::new(FcfsBatch::new().with_preemption(0.9)),
                Box::new(LruEvictor),
            ),
        ),
    ]
}

/// Runs one traced scenario and checks every conservation invariant.
/// Returns the attribution so callers can assert path-specific facts.
fn check(label: &str, scenario: &Scenario, seed: u64) -> (Attribution, RunSummary) {
    let summary = run_scenario(scenario, &traced(seed));
    let trace = summary
        .trace
        .clone()
        .unwrap_or_else(|| panic!("{label}/{seed}: tracing was on but no summary came back"));
    assert!(
        trace.complete(),
        "{label}/{seed}: recorder overflowed ({} dropped) — grow the default capacity",
        trace.dropped_events
    );
    let a = Attribution::from_summary(&trace);
    assert!(
        !a.requests.is_empty(),
        "{label}/{seed}: no requests attributed"
    );
    assert_matches_reference(&format!("{label}/{seed}"), &a, &trace);

    let (mut completed, mut failed, mut unfinished) = (0usize, 0usize, 0usize);
    for r in &a.requests {
        // The conservation law: exhaustive, non-overlapping phases that
        // sum exactly — integer microseconds, so `==`, not "close".
        assert_eq!(
            r.phases.total(),
            r.e2e,
            "{label}/{seed}: req {} phases sum {} != e2e {}",
            r.req,
            r.phases.total(),
            r.e2e
        );
        if let Some(t) = &r.ttft {
            assert_eq!(
                t.phases.total(),
                t.ttft,
                "{label}/{seed}: req {} ttft phases sum {} != ttft {}",
                r.req,
                t.phases.total(),
                t.ttft
            );
        }
        match r.outcome {
            TraceOutcome::Completed => completed += 1,
            TraceOutcome::Failed => failed += 1,
            TraceOutcome::Unfinished => unfinished += 1,
        }
    }

    // Two independent observers of the same run must agree: the trace
    // pipeline and the RequestTracker count the same lifecycles.
    let rep = &summary.report;
    assert_eq!(
        (completed as u64, failed as u64, unfinished as u64),
        (rep.completed, rep.failed, rep.in_flight),
        "{label}/{seed}: attribution outcomes disagree with the tracker"
    );

    // And their latency views must agree too (means over the same
    // per-request values, computed via different aggregators).
    if rep.completed > 0 {
        let trace_e2e_mean =
            a.completed().map(|r| r.e2e.as_secs_f64()).sum::<f64>() / rep.completed as f64;
        assert!(
            (trace_e2e_mean - rep.e2e.mean).abs() < 1e-9,
            "{label}/{seed}: e2e mean {trace_e2e_mean} vs tracker {}",
            rep.e2e.mean
        );
    }
    let ttfts: Vec<f64> = a
        .requests
        .iter()
        .filter_map(|r| r.ttft.as_ref())
        .map(|t| t.ttft.as_secs_f64())
        .collect();
    if !ttfts.is_empty() {
        let trace_ttft_mean = ttfts.iter().sum::<f64>() / ttfts.len() as f64;
        assert!(
            (trace_ttft_mean - rep.ttft.mean).abs() < 1e-9,
            "{label}/{seed}: ttft mean {trace_ttft_mean} vs tracker {}",
            rep.ttft.mean
        );
    }
    (a, summary)
}

/// Five engines × memory pressure: the preemption, eviction, and
/// KV-stall paths. 50 runs.
#[test]
fn conservation_across_engines_under_memory_pressure() {
    let mut preempted_seen = false;
    let mut stall_time = SimDuration::ZERO;
    for (name, engine) in engines() {
        for seed in 1..=10 {
            let scenario = memory_pressure_scenario(engine.clone(), 0.25, seed);
            let (a, summary) = check(name, &scenario, seed);
            let trace_preemptions: u64 = a.requests.iter().map(|r| u64::from(r.preemptions)).sum();
            assert_eq!(
                trace_preemptions, summary.preempted,
                "{name}/{seed}: preemption counts disagree with replica stats"
            );
            preempted_seen |= trace_preemptions > 0;
            stall_time = a
                .requests
                .iter()
                .map(|r| r.phases.get(skywalker::trace::Phase::KvStall))
                .fold(stall_time, |acc, d| acc + d);
        }
    }
    assert!(
        preempted_seen,
        "memory pressure should preempt at least once across 50 runs"
    );
    assert!(
        stall_time > SimDuration::ZERO,
        "memory pressure should attribute some KV-stall time"
    );
}

/// All eight deployment presets: routing, forwarding, and hop paths.
/// 32 runs.
#[test]
fn conservation_across_systems() {
    let mut systems = SystemKind::FIG8.to_vec();
    systems.push(SystemKind::RegionLocal);
    for system in systems {
        for seed in 1..=4 {
            let scenario = fig8_scenario(system, Workload::Tot, 0.02, seed);
            check(system.label(), &scenario, seed);
        }
    }
}

/// All four paper workloads on SkyWalker. 8 runs.
#[test]
fn conservation_across_workloads() {
    for w in Workload::ALL {
        for seed in 1..=2 {
            let scenario = fig8_scenario(SystemKind::SkyWalker, w, 0.02, seed);
            check(w.label(), &scenario, seed);
        }
    }
}

/// Balancer faults (fig9's flap schedule): the retry/backoff paths.
/// 8 runs.
#[test]
fn conservation_under_balancer_faults() {
    for seed in 1..=8 {
        let scenario = fig9_scenario(SystemKind::SkyWalker, 2, 6, seed);
        check("fig9", &scenario, seed);
    }
}

/// A chaos fleet: crashes, one-shot reroutes, and mid-run replacement
/// joins. 8 runs.
#[test]
fn conservation_under_chaos() {
    let mut crashes = 0;
    for seed in 1..=8 {
        let mut scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Tot, 0.02, seed);
        scenario.fleet_plan = Some(Box::new(ChaosPlan::new(
            ChaosConfig {
                mtbf: SimDuration::from_secs(120),
                mttr: SimDuration::from_secs(60),
                ..ChaosConfig::default()
            },
            seed,
        )));
        let (_, summary) = check("chaos", &scenario, seed);
        crashes += summary.fleet.crashes;
    }
    assert!(crashes > 0, "chaos plan should crash something in 8 runs");
}

/// A reactive autoscaler over the compressed diurnal day: drains and
/// joins while requests are in flight. 4 runs.
#[test]
fn conservation_under_autoscaling() {
    let mut elastic = false;
    for seed in 1..=4 {
        let mut scenario = fig10_diurnal_scenario(
            SystemKind::SkyWalker,
            2,
            SimDuration::from_secs(600),
            0.008,
            seed,
        );
        scenario.fleet_plan = Some(Box::new(ThresholdAutoscaler::new(
            skywalker::diurnal_reference_reactive(),
        )));
        let (_, summary) = check("autoscale", &scenario, seed);
        elastic |= summary.fleet.is_elastic();
    }
    assert!(elastic, "the autoscaler should act at least once in 4 runs");
}

fn assert_matches_reference(tag: &str, a: &Attribution, trace: &TraceSummary) {
    let reference = reference_attribution(trace);
    assert_eq!(a.requests.len(), reference.len(), "{tag}");
    for (got, want) in a.requests.iter().zip(&reference) {
        assert_eq!(got, want, "{tag}: one-pass fold left the reference");
    }
}

/// The paths a trace can take that the fold treats specially; the
/// agreement with the reference means something only where they occur.
#[derive(Debug, Default)]
struct Paths {
    retries: u32,
    preemptions: u32,
    echoes_after_terminal: u32,
    first_token_delivered_after_failed: u32,
    /// A first token delivered after its request's completion: the
    /// record settles after the fabric's routing of it ended.
    first_token_delivered_after_delivered: u32,
    kv_transfers: u32,
    stalls_overlapping_across_replicas: u32,
}

impl Paths {
    fn add(&mut self, trace: &TraceSummary) {
        use TraceEventKind::*;
        let mut issued: BTreeMap<u64, u32> = BTreeMap::new();
        let mut ended: BTreeMap<u64, bool> = BTreeMap::new(); // req -> failed?
        let mut open_until: BTreeMap<u32, SimTime> = BTreeMap::new();
        for ev in &trace.events {
            match ev.kind {
                ReplicaStall { replica, until } => {
                    let elsewhere = |(r, u): (&u32, &SimTime)| *r != replica && *u > ev.at;
                    self.stalls_overlapping_across_replicas +=
                        u32::from(open_until.iter().any(elsewhere));
                    open_until.insert(replica, until);
                }
                Evicted { .. } => {}
                Preempted { .. } => self.preemptions += 1,
                KvTransfer { .. } => self.kv_transfers += 1,
                Issued { req } => {
                    let n = issued.entry(req).or_default();
                    self.retries += u32::from(*n > 0);
                    *n += 1;
                }
                Delivered { req } => _ = ended.entry(req).or_insert(false),
                Failed { req } => _ = ended.entry(req).or_insert(true),
                FirstTokenDelivered { req } => {
                    self.first_token_delivered_after_failed +=
                        u32::from(ended.get(&req) == Some(&true));
                    self.first_token_delivered_after_delivered +=
                        u32::from(ended.get(&req) == Some(&false));
                }
                kind => {
                    let req = kind.request().expect("a per-request milestone");
                    self.echoes_after_terminal += u32::from(ended.contains_key(&req));
                }
            }
        }
    }
}

/// Every special path occurs somewhere in what is held against the
/// reference: five in fabric runs (each goes through [`check`]); the
/// sixth, a crash echo after a terminal milestone, needs a request to
/// lose its one reroute too and no preset run produces it — it comes
/// from time-ordered random event soups, which also cover every
/// milestone order the fabric never emits.
#[test]
fn reference_agreement_covers_every_special_path() {
    let mut paths = Paths::default();
    let mut see = |label: &str, scenario: &Scenario, seed: u64| {
        let (_, summary) = check(label, scenario, seed);
        paths.add(summary.trace.as_ref().expect("check saw the trace"));
    };
    let preempting = EngineSpec::new(
        Box::new(FcfsBatch::new().with_preemption(0.9)),
        Box::new(LruEvictor),
    );
    for seed in 1..=3 {
        let scenario = memory_pressure_scenario(preempting.clone(), 0.25, seed);
        see("paths/preempt", &scenario, seed);
        let scenario = fig9_scenario(SystemKind::SkyWalker, 2, 6, seed);
        see("paths/fig9", &scenario, seed);
    }
    for seed in [5, 23, 61] {
        let mut scenario = disagg_scenario(DisaggWorkload::DecodeHeavy, true, 0.5, seed);
        scenario.fleet_plan = Some(Box::new(ChaosPlan::new(
            ChaosConfig {
                mtbf: SimDuration::from_secs(20),
                mttr: SimDuration::from_secs(15),
                min_live_per_region: 1,
                ..ChaosConfig::default()
            },
            seed,
        )));
        see("paths/disagg-chaos", &scenario, seed);
    }
    for seed in [7, 61] {
        see("paths/one-token", &one_token_answers(seed), seed);
    }
    // Counted before the soups add theirs: a fabric request whose first
    // token trails its completion is held to the reference by `check`
    // (outcomes, TTFT and e2e means).
    assert!(paths.first_token_delivered_after_delivered > 0, "{paths:?}");

    for case in 0..200 {
        let trace = event_soup(case);
        let a = Attribution::from_summary(&trace);
        assert_matches_reference(&format!("soup/{case}"), &a, &trace);
        paths.add(&trace);
    }
    println!("{paths:?}");
    assert!(paths.retries > 0, "{paths:?}");
    assert!(paths.preemptions > 0, "{paths:?}");
    assert!(paths.echoes_after_terminal > 0, "{paths:?}");
    assert!(paths.first_token_delivered_after_failed > 0, "{paths:?}");
    assert!(paths.kv_transfers > 0, "{paths:?}");
    assert!(paths.stalls_overlapping_across_replicas > 0, "{paths:?}");
}

/// RAG users in one region whose every answer is one token: its first
/// token and its completion leave the replica in the same iteration and
/// race to the client on independent delays, so about half the first
/// tokens arrive after their completions.
fn one_token_answers(seed: u64) -> Scenario {
    let region = Region::UsEast;
    let corpus = RagCorpusConfig {
        corpus_docs: 16,
        doc_tokens: 128,
        doc_zipf: 1.2,
        query_tokens: LengthModel {
            mu: 3.0,
            sigma: 0.6,
            min: 4,
            max: 64,
        },
        answer_tokens: LengthModel {
            mu: 0.0,
            sigma: 0.0,
            min: 1,
            max: 1,
        },
        queries_per_user: (2, 4),
    };
    let source = RagCorpusSource::new(corpus, vec![(region, 24)], seed);
    SystemKind::SkyWalker
        .builder()
        .replicas(vec![
            ReplicaPlacement {
                region,
                profile: L4_PRESSURE
            };
            2
        ])
        .traffic_source(Box::new(source))
        .build()
        .expect("a fleet and a source are set")
}

/// 400 events in time order over 12 requests and 3 replicas, kinds
/// drawn uniformly with no regard for what a lifecycle allows. Holds
/// the two things attribution relies on: `at` never goes back, and a
/// replica's stall windows do not overlap each other.
fn event_soup(case: u64) -> TraceSummary {
    use TraceEventKind::*;
    let mut rng = DetRng::for_component(case, "attribution/soup");
    let mut now = 0;
    let mut stalled_until = [0u64; 3];
    let mut events = Vec::new();
    while events.len() < 400 {
        now += rng.below(40);
        let req = rng.below(12);
        let replica = rng.below(3) as u32;
        let kind = match rng.below(16) {
            0 => Issued { req },
            1 => RetryWait { req },
            2 => LbQueued {
                req,
                lb: 0,
                hops: rng.below(3) as u8,
            },
            3 => Dispatched {
                req,
                lb: 0,
                replica,
            },
            4 => Forwarded { req, from: 0 },
            5 | 6 => ReplicaQueued { req, replica },
            7 => Admitted { req, replica },
            8 => Preempted { req, replica },
            9 => FirstToken { req, replica },
            10 => ReplicaDone { req, replica },
            11 => KvTransfer {
                req,
                from: replica,
                to: 0,
                tokens: 1,
            },
            12 => FirstTokenDelivered { req },
            13 if rng.chance(0.5) => Delivered { req },
            13 => Failed { req },
            _ if stalled_until[replica as usize] > now => continue,
            _ => {
                stalled_until[replica as usize] = now + 1 + rng.below(120);
                let until = SimTime::from_micros(stalled_until[replica as usize]);
                ReplicaStall { replica, until }
            }
        };
        let at = SimTime::from_micros(now);
        events.push(TraceEvent { at, kind });
    }
    TraceSummary {
        events: events.into_iter().collect(),
        capacity: 400,
        dropped_events: 0,
    }
}

// ---------------------------------------------------------------------
// The reference model: regroup the whole trace by request, then walk
// each request's timeline against every stall window its replica ever
// had. Quadratic in places and a second copy of the trace — which is
// why the library does not do it this way — but plain enough to read
// off `docs/tracing.md`.
// ---------------------------------------------------------------------

fn reference_attribution(trace: &TraceSummary) -> Vec<RequestTrace> {
    let mut stalls: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut timelines: BTreeMap<u64, Vec<(SimTime, TraceEventKind)>> = BTreeMap::new();
    for ev in &trace.events {
        if let TraceEventKind::ReplicaStall { replica, until } = ev.kind {
            stalls.entry(replica).or_default().push((ev.at, until));
        }
        if let Some(req) = ev.kind.request() {
            if !timelines.contains_key(&req) {
                order.push(req);
            }
            timelines.entry(req).or_default().push((ev.at, ev.kind));
        }
    }
    order
        .into_iter()
        .map(|req| reference_one(req, &timelines[&req], &stalls))
        .collect()
}

fn reference_phase(kind: &TraceEventKind) -> Option<Phase> {
    use TraceEventKind::*;
    Some(match kind {
        Issued { .. } => Phase::ClientNet,
        RetryWait { .. } => Phase::RetryBackoff,
        LbQueued { .. } => Phase::LbQueue,
        Forwarded { .. } => Phase::ForwardNet,
        Dispatched { .. } => Phase::DispatchNet,
        ReplicaQueued { .. } => Phase::AdmissionWait,
        Admitted { .. } => Phase::Prefill,
        FirstToken { .. } => Phase::Decode,
        Preempted { .. } => Phase::PreemptWait,
        KvTransfer { .. } => Phase::KvTransfer,
        ReplicaDone { .. } => Phase::DeliveryNet,
        _ => return None,
    })
}

fn reference_one(
    req: u64,
    timeline: &[(SimTime, TraceEventKind)],
    stalls: &BTreeMap<u32, Vec<(SimTime, SimTime)>>,
) -> RequestTrace {
    use TraceEventKind::*;
    // The main chain: everything up to the terminal milestone except
    // the parallel first-token-delivery leg.
    let mut chain: Vec<(SimTime, TraceEventKind)> = Vec::new();
    let mut delivered_at: Option<SimTime> = None;
    let mut produced_at: Option<SimTime> = None;
    let (mut hops, mut retries, mut preemptions) = (0u8, 0u32, 0u32);
    let mut outcome = TraceOutcome::Unfinished;
    for &(at, kind) in timeline {
        if let FirstTokenDelivered { .. } = kind {
            delivered_at.get_or_insert(at);
            continue;
        }
        if outcome != TraceOutcome::Unfinished {
            continue;
        }
        match kind {
            Issued { .. } if !chain.is_empty() => retries += 1,
            LbQueued { hops: h, .. } => hops = hops.max(h.saturating_add(1)),
            Preempted { .. } => preemptions += 1,
            FirstToken { .. } => drop(produced_at.get_or_insert(at)),
            Delivered { .. } => outcome = TraceOutcome::Completed,
            Failed { .. } => outcome = TraceOutcome::Failed,
            _ => {}
        }
        chain.push((at, kind));
    }

    let charge = |out: &mut PhaseBreakdown, from: &TraceEventKind, a: SimTime, b: SimTime| {
        let (Some(phase), true) = (reference_phase(from), b > a) else {
            return;
        };
        let span = b.since(a);
        let ReplicaQueued { replica, .. } = from else {
            return out.add(phase, span);
        };
        // Sum of the replica's stall windows clipped to [a, b).
        let mut stalled = SimDuration::ZERO;
        for &(s, u) in stalls.get(replica).map_or(&[][..], Vec::as_slice) {
            let (lo, hi) = (s.max(a), u.min(b));
            if hi > lo {
                stalled += hi.since(lo);
            }
        }
        out.add(Phase::KvStall, stalled);
        out.add(Phase::AdmissionWait, span - stalled);
    };
    let mut phases = PhaseBreakdown::default();
    let mut ttft_phases = PhaseBreakdown::default();
    let clip = produced_at.filter(|_| delivered_at.is_some());
    for pair in chain.windows(2) {
        let ((a, from), (b, _)) = (pair[0], pair[1]);
        charge(&mut phases, &from, a, b);
        if let Some(clip) = clip {
            charge(&mut ttft_phases, &from, a, b.min(clip));
        }
    }

    let start = chain.first().map_or(SimTime::ZERO, |(at, _)| *at);
    let end = chain.last().map_or(start, |(at, _)| *at);
    let ttft = clip.zip(delivered_at).map(|(produced, delivered)| {
        ttft_phases.add(Phase::FirstTokenNet, delivered.saturating_since(produced));
        TtftTrace {
            phases: ttft_phases,
            ttft: delivered.saturating_since(start),
        }
    });
    RequestTrace {
        req,
        phases,
        e2e: end.since(start),
        ttft,
        outcome,
        hops,
        retries,
        preemptions,
    }
}
