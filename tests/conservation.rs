//! Request-accounting conservation across the paths that can lose work:
//! chaos crashes (`fail_all` + reroute), autoscaler churn (joins and
//! drains mid-run), and serving-engine pressure (eviction refusals,
//! preemption, oversized drops).
//!
//! The law under test, for every run that drains its (finite) source:
//!
//! ```text
//! injected == completed + failed + in-flight-at-end
//! retried  <= injected
//! ```
//!
//! where `injected` is the total request count the traffic source
//! generates — computed independently by materializing a clone of the
//! source, so the fabric cannot grade its own homework. Crash, preempt,
//! and evict paths each open a different accounting gap if they drop a
//! lease or a tracker record; this suite closes all three.

use skywalker::sim::{SimDuration, SimTime};
use skywalker::telemetry::{names, SampleValue};
use skywalker::{
    balanced_fleet, disagg_scenario, lite_fleet, memory_pressure_scenario, run_scenario,
    workload_clients, AdmitOrder, AutoscalerConfig, BatchPlan, BatchPolicy, ChaosConfig, ChaosPlan,
    DisaggWorkload, EngineSpec, FabricConfig, FcfsBatch, FlashCrowdConfig, FlashCrowdSource,
    LruEvictor, NoEvict, PrefixAwareEvictor, ReplicaRole, RunSummary, Scenario,
    ShortestPromptFirst, StepView, SystemKind, ThresholdAutoscaler, Workload, L4_LITE, REGIONS,
};

/// Independently materializes the scenario's traffic and counts every
/// request it will ever inject. Only valid for finite sources.
fn injected(scenario: &Scenario) -> u64 {
    scenario
        .clients_until(SimTime::MAX)
        .iter()
        .map(|c| c.total_requests() as u64)
        .sum()
}

fn assert_conserved(tag: &str, expected: u64, s: &RunSummary) {
    let accounted = s.report.completed + s.report.failed + s.report.in_flight;
    assert_eq!(
        accounted, expected,
        "{tag}: injected {expected} != completed {} + failed {} + in-flight {}",
        s.report.completed, s.report.failed, s.report.in_flight
    );
    assert!(
        s.report.retried <= expected,
        "{tag}: retried {} exceeds injected {expected}",
        s.report.retried
    );
}

/// Chaos churn: crashes fail or reroute in-flight work; nothing may
/// vanish from the ledger, under the default engine *and* a preemptive
/// one (crash-during-preemption is the nastiest interleaving).
#[test]
fn chaos_runs_conserve_requests() {
    for (tag, engine) in [
        ("chaos/default", EngineSpec::default()),
        (
            "chaos/preemptive",
            EngineSpec::new(
                Box::new(FcfsBatch::new().with_preemption(0.9)),
                Box::new(LruEvictor),
            ),
        ),
    ] {
        let seed = 47;
        let chaos = ChaosPlan::new(
            ChaosConfig {
                mtbf: SimDuration::from_secs(25),
                mttr: SimDuration::from_secs(15),
                min_live_per_region: 1,
                ..ChaosConfig::default()
            },
            seed,
        );
        let scenario = SystemKind::SkyWalker
            .builder()
            .replicas(balanced_fleet())
            .clients(workload_clients(Workload::WildChat, 0.1, seed).expect("positive scale"))
            .fleet_plan(Box::new(chaos))
            .engine(engine)
            .build()
            .expect("fleet and clients are set");
        let expected = injected(&scenario);
        assert!(expected > 0);
        let s = run_scenario(&scenario, &FabricConfig::default());
        assert_conserved(tag, expected, &s);
    }
}

/// Autoscaler churn: a flash crowd forces scale-out then scale-in;
/// joins and drains must not strand or duplicate requests.
#[test]
fn autoscaler_run_conserves_requests() {
    let seed = 11;
    let crowd = FlashCrowdConfig {
        burst_region: REGIONS[0],
        burst_clients: 12,
        burst_at: SimTime::from_secs(10),
        burst_window: SimDuration::from_secs(10),
        turns: (1, 3),
    };
    let source = FlashCrowdSource::new(crowd, vec![(REGIONS[0], 2), (REGIONS[1], 2)], seed);
    let autoscaler = ThresholdAutoscaler::new(AutoscalerConfig {
        min_per_region: 1,
        max_per_region: 5,
        scale_out_load: 2.0,
        scale_in_load: 0.5,
        cooldown: SimDuration::from_secs(10),
        provision_delay: SimDuration::from_secs(5),
        profile: L4_LITE,
    });
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(lite_fleet(&[(REGIONS[0], 1), (REGIONS[1], 1)]))
        .traffic_source(Box::new(source))
        .fleet_plan(Box::new(autoscaler))
        .build()
        .expect("fleet and traffic are set");
    let expected = injected(&scenario);
    assert!(expected > 0);
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert!(
        s.fleet.joins > 0,
        "flash crowd should have forced a scale-out (joins = 0)"
    );
    assert_conserved("autoscaler/flash-crowd", expected, &s);
}

/// A pathological external policy: periodically preempts the *entire*
/// batch and admits nothing, producing the zero-duration,
/// batch-emptying steps that must read as progress (requeued work),
/// never as a stuck pending head the fabric may fail. Storms are
/// spaced wider than the longest decode (preemption discards generated
/// output, so a storm cadence shorter than the output length would
/// legitimately starve completion — policy pathology, not an
/// accounting bug).
#[derive(Debug, Clone)]
struct PreemptStorm {
    calls: u64,
}

impl BatchPolicy for PreemptStorm {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        self.calls += 1;
        let mut plan = BatchPlan::fcfs();
        if self.calls.is_multiple_of(400) && !view.running.is_empty() {
            plan.admit_order = AdmitOrder::default();
            plan.preempt = (0..view.running.len()).collect();
        }
        plan
    }

    fn label(&self) -> String {
        "preempt-storm".to_string()
    }
}

/// Whole-batch preemption storms through the fabric: every preempted
/// request is requeued and served — nothing is spuriously failed, and
/// the ledger still balances.
#[test]
fn preempt_storm_conserves_and_fails_nothing() {
    let engine = EngineSpec::new(Box::new(PreemptStorm { calls: 0 }), Box::new(LruEvictor));
    let scenario = memory_pressure_scenario(engine, 0.25, 9);
    let expected = injected(&scenario);
    let cfg = FabricConfig::default().telemetry(SimDuration::from_secs(1));
    let s = run_scenario(&scenario, &cfg);
    assert!(s.preempted > 0, "the storm must actually preempt");
    assert_eq!(
        s.report.failed, 0,
        "a preempted-and-requeued request must never be counted failed"
    );
    assert_conserved("preempt-storm", expected, &s);
    assert_eq!(s.report.completed, expected);
    // A preempted request's first token is delivered again; the
    // telemetry plane samples its TTFT once, like the report.
    let telemetry = s.telemetry.as_ref().expect("telemetry was enabled");
    let ttft = telemetry.snapshot.get(names::TTFT_SECONDS, &[]);
    let sketched = ttft.map(|sample| match sample.value {
        SampleValue::Distribution { count, .. } => count,
        _ => 0,
    });
    assert_eq!(sketched, Some(expected), "one TTFT sample a request");
}

/// Engine pressure: every serving engine — including the one that
/// refuses eviction and therefore *fails* work — accounts for each
/// injected request exactly once.
#[test]
fn memory_pressure_engines_conserve_requests() {
    let engines = [
        ("mp/default", EngineSpec::default()),
        (
            "mp/chunked",
            EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor)),
        ),
        (
            "mp/preemptive",
            EngineSpec::new(
                Box::new(FcfsBatch::new().with_preemption(0.9)),
                Box::new(LruEvictor),
            ),
        ),
        (
            "mp/sjf-prefix",
            EngineSpec::new(
                Box::new(ShortestPromptFirst::new()),
                Box::new(PrefixAwareEvictor),
            ),
        ),
        (
            "mp/noevict",
            EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(NoEvict)),
        ),
    ];
    let mut failures_seen = 0u64;
    let mut preemptions_seen = 0u64;
    for (tag, engine) in engines {
        let scenario = memory_pressure_scenario(engine, 0.4, 3);
        let expected = injected(&scenario);
        assert!(expected > 0);
        let s = run_scenario(&scenario, &FabricConfig::default());
        assert_conserved(tag, expected, &s);
        failures_seen += s.report.failed;
        preemptions_seen += s.preempted;
    }
    // The suite only proves something if the lossy paths actually ran.
    assert!(
        failures_seen > 0,
        "no engine failed work — the eviction-refusal path went unexercised"
    );
    assert!(
        preemptions_seen > 0,
        "no engine preempted — the preemption path went unexercised"
    );
}

/// The role-aware half of the ledger: KV handoffs between prefill and
/// decode replicas conserve both the handoff count and every
/// transferred token. A drained run leaves nothing on the wire.
fn assert_transfers_conserved(tag: &str, s: &RunSummary) {
    let t = &s.transfers;
    assert_eq!(
        t.started,
        t.landed + t.aborted,
        "{tag}: started {} != landed {} + aborted {} (+ in-transfer {})",
        t.started,
        t.landed,
        t.aborted,
        t.in_transfer()
    );
    assert_eq!(
        t.tokens_sent,
        t.tokens_landed + t.tokens_aborted,
        "{tag}: transferred tokens leak across the handoff boundary \
         (sent {}, landed {}, aborted {})",
        t.tokens_sent,
        t.tokens_landed,
        t.tokens_aborted
    );
    assert_eq!(
        t.in_transfer(),
        0,
        "{tag}: drained run left handoffs in flight"
    );
    assert_eq!(
        t.tokens_in_transfer(),
        0,
        "{tag}: drained run left tokens in flight"
    );
}

/// Disaggregated runs obey the same request ledger as colocated ones —
/// every injected request is completed, failed, or in flight at the end
/// — plus the transfer ledger on top. Both traffic shapes, both modes.
#[test]
fn disagg_runs_conserve_requests_and_transfers() {
    for workload in DisaggWorkload::ALL {
        for disagg in [false, true] {
            for seed in [3u64, 19] {
                let scenario = disagg_scenario(workload, disagg, 0.5, seed);
                let tag = format!("{}/seed{seed}", scenario.label);
                let expected = injected(&scenario);
                assert!(expected > 0);
                let s = run_scenario(&scenario, &FabricConfig::default());
                assert_conserved(&tag, expected, &s);
                assert_transfers_conserved(&tag, &s);
                if disagg {
                    assert!(
                        s.transfers.started > 0,
                        "{tag}: split mode never handed off"
                    );
                    // No balancer probes a decode-only replica, yet its
                    // KV peak is sampled like any other's.
                    let mut decoders = 0;
                    for (i, role) in scenario.roles.iter().enumerate() {
                        if *role == ReplicaRole::DecodeOnly && s.replica_stats[i].admitted > 0 {
                            decoders += 1;
                            assert!(s.kv_peaks[i] > 0.0, "{tag}: decoder {i} has no KV peak");
                        }
                    }
                    assert!(decoders > 0, "{tag}: no decoder landed a handoff");
                } else {
                    assert_eq!(s.transfers.started, 0, "{tag}: colocated mode handed off");
                }
            }
        }
    }
}

/// The crash schedule of the disaggregated chaos cells.
fn disagg_chaos(seed: u64) -> Box<ChaosPlan> {
    Box::new(ChaosPlan::new(
        ChaosConfig {
            mtbf: SimDuration::from_secs(20),
            mttr: SimDuration::from_secs(15),
            min_live_per_region: 1,
            ..ChaosConfig::default()
        },
        seed,
    ))
}

/// Chaos over a disaggregated fleet: crashes land on prefill replicas
/// mid-handoff and on decode replicas with transfers inbound. A
/// casualty is rerouted once or counted failed — never stranded — and
/// the transfer ledger still balances token for token.
#[test]
fn disagg_chaos_conserves_requests_and_transfers() {
    let mut crashes_seen = 0u64;
    let mut casualties_seen = 0u64;
    for seed in [5u64, 23, 61] {
        let mut scenario = disagg_scenario(DisaggWorkload::DecodeHeavy, true, 0.5, seed);
        scenario.fleet_plan = Some(disagg_chaos(seed));
        scenario.label = format!("disagg/chaos/seed{seed}");
        let expected = injected(&scenario);
        assert!(expected > 0);
        let s = run_scenario(&scenario, &FabricConfig::default());
        assert_conserved(&scenario.label, expected, &s);
        assert_transfers_conserved(&scenario.label, &s);
        crashes_seen += s.fleet.crashes;
        casualties_seen += s.report.retried + s.report.failed + s.transfers.aborted;
    }
    assert!(crashes_seen > 0, "chaos never crashed a replica");
    assert!(
        casualties_seen > 0,
        "no crash ever caught a request in flight — the reroute path went unexercised"
    );
}

/// Autoscaling over a role-split fleet: prefill-heavy traffic saturates
/// the two prefill replicas, the balancer queue grows, and the reactive
/// autoscaler joins fresh *colocated* replicas (the fleet-plan
/// vocabulary has no role axis) — which also become decode targets.
/// The request and transfer ledgers balance through the churn.
#[test]
fn disagg_autoscaler_run_conserves_requests_and_transfers() {
    let seed = 31;
    let mut scenario = disagg_scenario(DisaggWorkload::PrefillHeavy, true, 1.5, seed);
    // `scale_in_load: 0.0` keeps the pre-burst idle poll from draining
    // a replica and burning the cooldown window the burst needs; the
    // drain path is covered by `autoscaler_run_conserves_requests`.
    scenario.fleet_plan = Some(Box::new(ThresholdAutoscaler::new(AutoscalerConfig {
        min_per_region: 2,
        max_per_region: 8,
        scale_out_load: 1.5,
        scale_in_load: 0.0,
        cooldown: SimDuration::from_secs(10),
        provision_delay: SimDuration::from_secs(5),
        profile: L4_LITE,
    })));
    scenario.label = "disagg/autoscale".to_string();
    let expected = injected(&scenario);
    assert!(expected > 0);
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert!(
        s.fleet.joins > 0,
        "prefill saturation should have forced a scale-out (joins = 0)"
    );
    assert!(s.transfers.started > 0, "the split fleet never handed off");
    assert_conserved("disagg/autoscale", expected, &s);
    assert_transfers_conserved("disagg/autoscale", &s);
}

/// Deadline-truncated disaggregated runs, plain and under chaos. Each
/// cell first plays the run traced to learn when its handoffs ship, then
/// replays it with the deadline one microsecond after the middle one —
/// so that transfer is provably on the wire when the run is cut. The
/// ledgers must balance with the in-flight terms included, token for
/// token; the request ledger is checked against the tracer's own count
/// of issued requests, so the tracker cannot grade its own homework.
#[test]
fn truncated_disagg_runs_conserve_requests_and_transfers() {
    use skywalker::trace::TraceEventKind;
    for seed in [5u64, 23, 61] {
        for with_chaos in [false, true] {
            let mut scenario = disagg_scenario(DisaggWorkload::DecodeHeavy, true, 0.5, seed);
            if with_chaos {
                scenario.fleet_plan = Some(disagg_chaos(seed));
            }
            let tag = format!("truncated/seed{seed}/chaos={with_chaos}");
            let cfg = FabricConfig::default().traced();
            let full = run_scenario(&scenario, &cfg);
            let shipped: Vec<SimTime> = full
                .trace
                .expect("tracing was requested")
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::KvTransfer { .. }))
                .map(|e| e.at)
                .collect();
            assert!(
                !shipped.is_empty(),
                "{tag}: the split fleet never handed off"
            );
            let deadline = shipped[shipped.len() / 2] + SimDuration::from_micros(1);

            let s = run_scenario(&scenario, &FabricConfig { deadline, ..cfg });
            let t = &s.transfers;
            assert!(t.in_transfer() > 0, "{tag}: no handoff was cut in flight");
            assert!(
                t.tokens_in_transfer() > 0,
                "{tag}: no tokens were cut in flight"
            );
            assert_eq!(
                t.started,
                t.landed + t.aborted + t.in_transfer(),
                "{tag}: handoff ledger broken ({t:?})"
            );
            assert_eq!(
                t.tokens_sent,
                t.tokens_landed + t.tokens_aborted + t.tokens_in_transfer(),
                "{tag}: token ledger broken ({t:?})"
            );
            let mut issued: Vec<u64> = s
                .trace
                .as_ref()
                .expect("tracing was requested")
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::Issued { req } => Some(req),
                    _ => None,
                })
                .collect();
            issued.sort_unstable();
            issued.dedup();
            assert!(
                s.report.in_flight > 0,
                "{tag}: the cut left nothing in flight"
            );
            assert_conserved(&tag, issued.len() as u64, &s);
        }
    }
}
