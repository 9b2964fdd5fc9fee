//! End-to-end integration tests of the simulated multi-region fabric:
//! conservation of requests, determinism, and the paper's qualitative
//! orderings on small workloads.

use skywalker::{
    fig10_scenario, fig8_scenario, fig9_scenario, run_scenario, FabricConfig, RunSummary,
    SystemKind, Workload,
};

fn small(system: SystemKind, workload: Workload, seed: u64) -> RunSummary {
    run_scenario(
        &fig8_scenario(system, workload, 0.08, seed),
        &FabricConfig::default(),
    )
}

#[test]
fn all_requests_accounted_for_across_systems() {
    for system in SystemKind::FIG8 {
        let scenario = fig8_scenario(system, Workload::Arena, 0.05, 3);
        let expected: usize = scenario
            .clients_until(skywalker::sim::SimTime::ZERO)
            .iter()
            .map(|c| c.total_requests())
            .sum();
        let s = run_scenario(&scenario, &FabricConfig::default());
        assert_eq!(
            (s.report.completed + s.report.in_flight + s.report.failed) as usize,
            expected,
            "{}: requests lost or duplicated",
            system.label()
        );
        assert_eq!(
            s.report.failed,
            0,
            "{}: unexpected failures",
            system.label()
        );
        assert_eq!(s.report.in_flight, 0, "{}: stuck requests", system.label());
    }
}

#[test]
fn deterministic_given_seed() {
    let a = small(SystemKind::SkyWalker, Workload::Arena, 11);
    let b = small(SystemKind::SkyWalker, Workload::Arena, 11);
    assert_eq!(a.report.completed, b.report.completed);
    assert_eq!(a.report.generated_tokens, b.report.generated_tokens);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.forwarded, b.forwarded);
    assert!((a.report.ttft.p90 - b.report.ttft.p90).abs() < 1e-12);
}

/// The events a run delivers are exact under a seed, so they are pinned
/// here: a change that moves the count changes how much work the
/// simulator does per request, and has to say so. So are the delivered
/// events the world re-armed (steady decode iterations taken without a
/// handler). (No golden shows either; neither is a digest field.)
/// A traced run re-arms what an untraced one does: tracing changes no
/// event the engine delivers.
#[test]
fn delivered_events_are_pinned() {
    let scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Arena, 0.08, 11);
    for cfg in [FabricConfig::default(), FabricConfig::default().traced()] {
        let s = run_scenario(&scenario, &cfg);
        assert_eq!(
            (s.delivered_events, s.rearmed_events, s.report.completed),
            (45_060, 25_729, 328),
            "events delivered, of them re-armed, requests completed (traced: {})",
            cfg.trace.is_some()
        );
    }
}

/// FNV over a traced run's events, in order, with how many there were,
/// how many were `ReplicaStall` spans and how many `Evicted` deltas.
fn trace_fingerprint(s: &RunSummary) -> (usize, usize, usize, u64) {
    use skywalker::sim::{fnv1a_bytes, FNV_OFFSET};
    use skywalker::trace::TraceEventKind::{Evicted, ReplicaStall};
    let trace = s.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.dropped_events, 0, "the recorder kept every event");
    let (mut stalls, mut evictions, mut h) = (0, 0, FNV_OFFSET);
    for e in trace.events.iter() {
        match e.kind {
            ReplicaStall { .. } => stalls += 1,
            Evicted { .. } => evictions += 1,
            _ => {}
        }
        h = fnv1a_bytes(h, format!("{e:?}").as_bytes());
    }
    (trace.events.len(), stalls, evictions, h)
}

/// The trace event streams of two runs, recorded before a traced run
/// re-armed its steady iterations: re-arming records, event for event,
/// what the handled iteration did. The memory-pressure run stalls on KV
/// memory and evicts, so its spans and deltas are on the re-armed path.
#[test]
fn traced_runs_record_the_recorded_streams() {
    use skywalker::{memory_pressure_scenario, EngineSpec};
    let arena = run_scenario(
        &fig8_scenario(SystemKind::SkyWalker, Workload::Arena, 0.08, 11),
        &FabricConfig::default().traced(),
    );
    assert_eq!(
        trace_fingerprint(&arena),
        (2_952, 0, 0, 998_756_221_203_482_307),
        "Arena"
    );
    let cfg = FabricConfig {
        seed: 2,
        ..FabricConfig::default()
    };
    let pressure = memory_pressure_scenario(EngineSpec::default(), 0.5, 2);
    let untraced = run_scenario(&pressure, &cfg);
    let traced = run_scenario(&pressure, &cfg.traced());
    assert_eq!(
        (traced.delivered_events, traced.rearmed_events),
        (untraced.delivered_events, untraced.rearmed_events)
    );
    assert!(traced.rearmed_events > 0);
    assert_eq!(
        trace_fingerprint(&traced),
        (1_452, 368, 85, 14_899_562_367_074_085_037),
        "memory pressure"
    );
}

#[test]
fn different_seeds_differ() {
    let a = small(SystemKind::SkyWalker, Workload::Arena, 1);
    let b = small(SystemKind::SkyWalker, Workload::Arena, 2);
    // The workloads differ, so the timelines must too.
    assert_ne!(a.end_time, b.end_time);
}

#[test]
fn skywalker_beats_round_robin_on_conversations() {
    let rr = small(SystemKind::RoundRobin, Workload::WildChat, 5);
    let sw = small(SystemKind::SkyWalker, Workload::WildChat, 5);
    assert!(
        sw.report.throughput_tps > rr.report.throughput_tps,
        "SkyWalker {:.0} tok/s must beat RR {:.0} tok/s",
        sw.report.throughput_tps,
        rr.report.throughput_tps
    );
    assert!(
        sw.replica_hit_rate > rr.replica_hit_rate,
        "prefix-aware routing must lift the hit rate"
    );
}

#[test]
fn geo_distribution_cuts_median_ttft() {
    // Centralized baselines pay a cross-region RTT for most clients.
    let central = small(SystemKind::LeastLoad, Workload::Arena, 7);
    let geo = small(SystemKind::SkyWalker, Workload::Arena, 7);
    assert!(
        geo.report.ttft.p50 < central.report.ttft.p50,
        "geo p50 {:.3}s vs centralized {:.3}s",
        geo.report.ttft.p50,
        central.report.ttft.p50
    );
}

#[test]
fn skewed_load_triggers_forwarding_only_for_skywalker() {
    // Scale 0.3 puts ~36 US clients on 2 US replicas: enough concurrent
    // KV footprint to saturate the local batch and force offloading.
    let cfg = FabricConfig::default();
    let sw = run_scenario(&fig10_scenario(SystemKind::SkyWalker, 6, 0.3, 9), &cfg);
    let rl = run_scenario(&fig10_scenario(SystemKind::RegionLocal, 6, 0.3, 9), &cfg);
    assert!(sw.forwarded > 0, "US overload must offload cross-region");
    assert_eq!(rl.forwarded, 0, "region-local must never forward");
    assert!(
        sw.report.throughput_tps >= rl.report.throughput_tps,
        "cross-region offloading must not hurt throughput: {:.0} vs {:.0}",
        sw.report.throughput_tps,
        rl.report.throughput_tps
    );
}

#[test]
fn single_region_microbenchmark_has_no_cross_region_effects() {
    let s = run_scenario(
        &fig9_scenario(SystemKind::SkyWalker, 4, 8, 13),
        &FabricConfig::default(),
    );
    assert_eq!(s.forwarded, 0, "one region, nothing to forward to");
    assert_eq!(s.report.failed, 0);
    assert!(s.report.completed > 0);
    // Everything co-located: medians dominated by prefill, well under a
    // second for short ToT prompts with warm caches.
    assert!(s.report.ttft.p50 < 2.0, "p50 {:.3}s", s.report.ttft.p50);
}

#[test]
fn tot_workload_high_cache_hit_for_affinity_systems() {
    let sw = small(SystemKind::SkyWalker, Workload::Tot, 17);
    let rr = small(SystemKind::RoundRobin, Workload::Tot, 17);
    assert!(
        sw.replica_hit_rate > 0.5,
        "ToT trees share ancestor paths: hit rate {:.2}",
        sw.replica_hit_rate
    );
    assert!(sw.replica_hit_rate > rr.replica_hit_rate);
}

#[test]
fn summaries_are_internally_consistent() {
    let s = small(SystemKind::SkyWalker, Workload::MixedTree, 19);
    let r = &s.report;
    assert!(r.ttft.p50 <= r.ttft.p90);
    assert!(r.e2e.p50 <= r.e2e.p90);
    assert!(r.ttft.p50 <= r.e2e.p50, "TTFT cannot exceed E2E");
    assert!(r.cache_hit_rate >= 0.0 && r.cache_hit_rate <= 1.0);
    assert!(s.request_rate() > 0.0);
    assert_eq!(s.kv_peaks.len(), s.replica_stats.len());
    assert!(s.kv_peaks.iter().all(|p| (0.0..=1.0).contains(p)));
    // Replica-side and client-side token accounting must agree.
    let replica_generated: u64 = s.replica_stats.iter().map(|x| x.generated_tokens).sum();
    assert!(replica_generated >= r.generated_tokens);
}

/// Every self-rescheduling tick must advance virtual time even when its
/// interval is configured as zero: each run below has to reach its
/// deadline (or drain) instead of spinning at one instant.
#[test]
fn zeroed_tick_intervals_still_run_to_completion() {
    use skywalker::sim::{SimDuration, SimTime};
    use skywalker::TelemetryConfig;
    type Zero = fn(&mut FabricConfig);
    let zeroed: [(&str, Zero); 2] = [
        ("probe", |c| c.probe_interval = SimDuration::ZERO),
        ("telemetry", |c| {
            c.telemetry = Some(TelemetryConfig::every(SimDuration::ZERO))
        }),
    ];
    let scenario = SystemKind::SkyWalker
        .builder()
        .fig8_fleet(Workload::Arena)
        .workload(Workload::Arena, 0.01, 3)
        .build()
        .expect("fleet and workload are set");
    for (name, zero) in zeroed {
        let mut cfg = FabricConfig {
            deadline: SimTime::from_secs(60),
            ..FabricConfig::default()
        };
        zero(&mut cfg);
        let s = run_scenario(&scenario, &cfg);
        assert!(s.report.completed > 0, "{name}: nothing completed");
        assert!(
            s.end_time <= cfg.deadline,
            "{name}: ran past the deadline ({:?})",
            s.end_time
        );
    }
}

/// Where the P90 TTFT goes under KV pressure: `fcfs+noevict` pins a full
/// cache and stops caching prefixes, so its P90 TTFT sits well above
/// `fcfs+lru`'s, and the structural trace diff must blame the KV-memory
/// side of serving (cache-miss prefill, admission backlog or a KV stall),
/// not decoding speed.
#[test]
fn trace_diff_blames_kv_memory_for_the_engine_spread() {
    use skywalker::{
        memory_pressure_scenario, Attribution, BottleneckReport, EngineSpec, FcfsBatch, NoEvict,
        Phase, TraceDiff,
    };
    let traced_run = |engine: EngineSpec| {
        let scenario = memory_pressure_scenario(engine, 0.25, 2);
        let cfg = FabricConfig {
            seed: 2,
            ..FabricConfig::default()
        }
        .traced();
        let s = run_scenario(&scenario, &cfg);
        let trace = s.trace.as_ref().expect("tracing was enabled");
        assert!(trace.complete(), "recorder overflowed");
        let report = BottleneckReport::new(s.label.clone(), &Attribution::from_summary(trace), 3);
        (s.report.ttft.p90, report)
    };
    let (lru_p90, lru) = traced_run(EngineSpec::default());
    let (noevict_p90, noevict) = traced_run(EngineSpec::new(
        Box::new(FcfsBatch::new()),
        Box::new(NoEvict),
    ));

    let ratio = noevict_p90 / lru_p90;
    assert!(
        ratio > 1.2,
        "expected a visible P90-TTFT spread between the engines, got {ratio:.2}x"
    );
    let mover = TraceDiff::between(&lru, &noevict)
        .dominant_ttft_mover()
        .expect("a spread this wide has a dominant phase");
    assert!(
        matches!(
            mover,
            Phase::Prefill | Phase::AdmissionWait | Phase::KvStall
        ),
        "expected a KV-memory-side phase to dominate the TTFT delta, got {}",
        mover.label()
    );
}
