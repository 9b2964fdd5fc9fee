//! End-to-end proof of the open traffic surface: streaming
//! [`TrafficSource`]s drive the full fabric through `ScenarioBuilder`
//! with no special-casing anywhere — including two sources
//! (`RagCorpusSource`, `FlashCrowdSource`) that exist only in the facade
//! crate, outside `skywalker-workload`.

use skywalker::net::Region;
use skywalker::replica::{GpuProfile, Request};
use skywalker::sim::{fnv1a_bytes, fnv1a_words, DetRng, SimDuration, SimTime, FNV_OFFSET};
use skywalker::workload::{
    ArrivalSchedule, ClientSpec, ConversationConfig, ConversationSource, Program, TotConfig,
    TotSource, TrafficSource,
};
use skywalker::{
    balanced_fleet, disagg_scenario, fig10_scenario, fig9_scenario, lite_fleet,
    memory_pressure_scenario, run_scenario, trio_diurnal_profiles, workload_clients,
    DisaggWorkload, DiurnalSource, EngineSpec, FabricConfig, FlashCrowdSource, RagCorpusConfig,
    RagCorpusSource, ReplicaPlacement, ReplicaRole, RunSummary, Scenario, ScenarioError,
    SystemKind, Workload,
};

fn conservation(s: &RunSummary, expected: usize, what: &str) {
    assert_eq!(
        (s.report.completed + s.report.in_flight + s.report.failed) as usize,
        expected,
        "{what}: requests lost or duplicated"
    );
    assert_eq!(s.report.failed, 0, "{what}: unexpected failures");
    assert_eq!(s.report.in_flight, 0, "{what}: stuck requests");
}

/// The acceptance pin of the redesign: a run driven by the streaming
/// preset source and a run driven by the equivalent pre-materialized
/// `Vec<ClientSpec>` must produce the *same* `RunSummary`, timeline and
/// all — the adapter and the stream are interchangeable.
#[test]
fn source_run_matches_materialized_run_exactly() {
    let cfg = FabricConfig::default();
    for (workload, scale, seed) in [(Workload::Arena, 0.05, 3), (Workload::MixedTree, 0.1, 17)] {
        let via_source = SystemKind::SkyWalker
            .builder()
            .fig8_fleet(workload)
            .workload(workload, scale, seed)
            .build()
            .expect("fleet and source are set");
        let via_clients = SystemKind::SkyWalker
            .builder()
            .fig8_fleet(workload)
            .clients(workload_clients(workload, scale, seed).expect("positive scale"))
            .build()
            .expect("fleet and clients are set");

        let a = run_scenario(&via_source, &cfg);
        let b = run_scenario(&via_clients, &cfg);
        assert_eq!(a.end_time, b.end_time, "{}", workload.label());
        assert_eq!(a.report.completed, b.report.completed);
        assert_eq!(a.report.generated_tokens, b.report.generated_tokens);
        assert_eq!(a.forwarded, b.forwarded);
        assert!((a.report.ttft.p90 - b.report.ttft.p90).abs() < 1e-12);
        assert!((a.report.e2e.p50 - b.report.e2e.p50).abs() < 1e-12);
        assert_eq!(a.peak_outstanding, b.peak_outstanding);
    }
}

/// Re-running the same scenario must replay identically: each run pulls
/// from a fresh clone of the source, so sources are not consumed.
#[test]
fn scenarios_with_sources_replay_deterministically() {
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .workload(Workload::WildChat, 0.08, 7)
        .build()
        .expect("fleet and source are set");
    let cfg = FabricConfig::default();
    let a = run_scenario(&scenario, &cfg);
    let b = run_scenario(&scenario, &cfg);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.report.completed, b.report.completed);
    assert_eq!(a.forwarded, b.forwarded);
}

/// Staggered arrivals: the same population on a uniform ramp finishes
/// later than the all-at-once cohort, every request still accounted for.
#[test]
fn ramped_arrivals_stream_through_the_fabric() {
    let regions = vec![(Region::UsEast, 8), (Region::EuWest, 6)];
    let ramp = SimDuration::from_secs(120);
    let source = || {
        Box::new(
            ConversationSource::new(ConversationConfig::wildchat(), regions.clone(), 31)
                .with_schedule(ArrivalSchedule::UniformRamp { over: ramp }),
        )
    };
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .traffic_source(source())
        .build()
        .expect("fleet and source are set");
    let expected: usize = scenario
        .clients_until(SimTime::MAX)
        .iter()
        .map(|c| c.total_requests())
        .sum();

    let s = run_scenario(&scenario, &FabricConfig::default());
    conservation(&s, expected, "ramped arrivals");
    assert!(
        s.end_time >= SimTime::ZERO + ramp,
        "the run cannot end before the last client arrives ({})",
        s.end_time
    );
}

/// A stage, program or client with nothing in it is nothing to wait
/// for: the client moves past it at once instead of idling, with
/// nothing in flight, until the deadline.
#[test]
fn empty_stages_and_programs_do_not_strand_their_client() {
    let req = |id: u64| Request::new(id, format!("u{id}/0"), (0..64).collect(), 8);
    let client = |programs: Vec<Vec<Vec<Request>>>| ClientSpec {
        region: Region::UsEast,
        user: "u".into(),
        programs: programs
            .into_iter()
            .map(|stages| Program { stages })
            .collect(),
    };
    let clients = vec![
        // The reported shape: an empty stage between two real ones.
        client(vec![vec![vec![req(1)], vec![], vec![req(2)]]]),
        // Leading and trailing empty stages, and two in a row.
        client(vec![vec![vec![], vec![req(3)], vec![], vec![]]]),
        // A program without stages ahead of a real one.
        client(vec![vec![], vec![vec![req(4), req(5)]]]),
        // Nothing but empty stages, and nothing at all.
        client(vec![vec![vec![], vec![]]]),
        client(vec![]),
    ];
    let emitted: usize = clients.iter().map(ClientSpec::total_requests).sum();
    assert_eq!(emitted, 5);
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(lite_fleet(&[(Region::UsEast, 1)]))
        .clients(clients)
        .build()
        .expect("fleet and clients are set");
    let cfg = FabricConfig {
        deadline: SimTime::from_secs(600),
        ..FabricConfig::default()
    };
    let s = run_scenario(&scenario, &cfg);
    conservation(&s, emitted, "empty stages");
    assert_eq!(s.report.completed as usize, emitted);
    assert!(
        s.end_time < SimTime::from_secs(60),
        "the run idled to {} instead of ending with its last request",
        s.end_time
    );
}

#[test]
fn builder_validates_fleet_and_traffic() {
    let err = Scenario::builder()
        .workload(Workload::Arena, 0.05, 1)
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::EmptyFleet);
    assert!(err
        .to_string()
        .contains("no replica a balancer can route to"));

    let err = Scenario::builder()
        .replicas(balanced_fleet())
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::NoTraffic);

    let err = Scenario::builder()
        .replicas(balanced_fleet())
        .clients(Vec::new())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::NoTraffic,
        "an exhausted source is no traffic"
    );
}

/// A population scale that is not a positive finite number used to run
/// the one-client floor (`NaN`, negatives, zero) or try to generate
/// `u32::MAX` clients per region before the engine started (`+∞`, or
/// anything large enough to saturate the count).
#[test]
fn builder_rejects_scales_that_are_not_positive_and_finite() {
    for scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 1e9] {
        for workload in Workload::ALL {
            let err = Scenario::builder()
                .replicas(balanced_fleet())
                .workload(workload, scale, 1)
                .build()
                .unwrap_err();
            assert_eq!(err, ScenarioError::InvalidScale, "{workload:?} at {scale}");
            assert!(err.to_string().contains("not a positive finite number"));
            assert_eq!(
                workload_clients(workload, scale, 1),
                Err(ScenarioError::InvalidScale)
            );
        }
    }
    // The scaled presets surface it through their `expect`.
    type Preset = fn(f64) -> Scenario;
    let presets: [Preset; 3] = [
        |scale| memory_pressure_scenario(EngineSpec::default(), scale, 1),
        |scale| disagg_scenario(DisaggWorkload::DecodeHeavy, true, scale, 1),
        |scale| fig10_scenario(SystemKind::SkyWalker, 6, scale, 1),
    ];
    for preset in presets {
        let refused = std::panic::catch_unwind(|| preset(f64::NAN)).unwrap_err();
        let msg = refused.downcast_ref::<String>().expect("an expect message");
        assert!(msg.contains("InvalidScale"), "{msg}");
    }
    // The smallest positive scales still build the floor.
    let tiny = workload_clients(Workload::Arena, f64::MIN_POSITIVE, 1).expect("positive scale");
    assert_eq!(tiny.len(), 3);
}

/// Role-topology validation: a prefill-only replica needs a
/// decode-capable peer (colocated or decode-only) *in its own region* —
/// KV handoff never crosses the WAN. One case per region topology.
#[test]
fn builder_rejects_prefill_regions_without_decode_capacity() {
    use ReplicaRole::{Colocated, DecodeOnly, PrefillOnly};
    let build = |counts: &[(Region, u32)], roles: Vec<ReplicaRole>| {
        Scenario::builder()
            .replicas(lite_fleet(counts))
            .roles(roles)
            .workload(Workload::Arena, 0.05, 1)
            .build()
    };
    let us = Region::UsEast;
    let eu = Region::EuWest;

    // A region whose only replicas are prefill-only: every handoff from
    // there would have nowhere to land.
    let err = build(&[(us, 2)], vec![PrefillOnly, PrefillOnly]).unwrap_err();
    assert_eq!(err, ScenarioError::NoDecodeCapacity);

    // Decode capacity in another region does not count: the transfer
    // target must be region-local.
    let err = build(&[(us, 1), (eu, 1)], vec![PrefillOnly, DecodeOnly]).unwrap_err();
    assert_eq!(
        err,
        ScenarioError::NoDecodeCapacity,
        "a decode replica across the WAN is not a handoff target"
    );

    // A decode-only peer in the same region satisfies the prefill side.
    build(&[(us, 2)], vec![PrefillOnly, DecodeOnly]).expect("split pair in one region is valid");

    // A colocated peer decodes too, so it also satisfies it.
    build(&[(us, 2)], vec![PrefillOnly, Colocated]).expect("colocated peer decodes");

    // A role list is empty (every replica Colocated) or names every
    // replica: a shorter one leaves roles nobody stated, and a longer
    // one's tail would describe replicas that do not exist.
    build(&[(us, 2)], vec![]).expect("no roles is the classical colocated fleet");
    for roles in [vec![PrefillOnly], vec![PrefillOnly, DecodeOnly, DecodeOnly]] {
        let err = build(&[(us, 2)], roles).unwrap_err();
        assert_eq!(err, ScenarioError::RolesMismatchFleet);
        assert!(err.to_string().contains("does not match its fleet"));
    }

    // Topologies with no prefill-only replica never trip the check:
    // all-colocated fleets and even a decode-only singleton (it simply
    // serves full requests' decode phase for colocated prefill elsewhere
    // — here, nothing hands off to it, which is legal if wasteful).
    build(&[(us, 1), (eu, 1)], vec![Colocated, Colocated]).expect("all-colocated is valid");
    build(&[(us, 1), (eu, 1)], vec![Colocated, DecodeOnly])
        .expect("a decode-only replica with no prefill peer is legal");

    // But a fleet of *only* decode-only replicas is unroutable: the
    // balancers see none of them, so nothing would ever be dispatched.
    let err = build(&[(us, 1), (eu, 1)], vec![DecodeOnly, DecodeOnly]).unwrap_err();
    assert_eq!(err, ScenarioError::EmptyFleet);

    // Mixed multi-region: each region independently satisfied.
    build(
        &[(us, 2), (eu, 2)],
        vec![PrefillOnly, DecodeOnly, PrefillOnly, Colocated],
    )
    .expect("both regions have local decode capacity");
}

/// The RAG shared-corpus source — written entirely outside
/// `skywalker-workload` — runs through the standard builder, conserves
/// every request, and its cross-user document sharing is visible to
/// prefix-affinity routing: SkyWalker's replica hit rate beats blind
/// round robin by a wide margin.
#[test]
fn rag_corpus_source_runs_and_rewards_affinity() {
    let users = vec![
        (Region::UsEast, 10),
        (Region::EuWest, 8),
        (Region::ApNortheast, 8),
    ];
    let cfg = FabricConfig::default();
    let mut summaries = Vec::new();
    for system in [SystemKind::SkyWalker, SystemKind::RoundRobin] {
        let scenario = system
            .builder()
            .replicas(balanced_fleet())
            .traffic_source(Box::new(RagCorpusSource::new(
                RagCorpusConfig::default(),
                users.clone(),
                23,
            )))
            .build()
            .expect("fleet and source are set");
        let expected: usize = scenario
            .clients_until(SimTime::ZERO)
            .iter()
            .map(|c| c.total_requests())
            .sum();
        let s = run_scenario(&scenario, &cfg);
        conservation(&s, expected, system.label());
        summaries.push(s);
    }
    let (sky, rr) = (&summaries[0], &summaries[1]);
    assert!(
        sky.replica_hit_rate > rr.replica_hit_rate + 0.1,
        "shared hot documents must reward prefix affinity \
         ({:.3} SkyWalker vs {:.3} RR)",
        sky.replica_hit_rate,
        rr.replica_hit_rate
    );
    assert!(
        sky.replica_hit_rate > 0.3,
        "hot-document reuse should be substantial: {:.3}",
        sky.replica_hit_rate
    );
}

/// The flash-crowd source: a mid-run step of clients in one region.
/// Arrivals must actually happen at the step (the run outlives it), the
/// overloaded region must spill cross-region under SkyWalker, and a
/// region-local deployment must not forward at all.
#[test]
fn flash_crowd_source_triggers_cross_region_offload() {
    let burst_at = SimTime::from_secs(30);
    let fleet = vec![
        ReplicaPlacement {
            region: Region::UsEast,
            profile: GpuProfile::L4_LLAMA_8B,
        },
        ReplicaPlacement {
            region: Region::UsEast,
            profile: GpuProfile::L4_LLAMA_8B,
        },
        ReplicaPlacement {
            region: Region::UsEast,
            profile: GpuProfile::L4_LLAMA_8B,
        },
        ReplicaPlacement {
            region: Region::EuWest,
            profile: GpuProfile::L4_LLAMA_8B,
        },
    ];
    let source = || {
        Box::new(
            FlashCrowdSource::new(
                vec![(Region::UsEast, 2), (Region::EuWest, 2)],
                Region::EuWest,
                40,
                burst_at,
                29,
            )
            .with_burst_window(SimDuration::from_secs(5))
            .with_turns((2, 3)),
        )
    };
    let cfg = FabricConfig::default();

    let sky = SystemKind::SkyWalker
        .builder()
        .replicas(fleet.clone())
        .traffic_source(source())
        .build()
        .expect("fleet and source are set");
    let expected: usize = sky
        .clients_until(SimTime::MAX)
        .iter()
        .map(|c| c.total_requests())
        .sum();
    let s = run_scenario(&sky, &cfg);
    conservation(&s, expected, "flash crowd / SkyWalker");
    assert!(
        s.end_time > burst_at,
        "the run must outlive the burst step ({})",
        s.end_time
    );
    assert!(
        s.forwarded > 0,
        "a regional flash crowd over one EU replica must spill cross-region"
    );

    let local = SystemKind::RegionLocal
        .builder()
        .replicas(fleet)
        .traffic_source(source())
        .build()
        .expect("fleet and source are set");
    let l = run_scenario(&local, &cfg);
    assert_eq!(l.forwarded, 0, "region-local never forwards");
    assert!(
        s.report.ttft.p90 <= l.report.ttft.p90,
        "offloading the crowd must not worsen tail TTFT \
         ({:.2}s vs {:.2}s region-local)",
        s.report.ttft.p90,
        l.report.ttft.p90
    );
}

/// FNV-1a over everything a drained source emitted: per client its
/// arrival instant, region, user and program shape; per request its id,
/// session key, every prompt token, output target and output offset.
fn stream_fingerprint(mut source: Box<dyn TrafficSource>) -> u64 {
    let mut rng = DetRng::new(0);
    let mut h = FNV_OFFSET;
    while !source.is_exhausted() {
        let batch = source.next_batch(SimTime::MAX, &mut rng);
        assert!(!batch.is_empty(), "a source that is not exhausted emits");
        for e in batch {
            h = fnv1a_words(h, [e.at.as_micros(), e.spec.region.index() as u64]);
            h = fnv1a_bytes(h, e.spec.user.as_bytes());
            for p in &e.spec.programs {
                h = fnv1a_words(h, [p.stages.len() as u64]);
                for stage in &p.stages {
                    h = fnv1a_words(h, [stage.len() as u64]);
                    for r in stage {
                        h = fnv1a_words(h, [r.id.0]);
                        h = fnv1a_bytes(h, r.session_key.as_bytes());
                        h = fnv1a_words(h, r.prompt.iter().map(|&t| u64::from(t)));
                        let tail = [r.target_output_tokens, r.output_offset];
                        h = fnv1a_words(h, tail.map(u64::from));
                    }
                }
            }
        }
    }
    h
}

/// Every built-in source emits, token for token, the stream it emitted
/// before the generators were folded under one slot walk: fingerprints
/// recorded at the parent of that change (seeds 1, 7, 61), where the
/// streaming sources were themselves pinned to the eager generators
/// this replaces. A mismatch means generated traffic changed — and with
/// it every golden — not that the constant needs refreshing.
#[test]
fn built_in_sources_emit_the_recorded_streams() {
    let poisson = ArrivalSchedule::Poisson {
        mean_gap: SimDuration::from_millis(300),
    };
    // Uneven slots with an empty region, and ids that do not start at 0.
    let slots = || {
        vec![
            (Region::UsEast, 5),
            (Region::EuWest, 0),
            (Region::ApNortheast, 3),
        ]
    };
    type Source = Box<dyn TrafficSource>;
    type Row = (&'static str, Box<dyn Fn(u64) -> Source>, [u64; 3]);
    let preset = |w: Workload| move |seed| w.source(0.1, seed).expect("positive scale");
    let rows: Vec<Row> = vec![
        (
            "Arena",
            Box::new(preset(Workload::Arena)),
            [
                0x8111_a340_7549_c0af,
                0xb608_2738_0487_a730,
                0xac29_ab15_deae_7740,
            ],
        ),
        (
            "WildChat",
            Box::new(preset(Workload::WildChat)),
            [
                0x2cb5_4a12_d42e_c6a0,
                0xb39b_f88c_b7f0_dd49,
                0x7ad9_6ffa_3168_db15,
            ],
        ),
        (
            "ToT",
            Box::new(preset(Workload::Tot)),
            [
                0xc5eb_1764_2a05_f3a1,
                0xbda7_1aeb_3939_5b84,
                0x4809_2602_ce30_c756,
            ],
        ),
        (
            "Mixed Tree",
            Box::new(preset(Workload::MixedTree)),
            [
                0xfa8f_4b32_0cc6_11ec,
                0xccfe_a633_3f57_c4dd,
                0xbb5d_f060_506b_f889,
            ],
        ),
        (
            "ConversationSource / Poisson",
            Box::new(move |seed| {
                Box::new(
                    ConversationSource::new(ConversationConfig::wildchat(), slots(), seed)
                        .with_schedule(poisson)
                        .with_first_request_id(1 << 20),
                )
            }),
            [
                0x57f8_41ec_8128_401e,
                0x7e0b_175e_c385_36be,
                0x0e7b_400d_b85e_a746,
            ],
        ),
        (
            "TotSource / Poisson",
            Box::new(move |seed| {
                Box::new(
                    TotSource::new(TotConfig::branch4(), slots(), 1, seed)
                        .with_schedule(poisson)
                        .with_first_request_id(1 << 20),
                )
            }),
            [
                0xb810_69b6_de02_baf6,
                0x8d24_6a13_ccf7_5aa1,
                0xb809_096e_f5c3_7338,
            ],
        ),
        (
            "RagCorpusSource",
            Box::new(move |seed| {
                Box::new(RagCorpusSource::new(
                    RagCorpusConfig::default(),
                    slots(),
                    seed,
                ))
            }),
            [
                0x3adb_a7df_d368_6f10,
                0x2081_0e74_24d0_8d97,
                0x43e2_5f17_9980_fba0,
            ],
        ),
        (
            "RagCorpusSource / Poisson",
            Box::new(move |seed| {
                Box::new(
                    RagCorpusSource::new(RagCorpusConfig::default(), slots(), seed)
                        .with_schedule(poisson),
                )
            }),
            [
                0xb48a_be8b_eced_298b,
                0x9ec4_851f_769c_19cf,
                0xd6f7_a008_f14a_cae1,
            ],
        ),
        (
            "DiurnalSource",
            Box::new(|seed| {
                Box::new(DiurnalSource::new(
                    &trio_diurnal_profiles(),
                    SimDuration::from_secs(600),
                    0.004,
                    &DiurnalSource::light_chat(),
                    seed,
                ))
            }),
            [
                0xaf04_6095_91a0_94a1,
                0x1faf_f359_23c2_ee8f,
                0xb55f_b41a_19c6_b796,
            ],
        ),
        (
            "FlashCrowdSource",
            Box::new(|seed| {
                Box::new(FlashCrowdSource::new(
                    vec![(Region::UsEast, 3), (Region::EuWest, 2)],
                    Region::EuWest,
                    12,
                    SimTime::from_secs(30),
                    seed,
                ))
            }),
            [
                0x4b69_6b12_881f_c238,
                0x7390_6135_c455_4777,
                0x8743_75dc_64f9_769e,
            ],
        ),
        // The two presets that fed an eager population to
        // `ScenarioBuilder::clients` at the parent.
        (
            "fig9_scenario",
            Box::new(|seed| fig9_scenario(SystemKind::SkyWalker, 4, 10, seed).traffic),
            [
                0x1444_d60d_1cd3_1f58,
                0x55b7_9896_b0da_58fb,
                0x3c8d_807f_6453_d2f7,
            ],
        ),
        (
            "fig10_scenario",
            Box::new(|seed| fig10_scenario(SystemKind::SkyWalker, 6, 0.1, seed).traffic),
            [
                0x6065_06d4_7cc3_73ce,
                0xbfb3_926a_3975_cf66,
                0x7687_ba03_be22_7e3a,
            ],
        ),
    ];
    for (name, source, recorded) in rows {
        let emitted = [1, 7, 61].map(|seed| stream_fingerprint(source(seed)));
        assert_eq!(
            emitted, recorded,
            "{name}: emitted {emitted:#018x?}, recorded {recorded:#018x?}"
        );
    }
}
