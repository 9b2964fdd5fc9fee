//! End-to-end exercises of the elastic fleet control plane: scripted
//! join/drain lifecycles, and chaos churn with full request accounting.
//! The autoscalers over the reference diurnal day — the reactive one
//! beating its equal-cost static fleet on P90 TTFT, neither failing a
//! request — are the "Fleet day" rows of `docs/claims.md`, gated by
//! `tests/paper_claims.rs`.

use skywalker::replica::{GpuProfile, ReplicaId, Request};
use skywalker::sim::{SimDuration, SimTime};
use skywalker::telemetry::{names, SampleValue, TelemetrySummary};
use skywalker::workload::{ClientSpec, Program};
use skywalker::{
    balanced_fleet, diurnal_day_scenario, l4_fleet, run_scenario, workload_clients,
    AutoscalerConfig, ChaosConfig, ChaosPlan, DayStrategy, FabricConfig, FleetCommand, FleetEvent,
    MergePlan, RunSummary, ScheduledPlan, SystemKind, ThresholdAutoscaler, Workload, REGIONS,
};

fn expected_requests(scale: f64, seed: u64) -> usize {
    workload_clients(Workload::WildChat, scale, seed)
        .expect("positive scale")
        .iter()
        .map(|c| c.total_requests())
        .sum()
}

fn accounted(s: &RunSummary) -> u64 {
    s.report.completed + s.report.failed + s.report.in_flight
}

#[test]
fn scheduled_join_and_drain_lifecycle() {
    let seed = 41;
    let clients = workload_clients(Workload::WildChat, 0.1, seed).expect("positive scale");
    let expected: usize = clients.iter().map(|c| c.total_requests()).sum();
    let plan = ScheduledPlan::new(vec![
        FleetCommand::new(
            SimTime::from_secs(5),
            FleetEvent::ReplicaJoin {
                region: REGIONS[1],
                profile: GpuProfile::L4_LLAMA_8B,
            },
        ),
        FleetCommand::new(
            SimTime::from_secs(20),
            FleetEvent::ReplicaDrain {
                replica: ReplicaId(0),
            },
        ),
    ]);
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .clients(clients)
        .fleet_plan(Box::new(plan))
        .build()
        .expect("valid scenario");
    let s = run_scenario(&scenario, &FabricConfig::default());

    assert_eq!(accounted(&s) as usize, expected, "no request may vanish");
    assert_eq!(s.report.in_flight, 0, "run must drain");
    assert_eq!((s.fleet.joins, s.fleet.drains, s.fleet.crashes), (1, 1, 0));
    assert!(s.fleet.is_elastic());
    // 12 replicas to start, one joined, one drained.
    assert_eq!(s.fleet.final_replicas, 12);
    // The join shows in EU's trace (4 → 5) and the drain (of a US
    // replica, id 0) in US's trace (4 → 3).
    let eu = s.fleet.series(REGIONS[1]).expect("EU trace");
    assert_eq!(eu.peak(), 5.0);
    let us = s.fleet.series(REGIONS[0]).expect("US trace");
    assert_eq!(us.points().last().unwrap().1, 3.0);
    // The joined replica (id 12) materialized as a first-class member:
    // it has stats and, like every replica, a probed KV peak that is
    // nonzero exactly if it served. (Whether it *serves* under a light
    // closed-loop load is the affinity policy's call — a fresh empty
    // cache attracts work only when the warmed replicas fill up.)
    assert_eq!(s.replica_stats.len(), 13);
    assert_eq!(s.kv_peaks.len(), 13, "one peak per replica ever deployed");
    for (i, (peak, stats)) in s.kv_peaks.iter().zip(&s.replica_stats).enumerate() {
        assert_eq!(*peak > 0.0, stats.admitted > 0, "replica {i}: peak {peak}");
    }
}

#[test]
fn crash_reroutes_once_then_fails() {
    let seed = 43;
    let clients = workload_clients(Workload::WildChat, 0.1, seed).expect("positive scale");
    let expected: usize = clients.iter().map(|c| c.total_requests()).sum();
    // Crash one replica mid-run; its in-flight work reroutes.
    let plan = ScheduledPlan::new(vec![FleetCommand::new(
        SimTime::from_secs(10),
        FleetEvent::ReplicaCrash {
            replica: ReplicaId(3),
        },
    )]);
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .clients(clients)
        .fleet_plan(Box::new(plan))
        .build()
        .expect("valid scenario");
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert_eq!(accounted(&s) as usize, expected);
    assert_eq!(s.report.in_flight, 0);
    assert_eq!(s.fleet.crashes, 1);
    assert_eq!(s.fleet.final_replicas, 11);
    // A single crash is fully absorbed: everything reroutes and
    // completes (failures need the *same* request to die twice).
    assert_eq!(s.report.completed as usize, expected);
    assert!(
        s.report.retried >= 1 || s.replica_stats[3].admitted == 0,
        "in-flight work at the crash must have rerouted"
    );
    // The crashed replica's KV peak stops moving at the crash: a run cut
    // short right after it (before the next probe tick) reads the same
    // value, while the survivors' peaks went on rising.
    let cut = FabricConfig {
        deadline: SimTime::from_millis(10_050),
        ..FabricConfig::default()
    };
    let at_crash = run_scenario(&scenario, &cut);
    assert_eq!(at_crash.fleet.crashes, 1);
    assert_eq!(s.kv_peaks[3], at_crash.kv_peaks[3]);
    let mut peaks = s.kv_peaks.iter().zip(&at_crash.kv_peaks);
    assert!(peaks.any(|(full, cut)| full > cut));
}

#[test]
fn chaos_churn_accounts_every_request() {
    let seed = 47;
    let expected = expected_requests(0.1, seed);
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
        .build()
        .expect("valid scenario");
    let s = run_scenario(&scenario, &FabricConfig::default());

    // The acceptance bar: completed + failed + in-flight = issued.
    assert_eq!(
        accounted(&s) as usize,
        expected,
        "chaos must not lose or invent requests"
    );
    assert_eq!(s.report.in_flight, 0, "run must still drain under churn");
    assert!(s.fleet.crashes > 0, "chaos must actually bite");
    // Every casualty pairs with a replacement; only joins scheduled
    // after the last client drained can miss the run.
    assert!(
        s.fleet.joins + 2 >= s.fleet.crashes && s.fleet.joins <= s.fleet.crashes,
        "joins {} vs crashes {}",
        s.fleet.joins,
        s.fleet.crashes
    );
    assert!(
        s.report.completed as usize >= expected * 8 / 10,
        "churn with replacements keeps most requests alive ({}/{expected})",
        s.report.completed
    );
}

#[test]
fn drill_and_autoscaler_compose() {
    // A scheduled balancer flap and a reactive autoscaler run merged
    // in one plan.
    let seed = 51;
    let expected = expected_requests(0.1, seed);
    let flap = ScheduledPlan::new(vec![
        FleetCommand::new(SimTime::from_secs(10), FleetEvent::LbDown { lb: 1 }),
        FleetCommand::new(SimTime::from_secs(40), FleetEvent::LbUp { lb: 1 }),
    ]);
    let autoscaler = ThresholdAutoscaler::new(AutoscalerConfig {
        min_per_region: 1,
        max_per_region: 4,
        scale_out_load: 6.0,
        scale_in_load: 0.5,
        cooldown: SimDuration::from_secs(30),
        provision_delay: SimDuration::from_secs(10),
        ..AutoscalerConfig::default()
    });
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(l4_fleet(&[
            (REGIONS[0], 2),
            (REGIONS[1], 2),
            (REGIONS[2], 2),
        ]))
        .clients(workload_clients(Workload::WildChat, 0.1, seed).expect("positive scale"))
        .fleet_plan(Box::new(MergePlan::new(vec![
            Box::new(flap),
            Box::new(autoscaler),
        ])))
        .build()
        .expect("valid scenario");
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert_eq!(accounted(&s) as usize, expected);
    assert_eq!(s.report.in_flight, 0);
}

/// The snapshot's `name` series, one per component, as (label value,
/// value) in snapshot order.
fn listing<'a>(t: &'a TelemetrySummary, name: &str) -> Vec<(&'a str, &'a SampleValue)> {
    let series = t.snapshot.samples.iter().filter(|s| s.name == name);
    series
        .map(|s| match s.labels.as_slice() {
            [(_, label)] => (label.as_str(), &s.value),
            other => panic!("{name} carries labels {other:?}"),
        })
        .collect()
}

/// A telemetry run's final snapshot lists every balancer and every
/// replica the run ever deployed — joined and crashed ones included —
/// under the names a live scrape uses, and its counters add up to the
/// run summary's.
#[test]
fn final_snapshot_lists_every_component_ever_deployed() {
    let seed = 61;
    let scenario = diurnal_day_scenario(DayStrategy::Chaos, seed);
    let cfg = FabricConfig {
        seed,
        ..FabricConfig::default().telemetry(SimDuration::from_secs(10))
    };
    let s = run_scenario(&scenario, &cfg);
    assert!(
        s.fleet.crashes > 0 && s.fleet.joins > 0,
        "the day needs churn"
    );
    let t = s.telemetry.as_ref().expect("telemetry was enabled");

    let mut regions: Vec<String> = REGIONS.iter().map(|r| r.name().to_string()).collect();
    let mut replicas: Vec<String> = (0..s.replica_stats.len()).map(|i| i.to_string()).collect();
    regions.sort();
    replicas.sort();
    let balancer_names = [
        names::LB_RECEIVED_TOTAL,
        names::LB_DISPATCHED_LOCAL_TOTAL,
        names::LB_FORWARDED_TOTAL,
        names::LB_QUEUE_DEPTH,
        names::LB_PEAK_QUEUE,
        names::LB_AVAILABLE_REPLICAS,
    ];
    let replica_names = [
        names::REPLICA_ADMITTED_TOTAL,
        names::REPLICA_COMPLETED_TOTAL,
        names::REPLICA_PROMPT_TOKENS_TOTAL,
        names::REPLICA_CACHED_PROMPT_TOKENS_TOTAL,
        names::REPLICA_GENERATED_TOKENS_TOTAL,
        names::REPLICA_PENDING,
        names::REPLICA_RUNNING,
        names::REPLICA_HIT_RATIO,
        names::KV_UTILIZATION,
    ];
    for (names, expected) in [
        (&balancer_names[..], &regions),
        (&replica_names[..], &replicas),
    ] {
        for name in names {
            let labels: Vec<&str> = listing(t, name).iter().map(|&(l, _)| l).collect();
            assert_eq!(labels, *expected, "{name}: one series per component");
        }
    }

    let total = |name| -> u64 {
        let counters = listing(t, name).into_iter().map(|(_, v)| match v {
            SampleValue::Counter(c) => *c,
            other => panic!("{name} is not a counter: {other:?}"),
        });
        counters.sum()
    };
    let completed: u64 = s.replica_stats.iter().map(|r| r.completed).sum();
    assert_eq!(total(names::REPLICA_COMPLETED_TOTAL), completed);
    assert_eq!(total(names::LB_FORWARDED_TOTAL), s.forwarded);
}

/// A draining replica that goes idle by dropping a head it can never
/// serve retires there and then: a later crash finds it gone and is
/// not counted.
#[test]
fn a_replica_drained_idle_by_a_dropped_head_retires() {
    let region = REGIONS[0];
    // Client 0's long decode (about 57 s) holds the replica busy past
    // the drain; its second stage finds no replica left and keeps the
    // run going until the deadline, past the crash.
    let long = ClientSpec {
        region,
        user: "long".into(),
        programs: vec![Program {
            stages: vec![
                vec![Request::new(0, "long", vec![1; 16], 2_000)],
                vec![Request::new(1, "long", vec![1; 16], 1)],
            ],
        }],
    };
    // Client 1's prompt is larger than the replica's whole KV cache:
    // it waits behind the long decode, and is dropped once it is alone.
    let unservable = ClientSpec {
        region,
        user: "huge".into(),
        programs: vec![Program {
            stages: vec![vec![Request::new(2, "huge", vec![2; 50_000], 1)]],
        }],
    };
    let plan = ScheduledPlan::new(vec![
        FleetCommand::new(
            SimTime::from_secs(5),
            FleetEvent::ReplicaDrain {
                replica: ReplicaId(0),
            },
        ),
        FleetCommand::new(
            SimTime::from_secs(100),
            FleetEvent::ReplicaCrash {
                replica: ReplicaId(0),
            },
        ),
    ]);
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(l4_fleet(&[(region, 1)]))
        .clients(vec![long, unservable])
        .fleet_plan(Box::new(plan))
        .build()
        .expect("valid scenario");
    let cfg = FabricConfig {
        deadline: SimTime::from_secs(120),
        ..FabricConfig::default()
    };
    let s = run_scenario(&scenario, &cfg);
    let r = &s.report;
    assert_eq!((r.completed, r.failed, r.in_flight), (1, 1, 1));
    assert_eq!(
        (s.fleet.drains, s.fleet.crashes),
        (1, 0),
        "the crash found a retired replica"
    );
}
