//! Regulatory routing constraints through the full fabric (§4.1, §7):
//! GDPR-constrained deployments must keep EU traffic in the EU even when
//! EU capacity is saturated, and continent-local constraints must
//! reproduce Bedrock's missed aggregation opportunity.

use skywalker::core::{PolicyKind, PushMode, RoutingConstraint};
use skywalker::fabric::Deployment;
use skywalker::net::Region;
use skywalker::replica::GpuProfile;
use skywalker::workload::{ConversationConfig, ConversationSource};
use skywalker::{run_scenario, FabricConfig, ReplicaPlacement, Scenario, SystemKind};

fn eu_heavy_scenario(constraint: RoutingConstraint, seed: u64) -> Scenario {
    // Saturated EU (1 replica, many clients), idle US (3 replicas).
    let fleet = vec![
        ReplicaPlacement {
            region: Region::EuWest,
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
            region: Region::UsEast,
            profile: GpuProfile::L4_LLAMA_8B,
        },
    ];
    let clients = ConversationSource::new(
        ConversationConfig::wildchat(),
        vec![(Region::EuWest, 20)],
        seed,
    );
    SystemKind::SkyWalker
        .builder()
        .replicas(fleet)
        .traffic_source(Box::new(clients))
        .deployment(Deployment::PerRegion {
            policy: PolicyKind::CacheAware,
            push: PushMode::Pending,
            forward: true,
            tau: 4,
            constraint,
        })
        .build()
        .expect("fleet and clients are both set")
}

#[test]
fn unrestricted_eu_overload_offloads_to_us() {
    let s = run_scenario(
        &eu_heavy_scenario(RoutingConstraint::Unrestricted, 41),
        &FabricConfig::default(),
    );
    assert!(s.forwarded > 0, "overloaded EU must offload");
    // US replicas actually served work.
    let us_work: u64 = s.replica_stats[1..].iter().map(|r| r.completed).sum();
    assert!(us_work > 0);
}

#[test]
fn gdpr_keeps_eu_traffic_in_eu_even_under_overload() {
    let s = run_scenario(
        &eu_heavy_scenario(RoutingConstraint::GdprEu, 43),
        &FabricConfig::default(),
    );
    assert_eq!(s.forwarded, 0, "EU traffic must not leave the EU");
    let us_work: u64 = s.replica_stats[1..].iter().map(|r| r.completed).sum();
    assert_eq!(us_work, 0, "US replicas must stay untouched");
    // And the system still completes everything, just slower.
    assert_eq!(s.report.in_flight, 0);
    assert_eq!(s.report.failed, 0);
}

#[test]
fn continent_local_blocks_intercontinental_offload() {
    let s = run_scenario(
        &eu_heavy_scenario(RoutingConstraint::ContinentLocal, 47),
        &FabricConfig::default(),
    );
    assert_eq!(s.forwarded, 0, "EU→US crosses continents: forbidden");
}

#[test]
fn constrained_run_is_slower_than_unrestricted() {
    let free = run_scenario(
        &eu_heavy_scenario(RoutingConstraint::Unrestricted, 53),
        &FabricConfig::default(),
    );
    let locked = run_scenario(
        &eu_heavy_scenario(RoutingConstraint::GdprEu, 53),
        &FabricConfig::default(),
    );
    assert!(
        locked.end_time >= free.end_time,
        "giving up cross-region capacity cannot speed the run up"
    );
    assert!(
        locked.report.throughput_tps <= free.report.throughput_tps,
        "throughput must not improve under the constraint: {:.0} vs {:.0}",
        locked.report.throughput_tps,
        free.report.throughput_tps
    );
}
