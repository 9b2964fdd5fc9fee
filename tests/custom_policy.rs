//! End-to-end proof of the open policy surface: `P2cLocal` — a policy
//! that exists only in the facade crate, outside the core enum-free
//! policy module — runs through `ScenarioBuilder` and the full fabric
//! with no `SystemKind` involved, and behaves as designed.

use skywalker::core::RoutingConstraint;
use skywalker::net::Region;
use skywalker::replica::GpuProfile;
use skywalker::workload::{ConversationConfig, ConversationSource};
use skywalker::{
    fig8_scenario, run_scenario, FabricConfig, P2cLocalFactory, ReplicaPlacement, Scenario,
    SystemKind, Workload,
};

fn p2c_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .deployment(SystemKind::SkyWalker.deployment())
        .policy_factory(P2cLocalFactory::new(seed))
        .replicas(skywalker::balanced_fleet())
        .workload(Workload::Arena, 0.05, seed)
        .build()
        .expect("fleet and workload are set")
}

#[test]
fn custom_policy_runs_without_any_system_kind() {
    let scenario = p2c_scenario(3);
    // The scenario was assembled from deployment + factory alone: no
    // preset is involved, and the label comes from the factory.
    assert_eq!(scenario.system, None);
    assert_eq!(scenario.label, "P2C-Local");

    let expected: usize = scenario
        .clients_until(skywalker::sim::SimTime::ZERO)
        .iter()
        .map(|c| c.total_requests())
        .sum();
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert_eq!(
        (s.report.completed + s.report.in_flight + s.report.failed) as usize,
        expected,
        "requests lost or duplicated under the custom policy"
    );
    assert_eq!(s.report.failed, 0);
    assert_eq!(s.report.in_flight, 0);
    assert_eq!(s.label, "P2C-Local");
}

#[test]
fn custom_policy_is_deterministic_given_seed() {
    let a = run_scenario(&p2c_scenario(11), &FabricConfig::default());
    let b = run_scenario(&p2c_scenario(11), &FabricConfig::default());
    assert_eq!(a.report.completed, b.report.completed);
    assert_eq!(a.report.generated_tokens, b.report.generated_tokens);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.forwarded, b.forwarded);
}

#[test]
fn p2c_spill_prefers_the_same_continent() {
    // A saturated EuWest region with idle capacity both in EuCentral and
    // UsEast: P2C's locality weight must route the spill preferentially
    // to the same-continent peer.
    let fleet = vec![
        ReplicaPlacement {
            region: Region::EuWest,
            profile: GpuProfile::L4_LLAMA_8B,
        },
        ReplicaPlacement {
            region: Region::EuCentral,
            profile: GpuProfile::L4_LLAMA_8B,
        },
        ReplicaPlacement {
            region: Region::EuCentral,
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
        41,
    );
    let scenario = Scenario::builder()
        .deployment(SystemKind::SkyWalker.deployment())
        .policy_factory(P2cLocalFactory::new(41))
        .replicas(fleet)
        .traffic_source(Box::new(clients))
        .build()
        .expect("fleet and clients are set");
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert!(s.forwarded > 0, "overloaded EuWest must spill");
    // replica_stats is in fleet order: [EuWest, EuCentral×2, UsEast×2].
    let eu_central: u64 = s.replica_stats[1..3].iter().map(|r| r.completed).sum();
    let us_east: u64 = s.replica_stats[3..5].iter().map(|r| r.completed).sum();
    assert!(
        eu_central >= us_east,
        "locality weight must favor the same continent ({eu_central} EU vs {us_east} US)"
    );
}

#[test]
fn builder_constraint_composes_with_custom_policy() {
    // GDPR pinning applies at the balancer layer regardless of which
    // policy runs above it: an EU-constrained P2C deployment must not
    // leave the EU even with idle US capacity.
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
    ];
    let clients = ConversationSource::new(
        ConversationConfig::wildchat(),
        vec![(Region::EuWest, 12)],
        43,
    );
    let scenario = Scenario::builder()
        .deployment(SystemKind::SkyWalker.deployment())
        .policy_factory(P2cLocalFactory::new(43))
        .constraint(RoutingConstraint::GdprEu)
        .replicas(fleet)
        .traffic_source(Box::new(clients))
        .build()
        .expect("fleet and clients are set");
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert_eq!(s.forwarded, 0, "EU traffic must not leave the EU");
    let us_work: u64 = s.replica_stats[1..].iter().map(|r| r.completed).sum();
    assert_eq!(us_work, 0, "US replicas must stay untouched");
    assert_eq!(s.report.in_flight, 0);
    assert_eq!(s.report.failed, 0);
}

#[test]
fn presets_are_thin_wrappers_over_the_builder() {
    // fig8_scenario and the explicit builder chain must assemble the
    // same scenario.
    let via_preset = fig8_scenario(SystemKind::SkyWalkerCh, Workload::Tot, 0.1, 9);
    let via_builder = SystemKind::SkyWalkerCh
        .builder()
        .fig8_fleet(Workload::Tot)
        .workload(Workload::Tot, 0.1, 9)
        .build()
        .expect("fleet and workload are set");
    assert_eq!(via_preset.label, via_builder.label);
    assert_eq!(via_preset.system, via_builder.system);
    assert_eq!(via_preset.deployment, via_builder.deployment);
    assert_eq!(via_preset.replicas.len(), via_builder.replicas.len());
    assert_eq!(
        via_preset
            .clients_until(skywalker::sim::SimTime::ZERO)
            .len(),
        via_builder
            .clients_until(skywalker::sim::SimTime::ZERO)
            .len()
    );
    // And running both yields identical timelines.
    let a = run_scenario(&via_preset, &FabricConfig::default());
    let b = run_scenario(&via_builder, &FabricConfig::default());
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.report.completed, b.report.completed);
}

#[test]
fn centralized_fleet_keeps_true_replica_regions() {
    // A single centralized balancer in the US fronting a US+EU fleet:
    // candidates must carry each replica's *actual* region, so the
    // locality-weighted policy still prefers the US replica for the
    // US-homed balancer even though both are "local" to it structurally.
    use skywalker::core::{PolicyKind, PushMode};
    use skywalker::Deployment;

    let fleet = vec![
        ReplicaPlacement {
            region: Region::UsEast,
            profile: GpuProfile::L4_LLAMA_8B,
        },
        ReplicaPlacement {
            region: Region::EuWest,
            profile: GpuProfile::L4_LLAMA_8B,
        },
    ];
    let clients = ConversationSource::new(
        ConversationConfig::wildchat(),
        vec![(Region::UsEast, 8)],
        45,
    );
    let scenario = Scenario::builder()
        .deployment(Deployment::Centralized {
            lb_region: Region::UsEast,
            policy: PolicyKind::LeastLoad, // overridden by the factory
            push: PushMode::Blind,
        })
        .policy_factory(P2cLocalFactory {
            seed: 45,
            locality_penalty: 64,
        })
        .replicas(fleet)
        .traffic_source(Box::new(clients))
        .build()
        .expect("fleet and clients are set");
    let s = run_scenario(&scenario, &FabricConfig::default());
    assert_eq!(s.report.failed, 0);
    // Every P2C sample pairs the two replicas; with a penalty far above
    // blind-pushing load gaps, the US replica must dominate.
    let us_work = s.replica_stats[0].completed;
    let eu_work = s.replica_stats[1].completed;
    assert!(
        us_work > eu_work,
        "centralized fleet must expose true regions to the policy \
         ({us_work} US vs {eu_work} EU)"
    );
}

#[test]
fn fabric_balance_threshold_reaches_the_policy() {
    // The once-hardcoded cache-aware balance override is now plumbed
    // from FabricConfig down to the policy: an absurdly tight override
    // turns the prefix-tree system into a de-facto least-load router
    // whose replica hit rate collapses relative to the default.
    let scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Tot, 0.08, 13);
    let default_cfg = FabricConfig::default();
    let mut tight_cfg = FabricConfig::default();
    tight_cfg.policy.balance_abs_threshold = 0;
    let with_affinity = run_scenario(&scenario, &default_cfg);
    let without = run_scenario(&scenario, &tight_cfg);
    assert!(
        with_affinity.replica_hit_rate > without.replica_hit_rate,
        "tightening the balance override must visibly cost prefix reuse \
         ({:.3} vs {:.3})",
        with_affinity.replica_hit_rate,
        without.replica_hit_rate
    );
}
