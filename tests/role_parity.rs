//! The tentpole's backward-compatibility pin, asserted at fleet scope:
//! a scenario whose every replica is explicitly [`ReplicaRole::Colocated`]
//! must reproduce the pre-role fabric (`roles: vec![]`) *exactly* — same
//! timeline, same counters, same latency histograms — across 100+ seeded
//! workloads spanning the preset families. The role axis is an addition,
//! not a perturbation: if an explicit colocated fleet drifts by a single
//! microsecond anywhere, the disaggregation machinery has leaked into
//! the classical path.

use skywalker::{
    disagg_scenario, fig8_scenario, memory_pressure_scenario, run_scenario, DisaggWorkload,
    EngineSpec, FabricConfig, ReplicaRole, RunSummary, Scenario, SystemKind, Workload,
};

/// Every observable the run digest carries, flattened to one string.
/// Debug-formatting the integers and bit-exact floats means equality
/// here is equality of the run, not of a rounded view.
fn digest(s: &RunSummary) -> String {
    format!("{:?}", s.digest_fields())
}

/// Race the role-free scenario against its explicitly-colocated twin.
fn assert_role_parity(tag: &str, seed: u64, build: impl Fn(u64) -> Scenario) {
    let cfg = FabricConfig {
        seed,
        ..FabricConfig::default()
    };
    let bare = build(seed);
    assert!(
        bare.roles.is_empty(),
        "{tag}/seed {seed}: parity baseline must be the pre-role scenario"
    );
    let mut explicit = build(seed);
    explicit.roles = vec![ReplicaRole::Colocated; explicit.replicas.len()];

    let a = digest(&run_scenario(&bare, &cfg));
    let b = digest(&run_scenario(&explicit, &cfg));
    assert_eq!(
        a, b,
        "{tag}/seed {seed}: explicit Colocated roles diverged from the role-free fabric"
    );
}

/// 104 seeded workloads: the fig8 preset over all four paper workloads
/// and both routing extremes, the memory-pressure engine preset, and
/// the disagg preset's colocated arm (the one whose byte-identity the
/// tentpole promises).
#[test]
fn explicit_colocated_roles_match_the_pre_role_fabric() {
    for seed in 0..48 {
        let workload = Workload::ALL[(seed % 4) as usize];
        let system = if seed % 2 == 0 {
            SystemKind::SkyWalker
        } else {
            SystemKind::RoundRobin
        };
        assert_role_parity("fig8", seed, |s| fig8_scenario(system, workload, 0.02, s));
    }
    for seed in 0..24 {
        assert_role_parity("memory_pressure", seed, |s| {
            memory_pressure_scenario(EngineSpec::default(), 0.25, s)
        });
    }
    for seed in 0..32 {
        let workload = DisaggWorkload::ALL[(seed % 2) as usize];
        assert_role_parity("disagg-colo", seed, |s| {
            disagg_scenario(workload, false, 0.5, s)
        });
    }
}
