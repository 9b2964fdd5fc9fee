//! Ablations of SkyWalker's design choices (beyond the paper's figures):
//!
//! 1. **Probe interval** — §4.1 fixes 100 ms as the balance between
//!    responsiveness and probe overhead; sweep it.
//! 2. **Peer queue buffer τ** — Alg. 1 line 12's "small buffer for newly
//!    arriving requests"; sweep it.
//! 3. **Affinity threshold** — the hit-ratio cutoff below which the
//!    prefix-tree policy explores by load (§5.1 discusses <50 %).
//! 4. **Routing trie bound** — what bounded memory costs in hit rate.
//! 5. **Heterogeneous accelerators** — §7's extension: a mixed L4+A100
//!    fleet under SP-P (hardware-agnostic) still balances.

use skywalker::fabric::Deployment;
use skywalker::scenarios::workload_clients;
use skywalker::{
    fig10_scenario, fig9_scenario, run_scenario, FabricConfig, ReplicaPlacement, SystemKind,
    Workload,
};
use skywalker_bench::{f, header, pct, row};
use skywalker_core::{PolicyKind, PushMode, RoutingConstraint};
use skywalker_net::Region;
use skywalker_replica::GpuProfile;
use skywalker_sim::SimDuration;

fn main() {
    probe_interval_sweep();
    tau_sweep();
    threshold_sweep();
    trie_bound_sweep();
    heterogeneous_fleet();
}

fn probe_interval_sweep() {
    println!("# Ablation 1 — selective-pushing probe interval (paper: 100 ms)\n");
    header(&["interval", "tok/s", "TTFT p50", "TTFT p90", "hit rate"]);
    for ms in [20u64, 50, 100, 250, 500] {
        let cfg = FabricConfig {
            probe_interval: SimDuration::from_millis(ms),
            ..FabricConfig::default()
        };
        let s = run_scenario(&fig9_scenario(SystemKind::SkyWalker, 4, 60, 61), &cfg);
        row(&[
            format!("{ms} ms"),
            f(s.report.throughput_tps, 0),
            format!("{:.3}s", s.report.ttft.p50),
            format!("{:.3}s", s.report.ttft.p90),
            pct(s.replica_hit_rate),
        ]);
    }
    println!();
}

fn tau_sweep() {
    println!("# Ablation 2 — peer queue buffer τ (Alg. 1 line 12)\n");
    header(&["tau", "tok/s", "TTFT p90", "forwarded"]);
    for tau in [0u32, 2, 4, 8, 16] {
        let scenario = fig10_scenario(SystemKind::SkyWalker, 6, 0.2, 63).with_deployment(
            Deployment::PerRegion {
                policy: PolicyKind::CacheAware,
                push: PushMode::Pending,
                forward: true,
                tau,
                constraint: RoutingConstraint::Unrestricted,
            },
        );
        let s = run_scenario(&scenario, &FabricConfig::default());
        row(&[
            tau.to_string(),
            f(s.report.throughput_tps, 0),
            format!("{:.2}s", s.report.ttft.p90),
            s.forwarded.to_string(),
        ]);
    }
    println!();
}

fn threshold_sweep() {
    println!("# Ablation 3 — prefix-affinity threshold (paper: explore below 50%)\n");
    header(&[
        "threshold",
        "tok/s",
        "TTFT p90",
        "hit rate",
        "outstanding imbalance",
    ]);
    for threshold in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = FabricConfig {
            affinity_threshold: threshold,
            ..FabricConfig::default()
        };
        let s = run_scenario(&fig9_scenario(SystemKind::SkyWalker, 4, 60, 65), &cfg);
        row(&[
            format!("{threshold:.2}"),
            f(s.report.throughput_tps, 0),
            format!("{:.3}s", s.report.ttft.p90),
            pct(s.replica_hit_rate),
            format!("{:.2}x", s.outstanding_imbalance),
        ]);
    }
    println!("\nA threshold of 0 always chases affinity; 1.0 never does (pure");
    println!("least-load). The paper's 0.5 trades a little affinity for balance.\n");
}

fn trie_bound_sweep() {
    println!("# Ablation 4 — routing-trie memory bound\n");
    header(&["trie bound (tokens)", "tok/s", "hit rate"]);
    for bound in [1usize << 12, 1 << 16, 1 << 20, 1 << 24] {
        let cfg = FabricConfig {
            trie_max_tokens: bound,
            ..FabricConfig::default()
        };
        let s = run_scenario(&fig9_scenario(SystemKind::SkyWalker, 4, 40, 67), &cfg);
        row(&[
            format!("{bound}"),
            f(s.report.throughput_tps, 0),
            pct(s.replica_hit_rate),
        ]);
    }
    println!("\nA starved trie forgets placements and degrades toward least-load");
    println!("routing; beyond the working-set size, more memory buys nothing.\n");
}

fn heterogeneous_fleet() {
    println!("# Ablation 5 — heterogeneous accelerators (§7 extension)\n");
    // Same total fleet slots; one configuration swaps half the L4s for
    // A100-class replicas. SP-P reads only pending queues, so it needs no
    // hardware model.
    let clients = workload_clients(Workload::WildChat, 0.3, 69);
    let uniform: Vec<ReplicaPlacement> = [Region::UsEast, Region::EuWest, Region::ApNortheast]
        .iter()
        .flat_map(|&region| {
            (0..2).map(move |_| ReplicaPlacement {
                region,
                profile: GpuProfile::L4_LLAMA_8B,
            })
        })
        .collect();
    let mixed: Vec<ReplicaPlacement> = [Region::UsEast, Region::EuWest, Region::ApNortheast]
        .iter()
        .flat_map(|&region| {
            [GpuProfile::L4_LLAMA_8B, GpuProfile::A100_LLAMA_8B]
                .into_iter()
                .map(move |profile| ReplicaPlacement { region, profile })
        })
        .collect();

    header(&["fleet", "tok/s", "TTFT p90", "dispatch imbalance"]);
    for (name, fleet) in [("6x L4", uniform), ("3x L4 + 3x A100", mixed)] {
        let scenario = SystemKind::SkyWalker
            .builder()
            .replicas(fleet)
            .clients(clients.clone())
            .build()
            .expect("fleet and clients are both set");
        let s = run_scenario(&scenario, &FabricConfig::default());
        row(&[
            name.to_string(),
            f(s.report.throughput_tps, 0),
            format!("{:.2}s", s.report.ttft.p90),
            format!("{:.2}x", s.dispatch_imbalance),
        ]);
    }
    println!("\nThe mixed fleet's faster replicas drain their batches sooner and");
    println!("absorb proportionally more dispatches — pending-queue signals");
    println!("adapt without any hardware-specific modeling.");
}
