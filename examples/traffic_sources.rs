//! The open traffic surface: two workloads the paper never measured,
//! plugged into the fabric as streaming [`TrafficSource`]s from outside
//! the workload crate.
//!
//! 1. **RAG shared corpus** — users everywhere query over a small pool
//!    of hot documents. Prefix reuse is cross-user and global, a regime
//!    none of the paper's four workloads covers; prefix-affinity routing
//!    converts it into cache hits, blind routing re-prefills the same
//!    512-token context everywhere.
//! 2. **Flash crowd** — a step-function overload: at t = 30 s a crowd of
//!    clients comes online in one region, all asking about the same
//!    trending topic. Streaming arrivals mean the fabric admits them
//!    mid-run; selective pushing spills the spike cross-region.
//!
//! Run with:
//! ```sh
//! cargo run --release --example traffic_sources
//! ```

use skywalker::net::Region;
use skywalker::replica::GpuProfile;
use skywalker::sim::{SimDuration, SimTime};
use skywalker::{
    balanced_fleet, run_scenario, FabricConfig, FlashCrowdSource, RagCorpusConfig, RagCorpusSource,
    ReplicaPlacement, SystemKind,
};

fn print_row(s: &skywalker::RunSummary) {
    println!(
        "  {:<14} {:>10.0} {:>8.2}s {:>8.2}s {:>7.1}% {:>7}",
        s.label,
        s.report.throughput_tps,
        s.report.ttft.p50,
        s.report.ttft.p90,
        100.0 * s.replica_hit_rate,
        s.forwarded,
    );
}

fn main() {
    let cfg = FabricConfig::default();

    println!("== 1. RAG over a shared document corpus ==");
    println!("   24 documents, 512 tokens each, Zipf-popular, 52 users in 3 regions\n");
    println!(
        "  {:<14} {:>10} {:>9} {:>9} {:>8} {:>7}",
        "system", "tok/s", "TTFT p50", "TTFT p90", "hit%", "fwd"
    );
    let users = vec![
        (Region::UsEast, 20),
        (Region::EuWest, 16),
        (Region::ApNortheast, 16),
    ];
    for system in [
        SystemKind::RoundRobin,
        SystemKind::SglRouter,
        SystemKind::SkyWalker,
    ] {
        let scenario = system
            .builder()
            .replicas(balanced_fleet())
            .traffic_source(Box::new(RagCorpusSource::new(
                RagCorpusConfig::default(),
                users.clone(),
                42,
            )))
            .build()
            .expect("fleet and source are set");
        print_row(&run_scenario(&scenario, &cfg));
    }
    println!("\nHot documents are shared across users and regions: affinity routing");
    println!("keeps each document's queries together and the hit rate shows it.\n");

    println!("== 2. Flash crowd: EU step overload at t = 30s ==");
    println!("   4 steady clients; 60 more join in eu-west over 10 s, one topic\n");
    println!(
        "  {:<14} {:>10} {:>9} {:>9} {:>8} {:>7}",
        "system", "tok/s", "TTFT p50", "TTFT p90", "hit%", "fwd"
    );
    let fleet: Vec<ReplicaPlacement> = [
        (Region::UsEast, 3u32),
        (Region::EuWest, 1),
        (Region::ApNortheast, 2),
    ]
    .iter()
    .flat_map(|&(region, n)| {
        (0..n).map(move |_| ReplicaPlacement {
            region,
            profile: GpuProfile::L4_LLAMA_8B,
        })
    })
    .collect();
    for system in [SystemKind::RegionLocal, SystemKind::SkyWalker] {
        let scenario = system
            .builder()
            .replicas(fleet.clone())
            .traffic_source(Box::new(
                FlashCrowdSource::new(
                    vec![(Region::UsEast, 2), (Region::EuWest, 2)],
                    Region::EuWest,
                    60,
                    SimTime::from_secs(30),
                    42,
                )
                .with_turns((2, 3))
                .with_burst_window(SimDuration::from_secs(10)),
            ))
            .build()
            .expect("fleet and source are set");
        print_row(&run_scenario(&scenario, &cfg));
    }
    println!("\nThe crowd arrives *mid-run* — the fabric pulls it from the source as");
    println!("virtual time advances. Region-local strands the spike on one EU");
    println!("replica; SkyWalker forwards it to idle capacity abroad.");
    println!("\nBoth sources live outside skywalker-workload — the corpus is one");
    println!("ClientGen method under SlotSource, the crowd implements TrafficSource");
    println!("itself — and no enum grew a variant. Recipe: docs/workloads.md");
}
