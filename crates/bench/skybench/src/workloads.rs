//! The four simulated workloads, built from `--seed` and nothing else.
//! (`live_loopback` generates its requests in `live.rs`.) The seed feeds
//! both the traffic source and `FabricConfig::seed`; every workload
//! deploys `SystemKind::SkyWalker`. Why each one exists is in
//! `spec::WORKLOADS` and the README.

use skywalker::replica::GpuProfile;
use skywalker::sim::SimDuration;
use skywalker::trace::TraceConfig;
use skywalker::{
    fig10_diurnal_scenario, l4_fleet, FabricConfig, RagCorpusConfig, RagCorpusSource,
    ReplicaPlacement, Scenario, SystemKind, Workload, L4_LITE, L4_PRESSURE, REGIONS,
};
use skywalker_workload::{ArrivalSchedule, LengthModel};

/// One simulated workload, ready to run any number of times.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub name: &'static str,
    pub scenario: Scenario,
    pub cfg: FabricConfig,
    /// The fleet's replica profile, for the standalone replay loops.
    pub profile: GpuProfile,
}

/// Builds the named workload, or `None` if it is not a simulated one.
pub fn build(name: &'static str, seed: u64) -> Option<SimWorkload> {
    let plain = FabricConfig {
        seed,
        ..FabricConfig::default()
    };
    let (scenario, cfg, profile) = match name {
        "diurnal_day" => (diurnal(seed), plain, L4_LITE),
        "diurnal_observed" => (diurnal(seed), observed(plain), L4_LITE),
        "tot_tree" => (tot_tree(seed), plain, GpuProfile::L4_LLAMA_8B),
        "kv_pressure" => (kv_pressure(seed), plain, L4_PRESSURE),
        _ => return None,
    };
    Some(SimWorkload {
        name,
        scenario,
        cfg,
        profile,
    })
}

/// 15.9 k clients on an open diurnal schedule, ~70 k requests, 24
/// `L4_LITE` replicas over 3 regions: loaded but healthy, a fifth of the
/// requests forwarded.
fn diurnal(seed: u64) -> Scenario {
    fig10_diurnal_scenario(
        SystemKind::SkyWalker,
        8,
        SimDuration::from_secs(2_400),
        0.1,
        seed,
    )
}

/// Both observers on. The day records ~1.4 M span events, two thirds of
/// the default trace capacity; the buffer is raised (it grows lazily, so
/// the headroom costs nothing) so that a heavier seed still drops none,
/// which every run checks.
fn observed(plain: FabricConfig) -> FabricConfig {
    FabricConfig {
        trace: Some(TraceConfig::with_capacity(1 << 23)),
        ..plain.telemetry(SimDuration::from_secs(1))
    }
}

/// 1 280 closed-loop clients, 38.4 k requests, 192 `L4_LLAMA_8B`
/// replicas: a large candidate set and long shared prefixes.
fn tot_tree(seed: u64) -> Scenario {
    SystemKind::SkyWalker
        .builder()
        .replicas(l4_fleet(&[
            (REGIONS[0], 64),
            (REGIONS[1], 64),
            (REGIONS[2], 64),
        ]))
        .workload(Workload::Tot, 16.0, seed)
        .build()
        .expect("tot_tree sets a fleet and a workload")
}

/// 20 000 users arriving as a Poisson process, ~110 k RAG requests over
/// a 64-document corpus whose working set is 8x one `L4_PRESSURE`
/// replica's KV cache; query and answer lengths are those of
/// `memory_pressure_scenario`.
fn kv_pressure(seed: u64) -> Scenario {
    let region = REGIONS[0];
    let corpus = RagCorpusConfig {
        corpus_docs: 64,
        doc_tokens: 256,
        doc_zipf: 1.2,
        query_tokens: LengthModel {
            mu: 3.0,
            sigma: 0.6,
            min: 4,
            max: 64,
        },
        answer_tokens: LengthModel {
            mu: 4.0,
            sigma: 0.6,
            min: 8,
            max: 160,
        },
        queries_per_user: (3, 8),
    };
    let source = RagCorpusSource::new(corpus, vec![(region, 20_000)], seed).with_schedule(
        ArrivalSchedule::Poisson {
            mean_gap: SimDuration::from_millis(300),
        },
    );
    SystemKind::SkyWalker
        .builder()
        .replicas(vec![
            ReplicaPlacement {
                region,
                profile: L4_PRESSURE,
            };
            8
        ])
        .traffic_source(Box::new(source))
        .label("kv-pressure")
        .build()
        .expect("kv_pressure sets a fleet and traffic")
}
