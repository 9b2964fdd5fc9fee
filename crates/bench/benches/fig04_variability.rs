//! Figure 4: why LLM load is unpredictable.
//!
//! (a) CDFs of input and output token lengths (WildChat-style): heavy
//!     tails in both; output length is unknowable a priori.
//! (b) Round-robin routing over two replicas produces big memory
//!     imbalance — the paper measures a 2.64× peak KV-utilization gap —
//!     because equal request *counts* are nothing like equal token
//!     *footprints*.

use skywalker::{run_scenario, FabricConfig, ReplicaPlacement, SystemKind};
use skywalker_bench::{f, header, pct, ratio, row};
use skywalker_net::Region;
use skywalker_replica::GpuProfile;
use skywalker_sim::DetRng;
use skywalker_workload::{
    empirical_cdf, generate_conversation_clients, ConversationConfig, IdGen, LengthModel,
};

fn main() {
    println!("# Fig. 4a — CDF of request lengths (WildChat-style)\n");
    let mut rng = DetRng::new(4);
    let inputs: Vec<u32> = (0..40_000)
        .map(|_| LengthModel::WILDCHAT_INPUT.sample(&mut rng))
        .collect();
    let outputs: Vec<u32> = (0..40_000)
        .map(|_| LengthModel::WILDCHAT_OUTPUT.sample(&mut rng))
        .collect();
    let probes = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 10240];
    header(&["length (tokens)", "input CDF", "output CDF"]);
    let ic = empirical_cdf(&inputs, &probes);
    let oc = empirical_cdf(&outputs, &probes);
    for ((l, i), (_, o)) in ic.iter().zip(&oc) {
        row(&[l.to_string(), pct(*i), pct(*o)]);
    }
    let spread = |s: &[u32]| {
        let mut v = s.to_vec();
        v.sort_unstable();
        (v[v.len() / 2], v[(v.len() * 99) / 100])
    };
    let (p50i, p99i) = spread(&inputs);
    let (p50o, p99o) = spread(&outputs);
    println!("\ninput  p50 {p50i}, p99 {p99i} — output p50 {p50o}, p99 {p99o}");

    println!("\n# Fig. 4b — Round-robin memory imbalance across 2 replicas\n");
    // Two replicas, conversation traffic through a round-robin balancer.
    let mut ids = IdGen::new();
    let clients = generate_conversation_clients(
        &ConversationConfig::wildchat(),
        &[(Region::UsEast, 24)],
        4,
        &mut ids,
    );
    let scenario = SystemKind::RoundRobin
        .builder()
        .replicas(vec![
            ReplicaPlacement {
                region: Region::UsEast,
                profile: GpuProfile::L4_LLAMA_8B,
            };
            2
        ])
        .clients(clients)
        .build()
        .expect("fleet and clients are both set");
    let s = run_scenario(&scenario, &FabricConfig::default());

    header(&["replica", "peak KV util", "mean KV util"]);
    for series in &s.kv_series {
        row(&[
            series.name().to_string(),
            pct(series.peak()),
            pct(series.time_weighted_mean()),
        ]);
    }
    println!();
    header(&["metric", "measured", "paper"]);
    row(&[
        "peak memory gap (max/min)".into(),
        ratio(s.kv_peak_gap),
        "2.64x".into(),
    ]);
    row(&[
        "requests per replica (RR)".into(),
        s.replica_stats
            .iter()
            .map(|r| r.completed.to_string())
            .collect::<Vec<_>>()
            .join(" vs "),
        "equal by construction".into(),
    ]);
    row(&[
        "throughput".into(),
        format!("{} tok/s", f(s.report.throughput_tps, 0)),
        "-".into(),
    ]);
    println!("\nEqual request counts, unequal token footprints: the blind RR");
    println!("balancer cannot see (or predict) decode lengths.");
}
