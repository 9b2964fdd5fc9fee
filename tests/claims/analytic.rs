//! The non-simulated half of `tests/paper_claims.rs`: Figs. 2, 3, 4a, 5
//! and 6 measured by calling the workload generators, the cost model and
//! `PrefixCache` directly — no fabric run, no seed list — plus the
//! Fig. 4b cell, whose hand-built client list does not fit a preset.
//! Every number here is a pure function of the constants in this file.

use skywalker::core::{hash_key, HashRing};
use skywalker::cost::{compare_costs, replicas_for_rate, DemandMatrix, Pricing};
use skywalker::metrics::Summary;
use skywalker::net::Region;
use skywalker::replica::{output_token, KvConfig, PrefixCache};
use skywalker::sim::DetRng;
use skywalker::workload::{
    aggregate_hourly, drain, fig2_countries, fig3_regions, grouped_similarity, similarity_matrix,
    variance_ratio, ClientSpec, ConversationConfig, ConversationSource, LengthModel,
};
use skywalker::{l4_fleet, Scenario, SystemKind};

/// Fig. 2: `[tallest national peak, shortest national peak]` in
/// requests/hour, then how many of the six countries peak between 12:00
/// and 18:00 local time.
pub fn fig2() -> [f64; 3] {
    let mut peaks = Vec::new();
    let mut afternoon = 0;
    for country in fig2_countries() {
        let counts = country.hourly_counts();
        let peak_utc = (0..24).max_by(|&a, &b| counts[a].total_cmp(&counts[b]));
        let peak_utc = peak_utc.expect("24 hours");
        let local = (peak_utc as i32 + country.utc_offset_hours).rem_euclid(24);
        afternoon += u32::from((12..18).contains(&local));
        peaks.push(counts[peak_utc]);
    }
    let peaks = Summary::of(&peaks);
    [peaks.max, peaks.min, f64::from(afternoon)]
}

/// Fig. 3a: peak/trough swing of the calmest region, the wildest region
/// and the five-region aggregate; Fig. 3b: saving of aggregated over
/// region-local reserved provisioning (%), and perfect on-demand
/// autoscaling as a multiple of the aggregated reserved cost.
pub fn fig3() -> [f64; 5] {
    let profiles: Vec<_> = fig3_regions().into_iter().map(|(_, p)| p).collect();
    let swings: Vec<f64> = profiles.iter().map(|p| p.variance_ratio()).collect();
    let swings = Summary::of(&swings);
    // ~400 requests/hour per replica keeps quantization fine-grained
    // relative to the demand curve (coarser grids understate the savings).
    let demand = DemandMatrix::new(
        profiles
            .iter()
            .map(|p| replicas_for_rate(&p.hourly_counts(), 400.0, 1))
            .collect(),
        1.0,
    )
    .expect("well-formed demand");
    let cost = compare_costs(&demand, Pricing::P5_48XLARGE);
    [
        swings.min,
        swings.max,
        variance_ratio(&aggregate_hourly(&profiles)),
        100.0 * cost.aggregation_savings(),
        cost.on_demand_multiple(),
    ]
}

/// Fig. 4a: p99/p50 of the input and of the output length distribution,
/// whichever is smaller.
pub fn fig4a() -> f64 {
    let mut rng = DetRng::new(4);
    let mut tail = |model: LengthModel| {
        let mut v: Vec<u32> = (0..40_000).map(|_| model.sample(&mut rng)).collect();
        v.sort_unstable();
        f64::from(v[v.len() * 99 / 100]) / f64::from(v[v.len() / 2])
    };
    let input = tail(LengthModel::WILDCHAT_INPUT);
    let output = tail(LengthModel::WILDCHAT_OUTPUT);
    input.min(output)
}

/// Fig. 4b: WildChat conversations through a round-robin balancer over
/// two replicas — equal request counts, unequal token footprints. Twelve
/// clients keep both replicas' peak KV utilization below the 100 % clip
/// (at 24 both saturate and the gap reads exactly 1.00×).
pub fn fig4b_scenario(seed: u64) -> Scenario {
    let users = [(Region::UsEast, 12)];
    let clients = conversations(ConversationConfig::wildchat(), &users, seed);
    let fleet = SystemKind::RoundRobin
        .builder()
        .replicas(l4_fleet(&[(Region::UsEast, 2)]));
    fleet.clients(clients).build().expect("fleet and clients")
}

fn conversations(cfg: ConversationConfig, users: &[(Region, u32)], seed: u64) -> Vec<ClientSpec> {
    drain(&mut ConversationSource::new(cfg, users.to_vec(), seed))
}

fn prompts_by_user(clients: &[ClientSpec]) -> Vec<Vec<Vec<u32>>> {
    clients
        .iter()
        .map(|c| {
            c.programs
                .iter()
                .flat_map(|p| p.requests())
                .map(|r| r.prompt.to_vec())
                .collect()
        })
        .collect()
}

/// Fig. 5a: mean prefix similarity (%), `(within, across)` a group, for
/// Arena by user, WildChat by user and WildChat by region; Fig. 5b:
/// within-user ÷ across-user mean of the 100-user similarity matrix.
pub fn fig5() -> ([(f64, f64); 3], f64) {
    let pct = |(within, across): (f64, f64)| (100.0 * within, 100.0 * across);
    let arena = conversations(ConversationConfig::arena(), &[(Region::UsEast, 40)], 5);
    let regions = [Region::UsEast, Region::EuWest, Region::ApNortheast];
    let wildchat = conversations(ConversationConfig::wildchat(), &regions.map(|r| (r, 20)), 6);
    let by_user = prompts_by_user(&wildchat);
    let by_region: Vec<Vec<Vec<u32>>> = regions
        .iter()
        .map(|region| {
            wildchat
                .iter()
                .zip(&by_user)
                .filter(|(c, _)| c.region == *region)
                .flat_map(|(_, prompts)| prompts.iter().cloned())
                .collect()
        })
        .collect();
    let fig5a = [
        pct(grouped_similarity(&prompts_by_user(&arena))),
        pct(grouped_similarity(&by_user)),
        pct(grouped_similarity(&by_region)),
    ];

    let users = [34, 33, 33];
    let hundred: Vec<(Region, u32)> = regions.into_iter().zip(users).collect();
    let hundred = conversations(ConversationConfig::wildchat(), &hundred, 7);
    let m = similarity_matrix(&prompts_by_user(&hundred));
    let n = m.len() as f64;
    let diagonal: f64 = (0..m.len()).map(|i| m[i][i]).sum();
    let off: f64 = m.iter().flatten().sum::<f64>() - diagonal;
    (fig5a, (diagonal / n) / (off / (n * (n - 1.0))))
}

// ---- Fig. 6: consistent hashing vs an optimal router (§3.2) ----------

const FIG6_REPLICAS: usize = 4;

/// A request stream as `(ring key, prompt)`.
type Fig6Trace = Vec<(String, Vec<u32>)>;

/// Token hit rate of four prefix caches serving `trace`, each request
/// placed by `route` and completed at once.
fn fig6_hit_rate(
    trace: &Fig6Trace,
    capacity_tokens: u64,
    mut route: impl FnMut(&[PrefixCache], &str, &[u32]) -> usize,
) -> f64 {
    let kv = KvConfig {
        capacity_tokens,
        block_tokens: 16,
    };
    let mut caches: Vec<PrefixCache> = (0..FIG6_REPLICAS).map(|_| PrefixCache::new(kv)).collect();
    let (mut prompt_tokens, mut cached_tokens) = (0, 0);
    for (key, prompt) in trace {
        let replica = route(&caches, key, prompt);
        prompt_tokens += prompt.len() as u64;
        if let Ok((lease, cached)) = caches[replica].acquire(prompt) {
            cached_tokens += cached;
            caches[replica].release(lease);
        }
    }
    cached_tokens as f64 / prompt_tokens.max(1) as f64
}

/// CH hit rate minus optimal hit rate, in percentage points. "Optimal"
/// is the paper's oracle: a greedy router with a global view, sending
/// each prompt to the cache that matches it best (emptiest on ties).
fn ch_gap_pp(trace: &Fig6Trace, capacity_tokens: u64) -> f64 {
    let mut ring: HashRing<u32> = HashRing::new(64);
    for r in 0..FIG6_REPLICAS as u32 {
        ring.add(r);
    }
    let ch = fig6_hit_rate(trace, capacity_tokens, |_, key, _| {
        let replica = ring.lookup(hash_key(key), |_| true);
        replica.expect("ring is populated") as usize
    });
    let optimal = fig6_hit_rate(trace, capacity_tokens, |caches, _, prompt| {
        let emptiest = |i: usize| std::cmp::Reverse(caches[i].used_tokens());
        let best =
            (0..FIG6_REPLICAS).max_by_key(|&i| (caches[i].matched_tokens(prompt), emptiest(i)));
        best.expect("non-empty fleet")
    });
    100.0 * (ch - optimal)
}

/// `len` tokens of synthetic text, distinct per `label`.
fn fragment(label: u64, len: u32) -> Vec<u32> {
    (0..len).map(|k| output_token(label, k)).collect()
}

/// 48 users in 6 cohorts, each cohort sharing one 800-token template.
/// CH scatters a cohort over the fleet, so every replica pays the
/// template's cold prefill once per cohort it sees.
fn cross_user_sharing() -> Fig6Trace {
    let mut reqs = Vec::new();
    for u in 0..48u64 {
        let mut prompt = fragment(0xC0C0 ^ (u % 6), 800);
        prompt.extend(fragment(0xFACE ^ u, 40));
        for turn in 0..2u64 {
            let mut p = prompt.clone();
            p.extend(fragment(u * 100 + turn, 40));
            reqs.push((format!("user-{u}"), p));
        }
    }
    reqs
}

/// Every fourth user bursts 6 concurrent same-prefix requests, which
/// CH-with-replica-set spreads over 2 replicas to avoid overload
/// (alternating ring keys within the burst); steady users keep one key.
fn bursty() -> Fig6Trace {
    let mut reqs = Vec::new();
    for u in 0..24u64 {
        let base = fragment(0xB0B0 ^ u, 500);
        let bursting = u % 4 == 0;
        for b in 0..if bursting { 6 } else { 2 } {
            let mut p = base.clone();
            p.extend(fragment(u * 1000 + b, 80));
            let key = if bursting {
                format!("user-{u}/{}", b % 2)
            } else {
                format!("user-{u}")
            };
            reqs.push((key, p));
        }
    }
    reqs
}

/// Four of twelve user keys carry eight unrelated long patterns (agent
/// programs running several pipelines under one id); hashing the key
/// piles them onto one replica, where they evict each other.
fn heterogeneous() -> Fig6Trace {
    let mut reqs = Vec::new();
    for u in 0..12u64 {
        for pattern in 0..if u < 4 { 8 } else { 2 } {
            let base = fragment(0x8E7E ^ (u * 10 + pattern), 1_100);
            for turn in 0..4u64 {
                let mut p = base.clone();
                p.extend(fragment(u * 999 + pattern * 7 + turn, 40));
                reqs.push((format!("user-{u}"), p));
            }
        }
    }
    reqs
}

/// Fig. 6: consistent-hashing minus optimal hit rate (pp) for cross-user
/// sharing, bursty requests and heterogeneous programs.
pub fn fig6() -> [f64; 3] {
    let traces = [
        (cross_user_sharing(), 200_000),
        (bursty(), 200_000),
        (heterogeneous(), 24_000),
    ];
    // One stream shuffles all three arrival orders, in this order.
    let mut rng = DetRng::new(6);
    traces.map(|(mut trace, capacity_tokens)| {
        rng.shuffle(&mut trace);
        ch_gap_pp(&trace, capacity_tokens)
    })
}
