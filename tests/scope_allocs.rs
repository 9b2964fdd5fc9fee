//! Allocations a request, charged to the scope that makes them — pinned
//! on one small seeded run, and refereed by an allocator, not by
//! anything the product code reports about itself.
//!
//! The fabric tags each handled event with its arm, and the trees tag
//! `RouteTrie::insert`, `PrefixCache::acquire` and
//! `PrefixCache::complete` (`skywalker_sim::Scope`); the counting
//! allocator charges every allocation to the tag current when it is
//! made. Under a seed the counts are exact, so they are pinned here the
//! way `delivered_events_are_pinned` pins events: a change that moves
//! one changes what the simulator allocates per request, and has to say
//! so — and in which arm.
//!
//! The same run is pinned a second time with 1 s telemetry on, so an
//! observer that allocates per request shows in its arm too.
//!
//! One `#[test]` only: the counters are process-wide.

use std::sync::atomic::Ordering::Relaxed;

use skywalker::sim::{Scope, SimDuration};
use skywalker::{fig8_scenario, run_scenario, FabricConfig, Scenario, SystemKind, Workload};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{ALLOCS, BY_SCOPE};

fn by_scope() -> [usize; Scope::ALL.len()] {
    std::array::from_fn(|i| BY_SCOPE[i].load(Relaxed))
}

/// Runs the scenario under `cfg` and returns the run's allocations by
/// scope, leaving out scopes that made none.
fn allocations_by_scope(scenario: &Scenario, cfg: &FabricConfig) -> Vec<(Scope, usize)> {
    let (total_before, before) = (ALLOCS.load(Relaxed), by_scope());
    let summary = run_scenario(scenario, cfg);
    let (total, after) = (ALLOCS.load(Relaxed) - total_before, by_scope());
    let requests = summary.report.completed;

    let mut seen = Vec::new();
    for (scope, (a, b)) in Scope::ALL.iter().zip(after.iter().zip(before)) {
        let n = a - b;
        println!(
            "{scope:?}: {n} allocations, {:.3} a request",
            n as f64 / requests as f64
        );
        if n > 0 {
            seen.push((*scope, n));
        }
    }
    assert_eq!(
        seen.iter().map(|(_, n)| n).sum::<usize>(),
        total,
        "every allocation is charged to one scope"
    );
    assert_eq!(requests, 328);
    seen
}

#[test]
fn allocations_a_request_are_pinned_per_scope() {
    // The run `delivered_events_are_pinned` reads: 328 requests.
    let scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Arena, 0.08, 11);
    let plain = allocations_by_scope(&scenario, &FabricConfig::default());
    assert_eq!(plain, PINNED, "allocations of the run, by scope");
    let cfg = FabricConfig::default().telemetry(SimDuration::from_secs(1));
    let observed = allocations_by_scope(&scenario, &cfg);
    assert_eq!(
        observed, PINNED_TELEMETRY,
        "allocations of the run with telemetry on, by scope"
    );
}

/// The allocations of the run, by scope; scopes that made none are left
/// out. `Outside` is the fabric's set-up and the report. Per request,
/// route trie inserts make 1.48, cache acquires 1.40, and a replica's
/// steps 1.22, of them one exact buffer per retired request, which the
/// cache keeps as the output's leaf. `IssueStage` is the request table
/// growing — a request in flight is one entry, its lifecycle record
/// included — and `DeliverCompletion` the settled records' samples.
const PINNED: &[(Scope, usize)] = &[
    (Scope::Outside, 1_073),
    (Scope::IssueStage, 4),
    (Scope::LbReceive, 3),
    (Scope::LbDispatch, 4),
    (Scope::ReplicaReceive, 8),
    (Scope::ReplicaKick, 400),
    (Scope::DeliverCompletion, 17),
    (Scope::ProbeTick, 1),
    (Scope::TrieInsert, 484),
    (Scope::CacheAcquire, 458),
    (Scope::CacheComplete, 45),
];

/// The same run with 1 s telemetry on. A first token's two TTFT
/// observations allocate only on first use, a new series or a new sketch
/// bucket: 47 in all, 0.14 a request. `Outside` adds the registry's
/// run-end listing and snapshot, `TelemetryTick` the sampled series.
const PINNED_TELEMETRY: &[(Scope, usize)] = &[
    (Scope::Outside, 1_769),
    (Scope::IssueStage, 4),
    (Scope::LbReceive, 3),
    (Scope::LbDispatch, 4),
    (Scope::ReplicaReceive, 8),
    (Scope::ReplicaKick, 400),
    (Scope::DeliverFirstToken, 47),
    (Scope::DeliverCompletion, 17),
    (Scope::ProbeTick, 1),
    (Scope::TelemetryTick, 11),
    (Scope::TrieInsert, 484),
    (Scope::CacheAcquire, 458),
    (Scope::CacheComplete, 45),
];
