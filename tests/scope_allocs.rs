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
//! The allocator counts per thread, and the run is the measuring
//! thread's own: what another thread allocates meanwhile (the harness,
//! the other test) is not charged to it.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicBool, Ordering};

use skywalker::sim::{Scope, SimDuration};
use skywalker::{fig8_scenario, run_scenario, FabricConfig, Scenario, SystemKind, Workload};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, by_scope};

/// Runs the scenario under `cfg`, then `also`, and returns the
/// allocations of that window by scope, leaving out scopes that made
/// none.
fn allocations_by_scope(
    scenario: &Scenario,
    cfg: &FabricConfig,
    also: impl FnOnce(),
) -> Vec<(Scope, usize)> {
    let (total_before, before) = (allocs(), by_scope());
    let summary = run_scenario(scenario, cfg);
    also();
    let (total, after) = (allocs() - total_before, by_scope());
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
    let plain = allocations_by_scope(&scenario, &FabricConfig::default(), || {});
    assert_eq!(plain, PINNED, "allocations of the run, by scope");
    let cfg = FabricConfig::default().telemetry(SimDuration::from_secs(1));
    let observed = allocations_by_scope(&scenario, &cfg, || {});
    assert_eq!(
        observed, PINNED_TELEMETRY,
        "allocations of the run with telemetry on, by scope"
    );
}

/// A second thread allocates inside the measured window, and the pin
/// does not move. The measuring thread waits on atomics, which
/// allocate nothing.
#[test]
fn another_threads_allocations_are_not_charged() {
    let scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Arena, 0.08, 11);
    let (go, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let plain = std::thread::scope(|s| {
        s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                spin_loop();
            }
            black_box(vec![0u8; 4_096]);
            done.store(true, Ordering::Release);
        });
        allocations_by_scope(&scenario, &FabricConfig::default(), || {
            go.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                spin_loop();
            }
        })
    });
    assert_eq!(plain, PINNED, "allocations of the run, by scope");
}

/// The allocations of the run, by scope; scopes that made none are left
/// out. `Outside` is the fabric's set-up and the report. Per request,
/// route trie inserts make 1.48, cache acquires 1.40, a replica's steps
/// (`ReplicaKick`) 0.12 — a step writes no output token and moves no
/// request through a side list — and cache completes 1.14, of them one
/// per retired request: its output leaf's 16-byte run, or the buffer of
/// an output of at most four tokens. `IssueStage` is the request table
/// growing — a request in flight is one entry, its lifecycle record
/// included — and `DeliverCompletion` the settled records' samples (17)
/// and the free list of retired clients' slots (4), whose growth a
/// client table that reuses slots pays for.
const PINNED: &[(Scope, usize)] = &[
    (Scope::Outside, 1_073),
    (Scope::IssueStage, 4),
    (Scope::LbReceive, 3),
    (Scope::LbDispatch, 4),
    (Scope::ReplicaReceive, 8),
    (Scope::ReplicaKick, 40),
    (Scope::DeliverCompletion, 21),
    (Scope::ProbeTick, 1),
    (Scope::TrieInsert, 484),
    (Scope::CacheAcquire, 458),
    (Scope::CacheComplete, 373),
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
    (Scope::ReplicaKick, 40),
    (Scope::DeliverFirstToken, 47),
    (Scope::DeliverCompletion, 21),
    (Scope::ProbeTick, 1),
    (Scope::TelemetryTick, 11),
    (Scope::TrieInsert, 484),
    (Scope::CacheAcquire, 458),
    (Scope::CacheComplete, 373),
];
