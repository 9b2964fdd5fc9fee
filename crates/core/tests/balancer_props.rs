//! Seeded property test for the one-record-per-replica balancer: random
//! interleavings of `add_replica_in` / `remove_replica` /
//! `on_replica_probe` / `submit` / `dispatch` / `on_replica_complete`
//! against a reference model that keeps, per managed replica, exactly
//! what [`ReplicaState`] keeps — so the record a balancer folds its
//! bookkeeping into is compared whole, after every operation.
//!
//! (Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.)

use std::collections::BTreeMap;

use skywalker_core::{BalancerConfig, Decision, LbId, PushMode, RegionalBalancer, ReplicaState};
use skywalker_net::Region;
use skywalker_replica::{ReplicaId, Request};
use skywalker_sim::DetRng;

const IDS: u64 = 5;
const REGIONS: [Region; 3] = [Region::UsEast, Region::EuWest, Region::ApNortheast];

/// The reference: one record per managed replica, plus the dispatches
/// that removed (or re-registered) replicas took with them.
#[derive(Default)]
struct Model {
    replicas: BTreeMap<ReplicaId, ReplicaState>,
    taken: u64,
}

impl Model {
    fn add(&mut self, id: ReplicaId, region: Region) {
        // A re-registered id starts afresh: its old record is gone whole.
        self.remove(id);
        self.replicas.insert(id, ReplicaState::new(id, region));
    }

    fn remove(&mut self, id: ReplicaId) {
        self.taken += self.replicas.remove(&id).map_or(0, |r| r.dispatched);
    }

    fn probe(&mut self, id: ReplicaId, pending: u32, running: u32, kv: f64) {
        if let Some(r) = self.replicas.get_mut(&id) {
            (r.pending, r.running, r.kv_utilization) = (pending, running, kv);
            r.dispatched_since_probe = 0;
        }
    }

    fn complete(&mut self, id: ReplicaId) {
        if let Some(r) = self.replicas.get_mut(&id) {
            r.outstanding = r.outstanding.saturating_sub(1);
        }
    }
}

/// Drives one random sequence; returns how many requests were placed
/// and how many of those placements left with a removed replica.
fn run_case(case: u64, push_mode: PushMode) -> (u64, u64) {
    let mut rng = DetRng::for_component(case, "balancer/props");
    let cfg = BalancerConfig {
        push_mode,
        ..BalancerConfig::skywalker(Region::UsEast)
    };
    let mut lb = RegionalBalancer::new(LbId(0), cfg);
    let mut model = Model::default();
    let mut next_req = 0u64;
    let pick = |rng: &mut DetRng| ReplicaId(rng.below(IDS) as u32);
    for step in 0..rng.range(20, 120) {
        let at = format!("case {case} step {step} ({push_mode:?})");
        match rng.below(6) {
            0 => {
                let (id, region) = (pick(&mut rng), REGIONS[rng.below(3) as usize]);
                lb.add_replica_in(id, region);
                model.add(id, region);
                let fresh = lb.replica_states().find(|r| r.id == id).expect("added");
                assert_eq!(fresh.outstanding, 0, "{at}: a (re-)added id starts idle");
            }
            1 => {
                let id = pick(&mut rng);
                lb.remove_replica(id);
                model.remove(id);
                assert!(lb.replica_states().all(|r| r.id != id), "{at}");
            }
            2 => {
                let id = pick(&mut rng);
                let (pending, running) = (rng.below(3) as u32, rng.below(9) as u32);
                lb.on_replica_probe(id, pending, running, 0.25);
                model.probe(id, pending, running, 0.25);
            }
            3 => {
                let id = pick(&mut rng);
                lb.on_replica_complete(id);
                model.complete(id);
            }
            _ => {
                let key = format!("u{}", rng.below(4));
                lb.submit(Request::new(next_req, key, vec![7; 12], 4), 0);
                next_req += 1;
            }
        }
        // No peers: everything that leaves the queue is a local decision.
        for decision in lb.dispatch() {
            let Decision::Local { replica, .. } = decision else {
                panic!("{at}: forwarded with no peer");
            };
            let r = model
                .replicas
                .get_mut(&replica)
                .unwrap_or_else(|| panic!("{at}: dispatched to unmanaged {replica:?}"));
            assert!(push_mode.replica_available(r), "{at}: {replica:?} was full");
            r.outstanding += 1;
            r.dispatched_since_probe += 1;
            r.dispatched += 1;
        }
        // The folded records are the model's, field for field.
        let held: Vec<ReplicaState> = lb.replica_states().copied().collect();
        let expected: Vec<ReplicaState> = model.replicas.values().copied().collect();
        assert_eq!(held, expected, "{at}");
        let in_flight: u32 = expected.iter().map(|r| r.outstanding).sum();
        assert_eq!(lb.outstanding(), in_flight, "{at}");
        let counted: u64 = held.iter().map(|r| r.dispatched).sum();
        assert_eq!(counted + model.taken, lb.stats().dispatched_local, "{at}");
        let available = expected
            .iter()
            .filter(|r| push_mode.replica_available(r))
            .count();
        assert_eq!(
            lb.status(),
            (available as u32, lb.queue_len() as u32),
            "{at}"
        );
    }
    (lb.stats().dispatched_local, model.taken)
}

#[test]
fn folded_replica_records_match_the_reference_model() {
    let modes = [
        PushMode::Blind,
        PushMode::Outstanding { max: 3 },
        PushMode::Pending,
    ];
    let (mut placed, mut taken) = (0, 0);
    for case in 0..96u64 {
        let (p, t) = run_case(case, modes[(case % 3) as usize]);
        placed += p;
        taken += t;
    }
    // The sequences did exercise placement and removal-with-history.
    assert!(
        placed > 500 && taken > 100,
        "placed {placed}, taken {taken}"
    );
}
