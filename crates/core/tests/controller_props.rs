//! Seeded property tests for [`Controller`] re-homing (§4.2): random
//! interleavings of balancer failures, recoveries, and clock advances
//! must (1) hand every replica back to its home balancer once the
//! system heals, (2) never re-issue a reassignment for an unchanged
//! state (idempotence), and (3) never leave a replica on a dead
//! balancer while any balancer survives.
//!
//! (Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.)

use std::collections::{BTreeMap, BTreeSet};

use skywalker_core::{ControlAction, Controller, LbId};
use skywalker_net::{LatencyModel, Region};
use skywalker_replica::ReplicaId;
use skywalker_sim::{DetRng, SimDuration, SimTime};

const LBS: [(LbId, Region); 4] = [
    (LbId(0), Region::UsEast),
    (LbId(1), Region::EuWest),
    (LbId(2), Region::ApNortheast),
    (LbId(3), Region::EuCentral),
];
const REPLICAS_PER_LB: u32 = 3;
const TIMEOUT: SimDuration = SimDuration::from_secs(2);

fn controller() -> Controller {
    let mut c = Controller::new(LatencyModel::default_wan(), TIMEOUT);
    for (id, region) in LBS {
        c.register_lb(id, region);
    }
    for i in 0..(LBS.len() as u32 * REPLICAS_PER_LB) {
        c.register_replica(ReplicaId(i), LbId(i / REPLICAS_PER_LB));
    }
    c
}

fn home_of(replica: ReplicaId) -> LbId {
    LbId(replica.0 / REPLICAS_PER_LB)
}

/// A shadow of which balancers the *test* believes are up: a balancer
/// is up iff we keep heartbeating it.
#[derive(Debug, Clone)]
struct Shadow {
    up: BTreeMap<LbId, bool>,
    now: SimTime,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            up: LBS.iter().map(|&(id, _)| (id, true)).collect(),
            now: SimTime::ZERO,
        }
    }
}

/// Drives one random scenario; returns the action trace for debugging.
fn run_case(case: u64) -> Vec<ControlAction> {
    let mut rng = DetRng::for_component(case, "controller/props");
    let mut c = controller();
    let mut shadow = Shadow::new();
    let mut trace = Vec::new();
    let steps = rng.range(4, 40);
    for step in 0..steps {
        match rng.below(3) {
            // Flip one balancer's liveness (from the test's viewpoint).
            0 => {
                let lb = LBS[rng.below(LBS.len() as u64) as usize].0;
                let up = shadow.up.get_mut(&lb).unwrap();
                *up = !*up;
            }
            // Advance time past the failure-detection deadline, beating
            // the hearts of every up balancer first.
            1 => {
                shadow.now += TIMEOUT + SimDuration::from_secs(1);
                for (&lb, &up) in &shadow.up {
                    if up {
                        trace.extend(c.heartbeat(lb, shadow.now));
                    }
                }
                trace.extend(c.check(shadow.now));
            }
            // A quiet check (no time advance): must add nothing new for
            // balancers whose state is already settled.
            _ => {
                let before = c.check(shadow.now);
                let again = c.check(shadow.now);
                assert!(
                    again.is_empty(),
                    "case {case} step {step}: repeated check() must be idempotent, got {again:?}"
                );
                trace.extend(before);
            }
        }
        // Invariant: after any check, no replica may sit on a balancer
        // the controller considers dead while a live one exists.
        trace.extend(c.check(shadow.now));
        let any_alive = LBS.iter().any(|&(id, _)| c.is_alive(id));
        if any_alive {
            for i in 0..(LBS.len() as u32 * REPLICAS_PER_LB) {
                let holder = c.holder(ReplicaId(i)).expect("registered");
                assert!(
                    c.is_alive(holder),
                    "case {case} step {step}: replica {i} stranded on dead {holder}"
                );
            }
        }
    }
    // Heal everything: heartbeat every balancer, then sweep.
    shadow.now += TIMEOUT + SimDuration::from_secs(1);
    for &(id, _) in &LBS {
        trace.extend(c.heartbeat(id, shadow.now));
    }
    trace.extend(c.check(shadow.now));
    // Hand-back restores the original assignment, always.
    for i in 0..(LBS.len() as u32 * REPLICAS_PER_LB) {
        let r = ReplicaId(i);
        assert_eq!(
            c.holder(r),
            Some(home_of(r)),
            "case {case}: replica {i} not handed back home after full recovery"
        );
    }
    // And a settled system emits nothing more.
    assert!(c.check(shadow.now).is_empty(), "case {case}");
    trace
}

#[test]
fn rehoming_recovers_idempotently_and_never_strands() {
    for case in 0..96u64 {
        let trace = run_case(case);
        // Reassignments in one trace must be internally consistent: a
        // replica's moves chain (each `from` equals the previous `to`).
        let mut last_holder: BTreeMap<ReplicaId, LbId> = (0..(LBS.len() as u32 * REPLICAS_PER_LB))
            .map(|i| (ReplicaId(i), home_of(ReplicaId(i))))
            .collect();
        for a in &trace {
            if let ControlAction::Reassign { replica, from, to } = a {
                assert_eq!(
                    last_holder[replica], *from,
                    "case {case}: reassignment chain broken for {replica}"
                );
                assert_ne!(from, to, "case {case}: self-reassignment for {replica}");
                last_holder.insert(*replica, *to);
            }
        }
        // The chain ends with everyone home.
        for (r, holder) in last_holder {
            assert_eq!(holder, home_of(r), "case {case}");
        }
    }
}

/// Total outage: replicas stay with their dead holder (nowhere to go),
/// and the first recovery adopts every stranded replica on the next
/// sweep — none are lost.
#[test]
fn total_outage_then_single_survivor_adopts_everyone() {
    for case in 0..32u64 {
        let mut rng = DetRng::for_component(case, "controller/total-outage");
        let mut c = controller();
        // Nobody heartbeats: everything fails at once.
        let t1 = SimTime::ZERO + TIMEOUT + SimDuration::from_secs(1);
        let actions = c.check(t1);
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, ControlAction::LbFailed(_)))
                .count(),
            LBS.len(),
            "case {case}"
        );
        // One random balancer comes back.
        let survivor = LBS[rng.below(LBS.len() as u64) as usize].0;
        c.heartbeat(survivor, t1 + SimDuration::from_secs(1));
        c.check(t1 + SimDuration::from_secs(1));
        for i in 0..(LBS.len() as u32 * REPLICAS_PER_LB) {
            assert_eq!(
                c.holder(ReplicaId(i)),
                Some(survivor),
                "case {case}: replica {i} not adopted by the survivor"
            );
        }
    }
}

/// Applies a batch of actions the way a deployment would — take the
/// replica off `from`, put it on `to` — to per-balancer replica sets.
fn apply(held: &mut BTreeMap<LbId, BTreeSet<ReplicaId>>, actions: &[ControlAction]) {
    for a in actions {
        if let ControlAction::Reassign { replica, from, to } = a {
            assert!(held.entry(*from).or_default().remove(replica), "{a:?}");
            assert!(held.entry(*to).or_default().insert(*replica), "{a:?}");
        }
    }
}

/// One placement record per replica: through any cascade of failures
/// and recoveries every registered replica sits on exactly one
/// balancer — the one `holder()` names — and a recovering balancer is
/// handed exactly the replicas whose home it is, no one else's.
#[test]
fn every_replica_has_one_holder_and_recovery_returns_only_home_replicas() {
    let replicas = || (0..LBS.len() as u32 * REPLICAS_PER_LB).map(ReplicaId);
    for case in 0..64u64 {
        let mut rng = DetRng::for_component(case, "controller/one-holder");
        let mut c = controller();
        let mut held: BTreeMap<LbId, BTreeSet<ReplicaId>> = BTreeMap::new();
        for r in replicas() {
            held.entry(home_of(r)).or_default().insert(r);
        }
        let mut now = SimTime::ZERO;
        for step in 0..rng.range(4, 30) {
            now += TIMEOUT + SimDuration::from_secs(1);
            for (lb, _) in LBS {
                if rng.below(2) == 0 {
                    continue; // silent this round
                }
                let was_alive = c.is_alive(lb);
                let before = held.clone();
                let actions = c.heartbeat(lb, now);
                apply(&mut held, &actions);
                if was_alive {
                    assert!(actions.is_empty(), "case {case} step {step}");
                    continue;
                }
                let returned: BTreeSet<ReplicaId> = actions
                    .iter()
                    .filter_map(|a| match a {
                        ControlAction::Reassign { replica, to, .. } if *to == lb => Some(*replica),
                        _ => None,
                    })
                    .collect();
                let owed: BTreeSet<ReplicaId> = replicas()
                    .filter(|r| home_of(*r) == lb && !before[&lb].contains(r))
                    .collect();
                assert_eq!(returned, owed, "case {case} step {step}: recovery of {lb}");
                assert_eq!(
                    returned.len() + 1,
                    actions.len(),
                    "case {case}: only hand-backs"
                );
            }
            apply(&mut held, &c.check(now));
            for r in replicas() {
                let on: Vec<LbId> = held
                    .iter()
                    .filter(|(_, set)| set.contains(&r))
                    .map(|(lb, _)| *lb)
                    .collect();
                assert_eq!(
                    on,
                    [c.holder(r).expect("registered")],
                    "case {case} step {step}"
                );
            }
        }
    }
}
