//! The centralized service controller (§4.2).
//!
//! The controller manages deployment changes and failure recovery. It
//! probes load balancers periodically; when one misses its heartbeat
//! deadline the controller re-homes the failed balancer's replicas to the
//! geographically closest surviving balancer, which treats them as
//! temporarily local. When the failed balancer recovers, its replicas are
//! handed back. Multiple concurrent failures are tolerated; the service
//! dies only when every balancer is down.
//!
//! The controller emits [`ControlAction`]s; the deployment fabric (or
//! operator tooling, in a real deployment) applies them to the
//! balancers. Its map of which balancers are alive is also what clients
//! resolve against ([`Controller::resolve`]): the latency-based DNS
//! records a real deployment would keep in step with it.

use std::collections::BTreeMap;

use skywalker_net::{LatencyModel, Region};
use skywalker_replica::ReplicaId;
use skywalker_sim::{SimDuration, SimTime};

use crate::balancer::LbId;

/// Directives from the controller to the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// A balancer missed its heartbeat deadline: its peers stop
    /// forwarding to it (clients stop resolving to it as the action is
    /// emitted).
    LbFailed(LbId),
    /// A failed balancer is back: its peers resume forwarding to it
    /// (clients resolve to it again as the action is emitted).
    LbRecovered(LbId),
    /// Move a replica between balancers (failure re-homing or recovery
    /// hand-back).
    Reassign {
        /// The replica to move.
        replica: ReplicaId,
        /// Balancer currently holding it.
        from: LbId,
        /// Balancer that should hold it next.
        to: LbId,
    },
}

#[derive(Debug)]
struct LbRecord {
    region: Region,
    last_heartbeat: SimTime,
    alive: bool,
}

/// Where one registered replica belongs and where it is now.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// Its original balancer, which gets it back on recovery.
    home: LbId,
    /// The balancer currently holding it.
    holder: LbId,
}

/// The centralized, fault-tolerant controller.
///
/// # Examples
///
/// ```
/// use skywalker_core::{Controller, ControlAction, LbId};
/// use skywalker_net::{LatencyModel, Region};
/// use skywalker_replica::ReplicaId;
/// use skywalker_sim::{SimDuration, SimTime};
///
/// let mut ctl = Controller::new(LatencyModel::default_wan(), SimDuration::from_secs(2));
/// ctl.register_lb(LbId(0), Region::UsEast);
/// ctl.register_lb(LbId(1), Region::EuWest);
/// ctl.register_replica(ReplicaId(0), LbId(0));
///
/// ctl.heartbeat(LbId(1), SimTime::from_secs(1));
/// // LB 0 never heartbeats: at t=3s it is declared failed and its
/// // replica moves to LB 1.
/// let actions = ctl.check(SimTime::from_secs(3));
/// assert!(actions.contains(&ControlAction::LbFailed(LbId(0))));
/// assert!(actions.contains(&ControlAction::Reassign {
///     replica: ReplicaId(0),
///     from: LbId(0),
///     to: LbId(1),
/// }));
/// ```
#[derive(Debug)]
pub struct Controller {
    net: LatencyModel,
    timeout: SimDuration,
    lbs: BTreeMap<LbId, LbRecord>,
    replicas: BTreeMap<ReplicaId, Placement>,
}

impl Controller {
    /// Creates a controller declaring a balancer failed after `timeout`
    /// without a heartbeat.
    pub fn new(net: LatencyModel, timeout: SimDuration) -> Self {
        Controller {
            net,
            timeout,
            lbs: BTreeMap::new(),
            replicas: BTreeMap::new(),
        }
    }

    /// Registers a balancer (alive, heartbeat clock starts at zero).
    pub fn register_lb(&mut self, id: LbId, region: Region) {
        self.lbs.insert(
            id,
            LbRecord {
                region,
                last_heartbeat: SimTime::ZERO,
                alive: true,
            },
        );
    }

    /// Registers a replica under its home balancer.
    pub fn register_replica(&mut self, replica: ReplicaId, home: LbId) {
        let holder = home;
        self.replicas.insert(replica, Placement { home, holder });
    }

    /// Forgets a replica entirely (drain or crash): it is no longer
    /// re-homed on failures nor handed back on recovery. Returns the
    /// balancer that was holding it (`None` for an unknown replica).
    pub fn deregister_replica(&mut self, replica: ReplicaId) -> Option<LbId> {
        self.replicas.remove(&replica).map(|p| p.holder)
    }

    /// Records a heartbeat. If the balancer was considered failed, this
    /// triggers recovery: the balancer is revived and its home replicas
    /// are handed back.
    pub fn heartbeat(&mut self, id: LbId, now: SimTime) -> Vec<ControlAction> {
        let Some(rec) = self.lbs.get_mut(&id) else {
            return Vec::new();
        };
        rec.last_heartbeat = now;
        if rec.alive {
            return Vec::new();
        }
        rec.alive = true;
        let mut actions = vec![ControlAction::LbRecovered(id)];
        // Hand back every replica whose home is this balancer.
        for (&replica, p) in &mut self.replicas {
            if p.home == id && p.holder != id {
                let from = std::mem::replace(&mut p.holder, id);
                actions.push(ControlAction::Reassign {
                    replica,
                    from,
                    to: id,
                });
            }
        }
        actions
    }

    /// Checks heartbeat deadlines, declaring failures and re-homing
    /// replicas of failed balancers to the nearest surviving one.
    pub fn check(&mut self, now: SimTime) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        let newly_failed: Vec<LbId> = self
            .lbs
            .iter()
            .filter(|(_, rec)| rec.alive && now.saturating_since(rec.last_heartbeat) > self.timeout)
            .map(|(id, _)| *id)
            .collect();
        for id in newly_failed {
            self.lbs.get_mut(&id).expect("listed above").alive = false;
            actions.push(ControlAction::LbFailed(id));
        }
        // Re-home replicas currently held by dead balancers (covers both
        // fresh failures and replicas stranded by cascading failures).
        let Controller {
            net, lbs, replicas, ..
        } = self;
        for (&replica, p) in replicas {
            let holder = lbs.get(&p.holder);
            if holder.is_some_and(|rec| rec.alive) {
                continue;
            }
            let holder_region = holder.map_or(Region::UsEast, |rec| rec.region);
            if let Some(target) = nearest_alive(net, lbs, holder_region) {
                let from = std::mem::replace(&mut p.holder, target);
                actions.push(ControlAction::Reassign {
                    replica,
                    from,
                    to: target,
                });
            }
            // No alive balancer at all: the replica stays stranded until
            // one recovers; heartbeat() will not hand it back (its holder
            // is dead), so the next check() retries.
        }
        actions
    }

    /// Whether a balancer is currently considered alive.
    pub fn is_alive(&self, id: LbId) -> bool {
        self.lbs.get(&id).map(|r| r.alive).unwrap_or(false)
    }

    /// The balancer currently holding a replica.
    pub fn holder(&self, replica: ReplicaId) -> Option<LbId> {
        self.replicas.get(&replica).map(|p| p.holder)
    }

    /// Where a client in `region` is sent: the nearest balancer by RTT
    /// among those the controller holds alive — latency-based DNS over
    /// one record per balancer (§4.1), whose records the controller
    /// withdraws on a failure and restores on recovery (§4.2). `None`
    /// when every balancer is down.
    pub fn resolve(&self, region: Region) -> Option<LbId> {
        nearest_alive(&self.net, &self.lbs, region)
    }
}

/// The live balancer nearest to `from` by RTT (lowest id on a tie).
fn nearest_alive(net: &LatencyModel, lbs: &BTreeMap<LbId, LbRecord>, from: Region) -> Option<LbId> {
    lbs.iter()
        .filter(|(_, rec)| rec.alive)
        .min_by_key(|(id, rec)| (net.rtt(from, rec.region), **id))
        .map(|(id, _)| *id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> Controller {
        let mut c = Controller::new(LatencyModel::default_wan(), SimDuration::from_secs(1));
        c.register_lb(LbId(0), Region::UsEast);
        c.register_lb(LbId(1), Region::EuWest);
        c.register_lb(LbId(2), Region::ApNortheast);
        for i in 0..6u32 {
            c.register_replica(ReplicaId(i), LbId(i / 2));
        }
        c
    }

    fn beat_all(c: &mut Controller, now: SimTime) {
        for id in [LbId(0), LbId(1), LbId(2)] {
            c.heartbeat(id, now);
        }
    }

    #[test]
    fn healthy_system_no_actions() {
        let mut c = controller();
        beat_all(&mut c, SimTime::from_millis(500));
        assert!(c.check(SimTime::from_secs(1)).is_empty());
        assert!(c.is_alive(LbId(0)));
    }

    #[test]
    fn failure_rehomes_to_nearest() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        // LB 1 (eu-west) goes silent.
        c.heartbeat(LbId(0), SimTime::from_secs(2));
        c.heartbeat(LbId(2), SimTime::from_secs(2));
        let actions = c.check(SimTime::from_secs(2));
        assert!(actions.contains(&ControlAction::LbFailed(LbId(1))));
        // eu-west's nearest surviving LB is us-east (75 ms vs 210 ms).
        for r in [ReplicaId(2), ReplicaId(3)] {
            assert!(actions.contains(&ControlAction::Reassign {
                replica: r,
                from: LbId(1),
                to: LbId(0),
            }));
            assert_eq!(c.holder(r), Some(LbId(0)));
        }
        assert!(!c.is_alive(LbId(1)));
    }

    #[test]
    fn recovery_hands_replicas_back() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        c.heartbeat(LbId(0), SimTime::from_secs(2));
        c.heartbeat(LbId(2), SimTime::from_secs(2));
        c.check(SimTime::from_secs(2));
        // LB 1 comes back.
        let actions = c.heartbeat(LbId(1), SimTime::from_secs(5));
        assert!(actions.contains(&ControlAction::LbRecovered(LbId(1))));
        for r in [ReplicaId(2), ReplicaId(3)] {
            assert!(actions.contains(&ControlAction::Reassign {
                replica: r,
                from: LbId(0),
                to: LbId(1),
            }));
            assert_eq!(c.holder(r), Some(LbId(1)));
        }
        assert!(c.is_alive(LbId(1)));
    }

    #[test]
    fn multiple_concurrent_failures() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        c.heartbeat(LbId(2), SimTime::from_secs(2));
        let actions = c.check(SimTime::from_secs(2));
        assert!(actions.contains(&ControlAction::LbFailed(LbId(0))));
        assert!(actions.contains(&ControlAction::LbFailed(LbId(1))));
        // Everything re-homes to the only survivor.
        for i in 0..4u32 {
            assert_eq!(c.holder(ReplicaId(i)), Some(LbId(2)));
        }
    }

    #[test]
    fn total_outage_strands_then_recovers() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        let actions = c.check(SimTime::from_secs(2));
        // All three failed; no reassignment possible.
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, ControlAction::LbFailed(_)))
                .count(),
            3
        );
        assert!(actions
            .iter()
            .all(|a| !matches!(a, ControlAction::Reassign { .. })));
        // One recovers: its own replicas stay, and the next check sweeps
        // the stranded ones over.
        let rec = c.heartbeat(LbId(1), SimTime::from_secs(3));
        assert!(rec.contains(&ControlAction::LbRecovered(LbId(1))));
        let sweep = c.check(SimTime::from_secs(3));
        for i in [0u32, 1, 4, 5] {
            assert_eq!(c.holder(ReplicaId(i)), Some(LbId(1)), "replica {i}");
        }
        assert!(!sweep.is_empty());
    }

    #[test]
    fn deregistered_replicas_never_rehome_or_hand_back() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        c.deregister_replica(ReplicaId(2));
        // LB 1 (home of replicas 2 and 3) dies: only replica 3 moves.
        c.heartbeat(LbId(0), SimTime::from_secs(2));
        c.heartbeat(LbId(2), SimTime::from_secs(2));
        let actions = c.check(SimTime::from_secs(2));
        assert!(actions.iter().all(
            |a| !matches!(a, ControlAction::Reassign { replica, .. } if *replica == ReplicaId(2))
        ));
        assert_eq!(c.holder(ReplicaId(2)), None);
        assert_eq!(c.holder(ReplicaId(3)), Some(LbId(0)));
        // Recovery hands back only the still-registered replica.
        let rec = c.heartbeat(LbId(1), SimTime::from_secs(5));
        assert!(rec.contains(&ControlAction::Reassign {
            replica: ReplicaId(3),
            from: LbId(0),
            to: LbId(1),
        }));
        assert!(rec.iter().all(
            |a| !matches!(a, ControlAction::Reassign { replica, .. } if *replica == ReplicaId(2))
        ));
    }

    #[test]
    fn heartbeat_of_unknown_lb_ignored() {
        let mut c = controller();
        assert!(c.heartbeat(LbId(99), SimTime::from_secs(1)).is_empty());
        assert!(!c.is_alive(LbId(99)));
    }

    #[test]
    fn resolve_prefers_the_clients_own_region() {
        let c = controller();
        for (i, region) in Region::PAPER_TRIO.into_iter().enumerate() {
            assert_eq!(c.resolve(region), Some(LbId(i as u32)), "{region}");
        }
    }

    #[test]
    fn resolve_sends_an_uncovered_region_to_the_nearest_balancer() {
        let c = controller();
        // eu-central's nearest balancer is eu-west's, us-west's us-east's.
        assert_eq!(c.resolve(Region::EuCentral), Some(LbId(1)));
        assert_eq!(c.resolve(Region::UsWest), Some(LbId(0)));
    }

    #[test]
    fn resolve_skips_a_failed_balancer_until_its_heartbeat_returns() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        // LB 0 (us-east) goes silent and is declared failed.
        c.heartbeat(LbId(1), SimTime::from_secs(2));
        c.heartbeat(LbId(2), SimTime::from_secs(2));
        c.check(SimTime::from_secs(2));
        // us-east's next nearest is eu-west (75 ms vs 160 ms).
        assert_eq!(c.resolve(Region::UsEast), Some(LbId(1)));
        c.heartbeat(LbId(0), SimTime::from_secs(3));
        assert_eq!(c.resolve(Region::UsEast), Some(LbId(0)));
    }

    #[test]
    fn resolve_finds_nothing_when_no_balancer_is_alive() {
        let empty = Controller::new(LatencyModel::default_wan(), SimDuration::from_secs(1));
        assert_eq!(empty.resolve(Region::UsEast), None);
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        c.check(SimTime::from_secs(2));
        assert_eq!(c.resolve(Region::UsEast), None);
    }

    #[test]
    fn resolve_breaks_a_same_region_tie_by_lowest_id() {
        let mut c = Controller::new(LatencyModel::default_wan(), SimDuration::from_secs(1));
        c.register_lb(LbId(7), Region::UsEast);
        c.register_lb(LbId(3), Region::UsEast);
        assert_eq!(c.resolve(Region::UsEast), Some(LbId(3)));
    }

    #[test]
    fn repeated_checks_are_idempotent() {
        let mut c = controller();
        beat_all(&mut c, SimTime::ZERO);
        c.heartbeat(LbId(0), SimTime::from_secs(2));
        c.heartbeat(LbId(2), SimTime::from_secs(2));
        let first = c.check(SimTime::from_secs(2));
        assert!(!first.is_empty());
        let second = c.check(SimTime::from_secs(2));
        assert!(second.is_empty(), "no duplicate actions: {second:?}");
    }
}
