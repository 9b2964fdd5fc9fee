//! The fleet snapshot handed to plans at every poll.
//!
//! Reactive plans (autoscalers, chaos with spare-capacity floors) need
//! to see what the fleet looks like *now*: per-replica queue depths and
//! KV pressure, per-balancer queue lengths and outstanding load, and
//! which replicas are live. The fabric assembles a [`FleetObservation`]
//! at each poll and hands it to [`crate::FleetPlan::next_events`].

use skywalker_net::Region;
use skywalker_replica::ReplicaId;
use skywalker_sim::SimTime;

/// One replica as the control plane sees it. Crashed and retired
/// replicas are omitted from the observation entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaObservation {
    /// The replica.
    pub id: ReplicaId,
    /// Region it serves from.
    pub region: Region,
    /// Requests waiting for batch admission (the selective-pushing
    /// signal, §3.3).
    pub pending: u32,
    /// Requests in the running continuous batch.
    pub running: u32,
    /// KV memory utilization in `[0, 1]`.
    pub kv_utilization: f64,
    /// True while the replica is draining: it finishes in-flight work
    /// but accepts no new dispatch and no longer counts as live.
    pub draining: bool,
}

impl ReplicaObservation {
    /// Work currently on the replica (pending + running).
    pub fn load(&self) -> u32 {
        self.pending + self.running
    }
}

/// One balancer as the control plane sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbObservation {
    /// Balancer index, in creation order (the [`crate::FleetEvent::LbDown`]
    /// addressing scheme).
    pub index: u32,
    /// Region it fronts.
    pub region: Region,
    /// Requests queued at the balancer, not yet dispatched.
    pub queue: u32,
    /// Requests dispatched to this balancer's replicas and not yet
    /// completed.
    pub outstanding: u32,
    /// False while the controller considers the balancer failed.
    pub alive: bool,
}

/// Snapshot of the whole deployment at one instant, assembled by the
/// fabric and handed to every [`crate::FleetPlan`] poll.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetObservation {
    /// The observation instant.
    pub now: SimTime,
    /// Every live or draining replica (crashed/retired ones are gone).
    pub replicas: Vec<ReplicaObservation>,
    /// Every balancer, in creation order.
    pub balancers: Vec<LbObservation>,
}

/// Tracks joins a plan has emitted whose replicas are not yet visible
/// in the observation (still provisioning): without this, an
/// autoscaler re-fires the same scale-out at every poll of the
/// provisioning window. Entries expire once their `online_at` passes —
/// from then on the replica shows up in the observation itself.
#[derive(Debug, Clone, Default)]
pub struct ProvisionLedger {
    pending: Vec<(Region, SimTime)>,
}

impl ProvisionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops entries whose replicas are online (visible) by `now`.
    pub fn prune(&mut self, now: SimTime) {
        self.pending.retain(|&(_, online_at)| online_at > now);
    }

    /// Records one emitted join that comes online at `online_at`.
    pub fn note(&mut self, region: Region, online_at: SimTime) {
        self.pending.push((region, online_at));
    }

    /// Joins still provisioning for `region`.
    pub fn in_flight(&self, region: Region) -> u32 {
        self.pending.iter().filter(|&&(r, _)| r == region).count() as u32
    }
}

impl FleetObservation {
    /// Replicas serving `region` that are live (not draining).
    pub fn live_in(&self, region: Region) -> u32 {
        self.replicas
            .iter()
            .filter(|r| r.region == region && !r.draining)
            .count() as u32
    }

    /// Outstanding load per live replica in `region`: balancer queue
    /// plus dispatched-not-completed, divided by the live count. A
    /// region with no live replicas reports the raw load (as if one
    /// replica existed) so thresholds still trip.
    pub fn region_load(&self, region: Region) -> f64 {
        let queued: u32 = self
            .balancers
            .iter()
            .filter(|b| b.region == region && b.alive)
            .map(|b| b.queue + b.outstanding)
            .sum();
        f64::from(queued) / f64::from(self.live_in(region).max(1))
    }

    /// Whether `region` has a live balancer. While it does not, the
    /// region's load reads as zero ([`FleetObservation::region_load`])
    /// because its demand is being served — and observed — elsewhere:
    /// autoscalers should treat such a region as *unobservable* and
    /// make no scale decision, not read the zero as idleness.
    pub fn balancer_alive_in(&self, region: Region) -> bool {
        self.balancers.iter().any(|b| b.region == region && b.alive)
    }

    /// The best `n` drain victims in `region`: least-loaded live
    /// replicas first, youngest (highest id) first on ties so the
    /// original fleet survives. The shared victim policy of both
    /// built-in autoscalers, reusable by external plans.
    pub fn drain_candidates(&self, region: Region, n: usize) -> Vec<ReplicaId> {
        let mut candidates: Vec<&ReplicaObservation> = self
            .replicas
            .iter()
            .filter(|r| r.region == region && !r.draining)
            .collect();
        candidates.sort_by_key(|r| (r.load(), u32::MAX - r.id.0));
        candidates.into_iter().take(n).map(|r| r.id).collect()
    }

    /// Regions under observation: balancer regions first (creation
    /// order), then any replica-only regions, deduplicated.
    pub fn regions(&self) -> Vec<Region> {
        let mut out = Vec::new();
        for b in &self.balancers {
            if !out.contains(&b.region) {
                out.push(b.region);
            }
        }
        for r in &self.replicas {
            if !out.contains(&r.region) {
                out.push(r.region);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> FleetObservation {
        FleetObservation {
            now: SimTime::from_secs(5),
            replicas: vec![
                ReplicaObservation {
                    id: ReplicaId(0),
                    region: Region::UsEast,
                    pending: 2,
                    running: 3,
                    kv_utilization: 0.5,
                    draining: false,
                },
                ReplicaObservation {
                    id: ReplicaId(1),
                    region: Region::UsEast,
                    pending: 0,
                    running: 0,
                    kv_utilization: 0.1,
                    draining: true,
                },
                ReplicaObservation {
                    id: ReplicaId(2),
                    region: Region::EuWest,
                    pending: 1,
                    running: 1,
                    kv_utilization: 0.2,
                    draining: false,
                },
            ],
            balancers: vec![
                LbObservation {
                    index: 0,
                    region: Region::UsEast,
                    queue: 4,
                    outstanding: 6,
                    alive: true,
                },
                LbObservation {
                    index: 1,
                    region: Region::EuWest,
                    queue: 0,
                    outstanding: 2,
                    alive: true,
                },
            ],
        }
    }

    #[test]
    fn live_counts_exclude_draining() {
        let o = obs();
        assert_eq!(o.live_in(Region::UsEast), 1);
        assert_eq!(o.live_in(Region::EuWest), 1);
    }

    #[test]
    fn region_load_divides_by_live() {
        let o = obs();
        assert!((o.region_load(Region::UsEast) - 10.0).abs() < 1e-9);
        assert!((o.region_load(Region::EuWest) - 2.0).abs() < 1e-9);
        // No replicas and no balancers: zero load, no division by zero.
        assert_eq!(o.region_load(Region::ApSoutheast), 0.0);
    }

    #[test]
    fn regions_deduplicated_in_creation_order() {
        let o = obs();
        assert_eq!(o.regions(), vec![Region::UsEast, Region::EuWest]);
    }

    #[test]
    fn dead_balancers_excluded_from_load() {
        let mut o = obs();
        o.balancers[0].alive = false;
        assert_eq!(o.region_load(Region::UsEast), 0.0);
    }

    #[test]
    fn replica_load_sums_queue_stages() {
        assert_eq!(obs().replicas[0].load(), 5);
    }
}
