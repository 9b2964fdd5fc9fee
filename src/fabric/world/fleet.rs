//! The fleet layer: polls the scenario's [`FleetPlan`] with a live
//! observation and applies its joins, drains, crashes, and balancer
//! flaps at their exact instants.

use skywalker_replica::{ReplicaId, ReplicaRole, Request};
use skywalker_sim::SimTime;

use super::{Ev, Fabric, LbSlot, ReplicaHealth, ReplicaSlot, Sched};
use crate::fabric::{FabricConfig, FleetSummary};
use crate::fleet::{
    FleetCommand, FleetEvent, FleetObservation, FleetPlan, LbObservation, ReplicaObservation,
};
use crate::metrics::TimeSeries;

/// The fleet control plane's state: the plan being polled and the
/// elasticity ledger that becomes the run's [`FleetSummary`].
pub(crate) struct FleetPlane {
    /// The scenario's plan, polled as sim time advances.
    pub(crate) plan: Option<Box<dyn FleetPlan>>,
    /// The elasticity ledger, kept in its final shape: per-region
    /// serving-replica traces (sorted by region) and churn counters.
    /// `final_replicas` is filled in when the run ends.
    pub(crate) ledger: FleetSummary,
    /// The observation handed to the plan each poll; its vecs keep
    /// their capacity between polls.
    pub(crate) observation: FleetObservation,
}

impl FleetPlane {
    /// Appends the current per-region serving-replica counts to the
    /// fleet-size traces. Regions that lost every replica keep their
    /// trace and record an explicit zero.
    pub(crate) fn record(&mut self, now: SimTime, replicas: &[ReplicaSlot]) {
        let sizes = &mut self.ledger.sizes;
        let active = || replicas.iter().filter(|s| s.is_active());
        for region in active().map(|s| s.region) {
            if let Err(at) = sizes.binary_search_by_key(&region, |(r, _)| *r) {
                let series = TimeSeries::new(format!("fleet/{region:?}"));
                sizes.insert(at, (region, series));
            }
        }
        for (region, series) in sizes {
            let serving = active().filter(|s| s.region == *region).count();
            series.record(now, serving as f64);
        }
    }

    /// Refreshes the control-plane snapshot handed to the plan.
    fn observe(&mut self, now: SimTime, replicas: &[ReplicaSlot], lbs: &[LbSlot]) {
        let obs = &mut self.observation;
        obs.now = now;
        obs.replicas.clear();
        obs.replicas.extend(
            replicas
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    matches!(s.health, ReplicaHealth::Active | ReplicaHealth::Draining)
                })
                .map(|(i, s)| ReplicaObservation {
                    id: ReplicaId(i as u32),
                    region: s.region,
                    pending: s.replica.pending_len() as u32,
                    running: s.replica.running_len() as u32,
                    kv_utilization: s.replica.kv_utilization(),
                    draining: s.health == ReplicaHealth::Draining,
                }),
        );
        obs.balancers.clear();
        obs.balancers
            .extend(lbs.iter().enumerate().map(|(i, s)| LbObservation {
                index: i as u32,
                region: s.lb.region(),
                queue: s.lb.queue_len() as u32,
                outstanding: s.lb.outstanding(),
                alive: s.alive,
            }));
    }
}

impl Fabric {
    pub(crate) fn on_fleet_poll(&mut self, sched: &mut Sched) {
        let now = sched.now();
        let fleet = &mut self.fleet;
        fleet.observe(now, &self.replicas, &self.lbs);
        let Some(plan) = fleet.plan.as_mut() else {
            return;
        };
        // Look one poll interval ahead so every scheduled command can
        // fire at its exact instant instead of being quantized to poll
        // boundaries.
        let horizon = now + FabricConfig::POLL_INTERVAL;
        for FleetCommand { at, event } in plan.next_events(horizon, &fleet.observation) {
            let event = Box::new(event);
            sched.at(at, Ev::FleetApply { event });
        }
        if !plan.is_done() {
            sched.after(FabricConfig::POLL_INTERVAL, Ev::FleetPoll);
        }
    }

    /// Applies one fleet change at its effective instant.
    pub(crate) fn on_fleet_event(&mut self, event: FleetEvent, sched: &mut Sched) {
        let now = sched.now();
        match event {
            FleetEvent::LbDown { lb } => {
                let Some(slot) = self.lbs.get_mut(lb as usize) else {
                    return;
                };
                slot.alive = false;
                // A crashed balancer loses its queue immediately; the
                // controller notices the silence within its timeout.
                self.lose_queue(lb, sched);
            }
            FleetEvent::LbUp { lb } => {
                if let Some(slot) = self.lbs.get_mut(lb as usize) {
                    slot.alive = true;
                }
            }
            FleetEvent::ReplicaJoin { region, profile } => {
                // Joins are always colocated: the fleet plan vocabulary
                // has no role axis (yet), and a colocated joiner is a
                // valid decode target either way.
                let home = self.add_replica(region, profile, ReplicaRole::Colocated);
                self.fleet.ledger.joins += 1;
                self.fleet.record(now, &self.replicas);
                if let Some(lb) = home {
                    sched.at(now, Ev::LbDispatch { lb });
                }
            }
            FleetEvent::ReplicaDrain { replica } => {
                let i = replica.0 as usize;
                if !self.replicas.get(i).is_some_and(|s| s.is_active()) {
                    return; // unknown, already draining, or dead: no-op
                }
                self.deregister(replica);
                let slot = &mut self.replicas[i];
                slot.health = ReplicaHealth::Draining;
                slot.retire_if_drained();
                self.fleet.ledger.drains += 1;
                self.fleet.record(now, &self.replicas);
            }
            FleetEvent::ReplicaCrash { replica } => {
                let i = replica.0 as usize;
                let gone = |s: &ReplicaSlot| {
                    matches!(s.health, ReplicaHealth::Retired | ReplicaHealth::Crashed)
                };
                if self.replicas.get(i).is_none_or(gone) {
                    return;
                }
                self.deregister(replica);
                let slot = &mut self.replicas[i];
                slot.health = ReplicaHealth::Crashed;
                let lost = slot.replica.fail_all();
                self.fleet.ledger.crashes += 1;
                self.fleet.record(now, &self.replicas);
                for req in lost {
                    self.fail_or_reroute(req, sched);
                }
            }
        }
    }

    /// Takes `replica` off its balancer's and the controller's books.
    fn deregister(&mut self, replica: ReplicaId) {
        if let Some(holder) = self.controller.deregister_replica(replica) {
            self.lbs[holder.0 as usize].lb.remove_replica(replica);
        }
    }

    /// Gives a crash casualty its one reroute, or counts it failed.
    pub(crate) fn fail_or_reroute(&mut self, req: Request, sched: &mut Sched) {
        // A disagg leg retries (and is accounted) as the original
        // client request.
        let req = self.restore_original(req);
        match self.reqs.get_mut(&req.id.0) {
            Some(state) if !state.rerouted => {
                state.rerouted = true;
                let client = state.client as usize;
                sched.at(sched.now(), Ev::Retry { client, req });
            }
            _ => self.fail_request(req.id.0, sched),
        }
    }
}
