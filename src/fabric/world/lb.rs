//! The balancer layer: request arrival and dispatch at each
//! [`RegionalBalancer`], the routing edges out of it (local replica or
//! peer balancer), and the controller's failover actions.

use skywalker_core::{ControlAction, Decision, LbId, RegionalBalancer};
use skywalker_net::Region;
use skywalker_replica::{ReplicaId, Request};

use super::{Ev, Fabric, Sched};
use crate::trace::TraceEventKind::{Dispatched, Forwarded};

/// One deployed balancer and whether its process is up.
pub(crate) struct LbSlot {
    pub(crate) lb: RegionalBalancer,
    pub(crate) alive: bool,
}

impl Fabric {
    pub(crate) fn on_lb_receive(&mut self, lb: u32, req: Request, hops: u8, sched: &mut Sched) {
        let slot = &mut self.lbs[lb as usize];
        if !slot.alive {
            // Connection refused: the client retries, resolving again.
            return self.retry_later(req, sched);
        }
        self.obs.lb_queued(req.id.0, lb, hops, sched.now());
        slot.lb.submit(req, hops);
        self.follow_up(Ev::LbDispatch { lb }, sched);
    }

    pub(crate) fn on_lb_dispatch(&mut self, lb: u32, sched: &mut Sched) {
        let slot = &mut self.lbs[lb as usize];
        if !slot.alive {
            return;
        }
        let (now, here) = (sched.now(), slot.lb.region());
        let mut decisions = std::mem::take(&mut self.decisions);
        slot.lb.dispatch_into(&mut decisions);
        for decision in decisions.drain(..) {
            let (to, ev) = match decision {
                Decision::Local { req, replica } => {
                    if let Some(state) = self.reqs.get_mut(&req.id.0) {
                        state.lb = Some(lb);
                    }
                    let (id, replica) = (req.id.0, replica.0);
                    self.obs.trace(
                        now,
                        Dispatched {
                            req: id,
                            lb,
                            replica,
                        },
                    );
                    let to = self.replicas[replica as usize].region;
                    (to, Ev::ReplicaReceive { replica, req })
                }
                Decision::Forward { req, peer, hops } => {
                    let (id, from) = (req.id.0, lb);
                    self.obs.trace(now, Forwarded { req: id, from });
                    let lb = peer.0;
                    let to = self.lbs[lb as usize].lb.region();
                    (to, Ev::LbReceive { lb, req, hops })
                }
            };
            let delay = self.cfg.net.sample_one_way(here, to, &mut self.rng);
            sched.after(delay, ev);
        }
        self.decisions = decisions;
    }

    pub(crate) fn on_peer_status(
        &mut self,
        to: u32,
        from: u32,
        status: (u32, u32),
        sched: &mut Sched,
    ) {
        let slot = &mut self.lbs[to as usize];
        if slot.alive {
            slot.lb.on_peer_probe(LbId(from), status.0, status.1);
            self.follow_up(Ev::LbDispatch { lb: to }, sched);
        }
    }

    /// Credits the dispatch slot request `id` held on `replica` back to
    /// the balancer that placed it, returning that balancer so callers
    /// can let it dispatch into the freed capacity.
    pub(crate) fn credit_lb(&mut self, id: u64, replica: u32) -> Option<u32> {
        let lb = self.reqs.get_mut(&id)?.lb.take()?;
        self.lbs[lb as usize]
            .lb
            .on_replica_complete(ReplicaId(replica));
        Some(lb)
    }

    /// Requests stuck in a dead balancer's queue are lost; their clients
    /// retry elsewhere.
    pub(crate) fn lose_queue(&mut self, lb: u32, sched: &mut Sched) {
        for req in self.lbs[lb as usize].lb.drain_queue() {
            self.retry_later(req, sched);
        }
    }

    /// The balancer a joining replica in `region` attaches to: the
    /// balancer fronting that region if one exists, else the nearest by
    /// RTT (covers centralized deployments and joins into regions with
    /// no balancer of their own).
    pub(crate) fn home_lb_for(&self, region: Region) -> usize {
        let regions = self.lbs.iter().map(|s| s.lb.region()).enumerate();
        regions
            .min_by_key(|&(i, r)| (r != region, self.cfg.net.rtt(region, r), i))
            .expect("a scenario always deploys at least one balancer")
            .0
    }

    /// Tells balancer `id`'s peers whether it is up. Clients need no
    /// telling: they resolve against the controller, which already
    /// flipped it.
    fn set_lb_health(&mut self, id: LbId, healthy: bool) {
        for (j, peer) in self.lbs.iter_mut().enumerate() {
            if j as u32 != id.0 {
                peer.lb.set_peer_alive(id, healthy);
            }
        }
    }

    pub(crate) fn apply_control_actions(&mut self, actions: Vec<ControlAction>, sched: &mut Sched) {
        for action in actions {
            match action {
                ControlAction::LbFailed(id) => {
                    self.set_lb_health(id, false);
                    self.lose_queue(id.0, sched);
                }
                ControlAction::LbRecovered(id) => self.set_lb_health(id, true),
                ControlAction::Reassign { replica, from, to } => {
                    self.lbs[from.0 as usize].lb.remove_replica(replica);
                    // Preserve the replica's true region: a re-homed
                    // replica is remote to its adoptive balancer, and
                    // locality-aware policies should see that.
                    let region = self.replicas[replica.0 as usize].region;
                    self.lbs[to.0 as usize].lb.add_replica_in(replica, region);
                    sched.at(sched.now(), Ev::LbDispatch { lb: to.0 });
                }
            }
        }
    }
}
