//! The replica layer: everything the fabric knows about one deployed
//! replica lives in its [`ReplicaSlot`]; the handlers feed requests in,
//! drive the continuous-batching step loop, and stream outputs back.

use skywalker_core::LbId;
use skywalker_net::Region;
use skywalker_replica::{
    Advance, Completion, GpuProfile, Replica, ReplicaId, ReplicaRole, Request, RequestId,
    StepOutcome,
};
use skywalker_sim::SimTime;
use skywalker_trace::TraceEventKind::{
    Admitted, Evicted, FirstToken, Preempted, ReplicaDone, ReplicaQueued, ReplicaStall,
};

use super::disagg::DisaggStage;
use super::{Ev, Fabric, Sched};

/// Lifecycle of a deployed replica, as the fabric tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplicaHealth {
    /// Serving normally.
    Active,
    /// No new dispatch; finishing in-flight work.
    Draining,
    /// Drained to idle; permanently out of service.
    Retired,
    /// Killed; its in-flight work was failed/rerouted.
    Crashed,
}

/// One deployed replica and the fabric's per-replica bookkeeping. The
/// slot's index in `Fabric::replicas` is the replica's id.
pub(crate) struct ReplicaSlot {
    pub(crate) replica: Replica,
    pub(crate) region: Region,
    /// Serving role (mid-run joins are always colocated).
    pub(crate) role: ReplicaRole,
    pub(crate) health: ReplicaHealth,
    /// An iteration is in flight (`Ev::IterationDone` is scheduled).
    pub(crate) stepping: bool,
    /// Peak KV utilization, sampled at every probe tick it was not
    /// crashed for.
    pub(crate) kv_peak: f64,
    /// Peak outstanding requests its balancer ever saw (probe-sampled).
    pub(crate) peak_outstanding: u32,
    /// Cumulative evicted-token count at the last trace point, for
    /// emitting per-iteration eviction deltas (only while tracing).
    last_evicted: u64,
}

impl ReplicaSlot {
    /// Live for placement and fleet accounting.
    pub(crate) fn is_active(&self) -> bool {
        self.health == ReplicaHealth::Active
    }
}

impl Fabric {
    /// Deploys one replica running a clone of the scenario's engine —
    /// the single path for the initial fleet and for mid-run joins — and
    /// returns its home balancer. Decode-only replicas get no home: they
    /// are never advertised to a balancer or the controller, so the only
    /// path to them is a prefill handoff.
    pub(crate) fn add_replica(
        &mut self,
        region: Region,
        profile: GpuProfile,
        role: ReplicaRole,
    ) -> Option<u32> {
        let rid = ReplicaId(self.replicas.len() as u32);
        self.replicas.push(ReplicaSlot {
            replica: Replica::with_engine(
                rid,
                profile,
                self.engine.batch.clone(),
                self.engine.evictor.clone(),
            ),
            region,
            role,
            health: ReplicaHealth::Active,
            stepping: false,
            kv_peak: 0.0,
            peak_outstanding: 0,
            last_evicted: 0,
        });
        if role == ReplicaRole::DecodeOnly {
            return None;
        }
        let home = self.home_lb_for(region) as u32;
        self.lbs[home as usize].lb.add_replica_in(rid, region);
        // Home is the regional balancer even if currently down: the
        // controller's next check re-homes the replica to a survivor,
        // and recovery hands it back.
        self.controller.register_replica(rid, LbId(home));
        Some(home)
    }

    pub(crate) fn on_replica_receive(&mut self, replica: u32, req: Request, sched: &mut Sched) {
        let slot = &mut self.replicas[replica as usize];
        match slot.health {
            // Landed on a corpse (dispatched before the crash): treat
            // like the rest of its in-flight cohort.
            ReplicaHealth::Crashed => return self.fail_or_reroute(req, sched),
            // Raced a drain completion in transit: the replica still
            // owes this request service.
            ReplicaHealth::Retired => slot.health = ReplicaHealth::Draining,
            ReplicaHealth::Active | ReplicaHealth::Draining => {}
        }
        // A prefill-only replica runs the prompt phase and the first
        // token, then hands off. Single-token requests finish at the
        // first token anyway, so they run whole.
        let req = if slot.role == ReplicaRole::PrefillOnly && req.target_output_tokens > 1 {
            self.split_prefill_leg(req)
        } else {
            req
        };
        let (id, now) = (req.id.0, sched.now());
        self.obs.trace(now, ReplicaQueued { req: id, replica });
        self.replicas[replica as usize].replica.enqueue(req);
        sched.at(now, Ev::ReplicaKick { replica });
    }

    pub(crate) fn on_replica_kick(&mut self, replica: u32, sched: &mut Sched) {
        let i = replica as usize;
        if self.replicas[i].stepping || self.replicas[i].health == ReplicaHealth::Crashed {
            return;
        }
        loop {
            let stepped = self.replicas[i].replica.advance();
            if let (true, Some(out)) = (self.obs.tracing(), stepped.outcome()) {
                self.trace_step(replica, out, sched.now());
            }
            match stepped {
                Advance::Worked(out) => {
                    self.replicas[i].stepping = true;
                    sched.after(
                        out.duration,
                        Ev::IterationDone {
                            replica,
                            first_tokens: out.first_tokens,
                            completions: out.completions,
                        },
                    );
                    return;
                }
                Advance::Progressed(_) => {}
                // Head request can never fit: fail it and keep going.
                Advance::DroppedHead(_, dropped) => {
                    let id = self.restore_original(dropped).id.0;
                    self.credit_lb(id, replica);
                    self.fail_request(id, sched);
                }
                Advance::Idle => return,
            }
        }
    }

    /// Emits the tracer's per-iteration annotations for one step.
    fn trace_step(&mut self, replica: u32, out: &StepOutcome, now: SimTime) {
        for &RequestId(req) in &out.admitted {
            self.obs.trace(now, Admitted { req, replica });
        }
        for &RequestId(req) in &out.preempted {
            self.obs.trace(now, Preempted { req, replica });
        }
        let slot = &mut self.replicas[replica as usize];
        let evicted = slot.replica.cache().evicted_tokens();
        if evicted > slot.last_evicted {
            let tokens = evicted - slot.last_evicted;
            slot.last_evicted = evicted;
            self.obs.trace(now, Evicted { replica, tokens });
        }
        if out.worked() && out.admitted.is_empty() && slot.replica.pending_len() > 0 {
            // A whole iteration ran without room to admit the waiting
            // head: pending requests are stalled on KV memory, not on
            // compute.
            let until = now + out.duration;
            self.obs.trace(now, ReplicaStall { replica, until });
        }
    }

    pub(crate) fn on_iteration_done(
        &mut self,
        replica: u32,
        first_tokens: Vec<RequestId>,
        completions: Vec<Completion>,
        sched: &mut Sched,
    ) {
        let now = sched.now();
        let slot = &mut self.replicas[replica as usize];
        slot.stepping = false;
        let region = slot.region;
        // Outputs of an iteration that finished before a crash landed
        // still stream out (crash granularity is the iteration
        // boundary); the still-running remainder was already failed by
        // the crash itself.
        let crashed = slot.health == ReplicaHealth::Crashed;
        for id in first_tokens {
            let req = id.0;
            self.obs.trace(now, FirstToken { req, replica });
            let Some((client, stage)) = self.output_route(req) else {
                continue;
            };
            // The decode leg of a disaggregated request re-emits a
            // first token when its (cache-warm) prefill pass finishes;
            // the client already got theirs from the prefill replica.
            if stage != Some(DisaggStage::Decode) {
                let delay = self.delay_to_client(region, client);
                sched.after(delay, Ev::DeliverFirstToken { client, req: id });
            }
        }
        for c in completions {
            let req = c.id.0;
            self.obs.trace(now, ReplicaDone { req, replica });
            let Some((client, stage)) = self.output_route(req) else {
                continue;
            };
            let completion = match stage {
                Some(DisaggStage::Prefill) => {
                    // Prefill leg done: credit the dispatching balancer
                    // (the decode leg is invisible to it) and ship the
                    // KV state instead of delivering.
                    self.free_lb_slot(req, replica, sched);
                    self.start_handoff(replica, &c, sched);
                    continue;
                }
                // No balancer owns the decode leg: its slot was
                // credited at the handoff.
                Some(DisaggStage::Decode) => self.merge_decode_leg(c),
                None => {
                    self.free_lb_slot(req, replica, sched);
                    c
                }
            };
            let delay = self.delay_to_client(region, client);
            sched.after(delay, Ev::DeliverCompletion { client, completion });
        }
        if !crashed {
            let slot = &mut self.replicas[replica as usize];
            if slot.health == ReplicaHealth::Draining && slot.replica.is_idle() {
                slot.health = ReplicaHealth::Retired;
            }
            sched.at(now, Ev::ReplicaKick { replica });
        }
    }

    /// A request finished on `replica`: credit its balancer and let it
    /// dispatch into the freed capacity.
    fn free_lb_slot(&mut self, id: u64, replica: u32, sched: &mut Sched) {
        if let Some(lb) = self.credit_lb(id, replica) {
            sched.at(sched.now(), Ev::LbDispatch { lb });
        }
    }
}
