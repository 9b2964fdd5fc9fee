//! The client layer: the traffic stream, closed-loop client programs,
//! and the request's two client-facing edges — issue (nearest alive
//! balancer, resolved through the controller) and delivery (first
//! token, completion).
//!
//! What the layer holds follows the in-flight population, not the run
//! length. A stage's requests are *moved* out of the client's program
//! when the stage is issued (the prompts travel with the events from
//! then on), a client's programs are dropped when it retires, and a
//! request's [`ReqState`] is removed when its completion is delivered
//! and its lifecycle record has settled (the first token may trail the
//! completion). A client's [`ClientState`] slot is freed once the client
//! has retired and no `ReqState` names it, and the next admission takes
//! the slot freed last, so the client table is as long as the most
//! clients ever held at once. An event that carries a client index
//! belongs to a request whose entry still exists, so it cannot reach a
//! reused slot — but for a repeated first token, which reads nothing of
//! the slot once the entry is gone. What stays per request — and keeps
//! its client's slot — is the entry of one that terminally failed or took
//! its post-crash reroute.

use std::mem;

use skywalker_core::LbId;
use skywalker_net::Region;
use skywalker_replica::{Completion, Request, RequestId};
use skywalker_sim::{DetRng, SimDuration, SimTime};
use skywalker_workload::{ClientEvent, ClientSpec, Program, TrafficSource};

use super::disagg::DisaggStage;
use super::{Ev, Fabric, ReqState, Sched};
use crate::fabric::FabricConfig;
use crate::metrics::RunReport;
use crate::trace::TraceEventKind::RetryWait;

pub(crate) struct ClientState {
    region: Region,
    /// The client's programs. An issued stage is left behind empty, so
    /// the stage counts [`advance`](Self::advance) reads never change;
    /// emptied outright when the client retires.
    programs: Vec<Program>,
    program_idx: usize,
    stage_idx: usize,
    inflight: u32,
    /// `Fabric::reqs` entries that name this client.
    entries: u32,
    finished: bool,
}

impl ClientState {
    /// Retired, and named by no request entry: no event can reach the
    /// slot any more, so it is free (or is being freed).
    fn is_free(&self) -> bool {
        self.finished && self.entries == 0
    }

    /// Moves past the stage that just drained, skipping empty programs;
    /// marks the client finished when no program is left.
    fn advance(&mut self) {
        if let Some(p) = self.programs.get(self.program_idx) {
            self.stage_idx += 1;
            if self.stage_idx >= p.stages.len() {
                self.program_idx += 1;
                self.stage_idx = 0;
            }
        }
        while self
            .programs
            .get(self.program_idx)
            .is_some_and(|p| p.stages.is_empty())
        {
            self.program_idx += 1;
        }
        self.finished = self.programs.get(self.program_idx).is_none();
    }
}

/// The scenario's traffic stream as the run pulls it.
pub(crate) struct Traffic {
    pub(crate) source: Box<dyn TrafficSource>,
    /// Randomness stream handed to the source (separate from the
    /// network stream, so sources cannot perturb latency sampling).
    pub(crate) rng: DetRng,
    /// Cached `source.is_exhausted()` — part of the stop condition.
    pub(crate) exhausted: bool,
    /// Arrivals pulled from the source but not yet come online.
    pub(crate) pending_arrivals: usize,
}

impl Fabric {
    pub(crate) fn on_traffic_poll(&mut self, sched: &mut Sched) {
        // Pull one poll interval ahead so every arrival can be scheduled
        // at its exact instant instead of being quantized to poll
        // boundaries.
        let horizon = sched.now() + FabricConfig::POLL_INTERVAL;
        let t = &mut self.traffic;
        for ClientEvent { at, spec } in t.source.next_batch(horizon, &mut t.rng) {
            t.pending_arrivals += 1;
            sched.at(at, Ev::ClientArrive { spec });
        }
        t.exhausted = t.source.is_exhausted();
        if t.exhausted {
            self.maybe_stop(sched);
        } else {
            sched.after(FabricConfig::POLL_INTERVAL, Ev::TrafficPoll);
        }
    }

    /// Brings one client online — the single admission path for the
    /// t = 0 cohort and for streamed arrivals — in the slot freed last,
    /// or a new one, and returns its index.
    pub(crate) fn admit(&mut self, spec: ClientSpec) -> usize {
        let state = ClientState {
            region: spec.region,
            programs: spec.programs,
            program_idx: 0,
            stage_idx: 0,
            inflight: 0,
            entries: 0,
            finished: false,
        };
        self.active_clients += 1;
        if let Some(slot) = self.free_clients.pop() {
            let slot = slot as usize;
            self.clients[slot] = state;
            return slot;
        }
        self.clients.push(state);
        self.clients.len() - 1
    }

    pub(crate) fn on_client_arrive(&mut self, spec: ClientSpec, sched: &mut Sched) {
        self.traffic.pending_arrivals -= 1;
        let client = self.admit(spec);
        sched.at(sched.now(), Ev::IssueStage { client });
    }

    pub(crate) fn on_issue_stage(&mut self, client: usize, sched: &mut Sched) {
        let c = &mut self.clients[client];
        let program = c.programs.get_mut(c.program_idx);
        let stage = program.and_then(|p| p.stages.get_mut(c.stage_idx));
        let reqs = stage.map(mem::take).unwrap_or_default();
        if reqs.is_empty() {
            // Nothing to wait for — an empty stage, or a client with no
            // stage to start on: move past it at once.
            return self.stage_drained(client, sched);
        }
        c.inflight = reqs.len() as u32;
        c.entries += reqs.len() as u32;
        for req in reqs {
            let (id, now) = (req.id.0, sched.now());
            let state = ReqState {
                client: client as u32,
                lb: None,
                rerouted: false,
                disagg: None,
                record: self.obs.arrival(id, req.prompt_len().into(), now),
            };
            self.reqs.insert(id, state);
            self.send_request(client, req, sched);
        }
    }

    pub(crate) fn on_retry(&mut self, client: usize, req: Request, sched: &mut Sched) {
        debug_assert!(!self.clients[client].is_free());
        let record = self.reqs.get_mut(&req.id.0).map(|s| &mut s.record);
        self.obs.retry(record, req.id.0, sched.now());
        self.send_request(client, req, sched);
    }

    /// Resolves the client's entry balancer — the nearest one the
    /// controller holds alive, as latency-based DNS would (§4.1) — and
    /// puts the request on the wire toward it; during a total outage the
    /// client waits and retries.
    fn send_request(&mut self, client: usize, req: Request, sched: &mut Sched) {
        let region = self.clients[client].region;
        let Some(LbId(lb)) = self.controller.resolve(region) else {
            return self.retry_later(req, sched);
        };
        let to = self.lbs[lb as usize].lb.region();
        let delay = self.cfg.net.sample_one_way(region, to, &mut self.rng);
        sched.after(delay, Ev::LbReceive { lb, req, hops: 0 });
    }

    /// A request lost before reaching a replica (dead balancer, dropped
    /// queue, no balancer alive): its client backs off, then re-issues it.
    pub(crate) fn retry_later(&mut self, req: Request, sched: &mut Sched) {
        if let Some(state) = self.reqs.get(&req.id.0) {
            let client = state.client as usize;
            self.obs.trace(sched.now(), RetryWait { req: req.id.0 });
            sched.after(FabricConfig::RETRY_DELAY, Ev::Retry { client, req });
        }
    }

    /// Who receives a replica's output for request `id`, and which leg
    /// of a disaggregated request produced it (`None` for a colocated
    /// one) — or `None` once the request's entry is gone.
    pub(crate) fn output_route(&self, id: u64) -> Option<(usize, Option<DisaggStage>)> {
        let state = self.reqs.get(&id)?;
        let stage = state.disagg.as_ref().map(|m| m.stage);
        Some((state.client as usize, stage))
    }

    /// Samples the wire leg carrying a replica's output from `from` back
    /// to `client`.
    pub(crate) fn delay_to_client(&mut self, from: Region, client: usize) -> SimDuration {
        let to = self.clients[client].region;
        self.cfg.net.sample_one_way(from, to, &mut self.rng)
    }

    pub(crate) fn on_first_token(&mut self, client: usize, req: RequestId, sched: &mut Sched) {
        let record = self.reqs.get_mut(&req.0).map(|s| &mut s.record);
        // A repeated first token (a preempted request streams one again)
        // may trail its entry; its slot may then hold another client,
        // whose region nothing reads, as there is no record to time.
        debug_assert!(record.is_none() || !self.clients[client].is_free());
        let region = self.clients[client].region;
        self.obs
            .first_token_delivered(record, req.0, region, sched.now());
        self.release_if_done(req.0);
    }

    pub(crate) fn on_completion(&mut self, client: usize, done: Completion, sched: &mut Sched) {
        debug_assert!(!self.clients[client].is_free());
        let record = self.reqs.get_mut(&done.id.0).map(|s| &mut s.record);
        self.obs.delivered(record, &done, sched.now());
        self.release_if_done(done.id.0);
        self.request_finished(client, sched);
    }

    /// Removes request `id`'s entry once nothing reads it any more: it is
    /// delivered, its record has settled, and it did not take its
    /// post-crash reroute — the crashed replica's last finished
    /// iteration may still owe a rerouted request a first token, and
    /// `output_route` must keep finding it.
    fn release_if_done(&mut self, id: u64) {
        let done = |s: &ReqState| !s.rerouted && s.record.is_completed() && s.record.is_settled();
        let state = self.reqs.get(&id).filter(|s| done(s));
        if let Some(client) = state.map(|s| s.client as usize) {
            self.reqs.remove(&id);
            self.clients[client].entries -= 1;
            self.free_if_done(client);
        }
    }

    /// Frees `client`'s slot for the next admission once it is free: the
    /// client retired, and no request entry names it.
    fn free_if_done(&mut self, client: usize) {
        if self.clients[client].is_free() {
            self.free_clients.push(client as u32);
        }
    }

    /// The run's report at `end`, over every record the table still
    /// holds: an order-free walk, as the report only sums and sorts.
    pub(crate) fn report(&mut self, end: SimTime) -> RunReport {
        let open = self.reqs.values().map(|s| &s.record);
        self.obs.ledger.report(open, end)
    }

    /// Whether every entry is one a drained run may still hold: a failed
    /// or rerouted request's, which stays by design, or a delivered one's
    /// whose first token was still on the wire (an order-free walk,
    /// debug builds only).
    pub(crate) fn entries_retired(&self) -> bool {
        self.reqs.values().all(|s| {
            let awaits_first_token = s.record.is_completed() && !s.record.is_settled();
            s.rerouted || s.record.is_failed() || awaits_first_token
        })
    }

    /// Counts request `id` terminally failed and releases its client.
    pub(crate) fn fail_request(&mut self, id: u64, sched: &mut Sched) {
        let record = self.reqs.get_mut(&id).map(|s| &mut s.record);
        self.obs.failed(record, id, sched.now());
        if let Some(state) = self.reqs.get(&id) {
            self.request_finished(state.client as usize, sched);
        }
    }

    /// Marks one in-flight request of `client` finished and moves the
    /// client on if that drained its stage.
    fn request_finished(&mut self, client: usize, sched: &mut Sched) {
        let c = &mut self.clients[client];
        c.inflight = c.inflight.saturating_sub(1);
        if !c.finished && c.inflight == 0 {
            self.stage_drained(client, sched);
        }
    }

    /// Schedules the stage after the one `client` just drained, or
    /// retires the client and releases its programs.
    fn stage_drained(&mut self, client: usize, sched: &mut Sched) {
        let c = &mut self.clients[client];
        c.advance();
        if c.finished {
            c.programs = Vec::new();
            self.active_clients -= 1;
            self.free_if_done(client);
            self.maybe_stop(sched);
        } else {
            sched.after(SimDuration::ZERO, Ev::IssueStage { client });
        }
    }

    /// Ends the run once nothing can generate further work: the source
    /// has no more arrivals, none are in flight to admission, and every
    /// admitted client has finished.
    fn maybe_stop(&self, sched: &mut Sched) {
        let t = &self.traffic;
        if t.exhausted && t.pending_arrivals == 0 && self.active_clients == 0 {
            sched.stop();
        }
    }
}
