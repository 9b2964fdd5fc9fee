//! The simulation world: the [`Ev`] vocabulary, the [`Fabric`] state,
//! and the event loop's dispatch table. Each arm of [`World::handle`]
//! calls the layer that owns the event:
//!
//! | module | owns | handles |
//! |---|---|---|
//! | [`client`] | clients, traffic source, request ledger | `TrafficPoll`, `ClientArrive`, `IssueStage`, `Retry`, `DeliverFirstToken`, `DeliverCompletion` |
//! | [`lb`] | balancer slots, controller actions | `LbReceive`, `LbDispatch`, `PeerStatus` |
//! | [`replica`] | replica slots, the step loop | `ReplicaReceive`, `ReplicaKick`, `IterationDone` |
//! | [`disagg`] | prefill→decode handoffs | `KvTransfer` |
//! | [`fleet`] | the fleet plan, joins/drains/crashes | `FleetPoll`, `FleetApply` |
//! | [`ticks`] | the periodic planes | `ProbeTick`, `HeartbeatTick`, `ControllerTick`, `TelemetryTick` |

mod client;
mod disagg;
mod fleet;
mod lb;
mod replica;
mod ticks;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use skywalker_core::Controller;
use skywalker_fleet::FleetEvent;
use skywalker_net::Region;
use skywalker_replica::{Completion, EngineSpec, Request, RequestId};
use skywalker_sim::{DetRng, Scheduler, SimTime, World};
use skywalker_workload::ClientSpec;

use super::observers::Observers;
use super::{FabricConfig, TransferSummary};

use client::ClientState;
pub(crate) use client::Traffic;
use disagg::DisaggMeta;
pub(crate) use fleet::FleetPlane;
pub(crate) use lb::LbSlot;
pub(crate) use replica::{ReplicaHealth, ReplicaSlot};

/// The scheduler every handler posts follow-up events to; it also
/// carries the current instant ([`Scheduler::now`]).
pub(crate) type Sched = Scheduler<Ev>;

pub(crate) enum Ev {
    /// Poll the traffic source for arrivals up to one poll interval
    /// ahead; reschedules itself while the source has more to give.
    TrafficPoll,
    /// A client emitted by the traffic source comes online.
    ClientArrive {
        spec: ClientSpec,
    },
    IssueStage {
        client: usize,
    },
    Retry {
        client: usize,
        req: Request,
    },
    LbReceive {
        lb: u32,
        req: Request,
        hops: u8,
    },
    LbDispatch {
        lb: u32,
    },
    ReplicaReceive {
        replica: u32,
        req: Request,
    },
    ReplicaKick {
        replica: u32,
    },
    IterationDone {
        replica: u32,
        first_tokens: Vec<RequestId>,
        completions: Vec<Completion>,
    },
    /// A disaggregated KV handoff lands at its decode replica: the
    /// modeled interconnect delay has elapsed since the prefill side
    /// shipped it. `req` is the decode leg (prompt + first token,
    /// remaining output budget, `output_offset = 1`).
    KvTransfer {
        to: u32,
        req: Request,
    },
    DeliverFirstToken {
        client: usize,
        req: RequestId,
    },
    DeliverCompletion {
        client: usize,
        completion: Completion,
    },
    ProbeTick,
    /// Sample the fabric state into the dashboard series; reschedules
    /// itself every telemetry interval. Read-only against the
    /// simulation: it writes the series, never the scheduler state, RNG
    /// streams, or any component.
    TelemetryTick,
    /// Balancer `from`'s `(available replicas, queue length)` reaches
    /// its peer `to`.
    PeerStatus {
        to: u32,
        from: u32,
        status: (u32, u32),
    },
    HeartbeatTick,
    ControllerTick,
    /// Poll the scenario's fleet plan with a fresh observation;
    /// reschedules itself while the plan has more to give.
    FleetPoll,
    /// Apply one fleet change at its exact instant.
    FleetApply {
        event: FleetEvent,
    },
}

/// Fabric-side routing state of one request, alive from its first issue
/// until its completion is delivered to the client. Entries of requests
/// that terminally failed or were rerouted after a crash stay to the end
/// of the run: the crashed replica's last finished iteration can still
/// stream a first token for them. Those are bounded by failures, not by
/// run length.
pub(crate) struct ReqState {
    /// The issuing client.
    client: usize,
    /// The balancer holding a dispatch slot for it, until the slot is
    /// credited back.
    lb: Option<u32>,
    /// Whether it already took its one post-crash reroute.
    rerouted: bool,
    /// Its prefill→decode handoff, from the prefill-replica intercept
    /// until the decode leg's completion leaves the replica (or the
    /// request fails or retries); `None` for a colocated request.
    disagg: Option<Box<DisaggMeta>>,
}

pub(crate) struct Fabric {
    /// The run's knobs, with every tick interval clamped.
    pub(crate) cfg: FabricConfig,
    /// Network-latency randomness (the only stream the world draws from
    /// directly; the traffic source gets its own).
    pub(crate) rng: DetRng,
    pub(crate) lbs: Vec<LbSlot>,
    pub(crate) replicas: Vec<ReplicaSlot>,
    /// The serving engine cloned into every replica.
    pub(crate) engine: EngineSpec,
    /// KV-handoff accounting across the prefill→decode boundary.
    pub(crate) transfers: TransferSummary,
    pub(crate) clients: Vec<ClientState>,
    pub(crate) active_clients: usize,
    pub(crate) traffic: Traffic,
    /// Requests in flight (and the few [`ReqState`] keeps longer), by
    /// id — the one table a request's routing, reroute and handoff state
    /// live in. Hashed with a fixed key: entries are removed on
    /// delivery, and a randomly keyed table's tombstones — hence the
    /// instant it regrows — would differ from run to run, which would
    /// make a run's peak heap inexact under a seed.
    pub(crate) reqs: HashMap<u64, ReqState, BuildHasherDefault<DefaultHasher>>, // det-allow(D02): lookup-only — keyed by request id; walked only by the order-free `handoffs_retired` debug check
    /// The balancer map failover acts on — and what clients resolve their
    /// entry balancer against (`Controller::resolve`).
    pub(crate) controller: Controller,
    pub(crate) forward_enabled: bool,
    pub(crate) fleet: FleetPlane,
    pub(crate) obs: Observers,
    /// Scratch for the peer-status fan-out assembled on every probe tick.
    pub(crate) probe_statuses: Vec<(u32, Region, (u32, u32))>,
}

impl World for Fabric {
    type Event = Ev;

    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Sched) {
        match ev {
            Ev::TrafficPoll => self.on_traffic_poll(sched),
            Ev::ClientArrive { spec } => self.on_client_arrive(spec, sched),
            Ev::IssueStage { client } => self.on_issue_stage(client, sched),
            Ev::Retry { client, req } => self.on_retry(client, req, sched),
            Ev::LbReceive { lb, req, hops } => self.on_lb_receive(lb, req, hops, sched),
            Ev::LbDispatch { lb } => self.on_lb_dispatch(lb, sched),
            Ev::ReplicaReceive { replica, req } => self.on_replica_receive(replica, req, sched),
            Ev::ReplicaKick { replica } => self.on_replica_kick(replica, sched),
            Ev::IterationDone {
                replica,
                first_tokens,
                completions,
            } => self.on_iteration_done(replica, first_tokens, completions, sched),
            Ev::KvTransfer { to, req } => self.on_kv_transfer(to, req, sched),
            Ev::DeliverFirstToken { client, req } => self.on_first_token(client, req, sched),
            Ev::DeliverCompletion { client, completion } => {
                self.on_completion(client, completion, sched)
            }
            Ev::ProbeTick => self.on_probe_tick(sched),
            Ev::TelemetryTick => self.on_telemetry_tick(sched),
            Ev::PeerStatus { to, from, status } => self.on_peer_status(to, from, status, sched),
            Ev::HeartbeatTick => self.on_heartbeat_tick(sched),
            Ev::ControllerTick => self.on_controller_tick(sched),
            Ev::FleetPoll => self.on_fleet_poll(sched),
            Ev::FleetApply { event } => self.on_fleet_event(event, sched),
        }
    }
}
