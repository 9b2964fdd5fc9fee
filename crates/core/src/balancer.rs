//! The regional load balancer (Alg. 1, §3).
//!
//! One [`RegionalBalancer`] runs per region as the first point of contact
//! for that region's clients. It owns:
//!
//! - a FCFS request queue (§4.1);
//! - probe-driven views of its local replicas ([`ReplicaState`]) and of
//!   its peer balancers ([`PeerState`]) — Alg. 1's `MonitorAvailability`;
//! - a local routing policy over replicas and a remote policy over peers
//!   (the *regional snapshot* trie, or a ring for SkyWalker-CH) —
//!   Alg. 1's `SelectCandidate` at both layers of the two-layer design
//!   (§3.1).
//!
//! Dispatch follows `HandleRequest` exactly: when a request reaches the
//! queue head, available local replicas are preferred; only when *no*
//! local replica can admit work is the request forwarded to an available
//! remote balancer, which makes the final placement inside its own
//! region. Forwarded requests are never forwarded again (hop limit), so
//! no request ping-pongs across the planet.
//!
//! The balancer is deliberately I/O-free: probes and requests arrive via
//! method calls, decisions leave as [`Decision`] values. The simulation
//! fabric and the live TCP server drive the same code.

use std::collections::{BTreeMap, VecDeque};

use skywalker_net::Region;
use skywalker_replica::{ReplicaId, Request};

use crate::gdpr::RoutingConstraint;
use crate::policy::{PolicyKind, PolicyParams, RoutingPolicy, TargetState};
use crate::pushing::{PushMode, ReplicaState};
use crate::ring::RingTarget;

/// A load-balancer identifier, unique within one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LbId(pub u32);

impl std::fmt::Display for LbId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lb-{}", self.0)
    }
}

impl RingTarget for LbId {
    fn ring_id(&self) -> u64 {
        u64::from(self.0) ^ 0x1b_0000_0000
    }
}

impl RingTarget for ReplicaId {
    fn ring_id(&self) -> u64 {
        u64::from(self.0)
    }
}

/// Probe-driven view of a peer balancer (Alg. 1 lines 9–15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerState {
    /// The peer.
    pub id: LbId,
    /// Region the peer serves.
    pub region: Region,
    /// Replicas the peer reported as able to admit work.
    pub available_replicas: u32,
    /// The peer's queue length at the last probe.
    pub queue_len: u32,
    /// False while the controller considers the peer failed.
    pub alive: bool,
}

/// Balancer configuration.
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// Region this balancer fronts.
    pub region: Region,
    /// Built-in placement policy used at both layers when the balancer is
    /// constructed via [`RegionalBalancer::new`]. Custom policies ignore
    /// this field and come in through [`RegionalBalancer::with_factory`].
    pub policy: PolicyKind,
    /// Admission discipline for local replicas (§3.3).
    pub push_mode: PushMode,
    /// Queue-length buffer τ: a peer is available only if its queue is at
    /// most this (Alg. 1 line 12).
    pub tau: u32,
    /// Construction parameters of the policies at both layers (trie
    /// bound, affinity threshold, load-gap override).
    pub params: PolicyParams,
    /// Maximum LB-to-LB hops (1 = a request is forwarded at most once).
    pub max_hops: u8,
    /// Regulatory forwarding constraint (§4.1).
    pub constraint: RoutingConstraint,
}

impl BalancerConfig {
    /// The paper's SkyWalker configuration: prefix-tree policy, SP-P
    /// pushing, τ = 4, one forwarding hop.
    pub fn skywalker(region: Region) -> Self {
        BalancerConfig {
            push_mode: PushMode::Pending,
            tau: 4,
            max_hops: 1,
            ..Self::baseline(region, PolicyKind::CacheAware)
        }
    }

    /// SkyWalker-CH: consistent hashing at both layers, SP-P pushing.
    pub fn skywalker_ch(region: Region) -> Self {
        BalancerConfig {
            policy: PolicyKind::ConsistentHash,
            ..Self::skywalker(region)
        }
    }

    /// A single-region baseline (RR/LL/CH/SGL): the given policy with
    /// blind pushing and no cross-region forwarding.
    pub fn baseline(region: Region, policy: PolicyKind) -> Self {
        BalancerConfig {
            region,
            policy,
            push_mode: PushMode::Blind,
            tau: 0,
            params: PolicyParams::default(),
            max_hops: 0,
            constraint: RoutingConstraint::Unrestricted,
        }
    }
}

/// Builds the pair of policies a balancer runs — one over its local
/// replicas, one over its peer balancers (the two layers of §3.1).
///
/// [`PolicyKind`] implements this for the four built-ins; custom systems
/// implement it once and plug into the scenario fabric and the live
/// servers without touching this crate.
pub trait PolicyFactory: std::fmt::Debug + Send + Sync {
    /// The replica-layer policy for a balancer with configuration `cfg`.
    fn build_local(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<ReplicaId>>;

    /// The peer-layer (cross-region) policy for a balancer with
    /// configuration `cfg`.
    fn build_remote(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<LbId>>;

    /// Display label for experiment tables.
    fn label(&self) -> String;
}

impl PolicyFactory for PolicyKind {
    fn build_local(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<ReplicaId>> {
        self.build(&cfg.params)
    }

    fn build_remote(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<LbId>> {
        self.build(&cfg.params)
    }

    fn label(&self) -> String {
        PolicyKind::label(self).to_string()
    }
}

/// A queued request with its forwarding history.
#[derive(Debug, Clone)]
struct Queued {
    req: Request,
    hops: u8,
}

/// A routing decision leaving the balancer.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Send to a local replica.
    Local {
        /// The request.
        req: Request,
        /// The chosen replica.
        replica: ReplicaId,
    },
    /// Forward to a peer balancer (which will place it in its region).
    Forward {
        /// The request.
        req: Request,
        /// The chosen peer.
        peer: LbId,
        /// Hop count *after* this forward.
        hops: u8,
    },
}

/// Counters for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalancerStats {
    /// Requests accepted into the queue.
    pub received: u64,
    /// Requests dispatched to local replicas.
    pub dispatched_local: u64,
    /// Requests forwarded to peers.
    pub forwarded: u64,
    /// Largest queue length observed.
    pub peak_queue: usize,
}

/// The per-region load balancer.
#[derive(Debug)]
pub struct RegionalBalancer {
    id: LbId,
    cfg: BalancerConfig,
    queue: VecDeque<Queued>,
    /// One record per managed replica: its region, its probed view and
    /// what this balancer has dispatched to it.
    replicas: BTreeMap<ReplicaId, ReplicaState>,
    peers: BTreeMap<LbId, PeerState>,
    local_policy: Box<dyn RoutingPolicy<ReplicaId>>,
    remote_policy: Box<dyn RoutingPolicy<LbId>>,
    stats: BalancerStats,
    /// Candidate buffers reused across [`dispatch`](Self::dispatch)
    /// iterations: the drain loop rebuilds the candidate set per queue
    /// head, and these keep that rebuild allocation-free.
    local_scratch: Vec<TargetState<ReplicaId>>,
    remote_scratch: Vec<TargetState<LbId>>,
}

impl RegionalBalancer {
    /// Creates a balancer with no replicas or peers, running the built-in
    /// policy named by `cfg.policy` at both layers.
    pub fn new(id: LbId, cfg: BalancerConfig) -> Self {
        let kind = cfg.policy;
        Self::with_factory(id, cfg, &kind)
    }

    /// Creates a balancer whose policies come from `factory` — the open
    /// entry point for policies that are not [`PolicyKind`] built-ins.
    pub fn with_factory(id: LbId, cfg: BalancerConfig, factory: &dyn PolicyFactory) -> Self {
        RegionalBalancer {
            id,
            cfg,
            queue: VecDeque::new(),
            replicas: BTreeMap::new(),
            peers: BTreeMap::new(),
            local_policy: factory.build_local(&cfg),
            remote_policy: factory.build_remote(&cfg),
            stats: BalancerStats::default(),
            local_scratch: Vec::new(),
            remote_scratch: Vec::new(),
        }
    }

    /// This balancer's id.
    pub fn id(&self) -> LbId {
        self.id
    }

    /// This balancer's region.
    pub fn region(&self) -> Region {
        self.cfg.region
    }

    /// Registers a replica served from this balancer's own region
    /// (initially idle).
    pub fn add_replica(&mut self, id: ReplicaId) {
        let region = self.cfg.region;
        self.add_replica_in(id, region);
    }

    /// Registers a replica served from an explicit region — the honest
    /// form for centralized deployments fronting a multi-region fleet
    /// and for controller re-homing, so locality-aware policies see
    /// where each candidate really is. An id this balancer already
    /// holds starts afresh, like any other registration.
    pub fn add_replica_in(&mut self, id: ReplicaId, region: Region) {
        self.replicas.insert(id, ReplicaState::new(id, region));
        self.local_policy.add_target(id);
    }

    /// Removes a replica (controller re-homing or decommission).
    pub fn remove_replica(&mut self, id: ReplicaId) {
        self.replicas.remove(&id);
        self.local_policy.remove_target(id);
    }

    /// The managed replicas' records, in id order.
    pub fn replica_states(&self) -> impl Iterator<Item = &ReplicaState> {
        self.replicas.values()
    }

    /// Registers a peer balancer.
    pub fn add_peer(&mut self, id: LbId, region: Region) {
        self.peers.insert(
            id,
            PeerState {
                id,
                region,
                available_replicas: 0,
                queue_len: 0,
                alive: true,
            },
        );
        self.remote_policy.add_target(id);
    }

    /// Removes a peer.
    pub fn remove_peer(&mut self, id: LbId) {
        self.peers.remove(&id);
        self.remote_policy.remove_target(id);
    }

    /// Marks a peer failed or recovered (controller-driven).
    pub fn set_peer_alive(&mut self, id: LbId, alive: bool) {
        if let Some(p) = self.peers.get_mut(&id) {
            p.alive = alive;
        }
    }

    /// Ingests a replica heartbeat probe (Alg. 1 lines 3–8).
    pub fn on_replica_probe(
        &mut self,
        id: ReplicaId,
        pending: u32,
        running: u32,
        kv_utilization: f64,
    ) {
        if let Some(r) = self.replicas.get_mut(&id) {
            r.refresh(pending, running, kv_utilization);
        }
    }

    /// Probes every managed replica in one walk, in id order: `probe`
    /// sees a replica's record and answers with its `(pending, running,
    /// kv_utilization)` — [`on_replica_probe`](Self::on_replica_probe)
    /// for a caller that holds all the replicas.
    pub fn probe_replicas(&mut self, mut probe: impl FnMut(&ReplicaState) -> (u32, u32, f64)) {
        for r in self.replicas.values_mut() {
            let (pending, running, kv_utilization) = probe(r);
            r.refresh(pending, running, kv_utilization);
        }
    }

    /// Ingests a peer heartbeat probe (Alg. 1 lines 9–15).
    pub fn on_peer_probe(&mut self, id: LbId, available_replicas: u32, queue_len: u32) {
        if let Some(p) = self.peers.get_mut(&id) {
            p.available_replicas = available_replicas;
            p.queue_len = queue_len;
        }
    }

    /// Notes a completion on a local replica (frees an outstanding slot).
    pub fn on_replica_complete(&mut self, id: ReplicaId) {
        if let Some(r) = self.replicas.get_mut(&id) {
            r.outstanding = r.outstanding.saturating_sub(1);
        }
    }

    /// Accepts a request into the FCFS queue. `hops` is how many LB-to-LB
    /// forwards the request has already taken (0 for client traffic).
    pub fn submit(&mut self, req: Request, hops: u8) {
        self.stats.received += 1;
        self.queue.push_back(Queued { req, hops });
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    /// Current queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Empties the queue, returning the stranded requests — used when
    /// this balancer crashes and its clients must retry elsewhere (§4.2).
    pub fn drain_queue(&mut self) -> Vec<Request> {
        self.queue.drain(..).map(|q| q.req).collect()
    }

    /// The status this balancer reports to probing peers: how many local
    /// replicas can admit work, and the queue length.
    pub fn status(&self) -> (u32, u32) {
        let avail = self
            .replicas
            .values()
            .filter(|r| self.cfg.push_mode.replica_available(r))
            .count() as u32;
        (avail, self.queue.len() as u32)
    }

    /// Requests dispatched to this balancer's replicas and not yet
    /// completed — the per-region load signal fleet plans read.
    pub fn outstanding(&self) -> u32 {
        self.replicas.values().map(|r| r.outstanding).sum()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> BalancerStats {
        self.stats
    }

    /// Drains the queue head-first while requests are routable (Alg. 1
    /// `HandleRequest`): local available replicas first; if none, an
    /// available remote balancer; if neither, the head waits (FCFS).
    pub fn dispatch(&mut self) -> Vec<Decision> {
        let mut out = Vec::new();
        let mut local_candidates = std::mem::take(&mut self.local_scratch);
        let mut remote_candidates = std::mem::take(&mut self.remote_scratch);
        while let Some(head) = self.queue.front() {
            local_candidates.clear();
            self.fill_local_candidates(&mut local_candidates);
            if !local_candidates.is_empty() {
                let q = self.queue.pop_front().expect("front checked");
                let replica = self
                    .local_policy
                    .select(&q.req.session_key, &q.req.prompt, &local_candidates)
                    .expect("candidates non-empty");
                self.note_local_dispatch(&q.req, replica);
                out.push(Decision::Local {
                    req: q.req,
                    replica,
                });
                continue;
            }
            // No local capacity: consider remote regions, unless this
            // request already used its hop budget.
            if head.hops >= self.cfg.max_hops {
                break;
            }
            remote_candidates.clear();
            self.fill_remote_candidates(&mut remote_candidates);
            if remote_candidates.is_empty() {
                break;
            }
            let q = self.queue.pop_front().expect("front checked");
            let peer = self
                .remote_policy
                .select(&q.req.session_key, &q.req.prompt, &remote_candidates)
                .expect("candidates non-empty");
            // Regional snapshot learns what we sent there (§3.2).
            self.remote_policy.note_dispatch(&q.req.prompt, peer);
            // Optimistic queue estimate so a burst does not dump its
            // entire volume on one peer between probes.
            if let Some(p) = self.peers.get_mut(&peer) {
                p.queue_len += 1;
            }
            self.stats.forwarded += 1;
            out.push(Decision::Forward {
                req: q.req,
                peer,
                hops: q.hops + 1,
            });
        }
        self.local_scratch = local_candidates;
        self.remote_scratch = remote_candidates;
        out
    }

    fn fill_local_candidates(&self, out: &mut Vec<TargetState<ReplicaId>>) {
        out.extend(
            self.replicas
                .values()
                .filter(|r| self.cfg.push_mode.replica_available(r))
                .map(|r| TargetState::new(r.id, r.outstanding).in_region(r.region)),
        );
    }

    fn fill_remote_candidates(&self, out: &mut Vec<TargetState<LbId>>) {
        out.extend(
            self.peers
                .values()
                .filter(|p| {
                    p.alive
                        && p.available_replicas > 0
                        && p.queue_len <= self.cfg.tau
                        && self.cfg.constraint.allows(self.cfg.region, p.region)
                })
                .map(|p| TargetState::new(p.id, p.queue_len).in_region(p.region)),
        );
    }

    fn note_local_dispatch(&mut self, req: &Request, replica: ReplicaId) {
        self.local_policy.note_dispatch(&req.prompt, replica);
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.outstanding += 1;
            r.dispatched_since_probe += 1;
            r.dispatched += 1;
        }
        self.stats.dispatched_local += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, key: &str, prompt: Vec<u32>) -> Request {
        Request::new(id, key, prompt, 8)
    }

    fn skywalker_lb() -> RegionalBalancer {
        let mut lb = RegionalBalancer::new(LbId(0), BalancerConfig::skywalker(Region::UsEast));
        for i in 0..3 {
            lb.add_replica(ReplicaId(i));
        }
        lb
    }

    #[test]
    fn local_dispatch_when_replicas_available() {
        let mut lb = skywalker_lb();
        lb.submit(req(1, "u1", vec![1, 2, 3]), 0);
        let ds = lb.dispatch();
        assert_eq!(ds.len(), 1);
        assert!(matches!(ds[0], Decision::Local { .. }));
        assert_eq!(lb.stats().dispatched_local, 1);
        assert_eq!(lb.queue_len(), 0);
    }

    #[test]
    fn sp_p_queues_when_all_replicas_pending() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 1, 10, 0.9); // all full
        }
        lb.submit(req(1, "u1", vec![1]), 0);
        assert!(lb.dispatch().is_empty(), "nothing available, FCFS waits");
        assert_eq!(lb.queue_len(), 1);
        // A probe showing a free replica unblocks the head.
        lb.on_replica_probe(ReplicaId(2), 0, 5, 0.5);
        let ds = lb.dispatch();
        assert_eq!(ds.len(), 1);
        match &ds[0] {
            Decision::Local { replica, .. } => assert_eq!(*replica, ReplicaId(2)),
            other => panic!("expected local dispatch, got {other:?}"),
        }
    }

    #[test]
    fn forwards_to_available_peer_when_local_full() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 2, 10, 1.0);
        }
        lb.add_peer(LbId(1), Region::EuWest);
        lb.on_peer_probe(LbId(1), 4, 0);
        lb.submit(req(1, "u1", vec![1, 2]), 0);
        let ds = lb.dispatch();
        assert_eq!(ds.len(), 1);
        match &ds[0] {
            Decision::Forward { peer, hops, .. } => {
                assert_eq!(*peer, LbId(1));
                assert_eq!(*hops, 1);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(lb.stats().forwarded, 1);
    }

    #[test]
    fn local_always_preferred_over_remote() {
        let mut lb = skywalker_lb();
        lb.add_peer(LbId(1), Region::EuWest);
        lb.on_peer_probe(LbId(1), 4, 0);
        lb.submit(req(1, "u1", vec![1]), 0);
        let ds = lb.dispatch();
        assert!(matches!(ds[0], Decision::Local { .. }));
    }

    #[test]
    fn forwarded_requests_never_reforwarded() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 1, 10, 1.0);
        }
        lb.add_peer(LbId(1), Region::EuWest);
        lb.on_peer_probe(LbId(1), 4, 0);
        // This request already hopped once: it must wait for local
        // capacity rather than bounce onward.
        lb.submit(req(1, "u1", vec![1]), 1);
        assert!(lb.dispatch().is_empty());
        assert_eq!(lb.queue_len(), 1);
    }

    #[test]
    fn peer_unavailable_when_queue_exceeds_tau() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 1, 10, 1.0);
        }
        lb.add_peer(LbId(1), Region::EuWest);
        lb.on_peer_probe(LbId(1), 4, 5); // τ = 4 < 5
        lb.submit(req(1, "u1", vec![1]), 0);
        assert!(lb.dispatch().is_empty());
        // And when it has no available replicas.
        lb.on_peer_probe(LbId(1), 0, 0);
        assert!(lb.dispatch().is_empty());
        // Healthy again.
        lb.on_peer_probe(LbId(1), 1, 0);
        assert_eq!(lb.dispatch().len(), 1);
    }

    #[test]
    fn dead_peers_skipped() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 1, 10, 1.0);
        }
        lb.add_peer(LbId(1), Region::EuWest);
        lb.on_peer_probe(LbId(1), 4, 0);
        lb.set_peer_alive(LbId(1), false);
        lb.submit(req(1, "u1", vec![1]), 0);
        assert!(lb.dispatch().is_empty());
        lb.set_peer_alive(LbId(1), true);
        assert_eq!(lb.dispatch().len(), 1);
    }

    #[test]
    fn gdpr_constraint_filters_peers() {
        let mut lb = RegionalBalancer::new(
            LbId(0),
            BalancerConfig {
                constraint: RoutingConstraint::GdprEu,
                ..BalancerConfig::skywalker(Region::EuWest)
            },
        );
        lb.add_replica(ReplicaId(0));
        lb.on_replica_probe(ReplicaId(0), 1, 10, 1.0);
        lb.add_peer(LbId(1), Region::UsEast);
        lb.add_peer(LbId(2), Region::EuCentral);
        lb.on_peer_probe(LbId(1), 4, 0);
        lb.on_peer_probe(LbId(2), 4, 0);
        lb.submit(req(1, "eu-user", vec![1]), 0);
        let ds = lb.dispatch();
        match &ds[0] {
            Decision::Forward { peer, .. } => {
                assert_eq!(*peer, LbId(2), "EU traffic must stay in the EU")
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn fcfs_head_blocks_tail() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 1, 10, 1.0);
        }
        // Head is a forwarded request (can't leave again); a later local
        // request must NOT jump the queue.
        lb.submit(req(1, "u1", vec![1]), 1);
        lb.submit(req(2, "u2", vec![2]), 0);
        lb.add_peer(LbId(1), Region::EuWest);
        lb.on_peer_probe(LbId(1), 4, 0);
        assert!(lb.dispatch().is_empty(), "FCFS: blocked head blocks all");
        assert_eq!(lb.queue_len(), 2);
    }

    #[test]
    fn completions_free_outstanding_slots() {
        let mut lb = RegionalBalancer::new(
            LbId(0),
            BalancerConfig {
                push_mode: PushMode::Outstanding { max: 1 },
                ..BalancerConfig::skywalker(Region::UsEast)
            },
        );
        lb.add_replica(ReplicaId(0));
        lb.submit(req(1, "u", vec![1]), 0);
        lb.submit(req(2, "u", vec![2]), 0);
        assert_eq!(lb.dispatch().len(), 1, "SP-O cap of 1");
        assert_eq!(lb.queue_len(), 1);
        lb.on_replica_complete(ReplicaId(0));
        assert_eq!(lb.dispatch().len(), 1);
    }

    #[test]
    fn blind_pushing_floods_regardless_of_probes() {
        let mut lb = RegionalBalancer::new(
            LbId(0),
            BalancerConfig::baseline(Region::UsEast, PolicyKind::RoundRobin),
        );
        for i in 0..2 {
            lb.add_replica(ReplicaId(i));
            lb.on_replica_probe(ReplicaId(i), 50, 50, 1.0);
        }
        for i in 0..10 {
            lb.submit(req(i, "u", vec![1]), 0);
        }
        assert_eq!(lb.dispatch().len(), 10, "BP never queues at the LB");
    }

    #[test]
    fn status_reports_availability_and_queue() {
        let mut lb = skywalker_lb();
        assert_eq!(lb.status(), (3, 0));
        lb.on_replica_probe(ReplicaId(0), 3, 10, 1.0);
        lb.submit(req(1, "u", vec![1]), 0);
        // Still queued until dispatch() is called.
        assert_eq!(lb.status(), (2, 1));
    }

    #[test]
    fn prefix_affinity_sticks_with_cache_aware_policy() {
        let mut lb = skywalker_lb();
        let prompt: Vec<u32> = (0..64).collect();
        lb.submit(req(1, "u", prompt.clone()), 0);
        let first = match &lb.dispatch()[0] {
            Decision::Local { replica, .. } => *replica,
            other => panic!("unexpected {other:?}"),
        };
        // Same prompt again: must go to the same replica even though
        // others are equally idle.
        let mut extended = prompt.clone();
        extended.extend([99, 100]);
        lb.submit(req(2, "u", extended), 0);
        match &lb.dispatch()[0] {
            Decision::Local { replica, .. } => assert_eq!(*replica, first),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replica_removal_purges_policy_state() {
        let mut lb = skywalker_lb();
        let prompt: Vec<u32> = (0..32).collect();
        lb.submit(req(1, "u", prompt.clone()), 0);
        let first = match &lb.dispatch()[0] {
            Decision::Local { replica, .. } => *replica,
            other => panic!("unexpected {other:?}"),
        };
        lb.remove_replica(first);
        lb.submit(req(2, "u", prompt), 0);
        match &lb.dispatch()[0] {
            Decision::Local { replica, .. } => assert_ne!(*replica, first),
            other => panic!("unexpected {other:?}"),
        }
    }

    mod properties {
        use super::*;
        use skywalker_sim::DetRng;

        /// Random interleavings of submits, probes, and completions must
        /// preserve FCFS order and only ever dispatch to known targets.
        /// (Seeded-random rather than proptest-driven: the workspace
        /// builds offline with no external crates.)
        #[derive(Debug, Clone)]
        enum Op {
            Submit { key: u8, prompt_len: u8 },
            ProbeReplica { idx: u8, pending: u8 },
            Complete { idx: u8 },
            PeerProbe { avail: u8, qlen: u8 },
        }

        fn random_op(rng: &mut DetRng) -> Op {
            match rng.below(4) {
                0 => Op::Submit {
                    key: rng.below(6) as u8,
                    prompt_len: rng.range(1, 20) as u8,
                },
                1 => Op::ProbeReplica {
                    idx: rng.below(3) as u8,
                    pending: rng.below(3) as u8,
                },
                2 => Op::Complete {
                    idx: rng.below(3) as u8,
                },
                _ => Op::PeerProbe {
                    avail: rng.below(4) as u8,
                    qlen: rng.below(8) as u8,
                },
            }
        }

        #[test]
        fn dispatch_targets_valid_and_fcfs() {
            for case in 0..128u64 {
                let mut rng = DetRng::for_component(case, "balancer/fcfs-property");
                let ops: Vec<Op> = (0..rng.range(1, 80)).map(|_| random_op(&mut rng)).collect();
                let mut lb =
                    RegionalBalancer::new(LbId(0), BalancerConfig::skywalker(Region::UsEast));
                for i in 0..3 {
                    lb.add_replica(ReplicaId(i));
                }
                lb.add_peer(LbId(1), Region::EuWest);
                let mut next_id = 0u64;
                let mut submitted: Vec<u64> = Vec::new();
                let mut dispatched: Vec<u64> = Vec::new();
                for o in ops {
                    match o {
                        Op::Submit { key, prompt_len } => {
                            let id = next_id;
                            next_id += 1;
                            submitted.push(id);
                            lb.submit(
                                Request::new(
                                    id,
                                    format!("u{key}"),
                                    vec![u32::from(key); prompt_len as usize],
                                    4,
                                ),
                                0,
                            );
                        }
                        Op::ProbeReplica { idx, pending } => {
                            lb.on_replica_probe(
                                ReplicaId(u32::from(idx)),
                                u32::from(pending),
                                0,
                                0.5,
                            );
                        }
                        Op::Complete { idx } => {
                            lb.on_replica_complete(ReplicaId(u32::from(idx)));
                        }
                        Op::PeerProbe { avail, qlen } => {
                            lb.on_peer_probe(LbId(1), u32::from(avail), u32::from(qlen));
                        }
                    }
                    for d in lb.dispatch() {
                        match d {
                            Decision::Local { req, replica } => {
                                assert!(replica.0 < 3, "case {case}: unknown replica");
                                dispatched.push(req.id.0);
                            }
                            Decision::Forward { req, peer, hops } => {
                                assert_eq!(peer, LbId(1), "case {case}");
                                assert_eq!(hops, 1, "case {case}");
                                dispatched.push(req.id.0);
                            }
                        }
                    }
                }
                // FCFS: requests leave the queue in submission order.
                assert_eq!(
                    &dispatched[..],
                    &submitted[..dispatched.len()],
                    "case {case}: dispatch order must match submission order"
                );
                // Conservation: everything is either dispatched or queued.
                assert_eq!(
                    dispatched.len() + lb.queue_len(),
                    submitted.len(),
                    "case {case}"
                );
                // Stats agree with observed behaviour.
                let stats = lb.stats();
                assert_eq!(
                    (stats.dispatched_local + stats.forwarded) as usize,
                    dispatched.len(),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn optimistic_peer_queue_estimate_spreads_bursts() {
        let mut lb = skywalker_lb();
        for i in 0..3 {
            lb.on_replica_probe(ReplicaId(i), 1, 10, 1.0);
        }
        lb.add_peer(LbId(1), Region::EuWest);
        lb.add_peer(LbId(2), Region::ApNortheast);
        lb.on_peer_probe(LbId(1), 4, 0);
        lb.on_peer_probe(LbId(2), 4, 0);
        for i in 0..20 {
            lb.submit(req(i, &format!("u{i}"), vec![i as u32]), 0);
        }
        let ds = lb.dispatch();
        // τ = 4, so at most τ+1 forwards per peer before the optimistic
        // estimate marks it unavailable: the burst cannot all land on one.
        let to = |id: u32| {
            ds.iter()
                .filter(|d| matches!(d, Decision::Forward { peer, .. } if *peer == LbId(id)))
                .count()
        };
        assert!(to(1) <= 5);
        assert!(to(2) <= 5);
        assert_eq!(lb.queue_len(), 20 - to(1) - to(2));
    }
}
