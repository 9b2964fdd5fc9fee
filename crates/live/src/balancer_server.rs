//! The balancer served over TCP.
//!
//! Runs a [`RegionalBalancer`] behind real sockets: clients connect and
//! send `Infer`; the server routes to its replica servers (or forwards to
//! peer balancers) per the configured policy and push mode, relaying
//! `FirstToken` / `Completed` back to whoever submitted each request. A
//! probe thread refreshes replica and peer state at the cadence the
//! server was spawned with (the paper's is 100 ms, §4.1) by sending
//! `ProbeReplica` / `ProbeLb` down the links it already holds; a replica
//! answers with `ReplicaStatus`, a peer balancer with `LbStatus`.
//!
//! Sockets, connection threads and the reply table are the skeleton's
//! ([`crate::server`]); this file is the balancer's own: its state, what
//! each message means on each [`Link`], and the prober. What a scrape
//! shows is `skywalker_telemetry::publish::balancer`, the listing the
//! simulated fabric publishes too.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use skywalker_core::{BalancerConfig, Decision, LbId, PolicyFactory, RegionalBalancer};
use skywalker_net::{Message, Region};
use skywalker_replica::{ReplicaId, Request};
use skywalker_telemetry::{prometheus_text, publish, MetricsRegistry};

use crate::client::infer_frame;
use crate::server::{Link, Outbox, Server, Service};
use crate::sync::Mutex;

pub(crate) type Balancer = Mutex<RegionalBalancer>;

impl Service for Balancer {
    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        publish::balancer(&mut reg, &self.lock());
        prometheus_text(&reg.snapshot())
    }

    /// `link` matters twice: completions on a replica link free that
    /// replica's slots, and a replica or peer link that closes is removed.
    fn on_frame(net: &Server<Self>, link: Link, msg: Message, reply: &Outbox) {
        let lb = &net.state;
        match msg {
            Message::Infer {
                request_id,
                session_key,
                prompt,
                max_new_tokens,
                hops,
            } => {
                net.expect_reply(request_id, reply);
                let req = Request::new(request_id, session_key, prompt, max_new_tokens);
                lb.lock().submit(req, hops);
            }
            Message::FirstToken { request_id } => return net.reply(request_id, msg),
            Message::Completed { request_id, .. } | Message::Reject { request_id, .. } => {
                if let Link::Replica(rid) = link {
                    lb.lock().on_replica_complete(rid);
                }
                net.reply(request_id, msg);
            }
            Message::ProbeLb => {
                let (available_replicas, queue_len) = lb.lock().status();
                return reply.send(&Message::LbStatus {
                    available_replicas,
                    queue_len,
                });
            }
            Message::ReplicaStatus {
                pending,
                running,
                kv_utilization_ppt,
            } => {
                let Link::Replica(id) = link else { return };
                let kv = f64::from(kv_utilization_ppt) / 1000.0;
                lb.lock().on_replica_probe(id, pending, running, kv);
            }
            Message::LbStatus {
                available_replicas,
                queue_len,
            } => {
                let Link::Lb(id) = link else { return };
                lb.lock().on_peer_probe(id, available_replicas, queue_len);
            }
            Message::Shutdown => match link {
                Link::Replica(id) => lb.lock().remove_replica(id),
                Link::Lb(id) => lb.lock().remove_peer(id),
                Link::Inbound => return,
            },
            _ => return,
        }
        net.try_dispatch();
    }
}

impl Server<Balancer> {
    /// Runs the dispatch loop and ships every decision out.
    fn try_dispatch(&self) {
        let decisions = self.state.lock().dispatch();
        for d in decisions {
            let (link, req, hops) = match d {
                Decision::Local { req, replica } => (Link::Replica(replica), req, 0),
                Decision::Forward { req, peer, hops } => (Link::Lb(peer), req, hops),
            };
            self.send_via(link, req.id.0, infer_frame(req, hops));
        }
    }

    /// Probes replicas and peers down the links to them (Alg. 1,
    /// `MonitorAvailability`). The answer is a frame like any other on
    /// that link: its pump hands it to the status arms of `on_frame`. A
    /// missing answer means nothing — a dead link is found by its reader.
    fn prober(&self, interval: Duration) {
        while !self.closing() {
            for (link, outbox) in self.links() {
                let probe = match link {
                    Link::Replica(_) => Message::ProbeReplica,
                    _ => Message::ProbeLb,
                };
                outbox.send(&probe);
            }
            std::thread::sleep(interval);
        }
    }
}

/// A running balancer server bound to 127.0.0.1.
pub struct BalancerServer {
    pub(crate) net: Arc<Server<Balancer>>,
}

impl BalancerServer {
    /// Binds to an ephemeral localhost port and starts serving with the
    /// given balancer configuration and probe cadence, running the
    /// built-in policy named by `cfg.policy`.
    pub fn spawn(id: LbId, cfg: BalancerConfig, probe_interval: Duration) -> io::Result<Self> {
        let kind = cfg.policy;
        Self::spawn_with_factory(id, cfg, &kind, probe_interval)
    }

    /// Binds and serves with policies built by `factory` — the same open
    /// [`RoutingPolicy`] surface the simulation fabric drives, so a
    /// custom policy runs over real sockets unchanged.
    ///
    /// [`RoutingPolicy`]: skywalker_core::RoutingPolicy
    pub fn spawn_with_factory(
        id: LbId,
        cfg: BalancerConfig,
        factory: &dyn PolicyFactory,
        probe_interval: Duration,
    ) -> io::Result<Self> {
        Self::spawn_balancer(
            RegionalBalancer::with_factory(id, cfg, factory),
            probe_interval,
        )
    }

    /// Binds and serves a pre-built balancer (lowest-level entry point;
    /// the other constructors delegate here).
    fn spawn_balancer(balancer: RegionalBalancer, probe_interval: Duration) -> io::Result<Self> {
        let net = Server::spawn(Mutex::new(balancer), move |net| net.prober(probe_interval))?;
        Ok(BalancerServer { net })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.net.addr
    }

    /// Attaches a replica server: opens the data connection and registers
    /// it with the balancer. The connection's write half is in the link
    /// table *before* the replica becomes routable, so a dispatch can
    /// never race the connection setup and drop a request; the thread
    /// that dispatches writes the `Infer` itself.
    pub fn attach_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        self.net
            .dial(addr, Link::Replica(id), |lb| lb.lock().add_replica(id))
    }

    /// Connects to a peer balancer for cross-region forwarding. As with
    /// replicas, the connection's write half is in the link table before
    /// the peer becomes a forwarding candidate.
    pub fn connect_peer(&self, id: LbId, region: Region, addr: SocketAddr) -> io::Result<()> {
        self.net
            .dial(addr, Link::Lb(id), |lb| lb.lock().add_peer(id, region))
    }

    /// Requests forwarded to peers so far.
    pub fn forwarded(&self) -> u64 {
        self.net.state.lock().stats().forwarded
    }

    /// Stops the server: joins the acceptor and the prober, closes every
    /// connection still open, and waits for its threads to end.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}
