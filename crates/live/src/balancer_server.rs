//! The balancer served over TCP.
//!
//! Runs a [`RegionalBalancer`] behind real sockets: clients connect and
//! send `Infer`; the server routes to its replica servers (or forwards to
//! peer balancers) per the configured policy and push mode, relaying
//! `FirstToken` / `Completed` back to whoever submitted each request. A
//! probe thread refreshes replica and peer state on the paper's 100 ms
//! cadence (§4.1); peer balancers probe each other with `ProbeLb` and
//! answer with `LbStatus`.
//!
//! Every connection — client, replica, or peer — is handled by the same
//! message loop; what distinguishes them is only which messages ever
//! arrive on them.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use skywalker_core::{BalancerConfig, Decision, LbId, PolicyFactory, RegionalBalancer};
use skywalker_net::{read_frame, write_frame, Message, Region};
use skywalker_replica::{ReplicaId, Request};
use skywalker_telemetry::{names, prometheus_text, MetricsRegistry};

use crate::scrape::{is_ascii_scrape, serve_ascii_scrape};
use crate::streams::OpenStreams;
use crate::sync::Mutex;

struct Shared {
    lb: Mutex<RegionalBalancer>,
    /// request id → writer of the connection awaiting its responses.
    upstreams: Mutex<HashMap<u64, Sender<Message>>>,
    /// Writers toward replica servers.
    replica_tx: Mutex<HashMap<ReplicaId, Sender<Message>>>,
    /// Writers toward peer balancers.
    peer_tx: Mutex<HashMap<LbId, Sender<Message>>>,
    /// Probe targets.
    replica_addrs: Mutex<HashMap<ReplicaId, SocketAddr>>,
    peer_addrs: Mutex<HashMap<LbId, SocketAddr>>,
    /// Client, replica and peer connections alike.
    open: OpenStreams,
    shutdown: AtomicBool,
}

impl Shared {
    /// Renders the balancer's current state as a Prometheus exposition.
    fn metrics_text(&self) -> String {
        let (stats, queue_len, avail, region) = {
            let lb = self.lb.lock();
            let (avail, _) = lb.status();
            (lb.stats(), lb.queue_len(), avail, lb.region())
        };
        let mut reg = MetricsRegistry::new();
        let labels = [("region", region.name())];
        reg.inc(names::LB_RECEIVED_TOTAL, &labels, stats.received);
        reg.inc(
            names::LB_DISPATCHED_LOCAL_TOTAL,
            &labels,
            stats.dispatched_local,
        );
        reg.inc(names::LB_FORWARDED_TOTAL, &labels, stats.forwarded);
        reg.set_gauge(names::LB_QUEUE_DEPTH, &labels, queue_len as f64);
        reg.set_gauge(names::LB_PEAK_QUEUE, &labels, stats.peak_queue as f64);
        reg.set_gauge(names::LB_AVAILABLE_REPLICAS, &labels, f64::from(avail));
        prometheus_text(&reg.snapshot())
    }

    /// Runs the dispatch loop and ships every decision out.
    fn try_dispatch(&self) {
        let decisions = self.lb.lock().dispatch();
        if decisions.is_empty() {
            return;
        }
        for d in decisions {
            match d {
                Decision::Local { req, replica } => {
                    let tx = self.replica_tx.lock().get(&replica).cloned();
                    if let Some(tx) = tx {
                        let _ = tx.send(infer_frame(&req, 0));
                    }
                }
                Decision::Forward { req, peer, hops } => {
                    let tx = self.peer_tx.lock().get(&peer).cloned();
                    if let Some(tx) = tx {
                        let _ = tx.send(infer_frame(&req, hops));
                    }
                }
            }
        }
    }
}

fn infer_frame(req: &Request, hops: u8) -> Message {
    Message::Infer {
        request_id: req.id.0,
        session_key: req.session_key.clone(),
        prompt: req.prompt.clone(),
        max_new_tokens: req.target_output_tokens,
        hops,
    }
}

/// A running balancer server bound to 127.0.0.1.
pub struct BalancerServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
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
    pub fn spawn_balancer(
        balancer: RegionalBalancer,
        probe_interval: Duration,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            lb: Mutex::new(balancer),
            upstreams: Mutex::new(HashMap::new()),
            replica_tx: Mutex::new(HashMap::new()),
            peer_tx: Mutex::new(HashMap::new()),
            replica_addrs: Mutex::new(HashMap::new()),
            peer_addrs: Mutex::new(HashMap::new()),
            open: OpenStreams::default(),
            shutdown: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { break };
                    let shared = Arc::clone(&shared);
                    // The peek happens on this inbound-only path: an
                    // outbound peer/replica link never opens with a
                    // scrape, and peeking there would block on a peer
                    // that speaks only when spoken to.
                    std::thread::spawn(move || {
                        shared.open.serve(stream, |stream| {
                            if is_ascii_scrape(&stream) {
                                serve_ascii_scrape(stream, &shared.metrics_text());
                                return;
                            }
                            let (tx, rx) = channel::<Message>();
                            connection(&shared, stream, tx, rx, None)
                        })
                    });
                }
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || prober(shared, probe_interval)));
        }
        Ok(BalancerServer {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Attaches a replica server: opens the data connection and registers
    /// it with the balancer. The write channel is registered *before* the
    /// replica becomes routable, so a dispatch can never race the
    /// connection setup and drop a request.
    pub fn attach_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        let (tx, rx) = channel::<Message>();
        self.shared.replica_tx.lock().insert(id, tx.clone());
        self.shared.replica_addrs.lock().insert(id, addr);
        self.shared.lb.lock().add_replica(id);
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || {
            shared.open.serve(stream, |stream| {
                connection(&shared, stream, tx, rx, Some(id))
            })
        });
        Ok(())
    }

    /// Connects to a peer balancer for cross-region forwarding. As with
    /// replicas, the write channel is registered before the peer becomes
    /// a forwarding candidate.
    pub fn connect_peer(&self, id: LbId, region: Region, addr: SocketAddr) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        let (tx, rx) = channel::<Message>();
        self.shared.peer_tx.lock().insert(id, tx.clone());
        self.shared.peer_addrs.lock().insert(id, addr);
        self.shared.lb.lock().add_peer(id, region);
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || {
            shared
                .open
                .serve(stream, |stream| connection(&shared, stream, tx, rx, None))
        });
        Ok(())
    }

    /// Current queue length (test observability).
    pub fn queue_len(&self) -> usize {
        self.shared.lb.lock().queue_len()
    }

    /// Requests forwarded to peers so far.
    pub fn forwarded(&self) -> u64 {
        self.shared.lb.lock().stats().forwarded
    }

    /// Stops the server: joins the acceptor and the prober, then closes
    /// every client, replica and peer connection still open, which ends
    /// its threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.open.close_all();
    }
}

/// Shared connection loop over a pre-created write channel. `replica` is
/// set when this connection goes to a replica server (its completions
/// free that replica's outstanding slots).
fn connection(
    shared: &Shared,
    stream: TcpStream,
    tx: Sender<Message>,
    rx: Receiver<Message>,
    replica: Option<ReplicaId>,
) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let writer_thread = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            if matches!(msg, Message::Shutdown) || write_frame(&mut writer, &msg).is_err() {
                break;
            }
        }
    });

    while let Ok(msg) = read_frame(&mut reader) {
        match msg {
            Message::Infer {
                request_id,
                session_key,
                prompt,
                max_new_tokens,
                hops,
            } => {
                shared.upstreams.lock().insert(request_id, tx.clone());
                shared.lb.lock().submit(
                    Request::new(request_id, session_key, prompt, max_new_tokens),
                    hops,
                );
                shared.try_dispatch();
            }
            Message::FirstToken { request_id } => {
                let up = shared.upstreams.lock().get(&request_id).cloned();
                if let Some(up) = up {
                    let _ = up.send(Message::FirstToken { request_id });
                }
            }
            Message::Completed {
                request_id,
                generated,
                cached_prompt_tokens,
            } => {
                if let Some(rid) = replica {
                    shared.lb.lock().on_replica_complete(rid);
                }
                let up = shared.upstreams.lock().remove(&request_id);
                if let Some(up) = up {
                    let _ = up.send(Message::Completed {
                        request_id,
                        generated,
                        cached_prompt_tokens,
                    });
                }
                shared.try_dispatch();
            }
            Message::Reject { request_id, reason } => {
                if let Some(rid) = replica {
                    shared.lb.lock().on_replica_complete(rid);
                }
                let up = shared.upstreams.lock().remove(&request_id);
                if let Some(up) = up {
                    let _ = up.send(Message::Reject { request_id, reason });
                }
            }
            Message::ProbeLb => {
                let (avail, qlen) = shared.lb.lock().status();
                let _ = tx.send(Message::LbStatus {
                    available_replicas: avail,
                    queue_len: qlen,
                });
            }
            Message::MetricsRequest => {
                let _ = tx.send(Message::MetricsText {
                    text: shared.metrics_text(),
                });
            }
            Message::Shutdown => break,
            _ => {}
        }
    }
    let _ = tx.send(Message::Shutdown);
    let _ = writer_thread.join();
}

/// Periodically probes replicas and peers over short-lived connections
/// (Alg. 1, `MonitorAvailability`).
fn prober(shared: Arc<Shared>, interval: Duration) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        let replicas: Vec<(ReplicaId, SocketAddr)> = shared
            .replica_addrs
            .lock()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        for (rid, addr) in replicas {
            if let Some(Message::ReplicaStatus {
                pending,
                running,
                kv_utilization_ppt,
            }) = probe(addr, &Message::ProbeReplica)
            {
                shared.lb.lock().on_replica_probe(
                    rid,
                    pending,
                    running,
                    f64::from(kv_utilization_ppt) / 1000.0,
                );
            }
        }
        let peers: Vec<(LbId, SocketAddr)> = shared
            .peer_addrs
            .lock()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        for (pid, addr) in peers {
            if let Some(Message::LbStatus {
                available_replicas,
                queue_len,
            }) = probe(addr, &Message::ProbeLb)
            {
                shared
                    .lb
                    .lock()
                    .on_peer_probe(pid, available_replicas, queue_len);
            }
        }
        shared.try_dispatch();
        std::thread::sleep(interval);
    }
}

fn probe(addr: SocketAddr, msg: &Message) -> Option<Message> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write_frame(&mut stream, msg).ok()?;
    read_frame(&mut stream).ok()
}
