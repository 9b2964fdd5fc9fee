//! A mock inference replica served over TCP.
//!
//! The server wraps the same [`Replica`] state machine the simulator
//! uses, but drives it with wall-clock time: a stepper thread executes
//! continuous-batching iterations and sleeps for each iteration's
//! (scaled) duration, so queueing, batching, and prefix-cache effects are
//! observable through real sockets. The wire surface is the handful of
//! [`Message`]s a balancer needs: `Infer`, `ProbeReplica`, and the
//! response stream `FirstToken` / `Completed`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use skywalker_net::{read_frame, write_frame, Message};
use skywalker_replica::{Advance, GpuProfile, Replica, ReplicaId, Request};
use skywalker_telemetry::{names, prometheus_text, MetricsRegistry};

use crate::scrape::{is_ascii_scrape, serve_ascii_scrape};
use crate::streams::OpenStreams;
use crate::sync::Mutex;

struct Shared {
    replica: Mutex<Replica>,
    /// request id → writer channel of the connection that submitted it.
    routes: Mutex<HashMap<u64, Sender<Message>>>,
    open: OpenStreams,
    shutdown: AtomicBool,
    /// Wall seconds per simulated second (0.05 = 20× faster than real).
    time_scale: f64,
}

impl Shared {
    /// Renders the replica's current state as a Prometheus exposition.
    fn metrics_text(&self) -> String {
        let (id, pending, running, kv, stats) = {
            let r = self.replica.lock();
            (
                r.id(),
                r.pending_len(),
                r.running_len(),
                r.kv_utilization(),
                r.stats(),
            )
        };
        let id = format!("{}", id.0);
        let labels = [("replica", id.as_str())];
        let mut reg = MetricsRegistry::new();
        reg.inc(names::REPLICA_ADMITTED_TOTAL, &labels, stats.admitted);
        reg.inc(names::REPLICA_COMPLETED_TOTAL, &labels, stats.completed);
        reg.inc(
            names::REPLICA_PROMPT_TOKENS_TOTAL,
            &labels,
            stats.prompt_tokens,
        );
        reg.inc(
            names::REPLICA_CACHED_PROMPT_TOKENS_TOTAL,
            &labels,
            stats.cached_prompt_tokens,
        );
        reg.inc(
            names::REPLICA_GENERATED_TOKENS_TOTAL,
            &labels,
            stats.generated_tokens,
        );
        reg.set_gauge(names::REPLICA_PENDING, &labels, pending as f64);
        reg.set_gauge(names::REPLICA_RUNNING, &labels, running as f64);
        reg.set_gauge(names::KV_UTILIZATION, &labels, kv);
        reg.set_gauge(names::REPLICA_HIT_RATIO, &labels, stats.hit_rate());
        prometheus_text(&reg.snapshot())
    }
}

/// A running replica server bound to 127.0.0.1.
pub struct ReplicaServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ReplicaServer {
    /// Binds to an ephemeral localhost port and starts serving.
    ///
    /// `time_scale` compresses virtual time: 1.0 is real time, 0.05 runs
    /// 20× faster (useful for tests; latency *ratios* are preserved).
    pub fn spawn(id: ReplicaId, profile: GpuProfile, time_scale: f64) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            replica: Mutex::new(Replica::new(id, profile)),
            routes: Mutex::new(HashMap::new()),
            open: OpenStreams::default(),
            shutdown: AtomicBool::new(false),
            time_scale: time_scale.max(1e-6),
        });

        let mut threads = Vec::new();
        // Stepper: runs the continuous batch against the wall clock.
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || stepper(shared)));
        }
        // Acceptor.
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { break };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        shared
                            .open
                            .serve(stream, |stream| connection(&shared, stream))
                    });
                }
            }));
        }
        Ok(ReplicaServer {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current pending-queue depth (test observability).
    pub fn pending_len(&self) -> usize {
        self.shared.replica.lock().pending_len()
    }

    /// Cumulative prefix-cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.shared.replica.lock().stats().hit_rate()
    }

    /// Stops the server: joins the stepper and the acceptor, then closes
    /// every connection still open, which ends its threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.open.close_all();
    }
}

/// Advances the replica until an iteration does work, the queue drains,
/// or the head proves unservable — all under one lock hold, so an `Infer`
/// enqueued mid-pass can never be mistaken for a stuck head.
fn step_once(replica: &mut Replica) -> Advance {
    loop {
        match replica.advance() {
            Advance::Progressed(_) => {}
            settled => return settled,
        }
    }
}

fn stepper(shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        let stepped = step_once(&mut shared.replica.lock());
        let out = match stepped {
            Advance::Worked(out) => out,
            Advance::DroppedHead(_, req) => {
                let route = shared.routes.lock().remove(&req.id.0);
                if let Some(tx) = route {
                    let _ = tx.send(Message::Reject {
                        request_id: req.id.0,
                        reason: "request exceeds replica KV capacity".to_string(),
                    });
                }
                continue;
            }
            Advance::Idle | Advance::Progressed(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        // Let the iteration "run" in scaled wall time, then publish its
        // results.
        let wall = out.duration.as_secs_f64() * shared.time_scale;
        std::thread::sleep(Duration::from_secs_f64(wall));
        let routes = shared.routes.lock();
        for id in &out.first_tokens {
            if let Some(tx) = routes.get(&id.0) {
                let _ = tx.send(Message::FirstToken { request_id: id.0 });
            }
        }
        drop(routes);
        let mut routes = shared.routes.lock();
        for c in &out.completions {
            if let Some(tx) = routes.remove(&c.id.0) {
                let _ = tx.send(Message::Completed {
                    request_id: c.id.0,
                    generated: c.generated_tokens,
                    cached_prompt_tokens: c.cached_prompt_tokens,
                });
            }
        }
    }
}

fn connection(shared: &Shared, stream: TcpStream) {
    // Every replica connection is inbound, so the scrape peek is safe
    // here: a framed peer's first byte is a length prefix ≤ 0x01.
    if is_ascii_scrape(&stream) {
        serve_ascii_scrape(stream, &shared.metrics_text());
        return;
    }
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Message>();
    // Writer: serializes everything sent to this peer.
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
                ..
            } => {
                shared.routes.lock().insert(request_id, tx.clone());
                shared.replica.lock().enqueue(Request::new(
                    request_id,
                    session_key,
                    prompt,
                    max_new_tokens,
                ));
            }
            Message::ProbeReplica => {
                let (pending, running, kv) = {
                    let r = shared.replica.lock();
                    (
                        r.pending_len() as u32,
                        r.running_len() as u32,
                        (r.kv_utilization() * 1000.0) as u16,
                    )
                };
                let _ = tx.send(Message::ReplicaStatus {
                    pending,
                    running,
                    kv_utilization_ppt: kv,
                });
            }
            Message::MetricsRequest => {
                let _ = tx.send(Message::MetricsText {
                    text: shared.metrics_text(),
                });
            }
            Message::Shutdown => break,
            _ => {} // Ignore anything a replica should not receive.
        }
    }
    let _ = tx.send(Message::Shutdown);
    let _ = writer_thread.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_net::read_frame;

    fn connect(addr: SocketAddr) -> TcpStream {
        TcpStream::connect(addr).expect("connect")
    }

    #[test]
    fn infer_round_trip() {
        let srv = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 1,
                session_key: "u".into(),
                prompt: vec![1, 2, 3],
                max_new_tokens: 4,
                hops: 0,
            },
        )
        .unwrap();
        let first = read_frame(&mut conn).unwrap();
        assert_eq!(first, Message::FirstToken { request_id: 1 });
        let done = read_frame(&mut conn).unwrap();
        match done {
            Message::Completed {
                request_id,
                generated,
                ..
            } => {
                assert_eq!(request_id, 1);
                assert_eq!(generated, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn probe_reports_status() {
        let srv = ReplicaServer::spawn(ReplicaId(1), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        write_frame(&mut conn, &Message::ProbeReplica).unwrap();
        match read_frame(&mut conn).unwrap() {
            Message::ReplicaStatus { pending, .. } => assert_eq!(pending, 0),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn concurrent_clients_served() {
        let srv = ReplicaServer::spawn(ReplicaId(2), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let addr = srv.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut conn = connect(addr);
                    write_frame(
                        &mut conn,
                        &Message::Infer {
                            request_id: i,
                            session_key: format!("u{i}"),
                            prompt: vec![i as u32; 8],
                            max_new_tokens: 3,
                            hops: 0,
                        },
                    )
                    .unwrap();
                    loop {
                        match read_frame(&mut conn).unwrap() {
                            Message::Completed { request_id, .. } => {
                                assert_eq!(request_id, i);
                                break;
                            }
                            Message::FirstToken { request_id } => {
                                assert_eq!(request_id, i)
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        srv.shutdown();
    }

    /// Requests that find the replica idle hit the window in which a
    /// stepper that re-takes the lock between `step()` and its
    /// stuck-head check pops the fresh arrival and rejects it. 5 000
    /// requests, each sequential on its connection (50 connections keep
    /// the wall time down; the replica still idles between arrivals),
    /// all fit the KV cache, so none may be rejected.
    #[test]
    fn sequential_small_requests_are_never_rejected() {
        let srv = ReplicaServer::spawn(ReplicaId(4), GpuProfile::L4_LLAMA_8B, 1e-6).unwrap();
        let addr = srv.addr();
        std::thread::scope(|scope| {
            for c in 0..50u64 {
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    for i in (c * 100)..(c * 100 + 100) {
                        write_frame(
                            &mut conn,
                            &Message::Infer {
                                request_id: i,
                                session_key: format!("u{c}"),
                                prompt: vec![c as u32; 4],
                                max_new_tokens: 1,
                                hops: 0,
                            },
                        )
                        .unwrap();
                        loop {
                            match read_frame(&mut conn).unwrap() {
                                Message::Completed { request_id, .. } => {
                                    assert_eq!(request_id, i);
                                    break;
                                }
                                Message::FirstToken { request_id } => assert_eq!(request_id, i),
                                other => panic!("request {i}: unexpected {other:?}"),
                            }
                        }
                    }
                });
            }
        });
        srv.shutdown();
    }

    #[test]
    fn oversized_request_rejected() {
        let srv = ReplicaServer::spawn(ReplicaId(3), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        // Prompt bigger than the whole KV capacity.
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 9,
                session_key: "u".into(),
                prompt: vec![7; 60_000],
                max_new_tokens: 1,
                hops: 0,
            },
        )
        .unwrap();
        match read_frame(&mut conn).unwrap() {
            Message::Reject { request_id, .. } => assert_eq!(request_id, 9),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }
}
