//! A mock inference replica served over TCP.
//!
//! The server wraps the same [`Replica`] state machine the simulator
//! uses, but drives it with wall-clock time: a stepper thread executes
//! continuous-batching iterations, each ending at its (scaled) place on
//! the wall clock, so queueing, batching, and prefix-cache effects are
//! observable through real sockets. The wire surface is the handful of
//! [`Message`]s a balancer needs: `Infer`, `ProbeReplica`, and the
//! response stream `FirstToken` / `Completed`.
//!
//! One ordering rule is the replica's own: the stepper steps, checks for a
//! stuck head and — finding nothing to do — goes to wait on `arrived`, all
//! under one hold of the replica's lock, and the `Infer` arm notifies
//! `arrived` after it has enqueued under that lock. So an arrival is
//! either seen by the step or wakes the wait: never mistaken for a stuck
//! head, never left sitting out a timer.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use skywalker_net::Message;
use skywalker_replica::{Advance, GpuProfile, Replica, ReplicaId, Request};
use skywalker_telemetry::{prometheus_text, publish, MetricsRegistry};

use crate::server::{Link, Outbox, Server, Service};
use crate::sync::Mutex;

/// How long an idle stepper waits before it looks at `closing()` again.
/// An arrival never waits this out: it notifies.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// The most lag the stepper makes up by running iterations back to back:
/// a few times what a short `sleep` overshoots by (timer slack, ~50 µs).
const MAX_CATCH_UP: Duration = Duration::from_micros(200);

/// The replica, and the stepper's wake-up call.
pub(crate) struct Backend {
    replica: Mutex<Replica>,
    /// Notified after every `enqueue`; paired with `replica`'s lock.
    arrived: Condvar,
}

impl Service for Backend {
    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        publish::replica(&mut reg, &self.replica.lock());
        prometheus_text(&reg.snapshot())
    }

    fn on_frame(net: &Server<Self>, _link: Link, msg: Message, reply: &Outbox) {
        let Backend { replica, arrived } = &net.state;
        match msg {
            Message::Infer {
                request_id,
                session_key,
                prompt,
                max_new_tokens,
                ..
            } => {
                net.expect_reply(request_id, reply);
                let req = Request::new(request_id, session_key, prompt, max_new_tokens);
                replica.lock().enqueue(req);
                arrived.notify_one();
            }
            Message::ProbeReplica => {
                let r = replica.lock();
                let status = Message::ReplicaStatus {
                    pending: r.pending_len() as u32,
                    running: r.running_len() as u32,
                    kv_utilization_ppt: (r.kv_utilization() * 1000.0) as u16,
                };
                drop(r);
                reply.send(&status);
            }
            _ => {} // Ignore anything a replica should not receive.
        }
    }
}

/// A running replica server bound to 127.0.0.1.
pub struct ReplicaServer {
    pub(crate) net: Arc<Server<Backend>>,
}

impl ReplicaServer {
    /// Binds to an ephemeral localhost port and starts serving.
    ///
    /// `time_scale` compresses virtual time: 1.0 is real time, 0.05 runs
    /// 20× faster (useful for tests; latency *ratios* are preserved).
    pub fn spawn(id: ReplicaId, profile: GpuProfile, time_scale: f64) -> io::Result<Self> {
        let scale = time_scale.max(1e-6);
        let backend = Backend {
            replica: Mutex::new(Replica::new(id, profile)),
            arrived: Condvar::new(),
        };
        // Stepper: runs the continuous batch against the wall clock.
        let net = Server::spawn(backend, move |net| stepper(&net, scale))?;
        Ok(ReplicaServer { net })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.net.addr
    }

    /// Stops the server: joins the stepper and the acceptor, closes every
    /// connection still open, and waits for its threads to end.
    pub fn shutdown(self) {
        self.net.shutdown();
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

/// `time_scale`: wall seconds per simulated second (0.05 = 20× faster).
fn stepper(net: &Server<Backend>, time_scale: f64) {
    let Backend { replica, arrived } = &net.state;
    // When the iteration under way ends. Absolute, so a sleep that ran
    // long (timer slack is tens of µs, an iteration at a small scale less)
    // is made up by the iterations after it instead of added to each.
    let mut due = Instant::now();
    while !net.closing() {
        let mut r = replica.lock();
        let out = match step_once(&mut r) {
            Advance::Worked(out) => out,
            Advance::DroppedHead(_, req) => {
                drop(r);
                let reject = Message::Reject {
                    request_id: req.id.0,
                    reason: "request exceeds replica KV capacity".to_string(),
                };
                net.reply(req.id.0, reject);
                continue;
            }
            Advance::Idle | Advance::Progressed(_) => {
                // Still under the lock the step ran under: whoever
                // enqueues next finds the stepper waiting and wakes it.
                drop(arrived.wait_timeout(r, IDLE_WAIT));
                due = Instant::now();
                continue;
            }
        };
        drop(r);
        // Let the iteration "run" in scaled wall time, then publish its
        // results. Only a sleep's overshoot is carried over: a longer
        // stall (scheduler, lock) must not compress the iterations after.
        let now = Instant::now();
        due = due.max(now.checked_sub(MAX_CATCH_UP).unwrap_or(now));
        due += Duration::from_secs_f64(out.duration.as_secs_f64() * time_scale);
        std::thread::sleep(due.saturating_duration_since(now));
        for id in &out.first_tokens {
            net.reply(id.0, Message::FirstToken { request_id: id.0 });
        }
        for c in &out.completions {
            let done = Message::Completed {
                request_id: c.id.0,
                generated: c.generated_tokens,
                cached_prompt_tokens: c.cached_prompt_tokens,
            };
            net.reply(c.id.0, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_net::{read_frame, write_frame};
    use std::net::TcpStream;

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

    /// An arrival wakes the idle stepper; it does not wait `IDLE_WAIT` out.
    /// Sequential requests each find the replica idle, so a stepper that
    /// slept through its wait would need 200 × `IDLE_WAIT`.
    #[test]
    fn an_arrival_wakes_the_idle_stepper() {
        let srv = ReplicaServer::spawn(ReplicaId(5), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        let start = Instant::now();
        for i in 0..200u64 {
            write_frame(
                &mut conn,
                &Message::Infer {
                    request_id: i,
                    session_key: "u".into(),
                    prompt: vec![i as u32; 4],
                    max_new_tokens: 1,
                    hops: 0,
                },
            )
            .unwrap();
            while !matches!(read_frame(&mut conn).unwrap(), Message::Completed { .. }) {}
        }
        let took = start.elapsed();
        assert!(took < 200 * IDLE_WAIT / 4, "200 requests took {took:?}");
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
