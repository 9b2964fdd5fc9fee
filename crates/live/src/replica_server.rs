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
use std::time::Duration;

use skywalker_net::Message;
use skywalker_replica::{Advance, GpuProfile, Replica, ReplicaId, Request};
use skywalker_telemetry::{prometheus_text, publish, MetricsRegistry};

use crate::pace::Pacer;
use crate::server::{Link, Outbox, Server, Service};
use crate::sync::Mutex;

/// How long an idle stepper waits before it looks at `closing()` again.
/// An arrival never waits this out: it notifies.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// The most lag the stepper makes up by running iterations back to back.
/// A pacer's wait ends within a few µs of its deadline; this covers a
/// wait or a step that lost its core for a moment, while a longer stall
/// (scheduler, lock) delays replies instead of compressing the
/// iterations after it.
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
    /// Scales below `1e-6` run at `1e-6`.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] unless `time_scale` is
    /// finite and positive, and with the listener's error if it cannot bind.
    pub fn spawn(id: ReplicaId, profile: GpuProfile, time_scale: f64) -> io::Result<Self> {
        if !(time_scale.is_finite() && time_scale > 0.0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("time_scale must be finite and positive, got {time_scale}"),
            ));
        }
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
/// enqueued mid-pass can never be mistaken for a stuck head. A step that
/// only progressed hands its outcome straight back.
fn step_once(replica: &mut Replica) -> Advance {
    loop {
        match replica.advance() {
            Advance::Progressed(out) => replica.recycle(out),
            settled => return settled,
        }
    }
}

/// `time_scale`: wall seconds per simulated second (0.05 = 20× faster).
fn stepper(net: &Server<Backend>, time_scale: f64) {
    let Backend { replica, arrived } = &net.state;
    // When the iteration under way ends. Absolute, so a wait that ran
    // late is made up by the iterations after it instead of added to each.
    let mut pacer = Pacer::new(MAX_CATCH_UP);
    let mut idled = false;
    // The last working iteration's outcome, its replies sent: handed back
    // under the next lock hold, so the next iteration refills its vectors.
    let mut spent = None;
    while !net.closing() {
        let mut r = replica.lock();
        if let Some(out) = spent.take() {
            r.recycle(out);
        }
        if std::mem::take(&mut idled) {
            // Under the lock: whatever this step finds arrived before now,
            // so no iteration ends sooner than its own time after that.
            pacer.restart();
        }
        let out = match step_once(&mut r) {
            Advance::Worked(out) => out,
            Advance::DroppedHead(out, req) => {
                r.recycle(out);
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
                idled = true;
                continue;
            }
        };
        drop(r);
        // Let the iteration "run" in scaled wall time, then publish its
        // results.
        pacer.advance(Duration::from_secs_f64(
            out.duration.as_secs_f64() * time_scale,
        ));
        pacer.wait();
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
        spent = Some(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_net::{read_frame, write_frame};
    use std::net::TcpStream;
    use std::time::Instant;

    fn connect(addr: SocketAddr) -> TcpStream {
        TcpStream::connect(addr).expect("connect")
    }

    #[test]
    fn spawn_rejects_a_time_scale_that_is_not_finite_and_positive() {
        let _timing = crate::sync::beside_timing();
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let err = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, bad)
                .err()
                .unwrap_or_else(|| panic!("time_scale {bad} was accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "time_scale {bad}");
        }
        ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, 1e-6)
            .expect("a tiny positive time_scale is accepted")
            .shutdown();
    }

    #[test]
    fn infer_round_trip() {
        let _timing = crate::sync::beside_timing();
        let srv = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 1,
                session_key: "u".into(),
                prompt: vec![1, 2, 3].into(),
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

    /// The fidelity floor: a replica keeps the model's clock and never
    /// answers before it. One request on a fresh replica takes one
    /// prefill pass that also decodes its first token, then one decode
    /// step a further token; each iteration scaled as the stepper scales
    /// it. Lower bounds only, so however late the host runs, this holds.
    #[test]
    fn a_replica_never_answers_before_the_model_says() {
        let _timing = crate::sync::beside_timing();
        const SCALE: f64 = 0.01;
        const PROMPT: u64 = 16;
        const OUT: u32 = 8;
        let profile = GpuProfile::L4_LLAMA_8B;
        let decode = profile.decode_step_time(1);
        let scaled = |secs: f64| Duration::from_secs_f64(secs * SCALE);
        let step = scaled(decode.as_secs_f64());
        let first = scaled((profile.prefill_pass_time(PROMPT, true) + decode).as_secs_f64());
        let done = first + (OUT - 1) * step;

        let srv = ReplicaServer::spawn(ReplicaId(6), profile, SCALE).unwrap();
        let mut conn = connect(srv.addr());
        let sent = Instant::now();
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 1,
                session_key: "u".into(),
                prompt: vec![5; PROMPT as usize].into(),
                max_new_tokens: OUT,
                hops: 0,
            },
        )
        .unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Message::FirstToken { request_id: 1 }
        );
        let ttft = sent.elapsed();
        assert!(
            ttft >= first,
            "first token after {ttft:?}, the model's {first:?}"
        );
        let out = read_frame(&mut conn).unwrap();
        let e2e = sent.elapsed();
        assert!(
            matches!(out, Message::Completed { generated: OUT, .. }),
            "unexpected {out:?}"
        );
        assert!(e2e >= done, "completed after {e2e:?}, the model's {done:?}");
        srv.shutdown();
    }

    #[test]
    fn probe_reports_status() {
        let _timing = crate::sync::beside_timing();
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
        let _timing = crate::sync::beside_timing();
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
                            session_key: format!("u{i}").into(),
                            prompt: vec![i as u32; 8].into(),
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
        let _timing = crate::sync::beside_timing();
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
                                session_key: format!("u{c}").into(),
                                prompt: vec![c as u32; 4].into(),
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
        let _timing = crate::sync::beside_timing();
        let srv = ReplicaServer::spawn(ReplicaId(5), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        let start = Instant::now();
        for i in 0..200u64 {
            write_frame(
                &mut conn,
                &Message::Infer {
                    request_id: i,
                    session_key: "u".into(),
                    prompt: vec![i as u32; 4].into(),
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
        let _timing = crate::sync::beside_timing();
        let srv = ReplicaServer::spawn(ReplicaId(3), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        // Prompt bigger than the whole KV capacity.
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 9,
                session_key: "u".into(),
                prompt: vec![7; 60_000].into(),
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
