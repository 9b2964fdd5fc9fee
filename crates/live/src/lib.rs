//! # skywalker-live
//!
//! The live deployment mode: the same balancer and replica state machines
//! the simulator runs, served over real TCP sockets with OS threads.
//!
//! The paper's prototype deploys balancers and SGLang replicas on cloud
//! instances; this crate reproduces that topology on one machine:
//!
//! - [`ReplicaServer`] — a mock inference backend running the
//!   continuous-batching replica against the wall clock (scaled by a
//!   `time_scale` factor so tests stay fast while preserving latency
//!   ratios).
//! - [`BalancerServer`] — a [`skywalker_core::RegionalBalancer`] behind
//!   an accept loop, with replica connections, LB-to-LB peering for
//!   cross-region forwarding, and a probe thread that sends its probes
//!   down those same connections at the cadence given to `spawn`.
//! - [`LiveClient`] — a blocking client measuring TTFT and end-to-end
//!   latency over the wire; it starts its requests on a fixed schedule,
//!   so its request rate is a clock's and not the host scheduler's.
//!
//! Both servers expose a `/metrics` scrape (`docs/telemetry.md`): a
//! framed `MetricsRequest` (see [`scrape_metrics`]) or a plain ASCII
//! `GET` — `printf 'GET /metrics\r\n\r\n' | nc 127.0.0.1 <port>` — is
//! answered with a Prometheus text exposition of the component's
//! counters and gauges, so a running cluster is observable with nothing
//! but a shell.
//!
//! Everything binds `127.0.0.1`; "regions" differ only in the balancer
//! configuration (the simulator is where WAN latency is modeled — here
//! the point is exercising the real concurrency and the real protocol).

mod balancer_server;
mod client;
mod pace;
mod replica_server;
mod scrape;
mod server;
mod sync;

pub use balancer_server::BalancerServer;
pub use client::{ClientError, LiveClient, LiveOutcome};
pub use replica_server::ReplicaServer;
pub use scrape::scrape_metrics;

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use skywalker_core::{BalancerConfig, LbId, PolicyKind};
    use skywalker_net::{read_frame, write_frame, Message, Region, WireError};
    use skywalker_replica::{GpuProfile, ReplicaId, Request};

    use super::*;

    fn profile() -> GpuProfile {
        GpuProfile::L4_LLAMA_8B
    }

    #[test]
    fn end_to_end_through_balancer() {
        let _timing = crate::sync::beside_timing();
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let r1 = ReplicaServer::spawn(ReplicaId(1), profile(), 0.001).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(10),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        lb.attach_replica(ReplicaId(1), r1.addr()).unwrap();

        let mut client = LiveClient::connect(lb.addr()).unwrap();
        let out = client
            .run(&Request::new(1, "user-a", vec![5, 6, 7, 8], 6))
            .unwrap();
        assert_eq!(out.generated, 6);
        assert!(out.ttft <= out.e2e);

        lb.shutdown();
        r0.shutdown();
        r1.shutdown();
    }

    /// Opens a connection and waits for one probe answer on it, so a
    /// connection thread is provably serving it.
    fn served_connection(addr: std::net::SocketAddr, probe: Message) -> std::net::TcpStream {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &probe).unwrap();
        read_frame(&mut conn).unwrap();
        conn
    }

    /// Writes an `Infer` on a connection its server was serving when it
    /// shut down: the peer must find the socket closed (EOF or reset),
    /// not a reader that still takes the frame and never answers.
    fn assert_closed_by_shutdown(mut conn: std::net::TcpStream) {
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let _ = write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 1,
                session_key: "late".into(),
                prompt: vec![1, 2, 3].into(),
                max_new_tokens: 2,
                hops: 0,
            },
        );
        match read_frame(&mut conn) {
            Err(WireError::Io(e)) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "connection still open after shutdown(): read timed out"
            ),
            other => panic!("a shut-down server answered: {other:?}"),
        }
    }

    #[test]
    fn replica_shutdown_closes_open_connections() {
        let _timing = crate::sync::beside_timing();
        let srv = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let conn = served_connection(srv.addr(), Message::ProbeReplica);
        let net = Arc::clone(&srv.net);
        srv.shutdown();
        assert_eq!(net.serving(), 0, "shutdown() left connection threads");
        assert_closed_by_shutdown(conn);
    }

    #[test]
    fn shutdown_joins_idle_connections() {
        let _timing = crate::sync::beside_timing();
        let srv = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let conns: Vec<_> = (0..32)
            .map(|_| served_connection(srv.addr(), Message::ProbeReplica))
            .collect();
        let net = Arc::clone(&srv.net);
        assert_eq!(net.serving(), 32);
        srv.shutdown();
        assert_eq!(net.serving(), 0, "shutdown() left connection threads");
        conns.into_iter().for_each(assert_closed_by_shutdown);
    }

    /// Also a half-open peer: two bytes of a length prefix, then silence.
    /// Its thread waits in `read` and holds nothing else, so a client is
    /// served meanwhile, and `shutdown()` still ends it in time.
    #[test]
    fn balancer_shutdown_closes_open_connections() {
        let _timing = crate::sync::beside_timing();
        use std::io::Write;
        let (lb, r0) = balancer_with_a_replica();
        let conn = served_connection(lb.addr(), Message::ProbeLb);
        let mut stalled = std::net::TcpStream::connect(lb.addr()).unwrap();
        stalled.write_all(&[0, 0]).unwrap();
        eventually("the stalled peer is served", || lb.net.serving() == 3);
        let mut client = LiveClient::connect(lb.addr()).unwrap();
        let out = client.run(&Request::new(1, "u", vec![7; 16], 4)).unwrap();
        assert_eq!(out.generated, 4);

        let net = Arc::clone(&lb.net);
        let started = Instant::now();
        lb.shutdown();
        assert!(started.elapsed() < server::DRAIN_TIMEOUT);
        assert_eq!(net.serving(), 0, "shutdown() left connection threads");
        // With the replica still up, a balancer that kept its links
        // would route this request and answer it.
        assert_closed_by_shutdown(conn);
        assert_closed_by_shutdown(stalled);
        r0.shutdown();
    }

    /// A scrape peer that sends `G` and then 1 MiB after 1 MiB with no
    /// blank line and no pause is answered after a bounded read, not read
    /// for as long as it keeps sending.
    #[test]
    fn endless_ascii_scrape_is_answered_and_closed() {
        let _timing = crate::sync::beside_timing();
        use std::io::Write;
        let srv = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let mut peer = std::net::TcpStream::connect(srv.addr()).unwrap();
        peer.write_all(b"G").unwrap();
        eventually("the scrape is served", || srv.net.serving() == 1);
        let flood = std::thread::spawn(move || {
            let mib = vec![b'x'; 1 << 20];
            // Stops when the server closes the connection (or at 64 MiB).
            for _ in 0..64 {
                if peer.write_all(&mib).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        while srv.net.serving() > 0 {
            assert!(Instant::now() < deadline, "the scrape is still reading");
            std::thread::sleep(Duration::from_millis(1));
        }
        srv.shutdown();
        drop(flood.join());
    }

    /// A balancer with one replica attached, probing every 10 ms.
    fn balancer_with_a_replica() -> (BalancerServer, ReplicaServer) {
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(10),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        (lb, r0)
    }

    /// Connects to `addr`, writes `lead`, then 16 000 `MetricsRequest`s —
    /// several times what the socket buffers hold of their answers — and
    /// never reads. Stops sending early once the server drops it; the
    /// thread returns the connection still open, since closing it would
    /// end the drill.
    fn flood_without_reading(
        addr: std::net::SocketAddr,
        lead: &[Message],
    ) -> std::thread::JoinHandle<std::net::TcpStream> {
        use std::io::Write;
        let mut flooder = std::net::TcpStream::connect(addr).unwrap();
        flooder
            .set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        lead.iter()
            .for_each(|m| write_frame(&mut flooder, m).unwrap());
        std::thread::spawn(move || {
            let mut burst = Vec::new();
            for _ in 0..1000 {
                write_frame(&mut burst, &Message::MetricsRequest).unwrap();
            }
            for _ in 0..16 {
                if flooder.write_all(&burst).is_err() {
                    break;
                }
            }
            flooder
        })
    }

    /// A peer that floods `MetricsRequest`s and never reads what they are
    /// answered with costs one blocked sender for at most `WRITE_TIMEOUT`,
    /// then its connection; another client is served as usual meanwhile.
    /// (Were answers queued for a writer thread instead, the queue would
    /// grow for as long as the peer sends, and the connection would stay.)
    #[test]
    fn a_peer_that_never_reads_is_disconnected() {
        let _timing = crate::sync::beside_timing();
        let (lb, r0) = balancer_with_a_replica();
        let mut client = LiveClient::connect(lb.addr()).unwrap();
        eventually("the link and the client are served", || {
            lb.net.serving() == 2
        });

        let started = Instant::now();
        let flood = flood_without_reading(lb.addr(), &[]);
        eventually("the flooder is served", || lb.net.serving() == 3);

        for i in 0..50u64 {
            let req = Request::new(i, format!("u{i}"), vec![i as u32; 16], 4);
            let out = client.run(&req).unwrap();
            assert!(out.e2e < Duration::from_millis(100), "request {i}: {out:?}");
        }
        let deadline = started + server::WRITE_TIMEOUT + Duration::from_secs(1);
        until(deadline, "the flooder is disconnected", || {
            lb.net.serving() == 2
        });
        drop(flood.join().unwrap());
        lb.shutdown();
        r0.shutdown();
    }

    /// The trade for writing on the producing thread: a relay is a shared
    /// sender. The pump of a replica link writes the answers of every
    /// client that replica serves, so while it waits on a peer that never
    /// reads, every client behind that link waits too — for at most
    /// `WRITE_TIMEOUT`, after which the peer is cut off and writes to it
    /// fail at once. The flooder's own request is sized to complete on
    /// the shared replica a few hundred ms into the flood, while its
    /// socket is full; the other client's request in flight then waits
    /// out the rest of the flooder's timeout.
    #[test]
    fn a_relay_to_a_peer_that_never_reads_holds_its_link_at_most_write_timeout() {
        let _timing = crate::sync::beside_timing();
        let (lb, r0) = balancer_with_a_replica();
        let mut client = LiveClient::connect(lb.addr()).unwrap();
        eventually("the link and the client are served", || {
            lb.net.serving() == 2
        });

        let started = Instant::now();
        let doomed = Message::Infer {
            request_id: 1 << 40,
            session_key: "flooder".into(),
            prompt: vec![3; 64].into(),
            max_new_tokens: 10_000,
            hops: 0,
        };
        let flood = flood_without_reading(lb.addr(), &[doomed]);
        eventually("the flooder is served", || lb.net.serving() == 3);
        let deadline = started + server::WRITE_TIMEOUT + Duration::from_secs(1);
        let mut slowest = Duration::ZERO;
        for i in 0.. {
            if lb.net.serving() == 2 {
                break; // the flooder is cut off
            }
            assert!(Instant::now() < deadline, "the flooder is still connected");
            let req = Request::new(i, format!("u{i}"), vec![i as u32; 16], 4);
            slowest = slowest.max(client.run(&req).unwrap().e2e);
        }
        let bound = server::WRITE_TIMEOUT + Duration::from_millis(250);
        assert!(slowest < bound, "a request took {slowest:?}");
        drop(flood.join().unwrap());
        lb.shutdown();
        r0.shutdown();
    }

    /// A response is relayed only from the link its request went out on:
    /// a `Completed` forged on another connection while the request runs
    /// is dropped, and the client that sent the request still hears the
    /// replica's own count. The forger's probe answer marks its frame
    /// handled, so the victim's next frame is the one the forgery would
    /// have been.
    #[test]
    fn a_completion_forged_on_another_connection_is_not_relayed() {
        let _timing = crate::sync::beside_timing();
        let (lb, r0) = balancer_with_a_replica();
        let mut victim = std::net::TcpStream::connect(lb.addr()).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let infer = Message::Infer {
            request_id: 77,
            session_key: "victim".into(),
            prompt: vec![9; 16].into(),
            max_new_tokens: 4_000,
            hops: 0,
        };
        write_frame(&mut victim, &infer).unwrap();
        let first = read_frame(&mut victim).unwrap();
        assert_eq!(first, Message::FirstToken { request_id: 77 });

        let forged = Message::Completed {
            request_id: 77,
            generated: 999,
            cached_prompt_tokens: 0,
        };
        let mut forger = std::net::TcpStream::connect(lb.addr()).unwrap();
        write_frame(&mut forger, &forged).unwrap();
        write_frame(&mut forger, &Message::ProbeLb).unwrap();
        assert!(matches!(
            read_frame(&mut forger).unwrap(),
            Message::LbStatus { .. }
        ));
        match read_frame(&mut victim).unwrap() {
            Message::Completed {
                request_id: 77,
                generated,
                ..
            } => assert_eq!(generated, 4_000, "the forged count was relayed"),
            other => panic!("expected the request's completion, got {other:?}"),
        }
        lb.shutdown();
        r0.shutdown();
    }

    /// A second connection that sends a request under an id still in
    /// flight takes the responses over, and the first one hears a
    /// `Reject` for it instead of waiting for ever (until this was
    /// fixed, its read timed out).
    #[test]
    fn a_waiter_displaced_by_another_connection_is_rejected() {
        let _timing = crate::sync::beside_timing();
        let (lb, r0) = balancer_with_a_replica();
        let infer = |prompt_len: usize, max_new_tokens: u32| Message::Infer {
            request_id: 55,
            session_key: "shared-id".into(),
            prompt: vec![5; prompt_len].into(),
            max_new_tokens,
            hops: 0,
        };
        let connect = || {
            let s = std::net::TcpStream::connect(lb.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            s
        };
        let mut victim = connect();
        write_frame(&mut victim, &infer(16, 400)).unwrap();
        let first = read_frame(&mut victim).unwrap();
        assert_eq!(first, Message::FirstToken { request_id: 55 });

        let mut intruder = connect();
        write_frame(&mut intruder, &infer(4, 4)).unwrap();
        match read_frame(&mut victim) {
            Ok(Message::Reject { request_id: 55, .. }) => {}
            other => panic!("expected the displaced request's Reject, got {other:?}"),
        }
        let first = read_frame(&mut intruder).unwrap();
        assert_eq!(first, Message::FirstToken { request_id: 55 });
        lb.shutdown();
        r0.shutdown();
    }

    /// Polls `addr`'s scrape until the sample `name` reaches `at_least`;
    /// returns the value it then had.
    fn await_metric(addr: std::net::SocketAddr, name: &str, at_least: f64) -> f64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let text = scrape_metrics(addr).unwrap();
            let sample = text.lines().find(|l| l.starts_with(name));
            let value = sample.and_then(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok());
            if let Some(v) = value.filter(|v| *v >= at_least) {
                return v;
            }
            assert!(Instant::now() < deadline, "{name} never reached {at_least}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Polls (bounded) until `cond` holds. `dial` returning says the peer's
    /// kernel took the connection, not that its acceptor thread has.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        until(Instant::now() + Duration::from_secs(5), what, cond);
    }

    /// Polls until `cond` holds; fails if it does not by `deadline`.
    fn until(deadline: Instant, what: &str, cond: impl Fn() -> bool) {
        while !cond() {
            assert!(Instant::now() < deadline, "not in time: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A replica that dies mid-stream leaves the balancer: the request in
    /// flight on it is answered (at the parent commit the client blocked
    /// forever), and later requests go to the survivor.
    #[test]
    fn dead_replica_is_removed_and_its_requests_answered() {
        let _timing = crate::sync::beside_timing();
        // r0 decodes in real time, so its request is still running when
        // it is shut down.
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 1.0).unwrap();
        let r1 = ReplicaServer::spawn(ReplicaId(1), profile(), 0.001).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(10),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();

        let addr = lb.addr();
        let client = std::thread::spawn(move || {
            let mut c = LiveClient::connect(addr).unwrap();
            c.run(&Request::new(1, "doomed", vec![9; 64], 4000))
        });
        await_metric(r0.addr(), "skywalker_replica_running", 1.0);
        lb.attach_replica(ReplicaId(1), r1.addr()).unwrap();
        r0.shutdown();

        let deadline = Instant::now() + Duration::from_secs(2);
        until(deadline, "the in-flight request is answered", || {
            client.is_finished()
        });
        let answer = client.join().unwrap();
        assert!(
            matches!(
                answer,
                Err(ClientError::Rejected(_) | ClientError::Disconnected)
            ),
            "{answer:?}"
        );

        let mut c = LiveClient::connect(lb.addr()).unwrap();
        for i in 0..20u64 {
            let out = c
                .run(&Request::new(
                    100 + i,
                    format!("u{i}"),
                    vec![i as u32; 16],
                    4,
                ))
                .unwrap();
            assert_eq!(out.generated, 4);
        }
        await_metric(r1.addr(), "skywalker_replica_completed_total", 20.0);
        // Exactly one: r0 is gone from the balancer, not merely idle.
        let available = await_metric(lb.addr(), "skywalker_lb_available_replicas", 1.0);
        assert_eq!(available, 1.0);

        lb.shutdown();
        r1.shutdown();
    }

    /// Probes ride the link the balancer already holds: however many
    /// rounds go by, the replica serves one connection (at the parent
    /// every probe opened another), and the answers still arrive.
    #[test]
    fn probes_ride_the_persistent_link() {
        let _timing = crate::sync::beside_timing();
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(1),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        eventually("r0 serves the link", || r0.net.serving() == 1);
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(r0.net.serving(), 1);
        }
        let available = await_metric(lb.addr(), "skywalker_lb_available_replicas", 1.0);
        assert_eq!(available, 1.0);
        lb.shutdown();
        r0.shutdown();
    }

    /// Every socket a server holds — dialed or accepted — has Nagle off.
    #[test]
    fn served_connections_have_nodelay() {
        let _timing = crate::sync::beside_timing();
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(10),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        let _client = served_connection(lb.addr(), Message::ProbeLb);
        assert_eq!(lb.net.serving(), 2, "one dialed, one accepted");
        eventually("r0 serves the link", || r0.net.serving() == 1);
        assert!(lb.net.all_nodelay() && r0.net.all_nodelay());
        lb.shutdown();
        r0.shutdown();
    }

    #[test]
    fn prefix_affinity_over_the_wire() {
        let _timing = crate::sync::beside_timing();
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let r1 = ReplicaServer::spawn(ReplicaId(1), profile(), 0.001).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(10),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        lb.attach_replica(ReplicaId(1), r1.addr()).unwrap();

        let prompt: Vec<u32> = (0..256).collect();
        let mut client = LiveClient::connect(lb.addr()).unwrap();
        let cold = client
            .run(&Request::new(10, "u", prompt.clone(), 2))
            .unwrap();
        assert_eq!(cold.cached_prompt_tokens, 0);
        // A probe that sampled the serving replica between enqueue and
        // admission reported it pending, and SP-P would steer the repeat
        // away: wait until a later probe has reported both replicas free.
        await_metric(lb.addr(), "skywalker_lb_available_replicas", 2.0);
        // The repeat must land on the same replica and hit its cache.
        let warm = client
            .run(&Request::new(11, "u", prompt.clone(), 2))
            .unwrap();
        assert!(
            warm.cached_prompt_tokens >= 200,
            "cached {} of {} tokens",
            warm.cached_prompt_tokens,
            prompt.len()
        );

        lb.shutdown();
        r0.shutdown();
        r1.shutdown();
    }

    #[test]
    fn cross_balancer_forwarding() {
        let _timing = crate::sync::beside_timing();
        // LB0 (us-east) has NO replicas; LB1 (eu-west) has one. A request
        // to LB0 must be forwarded and still complete.
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.001).unwrap();
        let lb0 = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::skywalker(Region::UsEast),
            Duration::from_millis(10),
        )
        .unwrap();
        let lb1 = BalancerServer::spawn(
            LbId(1),
            BalancerConfig::skywalker(Region::EuWest),
            Duration::from_millis(10),
        )
        .unwrap();
        lb1.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        lb0.connect_peer(LbId(1), Region::EuWest, lb1.addr())
            .unwrap();
        lb1.connect_peer(LbId(0), Region::UsEast, lb0.addr())
            .unwrap();

        // Wait for at least one probe round so LB0 learns LB1 is
        // available.
        std::thread::sleep(Duration::from_millis(100));

        let mut client = LiveClient::connect(lb0.addr()).unwrap();
        let out = client
            .run(&Request::new(42, "user-x", vec![1, 2, 3], 3))
            .unwrap();
        assert_eq!(out.generated, 3);
        assert!(lb0.forwarded() >= 1, "request must have been forwarded");

        lb0.shutdown();
        lb1.shutdown();
        r0.shutdown();
    }

    /// Two balancers, peered, with a replica each, under two clients for
    /// about a second; then every server shuts down, its stepper or
    /// prober inside a wait and the clients still sending. Each
    /// `shutdown()` returns within `DRAIN_TIMEOUT` and leaves no
    /// connection thread.
    #[test]
    fn every_server_shuts_down_in_time_under_load() {
        let _timing = crate::sync::beside_timing();
        let replicas: Vec<_> = (0..2)
            .map(|i| ReplicaServer::spawn(ReplicaId(i), profile(), 0.001).unwrap())
            .collect();
        let regions = [Region::UsEast, Region::EuWest];
        let lbs: Vec<_> = (0..2)
            .map(|i| {
                let cfg = BalancerConfig::skywalker(regions[i]);
                let probe = Duration::from_millis(10);
                let lb = BalancerServer::spawn(LbId(i as u32), cfg, probe).unwrap();
                lb.attach_replica(ReplicaId(i as u32), replicas[i].addr())
                    .unwrap();
                lb
            })
            .collect();
        lbs[0]
            .connect_peer(LbId(1), regions[1], lbs[1].addr())
            .unwrap();
        lbs[1]
            .connect_peer(LbId(0), regions[0], lbs[0].addr())
            .unwrap();

        // Each client sends until a request fails: its servers are gone.
        let clients: Vec<_> = (0..2u64)
            .map(|c| {
                let addr = lbs[c as usize].addr();
                std::thread::spawn(move || {
                    let mut client = LiveClient::connect(addr).unwrap();
                    let prompt = |i: u64| vec![i as u32; 32];
                    (0..)
                        .map(|i| Request::new(c << 32 | i, format!("u{c}"), prompt(i), 8))
                        .take_while(|req| client.run(req).is_ok())
                        .count()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs(1));

        // Replicas first, while requests are in flight on them.
        for r in replicas {
            let (net, started) = (Arc::clone(&r.net), Instant::now());
            r.shutdown();
            assert!(
                started.elapsed() < server::DRAIN_TIMEOUT,
                "a replica's shutdown()"
            );
            assert_eq!(net.serving(), 0, "a replica left connection threads");
        }
        for lb in lbs {
            let (net, started) = (Arc::clone(&lb.net), Instant::now());
            lb.shutdown();
            assert!(
                started.elapsed() < server::DRAIN_TIMEOUT,
                "a balancer's shutdown()"
            );
            assert_eq!(net.serving(), 0, "a balancer left connection threads");
        }
        for client in clients {
            assert!(client.join().unwrap() > 0, "a client was never served");
        }
    }

    #[test]
    fn many_concurrent_clients() {
        let _timing = crate::sync::beside_timing();
        let r0 = ReplicaServer::spawn(ReplicaId(0), profile(), 0.0005).unwrap();
        let lb = BalancerServer::spawn(
            LbId(0),
            BalancerConfig::baseline(Region::UsEast, PolicyKind::LeastLoad),
            Duration::from_millis(10),
        )
        .unwrap();
        lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
        let addr = lb.addr();
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = LiveClient::connect(addr).unwrap();
                    let out = c
                        .run(&Request::new(
                            100 + i,
                            format!("u{i}"),
                            vec![i as u32; 16],
                            4,
                        ))
                        .unwrap();
                    assert_eq!(out.generated, 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        lb.shutdown();
        r0.shutdown();
    }
}
