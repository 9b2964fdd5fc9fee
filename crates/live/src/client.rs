//! A blocking client for the live wire protocol.
//!
//! A client starts its requests on a schedule, one per [`PACE`], and not
//! the moment the last one was answered. A closed loop with no think time
//! turns every microsecond of thread wake-up luck into requests per
//! second — ten 20 s runs of the same servers differ by 12 % — and offers
//! a balancer more requests per probe window than the τ buffer admits, so
//! what it measures is the scheduler and the probe cadence. On a schedule
//! the rate is the clock's and the latencies are the servers'. The
//! schedule is a [`Pacer`]'s: absolute, so a late start is made up by the
//! starts after it, and kept to within a few µs, not a sleep's timer
//! slack. The wait is the client's own time: a request's clock starts
//! when it is sent.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use skywalker_net::{read_frame, write_frame, Message, WireError};
use skywalker_replica::Request;

use crate::pace::Pacer;
use crate::server::open;

/// Client-side measurement of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveOutcome {
    /// Wall time to the first token.
    pub ttft: Duration,
    /// Wall time to completion.
    pub e2e: Duration,
    /// Tokens generated.
    pub generated: u32,
    /// Prompt tokens served from the prefix cache.
    pub cached_prompt_tokens: u32,
}

/// Errors a live client can hit.
#[derive(Debug)]
pub enum ClientError {
    /// Socket/codec failure.
    Wire(WireError),
    /// The service rejected the request.
    Rejected(String),
    /// The connection closed mid-request.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Rejected(r) => write!(f, "request rejected: {r}"),
            ClientError::Disconnected => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// The `Infer` frame that carries `req` after `hops` LB-to-LB forwards.
pub(crate) fn infer_frame(req: Request, hops: u8) -> Message {
    Message::Infer {
        request_id: req.id.0,
        session_key: req.session_key,
        prompt: req.prompt,
        max_new_tokens: req.target_output_tokens,
        hops,
    }
}

/// The time between the starts of two requests on one connection: four
/// to a 10 ms probe window, under the τ + 1 = 5 a balancer forwards to a
/// peer between two probe answers.
const PACE: Duration = Duration::from_micros(2500);

/// The most lateness made up by starting requests less than [`PACE`]
/// apart: a slow answer or a host that pauses the process (a shared
/// two-core VM does, for 10–200 ms, a few times a minute) shifts no
/// later start, yet a client left idle for longer does not come back
/// with more than this much of a burst.
const MAX_CATCH_UP: Duration = Duration::from_secs(1);

/// A blocking connection to a balancer (or directly to a replica).
#[derive(Debug)]
pub struct LiveClient {
    stream: TcpStream,
    /// When the next request starts; absolute, so a wait that ended late
    /// is not added to every start after it.
    schedule: Pacer,
}

impl LiveClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(LiveClient {
            stream: open(addr)?,
            schedule: Pacer::new(MAX_CATCH_UP),
        })
    }

    /// Waits for the request's place on the schedule, sends it and blocks
    /// until it completes, measuring TTFT and end-to-end latency from the
    /// send.
    pub fn run(&mut self, req: &Request) -> Result<LiveOutcome, ClientError> {
        self.schedule.wait();
        self.schedule.advance(PACE);
        let start = Instant::now();
        write_frame(&mut self.stream, &infer_frame(req.clone(), 0))?;
        let mut ttft = None;
        loop {
            match read_frame(&mut self.stream) {
                Ok(Message::FirstToken { request_id }) if request_id == req.id.0 => {
                    ttft.get_or_insert_with(|| start.elapsed());
                }
                Ok(Message::Completed {
                    request_id,
                    generated,
                    cached_prompt_tokens,
                }) if request_id == req.id.0 => {
                    let e2e = start.elapsed();
                    return Ok(LiveOutcome {
                        ttft: ttft.unwrap_or(e2e),
                        e2e,
                        generated,
                        cached_prompt_tokens,
                    });
                }
                Ok(Message::Reject { request_id, reason }) if request_id == req.id.0 => {
                    return Err(ClientError::Rejected(reason));
                }
                Ok(Message::Shutdown) => return Err(ClientError::Disconnected),
                Ok(_) => {} // Unrelated frames are ignored.
                Err(WireError::Io(_)) => return Err(ClientError::Disconnected),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ClientError::Rejected("full".into());
        assert!(format!("{e}").contains("full"));
        assert!(!format!("{}", ClientError::Disconnected).is_empty());
    }

    #[test]
    fn connect_sets_nodelay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = LiveClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
    }

    /// Answers every `Infer` at once, until the client hangs up.
    fn instant_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap().0;
            conn.set_nodelay(true).unwrap();
            while let Ok(Message::Infer { request_id, .. }) = read_frame(&mut conn) {
                let done = Message::Completed {
                    request_id,
                    generated: 1,
                    cached_prompt_tokens: 0,
                };
                for msg in [Message::FirstToken { request_id }, done] {
                    write_frame(&mut conn, &msg).unwrap();
                }
            }
        });
        (addr, server)
    }

    fn run_n(client: &mut LiveClient, ids: std::ops::Range<u64>) -> Duration {
        ids.map(|id| client.run(&Request::new(id, "u", vec![1], 1)).unwrap().e2e)
            .sum()
    }

    /// Requests start `PACE` apart however fast they are answered, and the
    /// wait is not part of the latency they report.
    #[test]
    fn requests_start_a_pace_apart_and_the_wait_is_not_latency() {
        let _timing = crate::sync::beside_timing();
        let (addr, server) = instant_server();
        let mut client = LiveClient::connect(addr).unwrap();
        let began = Instant::now();
        let in_flight = run_n(&mut client, 0..20);
        let took = began.elapsed();
        assert!(took >= 19 * PACE, "20 requests took {took:?}");
        assert!(in_flight < took / 2, "{in_flight:?} of {took:?} in flight");
        drop(client);
        server.join().unwrap();
    }

    /// The schedule is absolute: time lost (up to `MAX_CATCH_UP`) is made
    /// up by the requests after it, which do not wait.
    #[test]
    fn a_late_client_catches_up_to_its_schedule() {
        let _timing = crate::sync::beside_timing();
        let (addr, server) = instant_server();
        let mut client = LiveClient::connect(addr).unwrap();
        run_n(&mut client, 0..1);
        std::thread::sleep(20 * PACE);
        let began = Instant::now();
        run_n(&mut client, 1..11);
        let took = began.elapsed();
        assert!(took < 10 * PACE, "10 overdue requests took {took:?}");
        drop(client);
        server.join().unwrap();
    }

    /// All three response arms match the request id: a `Reject` for some
    /// other request is an unrelated frame.
    #[test]
    fn a_reject_for_another_request_is_ignored() {
        let _timing = crate::sync::beside_timing();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap().0;
            read_frame(&mut conn).unwrap();
            let stray = Message::Reject {
                request_id: 1,
                reason: "not yours".to_string(),
            };
            let done = Message::Completed {
                request_id: 2,
                generated: 3,
                cached_prompt_tokens: 0,
            };
            for msg in [stray, Message::FirstToken { request_id: 2 }, done] {
                write_frame(&mut conn, &msg).unwrap();
            }
        });
        let mut client = LiveClient::connect(addr).unwrap();
        let out = client.run(&Request::new(2, "u", vec![1, 2, 3], 3));
        assert_eq!(out.expect("request 2 was completed").generated, 3);
        server.join().unwrap();
    }
}
