//! A blocking client for the live wire protocol.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use skywalker_net::{read_frame, write_frame, Message, WireError};
use skywalker_replica::Request;

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
pub(crate) fn infer_frame(req: &Request, hops: u8) -> Message {
    Message::Infer {
        request_id: req.id.0,
        session_key: req.session_key.clone(),
        prompt: req.prompt.clone(),
        max_new_tokens: req.target_output_tokens,
        hops,
    }
}

/// A blocking connection to a balancer (or directly to a replica).
#[derive(Debug)]
pub struct LiveClient {
    stream: TcpStream,
}

impl LiveClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(LiveClient {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Sends one request and blocks until it completes, measuring TTFT
    /// and end-to-end latency.
    pub fn run(&mut self, req: &Request) -> Result<LiveOutcome, ClientError> {
        let start = Instant::now();
        write_frame(&mut self.stream, &infer_frame(req, 0))?;
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
                Ok(Message::Reject { reason, .. }) => {
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
}
