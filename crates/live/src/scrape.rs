//! The `/metrics` scrape surface shared by both live servers.
//!
//! Two front doors to the same snapshot:
//!
//! - **Framed**: a [`Message::MetricsRequest`] on any connection is
//!   answered with [`Message::MetricsText`] — the path used by
//!   [`scrape_metrics`] and by tooling already speaking the protocol.
//! - **ASCII**: a connection whose first byte is `G` (an HTTP-ish
//!   `GET /metrics` from `nc` or `curl`) gets a minimal HTTP/1.0
//!   response carrying the exposition and is closed. This is
//!   unambiguous with framing: the length prefix would have to claim a
//!   `0x47…`-byte frame, far beyond [`MAX_FRAME_LEN`], so no valid
//!   framed peer can start with that byte.
//!
//! [`MAX_FRAME_LEN`]: skywalker_net::MAX_FRAME_LEN

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use skywalker_net::Message;

use crate::server::ask;

/// Peeks at a fresh connection: `true` if it opens with an ASCII `GET`
/// (scrape) rather than a length-prefixed frame. Blocks until the first
/// byte arrives; returns `false` on immediate EOF so the framed loop can
/// fail normally.
pub(crate) fn is_ascii_scrape(stream: &TcpStream) -> bool {
    let mut first = [0u8; 1];
    matches!(stream.peek(&mut first), Ok(1) if first[0] == b'G')
}

/// The most request bytes an ASCII scrape reads before it answers.
const SCRAPE_REQUEST_MAX: usize = 4096;

/// Serves one ASCII scrape: drains the request line(s) briefly, writes a
/// minimal HTTP response with the exposition body, and closes.
pub(crate) fn serve_ascii_scrape(mut stream: TcpStream, body: &str) {
    // Drain what the client sent (request line + headers) so `curl`
    // does not see a reset mid-request; a short timeout keeps a bare
    // `nc` that never sends a blank line from wedging the thread, and
    // the fixed buffer a peer that never stops sending.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = [0u8; SCRAPE_REQUEST_MAX];
    let mut len = 0;
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                len += n;
                let seen = &buf[..len];
                if seen.windows(2).any(|w| w == b"\n\n")
                    || seen.windows(4).any(|w| w == b"\r\n\r\n")
                {
                    break;
                }
            }
        }
    }
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Scrapes a live server's metrics over the framed protocol: connects,
/// sends [`Message::MetricsRequest`], and returns the Prometheus text
/// exposition from the [`Message::MetricsText`] reply.
pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    match ask(addr, &Message::MetricsRequest) {
        Some(Message::MetricsText { text }) => Ok(text),
        other => Err(io::Error::other(format!(
            "expected MetricsText, got {other:?}"
        ))),
    }
}
