//! Wire protocol for the live (TCP) mode.
//!
//! A deliberately small, hand-rolled codec: every message is one
//! length-prefixed frame (`u32` big-endian length, then the payload), and
//! the payload is a tagged binary encoding of [`Message`]. Hand-rolling
//! keeps the dependency surface at zero and makes the protocol easy to
//! audit; the encoding is explicit and versioned.
//!
//! Framing errors and malformed payloads surface as [`WireError`] rather
//! than panics, because a production balancer must survive garbage bytes
//! from a peer.

use std::io::{self, Read, Write};
use std::sync::Arc;

/// Protocol version byte; bumped on any incompatible change.
pub const WIRE_VERSION: u8 = 1;

/// Maximum accepted frame size (16 MiB) — a defence against corrupt or
/// hostile length prefixes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// The most [`read_frame`] allocates before any payload byte has arrived.
const READ_CHUNK: usize = 64 * 1024;

/// Errors produced while encoding or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Frame length exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// Payload ended before the message was complete.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Protocol version mismatch.
    BadVersion(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Messages exchanged between clients, load balancers, and replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → LB (or LB → LB / LB → replica): an inference request.
    Infer {
        /// Globally unique request id.
        request_id: u64,
        /// Consistent-hashing key (user id / session id), shared with the
        /// request it carries.
        session_key: Arc<str>,
        /// Prompt token ids, shared with the request it carries.
        prompt: Arc<[u32]>,
        /// Number of tokens to generate.
        max_new_tokens: u32,
        /// How many LB-to-LB hops this request has taken (loop guard).
        hops: u8,
    },
    /// Replica → client path: first output token produced (TTFT marker).
    FirstToken {
        /// Request this responds to.
        request_id: u64,
    },
    /// Replica → client path: request finished.
    Completed {
        /// Request this responds to.
        request_id: u64,
        /// Number of generated tokens.
        generated: u32,
        /// Number of prompt tokens served from the prefix cache.
        cached_prompt_tokens: u32,
    },
    /// LB → replica heartbeat probe (§3.3).
    ProbeReplica,
    /// Replica → LB probe response: pending-queue depth and batch size.
    ReplicaStatus {
        /// Requests not yet admitted to the continuous batch.
        pending: u32,
        /// Requests currently decoding.
        running: u32,
        /// KV-cache utilization in parts-per-thousand.
        kv_utilization_ppt: u16,
    },
    /// LB → LB heartbeat probe (Alg. 1 line 10).
    ProbeLb,
    /// LB → LB probe response.
    LbStatus {
        /// Number of local replicas with no pending requests.
        available_replicas: u32,
        /// Current LB queue length.
        queue_len: u32,
    },
    /// Rejection (e.g. a prompt over the replica's KV capacity, a closed
    /// link).
    Reject {
        /// Request this responds to.
        request_id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Orderly shutdown notice.
    Shutdown,
    /// Any → LB/replica: ask for the current metrics snapshot.
    MetricsRequest,
    /// LB/replica → any: Prometheus text exposition of the snapshot.
    MetricsText {
        /// The rendered exposition (`# TYPE` lines, samples).
        text: String,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// A field's element count. One that does not fit saturates instead of
/// wrapping: its payload is past [`MAX_FRAME_LEN`] and is never framed, and
/// a decoder handed it anyway reads `Truncated`, not a short field.
fn put_count(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, u32::try_from(n).unwrap_or(u32::MAX));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_count(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn put_tokens(buf: &mut Vec<u8>, toks: &[u32]) {
    put_count(buf, toks.len());
    buf.reserve(toks.len() * 4);
    for t in toks {
        put_u32(buf, *t);
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.data.len() - self.pos {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// A length-prefixed UTF-8 field, borrowed from the frame.
    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// A length-prefixed token field, built in one exact-size allocation
    /// straight from the frame's bytes.
    fn tokens(&mut self) -> Result<Arc<[u32]>, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|w| u32::from_be_bytes(w.try_into().expect("len 4")))
            .collect())
    }
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Infer { .. } => 1,
            Message::FirstToken { .. } => 2,
            Message::Completed { .. } => 3,
            Message::ProbeReplica => 4,
            Message::ReplicaStatus { .. } => 5,
            Message::ProbeLb => 6,
            Message::LbStatus { .. } => 7,
            Message::Reject { .. } => 8,
            Message::Shutdown => 9,
            Message::MetricsRequest => 10,
            Message::MetricsText { .. } => 11,
        }
    }

    /// Encodes the message payload (version byte, tag, fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the payload [`Message::encode`] returns to `buf`, leaving
    /// what `buf` already holds untouched.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(WIRE_VERSION);
        buf.push(self.tag());
        match self {
            Message::Infer {
                request_id,
                session_key,
                prompt,
                max_new_tokens,
                hops,
            } => {
                put_u64(buf, *request_id);
                put_str(buf, session_key);
                put_tokens(buf, prompt);
                put_u32(buf, *max_new_tokens);
                buf.push(*hops);
            }
            Message::FirstToken { request_id } => put_u64(buf, *request_id),
            Message::Completed {
                request_id,
                generated,
                cached_prompt_tokens,
            } => {
                put_u64(buf, *request_id);
                put_u32(buf, *generated);
                put_u32(buf, *cached_prompt_tokens);
            }
            Message::ProbeReplica
            | Message::ProbeLb
            | Message::Shutdown
            | Message::MetricsRequest => {}
            Message::ReplicaStatus {
                pending,
                running,
                kv_utilization_ppt,
            } => {
                put_u32(buf, *pending);
                put_u32(buf, *running);
                buf.extend_from_slice(&kv_utilization_ppt.to_be_bytes());
            }
            Message::LbStatus {
                available_replicas,
                queue_len,
            } => {
                put_u32(buf, *available_replicas);
                put_u32(buf, *queue_len);
            }
            Message::Reject { request_id, reason } => {
                put_u64(buf, *request_id);
                put_str(buf, reason);
            }
            Message::MetricsText { text } => put_str(buf, text),
        }
    }

    /// Decodes a message payload produced by [`Message::encode`].
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut c = Cursor {
            data: payload,
            pos: 0,
        };
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = c.u8()?;
        let msg = match tag {
            1 => Message::Infer {
                request_id: c.u64()?,
                session_key: c.str()?.into(),
                prompt: c.tokens()?,
                max_new_tokens: c.u32()?,
                hops: c.u8()?,
            },
            2 => Message::FirstToken {
                request_id: c.u64()?,
            },
            3 => Message::Completed {
                request_id: c.u64()?,
                generated: c.u32()?,
                cached_prompt_tokens: c.u32()?,
            },
            4 => Message::ProbeReplica,
            5 => Message::ReplicaStatus {
                pending: c.u32()?,
                running: c.u32()?,
                kv_utilization_ppt: c.u16()?,
            },
            6 => Message::ProbeLb,
            7 => Message::LbStatus {
                available_replicas: c.u32()?,
                queue_len: c.u32()?,
            },
            8 => Message::Reject {
                request_id: c.u64()?,
                reason: c.str()?.into(),
            },
            9 => Message::Shutdown,
            10 => Message::MetricsRequest,
            11 => Message::MetricsText {
                text: c.str()?.into(),
            },
            t => return Err(WireError::BadTag(t)),
        };
        Ok(msg)
    }
}

/// A payload length as its frame prefix, refused past [`MAX_FRAME_LEN`].
/// Compared as `usize`: a length that does not fit `u32` is too large, not
/// whatever it wraps to.
fn frame_len(len: usize) -> Result<u32, WireError> {
    match u32::try_from(len) {
        Ok(len) if len <= MAX_FRAME_LEN => Ok(len),
        over => Err(WireError::FrameTooLarge(over.unwrap_or(u32::MAX))),
    }
}

/// Writes one framed message to a stream, in one `write`: a prefix that
/// leaves before its payload waits out Nagle and the peer's delayed ACK.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    let mut frame = vec![0; 4];
    msg.encode_into(&mut frame);
    let len = frame_len(frame.len() - 4)?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one framed message from a stream. Blocks until a full frame
/// arrives or the stream errors/closes (a stream that ends mid-frame is
/// an `UnexpectedEof` I/O error).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Message, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = frame_len(u32::from_be_bytes(len_buf) as usize)?;
    // Memory follows the bytes received, not the length claimed: a peer
    // that sends a large prefix and stalls pins one chunk, not the frame.
    let mut payload = Vec::with_capacity((len as usize).min(READ_CHUNK));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Message::decode(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        // Two requests holding one prompt and one key, as ToT siblings do.
        let key: Arc<str> = "user-7/session-3".into();
        let prompt: Arc<[u32]> = vec![1, 2, 3, 65535, 0].into();
        let sibling = |request_id| Message::Infer {
            request_id,
            session_key: key.clone(),
            prompt: prompt.clone(),
            max_new_tokens: 256,
            hops: 2,
        };
        vec![
            sibling(42),
            sibling(43),
            Message::FirstToken { request_id: 42 },
            Message::Completed {
                request_id: 42,
                generated: 128,
                cached_prompt_tokens: 64,
            },
            Message::ProbeReplica,
            Message::ReplicaStatus {
                pending: 3,
                running: 17,
                kv_utilization_ppt: 914,
            },
            Message::ProbeLb,
            Message::LbStatus {
                available_replicas: 2,
                queue_len: 11,
            },
            Message::Reject {
                request_id: 9,
                reason: "hop limit".to_string(),
            },
            Message::Shutdown,
            Message::MetricsRequest,
            Message::MetricsText {
                text: "# TYPE skywalker_lb_queue_depth gauge\nskywalker_lb_queue_depth 3\n"
                    .to_string(),
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        for msg in all_messages() {
            let encoded = msg.encode();
            let decoded = Message::decode(&encoded).unwrap();
            assert_eq!(msg, decoded);
        }
    }

    #[test]
    fn framed_round_trip_through_buffer() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            write_frame(&mut buf, &msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for expected in all_messages() {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(expected, got);
        }
    }

    /// Counts `write` calls; accepts everything it is handed.
    struct CountWrites(usize);

    impl Write for CountWrites {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Prefix and payload leave together: split over two writes, the
    /// second waits for the peer's delayed ACK on a Nagle socket.
    #[test]
    fn one_write_per_frame() {
        for msg in all_messages() {
            let mut w = CountWrites(0);
            write_frame(&mut w, &msg).unwrap();
            assert_eq!(w.0, 1, "{msg:?}");
        }
    }

    #[test]
    fn encode_into_appends_what_encode_returns() {
        for msg in all_messages() {
            let mut buf = vec![0xAA, 0xBB, 0xCC];
            msg.encode_into(&mut buf);
            assert_eq!(buf[..3], [0xAA, 0xBB, 0xCC]);
            assert_eq!(buf[3..], msg.encode()[..], "{msg:?}");
        }
    }

    #[test]
    fn frame_len_compares_before_it_casts() {
        let max = MAX_FRAME_LEN as usize;
        assert_eq!(frame_len(max).unwrap(), MAX_FRAME_LEN);
        assert!(matches!(
            frame_len(max + 1),
            Err(WireError::FrameTooLarge(n)) if n == MAX_FRAME_LEN + 1
        ));
        // Wrapped to `u32` this is 9, a length that would pass.
        assert!(matches!(
            frame_len(u32::MAX as usize + 10),
            Err(WireError::FrameTooLarge(u32::MAX))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut encoded = Message::Shutdown.encode();
        encoded[0] = 99;
        assert!(matches!(
            Message::decode(&encoded),
            Err(WireError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_bad_tag() {
        let encoded = vec![WIRE_VERSION, 200];
        assert!(matches!(
            Message::decode(&encoded),
            Err(WireError::BadTag(200))
        ));
    }

    #[test]
    fn rejects_truncated_payload() {
        let full = Message::Completed {
            request_id: 1,
            generated: 2,
            cached_prompt_tokens: 3,
        }
        .encode();
        for cut in 1..full.len() {
            let r = Message::decode(&full[..cut]);
            assert!(
                matches!(r, Err(WireError::Truncated))
                    || matches!(r, Err(WireError::BadVersion(_))),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_frame_length() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn rejects_bogus_token_count() {
        // Claim 1M tokens but provide none: must error, not allocate blindly.
        let mut buf = vec![WIRE_VERSION, 1];
        buf.extend_from_slice(&7u64.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // empty key
        buf.extend_from_slice(&1_000_000u32.to_be_bytes()); // token count
        assert!(matches!(Message::decode(&buf), Err(WireError::Truncated)));
    }

    #[test]
    fn rejects_invalid_utf8() {
        let mut buf = vec![WIRE_VERSION, 8];
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(Message::decode(&buf), Err(WireError::BadUtf8)));
    }

    #[test]
    fn empty_prompt_and_key_ok() {
        let msg = Message::Infer {
            request_id: 0,
            session_key: "".into(),
            prompt: Arc::new([]),
            max_new_tokens: 0,
            hops: 0,
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            WireError::Truncated,
            WireError::BadTag(1),
            WireError::BadVersion(2),
            WireError::BadUtf8,
            WireError::FrameTooLarge(9),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
