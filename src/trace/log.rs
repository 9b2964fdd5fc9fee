//! The recorder's store: an append-only, compactly encoded event log.
//!
//! A run at scale records over a million span events, and what tracing
//! costs is the memory that holds them, not the time to take them. A
//! `Vec<TraceEvent>` spends 40 bytes on an event whose content is a
//! small step in time and two or three small ids, and doubles (copying
//! everything) whenever it fills. [`TraceLog`] stores the same events,
//! losslessly, as bytes in fixed-size chunks:
//!
//! ```text
//! event := tag:u8  Δat:zigzag-varint  field*:varint
//! ```
//!
//! `tag` names the [`TraceEventKind`] variant, `Δat` is the signed
//! distance in microseconds from the previous event (the recorder does
//! not require time order, so it may be negative), and the fields follow
//! in declaration order as LEB128 varints — `hops` as its one byte,
//! [`ReplicaStall::until`](TraceEventKind::ReplicaStall) as a signed
//! distance from the event's own `at`. A typical event takes 6–8 bytes.
//! Growth allocates one more chunk and never moves a byte already
//! written; an event never straddles two chunks.

use skywalker_sim::SimTime;

use crate::trace::event::{TraceEvent, TraceEventKind};

/// Bytes per chunk: large enough that the per-chunk bookkeeping and the
/// unused tail are noise, small enough that an almost-empty log is.
const CHUNK_BYTES: usize = 64 * 1024;

/// The longest encoding: tag, Δat, a `u64`, two `u32`s and a `u64`
/// (`KvTransfer`). A chunk with less room than this is closed.
const MAX_EVENT_BYTES: usize = 1 + 10 + 10 + 5 + 5 + 10;

/// An append-only sequence of [`TraceEvent`]s, stored encoded.
///
/// Reading decodes: [`iter`](Self::iter) (or `&log` in a `for` loop)
/// yields the events by value, in the order they were pushed.
///
/// # Examples
///
/// ```
/// use skywalker::sim::SimTime;
/// use skywalker::trace::{TraceEvent, TraceEventKind, TraceLog};
///
/// let event = TraceEvent {
///     at: SimTime::from_micros(250),
///     kind: TraceEventKind::Admitted { req: 7, replica: 3 },
/// };
/// let log: TraceLog = [event].into_iter().collect();
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.iter().next(), Some(event));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Each allocated with `CHUNK_BYTES` of capacity and never grown.
    chunks: Vec<Vec<u8>>,
    len: usize,
    /// `at` of the last pushed event, in microseconds: the base of the
    /// next event's Δat.
    last_at: u64,
}

impl TraceLog {
    /// Appends one event.
    pub(super) fn push(&mut self, event: TraceEvent) {
        use TraceEventKind::*;
        let at = event.at.as_micros();
        let delta = at.wrapping_sub(self.last_at);
        self.last_at = at;
        self.len += 1;
        let out = match self.chunks.last_mut() {
            Some(chunk) if chunk.len() + MAX_EVENT_BYTES <= CHUNK_BYTES => chunk,
            _ => {
                self.chunks.push(Vec::with_capacity(CHUNK_BYTES));
                self.chunks.last_mut().expect("a chunk was just pushed")
            }
        };
        let mut put = |tag: u8, fields: &[u64]| {
            out.push(tag);
            put_varint(out, zigzag(delta));
            for &field in fields {
                put_varint(out, field);
            }
        };
        match event.kind {
            Issued { req } => put(0, &[req]),
            RetryWait { req } => put(1, &[req]),
            LbQueued { req, lb, hops } => put(2, &[req, lb.into(), hops.into()]),
            Dispatched { req, lb, replica } => put(3, &[req, lb.into(), replica.into()]),
            Forwarded { req, from } => put(4, &[req, from.into()]),
            ReplicaQueued { req, replica } => put(5, &[req, replica.into()]),
            Admitted { req, replica } => put(6, &[req, replica.into()]),
            Preempted { req, replica } => put(7, &[req, replica.into()]),
            FirstToken { req, replica } => put(8, &[req, replica.into()]),
            ReplicaDone { req, replica } => put(9, &[req, replica.into()]),
            KvTransfer {
                req,
                from,
                to,
                tokens,
            } => put(10, &[req, from.into(), to.into(), tokens]),
            FirstTokenDelivered { req } => put(11, &[req]),
            Delivered { req } => put(12, &[req]),
            Failed { req } => put(13, &[req]),
            ReplicaStall { replica, until } => {
                let ahead = zigzag(until.as_micros().wrapping_sub(at));
                put(14, &[replica.into(), ahead]);
            }
            Evicted { replica, tokens } => put(15, &[replica.into(), tokens]),
        }
    }

    /// Events stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes the events in push order.
    pub fn iter(&self) -> TraceLogIter<'_> {
        TraceLogIter {
            chunks: self.chunks.iter(),
            rest: &[],
            at: 0,
        }
    }
}

impl FromIterator<TraceEvent> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Self {
        let mut log = TraceLog::default();
        for event in events {
            log.push(event);
        }
        log
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceEvent;
    type IntoIter = TraceLogIter<'a>;

    fn into_iter(self) -> TraceLogIter<'a> {
        self.iter()
    }
}

/// Decoding iterator over a [`TraceLog`].
#[derive(Debug, Clone)]
pub struct TraceLogIter<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// Undecoded bytes of the current chunk.
    rest: &'a [u8],
    /// `at` of the last decoded event, in microseconds.
    at: u64,
}

impl TraceLogIter<'_> {
    fn byte(&mut self) -> u8 {
        let (&byte, rest) = self.rest.split_first().expect("`push` writes whole events");
        self.rest = rest;
        byte
    }

    /// The next field; `next` narrows it (`as`) to the width `push`
    /// widened it from.
    fn varint(&mut self) -> u64 {
        let mut value = 0;
        let mut shift = 0;
        loop {
            let byte = self.byte();
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }
}

impl Iterator for TraceLogIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        use TraceEventKind::*;
        if self.rest.is_empty() {
            self.rest = self.chunks.next()?;
        }
        let tag = self.byte();
        self.at = self.at.wrapping_add(unzigzag(self.varint()));
        let kind = match tag {
            0 => Issued { req: self.varint() },
            1 => RetryWait { req: self.varint() },
            2 => LbQueued {
                req: self.varint(),
                lb: self.varint() as u32,
                hops: self.varint() as u8,
            },
            3 => Dispatched {
                req: self.varint(),
                lb: self.varint() as u32,
                replica: self.varint() as u32,
            },
            4 => Forwarded {
                req: self.varint(),
                from: self.varint() as u32,
            },
            5 => ReplicaQueued {
                req: self.varint(),
                replica: self.varint() as u32,
            },
            6 => Admitted {
                req: self.varint(),
                replica: self.varint() as u32,
            },
            7 => Preempted {
                req: self.varint(),
                replica: self.varint() as u32,
            },
            8 => FirstToken {
                req: self.varint(),
                replica: self.varint() as u32,
            },
            9 => ReplicaDone {
                req: self.varint(),
                replica: self.varint() as u32,
            },
            10 => KvTransfer {
                req: self.varint(),
                from: self.varint() as u32,
                to: self.varint() as u32,
                tokens: self.varint(),
            },
            11 => FirstTokenDelivered { req: self.varint() },
            12 => Delivered { req: self.varint() },
            13 => Failed { req: self.varint() },
            14 => ReplicaStall {
                replica: self.varint() as u32,
                until: SimTime::from_micros(self.at.wrapping_add(unzigzag(self.varint()))),
            },
            15 => Evicted {
                replica: self.varint() as u32,
                tokens: self.varint(),
            },
            _ => unreachable!("`push` writes tags 0..=15, read {tag}"),
        };
        Some(TraceEvent {
            at: SimTime::from_micros(self.at),
            kind,
        })
    }
}

/// LEB128: seven bits a byte, low group first, high bit = "more".
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Maps a two's-complement distance to an unsigned value that is small
/// when the distance is near zero on either side.
fn zigzag(distance: u64) -> u64 {
    (distance << 1) ^ ((distance as i64 >> 63) as u64)
}

fn unzigzag(value: u64) -> u64 {
    (value >> 1) ^ (value & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_sim::DetRng;

    fn at(us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(us),
            kind,
        }
    }

    /// Every variant once, all fields set to `req` / `id` / `hops` /
    /// `tokens`, `until` to `until`.
    fn every_kind(req: u64, id: u32, hops: u8, tokens: u64, until: u64) -> [TraceEventKind; 16] {
        use TraceEventKind::*;
        let (lb, replica, from, to) = (id, id, id, id);
        let until = SimTime::from_micros(until);
        [
            Issued { req },
            RetryWait { req },
            LbQueued { req, lb, hops },
            Dispatched { req, lb, replica },
            Forwarded { req, from },
            ReplicaQueued { req, replica },
            Admitted { req, replica },
            Preempted { req, replica },
            FirstToken { req, replica },
            ReplicaDone { req, replica },
            KvTransfer {
                req,
                from,
                to,
                tokens,
            },
            FirstTokenDelivered { req },
            Delivered { req },
            Failed { req },
            ReplicaStall { replica, until },
            Evicted { replica, tokens },
        ]
    }

    fn assert_round_trips(events: &[TraceEvent]) -> TraceLog {
        let log: TraceLog = events.iter().copied().collect();
        assert_eq!(log.len(), events.len());
        assert_eq!(log.is_empty(), events.is_empty());
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        assert_eq!(log.clone().iter().collect::<Vec<_>>(), events);
        let mut by_ref = Vec::new();
        for event in &log {
            by_ref.push(event);
        }
        assert_eq!(by_ref, events);
        log
    }

    #[test]
    fn every_variant_round_trips_at_its_boundaries() {
        assert_round_trips(&[]);
        let mut events = Vec::new();
        // `at` jumps to both ends of its range and back, and each stall
        // window in turn ends before, at and after its own `at`.
        let instants = [0, 5, u64::MAX, 1_000_000, 999_999, u64::MAX - 1, 0, 1 << 63];
        let extremes = [
            (0, 0, 0, 0),
            (1, 1, 1, 1),
            (127, 127, 127, 127),
            (128, 128, 128, 128),
            (u64::from(u32::MAX) + 1, 1 << 31, 254, 1 << 62),
            (u64::MAX, u32::MAX, 255, u64::MAX),
        ];
        for (i, &now) in instants.iter().enumerate() {
            for &(req, id, hops, tokens) in &extremes {
                let until = [now.wrapping_sub(3), now, now.wrapping_add(3), 0, u64::MAX][i % 5];
                for kind in every_kind(req, id, hops, tokens, until) {
                    events.push(at(now, kind));
                }
            }
        }
        assert_round_trips(&events);
    }

    #[test]
    fn long_streams_cross_chunk_boundaries() {
        let mut rng = DetRng::for_component(7, "trace-log/roundtrip");
        // Field widths drawn per event, so encoded lengths vary from 3
        // bytes to the maximum and land on chunk ends at every offset.
        let field = |rng: &mut DetRng| rng.next_u64() >> rng.below(64);
        let mut now = 0u64;
        let mut events = Vec::new();
        for _ in 0..60_000 {
            now = now.wrapping_add(field(&mut rng) >> 40);
            if rng.chance(0.01) {
                now = field(&mut rng);
            }
            let (req, id, tokens, until) = (
                field(&mut rng),
                field(&mut rng) as u32,
                field(&mut rng),
                field(&mut rng),
            );
            let kinds = every_kind(req, id, id as u8, tokens, until);
            events.push(at(now, kinds[rng.below(16) as usize]));
        }
        let log = assert_round_trips(&events);
        assert!(log.chunks.len() >= 4, "{} chunks", log.chunks.len());
        for chunk in &log.chunks {
            assert_eq!(chunk.capacity(), CHUNK_BYTES, "a chunk was regrown");
        }
        let (last, full) = log.chunks.split_last().expect("several chunks");
        assert!(!last.is_empty());
        for chunk in full {
            assert!(chunk.len() + MAX_EVENT_BYTES > CHUNK_BYTES, "closed early");
        }
    }

    #[test]
    fn no_event_is_longer_than_the_bound() {
        let mut longest = 0;
        for kind in every_kind(u64::MAX, u32::MAX, 255, u64::MAX, 1 << 62) {
            // The second event is the wide one: a ten-byte Δat.
            let one: TraceLog = [at(0, kind)].into_iter().collect();
            let two: TraceLog = [at(0, kind), at(1 << 63, kind)].into_iter().collect();
            longest = longest.max(two.chunks[0].len() - one.chunks[0].len());
        }
        assert_eq!(longest, MAX_EVENT_BYTES);
    }
}
