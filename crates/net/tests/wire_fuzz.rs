//! Seeded mutation fuzz of the wire codec (ROADMAP aim 3): whatever a
//! peer sends, [`Message::decode`] and [`read_frame`] answer `Ok` or a
//! [`WireError`] — never a panic, never an allocation sized by a claim
//! instead of by bytes received — and everything they accept survives a
//! re-encode.
//!
//! Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use skywalker_net::{read_frame, write_frame, Message, WireError, MAX_FRAME_LEN};
use skywalker_sim::DetRng;

/// The largest single allocation requested since the last reset. Every
/// test in this binary allocates kilobytes, so tests running in parallel
/// cannot push it anywhere near the megabytes the pin below rules out.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

struct RecordLargest;

// SAFETY: every call is passed through to `System` unchanged; the only
// addition is recording the requested size in an atomic.
unsafe impl GlobalAlloc for RecordLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: RecordLargest = RecordLargest;

const MUTATIONS_PER_VARIANT: usize = 2_000;

fn all_variants() -> Vec<Message> {
    vec![
        Message::Infer {
            request_id: 42,
            session_key: "user-7/session-3".to_string(),
            prompt: vec![1, 2, 3, 65535, 0, 7, 7, 7],
            max_new_tokens: 256,
            hops: 2,
        },
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
            text: "# TYPE skywalker_lb_queue_depth gauge\nskywalker_lb_queue_depth 3\n".to_string(),
        },
    ]
}

fn framed(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("a small message frames");
    buf
}

/// A `u32` biased toward the values a length or count check can get
/// wrong: zero, off-by-one around `near`, the frame limit, the maximum.
fn hostile_u32(rng: &mut DetRng, near: u32) -> u32 {
    match rng.below(8) {
        0 => 0,
        1 => near.wrapping_sub(1),
        2 => near.wrapping_add(1),
        3 => MAX_FRAME_LEN,
        4 => MAX_FRAME_LEN + 1,
        5 => u32::MAX,
        6 => rng.below(64) as u32,
        _ => rng.next_u32(),
    }
}

/// One mutation of `msg`'s frame; `other` is a second frame to splice.
fn mutate(rng: &mut DetRng, msg: &Message, other: &Message) -> Vec<u8> {
    let mut bytes = framed(msg);
    match rng.below(6) {
        // Bit flips anywhere, prefix included.
        0 => {
            for _ in 0..=rng.below(4) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Truncation (every offset is also covered exhaustively below).
        1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        // The length prefix rewritten.
        2 => {
            let claimed = hostile_u32(rng, bytes.len() as u32 - 4);
            bytes[..4].copy_from_slice(&claimed.to_be_bytes());
        }
        // Four payload bytes rewritten: sooner or later a string length
        // or a token count.
        3 if bytes.len() >= 10 => {
            let at = 4 + rng.below(bytes.len() as u64 - 7) as usize;
            let count = hostile_u32(rng, bytes.len() as u32);
            bytes[at..at + 4].copy_from_slice(&count.to_be_bytes());
        }
        // Two frames back to back, the seam possibly damaged.
        4 => {
            bytes.extend(framed(other));
            if rng.chance(0.5) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes.remove(at);
            }
        }
        // An ASCII scrape where a frame should start.
        _ => {
            bytes.splice(0..0, *b"GET ");
        }
    }
    bytes
}

/// Whatever was accepted must survive a round trip unchanged.
fn assert_reencodes(msg: &Message) {
    let again = Message::decode(&msg.encode()).expect("an accepted message re-encodes");
    assert_eq!(&again, msg);
}

/// Feeds `bytes` to both entry points; a panic is the failure.
fn exercise(bytes: &[u8]) {
    if let Ok(msg) = Message::decode(bytes.get(4..).unwrap_or_default()) {
        assert_reencodes(&msg);
    }
    let mut stream = Cursor::new(bytes);
    // Bounded by the input: every accepted frame consumes ≥ 6 bytes.
    while let Ok(msg) = read_frame(&mut stream) {
        assert_reencodes(&msg);
    }
}

#[test]
fn mutated_frames_never_panic_and_accepted_ones_round_trip() {
    let variants = all_variants();
    assert_eq!(variants.len(), 11, "one entry per `Message` variant");
    let mut rng = DetRng::for_component(0x5EED, "wire-fuzz");
    for msg in &variants {
        let bytes = framed(msg);
        for cut in 0..bytes.len() {
            exercise(&bytes[..cut]);
        }
        for _ in 0..MUTATIONS_PER_VARIANT {
            let other = &variants[rng.below(variants.len() as u64) as usize];
            exercise(&mutate(&mut rng, msg, other));
        }
        assert_eq!(&read_frame(&mut Cursor::new(&bytes)).unwrap(), msg);
    }
}

/// A peer that claims the largest legal frame and then goes away (or
/// stalls) must cost what it sent, not what it claimed: `read_frame`
/// used to allocate the full 16 MiB before reading a payload byte.
#[test]
fn a_claimed_length_is_not_allocated_before_its_bytes_arrive() {
    let mut bytes = MAX_FRAME_LEN.to_be_bytes().to_vec();
    bytes.extend([1, 9, 0]);
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    let got = read_frame(&mut Cursor::new(&bytes));
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    match got {
        Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("a frame cut short must be an I/O error, got {other:?}"),
    }
    assert!(
        largest <= MAX_FRAME_LEN as usize / 64,
        "read_frame allocated {largest} bytes for 3 bytes received"
    );
}
