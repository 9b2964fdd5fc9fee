//! What a trace costs in heap — refereed by an allocator, not by
//! anything the crate reports about itself.
//!
//! Two claims. The recorder holds a realistic event stream in at most
//! 12 bytes an event and grows by whole 64 KiB chunks, never by one big
//! reallocation. And the attribution pass keeps a fixed-size record per
//! *request*, so a trace with twice the events per request attributes in
//! (nearly) the same transient heap.
//!
//! One `#[test]` only: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skywalker_sim::SimTime;
use skywalker_trace::{
    Attribution, RequestTrace, TraceConfig, TraceEventKind, TraceRecorder, TraceSummary,
};

/// `System`, plus the bytes currently allocated, their high-water mark
/// and the largest single request (the scheme of
/// `tests/heap_follows_population.rs`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    LARGEST.fetch_max(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are plain
// statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CHUNK_BYTES: usize = 64 * 1024;

/// `requests` lifecycles, 64 in flight at a time and interleaved event
/// by event, a few microseconds apart, over 48 replicas behind 3
/// balancers: the nine milestones of an unforwarded request plus
/// `cycles` preempt → re-admit → first-token rounds (9 + 3 × `cycles`
/// events a request), and one stall window per replica per round.
fn record(requests: u64, cycles: usize) -> TraceSummary {
    use TraceEventKind::*;
    let mut rec = TraceRecorder::new(TraceConfig::default());
    let mut now = 0u64;
    let mut tick = |step: u64| {
        now += 3 + step % 11;
        SimTime::from_micros(now)
    };
    for wave in 0..requests.div_ceil(64) {
        let reqs = wave * 64..requests.min((wave + 1) * 64);
        let mut each = |kind: &dyn Fn(u64, u32) -> TraceEventKind| {
            for req in reqs.clone() {
                rec.record(tick(req), kind(req, (req % 48) as u32));
            }
        };
        each(&|req, _| Issued { req });
        each(&|req, replica| LbQueued {
            req,
            lb: replica % 3,
            hops: 0,
        });
        each(&|req, replica| Dispatched {
            req,
            lb: replica % 3,
            replica,
        });
        each(&|req, replica| ReplicaQueued { req, replica });
        each(&|req, replica| Admitted { req, replica });
        each(&|req, replica| FirstToken { req, replica });
        each(&|req, _| FirstTokenDelivered { req });
        for _ in 0..cycles {
            each(&|req, replica| Preempted { req, replica });
            each(&|req, replica| Admitted { req, replica });
            each(&|req, replica| FirstToken { req, replica });
        }
        each(&|req, replica| ReplicaDone { req, replica });
        each(&|req, _| Delivered { req });
        for replica in 0..48 {
            let at = tick(wave);
            let until = SimTime::from_micros(at.as_micros() + 2);
            rec.record(at, ReplicaStall { replica, until });
        }
    }
    rec.into_summary()
}

/// Heap `Attribution::from_summary` needed at its peak beyond the
/// `Vec<RequestTrace>` it returns.
fn attribution_transient(trace: &TraceSummary, requests: u64) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let a = Attribution::from_summary(trace);
    let peak = PEAK.load(Relaxed) - before;
    assert_eq!(a.requests.len() as u64, requests);
    assert_eq!(a.completed().count() as u64, requests);
    peak - a.requests.capacity() * size_of::<RequestTrace>()
}

#[test]
fn the_log_is_compact_and_attribution_is_per_request() {
    const REQUESTS: u64 = 20_000;

    let before = LIVE.load(Relaxed);
    LARGEST.store(0, Relaxed);
    let short = record(REQUESTS, 3);
    let held = LIVE.load(Relaxed) - before;
    let largest = LARGEST.load(Relaxed);
    let events = short.events.len();
    assert!(short.complete());
    assert!(events as u64 > 18 * REQUESTS, "{events} events");
    println!(
        "{events} events held in {held} B ({:.2} B an event), largest allocation {largest} B",
        held as f64 / events as f64
    );
    assert!(
        held <= 12 * events,
        "{held} B for {events} events is over 12 B an event"
    );
    assert!(
        largest <= CHUNK_BYTES,
        "one allocation of {largest} B: the log grew by more than a chunk"
    );

    let long = record(REQUESTS, 9);
    assert!(long.events.len() as f64 > 1.9 * events as f64);
    let (lean, full) = (
        attribution_transient(&short, REQUESTS),
        attribution_transient(&long, REQUESTS),
    );
    println!("attribution transient heap: {lean} B -> {full} B for twice the events a request");
    assert!(
        (full as f64) < 1.1 * lean as f64,
        "twice the events per request took {full} B of transient heap, up from {lean} B"
    );
}
