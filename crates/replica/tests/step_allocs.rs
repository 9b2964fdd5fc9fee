//! One continuous-batching iteration costs what the batch costs, not
//! what the cache holds — refereed by an allocator, not by anything the
//! product code reports about itself.
//!
//! Three readings, each over a `PrefixCache` of a few thousand resident
//! nodes: a steady decode iteration (full batch, nothing admitted or
//! finished) allocates nothing, the batch policy's plan included;
//! neither does an iteration stalled behind a pending head that does
//! not fit; and an `acquire` that must evict eight victims allocates no
//! more than one that evicts one.
//!
//! One `#[test]` only: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skywalker_replica::{
    FcfsBatch, GpuProfile, KvConfig, LruEvictor, PrefixCache, Replica, ReplicaId, Request,
};

/// `System`, plus a count of every block it was asked for or asked to
/// grow (the scheme of `tests/heap_follows_population.rs`).
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counter is a plain
// statistic and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Relaxed);
    f();
    ALLOCS.load(Relaxed) - before
}

const RUNNING: u32 = 32;
const KV_TOKENS: u64 = 1 << 20;

/// A replica whose cache holds 4 000 finished one-token requests with
/// distinct prompts (a prompt leaf and an output leaf each) and whose
/// batch then runs `RUNNING` long decodes, each past its first token.
fn warmed_replica(max_batch_size: u32) -> Replica {
    let profile = GpuProfile {
        kv: KvConfig {
            capacity_tokens: KV_TOKENS,
            block_tokens: 16,
        },
        max_batch_size,
        ..GpuProfile::L4_LLAMA_8B
    };
    let policy = Box::new(FcfsBatch::new());
    let mut r = Replica::with_engine(ReplicaId(0), profile, policy, Box::new(LruEvictor));
    for i in 0..4_000u32 {
        r.enqueue(Request::new(u64::from(i), "warm", vec![i; 8], 1));
    }
    let (done, _) = r.run_to_idle();
    assert_eq!(done.len(), 4_000);
    assert!(
        r.cache().used_tokens() >= 4_000 * 32,
        "8 000 resident nodes"
    );
    for i in 0..RUNNING {
        let id = 10_000 + u64::from(i);
        r.enqueue(Request::new(id, "decode", vec![100_000 + i; 8], 5_000));
    }
    for _ in 0..4 {
        r.step();
    }
    assert_eq!((r.running_len(), r.pending_len()), (RUNNING as usize, 0));
    r
}

/// Steps `r` `n` times, none of which may admit or finish anything,
/// handing each outcome back as the fabric does; returns the
/// allocations made.
fn steady_steps(r: &mut Replica, n: usize) -> usize {
    allocs_during(|| {
        for _ in 0..n {
            let out = r.step();
            assert!(out.worked() && out.admitted.is_empty() && out.completions.is_empty());
            r.recycle(out);
        }
    })
}

#[test]
fn a_steady_iteration_and_an_extra_victim_cost_no_allocation() {
    // Steady decode, batch at its ceiling, nothing pending: not one
    // allocation, the policy's (empty) plan included.
    let mut full = warmed_replica(RUNNING);
    assert_eq!(steady_steps(&mut full, 1_500), 0);

    // Stalled head: room in the batch, but the head's output
    // reservation cannot fit beside the running decodes, so every
    // iteration offers it and leaves it queued. Past the first such
    // step, which sizes the scratch, nothing allocates: not the
    // iteration, and not FCFS's plan, which holds no vector.
    let mut stalled = warmed_replica(2 * RUNNING);
    let reservation = (KV_TOKENS - 100_000) as u32;
    stalled.enqueue(Request::new(20_000, "big", vec![7; 64], reservation));
    stalled.enqueue(Request::new(20_001, "behind", vec![8; 64], 4));
    steady_steps(&mut stalled, 1);
    assert_eq!(steady_steps(&mut stalled, 1_500), 0);
    assert_eq!(stalled.pending_len(), 2, "FCFS: nothing passes the head");

    // Eviction: 1 024 four-token leaves in a cache with 28 tokens free,
    // its candidate buffers sized by an earlier eviction. A 32-token
    // prompt then needs one victim; the next one needs eight.
    let fill = |c: &mut PrefixCache, ids: std::ops::Range<u32>| {
        for i in ids {
            let (lease, _) = c.acquire(&[i; 4]).expect("fits or evicts");
            c.release(lease);
        }
    };
    let mut c = PrefixCache::new(KvConfig::tiny(4_096 + 28));
    fill(&mut c, 0..1_032);
    assert_eq!(c.evicted_tokens(), 4, "the warm-up eviction");
    c.clear_unpinned();
    fill(&mut c, 10_000..11_024);
    assert_eq!(c.used_tokens(), 4_096);
    let mut acquire_evicting = |first: u32, victims: u64| {
        let evicted = c.evicted_tokens();
        let allocs = allocs_during(|| {
            let (lease, _) = c.acquire(&[first; 32]).expect("evicts to fit");
            c.release(lease);
        });
        assert_eq!(c.evicted_tokens() - evicted, 4 * victims);
        allocs
    };
    let (one, eight) = (acquire_evicting(20_000, 1), acquire_evicting(20_001, 8));
    assert!(
        eight <= one,
        "evicting 8 victims allocated {eight} times, evicting 1 allocated {one}"
    );
    c.check_invariants();
}
