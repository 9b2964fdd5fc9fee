//! The fabric's heap follows the in-flight population, not the run
//! length — refereed by an allocator, not by anything the product code
//! reports about itself.
//!
//! Twice the users at the same arrival rate is a run twice as long with
//! the same number of clients in flight at any instant. A fabric that
//! lets go of work when it finishes peaks at (nearly) the same heap for
//! both; one that keeps every admitted client's prompts grows by the
//! added prompt bytes — or by twice that, if issuing a stage also copies
//! it — and one that archives a point per replica per probe tick grows
//! by 16 bytes for each.
//!
//! One `#[test]` only: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skywalker::net::Region;
use skywalker::sim::{SimDuration, SimTime};
use skywalker::workload::{ArrivalSchedule, LengthModel};
use skywalker::{
    run_scenario, FabricConfig, RagCorpusConfig, RagCorpusSource, ReplicaPlacement, Scenario,
    SystemKind, L4_PRESSURE,
};

/// `System`, plus the bytes currently allocated and their high-water
/// mark (the scheme of `crates/bench/skybench/src/alloc.rs`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
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

/// `users` RAG users arriving as a Poisson process (one per 300 ms) at
/// eight KV-starved replicas in one region: `kv_pressure`'s shape with a
/// tenth of its users, so a user lives a few seconds of a run that lasts
/// `users × 0.3 s`.
fn rag_run(users: u32) -> Scenario {
    let region = Region::UsEast;
    let corpus = RagCorpusConfig {
        corpus_docs: 64,
        doc_tokens: 256,
        doc_zipf: 1.2,
        query_tokens: LengthModel {
            mu: 3.0,
            sigma: 0.6,
            min: 4,
            max: 64,
        },
        answer_tokens: LengthModel {
            mu: 4.0,
            sigma: 0.6,
            min: 8,
            max: 160,
        },
        queries_per_user: (3, 8),
    };
    let schedule = ArrivalSchedule::Poisson {
        mean_gap: SimDuration::from_millis(300),
    };
    let source = RagCorpusSource::new(corpus, vec![(region, users)], 61).with_schedule(schedule);
    let profile = L4_PRESSURE;
    SystemKind::SkyWalker
        .builder()
        .replicas(vec![ReplicaPlacement { region, profile }; 8])
        .traffic_source(Box::new(source))
        .build()
        .expect("a fleet and a source are set")
}

struct Measured {
    /// High-water mark of the heap during `run_scenario`, over what was
    /// already allocated when it started.
    peak_bytes: usize,
    /// Bytes of every prompt the source emits.
    prompt_bytes: usize,
    /// Requests the source emits.
    requests: u64,
}

fn measure(users: u32) -> Measured {
    let scenario = rag_run(users);
    let clients = scenario.clients_until(SimTime::MAX);
    let prompts = clients
        .iter()
        .flat_map(|c| &c.programs)
        .flat_map(|p| p.requests());
    let (requests, prompt_tokens) = prompts.fold((0, 0), |(n, t), r| (n + 1, t + r.prompt.len()));
    drop(clients);
    // Route tries at the paper's bound would dwarf a run this small and
    // grow with it; a small bound holds them at their steady state.
    let mut cfg = FabricConfig::default();
    cfg.policy.trie_max_tokens = 1 << 14;

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let summary = run_scenario(&scenario, &cfg);
    let peak_bytes = PEAK.load(Relaxed) - before;

    let r = &summary.report;
    assert_eq!((r.completed, r.failed, r.in_flight), (requests, 0, 0));
    Measured {
        peak_bytes,
        prompt_bytes: prompt_tokens * size_of::<u32>(),
        requests,
    }
}

#[test]
fn peak_heap_follows_the_in_flight_population() {
    const USERS: u32 = 2_000;
    let short = measure(USERS);
    let long = measure(2 * USERS);
    let added_prompts = long.prompt_bytes - short.prompt_bytes;
    let growth = long.peak_bytes.saturating_sub(short.peak_bytes);
    let added_requests = (long.requests - short.requests) as usize;
    let mb = |bytes: usize| bytes as f64 / 1e6;
    println!(
        "peak {:.2} -> {:.2} MB, prompts {:.2} -> {:.2} MB; {growth} B for {added_requests} \
         added requests",
        mb(short.peak_bytes),
        mb(long.peak_bytes),
        mb(short.prompt_bytes),
        mb(long.prompt_bytes)
    );
    assert!(added_prompts > 8_000_000, "the longer run emits more");

    // What may still grow with run length is the three 8-byte latency
    // samples a request leaves and the 48-byte shell a client leaves,
    // each in a vector that doubles — nothing per probe tick, and not
    // the prompts. Measured: 527 108 B for 10 985 added requests and
    // 2 000 added clients (621 846 B while the radix tree's freed slots
    // kept their segment buffers); the bound is a quarter above that.
    const PER_REQUEST: usize = 40;
    const PER_CLIENT: usize = 112;
    let allowed = PER_REQUEST * added_requests + PER_CLIENT * USERS as usize;
    assert!(
        growth < allowed,
        "twice the users added {growth} B of peak heap; {added_requests} added requests and \
         {USERS} added clients allow {allowed} B"
    );
    for run in [&short, &long] {
        assert!(
            run.peak_bytes < run.prompt_bytes,
            "peak heap {:.2} MB is not below the {:.2} MB of prompts the source emitted",
            mb(run.peak_bytes),
            mb(run.prompt_bytes)
        );
    }
}
