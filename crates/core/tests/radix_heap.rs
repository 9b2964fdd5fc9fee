//! What a stored token costs in heap, under both trees that stand on
//! `RadixArena` — refereed by an allocator, not by anything the crates
//! report about themselves.
//!
//! The paper bounds a balancer's trie in tokens (§3.2); how many bytes a
//! token costs is this code's choice. Three readings:
//!
//! - a `RouteTrie` fed a `kv_pressure`-shaped stream (64 shared
//!   256-token documents, 100 k unique suffixes of about 24 tokens)
//!   holds at most [`TRIE_BYTES_PER_TOKEN`] bytes a stored token;
//! - a trie at its token bound holds no more heap after 10 k further
//!   insert-and-evict rounds than before them, give or take
//!   [`FRONTIER_WOBBLE`]: a freed node gives its bytes back instead of
//!   leaving them with its slot;
//! - a `PrefixCache` churned through acquire, complete and evict holds
//!   at most [`CACHE_BYTES_PER_TOKEN`] bytes a resident token.
//!
//! One `#[test]` only: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skywalker_core::RouteTrie;
use skywalker_replica::{KvConfig, PrefixCache};
use skywalker_sim::DetRng;

/// `System`, plus the bytes currently allocated (the scheme of
/// `crates/trace/tests/log_heap.rs`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counter is a plain
// statistic and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
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
        LIVE.fetch_add(new_size, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A quarter above the 10.42 B a route trie holds a stored token of
/// [`trie_bytes_per_token`]'s stream (14.18 B when a node kept a
/// four-entry target vector and its slot's old capacity).
const TRIE_BYTES_PER_TOKEN: f64 = 13.0;
/// A quarter above the 6.43 B a churned prefix cache holds a resident
/// token (20.60 B when freed slots kept their segment buffers).
const CACHE_BYTES_PER_TOKEN: f64 = 8.0;
/// How far the heap of a trie at its bound may drift over the churn: its
/// eviction frontier is a B-tree whose node count wobbles by a few
/// 192–288 B nodes as it slides (at most 648 B over 40 k rounds). Slots
/// that kept their segments' capacity added 147 kB.
const FRONTIER_WOBBLE: usize = 1024;

const DOCS: u64 = 64;
const DOC_TOKENS: u32 = 256;

/// A RAG prompt: one of [`DOCS`] shared documents, then a unique query
/// of 16–32 tokens (24 on average) from a vocabulary of 2²⁰ — the
/// shape of skybench's `kv_pressure`.
fn rag_prompt(rng: &mut DetRng) -> Vec<u32> {
    let doc = rng.below(DOCS) as u32;
    let query = rng.range(16, 33);
    (0..DOC_TOKENS)
        .map(|t| doc * DOC_TOKENS + t)
        .chain((0..query).map(|_| (1 << 20) + rng.below(1 << 20) as u32))
        .collect()
}

/// Heap held now beyond `before`, per token.
fn per_token(before: usize, tokens: u64) -> f64 {
    (LIVE.load(Relaxed) - before) as f64 / tokens as f64
}

/// (a) A trie at the paper's bound holding 100 k prompts without
/// evicting: bytes held per stored token.
fn trie_bytes_per_token() -> f64 {
    let mut rng = DetRng::for_component(61, "radix-heap/trie");
    let before = LIVE.load(Relaxed);
    let mut trie: RouteTrie<u32> = RouteTrie::new(1 << 22);
    for _ in 0..100_000 {
        let prompt = rag_prompt(&mut rng);
        trie.insert(&prompt, rng.below(8) as u32);
    }
    let stored = trie.stored_tokens() as u64;
    assert!(stored > 2_000_000, "{stored} tokens stored");
    per_token(before, stored)
}

/// (b) A trie filled to its bound by a stream whose every shape repeats
/// with a period of 200 prompts, then churned for 10 k rounds (a whole
/// number of periods), each inserting one prompt and evicting the
/// oldest leaves: heap held before and after the churn. Query lengths
/// vary (4–52 tokens), so a slot that kept its segment's capacity
/// ratchets up to the longest it ever held.
fn trie_churn() -> (usize, usize) {
    let prompt = |i: u32| -> Vec<u32> {
        let doc = i % 50;
        let query = 4 + 2 * (i % 25);
        (0..64)
            .map(|t| doc * 64 + t)
            .chain((0..query).map(|t| (1 << 20) + i * 64 + t))
            .collect()
    };
    let mut trie: RouteTrie<u32> = RouteTrie::new(1 << 15);
    let mut i = 0;
    let mut round = |trie: &mut RouteTrie<u32>| {
        trie.insert(&prompt(i), i % 8);
        i += 1;
    };
    while trie.stored_tokens() + 128 < trie.max_tokens() {
        round(&mut trie);
    }
    let before = LIVE.load(Relaxed);
    for _ in 0..10_000 {
        round(&mut trie);
    }
    trie.check_invariants();
    (before, LIVE.load(Relaxed))
}

/// (c) One replica's cache (the L4 geometry, one-token blocks so that
/// the charge is the token count) serving 20 k RAG requests, each
/// answered with 8–160 generated tokens, four in flight at a time:
/// bytes held per resident token at the end.
fn cache_bytes_per_token() -> f64 {
    let mut rng = DetRng::for_component(61, "radix-heap/cache");
    let before = LIVE.load(Relaxed);
    let mut cache = PrefixCache::new(KvConfig {
        capacity_tokens: KvConfig::L4_LLAMA8B.capacity_tokens,
        block_tokens: 1,
    });
    let mut in_flight = Vec::new();
    for _ in 0..20_000 {
        let prompt = rag_prompt(&mut rng);
        let (lease, _) = cache.acquire(&prompt).expect("four leases fit");
        in_flight.push(lease);
        if in_flight.len() == 4 {
            let lease = in_flight.remove(0);
            let answer: Vec<u32> = (0..rng.range(8, 161))
                .map(|_| (1 << 21) + rng.below(1 << 20) as u32)
                .collect();
            cache.complete(lease, &answer);
        }
    }
    for lease in in_flight {
        cache.release(lease);
    }
    cache.check_invariants();
    assert!(cache.evicted_tokens() > 0, "the cache churned");
    per_token(before, cache.used_tokens())
}

#[test]
fn a_stored_token_costs_its_bytes_and_little_more() {
    let trie = trie_bytes_per_token();
    println!("route trie: {trie:.2} B a stored token");
    let (before, after) = trie_churn();
    println!("trie at its bound: {before} B -> {after} B after 10 k rounds");
    let cache = cache_bytes_per_token();
    println!("prefix cache: {cache:.2} B a resident token");
    assert!(
        trie <= TRIE_BYTES_PER_TOKEN,
        "a route trie holds {trie:.2} B a stored token, over {TRIE_BYTES_PER_TOKEN}"
    );
    assert!(
        after <= before + FRONTIER_WOBBLE,
        "10 k insert-and-evict rounds at the bound grew the heap from {before} B to {after} B"
    );
    assert!(
        cache <= CACHE_BYTES_PER_TOKEN,
        "a prefix cache holds {cache:.2} B a resident token, over {CACHE_BYTES_PER_TOKEN}"
    );
}
