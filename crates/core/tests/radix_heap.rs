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
//! - a trie that has reached its token bound and evicted holds no more
//!   heap after 10 k further insert-and-evict rounds than before them,
//!   give or take [`FRONTIER_WOBBLE`]: a freed node gives its bytes back
//!   instead of leaving them with its slot;
//! - a `PrefixCache` churned through acquire, complete and evict holds
//!   at most [`CACHE_BYTES_PER_TOKEN`] bytes a resident token;
//! - a `PrefixCache` serving Tree-of-Thoughts trees, each output handed
//!   over as a run (request, offset, length), holds at most
//!   [`TOT_BYTES_PER_TOKEN`] bytes a resident token.
//!
//! One `#[test]` only: the counter is process-wide.

use std::sync::atomic::Ordering::Relaxed;

use skywalker_core::RouteTrie;
use skywalker_replica::{output_token, KvConfig, PrefixCache};
use skywalker_sim::DetRng;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::LIVE;

/// About 5 % above the 7.26 B a route trie holds a stored token of
/// [`trie_bytes_per_token`]'s stream, whose trie never reaches its bound
/// and so keeps no eviction frontier, and whose one-target nodes hold
/// their target in the node (7.92 B when each kept it in a 16-byte heap
/// block of its own, 9.34 B when a trie also kept that frontier from its
/// first insert, 10.42 B when every node also kept its children in a
/// sorted vector of its own, 14.18 B when a node also kept a four-entry
/// target vector and its slot's old capacity).
const TRIE_BYTES_PER_TOKEN: f64 = 7.6;
/// About 7 % above the 5.61 B a churned prefix cache holds a resident
/// token (6.43 B with a child vector per node, 20.60 B when freed slots
/// also kept their segment buffers).
const CACHE_BYTES_PER_TOKEN: f64 = 6.0;
/// About 7 % above the 1.07 B a ToT-fed prefix cache holds a resident
/// token, where most resident tokens are generated thoughts kept as
/// 16-byte runs (4.80 B when each output leaf held its tokens).
const TOT_BYTES_PER_TOKEN: f64 = 1.15;
/// How far the heap of a trie at its bound may drift over the churn: its
/// eviction frontier, built at the first overflow before the churn
/// starts, is a B-tree whose node count wobbles by a few 192–288 B nodes
/// as it slides (at most 648 B over 40 k rounds). Slots that kept their
/// segments' capacity added 147 kB.
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

/// (b) A trie filled past its bound by a stream whose every shape
/// repeats with a period of 200 prompts, run for one whole period, then
/// churned for 10 k rounds (a whole number of periods), each inserting
/// one prompt and evicting the oldest leaves: heap held before and after
/// the churn. Query lengths vary (4–52 tokens), so a slot that kept its
/// segment's capacity ratchets up to the longest it ever held.
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
    // The period takes the trie over its bound, which builds its
    // eviction frontier: growth that the steady state is not about.
    for _ in 0..200 {
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

/// (d) One replica's cache (the L4 geometry, one-token blocks) serving
/// 3 000 Tree-of-Thoughts questions: a 96-token question, then a
/// depth-4, branch-2 tree whose children's prompt is their parent's
/// prompt and thought, each thought 8–300 generated tokens handed to
/// the cache as a run. Bytes held per resident token at the end.
fn tot_cache_bytes_per_token() -> f64 {
    let mut rng = DetRng::for_component(61, "radix-heap/tot");
    let before = LIVE.load(Relaxed);
    let mut cache = PrefixCache::new(KvConfig {
        capacity_tokens: KvConfig::L4_LLAMA8B.capacity_tokens,
        block_tokens: 1,
    });
    let mut request = 0;
    for question in 0..3_000u32 {
        let mut level = vec![(0..96).map(|t| question * 96 + t).collect::<Vec<u32>>()];
        for depth in 0..4 {
            let mut children = Vec::new();
            for prompt in &level {
                let (lease, _) = cache.acquire(prompt).expect("one lease fits");
                request += 1;
                let len = rng.range(8, 301) as u32;
                cache.complete_run(lease, request, 0, len);
                if depth < 3 {
                    let mut child = prompt.clone();
                    child.extend((0..len).map(|k| output_token(request, k)));
                    children.extend([child.clone(), child]);
                }
            }
            level = children;
        }
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
    let tot = tot_cache_bytes_per_token();
    println!("ToT-fed prefix cache: {tot:.2} B a resident token");
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
    assert!(
        tot <= TOT_BYTES_PER_TOKEN,
        "a ToT-fed prefix cache holds {tot:.2} B a resident token, over {TOT_BYTES_PER_TOKEN}"
    );
}
