//! Seeded property suite for the radix-tree KV cache — the invariant
//! harness behind the open `KvEvictor` axis.
//!
//! Thousands of random `acquire` / `extend` / `release` / `complete` /
//! evict (`clear_unpinned`) sequences run against small caches under
//! every built-in evictor, calling `check_invariants()` after *every*
//! operation and asserting two accounting laws on top:
//!
//! 1. `used_tokens == pinned_tokens + reclaimable_tokens` — live lease
//!    paths plus cached-but-unpinned state exactly partition the charge
//!    against capacity (no token is double-counted or leaked);
//! 2. eviction never reclaims pinned state — every live lease's full
//!    acquired-plus-extended token sequence stays resident, whatever
//!    the evictor does.
//!
//! On top of the laws, each evictor's 350 sequences fold into one
//! per-operation [`Fingerprint`] pinned to a constant recorded before
//! the cache moved onto the shared `RadixArena`: exact eviction order,
//! not just consistency.
//!
//! Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.

mod common;

use common::{random_op, random_tokens, Fingerprint, LiveLease};
use skywalker_replica::{
    KvConfig, KvEvictor, LruEvictor, NoEvict, PrefixAwareEvictor, PrefixCache,
};
use skywalker_sim::DetRng;

fn check(c: &PrefixCache, live: &[LiveLease], case: u64, op_no: usize) {
    c.check_invariants();
    assert_eq!(
        c.pinned_tokens() + c.reclaimable_tokens(),
        c.used_tokens(),
        "case {case} op {op_no}: pinned + reclaimable must equal used"
    );
    for (li, l) in live.iter().enumerate() {
        assert_eq!(
            c.matched_tokens(&l.tokens),
            l.tokens.len() as u64,
            "case {case} op {op_no}: lease {li}'s pinned sequence was evicted"
        );
    }
}

fn run_case(case: u64, evictor: Box<dyn KvEvictor>, tag: &str, fp: &mut Fingerprint) {
    let mut rng = DetRng::for_component(case, &format!("kvcache-props/{tag}"));
    let cap = rng.range(8, 192);
    let mut c = PrefixCache::with_evictor(KvConfig::tiny(cap), evictor);
    let mut live: Vec<LiveLease> = Vec::new();
    let n_ops = rng.range(10, 60);
    for op_no in 0..n_ops as usize {
        let at = format!("case {case} op {op_no}");
        let Some(cached) = random_op(&mut rng, &mut c, &mut live, &at) else {
            continue;
        };
        check(&c, &live, case, op_no);
        fp.observe(cached, &c);
    }
    // Wind down: everything released, the whole cache reclaimable.
    for l in live.drain(..) {
        c.release(l.lease);
    }
    check(&c, &live, case, usize::MAX);
    assert_eq!(
        c.reclaimable_tokens(),
        c.used_tokens(),
        "case {case}: released cache fully reclaimable"
    );
}

/// ≥ 1000 seeded op-sequences: 350 per built-in evictor.
#[test]
fn invariants_hold_for_every_evictor_over_1000_sequences() {
    let (mut lru, mut aware, mut noevict) =
        (Fingerprint::new(), Fingerprint::new(), Fingerprint::new());
    for case in 0..350u64 {
        run_case(case, Box::new(LruEvictor), "lru", &mut lru);
        run_case(
            case,
            Box::new(PrefixAwareEvictor),
            "prefix-aware",
            &mut aware,
        );
        run_case(case, Box::new(NoEvict), "noevict", &mut noevict);
    }
    assert_eq!(
        [lru.value(), aware.value(), noevict.value()],
        [
            0xf1a0_4d0c_e0ee_33bd,
            0xd3de_d10c_dc97_c8d3,
            0x20da_490b_9508_5045,
        ],
        "per-op fingerprint drifted: the cache evicted, hit or charged differently"
    );
}

/// The evictor only reorders reclamation: whatever it picks, totals
/// balance — evicted + resident charge is monotone-consistent and the
/// cache never exceeds capacity (asserted inside `check_invariants`).
#[test]
fn eviction_totals_balance_across_evictors() {
    for case in 0..50u64 {
        let mut rng = DetRng::for_component(case, "kvcache-props/balance");
        let prompts: Vec<Vec<u32>> = (0..20)
            .map(|_| {
                let mut t = random_tokens(&mut rng, 6, 16);
                if t.is_empty() {
                    t.push(0);
                }
                t
            })
            .collect();
        for evictor in [
            Box::new(LruEvictor) as Box<dyn KvEvictor>,
            Box::new(PrefixAwareEvictor),
        ] {
            let mut c = PrefixCache::with_evictor(KvConfig::tiny(24), evictor);
            let mut charged_peak = 0u64;
            for p in &prompts {
                if let Ok((l, _)) = c.acquire(p) {
                    c.release(l);
                }
                charged_peak = charged_peak.max(c.used_tokens());
                c.check_invariants();
            }
            assert!(charged_peak <= 24, "case {case}: capacity respected");
            // Everything ever evicted was once resident: the cumulative
            // eviction counter can only be explained by past inserts.
            assert!(
                c.evicted_tokens().is_multiple_of(4),
                "block-rounded evictions"
            );
        }
    }
}
