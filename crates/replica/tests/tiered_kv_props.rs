//! Seeded property suite for the two-tier ([`TieredEvictor`]) prefix
//! cache — the invariant harness behind GPU→host demotion.
//!
//! Over 1000 random `acquire` / `extend` / `release` / `complete` /
//! evict (`clear_unpinned`) sequences run against small tiered caches,
//! calling `check_invariants()` after *every* operation and asserting
//! the tier laws on top:
//!
//! 1. the tiers partition residency — `check_invariants()` recounts
//!    the GPU and host charge from the live nodes and compares each with
//!    its counter (no token counted twice or dropped between tiers on a
//!    demote/promote), and the host tier stays within its budget;
//! 2. demotion never touches a pinned sequence — every live lease's
//!    full acquired-plus-extended token run stays *GPU*-resident,
//!    whatever the inner policy demotes;
//! 3. promote-on-hit restores GPU residency — the instant an acquire
//!    succeeds, its whole sequence is on the GPU, even the part that
//!    was host-resident a moment earlier;
//! 4. `host_budget = 0` is byte-identical to the unwrapped inner
//!    evictor ([`NoEvict`] and [`LruEvictor`] both): same accept/reject
//!    decisions, same counters, same residency, op for op.
//!
//! Each inner policy's 350 tiered sequences also fold into one
//! per-operation [`Fingerprint`] pinned to a constant recorded before
//! the cache moved onto the shared `RadixArena` (exact demote / promote
//! / evict order, not just consistency).
//!
//! Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.

mod common;

use common::{random_op, random_tokens, Fingerprint, LiveLease};
use skywalker_replica::{
    KvConfig, KvEvictor, LruEvictor, NoEvict, PrefixAwareEvictor, PrefixCache, TieredEvictor,
};
use skywalker_sim::DetRng;

/// The tier laws checked after every operation.
fn check_tiers(c: &PrefixCache, live: &[LiveLease], case: u64, op_no: usize) {
    c.check_invariants();
    assert!(
        c.host_used_tokens() <= c.host_budget(),
        "case {case} op {op_no}: host tier over budget"
    );
    for (li, l) in live.iter().enumerate() {
        // The pinned sequence survives demotion *and* stays on the GPU:
        // a demoted node would show up in the host half of the split.
        let (gpu, host) = c.matched_tokens_tiered(&l.tokens);
        assert_eq!(
            gpu,
            l.tokens.len() as u64,
            "case {case} op {op_no}: lease {li}'s pinned sequence left the GPU"
        );
        assert_eq!(
            host, 0,
            "case {case} op {op_no}: lease {li} matched through the host tier while pinned"
        );
    }
    // The tiered split is a partition of the plain match.
    for l in live {
        let (gpu, host) = c.matched_tokens_tiered(&l.tokens);
        assert_eq!(gpu + host, c.matched_tokens(&l.tokens));
    }
}

fn run_tiered_case(
    case: u64,
    inner: Box<dyn KvEvictor>,
    tag: &str,
    fresh_must_fit: bool,
    fp: &mut Fingerprint,
) {
    let mut rng = DetRng::for_component(case, &format!("tiered-kv-props/{tag}"));
    let cap = rng.range(32, 192);
    let host_budget = rng.range(0, 3) * cap / 2;
    let mut c = PrefixCache::with_evictor(
        KvConfig::tiny(cap),
        Box::new(TieredEvictor::new(inner, host_budget)),
    );
    let mut live: Vec<LiveLease> = Vec::new();
    let mut demoted_before = 0u64;
    let mut promoted_before = 0u64;
    let n_ops = rng.range(10, 60);
    for op_no in 0..n_ops as usize {
        let at = format!("case {case} op {op_no}");
        let Some(cached) = random_op(&mut rng, &mut c, &mut live, &at) else {
            continue;
        };
        // Cumulative tier-motion counters only grow.
        assert!(
            c.demoted_tokens() >= demoted_before,
            "case {case} op {op_no}"
        );
        assert!(
            c.promoted_tokens() >= promoted_before,
            "case {case} op {op_no}"
        );
        demoted_before = c.demoted_tokens();
        promoted_before = c.promoted_tokens();
        check_tiers(&c, &live, case, op_no);
        fp.observe(cached, &c);
    }
    // Wind down: with every lease released, a modest fresh prompt must
    // always be admittable under an evicting inner policy —
    // host-resident leaves may block their GPU parents from the
    // evictable fringe, but never permanently (regression: a fringe of
    // host leaves once wedged `acquire` with the whole cache
    // reclaimable). `NoEvict` is exempt: refusing to free anything is
    // its contract, tiered or not.
    for l in live.drain(..) {
        c.release(l.lease);
    }
    check_tiers(&c, &live, case, usize::MAX);
    if fresh_must_fit {
        let fresh: Vec<u32> = (0..cap / 4).map(|k| 1_000 + k as u32).collect();
        c.acquire(&fresh).unwrap_or_else(|e| {
            panic!("case {case}: fresh acquire wedged on a released cache: {e:?}")
        });
    }
}

/// ≥ 1000 seeded op-sequences against live host tiers: 350 per inner
/// policy under [`TieredEvictor`].
#[test]
fn tier_invariants_hold_over_1000_sequences() {
    let (mut lru, mut aware, mut noevict) =
        (Fingerprint::new(), Fingerprint::new(), Fingerprint::new());
    for case in 0..350u64 {
        run_tiered_case(case, Box::new(LruEvictor), "lru", true, &mut lru);
        run_tiered_case(
            case,
            Box::new(PrefixAwareEvictor),
            "prefix-aware",
            true,
            &mut aware,
        );
        run_tiered_case(case, Box::new(NoEvict), "noevict", false, &mut noevict);
    }
    assert_eq!(
        [lru.value(), aware.value(), noevict.value()],
        [
            0xc013_a267_34c6_a7af,
            0x2248_10a2_0d05_20d5,
            0xef81_249d_d1b2_6779,
        ],
        "per-op fingerprint drifted: the cache demoted, promoted or evicted differently"
    );
}

/// Deterministic end-to-end demote → host-hit → promote cycle, pinned
/// down to the exact counter values.
#[test]
fn promote_on_hit_restores_gpu_residency() {
    // cap 8, block 4: two resident 4-token segments max.
    let mut c = PrefixCache::with_evictor(
        KvConfig::tiny(8),
        Box::new(TieredEvictor::new(Box::new(LruEvictor), 64)),
    );
    let a = [1, 2, 3, 4];
    let b = [5, 6, 7, 8];
    let d = [9, 10, 11, 12];
    let (la, _) = c.acquire(&a).unwrap();
    c.release(la);
    let (lb, _) = c.acquire(&b).unwrap();
    c.release(lb);
    // Third segment forces a demotion of the LRU victim: `a`.
    let (ld, _) = c.acquire(&d).unwrap();
    c.release(ld);
    assert_eq!(c.matched_tokens_tiered(&a), (0, 4), "a demoted to host");
    assert_eq!(c.matched_tokens(&a), 4, "a host hit still counts");
    assert_eq!(c.demoted_tokens(), 4);
    assert_eq!(c.promoted_tokens(), 0);
    // Re-acquiring `a` promotes it back to the GPU.
    let (la, cached) = c.acquire(&a).unwrap();
    assert_eq!(cached, 4, "the host hit skipped prefill");
    assert_eq!(c.matched_tokens_tiered(&a), (4, 0), "a promoted to GPU");
    assert_eq!(c.promoted_tokens(), 4);
    c.release(la);
    c.check_invariants();
}

/// Applies one op to both caches of a mirrored pair and asserts every
/// observable agrees, byte for byte.
fn mirror_step(
    rng: &mut DetRng,
    (plain, live_p): (&mut PrefixCache, &mut Vec<LiveLease>),
    (tiered, live_t): (&mut PrefixCache, &mut Vec<LiveLease>),
    case: u64,
    op_no: usize,
) {
    let at = format!("case {case} op {op_no}");
    // One op, drawn twice from the same state: caches that agree consume
    // the same randomness, so any divergence surfaces below.
    let mut twin = rng.clone();
    let outcome = random_op(rng, plain, live_p, &at);
    assert_eq!(
        outcome,
        random_op(&mut twin, tiered, live_t, &at),
        "{at}: accept/reject or hit counts diverge"
    );
    if outcome.is_none() {
        return;
    }
    let lengths = |live: &[LiveLease]| live.iter().map(|l| l.lease.tokens()).collect::<Vec<_>>();
    assert_eq!(
        lengths(live_p),
        lengths(live_t),
        "{at}: acquire/extend outcomes diverge"
    );
    plain.check_invariants();
    tiered.check_invariants();
    assert_eq!(
        plain.used_tokens(),
        tiered.used_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(
        plain.reclaimable_tokens(),
        tiered.reclaimable_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(
        plain.pinned_tokens(),
        tiered.pinned_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(
        plain.evicted_tokens(),
        tiered.evicted_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(tiered.host_used_tokens(), 0, "case {case} op {op_no}");
    assert_eq!(tiered.demoted_tokens(), 0, "case {case} op {op_no}");
    assert_eq!(tiered.promoted_tokens(), 0, "case {case} op {op_no}");
    let probe = random_tokens(rng, 10, 24);
    assert_eq!(
        plain.matched_tokens(&probe),
        tiered.matched_tokens(&probe),
        "case {case} op {op_no}: probe match diverges"
    );
    let (gpu, host) = tiered.matched_tokens_tiered(&probe);
    assert_eq!(
        host, 0,
        "case {case} op {op_no}: host match with a zero budget"
    );
    assert_eq!(gpu, tiered.matched_tokens(&probe));
}

/// `TieredEvictor` with `host_budget = 0` is byte-identical to the
/// unwrapped inner evictor — for both [`NoEvict`] and [`LruEvictor`] —
/// over mirrored random op sequences.
#[test]
fn host_budget_zero_is_byte_identical_to_unwrapped() {
    type MakeEvictor = fn() -> Box<dyn KvEvictor>;
    let inners: [(&str, MakeEvictor); 2] = [
        ("noevict", || Box::new(NoEvict)),
        ("lru", || Box::new(LruEvictor)),
    ];
    for (tag, make) in inners {
        for case in 0..150u64 {
            let mut rng = DetRng::for_component(case, &format!("tiered-kv-props/mirror/{tag}"));
            let cap = rng.range(8, 192);
            let mut plain = PrefixCache::with_evictor(KvConfig::tiny(cap), make());
            let mut tiered = PrefixCache::with_evictor(
                KvConfig::tiny(cap),
                Box::new(TieredEvictor::new(make(), 0)),
            );
            let (mut live_p, mut live_t) = (Vec::new(), Vec::new());
            let n_ops = rng.range(10, 60);
            for op_no in 0..n_ops as usize {
                mirror_step(
                    &mut rng,
                    (&mut plain, &mut live_p),
                    (&mut tiered, &mut live_t),
                    case,
                    op_no,
                );
            }
            for (lp, lt) in live_p.drain(..).zip(live_t.drain(..)) {
                plain.release(lp.lease);
                tiered.release(lt.lease);
            }
            assert_eq!(plain.used_tokens(), tiered.used_tokens());
            assert_eq!(plain.reclaimable_tokens(), tiered.reclaimable_tokens());
        }
    }
}
