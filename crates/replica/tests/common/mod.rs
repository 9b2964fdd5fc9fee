//! What the two seeded KV suites share: the random op interpreter and
//! the per-operation fingerprint of a [`PrefixCache`]. Invariants say
//! the cache is *consistent* after each op; the fingerprint says it did
//! *exactly what it did before* — which victim died, what was demoted,
//! what hit — so a structural change to the tree underneath cannot
//! reorder eviction unnoticed.

use skywalker_replica::{Lease, PrefixCache};
use skywalker_sim::DetRng;

/// One live lease plus the token sequence it provably pins.
pub struct LiveLease {
    pub lease: Lease,
    pub tokens: Vec<u32>,
}

#[derive(Debug)]
enum Op {
    Acquire,
    Extend,
    Release,
    Complete,
    Evict,
}

fn pick_op(rng: &mut DetRng) -> Op {
    match rng.below(8) {
        0..=2 => Op::Acquire,
        3 => Op::Extend,
        4 => Op::Release,
        5 | 6 => Op::Complete,
        _ => Op::Evict,
    }
}

pub fn random_tokens(rng: &mut DetRng, alphabet: u64, max_len: u64) -> Vec<u32> {
    let len = rng.below(max_len);
    (0..len).map(|_| rng.below(alphabet) as u32).collect()
}

/// Draws one op and applies it to `c`, keeping `live` in step. Returns
/// the op's `cached` word for [`Fingerprint::observe`], or `None` if the
/// op needed a live lease and there was none (nothing happened).
pub fn random_op(
    rng: &mut DetRng,
    c: &mut PrefixCache,
    live: &mut Vec<LiveLease>,
    at: &str,
) -> Option<u64> {
    let op = pick_op(rng);
    if live.is_empty() && matches!(op, Op::Extend | Op::Release | Op::Complete) {
        return None;
    }
    let mut cached = 0;
    match op {
        Op::Acquire => {
            let toks = random_tokens(rng, 10, 24);
            cached = REJECTED;
            if let Ok((lease, hit)) = c.acquire(&toks) {
                assert!(hit <= toks.len() as u64, "{at}: hit exceeds prompt");
                assert_eq!(lease.tokens(), toks.len() as u64);
                // Promote-on-hit: an acquire that succeeds leaves its
                // entire sequence GPU-resident immediately.
                let (gpu, host) = c.matched_tokens_tiered(&toks);
                assert_eq!(gpu, toks.len() as u64, "{at}");
                assert_eq!(host, 0, "{at}: acquired via host tier");
                cached = hit;
                live.push(LiveLease {
                    lease,
                    tokens: toks,
                });
            }
        }
        Op::Extend => {
            let l = live.remove(rng.below(live.len() as u64) as usize);
            let gen_toks = random_tokens(rng, 10, 8);
            let before = l.lease.tokens();
            let lease = c.extend(l.lease, &gen_toks);
            let mut tokens = l.tokens;
            if lease.tokens() > before {
                // Extension stuck: the lease now pins prompt + output.
                assert_eq!(lease.tokens(), before + gen_toks.len() as u64);
                tokens.extend(&gen_toks);
            }
            live.push(LiveLease { lease, tokens });
        }
        Op::Release => {
            let i = rng.below(live.len() as u64) as usize;
            c.release(live.remove(i).lease);
        }
        Op::Complete => {
            let i = rng.below(live.len() as u64) as usize;
            let gen_toks = random_tokens(rng, 10, 8);
            c.complete(live.remove(i).lease, &gen_toks);
        }
        Op::Evict => c.clear_unpinned(),
    }
    Some(cached)
}

/// Marks an `acquire` the cache refused.
pub const REJECTED: u64 = u64::MAX;

/// FNV-1a over the observable counters after every operation.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one op's outcome: `cached` is the hit an `acquire`
    /// returned ([`REJECTED`] if it failed, 0 for every other op).
    pub fn observe(&mut self, cached: u64, c: &PrefixCache) {
        for word in [
            cached,
            c.used_tokens(),
            c.host_used_tokens(),
            c.evicted_tokens(),
            c.demoted_tokens(),
            c.promoted_tokens(),
        ] {
            for b in word.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}
