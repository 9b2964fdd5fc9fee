//! Routing policies: who should serve this request?
//!
//! A policy picks one target from a candidate list. The same abstraction
//! serves both layers of SkyWalker's two-layer design (§3.1): between a
//! balancer and its local replicas, and between balancers across regions.
//! The baselines of §5.1 are policies too:
//!
//! | Paper system     | Policy             | Push mode |
//! |------------------|--------------------|-----------|
//! | RR               | [`RoundRobin`]     | BP        |
//! | LL               | [`LeastLoad`]      | BP        |
//! | CH               | [`ConsistentHash`] | BP        |
//! | SGLang Router    | [`CacheAware`]     | BP        |
//! | SkyWalker-CH     | [`ConsistentHash`] | SP-P      |
//! | SkyWalker        | [`CacheAware`]     | SP-P      |
//!
//! The policy surface is **open**: anything implementing
//! [`RoutingPolicy`] plugs into [`RegionalBalancer`] — the four paper
//! policies above are ordinary implementations with no special standing,
//! and downstream crates add their own without touching this one (the
//! facade crate's `P2cLocal` is the worked example). [`PolicyKind`]
//! survives purely as a convenience constructor for the built-ins.
//!
//! `CacheAware` is the prefix-tree policy: route to the available target
//! with the longest matching prefix; when the best hit ratio is below a
//! threshold, prefix affinity is worthless and the policy explores the
//! least-loaded target instead (§5.1: "when the prefix hit ratio is low
//! (e.g. <50 %), it explores other underutilized replicas").
//!
//! [`RegionalBalancer`]: crate::RegionalBalancer

use skywalker_net::Region;

use crate::ring::{hash_key, HashRing, RingTarget};
use crate::trie::RouteTrie;

/// A policy's view of one candidate target: its identity, a load figure
/// (outstanding requests for replicas, queue length for peer balancers),
/// and — when the caller knows it — the region the target serves, so
/// locality-aware policies can weigh distance without extra plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetState<T> {
    /// Target identity.
    pub id: T,
    /// Comparable load (lower is better).
    pub load: u32,
    /// Region the target serves, if known.
    pub region: Option<Region>,
}

impl<T> TargetState<T> {
    /// A candidate with no region information.
    pub fn new(id: T, load: u32) -> Self {
        TargetState {
            id,
            load,
            region: None,
        }
    }

    /// Attaches the region this target serves.
    pub fn in_region(mut self, region: Region) -> Self {
        self.region = Some(region);
        self
    }
}

/// An open routing policy over targets of type `T`.
///
/// Implementations are stateful: `select` may advance cursors, and
/// `note_dispatch` feeds placement history back to affinity policies.
/// Only [`RoutingPolicy::select`] and [`RoutingPolicy::name`] are
/// required; target bookkeeping and hit-ratio estimation default to
/// no-ops so stateless policies stay one method long.
///
/// The contract `select` must honor:
///
/// - return `None` **iff** `candidates` is empty;
/// - return the id of one of the `candidates` (the push mode has already
///   deemed every listed candidate available);
/// - be deterministic given its own state (the simulator replays runs
///   bit-for-bit; derive any randomness from seeds, not ambient entropy).
pub trait RoutingPolicy<T: RingTarget>: std::fmt::Debug + Send {
    /// Picks a target among `candidates`.
    ///
    /// `key` is the session/consistent-hashing key; `prompt` the token
    /// sequence for prefix matching.
    fn select(&mut self, key: &str, prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T>;

    /// Records a dispatch so affinity policies learn the placement.
    fn note_dispatch(&mut self, _prompt: &[u32], _target: T) {}

    /// Registers a target (needed by consistent hashing; harmless
    /// elsewhere).
    fn add_target(&mut self, _target: T) {}

    /// Unregisters a target everywhere (controller decommissioning).
    fn remove_target(&mut self, _target: T) {}

    /// This policy's estimate of the prefix hit ratio `target` would give
    /// `prompt` (0 for non-affinity policies) — the cross-region
    /// tie-breaking signal (§3.3).
    fn hit_ratio(&self, _prompt: &[u32], _target: T) -> f64 {
        0.0
    }

    /// Short label for experiment tables.
    fn name(&self) -> &str;
}

/// Shared parameters for policy construction. Policies read what they
/// need and ignore the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyParams {
    /// Size bound for routing tries, in tokens.
    pub trie_max_tokens: usize,
    /// Hit-ratio threshold below which [`CacheAware`] explores by load
    /// instead of chasing affinity (§5.1 discusses 50 %).
    pub affinity_threshold: f64,
    /// Load-balance override of [`CacheAware`] (as in the SGLang router):
    /// when the load gap between the most and least loaded candidate
    /// exceeds this many requests, abandon affinity and route by shortest
    /// queue.
    pub balance_abs_threshold: u32,
}

impl Default for PolicyParams {
    fn default() -> Self {
        PolicyParams {
            trie_max_tokens: 1 << 22,
            affinity_threshold: 0.5,
            balance_abs_threshold: 32,
        }
    }
}

/// Which built-in policy to construct — a convenience constructor for the
/// four paper policies. Custom policies bypass this entirely and hand the
/// balancer a `Box<dyn RoutingPolicy<T>>` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Round robin.
    RoundRobin,
    /// Least load.
    LeastLoad,
    /// Consistent hashing.
    ConsistentHash,
    /// Prefix-tree cache-aware.
    CacheAware,
}

impl PolicyKind {
    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "RR",
            PolicyKind::LeastLoad => "LL",
            PolicyKind::ConsistentHash => "CH",
            PolicyKind::CacheAware => "Tree",
        }
    }

    /// Builds a boxed policy of this kind with the given parameters.
    pub fn build<T: RingTarget>(&self, params: &PolicyParams) -> Box<dyn RoutingPolicy<T>> {
        match self {
            PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
            PolicyKind::LeastLoad => Box::new(LeastLoad),
            PolicyKind::ConsistentHash => Box::new(ConsistentHash::new()),
            PolicyKind::CacheAware => Box::new(CacheAware::new(
                params.trie_max_tokens,
                params.affinity_threshold,
                params.balance_abs_threshold,
            )),
        }
    }
}

/// Picks the least-loaded candidate with stable (lowest-id) ties — the
/// shared fallback of [`LeastLoad`] and [`CacheAware`], exported for
/// custom policies that want the same discipline.
pub fn least_loaded<T: RingTarget>(candidates: &[TargetState<T>]) -> Option<T> {
    candidates
        .iter()
        .min_by_key(|c| (c.load, c.id))
        .map(|c| c.id)
}

/// Cycle through candidates in order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    /// Rotation cursor.
    cursor: usize,
}

impl RoundRobin {
    /// A fresh round-robin policy starting at the first candidate.
    pub fn new() -> Self {
        RoundRobin { cursor: 0 }
    }
}

impl<T: RingTarget> RoutingPolicy<T> for RoundRobin {
    fn select(&mut self, _key: &str, _prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T> {
        if candidates.is_empty() {
            return None;
        }
        let t = candidates[self.cursor % candidates.len()].id;
        self.cursor = self.cursor.wrapping_add(1);
        Some(t)
    }

    fn name(&self) -> &str {
        "RR"
    }
}

/// Pick the candidate with the least load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoad;

impl<T: RingTarget> RoutingPolicy<T> for LeastLoad {
    fn select(&mut self, _key: &str, _prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T> {
        least_loaded(candidates)
    }

    fn name(&self) -> &str {
        "LL"
    }
}

/// Ring-hash on the session key with availability skipping (§3.2,
/// SkyWalker-CH).
#[derive(Debug, Clone)]
pub struct ConsistentHash<T> {
    ring: HashRing<T>,
}

impl<T: RingTarget> ConsistentHash<T> {
    /// A ring with 64 virtual nodes per target.
    pub fn new() -> Self {
        ConsistentHash {
            ring: HashRing::new(64),
        }
    }
}

impl<T: RingTarget> Default for ConsistentHash<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: RingTarget> RoutingPolicy<T> for ConsistentHash<T> {
    fn select(&mut self, key: &str, _prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T> {
        if candidates.is_empty() {
            return None;
        }
        let in_candidates = |t: &T| candidates.iter().any(|c| c.id == *t);
        self.ring
            .lookup(hash_key(key), in_candidates)
            // A target may be serving without having been registered
            // (defensive); fall back to first candidate.
            .or(Some(candidates[0].id))
    }

    fn add_target(&mut self, target: T) {
        self.ring.add(target);
    }

    fn remove_target(&mut self, target: T) {
        self.ring.remove(target);
    }

    fn name(&self) -> &str {
        "CH"
    }
}

/// Prefix-tree routing (§3.2, SkyWalker; also models the SGLang Router
/// baseline when combined with blind pushing).
///
/// The balancer-side trie records what each target *was sent*, not what
/// its replica still holds: [`RoutingPolicy::hit_ratio`] is therefore
/// an optimistic estimate. How optimistic depends on the replica's
/// serving engine — under KV pressure an aggressive `KvEvictor`
/// (`skywalker-replica`) discards exactly the prefixes this trie still
/// advertises, and the realized replica hit rate falls below the
/// routing estimate. The `memory_pressure` preset and the "Engine
/// shootout" row of `docs/claims.md` measure that gap per engine; see
/// `docs/replica.md` §4 for the interplay and how to calibrate
/// `affinity_threshold` against eviction churn.
#[derive(Debug)]
pub struct CacheAware<T> {
    /// Prefix trie recording which target served which prompts.
    trie: RouteTrie<T>,
    /// Minimum hit ratio for affinity routing; below it, explore the
    /// least-loaded candidate.
    threshold: f64,
    /// Load-balance override (as in the SGLang router): when the load gap
    /// between the most and least loaded candidate exceeds this many
    /// requests, abandon affinity and route by shortest queue. Under
    /// blind pushing this is what scatters prefixes and collapses the hit
    /// rate (Fig. 9); under SP-P loads never diverge enough to trigger
    /// it.
    balance_abs_threshold: u32,
}

impl<T: RingTarget> CacheAware<T> {
    /// Prefix-tree policy with the given trie bound, hit-ratio threshold,
    /// and balance override.
    pub fn new(trie_max_tokens: usize, threshold: f64, balance_abs_threshold: u32) -> Self {
        CacheAware {
            trie: RouteTrie::new(trie_max_tokens),
            threshold,
            balance_abs_threshold,
        }
    }
}

impl<T: RingTarget> RoutingPolicy<T> for CacheAware<T> {
    fn select(&mut self, _key: &str, prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T> {
        if candidates.is_empty() {
            return None;
        }
        // Balance override: a badly skewed fleet routes by load, prefix
        // affinity be damned (the SGLang router's rule).
        let max_load = candidates.iter().map(|c| c.load).max().unwrap_or(0);
        let min_load = candidates.iter().map(|c| c.load).min().unwrap_or(0);
        if max_load - min_load > self.balance_abs_threshold {
            return least_loaded(candidates);
        }
        let in_candidates = |t: &T| candidates.iter().any(|c| c.id == *t);
        let best = self.trie.best_match(prompt, in_candidates);
        let hit_ratio = match (&best, prompt.len()) {
            (Some(m), n) if n > 0 => m.matched as f64 / n as f64,
            _ => 0.0,
        };
        match best {
            Some(m) if hit_ratio >= self.threshold => Some(m.target),
            // Low affinity (or a cold trie): balance load instead of
            // chasing a worthless prefix.
            _ => least_loaded(candidates),
        }
    }

    fn note_dispatch(&mut self, prompt: &[u32], target: T) {
        self.trie.insert(prompt, target);
    }

    fn remove_target(&mut self, target: T) {
        self.trie.purge_target(target);
    }

    fn hit_ratio(&self, prompt: &[u32], target: T) -> f64 {
        if prompt.is_empty() {
            return 0.0;
        }
        self.trie.matched_for(prompt, target) as f64 / prompt.len() as f64
    }

    fn name(&self) -> &str {
        "Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states(loads: &[u32]) -> Vec<TargetState<u32>> {
        loads
            .iter()
            .enumerate()
            .map(|(i, l)| TargetState::new(i as u32, *l))
            .collect()
    }

    fn cache_aware(trie_max_tokens: usize, threshold: f64) -> CacheAware<u32> {
        CacheAware::new(trie_max_tokens, threshold, 32)
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::new();
        let c = states(&[0, 0, 0]);
        let picks: Vec<u32> = (0..6).map(|_| p.select("k", &[], &c).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_load_picks_minimum_with_stable_ties() {
        let mut p = LeastLoad;
        assert_eq!(p.select("k", &[], &states(&[5, 2, 9])), Some(1));
        assert_eq!(p.select("k", &[], &states(&[3, 3, 3])), Some(0));
    }

    #[test]
    fn consistent_hash_sticky_per_key() {
        let mut p: ConsistentHash<u32> = ConsistentHash::new();
        for t in 0..4 {
            RoutingPolicy::add_target(&mut p, t);
        }
        let c = states(&[0, 0, 0, 0]);
        let a = p.select("user-1", &[], &c).unwrap();
        for _ in 0..10 {
            assert_eq!(p.select("user-1", &[], &c), Some(a));
        }
        // Restricting candidates forces the ring walk to skip.
        let reduced: Vec<TargetState<u32>> = states(&[0, 0, 0, 0])
            .into_iter()
            .filter(|s| s.id != a)
            .collect();
        let b = p.select("user-1", &[], &reduced).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn cache_aware_routes_to_affinity_above_threshold() {
        let mut p = cache_aware(1 << 16, 0.5);
        let prompt: Vec<u32> = (0..10).collect();
        p.note_dispatch(&prompt, 2);
        // Full-prefix request: hit ratio 1.0 ≥ 0.5 → affinity target.
        let c = states(&[0, 0, 9]);
        assert_eq!(p.select("k", &prompt, &c), Some(2), "affinity beats load");
    }

    #[test]
    fn cache_aware_explores_below_threshold() {
        let mut p = cache_aware(1 << 16, 0.5);
        p.note_dispatch(&[1, 2], 2);
        // Only 2 of 10 tokens match (20 % < 50 %): least load wins.
        let prompt: Vec<u32> = vec![1, 2, 30, 31, 32, 33, 34, 35, 36, 37];
        let c = states(&[7, 0, 9]);
        assert_eq!(p.select("k", &prompt, &c), Some(1));
    }

    #[test]
    fn cache_aware_zero_threshold_cold_trie_still_selects() {
        // A zero threshold makes every hit ratio "good enough", but a
        // cold trie has no match at all — the policy must still pick a
        // candidate rather than fail the dispatch.
        let mut p = cache_aware(1 << 12, 0.0);
        let c = states(&[4, 1, 9]);
        assert_eq!(p.select("k", &[1, 2, 3], &c), Some(1));
    }

    #[test]
    fn cache_aware_balance_override_trumps_affinity() {
        let mut p = cache_aware(1 << 16, 0.5);
        let prompt: Vec<u32> = (0..10).collect();
        p.note_dispatch(&prompt, 2);
        // Affinity target 2 is 40 requests deeper than target 1: the
        // balance rule (threshold 32) kicks in and routes by load.
        let c = states(&[38, 0, 40]);
        assert_eq!(p.select("k", &prompt, &c), Some(1));
        // Within the threshold, affinity still wins.
        let c = states(&[20, 0, 30]);
        assert_eq!(p.select("k", &prompt, &c), Some(2));
    }

    #[test]
    fn cache_aware_balance_threshold_is_configurable() {
        // A tight override of 4 outstanding requests flips to least-load
        // on gaps the default 32 would tolerate.
        let mut p: CacheAware<u32> = CacheAware::new(1 << 16, 0.5, 4);
        let prompt: Vec<u32> = (0..10).collect();
        p.note_dispatch(&prompt, 2);
        let c = states(&[3, 0, 6]); // gap 6 > 4 → balance override
        assert_eq!(p.select("k", &prompt, &c), Some(1));
        // A loose override of 100 keeps affinity on the same candidates.
        let mut p: CacheAware<u32> = CacheAware::new(1 << 16, 0.5, 100);
        p.note_dispatch(&prompt, 2);
        assert_eq!(p.select("k", &prompt, &c), Some(2));
    }

    #[test]
    fn cache_aware_ignores_unavailable_affinity() {
        let mut p = cache_aware(1 << 16, 0.5);
        let prompt: Vec<u32> = (0..8).collect();
        p.note_dispatch(&prompt, 0);
        // Target 0 not in candidates: next-best is exploration.
        let c = states(&[0, 3])[1..].to_vec();
        assert_eq!(p.select("k", &prompt, &c), Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut policies: Vec<Box<dyn RoutingPolicy<u32>>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(LeastLoad),
            Box::new(ConsistentHash::new()),
            Box::new(cache_aware(64, 0.5)),
        ];
        for p in &mut policies {
            assert_eq!(p.select("k", &[1], &[]), None);
        }
    }

    #[test]
    fn hit_ratio_estimates() {
        let mut p = cache_aware(1 << 16, 0.5);
        let prompt: Vec<u32> = (0..10).collect();
        p.note_dispatch(&prompt, 3);
        assert!((RoutingPolicy::hit_ratio(&p, &prompt, 3) - 1.0).abs() < 1e-9);
        assert_eq!(RoutingPolicy::hit_ratio(&p, &prompt, 4), 0.0);
        let ll = LeastLoad;
        assert_eq!(RoutingPolicy::<u32>::hit_ratio(&ll, &prompt, 3), 0.0);
    }

    #[test]
    fn remove_target_purges_state() {
        let mut p = cache_aware(1 << 16, 0.0);
        let prompt: Vec<u32> = (0..4).collect();
        p.note_dispatch(&prompt, 1);
        RoutingPolicy::remove_target(&mut p, 1);
        assert_eq!(RoutingPolicy::hit_ratio(&p, &prompt, 1), 0.0);

        let mut ch: ConsistentHash<u32> = ConsistentHash::new();
        RoutingPolicy::add_target(&mut ch, 1);
        RoutingPolicy::add_target(&mut ch, 2);
        RoutingPolicy::remove_target(&mut ch, 1);
        let c = states(&[0, 0, 0]);
        for k in 0..20 {
            let pick = ch.select(&format!("k{k}"), &[], &c);
            assert_ne!(pick, Some(1));
        }
    }

    #[test]
    fn kind_labels() {
        assert_eq!(PolicyKind::RoundRobin.label(), "RR");
        assert_eq!(PolicyKind::LeastLoad.label(), "LL");
        assert_eq!(PolicyKind::ConsistentHash.label(), "CH");
        assert_eq!(PolicyKind::CacheAware.label(), "Tree");
    }

    #[test]
    fn build_constructs_each_kind() {
        for kind in [
            PolicyKind::RoundRobin,
            PolicyKind::LeastLoad,
            PolicyKind::ConsistentHash,
            PolicyKind::CacheAware,
        ] {
            let mut p: Box<dyn RoutingPolicy<u32>> = kind.build(&PolicyParams::default());
            p.add_target(0);
            assert_eq!(p.select("k", &[], &states(&[0])), Some(0));
            assert_eq!(p.name(), kind.label());
        }
    }

    #[test]
    fn target_state_region_tagging() {
        let t = TargetState::new(7u32, 3).in_region(Region::EuWest);
        assert_eq!(t.region, Some(Region::EuWest));
        assert_eq!(TargetState::new(7u32, 3).region, None);
    }
}
