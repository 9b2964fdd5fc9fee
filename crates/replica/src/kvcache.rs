//! Paged radix-tree KV cache with reference counting and LRU eviction.
//!
//! This models the prefix cache of a modern inference engine (SGLang's
//! RadixAttention, vLLM's prefix caching): KV blocks for a token sequence
//! are stored in a radix tree keyed by token ids, so requests sharing a
//! prompt prefix share the corresponding KV memory and skip its prefill.
//!
//! Memory accounting is paged: each tree node charges for its token
//! segment rounded up to whole blocks ([`KvConfig::block_tokens`]), which
//! reproduces the internal fragmentation of paged attention. Running
//! requests hold [`Lease`]s that pin their path in the tree (reference
//! counts); unpinned subtrees are evicted LRU-leaf-first when space is
//! needed.
//!
//! Insertion is pin-first: the existing prefix is pinned *before* any
//! eviction runs, so making room for a request can never evict the very
//! prefix it is about to reuse. The cache never evicts referenced state
//! and never exceeds its token capacity — both are checked invariants,
//! exercised by the property tests at the bottom of this file and the
//! seeded suite in `tests/kvcache_props.rs`.
//!
//! *Which* unpinned state goes first is an open policy: the cache asks
//! its [`KvEvictor`] to pick among the currently evictable leaves.
//! [`LruEvictor`] (the default) reproduces the historical behavior
//! byte-for-byte; [`PrefixAwareEvictor`] protects hot shared prefixes;
//! [`NoEvict`] turns a full cache into a hard admission wall.
//!
//! The tree itself — segments, links, splits, slot recycling — is the
//! shared [`RadixArena`]; this file keeps only what is caching: pins,
//! the LRU clock, hit counts, residency tiers, block-rounded charges
//! and the evictor hand-off.
//!
//! What a lookup of the reclaimable total or the choice of one victim
//! costs does not depend on how much is resident: the total is a
//! counter, and the evictable leaves and the unpinned host nodes are
//! bit sets over arena slots (`radix::SlotSet`), all three moved at the
//! few places a node's pin state, tier or existence changes.
//! [`PrefixCache::check_invariants`] holds them to full scans of the
//! arena.

use std::fmt;

use skywalker_sim::Scope;

use crate::radix::{Node, RadixArena, Run, Seg, SlotSet, Tokens, ROOT};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Total KV capacity, in tokens.
    ///
    /// The default L4 profile derives ≈ 49 k tokens from 24 GB of VRAM
    /// minus 16 GB of Llama-3.1-8B weights at ≈ 128 KiB KV per token.
    pub capacity_tokens: u64,
    /// Tokens per KV block (page). SGLang and vLLM default to 16.
    pub block_tokens: u32,
}

impl KvConfig {
    /// The L4 / Llama-3.1-8B geometry used throughout the evaluation.
    pub const L4_LLAMA8B: KvConfig = KvConfig {
        capacity_tokens: 49_152,
        block_tokens: 16,
    };

    /// A tiny geometry for tests (block size 4).
    pub const fn tiny(capacity_tokens: u64) -> KvConfig {
        KvConfig {
            capacity_tokens,
            block_tokens: 4,
        }
    }

    fn charge(&self, tokens: usize) -> u64 {
        let b = u64::from(self.block_tokens.max(1));
        (tokens as u64).div_ceil(b) * b
    }
}

/// Errors from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Not enough unpinned space: `needed` tokens requested, only
    /// `reclaimable` could be evicted.
    InsufficientCapacity {
        /// Tokens of new space required.
        needed: u64,
        /// Tokens that eviction could currently reclaim.
        reclaimable: u64,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::InsufficientCapacity {
                needed,
                reclaimable,
            } => write!(
                f,
                "kv cache full: need {needed} tokens, only {reclaimable} reclaimable"
            ),
        }
    }
}

impl std::error::Error for KvError {}

/// One evictable tree node, as [`KvEvictor`]s see it. Candidates are
/// always unpinned leaves (no lease passes through them, no children),
/// presented in stable node-arena order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictCandidate {
    /// LRU clock value of the node's last traversal (higher = more
    /// recent).
    pub last_used: u64,
    /// Times an `acquire`/`extend` walk reused (pinned through) this
    /// node since insertion — the sharing-heat signal.
    pub hits: u64,
    /// Token length of the node's segment.
    pub tokens: u32,
    /// Block-rounded tokens evicting this node frees.
    pub charge: u64,
    /// Distance from the root (1 = top-level prefix).
    pub depth: u32,
}

/// Object-safe cloning for boxed evictors, blanket-implemented for every
/// `Clone` evictor — implementors only need `#[derive(Clone)]`.
pub trait CloneKvEvictor {
    /// Clones the evictor behind a fresh box.
    fn clone_box(&self) -> Box<dyn KvEvictor>;
}

impl<T: KvEvictor + Clone + 'static> CloneKvEvictor for T {
    fn clone_box(&self) -> Box<dyn KvEvictor> {
        Box::new(self.clone())
    }
}

/// The open eviction policy of the [`PrefixCache`]: when an `acquire`
/// or `extend` needs room, the cache repeatedly asks the evictor to
/// pick one victim among the currently evictable leaves until enough
/// space is free.
///
/// The contract is narrow by construction: candidates are always
/// unpinned leaves, so *no evictor can reclaim pinned state* — the
/// cache's safety invariants hold for arbitrary implementations, and a
/// policy only chooses the order in which reclaimable state dies.
/// Returning `None` refuses to evict; the triggering operation then
/// fails with [`KvError::InsufficientCapacity`] (or drops the
/// extension) exactly as if the cache were unreclaimably full.
pub trait KvEvictor: fmt::Debug + Send + Sync + CloneKvEvictor {
    /// Picks the index (into `candidates`) of the next victim, or
    /// `None` to refuse eviction. Out-of-range picks are treated as
    /// refusals.
    fn pick(&mut self, candidates: &[EvictCandidate]) -> Option<usize>;

    /// Display label for experiment tables, e.g. `"lru"`.
    fn label(&self) -> String;

    /// Host-tier capacity this evictor grants the cache, in tokens.
    /// `None` (the default) keeps the cache single-tier: victims are
    /// dropped. [`TieredEvictor`] overrides this to turn the same
    /// victim choice into a GPU→host *demotion* instead.
    fn host_budget(&self) -> Option<u64> {
        None
    }
}

impl Clone for Box<dyn KvEvictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Evict the least-recently-used leaf first — the historical behavior,
/// byte-identical to the pre-trait cache (ties break toward the lowest
/// node index, as the old scan did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruEvictor;

impl KvEvictor for LruEvictor {
    fn pick(&mut self, candidates: &[EvictCandidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.last_used)
            .map(|(i, _)| i)
    }

    fn label(&self) -> String {
        "lru".to_string()
    }
}

/// Never evict: a full cache rejects new work instead of recycling old
/// state. Useful as a baseline (how much is eviction worth?) and for
/// engines that prefer queueing over cache churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoEvict;

impl KvEvictor for NoEvict {
    fn pick(&mut self, _candidates: &[EvictCandidate]) -> Option<usize> {
        None
    }

    fn label(&self) -> String {
        "noevict".to_string()
    }
}

/// Keep hot shared prefixes: evict the *coldest* leaf first — fewest
/// reuse hits, then deepest (most specific), then least recently used.
/// Under workloads with a shared corpus (RAG, system prompts) this
/// sacrifices one-off tails to protect the prefixes many requests
/// re-walk, trading LRU's recency bet for a popularity bet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixAwareEvictor;

impl KvEvictor for PrefixAwareEvictor {
    fn pick(&mut self, candidates: &[EvictCandidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.hits, std::cmp::Reverse(c.depth), c.last_used))
            .map(|(i, _)| i)
    }

    fn label(&self) -> String {
        "prefix-aware".to_string()
    }
}

/// Two-tier wrapper around any [`KvEvictor`]: the inner policy still
/// picks *which* victim goes first, but instead of dropping it the
/// cache demotes it to a host-memory tier of `host_budget` tokens.
/// Host-resident prefixes keep their tree position, still count as
/// cache hits, and are promoted back to GPU on their next match —
/// paying a per-token promote cost the replica models as transfer
/// time. When the host tier itself overflows, its least-recently-used
/// entries are dropped for real.
///
/// `host_budget = 0` is byte-identical to the unwrapped inner evictor:
/// no node is ever demoted, so every pick, hit, and counter matches.
#[derive(Debug, Clone)]
pub struct TieredEvictor {
    inner: Box<dyn KvEvictor>,
    host_budget: u64,
}

impl TieredEvictor {
    /// Wraps `inner` with a host tier of `host_budget` tokens.
    pub fn new(inner: Box<dyn KvEvictor>, host_budget: u64) -> Self {
        TieredEvictor { inner, host_budget }
    }
}

impl KvEvictor for TieredEvictor {
    fn pick(&mut self, candidates: &[EvictCandidate]) -> Option<usize> {
        self.inner.pick(candidates)
    }

    fn label(&self) -> String {
        format!("{}+host{}", self.inner.label(), self.host_budget)
    }

    fn host_budget(&self) -> Option<u64> {
        Some(self.host_budget)
    }
}

/// Residency tier of one cache node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// On-accelerator: usable by the batch directly.
    Gpu,
    /// Demoted to host memory: still a hit, but must be promoted (paid
    /// for as transfer time) before the batch can use it.
    Host,
}

/// A pinned path in the cache, held by one running request.
///
/// Leases are move-only tickets: they must be returned via
/// [`PrefixCache::release`] (or [`PrefixCache::complete`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Lease {
    /// Arena index of the deepest node on the pinned path.
    node: usize,
    /// Total tokens pinned (root to `node`).
    tokens: u64,
}

impl Lease {
    /// Total pinned tokens.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }
}

/// What the cache keeps on every tree node.
#[derive(Debug, Clone)]
struct Entry {
    /// Number of leases whose path passes through this node.
    refs: u32,
    /// LRU clock value of the last traversal.
    last_used: u64,
    /// Times an acquire/extend walk reused this node since insertion.
    hits: u64,
    /// Residency tier. Host nodes are always unpinned childless leaves;
    /// matching one promotes it back to GPU before use.
    tier: Tier,
}

/// Result of the pin-first walk: how far the existing tree matches, and
/// whether a node must be split at the divergence point. The walk pinned
/// every node on the parent path from its deepest pinned node — the
/// partial-match child, else `node` — up to, not including, `anchor`.
struct WalkPin {
    /// Where the walk started.
    anchor: usize,
    /// Deepest fully-matched node.
    node: usize,
    /// Tokens matched (including a partial match into `pending_split`).
    matched: usize,
    /// `(child, keep)`: `child`'s segment matches for `keep` tokens only.
    pending_split: Option<(usize, usize)>,
    /// Host-tier nodes this walk matched; [`PrefixCache::apply`]
    /// promotes them to GPU (their charge is part of the room
    /// [`PrefixCache::make_room`] secures).
    promote: Vec<usize>,
}

/// The radix-tree prefix cache.
///
/// # Examples
///
/// ```
/// use skywalker_replica::{KvConfig, PrefixCache};
///
/// let mut cache = PrefixCache::new(KvConfig::tiny(1024));
/// let (lease_a, cached) = cache.acquire(&[1, 2, 3, 4]).unwrap();
/// assert_eq!(cached, 0); // cold
/// let (lease_b, cached) = cache.acquire(&[1, 2, 3, 4, 5, 6]).unwrap();
/// assert_eq!(cached, 4); // shares the [1,2,3,4] prefix
/// cache.release(lease_a);
/// cache.release(lease_b);
/// ```
#[derive(Debug)]
pub struct PrefixCache {
    cfg: KvConfig,
    tree: RadixArena<Entry>,
    used_tokens: u64,
    clock: u64,
    /// Cumulative counters for hit-rate reporting.
    total_prompt_tokens: u64,
    total_cached_tokens: u64,
    /// Cumulative block-rounded tokens reclaimed by eviction.
    evicted_tokens: u64,
    /// The open eviction policy (default: [`LruEvictor`]).
    evictor: Box<dyn KvEvictor>,
    /// Host-tier capacity in tokens (0 = single-tier; victims drop).
    host_budget: u64,
    /// Block-rounded tokens currently resident in the host tier.
    host_used: u64,
    /// Cumulative block-rounded tokens demoted GPU→host.
    demoted_tokens: u64,
    /// Cumulative block-rounded tokens promoted host→GPU.
    promoted_tokens: u64,
    /// Block-rounded charge of the unpinned GPU nodes — what
    /// [`PrefixCache::reclaimable_tokens`] reports — moved wherever such
    /// a node's pin state, tier or existence changes.
    reclaimable: u64,
    /// The evictable leaves (unpinned, childless, GPU-resident): the
    /// [`KvEvictor`]'s candidates, kept true by [`Self::sync`].
    evictable: SlotSet,
    /// The unpinned host-resident nodes: the host tier's own victims.
    host_idle: SlotSet,
    /// [`Self::list_candidates`]' output, reused from victim to victim:
    /// the view of each member of `evictable`, in its order.
    candidates: Vec<EvictCandidate>,
    /// Nodes inserted (fresh leaves and split heads) plus nodes removed,
    /// since creation: [`PrefixCache::tree_edits`].
    tree_edits: u64,
}

impl PrefixCache {
    /// Creates an empty cache with the default [`LruEvictor`].
    pub fn new(cfg: KvConfig) -> Self {
        Self::with_evictor(cfg, Box::new(LruEvictor))
    }

    /// Creates an empty cache that reclaims space through `evictor`.
    /// A [`TieredEvictor`] additionally opens the host tier its
    /// [`KvEvictor::host_budget`] declares.
    pub fn with_evictor(cfg: KvConfig, evictor: Box<dyn KvEvictor>) -> Self {
        let host_budget = evictor.host_budget().unwrap_or(0);
        PrefixCache {
            cfg,
            tree: RadixArena::new(Entry {
                refs: 0,
                last_used: 0,
                hits: 0,
                tier: Tier::Gpu,
            }),
            used_tokens: 0,
            clock: 0,
            total_prompt_tokens: 0,
            total_cached_tokens: 0,
            evicted_tokens: 0,
            evictor,
            host_budget,
            host_used: 0,
            demoted_tokens: 0,
            promoted_tokens: 0,
            reclaimable: 0,
            evictable: SlotSet::default(),
            host_idle: SlotSet::default(),
            candidates: Vec::new(),
            tree_edits: 0,
        }
    }

    /// Cumulative block-rounded tokens reclaimed by eviction.
    pub fn evicted_tokens(&self) -> u64 {
        self.evicted_tokens
    }

    /// Host-tier capacity in tokens (0 when the cache is single-tier).
    pub fn host_budget(&self) -> u64 {
        self.host_budget
    }

    /// Block-rounded tokens resident in the host tier.
    pub fn host_used_tokens(&self) -> u64 {
        self.host_used
    }

    /// Cumulative block-rounded tokens demoted GPU→host.
    pub fn demoted_tokens(&self) -> u64 {
        self.demoted_tokens
    }

    /// Cumulative block-rounded tokens promoted host→GPU (each paid
    /// for by the replica as transfer time).
    pub fn promoted_tokens(&self) -> u64 {
        self.promoted_tokens
    }

    /// Tokens currently pinned by live leases (block-rounded charge of
    /// every node some lease's path passes through). Together with
    /// [`PrefixCache::reclaimable_tokens`] this partitions
    /// [`PrefixCache::used_tokens`] — an invariant the seeded property
    /// suite asserts after every operation.
    pub fn pinned_tokens(&self) -> u64 {
        self.charge_where(|e| e.refs > 0)
    }

    /// Tokens currently charged against capacity (block-rounded).
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Cumulative prefix hit rate over all `acquire` calls.
    pub fn hit_rate(&self) -> f64 {
        if self.total_prompt_tokens == 0 {
            0.0
        } else {
            self.total_cached_tokens as f64 / self.total_prompt_tokens as f64
        }
    }

    /// How many nodes have been inserted or removed so far. A node's
    /// tokens never change while it lives (a split keeps them, in two
    /// nodes), so [`PrefixCache::matched_tokens`] gives the same answer
    /// for any prompt until this count moves.
    pub fn tree_edits(&self) -> u64 {
        self.tree_edits
    }

    /// Longest cached prefix of `tokens`, in tokens, without mutating
    /// LRU/ref state. This is the probe routers use to estimate hit ratios.
    pub fn matched_tokens(&self, tokens: &[u32]) -> u64 {
        self.tree.walk(ROOT, tokens).map(|(_, n)| n as u64).sum()
    }

    /// Tokens reclaimable right now by evicting unpinned subtrees.
    pub fn reclaimable_tokens(&self) -> u64 {
        // A node is reclaimable iff no lease passes through it; whole
        // unpinned subtrees drain leaf-first, so counting every unpinned
        // GPU node is exact (host nodes are already off the GPU).
        self.reclaimable
    }

    /// Like [`PrefixCache::matched_tokens`], but split by residency
    /// tier: `(gpu_matched, host_matched)`. Routers use this to
    /// discount host-resident prefixes — a host hit still skips
    /// prefill but pays promote-on-hit transfer time.
    pub fn matched_tokens_tiered(&self, tokens: &[u32]) -> (u64, u64) {
        let (mut gpu, mut host) = (0, 0);
        for (child, n) in self.tree.walk(ROOT, tokens) {
            match self.tree[child].data.tier {
                Tier::Gpu => gpu += n as u64,
                Tier::Host => host += n as u64,
            }
        }
        (gpu, host)
    }

    /// Inserts `tokens` (a full prompt) and pins its path, evicting
    /// unpinned entries if needed. Returns the lease and how many tokens
    /// were already cached (the prefix hit).
    ///
    /// On [`KvError::InsufficientCapacity`] no state changes (beyond
    /// harmless eviction of unpinned entries).
    pub fn acquire(&mut self, tokens: &[u32]) -> Result<(Lease, u64), KvError> {
        Scope::CacheAcquire.run(|| self.pin_prompt(tokens))
    }

    /// [`Self::acquire`], inside its scope.
    fn pin_prompt(&mut self, tokens: &[u32]) -> Result<(Lease, u64), KvError> {
        self.touch(ROOT);
        self.add_pin(ROOT);
        let wp = self.walk_pin(ROOT, Tokens::Slice(tokens));
        let cached = wp.matched as u64;
        match self.make_room(&wp, tokens.len()) {
            Ok(()) => {
                let leaf = self.apply(wp, Tokens::Slice(tokens));
                self.total_prompt_tokens += tokens.len() as u64;
                self.total_cached_tokens += cached;
                Ok((
                    Lease {
                        node: leaf,
                        tokens: tokens.len() as u64,
                    },
                    cached,
                ))
            }
            Err(e) => {
                self.unpin(&wp);
                self.drop_pin(ROOT);
                Err(e)
            }
        }
    }

    /// Extends a lease with generated tokens (making them shareable by
    /// future requests), best-effort: if capacity cannot be freed the lease
    /// is returned unchanged and the tokens are simply not cached.
    pub fn extend(&mut self, lease: Lease, generated: &[u32]) -> Lease {
        self.extend_with(lease, Tokens::Slice(generated))
    }

    /// [`Self::extend`] along a slice or a run.
    fn extend_with(&mut self, lease: Lease, generated: Tokens<'_>) -> Lease {
        let n = generated.len();
        if n == 0 {
            return lease;
        }
        let wp = self.walk_pin(lease.node, generated);
        match self.make_room(&wp, n) {
            Ok(()) => {
                let leaf = self.apply(wp, generated);
                Lease {
                    node: leaf,
                    tokens: lease.tokens + n as u64,
                }
            }
            Err(_) => {
                self.unpin(&wp);
                lease
            }
        }
    }

    /// Releases a lease: unpins its path. The data stays cached for future
    /// hits until evicted.
    pub fn release(&mut self, lease: Lease) {
        let mut node = lease.node;
        loop {
            self.drop_pin(node);
            if node == ROOT {
                break;
            }
            node = self.tree[node].parent();
        }
    }

    /// Convenience for request completion: extend with the generated
    /// tokens, then release.
    pub fn complete(&mut self, lease: Lease, generated: &[u32]) {
        self.complete_with(lease, Tokens::Slice(generated));
    }

    /// [`Self::complete`] with the `len` tokens request `request`
    /// generated from its `from`-th on — `output_token(request, from +
    /// k)` for `k < len` — never written out: the walk computes what it
    /// compares, and a new leaf keeps what it does not match as those
    /// three numbers in one 16-byte box (as tokens, when they are at
    /// most four). The cache holds the same tokens either way.
    pub fn complete_run(&mut self, lease: Lease, request: u64, from: u32, len: u32) {
        self.complete_with(lease, Tokens::Run(Run { request, from, len }));
    }

    fn complete_with(&mut self, lease: Lease, generated: Tokens<'_>) {
        Scope::CacheComplete.run(|| {
            let extended = self.extend_with(lease, generated);
            self.release(extended);
        });
    }

    /// Drops all unpinned cache state (e.g. on simulated replica restart).
    pub fn clear_unpinned(&mut self) {
        while let Some(victim) = self.lru_evictable_leaf() {
            self.evict(victim);
        }
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        let mut used = 0u64;
        let mut host = 0u64;
        for (_, n) in self.tree.live() {
            match n.data.tier {
                Tier::Gpu => used += self.cfg.charge(n.seg_len()),
                Tier::Host => {
                    host += self.cfg.charge(n.seg_len());
                    assert_eq!(n.data.refs, 0, "host-resident node is pinned");
                    assert!(
                        n.is_leaf(),
                        "host-resident node has children (must stay a leaf)"
                    );
                }
            }
            let parent = &self.tree[n.parent()].data;
            assert_eq!(parent.tier, Tier::Gpu, "live node under host parent");
            assert!(
                parent.refs >= n.data.refs,
                "child refs exceed parent refs ({} > {})",
                n.data.refs,
                parent.refs
            );
        }
        assert_eq!(used, self.used_tokens, "used-token accounting drifted");
        assert_eq!(host, self.host_used, "host-token accounting drifted");
        assert!(
            self.host_used <= self.host_budget,
            "host budget exceeded: {} > {}",
            self.host_used,
            self.host_budget
        );
        assert!(
            self.used_tokens <= self.cfg.capacity_tokens,
            "capacity exceeded: {} > {}",
            self.used_tokens,
            self.cfg.capacity_tokens
        );
        assert_eq!(
            self.pinned_tokens() + self.reclaimable_tokens(),
            self.used_tokens,
            "pinned + reclaimable must partition used tokens"
        );
        // The maintained state, refereed by full scans of the arena.
        assert_eq!(
            self.reclaimable,
            self.charge_where(|e| e.refs == 0 && e.tier == Tier::Gpu),
            "reclaimable counter drifted from the scan"
        );
        let scan = |keep: fn(&Node<Entry>) -> bool| {
            let live = self.tree.live();
            live.filter_map(move |(i, n)| keep(n).then_some(i))
        };
        assert!(
            self.evictable.iter().eq(scan(|n| {
                n.data.refs == 0 && n.is_leaf() && n.data.tier == Tier::Gpu
            })),
            "evictable-leaf index drifted from the scan"
        );
        assert!(
            self.host_idle
                .iter()
                .eq(scan(|n| n.data.refs == 0 && n.data.tier == Tier::Host)),
            "unpinned-host index drifted from the scan"
        );
    }

    // ---- internals -------------------------------------------------------

    fn touch(&mut self, node: usize) {
        self.clock += 1;
        self.tree[node].data.last_used = self.clock;
    }

    /// Block-rounded charge of the node's segment.
    fn charge_of(&self, idx: usize) -> u64 {
        self.cfg.charge(self.tree[idx].seg_len())
    }

    /// Extra charge of splitting `child` after `keep` tokens: one node
    /// of length L becomes two of `keep` and L-`keep`, each block-rounded.
    fn split_extra(&self, child: usize, keep: usize) -> u64 {
        let len = self.tree[child].seg_len();
        self.cfg.charge(keep) + self.cfg.charge(len - keep) - self.cfg.charge(len)
    }

    /// Total charge of the live nodes whose entry satisfies `keep`.
    fn charge_where(&self, keep: impl Fn(&Entry) -> bool) -> u64 {
        self.tree
            .live()
            .filter(|(_, n)| keep(&n.data))
            .map(|(_, n)| self.cfg.charge(n.seg_len()))
            .sum()
    }

    /// Descends from `anchor` matching `tokens`, pinning (ref +1, LRU
    /// touch) every node it matches so subsequent eviction cannot remove
    /// the prefix. A partial match into a child pins that child and stops.
    fn walk_pin(&mut self, anchor: usize, tokens: Tokens<'_>) -> WalkPin {
        let mut node = anchor;
        let mut pos = 0usize;
        let mut pending_split = None;
        let mut promote = Vec::new();
        while let Some((child, common)) = self.tree.descend_tokens(node, tokens.skip(pos)) {
            self.add_pin(child);
            self.tree[child].data.hits += 1;
            self.touch(child);
            if self.tree[child].data.tier == Tier::Host {
                // A host hit: the node must come back to GPU before the
                // batch can use it. `apply` flips it once `make_room`
                // has secured its charge.
                promote.push(child);
            }
            pos += common;
            if common < self.tree[child].seg_len() {
                pending_split = Some((child, common));
                break;
            }
            node = child;
        }
        WalkPin {
            anchor,
            node,
            matched: pos,
            pending_split,
            promote,
        }
    }

    /// Undoes the pins of a walk that will not be applied: every node
    /// from its deepest pinned one up the parent path to its anchor.
    /// Nothing pinned is evicted or split in between, so the path is the
    /// one the walk took.
    fn unpin(&mut self, wp: &WalkPin) {
        let mut at = wp.pending_split.map_or(wp.node, |(child, _)| child);
        while at != wp.anchor {
            self.drop_pin(at);
            at = self.tree[at].parent();
        }
    }

    /// Adds one pin to `idx`. The first takes the node out of the
    /// reclaimable pool and off the victim indexes.
    fn add_pin(&mut self, idx: usize) {
        let e = &mut self.tree[idx].data;
        e.refs += 1;
        if e.refs == 1 {
            if e.tier == Tier::Gpu {
                self.reclaimable -= self.charge_of(idx);
            }
            self.sync(idx);
        }
    }

    /// Drops one pin from `idx`. The last one out hands the node back
    /// to the reclaimable pool and the victim indexes.
    fn drop_pin(&mut self, idx: usize) {
        let e = &mut self.tree[idx].data;
        debug_assert!(e.refs > 0, "release without matching acquire");
        let was = e.refs;
        e.refs = was.saturating_sub(1);
        if was == 1 {
            if e.tier == Tier::Gpu {
                self.reclaimable += self.charge_of(idx);
            }
            self.sync(idx);
        }
    }

    /// Re-derives `idx`'s membership of the two victim indexes from the
    /// node itself: called wherever its pin state or tier changes, and
    /// on a parent that lost a child. (A node gains a child only in
    /// [`Self::apply`], on the walk's pinned path, where it is in
    /// neither set already.) The root is never a victim, and its empty
    /// segment charges nothing, so it takes pins like any node.
    fn sync(&mut self, idx: usize) {
        let n = &self.tree[idx];
        let idle = idx != ROOT && n.data.refs == 0 && n.is_leaf();
        let tier = n.data.tier;
        self.evictable.set(idx, idle && tier == Tier::Gpu);
        self.host_idle.set(idx, idle && tier == Tier::Host);
    }

    /// Exact extra charge `apply` will incur for `len` tokens, then frees
    /// that much space. The walked path is pinned, so eviction cannot
    /// invalidate the plan.
    fn make_room(&mut self, wp: &WalkPin, len: usize) -> Result<(), KvError> {
        let mut extra = 0u64;
        if let Some((child, keep)) = wp.pending_split {
            extra += self.split_extra(child, keep);
        }
        extra += self.cfg.charge(len - wp.matched);
        // Promotions land on the GPU too: their charge must be free
        // before `apply` flips them out of the host tier.
        extra += wp.promote.iter().map(|&i| self.charge_of(i)).sum::<u64>();
        self.ensure_free(extra)
    }

    /// Evicts unpinned leaves chosen by the [`KvEvictor`] until `needed`
    /// tokens are free.
    fn ensure_free(&mut self, needed: u64) -> Result<(), KvError> {
        if needed > self.cfg.capacity_tokens {
            return Err(KvError::InsufficientCapacity {
                needed,
                reclaimable: self.reclaimable_tokens(),
            });
        }
        while self.cfg.capacity_tokens - self.used_tokens < needed {
            self.list_candidates();
            let victim = self
                .evictor
                .pick(&self.candidates)
                .and_then(|i| self.evictable.iter().nth(i));
            let Some(victim) = victim else {
                // No GPU leaf is evictable. A host-resident leaf keeps
                // its GPU parent an interior node forever, so a tree
                // whose fringe is all host leaves has reclaimable GPU
                // tokens but no GPU victim: drop the LRU host leaf to
                // expose its parent and retry. Untiered caches
                // (`host_used == 0`) never take this branch.
                // Skip host nodes pinned mid-walk: they are promote
                // candidates of the acquire in flight and must survive
                // until `apply` flips them to GPU.
                if let Some(host_victim) = self.lru_unpinned_host_node() {
                    self.evict(host_victim);
                    continue;
                }
                // Nothing evictable, or the policy refused: report what
                // eviction *could* reclaim so callers can tell a pinned
                // wall from a policy wall.
                return Err(KvError::InsufficientCapacity {
                    needed,
                    reclaimable: self.reclaimable_tokens(),
                });
            };
            if self.host_budget > 0 {
                self.demote(victim);
            } else {
                self.evict(victim);
            }
        }
        Ok(())
    }

    /// The least-recently-used host-resident node not pinned by a walk
    /// in flight (`walk_pin` pins matched host nodes until `apply`
    /// promotes them; those are never valid victims).
    fn lru_unpinned_host_node(&self) -> Option<usize> {
        self.lru_of(self.host_idle.iter())
    }

    /// The least recently used of `slots`, ties to the lowest index.
    fn lru_of(&self, slots: impl Iterator<Item = usize>) -> Option<usize> {
        slots.min_by_key(|&i| (self.tree[i].data.last_used, i))
    }

    /// Moves `idx` from the GPU tier to the host tier, dropping
    /// host-LRU entries first if the host budget requires it. A victim
    /// larger than the whole host budget is evicted outright.
    fn demote(&mut self, idx: usize) {
        let charge = self.charge_of(idx);
        if charge > self.host_budget {
            self.evict(idx);
            return;
        }
        while self.host_budget - self.host_used < charge {
            let Some(victim) = self.lru_unpinned_host_node() else {
                // Every host-resident node is pinned mid-walk (promote
                // candidates of the acquire in flight): no host room
                // can be made, so the demotion degrades to an eviction.
                self.evict(idx);
                return;
            };
            self.evict(victim);
        }
        self.tree[idx].data.tier = Tier::Host;
        self.used_tokens -= charge;
        self.reclaimable -= charge;
        self.host_used += charge;
        self.demoted_tokens += charge;
        self.sync(idx);
    }

    /// Lists the currently evictable leaves (unpinned, childless, on
    /// the GPU) into `candidates`, the views handed to the evictor. The
    /// index is walked in slot order, so the evictor sees stable
    /// node-arena order — and its pick `i` is the index's `i`-th member
    /// — at a cost per victim that follows the evictable leaves, not
    /// the arena.
    fn list_candidates(&mut self) {
        self.candidates.clear();
        for i in self.evictable.iter() {
            let n = &self.tree[i];
            let mut depth = 0u32;
            let mut at = i;
            while at != ROOT {
                depth += 1;
                at = self.tree[at].parent();
            }
            self.candidates.push(EvictCandidate {
                last_used: n.data.last_used,
                hits: n.data.hits,
                tokens: n.seg_len() as u32,
                charge: self.cfg.charge(n.seg_len()),
                depth,
            });
        }
    }

    /// Materializes the plan from [`Self::walk_pin`]: performs the pending
    /// split (transferring this walk's pin from the split child to the new
    /// intermediate node) and allocates one fresh pinned leaf for the
    /// unmatched suffix. Returns the deepest node of the final path.
    fn apply(&mut self, wp: WalkPin, tokens: Tokens<'_>) -> usize {
        // Promote matched host nodes first: `make_room` already freed
        // their GPU charge, and the split below must only ever operate
        // on GPU-resident nodes.
        for &p in &wp.promote {
            let charge = self.charge_of(p);
            self.tree[p].data.tier = Tier::Gpu;
            self.host_used -= charge;
            self.used_tokens += charge;
            self.promoted_tokens += charge;
        }
        let mut node = wp.node;
        if let Some((child, keep)) = wp.pending_split {
            let mid = self.split(child, keep);
            // `mid` inherited `child`'s refs, which include this walk's
            // pin; the lease path runs through `mid`, not `child` — a
            // tail nobody else pins is reclaimable from here on.
            self.drop_pin(child);
            node = mid;
        }
        if wp.matched < tokens.len() {
            // One fresh leaf for the unmatched suffix, pinned by this
            // walk.
            let rest = tokens.skip(wp.matched);
            self.used_tokens += self.cfg.charge(rest.len());
            self.clock += 1;
            let entry = Entry {
                refs: 1,
                last_used: self.clock,
                hits: 0,
                tier: Tier::Gpu,
            };
            node = self.tree.alloc_seg(Seg::from(rest), node, entry);
            self.tree_edits += 1;
        }
        node
    }

    /// The least-recently-used unpinned leaf of either tier.
    fn lru_evictable_leaf(&self) -> Option<usize> {
        self.lru_of(self.evictable.iter().chain(self.host_idle.iter()))
    }

    fn evict(&mut self, idx: usize) {
        debug_assert_eq!(self.tree[idx].data.refs, 0);
        let charge = self.charge_of(idx);
        match self.tree[idx].data.tier {
            Tier::Gpu => {
                self.used_tokens -= charge;
                self.reclaimable -= charge;
            }
            Tier::Host => self.host_used -= charge,
        }
        self.evicted_tokens += charge;
        // The slot leaves both indexes before it can be recycled; the
        // parent may just have become a leaf.
        self.evictable.set(idx, false);
        self.host_idle.set(idx, false);
        let parent = self.tree[idx].parent();
        self.tree.remove_leaf(idx);
        self.tree_edits += 1;
        self.sync(parent);
    }

    /// Splits `child` so that exactly `keep` tokens of its segment move to
    /// a new intermediate node between `child`'s parent and `child`;
    /// returns the intermediate node. Refs and LRU state are inherited.
    fn split(&mut self, child: usize, keep: usize) -> usize {
        // `apply` promotes matched host nodes before splitting, so the
        // GPU-only used-token arithmetic below is always right.
        debug_assert_eq!(self.tree[child].data.tier, Tier::Gpu);
        self.used_tokens += self.split_extra(child, keep);
        self.tree_edits += 1;
        self.tree.split(child, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cache_node_is_48_bytes() {
        // Segment 16, parent and child count 8, entry 24: the links live
        // in the arena's edge table, not in the node.
        assert_eq!(size_of::<Node<Entry>>(), 48);
    }

    fn cache(cap: u64) -> PrefixCache {
        PrefixCache::new(KvConfig::tiny(cap))
    }

    #[test]
    fn cold_acquire_charges_block_rounded() {
        let mut c = cache(1024);
        let (lease, cached) = c.acquire(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(cached, 0);
        assert_eq!(lease.tokens(), 5);
        // 5 tokens at block 4 → charged 8.
        assert_eq!(c.used_tokens(), 8);
        c.check_invariants();
        c.release(lease);
        c.check_invariants();
    }

    #[test]
    fn shared_prefix_hits() {
        let mut c = cache(1024);
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        let (b, cached) = c.acquire(&[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(cached, 4);
        let (d, cached2) = c.acquire(&[1, 2, 9]).unwrap();
        assert_eq!(cached2, 2, "partial segment match splits the node");
        c.check_invariants();
        for l in [a, b, d] {
            c.release(l);
        }
        c.check_invariants();
        assert!((c.hit_rate() - 6.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn matched_tokens_is_pure() {
        let mut c = cache(1024);
        let (l, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        let used = c.used_tokens();
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4, 5]), 4);
        assert_eq!(c.matched_tokens(&[1, 2]), 2);
        assert_eq!(c.matched_tokens(&[9]), 0);
        assert_eq!(c.matched_tokens(&[]), 0);
        assert_eq!(c.used_tokens(), used);
        c.release(l);
    }

    #[test]
    fn eviction_frees_unpinned_lru() {
        let mut c = cache(16); // 4 blocks of 4
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        c.release(a);
        let (b, _) = c.acquire(&[10, 11, 12, 13]).unwrap();
        c.release(b);
        assert_eq!(c.used_tokens(), 8);
        // A 12-token acquire must evict the LRU entry to fit (8 free + 4
        // reclaimed), leaving the MRU entry resident.
        let (d, cached) = c.acquire(&[20; 12]).unwrap();
        assert_eq!(cached, 0);
        assert_eq!(c.used_tokens(), 16);
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 0, "LRU entry evicted");
        assert_eq!(c.matched_tokens(&[10, 11, 12, 13]), 4, "MRU entry kept");
        c.check_invariants();
        c.release(d);
    }

    #[test]
    fn pinned_entries_never_evicted() {
        let mut c = cache(8);
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        let err = c.acquire(&[5, 6, 7, 8, 9]).unwrap_err();
        match err {
            KvError::InsufficientCapacity { needed, .. } => assert_eq!(needed, 8),
        }
        // The pinned entry survived the failed acquire.
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 4);
        c.check_invariants();
        c.release(a);
        // Now it can be evicted.
        let (b, _) = c.acquire(&[5, 6, 7, 8, 9]).unwrap();
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 0);
        c.release(b);
    }

    #[test]
    fn failed_acquire_leaves_no_pins() {
        let mut c = cache(8);
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        // Fails: needs 8 fresh tokens but only 4 free, nothing evictable.
        assert!(c.acquire(&[9, 10, 11, 12, 13, 14, 15, 16]).is_err());
        c.release(a);
        // If the failed acquire leaked a pin, this eviction would fail.
        let (b, _) = c.acquire(&[9, 9, 9, 9, 9, 9, 9, 9]).unwrap();
        assert_eq!(c.used_tokens(), 8);
        c.release(b);
        c.check_invariants();
    }

    #[test]
    fn a_failed_acquire_unpins_its_whole_path_through_a_partial_match() {
        let mut c = cache(64);
        // Three nodes deep, [1..4] -> [5..8] -> [9..12], with [20] a
        // sibling of [9..12].
        for prompt in [
            &[1, 2, 3, 4][..],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
            &[1, 2, 3, 4, 5, 6, 7, 8, 20],
        ] {
            let (lease, _) = c.acquire(prompt).unwrap();
            c.release(lease);
        }
        let (used, held) = (c.used_tokens(), c.reclaimable_tokens());
        assert_eq!(used, held, "nothing pinned before");
        // Matches two whole nodes and half of the third, then asks for
        // more fresh tokens than the whole cache holds: the walk pinned
        // three nodes, and the failure must drop all three pins.
        let mut prompt = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        prompt.extend(100..200);
        assert!(c.acquire(&prompt).is_err());
        c.check_invariants();
        assert_eq!(c.used_tokens(), used, "a failed acquire splits nothing");
        assert_eq!(c.reclaimable_tokens(), c.used_tokens(), "a pin leaked");
        assert_eq!(c.pinned_tokens(), 0);

        // The same through `extend`: a lease on [1..4] extended into a
        // partial match of [5..8] that cannot fit keeps only its own pins.
        let (lease, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        let mut more = vec![5, 6];
        more.extend(300..400);
        let lease = c.extend(lease, &more);
        assert_eq!(lease.tokens(), 4, "the extension was dropped");
        c.check_invariants();
        assert_eq!(c.pinned_tokens(), 4);
        c.release(lease);
        assert_eq!(c.reclaimable_tokens(), c.used_tokens());
    }

    #[test]
    fn shared_prefix_makes_otherwise_oversized_acquire_fit() {
        let mut c = cache(8);
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        // 8 tokens would not fit cold, but 4 of them are the shared
        // (pinned) prefix, so only 4 fresh tokens are charged.
        let (b, cached) = c.acquire(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(cached, 4);
        assert_eq!(c.used_tokens(), 8);
        c.release(a);
        c.release(b);
        c.check_invariants();
    }

    #[test]
    fn make_room_never_evicts_own_prefix() {
        let mut c = cache(8);
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        c.release(a);
        let (b, _) = c.acquire(&[9, 9, 9, 9]).unwrap();
        c.release(b);
        // Needs 4 free for the suffix; must evict [9,9,9,9], not the
        // [1,2,3,4] prefix it is extending.
        let (d, cached) = c.acquire(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(cached, 4);
        assert_eq!(c.matched_tokens(&[9, 9, 9, 9]), 0, "other entry evicted");
        c.release(d);
        c.check_invariants();
    }

    #[test]
    fn lru_order_respected() {
        let mut c = cache(8);
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        c.release(a);
        let (b, _) = c.acquire(&[10, 11, 12, 13]).unwrap();
        c.release(b);
        // Touch the first entry to make it most-recently used.
        let (a2, cached) = c.acquire(&[1, 2, 3, 4]).unwrap();
        assert_eq!(cached, 4);
        c.release(a2);
        // Inserting 4 more tokens evicts the LRU entry: [10..13].
        let (d, _) = c.acquire(&[20, 21, 22, 23]).unwrap();
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 4, "MRU entry kept");
        assert_eq!(c.matched_tokens(&[10, 11, 12, 13]), 0, "LRU entry gone");
        c.release(d);
        c.check_invariants();
    }

    #[test]
    fn extend_appends_and_stays_shareable() {
        let mut c = cache(1024);
        let (l, _) = c.acquire(&[1, 2, 3]).unwrap();
        let l = c.extend(l, &[4, 5]);
        assert_eq!(l.tokens(), 5);
        c.release(l);
        // A follow-up turn including the generated output hits fully.
        let (m, cached) = c.acquire(&[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(cached, 5);
        c.release(m);
        c.check_invariants();
    }

    #[test]
    fn extend_when_full_is_lossless_noop() {
        let mut c = cache(8);
        let (l, _) = c.acquire(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let l2 = c.extend(l, &[9, 10]);
        assert_eq!(l2.tokens(), 8, "extension dropped, lease intact");
        c.release(l2);
        c.check_invariants();
        // No pins leaked by the failed extension.
        assert_eq!(c.reclaimable_tokens(), c.used_tokens());
    }

    #[test]
    fn complete_extends_then_releases() {
        let mut c = cache(1024);
        let (l, _) = c.acquire(&[1, 2]).unwrap();
        c.complete(l, &[3, 4]);
        c.check_invariants();
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 4);
        // Everything is unpinned now.
        assert_eq!(c.reclaimable_tokens(), c.used_tokens());
    }

    #[test]
    fn identical_requests_share_everything() {
        let mut c = cache(64);
        let (a, c1) = c.acquire(&[1, 2, 3, 4]).unwrap();
        let (b, c2) = c.acquire(&[1, 2, 3, 4]).unwrap();
        assert_eq!(c1, 0);
        assert_eq!(c2, 4);
        assert_eq!(c.used_tokens(), 4);
        c.release(a);
        // Still pinned by b: a 64-token insert cannot evict it.
        assert!(c.acquire(&[9; 64]).is_err());
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 4);
        c.release(b);
        c.check_invariants();
    }

    #[test]
    fn clear_unpinned_drops_only_unpinned() {
        let mut c = cache(1024);
        let (a, _) = c.acquire(&[1, 2, 3]).unwrap();
        let (b, _) = c.acquire(&[10, 11]).unwrap();
        c.release(b);
        c.clear_unpinned();
        assert_eq!(c.matched_tokens(&[1, 2, 3]), 3);
        assert_eq!(c.matched_tokens(&[10, 11]), 0);
        c.release(a);
        c.check_invariants();
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c = cache(0);
        assert!(c.acquire(&[1]).is_err());
    }

    #[test]
    fn empty_prompt_acquire() {
        let mut c = cache(64);
        let (l, cached) = c.acquire(&[]).unwrap();
        assert_eq!(cached, 0);
        assert_eq!(l.tokens(), 0);
        c.release(l);
        c.check_invariants();
    }

    #[test]
    fn no_evict_queues_instead_of_recycling() {
        let mut c = PrefixCache::with_evictor(KvConfig::tiny(8), Box::new(NoEvict));
        let (a, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
        c.release(a);
        // Unpinned space exists, but the policy refuses to reclaim it.
        let err = c.acquire(&[9, 9, 9, 9, 9]).unwrap_err();
        match err {
            KvError::InsufficientCapacity { reclaimable, .. } => assert_eq!(reclaimable, 4),
        }
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 4, "old entry survives");
        assert_eq!(c.evicted_tokens(), 0);
        c.check_invariants();
    }

    #[test]
    fn prefix_aware_keeps_hot_prefix_over_recent_one_off() {
        let mut c = PrefixCache::with_evictor(KvConfig::tiny(8), Box::new(PrefixAwareEvictor));
        // A hot entry, re-walked twice...
        for _ in 0..3 {
            let (l, _) = c.acquire(&[1, 2, 3, 4]).unwrap();
            c.release(l);
        }
        // ...then a one-off that is *more recent*.
        let (b, _) = c.acquire(&[9, 8, 7, 6]).unwrap();
        c.release(b);
        // LRU would evict the hot entry here; prefix-aware evicts the
        // cold one-off despite its recency.
        let (d, _) = c.acquire(&[5, 5, 5, 5]).unwrap();
        assert_eq!(c.matched_tokens(&[1, 2, 3, 4]), 4, "hot prefix kept");
        assert_eq!(c.matched_tokens(&[9, 8, 7, 6]), 0, "cold one-off gone");
        c.release(d);
        c.check_invariants();
    }

    #[test]
    fn eviction_counter_accumulates_block_rounded() {
        let mut c = cache(8);
        let (a, _) = c.acquire(&[1, 2, 3]).unwrap(); // charged 4 (block-rounded)
        c.release(a);
        let (b, _) = c.acquire(&[9; 8]).unwrap(); // must evict the 4-token charge
        assert_eq!(c.evicted_tokens(), 4);
        c.release(b);
    }

    #[test]
    fn lru_evictor_matches_legacy_default() {
        // Same op sequence against the default cache and an explicit
        // LruEvictor: identical hits, survivors, and accounting.
        let ops: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 9, 9],
            vec![7; 8],
            vec![1, 2, 3, 4, 5],
            vec![6; 12],
        ];
        let mut a = PrefixCache::new(KvConfig::tiny(16));
        let mut b = PrefixCache::with_evictor(KvConfig::tiny(16), Box::new(LruEvictor));
        for p in &ops {
            let ra = a.acquire(p).map(|(l, cached)| {
                a.release(l);
                cached
            });
            let rb = b.acquire(p).map(|(l, cached)| {
                b.release(l);
                cached
            });
            assert_eq!(ra, rb);
            assert_eq!(a.used_tokens(), b.used_tokens());
            assert_eq!(a.evicted_tokens(), b.evicted_tokens());
        }
    }

    #[test]
    fn error_display() {
        let e = KvError::InsufficientCapacity {
            needed: 10,
            reclaimable: 3,
        };
        assert!(format!("{e}").contains("10"));
    }

    mod properties {
        use super::*;
        use skywalker_sim::DetRng;

        /// A random op sequence against a small cache, checking invariants
        /// after every operation. (Seeded-random rather than
        /// proptest-driven: the workspace builds offline with no external
        /// crates.)
        #[derive(Debug, Clone)]
        enum Op {
            Acquire(Vec<u32>),
            ReleaseOldest,
            CompleteOldest(Vec<u32>),
            Clear,
        }

        fn random_tokens(rng: &mut DetRng, alphabet: u64, max_len: u64) -> Vec<u32> {
            let len = rng.below(max_len);
            (0..len).map(|_| rng.below(alphabet) as u32).collect()
        }

        fn random_op(rng: &mut DetRng) -> Op {
            match rng.below(4) {
                0 => Op::Acquire(random_tokens(rng, 8, 12)),
                1 => Op::ReleaseOldest,
                2 => Op::CompleteOldest(random_tokens(rng, 8, 6)),
                _ => Op::Clear,
            }
        }

        #[test]
        fn invariants_hold_under_random_ops() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "kvcache/ops-property");
                let cap = rng.range(8, 128);
                let ops: Vec<Op> = (0..rng.range(1, 60)).map(|_| random_op(&mut rng)).collect();
                let mut c = PrefixCache::new(KvConfig::tiny(cap));
                let mut leases: Vec<Lease> = Vec::new();
                for op in ops {
                    match op {
                        Op::Acquire(toks) => {
                            if let Ok((l, cached)) = c.acquire(&toks) {
                                assert!(cached <= toks.len() as u64, "case {case}");
                                leases.push(l);
                            }
                        }
                        Op::ReleaseOldest => {
                            if !leases.is_empty() {
                                c.release(leases.remove(0));
                            }
                        }
                        Op::CompleteOldest(gen_toks) => {
                            if !leases.is_empty() {
                                c.complete(leases.remove(0), &gen_toks);
                            }
                        }
                        Op::Clear => c.clear_unpinned(),
                    }
                    c.check_invariants();
                }
                for l in leases {
                    c.release(l);
                }
                c.check_invariants();
                // After releasing everything, the whole cache is reclaimable.
                assert_eq!(c.reclaimable_tokens(), c.used_tokens(), "case {case}");
            }
        }

        #[test]
        fn matched_never_exceeds_query_or_mutates() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "kvcache/matched-property");
                let a = random_tokens(&mut rng, 6, 16);
                let b = random_tokens(&mut rng, 6, 16);
                let mut c = PrefixCache::new(KvConfig::tiny(4096));
                let (l, _) = c.acquire(&a).unwrap();
                let used = c.used_tokens();
                let m = c.matched_tokens(&b);
                assert!(m <= b.len() as u64, "case {case}");
                assert_eq!(used, c.used_tokens(), "case {case}");
                // Common prefix of a and b is a lower bound on the match.
                let common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
                assert!(m >= common as u64, "case {case}");
                c.release(l);
            }
        }

        #[test]
        fn hit_rate_bounded() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "kvcache/hit-rate-property");
                let mut c = PrefixCache::new(KvConfig::tiny(65536));
                for _ in 0..rng.range(1, 20) {
                    let mut p = random_tokens(&mut rng, 4, 10);
                    if p.is_empty() {
                        p.push(0);
                    }
                    let (l, _) = c.acquire(&p).unwrap();
                    c.release(l);
                }
                let hr = c.hit_rate();
                assert!((0.0..=1.0).contains(&hr), "case {case}: hit rate {hr}");
            }
        }
    }
}
