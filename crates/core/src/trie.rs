//! The balancer-side routing trie (§3.2).
//!
//! Each load balancer maintains prefix trees over its load-balancing
//! targets: one over local replicas, and one over remote load balancers
//! (the *regional snapshot*). The tree is a token-level radix trie where
//! every node carries the set of targets that have served a request whose
//! prompt passes through that node. Because a request's path is recorded
//! at *every* node along it, each child's target set is a subset of its
//! parent's — the invariant that lets lookup terminate early: once no
//! *available* target matches at the current node, none can exist deeper.
//!
//! Memory is bounded: the trie never stores more than a configured number
//! of tokens, evicting the earliest-inserted leaves first, exactly as the
//! paper specifies ("evicts entries when the tree exceeds this limit,
//! starting with the earliest inserted records").
//!
//! # Layout
//!
//! The tree itself — segments, links, splits, slot recycling — is
//! [`skywalker_replica::radix::RadixArena`], the same structure the
//! replica's KV cache stands on; this file keeps only what is routing.
//! Per-node target maps are exact sorted slices (binary search on the
//! target id) rather than `BTreeMap`s: target counts are small, and a
//! node gains a target far less often than it is read, so a one-target
//! leaf holds one 16-byte entry, not a vector's spare capacity.
//! Eviction order is maintained incrementally in a `(created_seq, node)`
//! index, so `insert` at the size bound is O(log n) instead of a full
//! arena scan per evicted leaf.
//!
//! The trie is generic over the target type `T`: `ReplicaId` in the
//! LB-to-replica layer, `LbId` in the LB-to-LB layer.

use std::collections::BTreeSet;

use skywalker_replica::radix::{RadixArena, ROOT};

/// Result of a routing lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieMatch<T> {
    /// The chosen target.
    pub target: T,
    /// Length of the matched prefix, in tokens.
    pub matched: usize,
}

/// What the trie keeps on every tree node.
#[derive(Debug, Clone)]
struct Route<T> {
    /// Targets recorded at this node as `(target, seq)`, sorted by
    /// target; `seq` is the sequence number of the target's most recent
    /// insertion (freshness).
    targets: Box<[(T, u64)]>,
    /// Sequence number when this node was first created (eviction order).
    created_seq: u64,
}

impl<T: Copy + Ord> Route<T> {
    fn position(&self, target: &T) -> Result<usize, usize> {
        self.targets.binary_search_by(|(t, _)| t.cmp(target))
    }

    fn set_target(&mut self, target: T, seq: u64) {
        match self.position(&target) {
            Ok(i) => self.targets[i].1 = seq,
            Err(i) => {
                let (head, tail) = self.targets.split_at(i);
                self.targets = [head, &[(target, seq)], tail].concat().into();
            }
        }
    }

    fn has_target(&self, target: &T) -> bool {
        self.position(target).is_ok()
    }

    fn remove_target(&mut self, target: &T) {
        if let Ok(i) = self.position(target) {
            let (head, tail) = self.targets.split_at(i);
            self.targets = [head, &tail[1..]].concat().into();
        }
    }

    /// Most recently refreshed available target; ties broken by target
    /// order (the target vec is sorted by `T`).
    fn pick(&self, available: impl Fn(&T) -> bool) -> Option<T> {
        self.targets
            .iter()
            .filter(|(t, _)| available(t))
            .max_by_key(|(t, seq)| (*seq, std::cmp::Reverse(*t)))
            .map(|(t, _)| *t)
    }
}

/// A bounded prefix trie mapping token sequences to routing targets.
///
/// # Examples
///
/// ```
/// use skywalker_core::RouteTrie;
///
/// let mut trie: RouteTrie<u32> = RouteTrie::new(1 << 20);
/// trie.insert(&[1, 2, 3, 4], 7);
/// trie.insert(&[1, 2, 9], 8);
///
/// let m = trie.best_match(&[1, 2, 3, 4, 5], |_| true).unwrap();
/// assert_eq!(m.target, 7);
/// assert_eq!(m.matched, 4);
///
/// // Availability filtering: with 7 unavailable, 8 still matches [1, 2].
/// let m = trie.best_match(&[1, 2, 3], |t| *t != 7).unwrap();
/// assert_eq!(m.target, 8);
/// assert_eq!(m.matched, 2);
/// ```
#[derive(Debug)]
pub struct RouteTrie<T> {
    tree: RadixArena<Route<T>>,
    /// Live childless non-root nodes as `(created_seq, index)` — the
    /// eviction frontier, ordered exactly as the bound enforcer consumes
    /// it (oldest first, lowest arena index on ties).
    leaves: BTreeSet<(u64, usize)>,
    max_tokens: usize,
    stored_tokens: usize,
    seq: u64,
}

impl<T: Copy + Ord> RouteTrie<T> {
    /// Creates an empty trie bounded to `max_tokens` stored tokens.
    pub fn new(max_tokens: usize) -> Self {
        RouteTrie {
            tree: RadixArena::new(Route {
                targets: Box::default(),
                created_seq: 0,
            }),
            leaves: BTreeSet::new(),
            max_tokens,
            stored_tokens: 0,
            seq: 0,
        }
    }

    /// Tokens currently stored.
    pub fn stored_tokens(&self) -> usize {
        self.stored_tokens
    }

    /// The configured bound.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// True if no request has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.tree[ROOT].is_leaf()
    }

    /// Number of live nodes, excluding the root — the structural size
    /// equivalence suites compare against a reference model.
    pub fn node_count(&self) -> usize {
        self.tree.live().count()
    }

    /// Records that `target` served a request with this prompt. The target
    /// is added to every node along the path; the path is created (and
    /// split) as needed; the size bound is enforced afterwards.
    pub fn insert(&mut self, tokens: &[u32], target: T) {
        self.seq += 1;
        let seq = self.seq;
        self.tree[ROOT].data.set_target(target, seq);
        let (mut node, mut pos) = (ROOT, 0);
        while pos < tokens.len() {
            node = match self.tree.descend(node, &tokens[pos..]) {
                Some((child, common)) => {
                    pos += common;
                    if common < self.tree[child].seg().len() {
                        self.tree.split(child, common)
                    } else {
                        child
                    }
                }
                None => {
                    if node != ROOT && self.tree[node].is_leaf() {
                        // The attachment point stops being a leaf.
                        self.leaves
                            .remove(&(self.tree[node].data.created_seq, node));
                    }
                    let route = Route {
                        targets: Box::default(),
                        created_seq: seq,
                    };
                    let leaf = self.tree.alloc(&tokens[pos..], node, route);
                    self.stored_tokens += tokens.len() - pos;
                    self.leaves.insert((seq, leaf));
                    pos = tokens.len();
                    leaf
                }
            };
            self.tree[node].data.set_target(target, seq);
        }
        self.enforce_bound();
    }

    /// Finds the *available* target with the longest matching prefix
    /// (Alg. 1, `MaxPrefixMatch`). Descends only while the current node
    /// has at least one available target — correct because target sets
    /// shrink along any root-to-leaf path. Allocation-free.
    pub fn best_match<F: Fn(&T) -> bool>(
        &self,
        tokens: &[u32],
        available: F,
    ) -> Option<TrieMatch<T>> {
        let mut best = TrieMatch {
            target: self.tree[ROOT].data.pick(&available)?,
            matched: 0,
        };
        for (child, common) in self.tree.walk(ROOT, tokens) {
            // Early termination: no available target below this point.
            let Some(target) = self.tree[child].data.pick(&available) else {
                break;
            };
            best = TrieMatch {
                target,
                matched: best.matched + common,
            };
        }
        Some(best)
    }

    /// The longest prefix of `tokens` recorded for `target` specifically —
    /// the per-target hit-ratio estimate used for tie-breaking (§3.3).
    pub fn matched_for(&self, tokens: &[u32], target: T) -> usize {
        if !self.tree[ROOT].data.has_target(&target) {
            return 0;
        }
        self.tree
            .walk(ROOT, tokens)
            .take_while(|&(child, _)| self.tree[child].data.has_target(&target))
            .map(|(_, common)| common)
            .sum()
    }

    /// Removes a target from every node (e.g. a replica decommissioned by
    /// the controller). Nodes whose target set empties are dropped.
    pub fn purge_target(&mut self, target: T) {
        self.tree[ROOT].data.remove_target(&target);
        let mut orphans = BTreeSet::new();
        for (i, n) in self.tree.live_mut() {
            n.data.remove_target(&target);
            if n.is_leaf() && n.data.targets.is_empty() {
                orphans.insert(i);
            }
        }
        // Drop leaves with no targets, lowest arena index first — the
        // order a rescan from slot 1 per dropped leaf would find them
        // in, so slots recycle the same way. A parent left a target-less
        // leaf joins the set, so chains collapse.
        while let Some(i) = orphans.pop_first() {
            let parent = self.tree[i].parent();
            self.remove_leaf(i);
            let p = &self.tree[parent];
            if parent != ROOT && p.is_leaf() && p.data.targets.is_empty() {
                orphans.insert(parent);
            }
        }
    }

    /// Checks the subset invariant, token accounting, sortedness of the
    /// inline indexes, and the eviction frontier.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        let mut stored = 0usize;
        let mut expect_leaves: BTreeSet<(u64, usize)> = BTreeSet::new();
        for (i, n) in self.tree.live() {
            stored += n.seg().len();
            assert!(
                n.data.targets.windows(2).all(|w| w[0].0 < w[1].0),
                "target vec out of order"
            );
            if n.is_leaf() {
                expect_leaves.insert((n.data.created_seq, i));
            }
            let parent = &self.tree[n.parent()].data;
            for (t, _) in &n.data.targets {
                assert!(
                    parent.has_target(t),
                    "child target set must be a subset of the parent's"
                );
            }
        }
        assert_eq!(expect_leaves, self.leaves, "eviction frontier drifted");
        assert_eq!(stored, self.stored_tokens, "token accounting drifted");
        assert!(
            self.stored_tokens <= self.max_tokens,
            "size bound violated: {} > {}",
            self.stored_tokens,
            self.max_tokens
        );
    }

    // ---- internals -------------------------------------------------------

    fn remove_leaf(&mut self, idx: usize) {
        let parent = self.tree[idx].parent();
        self.stored_tokens -= self.tree[idx].seg().len();
        self.leaves.remove(&(self.tree[idx].data.created_seq, idx));
        self.tree.remove_leaf(idx);
        if parent != ROOT && self.tree[parent].is_leaf() {
            // The parent joins the eviction frontier with its original
            // creation time, exactly as the full-scan enforcer saw it.
            self.leaves
                .insert((self.tree[parent].data.created_seq, parent));
        }
    }

    fn enforce_bound(&mut self) {
        while self.stored_tokens > self.max_tokens {
            // Oldest-created leaf goes first (paper: earliest inserted
            // records evicted first); equal ages fall back to the lowest
            // arena index, matching the old first-minimum full scan.
            let Some(&(_, idx)) = self.leaves.first() else {
                break;
            };
            self.remove_leaf(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trie_matches_nothing() {
        let trie: RouteTrie<u32> = RouteTrie::new(1024);
        assert!(trie.best_match(&[1, 2], |_| true).is_none());
        assert!(trie.is_empty());
        assert_eq!(trie.node_count(), 0);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2], 10u32);
        trie.insert(&[1, 2, 3, 4], 20);
        let m = trie.best_match(&[1, 2, 3, 4, 5], |_| true).unwrap();
        assert_eq!((m.target, m.matched), (20, 4));
        let m = trie.best_match(&[1, 2, 9], |_| true).unwrap();
        assert_eq!(m.matched, 2);
        trie.check_invariants();
    }

    #[test]
    fn no_prefix_match_returns_root_target() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2, 3], 5u32);
        // Unrelated prompt: matched = 0, but a target is still returned
        // (any target that has ever served is a candidate at the root).
        let m = trie.best_match(&[7, 8], |_| true).unwrap();
        assert_eq!((m.target, m.matched), (5, 0));
    }

    #[test]
    fn availability_filter_respected_with_early_termination() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2, 3, 4], 1u32);
        trie.insert(&[1, 2], 2);
        // Deep target 1 unavailable: fall back to target 2 at depth 2.
        let m = trie.best_match(&[1, 2, 3, 4], |t| *t == 2).unwrap();
        assert_eq!((m.target, m.matched), (2, 2));
        // Nothing available → None.
        assert!(trie.best_match(&[1, 2, 3, 4], |_| false).is_none());
    }

    #[test]
    fn subset_invariant_maintained() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2, 3], 1u32);
        trie.insert(&[1, 2, 4], 2);
        trie.insert(&[1, 9], 3);
        trie.insert(&[5, 5, 5], 1);
        trie.check_invariants();
    }

    #[test]
    fn freshest_target_preferred_on_tie() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2], 1u32);
        trie.insert(&[1, 2], 2);
        // Both match fully; 2 was refreshed most recently.
        let m = trie.best_match(&[1, 2], |_| true).unwrap();
        assert_eq!(m.target, 2);
        trie.insert(&[1, 2], 1);
        let m = trie.best_match(&[1, 2], |_| true).unwrap();
        assert_eq!(m.target, 1);
    }

    #[test]
    fn matched_for_is_per_target() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2, 3, 4], 1u32);
        trie.insert(&[1, 2], 2);
        assert_eq!(trie.matched_for(&[1, 2, 3, 4], 1), 4);
        assert_eq!(trie.matched_for(&[1, 2, 3, 4], 2), 2);
        assert_eq!(trie.matched_for(&[1, 2, 3, 4], 99), 0);
    }

    #[test]
    fn bound_enforced_oldest_leaf_first() {
        let mut trie = RouteTrie::new(8);
        trie.insert(&[1, 2, 3, 4], 1u32); // oldest
        trie.insert(&[5, 6, 7, 8], 2);
        trie.check_invariants();
        assert_eq!(trie.stored_tokens(), 8);
        trie.insert(&[9, 10], 3); // pushes over: evict oldest leaf
        trie.check_invariants();
        assert!(trie.stored_tokens() <= 8);
        let m = trie.best_match(&[1, 2, 3, 4], |t| *t == 1).unwrap();
        assert_eq!(m.matched, 0, "oldest path evicted");
        let m = trie.best_match(&[5, 6, 7, 8], |_| true).unwrap();
        assert_eq!(m.matched, 4, "newer path kept");
    }

    #[test]
    fn split_preserves_targets_and_tokens() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2, 3, 4], 1u32);
        let before = trie.stored_tokens();
        trie.insert(&[1, 2, 9], 2); // forces split at depth 2
        trie.check_invariants();
        assert_eq!(trie.stored_tokens(), before + 1);
        // Target 1 still matches its full path through the split node.
        assert_eq!(trie.matched_for(&[1, 2, 3, 4], 1), 4);
        assert_eq!(trie.matched_for(&[1, 2, 9], 2), 3);
    }

    #[test]
    fn purge_target_removes_everywhere() {
        let mut trie = RouteTrie::new(1024);
        trie.insert(&[1, 2, 3], 1u32);
        trie.insert(&[1, 2, 4], 2);
        trie.purge_target(1);
        trie.check_invariants();
        assert_eq!(trie.matched_for(&[1, 2, 3], 1), 0);
        // Target 2's path survives.
        let m = trie.best_match(&[1, 2, 4], |_| true).unwrap();
        assert_eq!((m.target, m.matched), (2, 3));
        // Orphaned branch [1,2,3] is gone.
        let m = trie.best_match(&[1, 2, 3], |_| true).unwrap();
        assert_eq!(m.matched, 2);
    }

    #[test]
    fn empty_prompt_insert_and_match() {
        let mut trie = RouteTrie::new(64);
        trie.insert(&[], 1u32);
        let m = trie.best_match(&[], |_| true).unwrap();
        assert_eq!((m.target, m.matched), (1, 0));
    }

    #[test]
    fn recycled_slots_reused_without_leaking_state() {
        let mut trie = RouteTrie::new(4);
        trie.insert(&[1, 2, 3, 4], 1u32);
        trie.check_invariants();
        // Each new path evicts the previous one and recycles its slot.
        for round in 0..20u32 {
            trie.insert(&[10 + round, 20 + round, 30 + round, 40 + round], round);
            trie.check_invariants();
            assert_eq!(trie.stored_tokens(), 4);
            assert_eq!(trie.node_count(), 1);
        }
    }

    mod properties {
        use super::*;
        use skywalker_sim::DetRng;

        fn random_tokens(rng: &mut DetRng, alphabet: u64, min: u64, max: u64) -> Vec<u32> {
            let len = rng.range(min, max);
            (0..len).map(|_| rng.below(alphabet) as u32).collect()
        }

        #[test]
        fn invariants_under_random_inserts() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "trie/invariant-property");
                let bound = rng.range(16, 256) as usize;
                let mut trie = RouteTrie::new(bound);
                for _ in 0..rng.range(1, 60) {
                    let tokens = random_tokens(&mut rng, 6, 0, 10);
                    let target = rng.below(4) as u8;
                    trie.insert(&tokens, target);
                    trie.check_invariants();
                }
            }
        }

        #[test]
        fn match_length_bounded_by_query() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "trie/match-bound-property");
                let mut trie = RouteTrie::new(1 << 16);
                let n = rng.range(1, 20);
                for i in 0..n {
                    let tokens = random_tokens(&mut rng, 4, 1, 10);
                    trie.insert(&tokens, i as u32);
                }
                let query = random_tokens(&mut rng, 4, 0, 12);
                if let Some(m) = trie.best_match(&query, |_| true) {
                    assert!(m.matched <= query.len(), "case {case}");
                    // The chosen target's own match is at least as long as
                    // reported (it may be longer only if another target won
                    // the freshness tie at the same depth).
                    assert!(
                        trie.matched_for(&query, m.target) >= m.matched,
                        "case {case}"
                    );
                }
            }
        }

        #[test]
        fn best_match_is_maximal() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "trie/maximality-property");
                let mut trie = RouteTrie::new(1 << 16);
                let n = rng.range(1, 15);
                for i in 0..n {
                    let tokens = random_tokens(&mut rng, 3, 1, 8);
                    trie.insert(&tokens, i as u32);
                }
                let query = random_tokens(&mut rng, 3, 1, 10);
                let m = trie.best_match(&query, |_| true).unwrap();
                // No inserted target has a longer per-target match than the
                // returned depth.
                for i in 0..n {
                    assert!(
                        trie.matched_for(&query, i as u32)
                            <= m.matched.max(trie.matched_for(&query, m.target)),
                        "case {case}"
                    );
                }
            }
        }
    }
}
