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
//! Nearly every node is a leaf that one target served, so a node holds
//! one target inline, in its 48 bytes, and allocates nothing for it.
//! Two or more targets are an exact sorted slice (binary search on the
//! target id) behind one thin pointer, rather than a `BTreeMap`: target
//! counts are small, and a node gains a target far less often than it
//! is read.
//! Eviction order is a `(created_seq, node)` index of the leaves, so
//! `insert` at the size bound is O(log n) instead of a full arena scan
//! per evicted leaf. That index exists only in a trie that has reached
//! its bound: the first insert that takes the trie over it builds the
//! index in one scan of the live leaves, and from then on every insert
//! and removal keeps it up to date. A trie that never fills pays
//! nothing for an eviction order it would never read.
//!
//! The trie is generic over the target type `T`: `ReplicaId` in the
//! LB-to-replica layer, `LbId` in the LB-to-LB layer.

use std::collections::BTreeSet;

use skywalker_replica::radix::{RadixArena, ROOT};
use skywalker_sim::Scope;

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
    /// Targets recorded at this node.
    targets: Targets<T>,
    /// Sequence number when this node was first created (eviction order).
    created_seq: u64,
}

/// The targets recorded at one node as `(target, seq)`, sorted by
/// target; `seq` is the sequence number of the target's most recent
/// insertion (freshness). One target is held in the node itself; two or
/// more are an exact sorted slice behind one thin pointer: 16 bytes for
/// a `u32` target in every state.
#[derive(Debug, Clone)]
enum Targets<T> {
    Empty,
    One(T, u64),
    /// At least two entries.
    Many(Box<Box<[(T, u64)]>>),
}

impl<T: Copy + Ord> Targets<T> {
    fn is_empty(&self) -> bool {
        matches!(self, Targets::Empty)
    }

    /// Every `(target, seq)`, in target order.
    fn iter(&self) -> impl Iterator<Item = (T, u64)> + '_ {
        let (one, many) = match self {
            Targets::Empty => (None, &[][..]),
            Targets::One(t, seq) => (Some((*t, *seq)), &[][..]),
            Targets::Many(all) => (None, &all[..]),
        };
        one.into_iter().chain(many.iter().copied())
    }
}

impl<T: Copy + Ord> Route<T> {
    fn set_target(&mut self, target: T, seq: u64) {
        match &mut self.targets {
            Targets::Empty => self.targets = Targets::One(target, seq),
            Targets::One(t, s) if *t == target => *s = seq,
            Targets::One(t, s) => {
                let (old, new) = ((*t, *s), (target, seq));
                let pair = if old.0 < target {
                    [old, new]
                } else {
                    [new, old]
                };
                self.targets = Targets::Many(Box::new(Box::new(pair)));
            }
            Targets::Many(all) => match all.binary_search_by(|(t, _)| t.cmp(&target)) {
                Ok(i) => all[i].1 = seq,
                Err(i) => {
                    let (head, tail) = all.split_at(i);
                    **all = [head, &[(target, seq)], tail].concat().into();
                }
            },
        }
    }

    fn has_target(&self, target: &T) -> bool {
        match &self.targets {
            Targets::Empty => false,
            Targets::One(t, _) => t == target,
            Targets::Many(all) => all.binary_search_by(|(t, _)| t.cmp(target)).is_ok(),
        }
    }

    fn remove_target(&mut self, target: &T) {
        match &mut self.targets {
            Targets::One(t, _) if t == target => self.targets = Targets::Empty,
            Targets::Many(all) => {
                let Ok(i) = all.binary_search_by(|(t, _)| t.cmp(target)) else {
                    return;
                };
                if let [a, b] = all[..] {
                    let (t, seq) = if i == 0 { b } else { a };
                    self.targets = Targets::One(t, seq);
                } else {
                    let (head, tail) = all.split_at(i);
                    **all = [head, &tail[1..]].concat().into();
                }
            }
            Targets::Empty | Targets::One(..) => {}
        }
    }

    /// True when some target here is available.
    fn any(&self, available: impl Fn(&T) -> bool) -> bool {
        self.targets.iter().any(|(t, _)| available(&t))
    }

    /// Most recently refreshed available target; ties broken by target
    /// order (the targets are sorted by `T`).
    fn pick(&self, available: impl Fn(&T) -> bool) -> Option<T> {
        self.targets
            .iter()
            .filter(|(t, _)| available(t))
            .max_by_key(|&(t, seq)| (seq, std::cmp::Reverse(t)))
            .map(|(t, _)| t)
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
    /// it (oldest first, lowest arena index on ties). `None` until the
    /// trie first exceeds its bound.
    leaves: Option<BTreeSet<(u64, usize)>>,
    max_tokens: usize,
    stored_tokens: usize,
    seq: u64,
}

impl<T: Copy + Ord> RouteTrie<T> {
    /// Creates an empty trie bounded to `max_tokens` stored tokens.
    pub fn new(max_tokens: usize) -> Self {
        RouteTrie {
            tree: RadixArena::new(Route {
                targets: Targets::Empty,
                created_seq: 0,
            }),
            leaves: None,
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
        Scope::TrieInsert.run(|| self.record(tokens, target))
    }

    /// [`Self::insert`], inside its scope.
    fn record(&mut self, tokens: &[u32], target: T) {
        self.seq += 1;
        let seq = self.seq;
        self.tree[ROOT].data.set_target(target, seq);
        let (mut node, mut pos) = (ROOT, 0);
        while pos < tokens.len() {
            node = match self.tree.descend(node, &tokens[pos..]) {
                Some((child, common)) => {
                    pos += common;
                    if common < self.tree[child].seg_len() {
                        self.tree.split(child, common)
                    } else {
                        child
                    }
                }
                None => {
                    if let Some(leaves) = &mut self.leaves {
                        if node != ROOT && self.tree[node].is_leaf() {
                            // The attachment point stops being a leaf.
                            leaves.remove(&(self.tree[node].data.created_seq, node));
                        }
                    }
                    let route = Route {
                        targets: Targets::Empty,
                        created_seq: seq,
                    };
                    let leaf = self.tree.alloc(&tokens[pos..], node, route);
                    self.stored_tokens += tokens.len() - pos;
                    if let Some(leaves) = &mut self.leaves {
                        leaves.insert((seq, leaf));
                    }
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
    /// shrink along any root-to-leaf path — and picks once, at the
    /// deepest such node. Allocation-free.
    pub fn best_match<F: Fn(&T) -> bool>(
        &self,
        tokens: &[u32],
        available: F,
    ) -> Option<TrieMatch<T>> {
        if !self.tree[ROOT].data.any(&available) {
            return None;
        }
        let (mut node, mut matched) = (ROOT, 0);
        for (child, common) in self.tree.walk(ROOT, tokens) {
            // Early termination: no available target below this point.
            if !self.tree[child].data.any(&available) {
                break;
            }
            (node, matched) = (child, matched + common);
        }
        let target = self.tree[node].data.pick(&available)?;
        Some(TrieMatch { target, matched })
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
    /// inline indexes, and the eviction frontier once it exists.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        let mut stored = 0usize;
        for (_, n) in self.tree.live() {
            stored += n.seg_len();
            if let Targets::Many(all) = &n.data.targets {
                assert!(all.len() >= 2, "fewer than two targets behind a pointer");
                assert!(
                    all.windows(2).all(|w| w[0].0 < w[1].0),
                    "targets out of order"
                );
            }
            let parent = &self.tree[n.parent()].data;
            for (t, _) in n.data.targets.iter() {
                assert!(
                    parent.has_target(&t),
                    "child target set must be a subset of the parent's"
                );
            }
        }
        if let Some(leaves) = &self.leaves {
            assert_eq!(
                &scan_leaves(&self.tree),
                leaves,
                "eviction frontier drifted"
            );
        }
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
        self.stored_tokens -= self.tree[idx].seg_len();
        let created_seq = self.tree[idx].data.created_seq;
        self.tree.remove_leaf(idx);
        if let Some(leaves) = &mut self.leaves {
            leaves.remove(&(created_seq, idx));
            if parent != ROOT && self.tree[parent].is_leaf() {
                // The parent joins the eviction frontier with its original
                // creation time, exactly as the full-scan enforcer saw it.
                leaves.insert((self.tree[parent].data.created_seq, parent));
            }
        }
    }

    fn enforce_bound(&mut self) {
        while self.stored_tokens > self.max_tokens {
            // The first overflow builds the frontier from the leaves as
            // they stand: what an index kept since the first insert
            // would hold now.
            let leaves = self.leaves.get_or_insert_with(|| scan_leaves(&self.tree));
            // Oldest-created leaf goes first (paper: earliest inserted
            // records evicted first); equal ages fall back to the lowest
            // arena index, matching the old first-minimum full scan.
            let Some(&(_, idx)) = leaves.first() else {
                break;
            };
            self.remove_leaf(idx);
        }
    }
}

/// Every live childless non-root node as `(created_seq, index)`: the
/// eviction frontier as one scan of the tree finds it. Inserted one by
/// one in arena order: `collect` would first buffer and sort them all,
/// and its fuller nodes would only relax to the sliding frontier's
/// steady state.
fn scan_leaves<T: Copy>(tree: &RadixArena<Route<T>>) -> BTreeSet<(u64, usize)> {
    let mut leaves = BTreeSet::new();
    for (i, n) in tree.live() {
        if n.is_leaf() {
            leaves.insert((n.data.created_seq, i));
        }
    }
    leaves
}

#[cfg(test)]
mod tests {
    use skywalker_replica::radix::Node;
    use skywalker_replica::ReplicaId;

    use super::*;

    #[test]
    fn a_route_node_is_48_bytes() {
        // Segment 16, parent and child count 8, targets 16, age 8: the
        // links live in the arena's edge table, not in the node, and one
        // target lives in the node, not behind a pointer.
        assert_eq!(size_of::<Node<Route<ReplicaId>>>(), 48);
    }

    #[test]
    fn a_node_walks_from_empty_to_many_targets_and_back() {
        let mut trie = RouteTrie::new(1024);
        let path = [1, 2, 3];
        let leaf = |trie: &RouteTrie<u32>| trie.tree.child(ROOT, 1).unwrap();
        let state = |trie: &RouteTrie<u32>| match &trie.tree[leaf(trie)].data.targets {
            Targets::Empty => 0,
            Targets::One(..) => 1,
            Targets::Many(all) => all.len(),
        };
        let picked = |trie: &RouteTrie<u32>| trie.best_match(&path, |_| true).unwrap().target;

        trie.insert(&[9], 7); // keeps the trie non-empty throughout
        trie.insert(&path, 5);
        trie.check_invariants();
        assert_eq!((state(&trie), picked(&trie)), (1, 5), "one target, inline");

        trie.insert(&path, 3); // sorted before the inline one
        trie.insert(&path, 8);
        trie.check_invariants();
        assert_eq!((state(&trie), picked(&trie)), (3, 8), "the freshest wins");
        trie.insert(&path, 3); // a refresh, not a fourth entry
        assert_eq!((state(&trie), picked(&trie)), (3, 3));
        // With 3 down, 8 is fresher than 5; with 3 and 8 down, 5.
        let m = trie.best_match(&path, |t| *t != 3).unwrap();
        assert_eq!((m.target, m.matched), (8, 3));
        let m = trie.best_match(&path, |t| *t == 5).unwrap();
        assert_eq!((m.target, m.matched), (5, 3));

        trie.purge_target(3);
        trie.check_invariants();
        assert_eq!((state(&trie), picked(&trie)), (2, 8));
        trie.purge_target(8); // two become one, held inline again
        trie.check_invariants();
        assert_eq!((state(&trie), picked(&trie)), (1, 5));
        assert_eq!(trie.matched_for(&path, 5), 3);
        assert_eq!(trie.matched_for(&path, 8), 0);

        trie.purge_target(5); // the leaf empties and goes
        trie.check_invariants();
        assert_eq!(trie.tree.child(ROOT, 1), None);
        assert_eq!(trie.node_count(), 1);
        let m = trie.best_match(&path, |_| true).unwrap();
        assert_eq!((m.target, m.matched), (7, 0));
    }

    #[test]
    fn ties_in_freshness_go_to_the_lower_target() {
        let mut route = Route {
            targets: Targets::Empty,
            created_seq: 0,
        };
        route.set_target(9u32, 4);
        route.set_target(2, 4);
        assert_eq!(route.pick(|_| true), Some(2));
        route.set_target(5, 4);
        assert_eq!(route.pick(|_| true), Some(2));
        assert_eq!(route.pick(|t| *t != 2), Some(5));
        route.remove_target(&2);
        route.remove_target(&5);
        assert!(matches!(route.targets, Targets::One(9, 4)));
        route.remove_target(&1); // absent: nothing changes
        assert_eq!(route.pick(|_| true), Some(9));
    }

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
    fn the_frontier_is_built_at_the_first_overflow() {
        let mut trie = RouteTrie::new(32);
        for k in 0..10u32 {
            trie.insert(&[k, 100 + k, 200 + k], k % 3);
        }
        trie.insert(&[0, 100, 7], 9); // a split: 31 tokens
        trie.check_invariants();
        assert!(trie.leaves.is_none(), "below the bound: no frontier");

        trie.purge_target(2); // drops three paths: 22 tokens
        trie.check_invariants();
        assert_eq!(trie.stored_tokens(), 22);
        assert!(trie.leaves.is_none(), "a purge below the bound builds none");
        for k in 0..5u32 {
            trie.insert(&[300 + k, 400 + k], 1);
        }
        assert_eq!(trie.stored_tokens(), 32);
        assert!(trie.leaves.is_none(), "at the bound, not over it");

        // Each insert below takes the trie one token over its bound at
        // the root, so it evicts one leaf: the oldest by a scan, ties to
        // the lowest slot.
        for j in 0..12u32 {
            let oldest = scan_leaves(&trie.tree).pop_first().unwrap();
            let over = (trie.max_tokens() + 1 - trie.stored_tokens()) as u32;
            let path: Vec<u32> = (0..over).map(|t| 1000 + 10 * j + t).collect();
            trie.insert(&path, 4);
            trie.check_invariants();
            assert!(trie.leaves.is_some(), "the overflow built the frontier");
            let (created_seq, slot) = oldest;
            let n = &trie.tree[slot];
            assert!(
                n.seg_len() == 0 || n.data.created_seq != created_seq,
                "insert {j}: leaf {oldest:?} survived"
            );
            assert!(trie.stored_tokens() <= 32);
        }
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

        /// `best_match` as it was written before it picked once: a pick
        /// at every node of the walk, ending at the first node with no
        /// available target and keeping the pick of the node before it.
        fn per_node_pick(
            trie: &RouteTrie<u32>,
            tokens: &[u32],
            available: impl Fn(&u32) -> bool,
        ) -> Option<TrieMatch<u32>> {
            let mut best = TrieMatch {
                target: trie.tree[ROOT].data.pick(&available)?,
                matched: 0,
            };
            for (child, common) in trie.tree.walk(ROOT, tokens) {
                let Some(target) = trie.tree[child].data.pick(&available) else {
                    break;
                };
                best = TrieMatch {
                    target,
                    matched: best.matched + common,
                };
            }
            Some(best)
        }

        #[test]
        fn one_pick_at_the_deepest_node_equals_a_pick_per_node() {
            let (mut some, mut none) = (0, 0);
            for case in 0..300u64 {
                let mut rng = DetRng::for_component(case, "trie/pick-once-property");
                let mut trie = RouteTrie::new(rng.range(32, 1 << 10) as usize);
                let targets = rng.range(1, 40);
                for _ in 0..rng.range(1, 80) {
                    let tokens = random_tokens(&mut rng, 4, 0, 12);
                    trie.insert(&tokens, rng.below(targets) as u32);
                }
                for _ in 0..20 {
                    // Each target available with its own odds, so masks
                    // run from all-down to all-up.
                    let odds = rng.f64();
                    let mask: Vec<bool> = (0..targets).map(|_| rng.chance(odds)).collect();
                    let available = |t: &u32| mask[*t as usize];
                    let query = random_tokens(&mut rng, 4, 0, 14);
                    let got = trie.best_match(&query, available);
                    assert_eq!(got, per_node_pick(&trie, &query, available), "case {case}");
                    if got.is_some() {
                        some += 1;
                    } else {
                        none += 1;
                    }
                }
            }
            // Both outcomes were compared, not just one.
            assert!(some > 1_000 && none > 200, "{some} matches, {none} misses");
        }
    }
}
