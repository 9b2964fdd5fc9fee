//! The token-level radix tree under both the replica's
//! [`PrefixCache`](crate::PrefixCache) and the balancer's routing trie.
//!
//! The paper's routing trie (§3.2) is the balancer's *snapshot* of the
//! replicas' radix KV caches: the same tree seen from two vantage
//! points. [`RadixArena`] is that tree once — structure only. A node is
//! a token segment, a parent link, a first-token child index and a
//! caller payload `P`; what the payload *means* (routing targets and
//! insertion age, or pins, LRU clock and residency tier) and when a
//! node dies stay with the caller.
//!
//! # Layout
//!
//! Nodes live in a `Vec` arena with a LIFO free-list, and a node holds
//! what it stores: its segment is an exact `Box<[u32]>`, freed with its
//! slot (a split allocates head and tail anew), and its links are `u32`
//! arena indices. Its child index — sorted by first token, searched by
//! bisection — grows from one entry by doubling; an empty one keeps its
//! few bytes with the slot, so the next occupant's first child costs no
//! allocation. A stored token costs its own four bytes plus a share of
//! the node around it, not the segment some earlier occupant of the slot
//! left behind.
//!
//! Slot assignment is observable — callers break ties and order scans
//! by arena index — so it is fixed: a new node takes the most recently
//! freed slot, else a fresh one at the end. A caller that needs "the
//! nodes whose payload satisfies X, in arena order" more often than X
//! changes keeps a `SlotSet` beside the arena instead of scanning it.

use std::ops::{Index, IndexMut};

/// Arena index of the root: always live, empty segment, its own parent.
pub const ROOT: usize = 0;

/// One tree node: the structure is the arena's, the payload the caller's.
#[derive(Debug)]
pub struct Node<P> {
    seg: Box<[u32]>,
    parent: u32,
    /// `(first token of the child's segment, child index)`, sorted by
    /// token.
    children: Vec<(u32, u32)>,
    /// True while the slot is on the free list.
    dead: bool,
    /// What the caller keeps per node.
    pub data: P,
}

impl<P> Node<P> {
    /// Token segment on the edge from the parent (empty only at the root).
    pub fn seg(&self) -> &[u32] {
        &self.seg
    }

    /// Arena index of the parent.
    pub fn parent(&self) -> usize {
        self.parent as usize
    }

    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The child whose segment starts with `token`.
    pub fn child(&self, token: u32) -> Option<usize> {
        self.position(token)
            .ok()
            .map(|i| self.children[i].1 as usize)
    }

    fn position(&self, token: u32) -> Result<usize, usize> {
        self.children.binary_search_by_key(&token, |c| c.0)
    }

    fn link(&mut self, token: u32, idx: u32) {
        match self.position(token) {
            Ok(i) => self.children[i].1 = idx,
            Err(i) => {
                // One entry first, then doubling: most nodes have no
                // child or two, and none pays for four.
                let len = self.children.len();
                if len == self.children.capacity() {
                    self.children.reserve_exact(len.max(1));
                }
                self.children.insert(i, (token, idx));
            }
        }
    }
}

/// A radix tree over `u32` tokens with a payload `P` on every node.
///
/// # Examples
///
/// ```
/// use skywalker_replica::radix::{RadixArena, ROOT};
///
/// let mut tree = RadixArena::new(());
/// let leaf = tree.alloc(&[1, 2, 3, 4], ROOT, ());
/// // [1, 2, 9] shares two tokens with the edge, then diverges.
/// assert_eq!(tree.descend(ROOT, &[1, 2, 9]), Some((leaf, 2)));
/// let mid = tree.split(leaf, 2);
/// assert_eq!(tree[mid].seg(), [1, 2]);
/// assert_eq!(tree[leaf].seg(), [3, 4]);
/// tree.alloc(&[9], mid, ());
/// assert_eq!(tree.walk(ROOT, &[1, 2, 9, 9]).map(|(_, n)| n).sum::<usize>(), 3);
/// ```
#[derive(Debug)]
pub struct RadixArena<P> {
    nodes: Vec<Node<P>>,
    free: Vec<usize>,
}

impl<P> Index<usize> for RadixArena<P> {
    type Output = Node<P>;

    fn index(&self, idx: usize) -> &Node<P> {
        &self.nodes[idx]
    }
}

impl<P> IndexMut<usize> for RadixArena<P> {
    fn index_mut(&mut self, idx: usize) -> &mut Node<P> {
        &mut self.nodes[idx]
    }
}

impl<P: Clone> RadixArena<P> {
    /// A tree holding only the root, which carries `root`.
    pub fn new(root: P) -> Self {
        RadixArena {
            nodes: vec![Node {
                seg: Box::default(),
                parent: ROOT as u32,
                children: Vec::new(),
                dead: false,
                data: root,
            }],
            free: Vec::new(),
        }
    }

    /// One step of a walk: the child of `node` that `tokens` continues
    /// into, and how many leading tokens of its segment match (at least
    /// one). A count short of the child's segment is a partial edge:
    /// the walk cannot go deeper. `None` if no child starts with
    /// `tokens[0]`, or `tokens` is empty.
    pub fn descend(&self, node: usize, tokens: &[u32]) -> Option<(usize, usize)> {
        let child = self.nodes[node].child(*tokens.first()?)?;
        let common = self.nodes[child]
            .seg
            .iter()
            .zip(tokens)
            .take_while(|(a, b)| a == b)
            .count();
        Some((child, common))
    }

    /// Every [`RadixArena::descend`] step from `from` along `tokens`,
    /// as `(child, matched tokens)`; ends after a partial edge.
    pub fn walk<'a>(
        &'a self,
        from: usize,
        tokens: &'a [u32],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (mut node, mut pos) = (Some(from), 0);
        std::iter::from_fn(move || {
            let (child, common) = self.descend(node?, &tokens[pos..])?;
            pos += common;
            node = (common == self.nodes[child].seg.len()).then_some(child);
            Some((child, common))
        })
    }

    /// Adds a leaf holding `seg` (non-empty, and `parent` has no child
    /// starting with `seg[0]`) under `parent`; returns its index.
    pub fn alloc(&mut self, seg: &[u32], parent: usize, data: P) -> usize {
        let idx = self.take_slot(parent, data);
        self.nodes[idx].seg = seg.into();
        self.nodes[parent].link(seg[0], idx as u32);
        idx
    }

    /// Splits `child`'s edge after `keep` tokens (`0 < keep <` its
    /// length): a new node between `child` and its parent takes the
    /// first `keep` tokens and a clone of `child`'s payload, `child`
    /// keeps the tail. Both segments are allocated exactly and the old
    /// one is freed. Returns the new node.
    pub fn split(&mut self, child: usize, keep: usize) -> usize {
        debug_assert!(keep > 0 && keep < self.nodes[child].seg.len());
        let parent = self.nodes[child].parent();
        let mid = self.take_slot(parent, self.nodes[child].data.clone());
        let seg = &self.nodes[child].seg;
        let (head, tail): (Box<[u32]>, Box<[u32]>) = (seg[..keep].into(), seg[keep..].into());
        let (head_first, tail_first) = (head[0], tail[0]);
        self.nodes[child].seg = tail;
        self.nodes[child].parent = mid as u32;
        self.nodes[mid].seg = head;
        self.nodes[mid].link(tail_first, child as u32);
        self.nodes[parent].link(head_first, mid as u32);
        mid
    }

    /// Frees a childless non-root node and its segment; the slot keeps
    /// its place on the free list and its empty child index.
    ///
    /// # Panics
    ///
    /// Panics if the parent does not link to the node: the tree is
    /// already broken.
    pub fn remove_leaf(&mut self, idx: usize) {
        debug_assert!(idx != ROOT && self.nodes[idx].is_leaf());
        let n = &mut self.nodes[idx];
        let (parent, first) = (n.parent(), n.seg[0]);
        n.dead = true;
        n.seg = Box::default();
        let p = &mut self.nodes[parent];
        let i = p
            .position(first)
            .ok()
            .filter(|&i| p.children[i].1 as usize == idx)
            .unwrap_or_else(|| panic!("invariant: parent {parent} does not link to leaf {idx}"));
        p.children.remove(i);
        self.free.push(idx);
    }

    /// Every live node but the root, in arena order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Node<P>)> {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| !n.dead)
    }

    /// [`RadixArena::live`], with the payloads mutable.
    pub fn live_mut(&mut self) -> impl Iterator<Item = (usize, &mut Node<P>)> {
        self.nodes
            .iter_mut()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| !n.dead)
    }

    /// Checks the structure: segments non-empty, child indexes sorted,
    /// every parent live and linking back, every dead slot empty.
    ///
    /// # Panics
    ///
    /// Panics if a link is broken or a freed slot still holds tokens.
    pub fn check_invariants(&self) {
        for &i in &self.free {
            let n = &self.nodes[i];
            assert!(n.dead, "free slot {i} is live");
            assert!(n.seg.is_empty(), "dead slot {i} holds a segment");
        }
        for (i, n) in self.live() {
            assert!(!n.seg.is_empty(), "non-root node with empty segment");
            assert!(
                n.children.windows(2).all(|w| w[0].0 < w[1].0),
                "child index out of order"
            );
            let parent = &self.nodes[n.parent()];
            assert!(!parent.dead, "live node under dead parent");
            assert_eq!(parent.child(n.seg[0]), Some(i), "parent/child link broken");
        }
    }

    /// The most recently freed slot, else a fresh one: live, childless,
    /// empty segment, under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if a fresh slot's index would not fit the `u32` links. The
    /// paper's bound of 1 << 22 tokens caps a trie at about 4 M nodes,
    /// a thousandth of that.
    fn take_slot(&mut self, parent: usize, data: P) -> usize {
        let parent = parent as u32;
        if let Some(idx) = self.free.pop() {
            let n = &mut self.nodes[idx];
            n.parent = parent;
            n.dead = false;
            n.data = data;
            idx
        } else {
            let idx = self.nodes.len();
            assert!(
                u32::try_from(idx).is_ok(),
                "invariant: arena slot {idx} does not fit a u32 link"
            );
            self.nodes.push(Node {
                seg: Box::default(),
                parent,
                children: Vec::new(),
                dead: false,
                data,
            });
            idx
        }
    }
}

/// A set of arena slots, one bit each: how a caller indexes the nodes
/// that satisfy some predicate of its payload without rescanning the
/// arena. Iteration is in ascending slot order — the order of
/// [`RadixArena::live`] — at a cost of one word per 64 slots plus the
/// members themselves. The caller keeps the bits true; a freed slot's
/// bit must be cleared before the slot is recycled.
#[derive(Debug, Default)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// Adds `idx` if `member`, removes it otherwise.
    pub(crate) fn set(&mut self, idx: usize, member: bool) {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if member {
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= bit;
        } else if let Some(w) = self.words.get_mut(word) {
            *w &= !bit;
        }
    }

    /// The members, in ascending slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_set_iterates_members_in_slot_order() {
        let mut s = SlotSet::default();
        assert_eq!(s.iter().count(), 0);
        for idx in [200, 3, 64, 63, 3] {
            s.set(idx, true);
        }
        s.set(9_999, false); // beyond the words held: nothing to clear
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 63, 64, 200]);
        s.set(64, false);
        s.set(3, false);
        assert_eq!(s.iter().collect::<Vec<_>>(), [63, 200]);
    }

    #[test]
    fn split_conserves_tokens_and_links() {
        let mut t = RadixArena::new(0u32);
        let leaf = t.alloc(&[1, 2, 3, 4, 5], ROOT, 7);
        let mid = t.split(leaf, 2);
        assert_eq!((t[mid].seg(), t[leaf].seg()), (&[1, 2][..], &[3, 4, 5][..]));
        assert_eq!((t[mid].parent(), t[leaf].parent()), (ROOT, mid));
        assert_eq!(t[ROOT].child(1), Some(mid));
        assert_eq!(t[mid].child(3), Some(leaf));
        assert_eq!(t[mid].data, 7, "the new node clones the child's payload");
        assert!(t[leaf].is_leaf() && !t[mid].is_leaf());
        t.check_invariants();
    }

    #[test]
    fn freed_slots_are_reused_lifo_and_hold_exact_segments() {
        let mut t = RadixArena::new(());
        let a = t.alloc(&[1; 64], ROOT, ());
        let b = t.alloc(&[2, 2, 2], ROOT, ());
        let c = t.alloc(&[3, 3], ROOT, ());
        t.remove_leaf(a);
        t.remove_leaf(c);
        assert!(
            t[a].seg.is_empty() && t[c].seg.is_empty(),
            "freed with the slot"
        );
        t.check_invariants();
        // Last freed, first reused; a split takes its slot the same way.
        assert_eq!(t.alloc(&[4, 4], ROOT, ()), c);
        assert_eq!(t.split(b, 1), a);
        assert_eq!(t.alloc(&[5], ROOT, ()), 4, "free list empty: a fresh slot");
        // The slot that held 64 tokens holds the one it stores, and the
        // split's tail gave up the head's token.
        assert_eq!(
            (&*t[a].seg, &*t[b].seg, &*t[c].seg),
            (&[2][..], &[2, 2][..], &[4, 4][..])
        );
        assert_eq!(
            (t[a].children.capacity(), t[ROOT].children.capacity()),
            (1, 4)
        );
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "does not link to leaf")]
    fn removing_an_unlinked_leaf_is_a_broken_invariant() {
        let mut t = RadixArena::new(());
        let a = t.alloc(&[1, 2], ROOT, ());
        let b = t.alloc(&[3], a, ());
        t[ROOT].children.clear();
        t.remove_leaf(b);
        t.remove_leaf(a);
    }

    #[test]
    fn descend_stops_on_a_partial_edge() {
        let mut t = RadixArena::new(());
        let a = t.alloc(&[1, 2, 3], ROOT, ());
        let b = t.alloc(&[4, 5], a, ());
        assert_eq!(t.descend(ROOT, &[1, 2, 3, 4, 9]), Some((a, 3)));
        assert_eq!(t.descend(a, &[4, 9]), Some((b, 1)), "partial: 1 of 2");
        assert_eq!(t.descend(ROOT, &[7]), None);
        assert_eq!(t.descend(ROOT, &[]), None);
        // The walk reports the partial edge and goes no deeper, even
        // though the query continues.
        let steps: Vec<_> = t.walk(ROOT, &[1, 2, 3, 4, 9, 9]).collect();
        assert_eq!(steps, [(a, 3), (b, 1)]);
        assert_eq!(t.walk(a, &[4, 5, 6]).collect::<Vec<_>>(), [(b, 2)]);
    }

    #[test]
    fn live_skips_root_and_dead_slots() {
        let mut t = RadixArena::new(());
        assert_eq!(t.live().count(), 0);
        let a = t.alloc(&[1], ROOT, ());
        let b = t.alloc(&[2], ROOT, ());
        let c = t.alloc(&[3], b, ());
        t.remove_leaf(a);
        let ids: Vec<usize> = t.live().map(|(i, _)| i).collect();
        assert_eq!(ids, [b, c]);
        assert_eq!(t.live_mut().count(), 2);
        t.check_invariants();
    }
}
