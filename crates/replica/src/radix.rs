//! The token-level radix tree under both the replica's
//! [`PrefixCache`](crate::PrefixCache) and the balancer's routing trie.
//!
//! The paper's routing trie (§3.2) is the balancer's *snapshot* of the
//! replicas' radix KV caches: the same tree seen from two vantage
//! points. [`RadixArena`] is that tree once — structure only. A node is
//! a token segment, a parent link, a child count and a caller payload
//! `P`, and the tree keeps one table of parent→child links keyed by
//! first token; what the payload *means* (routing targets and insertion
//! age, or pins, LRU clock and residency tier) and when a node dies stay
//! with the caller.
//!
//! # Layout
//!
//! Nodes live in a `Vec` arena with a LIFO free-list, and a node holds
//! what it stores: its segment is a 16-byte `Seg` freed with its slot,
//! its parent link is a `u32` arena index, and beside it sits only its
//! child count. A segment is either an exact `Box<[u32]>` of tokens (a
//! split allocates head and tail anew) or a boxed `Run` — `len` tokens
//! a request generated from its `from`-th on, which
//! [`output_token`] recomputes on every read, so a cache keeps a
//! finished request's output in 16 bytes whatever its length (a split
//! cuts a run into two runs, copying no token). A stored token costs
//! its own four bytes, or nothing inside a run, plus a share of the
//! node around it, not the segment some earlier occupant of the slot
//! left behind.
//!
//! Every parent→child link of the tree lives in one edge table, keyed by
//! `(parent, first token of the child's segment)`: open addressing,
//! linear probing from a multiplicative hash, a power-of-two capacity
//! (8 at the first link) that doubles when a link would fill more than
//! 7/8 of it and halves when an unlink leaves it at most a quarter full
//! (never below 8), and backward-shift deletion, so no tombstones are
//! left behind. Linking and unlinking a child costs O(1) amortised at
//! any fan-out — a document's node with 30 k queries under it shifts no
//! siblings — and the table's bytes follow the links the tree holds
//! now, within a factor of eight, not the most it ever held or the
//! order of operations.
//! Nothing iterates the table: a lookup is all it answers.
//!
//! Liveness is derived, not stored: a slot is free iff it is not the
//! root and its segment is empty. [`RadixArena::remove_leaf`] empties
//! it, and [`RadixArena::alloc`] and [`RadixArena::split`] fill it right
//! after taking it.
//!
//! Slot assignment is observable — callers break ties and order scans
//! by arena index — so it is fixed: a new node takes the most recently
//! freed slot, else a fresh one at the end. A caller that needs "the
//! nodes whose payload satisfies X, in arena order" more often than X
//! changes keeps a `SlotSet` beside the arena instead of scanning it.

use std::ops::{Index, IndexMut};

use crate::tokenizer::output_token;

/// Arena index of the root: always live, empty segment, its own parent.
pub const ROOT: usize = 0;

/// `len` tokens request `request` generated from its `from`-th on:
/// `output_token(request, from + k)` for `k < len`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) request: u64,
    pub(crate) from: u32,
    pub(crate) len: u32,
}

impl Run {
    /// The `k`-th token.
    fn token(self, k: usize) -> u32 {
        output_token(self.request, self.from + k as u32)
    }

    /// All but the first `n` tokens.
    fn skip(self, n: usize) -> Run {
        Run {
            from: self.from + n as u32,
            len: self.len - n as u32,
            ..self
        }
    }
}

/// A token sequence as a walk reads it: borrowed, or a [`Run`]
/// recomputed as it is read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tokens<'a> {
    Slice(&'a [u32]),
    Run(Run),
}

impl Tokens<'_> {
    pub(crate) fn len(self) -> usize {
        match self {
            Tokens::Slice(s) => s.len(),
            Tokens::Run(r) => r.len as usize,
        }
    }

    fn first(self) -> Option<u32> {
        match self {
            Tokens::Slice(s) => s.first().copied(),
            Tokens::Run(r) => (r.len > 0).then(|| r.token(0)),
        }
    }

    /// All but the first `n` tokens.
    pub(crate) fn skip(self, n: usize) -> Self {
        match self {
            Tokens::Slice(s) => Tokens::Slice(&s[n..]),
            Tokens::Run(r) => Tokens::Run(r.skip(n)),
        }
    }
}

/// A node's tokens: held, or a boxed [`Run`]. Either is 16 bytes.
#[derive(Debug)]
pub(crate) enum Seg {
    Owned(Box<[u32]>),
    Run(Box<Run>),
}

impl Default for Seg {
    fn default() -> Self {
        Seg::Owned(Box::default())
    }
}

impl From<Tokens<'_>> for Seg {
    /// A slice is copied into an exact buffer. A run of at most four
    /// tokens is computed into one too, since such a buffer costs no
    /// more than a run's box; a longer run is kept as a run.
    fn from(tokens: Tokens<'_>) -> Seg {
        match tokens {
            Tokens::Slice(s) => Seg::Owned(s.into()),
            Tokens::Run(r) if r.len <= 4 => {
                Seg::Owned((0..r.len as usize).map(|k| r.token(k)).collect())
            }
            Tokens::Run(r) => Seg::Run(Box::new(r)),
        }
    }
}

impl Seg {
    fn tokens(&self) -> Tokens<'_> {
        match self {
            Seg::Owned(s) => Tokens::Slice(s),
            Seg::Run(r) => Tokens::Run(**r),
        }
    }

    fn len(&self) -> usize {
        self.tokens().len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first token: the segment's key in its parent's edge table.
    fn first(&self) -> u32 {
        self.tokens()
            .first()
            .expect("invariant: a linked segment is not empty")
    }

    /// The first `keep` tokens and the rest. Tokens are copied into two
    /// exact buffers; a run is cut into two runs, the tail keeping its
    /// box.
    fn split(self, keep: usize) -> (Seg, Seg) {
        match self {
            Seg::Owned(s) => (Seg::Owned(s[..keep].into()), Seg::Owned(s[keep..].into())),
            Seg::Run(mut r) => {
                let head = Run {
                    len: keep as u32,
                    ..*r
                };
                *r = r.skip(keep);
                (Seg::Run(Box::new(head)), Seg::Run(r))
            }
        }
    }
}

/// One tree node: the structure is the arena's, the payload the caller's.
#[derive(Debug)]
pub struct Node<P> {
    seg: Seg,
    parent: u32,
    /// How many children link to this node in the edge table.
    kids: u32,
    /// What the caller keeps per node.
    pub data: P,
}

impl<P> Node<P> {
    /// Tokens on the edge from the parent (0 only at the root and in a
    /// free slot).
    pub fn seg_len(&self) -> usize {
        self.seg.len()
    }

    /// Arena index of the parent.
    pub fn parent(&self) -> usize {
        self.parent as usize
    }

    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.kids == 0
    }
}

/// One parent→child link. `child == 0` marks an empty slot: the root is
/// nobody's child.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    parent: u32,
    token: u32,
    child: u32,
}

/// The tree's links: an open-addressing table from `(parent, first
/// token)` to child, probed linearly, deleted from by backward shift.
#[derive(Debug, Default)]
struct Edges {
    /// Empty, or a power of two of at least 8 slots.
    slots: Vec<Edge>,
    len: usize,
}

impl Edges {
    /// Where the probe for `(parent, token)` starts: the top bits of a
    /// Fibonacci hash of the pair packed into one word.
    fn home(&self, parent: u32, token: u32) -> usize {
        let key = (u64::from(parent) << 32) | u64::from(token);
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `(parent, token)`, else the empty slot its probe
    /// ends on. The table must not be empty.
    fn find(&self, parent: u32, token: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(parent, token);
        loop {
            let e = self.slots[i];
            if e.child == 0 {
                return Err(i);
            }
            if (e.parent, e.token) == (parent, token) {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The child linked under `(parent, token)`.
    fn get(&self, parent: u32, token: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(parent, token).ok().map(|i| self.slots[i].child)
    }

    /// Links `child` under `(parent, token)`, replacing any child linked
    /// there; true if the link is new. Only a new link can grow the
    /// table.
    fn insert(&mut self, parent: u32, token: u32, child: u32) -> bool {
        debug_assert!(child != 0, "the root is nobody's child");
        if self.slots.is_empty() {
            self.grow();
        }
        match self.find(parent, token) {
            Ok(i) => {
                self.slots[i].child = child;
                false
            }
            Err(mut i) => {
                if 8 * (self.len + 1) > 7 * self.slots.len() {
                    self.grow();
                    i = self.vacancy(parent, token);
                }
                self.slots[i] = Edge {
                    parent,
                    token,
                    child,
                };
                self.len += 1;
                true
            }
        }
    }

    /// The empty slot a probe for the absent `(parent, token)` ends on.
    fn vacancy(&self, parent: u32, token: u32) -> usize {
        self.find(parent, token)
            .expect_err("invariant: a link is held once")
    }

    /// Doubles the capacity (8 at the first link).
    fn grow(&mut self) {
        self.resize((2 * self.slots.len()).max(8));
    }

    /// Moves every link into a table of `cap` slots, re-probing them in
    /// slot order.
    fn resize(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Edge::default(); cap]);
        for e in old.into_iter().filter(|e| e.child != 0) {
            let i = self.vacancy(e.parent, e.token);
            self.slots[i] = e;
        }
    }

    /// Unlinks `(parent, token)` and returns its child, shifting each
    /// later link of the probe run back into the hole when the hole lies
    /// on its own probe path. A removal that leaves the table at most a
    /// quarter full halves it, down to 8 slots: the table grows at 7/8,
    /// so a halved one sits at half its load, and one link more or less
    /// never resizes it twice in a row.
    fn remove(&mut self, parent: u32, token: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut hole = self.find(parent, token).ok()?;
        let child = self.slots[hole].child;
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let e = self.slots[i];
            if e.child == 0 {
                break;
            }
            let home = self.home(e.parent, e.token);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = e;
                hole = i;
            }
        }
        self.slots[hole] = Edge::default();
        self.len -= 1;
        if self.slots.len() > 8 && 4 * self.len <= self.slots.len() {
            self.resize(self.slots.len() / 2);
        }
        Some(child)
    }

    /// Checks the probe structure: the length counts the links, no key
    /// is held twice, and no empty slot lies between a link and its home.
    ///
    /// # Panics
    ///
    /// Panics if any of the three fails.
    fn check_invariants(&self) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut held = 0;
        for (i, e) in self.slots.iter().enumerate().filter(|(_, e)| e.child != 0) {
            held += 1;
            let mut at = self.home(e.parent, e.token);
            while at != i {
                let on_path = self.slots[at];
                assert!(
                    on_path.child != 0,
                    "link in slot {i} is cut off from its home"
                );
                assert!(
                    (on_path.parent, on_path.token) != (e.parent, e.token),
                    "link ({}, {}) is held twice",
                    e.parent,
                    e.token
                );
                at = (at + 1) & mask;
            }
        }
        assert_eq!(held, self.len, "edge table length drifted from its links");
        assert!(
            8 * self.len <= 7 * self.slots.len(),
            "edge table over its load"
        );
        assert!(
            self.slots.len() <= 8 || 4 * self.len > self.slots.len(),
            "edge table under its load"
        );
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
/// let leaf = tree.alloc([1, 2, 3, 4], ROOT, ());
/// // [1, 2, 9] shares two tokens with the edge, then diverges.
/// assert_eq!(tree.descend(ROOT, &[1, 2, 9]), Some((leaf, 2)));
/// let mid = tree.split(leaf, 2);
/// assert_eq!((tree[mid].seg_len(), tree[leaf].seg_len()), (2, 2));
/// assert_eq!(tree.child(mid, 3), Some(leaf));
/// tree.alloc([9], mid, ());
/// assert_eq!(tree.walk(ROOT, &[1, 2, 9, 9]).map(|(_, n)| n).sum::<usize>(), 3);
/// ```
#[derive(Debug)]
pub struct RadixArena<P> {
    nodes: Vec<Node<P>>,
    edges: Edges,
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
                seg: Seg::default(),
                parent: ROOT as u32,
                kids: 0,
                data: root,
            }],
            edges: Edges::default(),
            free: Vec::new(),
        }
    }

    /// The child of `node` whose segment starts with `token`.
    pub fn child(&self, node: usize, token: u32) -> Option<usize> {
        self.edges.get(node as u32, token).map(|c| c as usize)
    }

    /// One step of a walk: the child of `node` that `tokens` continues
    /// into, and how many leading tokens of its segment match (at least
    /// one). A count short of the child's segment is a partial edge:
    /// the walk cannot go deeper. `None` if no child starts with
    /// `tokens[0]`, or `tokens` is empty.
    pub fn descend(&self, node: usize, tokens: &[u32]) -> Option<(usize, usize)> {
        self.descend_tokens(node, Tokens::Slice(tokens))
    }

    /// [`RadixArena::descend`] along a slice or a run.
    pub(crate) fn descend_tokens(&self, node: usize, tokens: Tokens<'_>) -> Option<(usize, usize)> {
        let child = self.child(node, tokens.first()?)?;
        Some((child, common_prefix(self.nodes[child].seg.tokens(), tokens)))
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
    /// starting with `seg[0]`) under `parent`; returns its index. A
    /// `Box<[u32]>` becomes the leaf's segment as it is; a slice is
    /// copied into an exact one.
    pub fn alloc(&mut self, seg: impl Into<Box<[u32]>>, parent: usize, data: P) -> usize {
        self.alloc_seg(Seg::Owned(seg.into()), parent, data)
    }

    /// [`RadixArena::alloc`] of a segment of either kind.
    pub(crate) fn alloc_seg(&mut self, seg: Seg, parent: usize, data: P) -> usize {
        let idx = self.take_slot(parent, data);
        let first = seg.first();
        self.nodes[idx].seg = seg;
        self.link(parent, first, idx);
        idx
    }

    /// Splits `child`'s edge after `keep` tokens (`0 < keep <` its
    /// length): a new node between `child` and its parent takes the
    /// first `keep` tokens and a clone of `child`'s payload, `child`
    /// keeps the tail. Held tokens go into two exact buffers and the old
    /// one is freed; a run is cut into two runs. Returns the new node.
    pub fn split(&mut self, child: usize, keep: usize) -> usize {
        debug_assert!(keep > 0 && keep < self.nodes[child].seg.len());
        let parent = self.nodes[child].parent();
        let mid = self.take_slot(parent, self.nodes[child].data.clone());
        let (head, tail) = std::mem::take(&mut self.nodes[child].seg).split(keep);
        let (head_first, tail_first) = (head.first(), tail.first());
        self.nodes[child].seg = tail;
        self.nodes[child].parent = mid as u32;
        self.nodes[mid].seg = head;
        self.link(mid, tail_first, child);
        self.link(parent, head_first, mid);
        mid
    }

    /// Frees a childless non-root node and its segment; the slot keeps
    /// its place on the free list.
    ///
    /// # Panics
    ///
    /// Panics if the parent does not link to the node: the tree is
    /// already broken.
    pub fn remove_leaf(&mut self, idx: usize) {
        debug_assert!(idx != ROOT && self.nodes[idx].is_leaf());
        let n = &self.nodes[idx];
        let (parent, first) = (n.parent(), n.seg.first());
        if self.edges.remove(parent as u32, first) != Some(idx as u32) {
            panic!("invariant: parent {parent} does not link to leaf {idx}");
        }
        self.nodes[parent].kids -= 1;
        self.nodes[idx].seg = Seg::default();
        self.free.push(idx);
    }

    /// Every live node but the root, in arena order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Node<P>)> {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| !n.seg.is_empty())
    }

    /// [`RadixArena::live`], with the payloads mutable.
    pub fn live_mut(&mut self) -> impl Iterator<Item = (usize, &mut Node<P>)> {
        self.nodes
            .iter_mut()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| !n.seg.is_empty())
    }

    /// Checks the structure: every free slot empty; every live node's
    /// parent live and linking back to it under its first token; every
    /// child count, and the edge table's length, equal to the children
    /// counted from the parent links; the table's probe runs intact.
    ///
    /// # Panics
    ///
    /// Panics if a link or a count is broken, or a freed slot still
    /// holds tokens.
    pub fn check_invariants(&self) {
        for &i in &self.free {
            assert!(i != ROOT, "the root is on the free list");
            assert!(
                self.nodes[i].seg.is_empty(),
                "free slot {i} holds a segment"
            );
        }
        let mut kids = vec![0u32; self.nodes.len()];
        for (i, n) in self.live() {
            let parent = n.parent();
            assert!(
                parent == ROOT || !self.nodes[parent].seg.is_empty(),
                "live node {i} under free slot {parent}"
            );
            assert_eq!(
                self.child(parent, n.seg.first()),
                Some(i),
                "parent/child link broken"
            );
            kids[parent] += 1;
        }
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(
                n.kids, kids[i],
                "node {i}'s child count drifted from its children"
            );
        }
        let links: u32 = kids.iter().sum();
        assert_eq!(
            self.edges.len, links as usize,
            "edge table holds a link to no node"
        );
        self.edges.check_invariants();
    }

    /// Links `child` under `(parent, token)`, replacing any child linked
    /// there; a new link counts towards the parent's children.
    fn link(&mut self, parent: usize, token: u32, child: usize) {
        if self.edges.insert(parent as u32, token, child as u32) {
            self.nodes[parent].kids += 1;
        }
    }

    /// The most recently freed slot, else a fresh one: childless, empty
    /// segment, under `parent`. It is free until the caller gives it a
    /// segment.
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
            n.data = data;
            idx
        } else {
            let idx = self.nodes.len();
            assert!(
                u32::try_from(idx).is_ok(),
                "invariant: arena slot {idx} does not fit a u32 link"
            );
            self.nodes.push(Node {
                seg: Seg::default(),
                parent,
                kids: 0,
                data,
            });
            idx
        }
    }
}

/// How many leading tokens `a` and `b` share. A run's tokens are
/// computed one at a time as they are compared, up to the first that
/// differs.
fn common_prefix(a: Tokens<'_>, b: Tokens<'_>) -> usize {
    let n = a.len().min(b.len());
    match (a, b) {
        (Tokens::Slice(a), Tokens::Slice(b)) => common_slices(a, b),
        (Tokens::Run(r), Tokens::Slice(s)) | (Tokens::Slice(s), Tokens::Run(r)) => s[..n]
            .iter()
            .enumerate()
            .take_while(|&(k, &t)| r.token(k) == t)
            .count(),
        (Tokens::Run(a), Tokens::Run(b)) => {
            (0..n).take_while(|&k| a.token(k) == b.token(k)).count()
        }
    }
}

/// [`common_prefix`] of two slices, compared eight at a time while
/// whole blocks of eight agree.
fn common_slices(a: &[u32], b: &[u32]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (blocks, _) = a.as_chunks::<8>();
    let same = blocks
        .iter()
        .zip(b.as_chunks::<8>().0)
        .take_while(|(x, y)| x == y)
        .count();
    let at = 8 * same;
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
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
    use skywalker_sim::DetRng;

    use super::*;

    /// A node's tokens, read as a walk reads them.
    fn toks<P>(n: &Node<P>) -> Vec<u32> {
        match n.seg.tokens() {
            Tokens::Slice(s) => s.to_vec(),
            Tokens::Run(r) => (0..r.len as usize).map(|k| r.token(k)).collect(),
        }
    }

    fn run(request: u64, from: u32, len: u32) -> Tokens<'static> {
        Tokens::Run(Run { request, from, len })
    }

    #[test]
    fn a_segment_of_either_kind_is_16_bytes() {
        assert_eq!(size_of::<Seg>(), 16);
    }

    #[test]
    fn a_run_reads_as_its_tokens() {
        let r = run(9, 3, 20);
        let tokens: Vec<u32> = (3..23).map(|k| output_token(9, k)).collect();
        assert_eq!(r.first(), Some(tokens[0]));
        assert!(matches!(r.skip(5), Tokens::Run(s) if s.token(2) == tokens[7] && s.len == 15));
        assert_eq!(run(9, 3, 0).first(), None);
        // Up to four tokens are held; more stay a run.
        assert!(matches!(Seg::from(run(9, 3, 4)), Seg::Owned(t) if *t == tokens[..4]));
        assert!(matches!(Seg::from(run(9, 3, 5)), Seg::Run(r) if r.len == 5));
    }

    #[test]
    fn a_run_walks_and_splits_as_its_tokens_do() {
        // One tree holds a run, the other the same tokens; every query
        // and every cut must read alike in both.
        let tokens: Vec<u32> = (1..41).map(|k| output_token(77, k)).collect();
        for keep in [1, 4, 7, 8, 9, 16, 39] {
            let (mut held, mut ran) = (RadixArena::new(()), RadixArena::new(()));
            let a = held.alloc(&tokens[..], ROOT, ());
            let b = ran.alloc_seg(Seg::from(run(77, 1, 40)), ROOT, ());
            for diverge in [0, 1, 7, 8, 9, 23, 39, 40] {
                let mut q = tokens.clone();
                if diverge < q.len() {
                    q[diverge] ^= 1;
                }
                assert_eq!(held.descend(ROOT, &q), ran.descend(ROOT, &q), "{diverge}");
            }
            let (mh, mr) = (held.split(a, keep), ran.split(b, keep));
            assert!(matches!(
                (&ran[mr].seg, &ran[b].seg),
                (Seg::Run(_), Seg::Run(_))
            ));
            assert_eq!(
                (toks(&held[mh]), toks(&held[a])),
                (toks(&ran[mr]), toks(&ran[b]))
            );
            assert_eq!(ran.child(ROOT, tokens[0]), Some(mr));
            assert_eq!(ran.child(mr, tokens[keep]), Some(b));
            let steps = |t: &RadixArena<()>| t.walk(ROOT, &tokens).collect::<Vec<_>>();
            assert_eq!(steps(&held), steps(&ran));
            ran.check_invariants();
            ran.remove_leaf(b);
            ran.remove_leaf(mr);
            ran.check_invariants();
        }
    }

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
        let leaf = t.alloc([1, 2, 3, 4, 5], ROOT, 7);
        let mid = t.split(leaf, 2);
        assert_eq!((toks(&t[mid]), toks(&t[leaf])), (vec![1, 2], vec![3, 4, 5]));
        assert_eq!((t[mid].parent(), t[leaf].parent()), (ROOT, mid));
        assert_eq!(t.child(ROOT, 1), Some(mid));
        assert_eq!(t.child(mid, 3), Some(leaf));
        assert_eq!(t[mid].data, 7, "the new node clones the child's payload");
        assert!(t[leaf].is_leaf() && !t[mid].is_leaf());
        t.check_invariants();
    }

    #[test]
    fn freed_slots_are_reused_lifo_and_hold_exact_segments() {
        let mut t = RadixArena::new(());
        let a = t.alloc([1; 64], ROOT, ());
        let b = t.alloc([2, 2, 2], ROOT, ());
        let c = t.alloc([3, 3], ROOT, ());
        t.remove_leaf(a);
        t.remove_leaf(c);
        assert!(
            t[a].seg.is_empty() && t[c].seg.is_empty(),
            "freed with the slot"
        );
        t.check_invariants();
        // Last freed, first reused; a split takes its slot the same way.
        assert_eq!(t.alloc([4, 4], ROOT, ()), c);
        assert_eq!(t.split(b, 1), a);
        assert_eq!(t.alloc([5], ROOT, ()), 4, "free list empty: a fresh slot");
        // The slot that held 64 tokens holds the one it stores, and the
        // split's tail gave up the head's token.
        assert_eq!(
            (toks(&t[a]), toks(&t[b]), toks(&t[c])),
            (vec![2], vec![2, 2], vec![4, 4])
        );
        // The links live in the tree's one edge table, not in the nodes:
        // four links in its first eight slots, one under `a`, three
        // under the root, and the freed slots' links gone with them.
        assert_eq!((t.edges.len, t.edges.slots.len()), (4, 8));
        assert_eq!((t[a].kids, t[ROOT].kids), (1, 3));
        assert_eq!(t.child(a, 2), Some(b));
        assert_eq!(t.child(ROOT, 1), None);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "does not link to leaf")]
    fn removing_an_unlinked_leaf_is_a_broken_invariant() {
        let mut t = RadixArena::new(());
        let a = t.alloc([1, 2], ROOT, ());
        let b = t.alloc([3], a, ());
        t.edges.remove(ROOT as u32, 1);
        t.remove_leaf(b);
        t.remove_leaf(a);
    }

    #[test]
    fn descend_stops_on_a_partial_edge() {
        let mut t = RadixArena::new(());
        let a = t.alloc([1, 2, 3], ROOT, ());
        let b = t.alloc([4, 5], a, ());
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
    fn common_prefix_matches_a_token_by_token_count() {
        let base: Vec<u32> = (0..40).collect();
        for len in [0, 1, 7, 8, 9, 16, 23, 40] {
            for diverge in 0..=len {
                let mut other = base[..len].to_vec();
                if diverge < len {
                    other[diverge] = u32::MAX;
                }
                let slow = base.iter().zip(&other).take_while(|(a, b)| a == b).count();
                assert_eq!(common_slices(&base, &other), slow, "{len} {diverge}");
                assert_eq!(common_slices(&other, &base), slow, "{len} {diverge}");
            }
        }
    }

    #[test]
    fn common_prefix_of_runs_matches_a_token_by_token_count() {
        let base: Vec<u32> = (0..40).map(|k| output_token(5, k)).collect();
        for len in [0, 1, 7, 8, 9, 16, 23, 40] {
            for diverge in 0..=len {
                let mut other = base[..len].to_vec();
                if diverge < len {
                    other[diverge] = u32::MAX;
                }
                let slow = base.iter().zip(&other).take_while(|(a, b)| a == b).count();
                let whole = run(5, 0, 40);
                assert_eq!(common_prefix(whole, Tokens::Slice(&other)), slow);
                assert_eq!(common_prefix(Tokens::Slice(&other), whole), slow);
                // Two runs: the same request's, and another's.
                assert_eq!(common_prefix(whole, run(5, 0, len as u32)), len);
                assert_eq!(common_prefix(whole, run(6, 0, len as u32)), 0);
            }
        }
    }

    #[test]
    fn live_skips_root_and_dead_slots() {
        let mut t = RadixArena::new(());
        assert_eq!(t.live().count(), 0);
        let a = t.alloc([1], ROOT, ());
        let b = t.alloc([2], ROOT, ());
        let c = t.alloc([3], b, ());
        t.remove_leaf(a);
        let ids: Vec<usize> = t.live().map(|(i, _)| i).collect();
        assert_eq!(ids, [b, c]);
        assert_eq!(t.live_mut().count(), 2);
        t.check_invariants();
    }

    /// Where each of `keys` sits in the table now.
    fn slots_of(e: &Edges, keys: &[(u32, u32)]) -> Vec<Option<usize>> {
        if e.slots.is_empty() {
            return vec![None; keys.len()];
        }
        keys.iter().map(|&(p, t)| e.find(p, t).ok()).collect()
    }

    #[test]
    fn edge_table_matches_a_sorted_map() {
        use std::collections::BTreeMap;
        // A key space of 7, 14 or 28 links fills 8, 16 or 32 slots to
        // their 7/8 load, so probe runs wrap past the end and backward
        // shifts cross it.
        for (space, cap) in [(7, 8), (14, 16), (28, 32)] {
            let (mut wrapped, mut shifted_across) = (false, false);
            for seed in 0..16 {
                let mut rng = DetRng::new(1_000 * space + seed);
                let keys: Vec<(u32, u32)> = (0..space)
                    .map(|k| {
                        (
                            rng.below(4) as u32,
                            rng.below(1 << 32) as u32 | (k as u32 & 1),
                        )
                    })
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let absent = (u32::MAX, 0);
                let (mut e, mut model) = (Edges::default(), BTreeMap::new());
                for _ in 0..2_000 {
                    let key = keys[rng.below(keys.len() as u64) as usize];
                    let (p, t) = key;
                    match rng.below(5) {
                        // Link, new or overwriting.
                        0 | 1 => {
                            let child = rng.range(1, 1 << 32) as u32;
                            assert_eq!(e.insert(p, t, child), model.insert(key, child).is_none());
                        }
                        // Unlink, whether or not the key is linked.
                        2 | 3 => {
                            let (before, cap) = (slots_of(&e, &keys), e.slots.len());
                            assert_eq!(e.remove(p, t), model.remove(&key));
                            let mask = e.slots.len().wrapping_sub(1);
                            shifted_across |= e.slots.len() == cap
                                && before
                                    .iter()
                                    .zip(slots_of(&e, &keys))
                                    .any(|(b, a)| *b == Some(0) && a == Some(mask));
                        }
                        // Unlink and look up a key never linked.
                        _ => {
                            assert_eq!(e.remove(absent.0, absent.1), None);
                            assert_eq!(e.get(absent.0, absent.1), None);
                        }
                    }
                    e.check_invariants();
                    assert_eq!(e.len, model.len());
                    for &(p, t) in &keys {
                        assert_eq!(e.get(p, t), model.get(&(p, t)).copied(), "({p}, {t})");
                    }
                    wrapped |= e
                        .slots
                        .iter()
                        .enumerate()
                        .any(|(i, l)| l.child != 0 && i < e.home(l.parent, l.token));
                }
                assert!(e.slots.len() <= cap, "{space} keys outgrew {cap} slots");
            }
            assert!(wrapped, "no probe run wrapped past the end of {cap} slots");
            assert!(
                shifted_across,
                "no backward shift crossed the end of {cap} slots"
            );
        }
    }

    #[test]
    fn the_edge_table_gives_back_slots_as_the_tree_shrinks() {
        let mut t = RadixArena::new(());
        let leaves: Vec<usize> = (0..1_000).map(|k| t.alloc([k], ROOT, ())).collect();
        assert_eq!((t.edges.len, t.edges.slots.len()), (1_000, 2_048));
        // Above a quarter of its slots the table keeps its size; the
        // removal that leaves a quarter halves it, to half its load.
        for &leaf in &leaves[..487] {
            t.remove_leaf(leaf);
        }
        assert_eq!((t.edges.len, t.edges.slots.len()), (513, 2_048));
        t.remove_leaf(leaves[487]);
        assert_eq!((t.edges.len, t.edges.slots.len()), (512, 1_024));
        t.check_invariants();
        // One link back and forth at that point resizes nothing.
        let fresh = t.alloc([5_000], ROOT, ());
        t.remove_leaf(fresh);
        assert_eq!((t.edges.len, t.edges.slots.len()), (512, 1_024));
        for &leaf in &leaves[488..] {
            t.remove_leaf(leaf);
        }
        t.check_invariants();
        // Every link gone: back to the smallest table, not the peak's.
        assert_eq!((t.edges.len, t.edges.slots.len()), (0, 8));
        assert!(t[ROOT].is_leaf() && t.live().next().is_none());
    }

    #[test]
    fn a_hub_of_100k_children_links_and_unlinks_each_in_constant_time() {
        let mut t = RadixArena::new(());
        let hub = t.alloc([7], ROOT, ());
        let mut kids: Vec<usize> = (0..100_000).map(|k| t.alloc([k, 1], hub, ())).collect();
        assert_eq!(t[hub].kids, 100_000);
        assert_eq!(t.edges.len, 100_001);
        assert_eq!(t.descend(hub, &[99_999, 1, 5]), Some((kids[99_999], 2)));
        t.check_invariants();
        DetRng::new(44).shuffle(&mut kids);
        for (n, &k) in kids.iter().enumerate() {
            t.remove_leaf(k);
            if n % 25_000 == 0 {
                t.check_invariants();
            }
        }
        assert!(t[hub].is_leaf());
        assert_eq!(t.edges.len, 1, "only the root's link to the hub is left");
        t.remove_leaf(hub);
        assert_eq!(t.edges.len, 0);
        assert!(t[ROOT].is_leaf() && t.live().next().is_none());
        t.check_invariants();
    }
}
