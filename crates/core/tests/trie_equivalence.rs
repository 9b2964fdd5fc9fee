//! Reference-model equivalence suite for the optimized routing trie.
//!
//! `RefTrie` below is a straight port of the pre-optimization
//! implementation: per-node `BTreeMap` child and target maps and a full
//! arena scan (`min_by_key(created_seq)`) per evicted leaf. The optimized
//! trie replaced those with flat sorted child and target lists and an
//! incremental `(created_seq, index)` eviction frontier — pure data-structure swaps
//! that must not change a single observable.
//!
//! Both tries share the same free-list discipline (LIFO `free.pop()`,
//! placeholder push on split), so arena slots evolve identically and the
//! race can compare structural size, not just lookup results. Every
//! sequence interleaves inserts, bound-driven evictions (tight
//! `max_tokens`), availability-filtered matches, per-target probes, and
//! target purges; after every op the suite checks identical match
//! results, node counts, token accounting, and the optimized trie's own
//! invariants.

use std::collections::BTreeMap;

use skywalker_core::RouteTrie;
use skywalker_sim::DetRng;

// ---- reference model: the pre-optimization trie, verbatim semantics ----

#[derive(Debug)]
struct RefNode {
    seg: Vec<u32>,
    parent: usize,
    children: BTreeMap<u32, usize>,
    targets: BTreeMap<u8, u64>,
    created_seq: u64,
    dead: bool,
}

const ROOT: usize = 0;

struct RefTrie {
    nodes: Vec<RefNode>,
    free: Vec<usize>,
    max_tokens: usize,
    stored_tokens: usize,
    seq: u64,
}

impl RefTrie {
    fn new(max_tokens: usize) -> Self {
        RefTrie {
            nodes: vec![RefNode {
                seg: Vec::new(),
                parent: ROOT,
                children: BTreeMap::new(),
                targets: BTreeMap::new(),
                created_seq: 0,
                dead: false,
            }],
            free: Vec::new(),
            max_tokens,
            stored_tokens: 0,
            seq: 0,
        }
    }

    fn node_count(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| *i != ROOT && !n.dead)
            .count()
    }

    fn insert(&mut self, tokens: &[u32], target: u8) {
        self.seq += 1;
        let seq = self.seq;
        self.nodes[ROOT].targets.insert(target, seq);
        let mut node = ROOT;
        let mut pos = 0usize;
        while pos < tokens.len() {
            match self.nodes[node].children.get(&tokens[pos]).copied() {
                Some(child) => {
                    let common = self.nodes[child]
                        .seg
                        .iter()
                        .zip(&tokens[pos..])
                        .take_while(|(a, b)| a == b)
                        .count();
                    let next = if common < self.nodes[child].seg.len() {
                        self.split(child, common)
                    } else {
                        child
                    };
                    self.nodes[next].targets.insert(target, seq);
                    node = next;
                    pos += common;
                }
                None => {
                    let leaf = self.alloc(tokens[pos..].to_vec(), node, seq);
                    pos = tokens.len();
                    self.nodes[leaf].targets.insert(target, seq);
                    let first = self.nodes[leaf].seg[0];
                    self.nodes[node].children.insert(first, leaf);
                    node = leaf;
                }
            }
        }
        self.enforce_bound();
    }

    fn best_match<F: Fn(&u8) -> bool>(&self, tokens: &[u32], available: F) -> Option<(u8, usize)> {
        let pick = |node: &RefNode| -> Option<u8> {
            node.targets
                .iter()
                .filter(|(t, _)| available(t))
                .max_by_key(|(t, seq)| (**seq, std::cmp::Reverse(**t)))
                .map(|(t, _)| *t)
        };
        let mut best = pick(&self.nodes[ROOT]).map(|t| (t, 0usize));
        best.as_ref()?;
        let mut node = ROOT;
        let mut pos = 0usize;
        while pos < tokens.len() {
            let Some(child) = self.nodes[node].children.get(&tokens[pos]).copied() else {
                break;
            };
            let common = self.nodes[child]
                .seg
                .iter()
                .zip(&tokens[pos..])
                .take_while(|(a, b)| a == b)
                .count();
            if common == 0 {
                break;
            }
            let Some(target) = pick(&self.nodes[child]) else {
                break;
            };
            pos += common;
            best = Some((target, pos));
            if common < self.nodes[child].seg.len() {
                break;
            }
            node = child;
        }
        best
    }

    fn matched_for(&self, tokens: &[u32], target: u8) -> usize {
        if !self.nodes[ROOT].targets.contains_key(&target) {
            return 0;
        }
        let mut node = ROOT;
        let mut pos = 0usize;
        while pos < tokens.len() {
            let Some(child) = self.nodes[node].children.get(&tokens[pos]).copied() else {
                break;
            };
            if !self.nodes[child].targets.contains_key(&target) {
                break;
            }
            let common = self.nodes[child]
                .seg
                .iter()
                .zip(&tokens[pos..])
                .take_while(|(a, b)| a == b)
                .count();
            pos += common;
            if common < self.nodes[child].seg.len() {
                break;
            }
            node = child;
        }
        pos
    }

    fn purge_target(&mut self, target: u8) {
        for n in self.nodes.iter_mut() {
            if !n.dead {
                n.targets.remove(&target);
            }
        }
        loop {
            let victim = self.nodes.iter().enumerate().find_map(|(i, n)| {
                (i != ROOT && !n.dead && n.children.is_empty() && n.targets.is_empty()).then_some(i)
            });
            match victim {
                Some(i) => self.remove_leaf(i),
                None => break,
            }
        }
    }

    fn alloc(&mut self, seg: Vec<u32>, parent: usize, seq: u64) -> usize {
        self.stored_tokens += seg.len();
        let node = RefNode {
            seg,
            parent,
            children: BTreeMap::new(),
            targets: BTreeMap::new(),
            created_seq: seq,
            dead: false,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn split(&mut self, child: usize, keep: usize) -> usize {
        let parent = self.nodes[child].parent;
        let head = self.nodes[child].seg[..keep].to_vec();
        let tail = self.nodes[child].seg[keep..].to_vec();
        let mid_node = RefNode {
            seg: head,
            parent,
            children: BTreeMap::new(),
            targets: self.nodes[child].targets.clone(),
            created_seq: self.nodes[child].created_seq,
            dead: false,
        };
        let mid = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = mid_node;
            idx
        } else {
            self.nodes.push(mid_node);
            self.nodes.len() - 1
        };
        let mid_first = self.nodes[mid].seg[0];
        self.nodes[parent].children.insert(mid_first, mid);
        let tail_first = tail[0];
        self.nodes[mid].children.insert(tail_first, child);
        self.nodes[child].seg = tail;
        self.nodes[child].parent = mid;
        mid
    }

    fn remove_leaf(&mut self, idx: usize) {
        let parent = self.nodes[idx].parent;
        let first = self.nodes[idx].seg[0];
        self.nodes[parent].children.remove(&first);
        self.stored_tokens -= self.nodes[idx].seg.len();
        let n = &mut self.nodes[idx];
        n.dead = true;
        n.seg = Vec::new();
        n.targets = BTreeMap::new();
        self.free.push(idx);
    }

    fn enforce_bound(&mut self) {
        while self.stored_tokens > self.max_tokens {
            let victim = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| *i != ROOT && !n.dead && n.children.is_empty())
                .min_by_key(|(_, n)| n.created_seq)
                .map(|(i, _)| i);
            match victim {
                Some(i) => self.remove_leaf(i),
                None => break,
            }
        }
    }
}

// ---- the race -----------------------------------------------------------

fn random_tokens(rng: &mut DetRng, alphabet: u64, min: u64, max: u64) -> Vec<u32> {
    let len = rng.range(min, max);
    (0..len).map(|_| rng.below(alphabet) as u32).collect()
}

/// Availability mask seeded per probe: target `t` is available iff bit
/// `t % 64` of `mask` is set. Deterministic and shared by both tries.
fn masked(mask: u64) -> impl Fn(&u8) -> bool {
    move |t: &u8| mask & (1u64 << (t % 64)) != 0
}

fn compare_state(case: u64, op: usize, opt: &RouteTrie<u8>, reference: &RefTrie) {
    opt.check_invariants();
    assert_eq!(
        opt.stored_tokens(),
        reference.stored_tokens,
        "case {case} op {op}: stored token divergence"
    );
    assert_eq!(
        opt.node_count(),
        reference.node_count(),
        "case {case} op {op}: node count divergence"
    );
    assert_eq!(
        opt.is_empty(),
        reference.nodes[ROOT].children.is_empty(),
        "case {case} op {op}: emptiness divergence"
    );
}

fn run_sequence(case: u64, label: &str, ops: u64, alphabet: u64, max_len: u64, tight_bound: bool) {
    let mut rng = DetRng::for_component(case, label);
    let bound = if tight_bound {
        rng.range(8, 64) as usize
    } else {
        rng.range(256, 4096) as usize
    };
    let mut opt: RouteTrie<u8> = RouteTrie::new(bound);
    let mut reference = RefTrie::new(bound);
    for op in 0..ops as usize {
        match rng.below(10) {
            // Inserts dominate: they exercise split, alloc recycling, and
            // (with a tight bound) the eviction path on nearly every op.
            0..=5 => {
                let tokens = random_tokens(&mut rng, alphabet, 0, max_len);
                let target = rng.below(6) as u8;
                opt.insert(&tokens, target);
                reference.insert(&tokens, target);
            }
            6..=7 => {
                let query = random_tokens(&mut rng, alphabet, 0, max_len + 2);
                let mask = rng.next_u64();
                let got = opt
                    .best_match(&query, masked(mask))
                    .map(|m| (m.target, m.matched));
                let want = reference.best_match(&query, masked(mask));
                assert_eq!(got, want, "case {case} op {op}: best_match divergence");
            }
            8 => {
                let query = random_tokens(&mut rng, alphabet, 0, max_len + 2);
                let target = rng.below(8) as u8;
                assert_eq!(
                    opt.matched_for(&query, target),
                    reference.matched_for(&query, target),
                    "case {case} op {op}: matched_for divergence"
                );
            }
            _ => {
                let target = rng.below(6) as u8;
                opt.purge_target(target);
                reference.purge_target(target);
            }
        }
        compare_state(case, op, &opt, &reference);
    }
    // Full-surface sweep at the end: every target, several probes.
    for t in 0..6u8 {
        let query = random_tokens(&mut rng, alphabet, 0, max_len + 2);
        assert_eq!(
            opt.matched_for(&query, t),
            reference.matched_for(&query, t),
            "case {case} final probe target {t}"
        );
    }
}

/// Tight bounds + tiny alphabet: maximal split/evict/recycle pressure.
#[test]
fn equivalence_under_eviction_pressure() {
    for case in 0..400u64 {
        run_sequence(case, "trie/equiv-evict", 40, 4, 10, true);
    }
}

/// Roomy bounds + wider alphabet: deep structure, rare eviction.
#[test]
fn equivalence_with_deep_structure() {
    for case in 0..400u64 {
        run_sequence(case, "trie/equiv-deep", 40, 8, 24, false);
    }
}

/// Long shared prefixes (the serving-realistic shape): splits land deep.
#[test]
fn equivalence_with_shared_prefixes() {
    for case in 0..300u64 {
        let mut rng = DetRng::for_component(case, "trie/equiv-prefix");
        let bound = rng.range(64, 512) as usize;
        let mut opt: RouteTrie<u8> = RouteTrie::new(bound);
        let mut reference = RefTrie::new(bound);
        let stem = random_tokens(&mut rng, 16, 4, 12);
        for op in 0..30usize {
            let mut tokens = stem[..rng.range(0, stem.len() as u64 + 1) as usize].to_vec();
            tokens.extend(random_tokens(&mut rng, 16, 0, 8));
            let target = rng.below(5) as u8;
            opt.insert(&tokens, target);
            reference.insert(&tokens, target);
            compare_state(case, op, &opt, &reference);
            let mask = rng.next_u64();
            let got = opt
                .best_match(&tokens, masked(mask))
                .map(|m| (m.target, m.matched));
            assert_eq!(
                got,
                reference.best_match(&tokens, masked(mask)),
                "case {case} op {op}: prefix-probe divergence"
            );
        }
    }
}

/// A trie the size a long run builds, then every target purged — what a
/// balancer pays when a replica dies late in the day. Each purge drops
/// thousands of orphaned leaves and collapses the chains above them.
#[test]
fn equivalence_when_purging_a_large_trie() {
    const TARGETS: u8 = 8;
    let mut rng = DetRng::for_component(61, "trie/equiv-purge-large");
    let bound = 150_000;
    let mut opt: RouteTrie<u8> = RouteTrie::new(bound);
    let mut reference = RefTrie::new(bound);
    let stems: Vec<Vec<u32>> = (0..64)
        .map(|_| random_tokens(&mut rng, 32, 4, 24))
        .collect();
    let insert = |rng: &mut DetRng, opt: &mut RouteTrie<u8>, reference: &mut RefTrie| {
        let stem = rng.choose(&stems).expect("non-empty");
        let mut tokens = stem[..rng.range(0, stem.len() as u64 + 1) as usize].to_vec();
        tokens.extend(random_tokens(rng, 32, 0, 16));
        let target = rng.below(u64::from(TARGETS)) as u8;
        opt.insert(&tokens, target);
        reference.insert(&tokens, target);
        tokens
    };
    for _ in 0..20_000 {
        insert(&mut rng, &mut opt, &mut reference);
    }
    compare_state(61, 0, &opt, &reference);
    assert!(opt.node_count() > 10_000, "{} nodes", opt.node_count());
    assert!(opt.stored_tokens() > bound * 9 / 10, "the bound evicted");

    for target in 0..TARGETS {
        opt.purge_target(target);
        reference.purge_target(target);
        compare_state(61, 1 + usize::from(target), &opt, &reference);
        // The survivors still route, and the recycled slots take new
        // paths the same way on both sides.
        for probe in 0..50 {
            let tokens = insert(&mut rng, &mut opt, &mut reference);
            let mask = rng.next_u64();
            let got = opt
                .best_match(&tokens, masked(mask))
                .map(|m| (m.target, m.matched));
            let want = reference.best_match(&tokens, masked(mask));
            assert_eq!(got, want, "after purging {target}, probe {probe}");
        }
        compare_state(61, 100 + usize::from(target), &opt, &reference);
    }
    for target in 0..TARGETS {
        opt.purge_target(target);
        reference.purge_target(target);
    }
    compare_state(61, 200, &opt, &reference);
    assert!(opt.is_empty(), "every target purged leaves no path");
}
