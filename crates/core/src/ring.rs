//! Consistent-hashing ring (§3.2, SkyWalker-CH).
//!
//! A ring-hash scheme in the style of Chord/Karger: each target owns
//! several virtual nodes placed pseudo-randomly on a 64-bit ring; a key
//! routes to the first virtual node at or after its hash. SkyWalker-CH
//! extends the classic scheme with *availability skipping* (Alg. 1 line
//! 26): when the owning target is unavailable (its continuous batch is
//! full), the lookup keeps walking the ring to the next virtual node of an
//! available target, rather than failing or queueing behind the busy one.

use skywalker_sim::{fnv1a_bytes, FNV_OFFSET};

/// Hashes a routing key (user id / session id) onto the ring.
pub fn hash_key(key: &str) -> u64 {
    // FNV-1a then a finalizer, so short keys still spread.
    let mut h = fnv1a_bytes(FNV_OFFSET, key.as_bytes());
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 29)
}

fn vnode_hash<T: RingTarget>(target: &T, replica_index: u32) -> u64 {
    let mut h = target.ring_id() ^ 0x9e37_79b9_7f4a_7c15;
    h ^= u64::from(replica_index).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 29)
}

/// Anything placeable on the ring: needs a stable 64-bit identity. The
/// supertraits are what boxed [`RoutingPolicy`] objects need of their
/// target type (debuggable, sendable across server threads, owning).
///
/// [`RoutingPolicy`]: crate::RoutingPolicy
pub trait RingTarget: Copy + Eq + Ord + std::fmt::Debug + Send + 'static {
    /// Stable identity used to derive virtual-node positions.
    fn ring_id(&self) -> u64;
}

impl RingTarget for u32 {
    fn ring_id(&self) -> u64 {
        u64::from(*self)
    }
}

/// A consistent-hashing ring with virtual nodes and availability skipping.
///
/// # Examples
///
/// ```
/// use skywalker_core::{hash_key, HashRing};
///
/// let mut ring: HashRing<u32> = HashRing::new(64);
/// for t in 0..4u32 {
///     ring.add(t);
/// }
/// let h = hash_key("user-42/session-1");
/// let owner = ring.lookup(h, |_| true).unwrap();
/// // Same key, same owner — that is the whole point.
/// assert_eq!(ring.lookup(h, |_| true), Some(owner));
/// // If the owner is busy, the next available target serves instead.
/// let fallback = ring.lookup(h, |t| *t != owner).unwrap();
/// assert_ne!(fallback, owner);
/// ```
#[derive(Debug, Clone)]
pub struct HashRing<T> {
    /// `(position, target)` sorted by position.
    points: Vec<(u64, T)>,
    vnodes_per_target: u32,
}

impl<T: RingTarget> HashRing<T> {
    /// Creates an empty ring with `vnodes_per_target` virtual nodes per
    /// target (more virtual nodes → smoother key distribution).
    pub fn new(vnodes_per_target: u32) -> Self {
        HashRing {
            points: Vec::new(),
            vnodes_per_target: vnodes_per_target.max(1),
        }
    }

    /// Number of distinct targets on the ring.
    pub fn len(&self) -> usize {
        self.points.len() / self.vnodes_per_target as usize
    }

    /// True if the ring has no targets.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a target (idempotent).
    pub fn add(&mut self, target: T) {
        if self.points.iter().any(|(_, t)| *t == target) {
            return;
        }
        for i in 0..self.vnodes_per_target {
            self.points.push((vnode_hash(&target, i), target));
        }
        self.points.sort_unstable_by_key(|(h, t)| (*h, *t));
    }

    /// Removes a target and all its virtual nodes.
    pub fn remove(&mut self, target: T) {
        self.points.retain(|(_, t)| *t != target);
    }

    /// Routes a key hash to the owning target, skipping targets for which
    /// `available` returns false (Alg. 1 line 26: `Next(HashRing,
    /// HashValue, C)`). Returns `None` when no target is available.
    pub fn lookup<F: Fn(&T) -> bool>(&self, key_hash: u64, available: F) -> Option<T> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|(h, _)| *h < key_hash);
        let n = self.points.len();
        let mut skipped: Vec<T> = Vec::new();
        for step in 0..n {
            let (_, t) = self.points[(start + step) % n];
            if available(&t) {
                return Some(t);
            }
            // Avoid re-testing a target we already skipped (targets own
            // many virtual nodes).
            if !skipped.contains(&t) {
                skipped.push(t);
                if skipped.len() >= self.len() {
                    return None;
                }
            }
        }
        None
    }

    /// The target owning the key if every target were available.
    pub fn owner(&self, key_hash: u64) -> Option<T> {
        self.lookup(key_hash, |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(n: u32) -> HashRing<u32> {
        let mut r = HashRing::new(64);
        for t in 0..n {
            r.add(t);
        }
        r
    }

    #[test]
    fn deterministic_ownership() {
        let r = ring_with(8);
        for key in ["a", "user-1", "session-99"] {
            let h = hash_key(key);
            assert_eq!(r.lookup(h, |_| true), r.lookup(h, |_| true));
        }
    }

    #[test]
    fn distribution_roughly_balanced() {
        let r = ring_with(8);
        let mut counts = [0u32; 8];
        for i in 0..80_000 {
            let h = hash_key(&format!("user-{i}"));
            counts[r.owner(h).unwrap() as usize] += 1;
        }
        let expected = 10_000.0;
        for (t, c) in counts.iter().enumerate() {
            let dev = (f64::from(*c) - expected).abs() / expected;
            assert!(dev < 0.35, "target {t} holds {c} keys ({dev:.2} dev)");
        }
    }

    #[test]
    fn consistency_under_membership_change() {
        // Removing one of 10 targets must remap only ~1/10th of keys.
        let r10 = ring_with(10);
        let mut r9 = ring_with(10);
        r9.remove(9);
        let mut moved = 0u32;
        let total = 20_000u32;
        for i in 0..total {
            let h = hash_key(&format!("k{i}"));
            let a = r10.owner(h).unwrap();
            let b = r9.owner(h).unwrap();
            if a != b {
                assert_eq!(a, 9, "only keys owned by the removed target move");
                moved += 1;
            }
        }
        let frac = f64::from(moved) / f64::from(total);
        assert!((0.05..0.18).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn availability_skipping_walks_the_ring() {
        let r = ring_with(4);
        let h = hash_key("some-user");
        let owner = r.owner(h).unwrap();
        let next = r.lookup(h, |t| *t != owner).unwrap();
        assert_ne!(next, owner);
        // Skipping two targets still resolves.
        let third = r.lookup(h, |t| *t != owner && *t != next).unwrap();
        assert_ne!(third, owner);
        assert_ne!(third, next);
        // Nothing available → None.
        assert_eq!(r.lookup(h, |_| false), None);
    }

    #[test]
    fn add_idempotent_remove_complete() {
        let mut r = ring_with(3);
        r.add(1);
        assert_eq!(r.len(), 3);
        r.remove(1);
        assert_eq!(r.len(), 2);
        for i in 0..1000 {
            let h = hash_key(&format!("x{i}"));
            assert_ne!(r.owner(h), Some(1));
        }
    }

    #[test]
    fn empty_ring_returns_none() {
        let r: HashRing<u32> = HashRing::new(16);
        assert!(r.is_empty());
        assert_eq!(r.lookup(hash_key("a"), |_| true), None);
    }

    #[test]
    fn session_affinity_property() {
        // Requests with the same session key land on the same target even
        // interleaved with other traffic — the implicit prefix awareness
        // of SkyWalker-CH.
        let r = ring_with(12);
        let h = hash_key("user-7/conv-3");
        let first = r.owner(h).unwrap();
        for _ in 0..5 {
            assert_eq!(r.owner(h).unwrap(), first);
        }
    }

    mod properties {
        use super::*;
        use skywalker_sim::DetRng;

        fn random_key(rng: &mut DetRng, max_len: u64) -> String {
            let len = rng.range(1, max_len + 1);
            (0..len)
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect()
        }

        #[test]
        fn lookup_only_returns_available() {
            for case in 0..200u64 {
                let mut rng = DetRng::for_component(case, "ring/availability-property");
                let r = ring_with(6);
                let unavailable: Vec<u32> =
                    (0..rng.below(7)).map(|_| rng.below(6) as u32).collect();
                for _ in 0..rng.range(1, 40) {
                    let k = random_key(&mut rng, 8);
                    let res = r.lookup(hash_key(&k), |t| !unavailable.contains(t));
                    match res {
                        Some(t) => assert!(
                            !unavailable.contains(&t),
                            "case {case}: picked unavailable target {t}"
                        ),
                        None => {
                            // Only possible when everything is unavailable.
                            let mut u = unavailable.clone();
                            u.sort_unstable();
                            u.dedup();
                            assert_eq!(u.len(), 6, "case {case}");
                        }
                    }
                }
            }
        }

        #[test]
        fn same_key_same_owner_across_clones() {
            let mut rng = DetRng::for_component(7, "ring/clone-property");
            for _ in 0..200 {
                let key = random_key(&mut rng, 16);
                let a = ring_with(5);
                let b = ring_with(5);
                assert_eq!(a.owner(hash_key(&key)), b.owner(hash_key(&key)));
            }
        }
    }
}
