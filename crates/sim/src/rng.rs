//! Deterministic random number utilities.
//!
//! Every stochastic component of the simulation draws from its own
//! [`DetRng`], derived from a root seed plus a stable component label. This
//! gives two properties the experiments rely on:
//!
//! 1. **Reproducibility** — the same root seed yields bit-identical runs.
//! 2. **Variance isolation** — changing one component (say, adding a third
//!    replica) does not perturb the random streams of unrelated components.
//!
//! The generator is SplitMix64 followed by xoshiro256++, implemented here
//! directly (tiny, well-studied, and keeps the workspace free of external
//! dependencies — the deterministic paths must not drift with a crate
//! upgrade anyway).

/// The offset basis a 64-bit FNV-1a fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over whole words, continuing from `h` (start a fresh
/// hash at [`FNV_OFFSET`]): the workspace's one non-cryptographic fold,
/// behind stream labels, ring keys, synthetic-text labels and test
/// fingerprints.
pub fn fnv1a_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

/// [`fnv1a_words`] one byte per round — FNV-1a as published.
pub fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_words(h, bytes.iter().map(|&b| u64::from(b)))
}

/// Hashes a string label to a 64-bit stream id.
fn fnv1a(label: &str) -> u64 {
    fnv1a_bytes(FNV_OFFSET, label.as_bytes())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, seedable RNG (xoshiro256++).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a raw 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Creates a generator for a named component under a root seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use skywalker_sim::DetRng;
    ///
    /// let a = DetRng::for_component(42, "replica/us-east/0");
    /// let b = DetRng::for_component(42, "replica/us-east/1");
    /// // Different components get independent streams.
    /// assert_ne!(a.clone().next_u64(), b.clone().next_u64());
    /// ```
    pub fn for_component(root_seed: u64, label: &str) -> Self {
        Self::new(root_seed ^ fnv1a(label))
    }

    /// Derives a child generator with an extra label, without consuming
    /// randomness from `self`.
    pub fn derive(&self, label: &str) -> Self {
        let mut mix = self.s[0] ^ fnv1a(label);
        let s = [
            splitmix64(&mut mix),
            splitmix64(&mut mix),
            splitmix64(&mut mix),
            splitmix64(&mut mix),
        ];
        DetRng { s }
    }

    fn next(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws a raw `u32` (the high half of one generator step).
    pub fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    /// Draws a raw `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Lemire's nearly-divisionless method with rejection.
        loop {
            let x = self.next();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n {
                return (m >> 64) as u64;
            }
            let t = n.wrapping_neg() % n;
            if lo >= t {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let mut u1 = self.f64();
        if u1 < 1e-300 {
            u1 = 1e-300;
        }
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Lognormal: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential with the given rate (`lambda`); mean is `1/lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let mut u = self.f64();
        if u >= 1.0 {
            u = 1.0 - 1e-16;
        }
        -(1.0 - u).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

/// A Zipf-distributed sampler over ranks `0..n` with exponent `s`.
///
/// Used for skewed popularity (e.g. which shared system prompt a request
/// uses). Sampling is by inverse CDF over precomputed cumulative weights,
/// O(log n) per draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform; larger `s` is more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there is a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let target = rng.f64() * total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite weights"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn component_streams_differ() {
        let mut a = DetRng::for_component(7, "x");
        let mut b = DetRng::for_component(7, "y");
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derive_does_not_consume() {
        let parent = DetRng::new(1);
        let mut c1 = parent.derive("child");
        let mut c2 = parent.derive("child");
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut rng = DetRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues hit");
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn range_bounds() {
        let mut rng = DetRng::new(5);
        for _ in 0..1000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        DetRng::new(0).range(5, 5);
    }

    #[test]
    fn normal_moments_approximately_correct() {
        let mut rng = DetRng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_positive() {
        let mut rng = DetRng::new(17);
        for _ in 0..1000 {
            assert!(rng.lognormal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn choose_handles_empty() {
        let mut rng = DetRng::new(31);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn zipf_skew() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = DetRng::new(37);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 more popular than rank 10");
        assert!(counts[0] > counts[50] * 5, "heavy head");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = DetRng::new(41);
        let mut counts = vec![0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count {c}");
        }
    }
}
