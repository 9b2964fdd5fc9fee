//! Request length distributions.
//!
//! Figure 4a of the paper plots the CDF of input and output lengths in the
//! WildChat dataset: both are heavy-tailed, with most inputs of a few
//! hundred tokens but a tail reaching 10 k, and outputs concentrated in
//! the low hundreds with a tail past 2 k. A lognormal fits that shape;
//! the parameters here are calibrated to the figure's anchor points and
//! verified by the tests below.

use skywalker_sim::DetRng;

/// A clamped lognormal token-length sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthModel {
    /// Mean of the underlying normal (`ln` median).
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
    /// Minimum length, inclusive.
    pub min: u32,
    /// Maximum length, inclusive.
    pub max: u32,
}

impl LengthModel {
    /// WildChat-like input (prompt) lengths: median ≈ 120 tokens, P90 ≈
    /// 0.7 k, tail to 10 k (Fig. 4a "Input").
    pub const WILDCHAT_INPUT: LengthModel = LengthModel {
        mu: 4.79, // ln 120
        sigma: 1.4,
        min: 4,
        max: 10_240,
    };

    /// WildChat-like output lengths: median ≈ 220 tokens, tail past 2 k
    /// (Fig. 4a "Output").
    pub const WILDCHAT_OUTPUT: LengthModel = LengthModel {
        mu: 5.39, // ln 220
        sigma: 0.9,
        min: 1,
        max: 4_096,
    };

    /// Reasoning-step outputs for Tree-of-Thoughts nodes. Most thoughts
    /// are a couple of sentences, but GSM8K multi-step derivations have a
    /// heavy tail — the variability that makes blind pushing pile short
    /// requests behind long ones (§2.3).
    pub const TOT_THOUGHT: LengthModel = LengthModel {
        mu: 4.3, // ln ≈ 74
        sigma: 1.0,
        min: 8,
        max: 1_200,
    };

    /// Draws one length.
    pub fn sample(&self, rng: &mut DetRng) -> u32 {
        let v = rng.lognormal(self.mu, self.sigma);
        let v = v.round().clamp(self.min as f64, self.max as f64);
        v as u32
    }

    /// The distribution median (before clamping).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(model: LengthModel, n: usize, seed: u64) -> Vec<u32> {
        let mut rng = DetRng::new(seed);
        (0..n).map(|_| model.sample(&mut rng)).collect()
    }

    fn quantile(sorted: &[u32], q: f64) -> u32 {
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }

    #[test]
    fn input_distribution_matches_fig4a_shape() {
        let mut s = draw(LengthModel::WILDCHAT_INPUT, 50_000, 1);
        s.sort_unstable();
        let p50 = quantile(&s, 0.5);
        let p90 = quantile(&s, 0.9);
        let max = *s.last().unwrap();
        assert!((90..=160).contains(&p50), "median {p50}");
        assert!((500..=1200).contains(&p90), "p90 {p90}");
        assert!(max > 5_000, "heavy tail reaches {max}");
    }

    #[test]
    fn output_distribution_matches_fig4a_shape() {
        let mut s = draw(LengthModel::WILDCHAT_OUTPUT, 50_000, 2);
        s.sort_unstable();
        let p50 = quantile(&s, 0.5);
        let p99 = quantile(&s, 0.99);
        assert!((180..=270).contains(&p50), "median {p50}");
        assert!(p99 > 1_000, "tail p99 {p99}");
        assert!(*s.last().unwrap() <= 4_096, "clamped at max");
    }

    #[test]
    fn output_variability_motivates_the_paper() {
        // §2.3: output length varies widely and unpredictably. The ratio
        // between a long and a short request should be large.
        let mut s = draw(LengthModel::WILDCHAT_OUTPUT, 10_000, 3);
        s.sort_unstable();
        let p10 = quantile(&s, 0.1).max(1);
        let p90 = quantile(&s, 0.9);
        assert!(
            f64::from(p90) / f64::from(p10) > 5.0,
            "p90/p10 = {}",
            f64::from(p90) / f64::from(p10)
        );
    }

    #[test]
    fn clamping_respects_bounds() {
        let model = LengthModel {
            mu: 10.0,
            sigma: 3.0,
            min: 5,
            max: 50,
        };
        let mut rng = DetRng::new(4);
        for _ in 0..1000 {
            let v = model.sample(&mut rng);
            assert!((5..=50).contains(&v));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(
            draw(LengthModel::WILDCHAT_INPUT, 100, 7),
            draw(LengthModel::WILDCHAT_INPUT, 100, 7)
        );
    }
}
