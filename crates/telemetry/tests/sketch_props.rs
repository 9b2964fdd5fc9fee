//! Property suite for `QuantileSketch`: the advertised relative-error
//! bound holds against the exact samples, across 600 seeded cases (3
//! distribution shapes × 200 seeds).
//!
//! The bound under test is the sketch's documented contract: the
//! estimate of quantile `q` is within relative error `α` of the exact
//! sample at the nearest rank `round(q·(n−1))`, read here straight from
//! the sorted samples.

use skywalker_sim::DetRng;
use skywalker_telemetry::{QuantileSketch, RELATIVE_ERROR};

const SEEDS_PER_SHAPE: u64 = 200;
const QUANTILES: [f64; 3] = [0.50, 0.90, 0.99];

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Uniform latencies in [1ms, 10s).
    Uniform,
    /// Lognormal (the classic latency shape): median ~135ms, heavy tail.
    Lognormal,
    /// Bimodal: a fast cache-hit mode around 20ms and a slow compute
    /// mode around 2s — the shape that breaks mean-based monitoring.
    Bimodal,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::Uniform, Shape::Lognormal, Shape::Bimodal];

    fn sample(self, rng: &mut DetRng) -> f64 {
        match self {
            Shape::Uniform => 0.001 + rng.f64() * 10.0,
            Shape::Lognormal => rng.lognormal(-2.0, 1.0),
            Shape::Bimodal => {
                if rng.chance(0.3) {
                    rng.lognormal(0.7, 0.3)
                } else {
                    rng.lognormal(-3.9, 0.4)
                }
            }
        }
    }
}

/// One seeded case: a sample count in [500, 2000) and the samples.
fn case_samples(shape: Shape, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::for_component(seed, &format!("sketch_props/{shape:?}"));
    let n = 500 + (rng.below(1500) as usize);
    (0..n).map(|_| shape.sample(&mut rng)).collect()
}

#[test]
fn sketch_quantiles_stay_within_relative_error_bound() {
    let mut cases = 0u64;
    for shape in Shape::ALL {
        for seed in 0..SEEDS_PER_SHAPE {
            let samples = case_samples(shape, seed);
            let n = samples.len();
            let mut sketch = QuantileSketch::new();
            for &v in &samples {
                sketch.record(v);
            }
            assert_eq!(sketch.count(), n as u64);
            let mut sorted = samples;
            sorted.sort_by(f64::total_cmp);
            for q in QUANTILES {
                let exact = sorted[(q * (n - 1) as f64).round() as usize];
                let est = sketch.quantile(q);
                let tol = RELATIVE_ERROR * exact.abs() + 1e-9;
                assert!(
                    (est - exact).abs() <= tol,
                    "{shape:?}/seed {seed}: p{q} estimate {est} vs exact {exact} \
                     exceeds the {RELATIVE_ERROR} relative-error bound"
                );
            }
            // Exact aggregates agree with the keep-every-sample view.
            assert_eq!(sketch.min(), sorted[0]);
            assert_eq!(sketch.max(), sorted[n - 1]);
            let mean = sorted.iter().sum::<f64>() / n as f64;
            assert!((sketch.mean() - mean).abs() <= 1e-9 * mean.abs());
            cases += 1;
        }
    }
    assert!(cases >= 500, "property suite shrank to {cases} cases");
}
