//! Sweep specification: a grid of named cells crossed with a seed list.
//!
//! A **cell** is one point of an experiment grid — a recipe that, given
//! a derived seed, assembles a [`Scenario`] and the [`FabricConfig`] to
//! run it under (policy factory × traffic source × fleet plan × timing
//! knobs). A [`SweepSpec`] is the grid: every cell crossed with every
//! replicate tag, each crossing seeded independently.
//!
//! # Determinism
//!
//! The seed a recipe receives is [`derive_seed`]`(sweep_seed,
//! cell_label, replicate_tag)` — a pure function of the sweep's root
//! seed and the crossing's identity. Recipes are required to be pure
//! (same seed in, same scenario out) and [`run_scenario`] is
//! deterministic given `(Scenario, FabricConfig)`, so every crossing's
//! result is fixed before any thread runs: worker count and scheduling
//! order cannot change a single bit of the output, only the wall-clock.
//! This is the same variance-isolation discipline as
//! `DetRng::for_component` inside the fabric, lifted one level up.
//!
//! [`run_scenario`]: skywalker::run_scenario

use std::sync::Arc;

use skywalker::{FabricConfig, Scenario};
use skywalker_sim::DetRng;

/// A cell recipe: derived seed in, runnable experiment out.
///
/// Must be pure — the sweep may invoke it from any worker thread, in
/// any order, and (in principle) more than once. Derive all randomness
/// from the seed argument; never read ambient state that differs
/// between invocations.
pub type RecipeFn = dyn Fn(u64) -> (Scenario, FabricConfig) + Send + Sync;

/// The seed handed to `cell_label`'s recipe for `replicate_tag` under
/// `sweep_seed` — a stable, collision-resistant derivation, exposed so
/// tests and serial re-runs can reproduce any single crossing without
/// executing the whole sweep.
pub fn derive_seed(sweep_seed: u64, cell_label: &str, replicate_tag: u64) -> u64 {
    DetRng::for_component(sweep_seed, &format!("lab/{cell_label}/rep-{replicate_tag}")).next_u64()
}

/// One named cell of the grid.
#[derive(Clone)]
pub struct Cell {
    pub(crate) label: String,
    pub(crate) recipe: Arc<RecipeFn>,
}

impl Cell {
    /// The cell's display label (also part of its seed derivation).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Assembles this cell's experiment for one derived seed. A recipe
    /// that wants a trace or a metrics summary attached to its runs sets
    /// `FabricConfig::traced()` / `.telemetry(..)` itself.
    pub fn build(&self, seed: u64) -> (Scenario, FabricConfig) {
        (self.recipe)(seed)
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("label", &self.label).finish()
    }
}

/// A parameter sweep: named cells × replicate tags, executed by
/// [`SweepSpec::run`] on a worker pool with bit-identical results at
/// any worker count.
///
/// Replicate *tags* are opaque labels fed into [`derive_seed`] — by
/// default `0..n` from [`SweepSpec::replicates`], or an explicit list
/// via [`SweepSpec::seeds`] (useful when a paper table names its
/// seeds).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub(crate) label: String,
    pub(crate) sweep_seed: u64,
    pub(crate) replicate_tags: Vec<u64>,
    pub(crate) cells: Vec<Cell>,
}

impl SweepSpec {
    /// An empty sweep with a display label and a root seed. One
    /// replicate (tag 0) until configured otherwise.
    pub fn new(label: impl Into<String>, sweep_seed: u64) -> Self {
        SweepSpec {
            label: label.into(),
            sweep_seed,
            replicate_tags: vec![0],
            cells: Vec::new(),
        }
    }

    /// Runs every cell under replicate tags `0..n` (clamped to ≥ 1).
    pub fn replicates(mut self, n: u32) -> Self {
        self.replicate_tags = (0..u64::from(n.max(1))).collect();
        self
    }

    /// Runs every cell once per explicit tag. Duplicate tags would
    /// silently run identical crossings; they are debug-asserted
    /// against.
    pub fn seeds(mut self, tags: Vec<u64>) -> Self {
        debug_assert!(
            {
                let mut t = tags.clone();
                t.sort_unstable();
                t.dedup();
                t.len() == tags.len()
            },
            "duplicate replicate tags run identical crossings"
        );
        if !tags.is_empty() {
            self.replicate_tags = tags;
        }
        self
    }

    /// Appends one cell. Labels must be unique — they are both the
    /// lookup key ([`SweepResult::cell`](crate::SweepResult::cell)) and
    /// part of the seed derivation (two cells sharing a label would
    /// also share per-replicate seeds and run identical crossings
    /// twice); duplicates are debug-asserted against.
    pub fn cell(
        mut self,
        label: impl Into<String>,
        recipe: impl Fn(u64) -> (Scenario, FabricConfig) + Send + Sync + 'static,
    ) -> Self {
        let label = label.into();
        debug_assert!(
            !self.cells.iter().any(|c| c.label == label),
            "duplicate cell label {label:?} would share seeds and shadow lookups"
        );
        self.cells.push(Cell {
            label,
            recipe: Arc::new(recipe),
        });
        self
    }

    /// The sweep's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The root seed of the sweep.
    pub fn sweep_seed(&self) -> u64 {
        self.sweep_seed
    }

    /// Total crossings (cells × replicates) the sweep will execute.
    pub fn total_runs(&self) -> usize {
        self.cells.len() * self.replicate_tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker::{balanced_fleet, Workload};

    fn tiny_recipe(seed: u64) -> (Scenario, FabricConfig) {
        let cfg = FabricConfig {
            seed,
            ..FabricConfig::default()
        };
        (
            Scenario::builder()
                .replicas(balanced_fleet())
                .workload(Workload::Tot, 0.02, seed)
                .build()
                .expect("fleet and workload are set"),
            cfg,
        )
    }

    #[test]
    fn derive_seed_is_stable_and_distinct() {
        let a = derive_seed(7, "cell-a", 0);
        assert_eq!(a, derive_seed(7, "cell-a", 0), "pure function");
        assert_ne!(a, derive_seed(7, "cell-a", 1), "replicates differ");
        assert_ne!(a, derive_seed(7, "cell-b", 0), "cells differ");
        assert_ne!(a, derive_seed(8, "cell-a", 0), "sweep seeds differ");
    }

    #[test]
    fn spec_counts_cross_product() {
        let spec = SweepSpec::new("t", 1)
            .replicates(3)
            .cell("a", tiny_recipe)
            .cell("b", tiny_recipe);
        assert_eq!(spec.cells.len(), 2);
        assert_eq!(spec.replicate_tags.len(), 3);
        assert_eq!(spec.total_runs(), 6);
        assert_eq!(spec.label(), "t");
        assert_eq!(spec.sweep_seed(), 1);
    }

    #[test]
    fn explicit_seed_tags_respected() {
        let spec = SweepSpec::new("t", 1).seeds(vec![11, 22]);
        assert_eq!(spec.replicate_tags, vec![11, 22]);
        // Empty list keeps the default single replicate.
        let spec = SweepSpec::new("t", 1).seeds(vec![]);
        assert_eq!(spec.replicate_tags, vec![0]);
    }

    #[test]
    fn replicates_clamped_to_one() {
        let spec = SweepSpec::new("t", 1).replicates(0);
        assert_eq!(spec.replicate_tags, vec![0]);
    }

    #[test]
    fn cell_builds_scenarios() {
        let spec = SweepSpec::new("t", 1).cell("a", tiny_recipe);
        let (scenario, cfg) = spec.cells[0].build(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(scenario.replicas.len(), 12);
        assert_eq!(spec.cells[0].label(), "a");
    }
}
