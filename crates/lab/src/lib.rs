//! # skywalker-lab
//!
//! The parallel experiment lab: a list of labelled scenario recipes,
//! run on a pool of OS threads, one [`RunSummary`] back per cell in the
//! order the cells were added — **bit-identical at any worker count**.
//!
//! That guarantee is by construction, not by locking discipline:
//!
//! 1. a recipe takes no arguments — whatever seed it runs under is
//!    captured when the cell is added, before any thread starts;
//! 2. recipes are pure, and [`run_scenario`](skywalker::run_scenario)
//!    is deterministic given `(Scenario, FabricConfig)`;
//! 3. each result lands in the slot of its cell's position, so assembly
//!    order never depends on completion order.
//!
//! Threads therefore only change the wall-clock. The thread-invariance
//! tests pin this: every run's full [`RunSummary::digest_fields`] is the
//! same at 1, 2 and 8 workers, and the same as a serial `run_scenario`.
//!
//! ## Example
//!
//! SkyWalker against round robin on the same two seeds, on two workers:
//!
//! ```
//! use skywalker::{fig8_scenario, recipe, SystemKind, Workload};
//! use skywalker_lab::SweepSpec;
//!
//! let mut spec = SweepSpec::new();
//! for system in [SystemKind::SkyWalker, SystemKind::RoundRobin] {
//!     let cell = recipe(move |seed| fig8_scenario(system, Workload::Tot, 0.02, seed));
//!     for seed in [1, 2] {
//!         let cell = cell.clone();
//!         spec = spec.cell(format!("{system:?}@{seed}"), move || cell(seed));
//!     }
//! }
//!
//! let result = spec.run(2);
//! assert_eq!(result.cells.len(), 4);
//! let sky = result.cell("SkyWalker@1").expect("cell ran");
//! assert!(sky.report.throughput_tps > 0.0);
//! ```
//!
//! ## Relation to the rest of the workspace
//!
//! The lab sits *above* the facade crate (it consumes [`Scenario`] and
//! [`run_scenario`](skywalker::run_scenario)), so `skywalker` itself
//! cannot re-export it — add `skywalker-lab` as its own dependency.
//! `skywalker::recipe` shapes any preset for a seed; the paper-claims
//! table (`tests/paper_claims.rs`) runs all of its simulated cells as
//! one sweep on the lab.

use skywalker::{FabricConfig, RunSummary, Scenario};

mod exec;

/// A cell recipe: a runnable experiment, seed and all. Must be pure —
/// the sweep may invoke it from any worker thread, in any order.
type RecipeFn = dyn Fn() -> (Scenario, FabricConfig) + Send + Sync;

/// A list of labelled recipes, executed by [`SweepSpec::run`].
#[derive(Default)]
pub struct SweepSpec {
    cells: Vec<(String, Box<RecipeFn>)>,
}

impl SweepSpec {
    /// An empty sweep.
    pub fn new() -> Self {
        SweepSpec::default()
    }

    /// Appends one cell. Labels must be unique — they are the lookup key
    /// of [`SweepResult::cell`]; duplicates are debug-asserted against.
    pub fn cell(
        mut self,
        label: impl Into<String>,
        recipe: impl Fn() -> (Scenario, FabricConfig) + Send + Sync + 'static,
    ) -> Self {
        let label = label.into();
        debug_assert!(
            self.cells.iter().all(|(l, _)| *l != label),
            "duplicate cell label {label:?} would shadow lookups"
        );
        self.cells.push((label, Box::new(recipe)));
        self
    }
}

/// The executed sweep: one `(label, summary)` per cell, in spec order.
#[derive(Debug)]
pub struct SweepResult {
    /// Per-cell results, in the order the cells were added.
    pub cells: Vec<(String, RunSummary)>,
}

impl SweepResult {
    /// The run of one cell by label.
    pub fn cell(&self, label: &str) -> Option<&RunSummary> {
        self.cells.iter().find(|(l, _)| l == label).map(|(_, s)| s)
    }
}
