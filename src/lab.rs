//! The parallel experiment lab: a list of labelled scenario recipes,
//! run on a pool of OS threads, one [`RunSummary`] back per cell in the
//! order the cells were added — **bit-identical at any worker count**.
//!
//! That guarantee is by construction, not by locking discipline:
//!
//! 1. a recipe takes no arguments — whatever seed it runs under is
//!    captured when the cell is added, before any thread starts;
//! 2. recipes are pure, and [`run_scenario`] is deterministic given
//!    `(Scenario, FabricConfig)`;
//! 3. workers claim cells through one shared atomic cursor, and each
//!    result lands in the slot of its cell's position, so assembly order
//!    never depends on completion order.
//!
//! Threads therefore only change the wall-clock.
//! `tests/determinism_double_run.rs` pins this: every run's full
//! [`RunSummary::digest_fields`] is the same at 1, 2 and 8 workers, and
//! the same as a serial `run_scenario`. This file is the one place under
//! `src/` that may start threads (lint rule D04, `docs/determinism.md`).
//! The paper-claims table (`tests/paper_claims.rs`) runs all of its
//! simulated cells as one sweep.
//!
//! ## Example
//!
//! SkyWalker against round robin on the same two seeds, on two workers:
//!
//! ```
//! use skywalker::lab::SweepSpec;
//! use skywalker::{fig8_scenario, recipe, SystemKind, Workload};
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

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{run_scenario, FabricConfig, RunSummary, Scenario};

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

    /// Appends one cell. Labels are the lookup key of
    /// [`SweepResult::cell`]; a duplicate panics.
    pub fn cell(
        mut self,
        label: impl Into<String>,
        recipe: impl Fn() -> (Scenario, FabricConfig) + Send + Sync + 'static,
    ) -> Self {
        let label = label.into();
        assert!(
            self.cells.iter().all(|(l, _)| *l != label),
            "duplicate cell label {label:?} would shadow lookups"
        );
        self.cells.push((label, Box::new(recipe)));
        self
    }

    /// Executes every cell on `workers` OS threads (clamped to
    /// `1..=cells`) and returns the results in spec order.
    ///
    /// The returned summaries are bit-identical for any `workers` value
    /// — parallelism is pure wall-clock. A panicking recipe or run
    /// reaches the caller with its own payload once every worker has
    /// stopped.
    pub fn run(&self, workers: usize) -> SweepResult {
        let workers = workers.clamp(1, self.cells.len().max(1));
        let mut slots: Vec<Option<RunSummary>> = self.cells.iter().map(|_| None).collect();
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                // Relaxed: the cursor publishes no data (the summaries
                // come back through `join`); `fetch_add` alone makes each
                // index claimed once.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((_, recipe)) = self.cells.get(i) else {
                    return done;
                };
                let (scenario, cfg) = recipe();
                done.push((i, run_scenario(&scenario, &cfg)));
            }
        };
        std::thread::scope(|scope| {
            let pool: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            for worker in pool {
                match worker.join() {
                    Ok(done) => done.into_iter().for_each(|(i, s)| slots[i] = Some(s)),
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        let labels = self.cells.iter().map(|(label, _)| label.clone());
        let summaries = slots
            .into_iter()
            .map(|s| s.expect("every cell is claimed once"));
        SweepResult {
            cells: labels.zip(summaries).collect(),
        }
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
