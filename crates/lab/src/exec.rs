//! Sweep execution: a `std::thread` worker pool over the cell list.
//!
//! Workers claim cells through one shared atomic cursor and hand back
//! `(index, summary)` pairs; each summary is then put in its cell's
//! slot, so the assembled [`SweepResult`] is ordered by the spec, never
//! by completion order. Combined with seedless recipes (every cell's
//! inputs are fixed up front), this makes the result bit-identical at
//! any worker count — the pool only decides how fast the list fills in,
//! not what it fills in with.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use skywalker::{run_scenario, RunSummary};

use crate::{SweepResult, SweepSpec};

impl SweepSpec {
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
