//! # skywalker-lab
//!
//! The parallel experiment lab: deterministic multi-threaded parameter
//! sweeps over SkyWalker scenarios.
//!
//! PRs 1–3 opened the three experiment axes — routing policies, traffic
//! sources, fleet plans — but every run still executed one at a time.
//! Reproducing a paper-style figure is a *grid*: policy × workload ×
//! fleet × seed, dozens of cells, minutes of serial wall-clock. The lab
//! is the multiplier: describe the grid once as a [`SweepSpec`], and
//! [`SweepSpec::run`] fans it across OS threads while guaranteeing the
//! results are **bit-identical at any worker count**.
//!
//! That guarantee is by construction, not by locking discipline:
//!
//! 1. every crossing's seed is [`derive_seed`]`(sweep_seed, cell_label,
//!    replicate_tag)` — fixed before any thread starts;
//! 2. cell recipes are pure functions of that seed, and
//!    [`run_scenario`](skywalker::run_scenario) is deterministic given
//!    `(Scenario, FabricConfig)`;
//! 3. results land in slots pre-assigned by grid position, so assembly
//!    order never depends on completion order.
//!
//! Threads therefore only change the wall-clock. The thread-invariance
//! tests pin this: one [`SweepSpec`] run with 1, 2, and 8 workers must
//! serialize to byte-identical [`SweepReport`] JSON.
//!
//! ## Example
//!
//! A two-cell comparison (SkyWalker vs round robin), two seeds each,
//! executed on two workers:
//!
//! ```
//! use skywalker::{balanced_fleet, FabricConfig, Scenario, SystemKind, Workload};
//! use skywalker_lab::SweepSpec;
//!
//! let cell = |system: SystemKind| {
//!     move |seed: u64| {
//!         let cfg = FabricConfig { seed, ..FabricConfig::default() };
//!         let scenario = system
//!             .builder()
//!             .replicas(balanced_fleet())
//!             .workload(Workload::Tot, 0.02, seed)
//!             .build()
//!             .expect("fleet and workload are set");
//!         (scenario, cfg)
//!     }
//! };
//! let spec = SweepSpec::new("demo", 7)
//!     .replicates(2)
//!     .cell("skywalker", cell(SystemKind::SkyWalker))
//!     .cell("round-robin", cell(SystemKind::RoundRobin));
//!
//! let result = spec.run(2);
//! assert_eq!(result.total_runs(), 4);
//! let sky = result.cell("skywalker").expect("cell ran");
//! assert!(sky.stats.throughput_tps.mean > 0.0);
//! // Worker count is pure wall-clock: same bytes on one thread.
//! assert_eq!(
//!     result.report().json_string(),
//!     spec.run(1).report().json_string(),
//! );
//! println!("{}", result.report().markdown());
//! ```
//!
//! ## Relation to the rest of the workspace
//!
//! The lab sits *above* the facade crate (it consumes [`Scenario`] and
//! [`run_scenario`](skywalker::run_scenario)), so `skywalker` itself cannot re-export it — add
//! `skywalker-lab` as its own dependency. `skywalker::scenarios`
//! provides the presets and `skywalker::recipe`, which shapes any of
//! them for [`SweepSpec::cell`]; the paper-claims table
//! (`tests/paper_claims.rs`) runs all of its simulated cells as one
//! sweep on the lab.
//!
//! [`Scenario`]: skywalker::Scenario

mod exec;
mod report;
mod spec;
mod stats;

pub use exec::{CellResult, ReplicateRun, SweepResult};
pub use report::SweepReport;
pub use spec::{derive_seed, Cell, RecipeFn, SweepSpec};
pub use stats::CellStats;
