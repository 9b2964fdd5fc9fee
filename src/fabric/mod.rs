//! The multi-region deployment fabric: a discrete-event simulation wiring
//! clients, DNS, load balancers, the wide-area network, replicas, and the
//! controller into one reproducible world.
//!
//! This is the substrate on which every end-to-end experiment of the
//! paper runs (§5): the same `RegionalBalancer` / `Replica` state
//! machines the live TCP mode uses, driven here by a virtual clock. One
//! [`Scenario`] describes a deployment (which system, where the replicas
//! are, who the clients are, what the fleet plan does); [`run_scenario`]
//! plays it out and returns a [`RunSummary`] with the paper's metrics:
//! service throughput, TTFT and end-to-end latency distributions,
//! KV-cache hit rate, and load-balance diagnostics.
//!
//! The tree is split by layer: `scenario` (what to run), `config` (how),
//! `summary` (what came out), `run` (build → play → summarize),
//! `observers` (tracker + tracer + telemetry behind one seam), and
//! `world`, whose event loop dispatches to one module per layer —
//! client, lb, replica, disagg, fleet, ticks.

mod config;
mod observers;
mod run;
mod scenario;
mod summary;
mod world;

pub use config::FabricConfig;
pub use run::run_scenario;
pub use scenario::{
    Deployment, ReplicaPlacement, Scenario, ScenarioBuilder, ScenarioError, SystemKind,
};
pub use summary::{FleetSummary, RunSummary, TransferSummary};
