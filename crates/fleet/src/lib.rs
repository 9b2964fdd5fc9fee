//! # skywalker-fleet
//!
//! The elastic fleet control plane: the third open axis of the
//! simulator, alongside routing policies (`RoutingPolicy`) and traffic
//! (`TrafficSource`).
//!
//! The paper's central observation (Fig. 2, Fig. 3a) is that per-region
//! demand swings 2.88–32.64× over a day while the aggregate stays
//! nearly flat — which only matters if the *fleet* can change while the
//! system runs. This crate opens that axis:
//!
//! - [`FleetEvent`] / [`FleetCommand`]: the vocabulary of fleet changes
//!   (replica join / drain / crash, balancer down / up).
//! - [`FleetObservation`]: the per-poll snapshot reactive plans read
//!   (per-region live counts, balancer queues, outstanding load, KV
//!   pressure).
//! - [`FleetPlan`]: the streaming trait the deployment fabric polls as
//!   simulated time advances, exactly like a `TrafficSource`.
//!
//! Three built-ins cover the common regimes, all with equal standing to
//! anything implemented outside this crate:
//!
//! - [`ScheduledPlan`] — a fixed schedule (the §4.2 balancer drills,
//!   scripted joins and drains).
//! - [`ChaosPlan`] — seeded MTBF/MTTR replica churn.
//! - [`ThresholdAutoscaler`] — reactive per-region scale-out/in with
//!   bounds and cooldown.
//!
//! [`MergePlan`] composes plans (e.g. a scripted drill riding alongside
//! an autoscaler). See `docs/fleet.md` for the extension recipe.

mod autoscaler;
mod chaos;
mod event;
mod observe;
mod plan;

pub use autoscaler::{AutoscalerConfig, ThresholdAutoscaler};
pub use chaos::{ChaosConfig, ChaosPlan};
pub use event::{FleetCommand, FleetEvent};
pub use observe::{FleetObservation, LbObservation, ProvisionLedger, ReplicaObservation};
pub use plan::{CloneFleetPlan, FleetPlan, MergePlan, ScheduledPlan};
