//! The fleet-change vocabulary.
//!
//! A [`FleetEvent`] is one atomic change to the deployed fleet; a
//! [`FleetCommand`] stamps it with the instant it takes effect. Plans
//! (see [`crate::FleetPlan`]) emit commands, the deployment fabric
//! applies them:
//!
//! - [`FleetEvent::ReplicaJoin`] provisions a fresh replica (empty KV
//!   cache) in a region and registers it with that region's balancer
//!   and the controller.
//! - [`FleetEvent::ReplicaDrain`] stops new dispatch to a replica but
//!   lets in-flight work finish; the replica retires once idle.
//! - [`FleetEvent::ReplicaCrash`] kills a replica instantly: every
//!   in-flight request is rerouted once, and counted failed if a
//!   reroute already burned its second chance.
//! - [`FleetEvent::LbDown`] / [`FleetEvent::LbUp`] are the §4.2
//!   balancer failure drills.

use skywalker_net::Region;
use skywalker_replica::{GpuProfile, ReplicaId};
use skywalker_sim::SimTime;

/// One atomic change to the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// Provision a fresh replica in `region`. It starts with an empty
    /// prefix cache and attaches to the balancer serving that region
    /// (the nearest one, if the region has no balancer of its own).
    ReplicaJoin {
        /// Region the new replica serves from.
        region: Region,
        /// GPU/model profile of the new replica.
        profile: GpuProfile,
    },
    /// Gracefully decommission a replica: no new dispatch, in-flight
    /// work finishes. Draining an already-draining, crashed, or unknown
    /// replica is a no-op.
    ReplicaDrain {
        /// The replica to retire.
        replica: ReplicaId,
    },
    /// Kill a replica instantly, failing its in-flight work. Crashing
    /// an already-crashed or retired replica is a no-op.
    ReplicaCrash {
        /// The replica to kill.
        replica: ReplicaId,
    },
    /// Take a balancer down (by creation index) — the §4.2 drill.
    LbDown {
        /// Index of the balancer, in creation order.
        lb: u32,
    },
    /// Bring a downed balancer back.
    LbUp {
        /// Index of the balancer, in creation order.
        lb: u32,
    },
}

/// A [`FleetEvent`] scheduled to take effect at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetCommand {
    /// When the change takes effect (instants in the past are applied
    /// immediately).
    pub at: SimTime,
    /// The change.
    pub event: FleetEvent,
}

impl FleetCommand {
    /// A command taking effect at `at`.
    pub fn new(at: SimTime, event: FleetEvent) -> Self {
        FleetCommand { at, event }
    }
}
