//! Selective pushing (§3.3): when may the balancer hand a replica more
//! work?
//!
//! Three admission disciplines are compared in the paper (Fig. 9):
//!
//! - **Blind pushing (BP)** — route every request to a replica
//!   immediately on arrival. Simple, but long-running requests pile up
//!   behind unpredictable ones and replicas diverge wildly in load.
//! - **Selective pushing on outstanding requests (SP-O)** — cap the
//!   number of requests in flight per replica at a fixed threshold. A
//!   poor fit for LLMs: the *memory* a replica can host varies 20–50
//!   requests depending on lengths, so any fixed cap is wrong most of the
//!   time.
//! - **Selective pushing on pending requests (SP-P, SkyWalker)** — push
//!   only to replicas whose continuous batch still admits work, i.e.
//!   whose pending queue is empty. The replica itself knows whether it is
//!   memory-bound; its pending queue is the distilled signal.

use skywalker_net::Region;
use skywalker_replica::ReplicaId;

/// Maximum requests SP-P pushes to one replica between two probes.
///
/// Probe results are stale for up to one probe interval; without a burst
/// cap, a queue drain between probes would dump everything onto the one
/// replica whose last probe said "pending = 0". This is the replica-side
/// analogue of the τ queue buffer on the LB-to-LB path (Alg. 1 line 11:
/// "small buffer for newly arriving requests").
const PROBE_WINDOW_BURST: u32 = 8;

/// Everything one balancer knows about one replica it manages: where
/// it is, the view heartbeat probes refresh (Alg. 1,
/// `MonitorAvailability`), and what this balancer has sent it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaState {
    /// The replica.
    pub id: ReplicaId,
    /// Region the replica actually serves — distinct from the
    /// balancer's own for centralized deployments fronting a
    /// multi-region fleet and for re-homed replicas held on behalf of a
    /// dead peer.
    pub region: Region,
    /// Requests this balancer has dispatched and not yet seen complete.
    pub outstanding: u32,
    /// Pending-queue depth from the last probe.
    pub pending: u32,
    /// Running-batch size from the last probe.
    pub running: u32,
    /// KV utilization from the last probe, 0–1.
    pub kv_utilization: f64,
    /// Requests dispatched since the last probe refreshed this view.
    pub dispatched_since_probe: u32,
    /// Requests this balancer ever dispatched to the replica
    /// (load-imbalance analysis).
    pub dispatched: u64,
}

impl ReplicaState {
    /// A fresh, empty view of a replica serving from `region`.
    pub fn new(id: ReplicaId, region: Region) -> Self {
        ReplicaState {
            id,
            region,
            outstanding: 0,
            pending: 0,
            running: 0,
            kv_utilization: 0.0,
            dispatched_since_probe: 0,
            dispatched: 0,
        }
    }

    /// Ingests one heartbeat probe (Alg. 1 lines 3–8).
    pub(crate) fn refresh(&mut self, pending: u32, running: u32, kv_utilization: f64) {
        self.pending = pending;
        self.running = running;
        self.kv_utilization = kv_utilization;
        self.dispatched_since_probe = 0;
    }
}

/// The admission discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushMode {
    /// Push immediately, always (BP).
    Blind,
    /// Push while outstanding < max (SP-O).
    Outstanding {
        /// Fixed per-replica cap on in-flight requests.
        max: u32,
    },
    /// Push while the replica reports an empty pending queue (SP-P).
    Pending,
}

impl PushMode {
    /// Whether `replica` may receive another request right now. (A
    /// replica that is gone is removed from the balancer, not flagged.)
    pub fn replica_available(&self, replica: &ReplicaState) -> bool {
        match self {
            PushMode::Blind => true,
            PushMode::Outstanding { max } => replica.outstanding < *max,
            PushMode::Pending => {
                replica.pending == 0 && replica.dispatched_since_probe < PROBE_WINDOW_BURST
            }
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PushMode::Blind => "BP",
            PushMode::Outstanding { .. } => "SP-O",
            PushMode::Pending => "SP-P",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(outstanding: u32, pending: u32) -> ReplicaState {
        ReplicaState {
            outstanding,
            pending,
            ..ReplicaState::new(ReplicaId(0), Region::UsEast)
        }
    }

    #[test]
    fn blind_always_pushes() {
        let m = PushMode::Blind;
        assert!(m.replica_available(&replica(1000, 50)));
    }

    #[test]
    fn outstanding_caps_in_flight() {
        let m = PushMode::Outstanding { max: 3 };
        assert!(m.replica_available(&replica(2, 9)));
        assert!(!m.replica_available(&replica(3, 0)));
    }

    #[test]
    fn pending_reads_the_replica_signal() {
        let m = PushMode::Pending;
        // High outstanding is fine as long as the batch still admits.
        assert!(m.replica_available(&replica(40, 0)));
        // A single pending request means the batch is full.
        assert!(!m.replica_available(&replica(2, 1)));
    }

    #[test]
    fn labels() {
        assert_eq!(PushMode::Blind.label(), "BP");
        assert_eq!(PushMode::Outstanding { max: 1 }.label(), "SP-O");
        assert_eq!(PushMode::Pending.label(), "SP-P");
    }
}
