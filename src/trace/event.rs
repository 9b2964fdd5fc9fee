//! The span-event vocabulary the fabric emits.
//!
//! Every event is one timestamped lifecycle milestone of a request (or a
//! replica-level annotation), identified by primitive ids — `u64` request
//! ids and `u32` balancer/replica indices — so the tracer never needs
//! the fabric's types to describe what the fabric did.

use skywalker_sim::SimTime;

/// One recorded span event: an instant plus what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The milestone vocabulary. Per-request kinds carry the request id and
/// form each request's timeline; [`ReplicaStall`](TraceEventKind::ReplicaStall)
/// and [`Evicted`](TraceEventKind::Evicted) annotate replicas and refine
/// the attribution of waiting requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The client sent (or re-sent) the request toward DNS/balancers.
    Issued {
        /// Request id.
        req: u64,
    },
    /// The request was parked for a retry (dead balancer, DNS outage,
    /// lost queue); the next [`Issued`](TraceEventKind::Issued) ends the
    /// backoff.
    RetryWait {
        /// Request id.
        req: u64,
    },
    /// A live balancer accepted the request into its queue.
    LbQueued {
        /// Request id.
        req: u64,
        /// Balancer index.
        lb: u32,
        /// LB-to-LB forwards already taken (0 = first balancer).
        hops: u8,
    },
    /// The balancer dispatched the request to a local replica.
    Dispatched {
        /// Request id.
        req: u64,
        /// Dispatching balancer index.
        lb: u32,
        /// Target replica index.
        replica: u32,
    },
    /// The balancer pushed the request to a peer balancer.
    Forwarded {
        /// Request id.
        req: u64,
        /// Forwarding balancer index.
        from: u32,
    },
    /// The request arrived in a replica's pending queue.
    ReplicaQueued {
        /// Request id.
        req: u64,
        /// Replica index.
        replica: u32,
    },
    /// The batch policy admitted the request into the running batch.
    Admitted {
        /// Request id.
        req: u64,
        /// Replica index.
        replica: u32,
    },
    /// The batch policy preempted the running request back to pending
    /// (its generated output was discarded).
    Preempted {
        /// Request id.
        req: u64,
        /// Replica index.
        replica: u32,
    },
    /// Prefill finished: the replica produced the first output token.
    /// A preempted request produces this again after re-admission.
    FirstToken {
        /// Request id.
        req: u64,
        /// Replica index.
        replica: u32,
    },
    /// The replica finished generating the full response.
    ReplicaDone {
        /// Request id.
        req: u64,
        /// Replica index.
        replica: u32,
    },
    /// A disaggregated handoff started: the prefill replica finished
    /// the prompt phase and began shipping the request's KV state to a
    /// decode replica. The next
    /// [`ReplicaQueued`](TraceEventKind::ReplicaQueued) on this request
    /// marks the transfer landing, so the interval between them is the
    /// modeled KV-transfer time.
    KvTransfer {
        /// Request id.
        req: u64,
        /// Prefill (sending) replica index.
        from: u32,
        /// Decode (receiving) replica index.
        to: u32,
        /// KV tokens shipped (prompt + first token).
        tokens: u64,
    },
    /// The first output token reached the client (the TTFT instant).
    /// This leg runs in parallel with decoding, so it is *not* part of
    /// the end-to-end main chain.
    FirstTokenDelivered {
        /// Request id.
        req: u64,
    },
    /// The full response reached the client (the end-to-end instant).
    Delivered {
        /// Request id.
        req: u64,
    },
    /// The request terminally failed (rejected, or out of reroutes).
    Failed {
        /// Request id.
        req: u64,
    },
    /// The replica spent one whole iteration unable to admit anything
    /// while work was pending — a KV-memory stall. Pending requests
    /// waiting on this replica during `[at, until)` are stalled on
    /// memory, not on compute.
    ReplicaStall {
        /// Replica index.
        replica: u32,
        /// When the stalled iteration ends.
        until: SimTime,
    },
    /// The replica's cache evicted prefix state under memory pressure.
    Evicted {
        /// Replica index.
        replica: u32,
        /// Block-rounded KV tokens reclaimed.
        tokens: u64,
    },
}

impl TraceEventKind {
    /// The request this event belongs to, or `None` for replica-level
    /// annotations.
    pub fn request(&self) -> Option<u64> {
        use TraceEventKind::*;
        match *self {
            Issued { req }
            | RetryWait { req }
            | LbQueued { req, .. }
            | Dispatched { req, .. }
            | Forwarded { req, .. }
            | ReplicaQueued { req, .. }
            | Admitted { req, .. }
            | Preempted { req, .. }
            | FirstToken { req, .. }
            | ReplicaDone { req, .. }
            | KvTransfer { req, .. }
            | FirstTokenDelivered { req }
            | Delivered { req }
            | Failed { req } => Some(req),
            ReplicaStall { .. } | Evicted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_extraction() {
        assert_eq!(TraceEventKind::Issued { req: 7 }.request(), Some(7));
        assert_eq!(
            TraceEventKind::Dispatched {
                req: 9,
                lb: 0,
                replica: 1
            }
            .request(),
            Some(9)
        );
        assert_eq!(
            TraceEventKind::ReplicaStall {
                replica: 0,
                until: SimTime::ZERO
            }
            .request(),
            None
        );
        assert_eq!(
            TraceEventKind::Evicted {
                replica: 0,
                tokens: 64
            }
            .request(),
            None
        );
    }
}
