//! # skywalker-replica
//!
//! A continuous-batching LLM inference replica simulator — the stand-in for
//! "SGLang on one L4 GPU running Llama-3.1-8B-Instruct" that the paper's
//! evaluation deploys (§5.1).
//!
//! The evaluation's signal comes from four replica-level mechanisms, all of
//! which are modeled here:
//!
//! 1. **Prefill cost scales with uncached prompt tokens** — a 512-token
//!    prompt costs ≈ 300 ms of prefill on the L4 profile (§2.1).
//! 2. **KV memory bounds concurrency** — each running request pins KV
//!    blocks proportional to its token count, limiting a replica to tens of
//!    concurrent requests (§2.3, §3.3).
//! 3. **A pending queue forms when the batch is memory-bound** — the
//!    "pending request" signal that SkyWalker's selective pushing reads
//!    (§3.3).
//! 4. **Prefix-cache hits skip prefill work** — a radix tree over token
//!    sequences with LRU eviction, as in SGLang/vLLM (§2.3).
//!
//! The replica is a pure state machine over virtual time: [`Replica::step`]
//! executes one continuous-batching iteration and reports its duration plus
//! lifecycle events; a driver (discrete-event world or wall-clock thread)
//! schedules successive steps. Nothing here depends on the balancer.
//!
//! The serving loop itself is an open axis: a [`BatchPolicy`] plans each
//! iteration's admission order, prefill chunking, and preemption, and a
//! [`KvEvictor`] picks which unpinned cache state dies under memory
//! pressure. [`Replica::with_engine`] wires both; the defaults
//! ([`FcfsBatch`] + [`LruEvictor`]) reproduce the historical hardcoded
//! engine byte-for-byte. See `docs/replica.md` for the recipe.

mod batch;
mod engine;
mod kvcache;
pub mod radix;
mod request;
mod timing;
mod tokenizer;

pub use batch::{Advance, Completion, Replica, ReplicaStats, StepOutcome};
pub use engine::{
    AdmitOrder, BatchPlan, BatchPolicy, CloneBatchPolicy, EngineSpec, FcfsBatch, PendingView,
    RunningView, StepView,
};
pub use kvcache::{
    CloneKvEvictor, EvictCandidate, KvConfig, KvError, KvEvictor, Lease, LruEvictor, NoEvict,
    PrefixAwareEvictor, PrefixCache, TieredEvictor,
};
pub use request::{Request, RequestId};
pub use timing::GpuProfile;
pub use tokenizer::output_token;

/// What serving phases a replica runs — the disaggregation axis.
///
/// [`ReplicaRole::Colocated`] is the classical engine: the replica that
/// prefills a request also decodes it and owns its KV end to end. The
/// split roles model prefill/decode disaggregation: a
/// [`ReplicaRole::PrefillOnly`] replica runs the prompt phase and emits
/// the first token, then the fabric ships the built KV state to a
/// decode-capable replica at [`GpuProfile::kv_transfer_time`] cost.
/// [`ReplicaRole::DecodeOnly`] replicas accept only those handoffs —
/// the balancer never dispatches fresh requests to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ReplicaRole {
    /// Prefill and decode on the same replica (the pre-role behavior).
    #[default]
    Colocated,
    /// Runs the prompt phase only, handing off for decode.
    PrefillOnly,
    /// Accepts prefill handoffs only; invisible to fresh dispatch.
    DecodeOnly,
}

impl ReplicaRole {
    /// Whether this replica may run the decode phase (i.e. is a valid
    /// handoff target for a prefill-only peer).
    pub fn decodes(self) -> bool {
        self != ReplicaRole::PrefillOnly
    }

    /// Short label used in scenario and digest names.
    pub fn label(self) -> &'static str {
        match self {
            ReplicaRole::Colocated => "colo",
            ReplicaRole::PrefillOnly => "prefill",
            ReplicaRole::DecodeOnly => "decode",
        }
    }
}

/// A dense replica identifier, unique within one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica-{}", self.0)
    }
}
