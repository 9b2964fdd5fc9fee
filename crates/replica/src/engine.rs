//! The open serving-engine surface: batch scheduling and KV eviction as
//! pluggable policies.
//!
//! PRs 1–3 opened routing (`RoutingPolicy`), traffic (`TrafficSource`),
//! and the fleet (`FleetPlan`); this module opens the fourth axis — the
//! replica's serving loop itself. A [`BatchPolicy`] decides, each
//! continuous-batching iteration, *which pending requests join the
//! running batch* (admission order and whether head-of-line blocking
//! applies), *whether prefill is chunked* and at what chunk size, and
//! *whether running decodes are preempted* under KV pressure. A
//! [`KvEvictor`](crate::KvEvictor) decides which unpinned radix-tree
//! state dies when the prefix cache needs room.
//!
//! The mechanics stay in [`Replica`](crate::Replica): fit checks,
//! lease accounting, and timing are not policy business, so no policy
//! can oversubscribe memory or corrupt accounting — it only reorders
//! and throttles. The default engine ([`FcfsBatch`] +
//! [`LruEvictor`](crate::LruEvictor)) reproduces the historical
//! hardcoded loop byte-for-byte, pinned by
//! `tests/engine_parity.rs`.

use std::fmt;

use crate::kvcache::{KvEvictor, LruEvictor};
use crate::request::RequestId;

/// One pending request, as batch policies see it. The target output
/// length is *visible to the engine* (the engine owns the request and
/// models the decode loop) even though it is hidden from balancers —
/// an SJF-style policy may exploit prompt length, which a real engine
/// also knows at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// The request's id.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output tokens the request will generate (≥ 1 after clamping).
    pub target_output_tokens: u32,
}

/// One running request, as batch policies see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningView {
    /// The request's id.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Tokens generated so far.
    pub generated: u32,
    /// Output length this request will reach.
    pub target: u32,
    /// Uncached prompt tokens still awaiting prefill (nonzero only
    /// mid-chunked-prefill).
    pub prefill_remaining: u64,
}

/// Everything a [`BatchPolicy`] may read when planning one iteration.
#[derive(Debug, Clone, Copy)]
pub struct StepView<'a> {
    /// The pending queue, in arrival order.
    pub pending: &'a [PendingView],
    /// The running batch, in admission order.
    pub running: &'a [RunningView],
    /// Total KV capacity in tokens.
    pub kv_capacity: u64,
    /// Tokens currently resident in the prefix cache (block-rounded).
    pub kv_used: u64,
    /// Tokens eviction could reclaim right now.
    pub kv_reclaimable: u64,
    /// Tokens committed against capacity: unreclaimable cache state
    /// plus private decode tokens plus outstanding output reservations.
    /// `kv_committed / kv_capacity` is the pressure signal preemptive
    /// policies read.
    pub kv_committed: u64,
    /// The profile's batch-size ceiling.
    pub max_batch: u32,
}

impl StepView<'_> {
    /// Committed fraction of capacity, in `[0, 1]` (1 when capacity is
    /// zero).
    pub fn kv_pressure(&self) -> f64 {
        if self.kv_capacity == 0 {
            return 1.0;
        }
        (self.kv_committed as f64 / self.kv_capacity as f64).min(1.0)
    }
}

/// A batch policy's plan for one iteration. The replica sanitizes it:
/// out-of-range or duplicate indices are ignored, admission still
/// respects the memory fit check and the batch-size ceiling, and
/// preempted work is requeued — a plan can reorder and throttle, never
/// corrupt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchPlan {
    /// Pending requests to *try* admitting, in order.
    pub admit_order: AdmitOrder,
    /// What a failed fit check does: `false` stops admission at the
    /// first candidate that does not fit (FCFS head-of-line blocking —
    /// no starvation), `true` skips it and keeps trying later
    /// candidates (better packing, starvation is the policy's
    /// responsibility).
    pub skip_unfit: bool,
    /// Prefill at most this many uncached prompt tokens per request per
    /// iteration (clamped to ≥ 1). `None` prefills each admitted prompt
    /// in full in its admission iteration — the historical behavior.
    pub prefill_chunk: Option<u32>,
    /// Running-batch indices to preempt before admission: their decode
    /// stops, generated output is discarded, leases are released, and
    /// the requests return to the *front* of the pending queue. Indices
    /// refer to [`StepView::running`].
    pub preempt: Vec<usize>,
}

impl BatchPlan {
    /// The historical plan: admit in arrival order, stop at the first
    /// misfit, full prefill, no preemption. It holds no vector, so
    /// planning it allocates nothing.
    pub fn fcfs() -> Self {
        BatchPlan {
            admit_order: AdmitOrder::Fcfs,
            skip_unfit: false,
            prefill_chunk: None,
            preempt: Vec::new(),
        }
    }
}

/// Which pending requests a [`BatchPlan`] offers for admission, and in
/// what order. The default offers none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOrder {
    /// The whole pending queue, in arrival order.
    Fcfs,
    /// These indices into [`StepView::pending`], in this order.
    Indices(Vec<usize>),
}

impl Default for AdmitOrder {
    fn default() -> Self {
        AdmitOrder::Indices(Vec::new())
    }
}

impl AdmitOrder {
    /// The pending-queue indices offered, in order, for a queue
    /// `pending_len` long.
    pub fn indices(&self, pending_len: usize) -> impl Iterator<Item = usize> + '_ {
        let (arrival, listed) = match self {
            AdmitOrder::Fcfs => (0..pending_len, &[][..]),
            AdmitOrder::Indices(idxs) => (0..0, idxs.as_slice()),
        };
        arrival.chain(listed.iter().copied())
    }
}

/// Object-safe cloning for boxed batch policies, blanket-implemented
/// for every `Clone` policy — implementors only need `#[derive(Clone)]`.
pub trait CloneBatchPolicy {
    /// Clones the policy behind a fresh box.
    fn clone_box(&self) -> Box<dyn BatchPolicy>;
}

impl<T: BatchPolicy + Clone + 'static> CloneBatchPolicy for T {
    fn clone_box(&self) -> Box<dyn BatchPolicy> {
        Box::new(self.clone())
    }
}

/// The open admission/scheduling policy of the continuous-batching
/// loop — the serving-engine counterpart of `RoutingPolicy`,
/// `TrafficSource`, and `FleetPlan`. Called once per
/// [`Replica::step`](crate::Replica::step) with a read-only view;
/// returns a [`BatchPlan`].
///
/// Implementations may keep state (the `&mut self`), but determinism
/// rules apply as everywhere in the workspace: derive any randomness
/// from seeds owned by the policy, never from ambient state.
pub trait BatchPolicy: fmt::Debug + Send + Sync + CloneBatchPolicy {
    /// Plans one iteration.
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan;

    /// Display label for experiment tables, e.g. `"fcfs"`.
    fn label(&self) -> String;
}

impl Clone for Box<dyn BatchPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// First-come-first-served admission — the historical engine, with two
/// optional extensions that default off:
///
/// - [`FcfsBatch::chunked`] caps per-request prefill work per
///   iteration, bounding iteration length (and thus every *other*
///   request's inter-token latency) at the cost of the long prompt's
///   own first token.
/// - [`FcfsBatch::with_preemption`] preempts the youngest decode when
///   committed KV crosses a pressure threshold, trading its sunk work
///   for admission headroom.
///
/// `FcfsBatch::new()` is byte-identical to the pre-trait `Replica`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FcfsBatch {
    chunk: Option<u32>,
    preempt_above: Option<f64>,
}

impl FcfsBatch {
    /// The historical engine: FCFS, full prefill, no preemption.
    pub fn new() -> Self {
        Self::default()
    }

    /// FCFS with chunked prefill: at most `chunk` uncached prompt
    /// tokens per request per iteration (clamped to ≥ 1).
    pub fn chunked(chunk: u32) -> Self {
        FcfsBatch {
            chunk: Some(chunk.max(1)),
            preempt_above: None,
        }
    }

    /// Preempt the youngest running decode whenever committed KV
    /// exceeds `frac` of capacity and at least two requests are
    /// running.
    pub fn with_preemption(mut self, frac: f64) -> Self {
        self.preempt_above = Some(frac.clamp(0.0, 1.0));
        self
    }
}

impl BatchPolicy for FcfsBatch {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        let mut plan = BatchPlan::fcfs();
        plan.prefill_chunk = self.chunk;
        if let Some(frac) = self.preempt_above {
            if view.running.len() > 1 && view.kv_pressure() > frac {
                // Youngest decode: least sunk work, most reservation
                // still held — preempting it frees the most per token
                // wasted. Skip mid-prefill requests; their first token
                // has not streamed yet but their slot is about to pay
                // off.
                let victim = view
                    .running
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.prefill_remaining == 0)
                    .min_by_key(|(i, r)| (r.generated, std::cmp::Reverse(*i)))
                    .map(|(i, _)| i);
                plan.preempt.extend(victim);
            }
        }
        plan
    }

    fn label(&self) -> String {
        match (self.chunk, self.preempt_above) {
            (None, None) => "fcfs".to_string(),
            (Some(c), None) => format!("fcfs-chunk{c}"),
            (None, Some(f)) => format!("fcfs-preempt{f:.2}"),
            (Some(c), Some(f)) => format!("fcfs-chunk{c}-preempt{f:.2}"),
        }
    }
}

/// One serving engine: a batch policy plus a KV evictor, cloneable into
/// any number of replicas. This is what `ScenarioBuilder::engine`
/// installs and what the fabric clones for every deployed (or mid-run
/// joining) replica.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// The admission/scheduling policy.
    pub batch: Box<dyn BatchPolicy>,
    /// The KV eviction policy.
    pub evictor: Box<dyn KvEvictor>,
}

impl EngineSpec {
    /// An engine from parts.
    pub fn new(batch: Box<dyn BatchPolicy>, evictor: Box<dyn KvEvictor>) -> Self {
        EngineSpec { batch, evictor }
    }

    /// Display label, e.g. `"fcfs+lru"`.
    pub fn label(&self) -> String {
        format!("{}+{}", self.batch.label(), self.evictor.label())
    }
}

impl Default for EngineSpec {
    /// The historical engine: [`FcfsBatch::new`] +
    /// [`LruEvictor`].
    fn default() -> Self {
        EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(LruEvictor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(pending: &'a [PendingView], running: &'a [RunningView]) -> StepView<'a> {
        StepView {
            pending,
            running,
            kv_capacity: 100,
            kv_used: 90,
            kv_reclaimable: 0,
            kv_committed: 95,
            max_batch: 8,
        }
    }

    fn run(id: u64, generated: u32) -> RunningView {
        RunningView {
            id: RequestId(id),
            prompt_tokens: 4,
            generated,
            target: 10,
            prefill_remaining: 0,
        }
    }

    #[test]
    fn fcfs_plan_is_arrival_order_stop_at_misfit() {
        let pending = [
            PendingView {
                id: RequestId(1),
                prompt_tokens: 4,
                target_output_tokens: 2,
            },
            PendingView {
                id: RequestId(2),
                prompt_tokens: 1,
                target_output_tokens: 2,
            },
        ];
        let p = FcfsBatch::new().plan(&view(&pending, &[]));
        assert_eq!(p, BatchPlan::fcfs());
        assert_eq!(p.admit_order.indices(2).collect::<Vec<_>>(), [0, 1]);
        assert!(!p.skip_unfit);
        assert!(p.prefill_chunk.is_none());
        assert!(p.preempt.is_empty());
    }

    #[test]
    fn preemption_picks_youngest_decode() {
        let running = [run(1, 5), run(2, 1), run(3, 1)];
        let p = FcfsBatch::new()
            .with_preemption(0.9)
            .plan(&view(&[], &running));
        // Ties on generated break toward the later admission.
        assert_eq!(p.preempt, vec![2]);
    }

    #[test]
    fn preemption_spares_mid_prefill_and_singletons() {
        let mut mid = run(1, 0);
        mid.prefill_remaining = 7;
        let p = FcfsBatch::new()
            .with_preemption(0.9)
            .plan(&view(&[], &[mid, run(2, 3)]));
        assert_eq!(p.preempt, vec![1], "mid-prefill request spared");
        let p = FcfsBatch::new()
            .with_preemption(0.9)
            .plan(&view(&[], &[run(2, 3)]));
        assert!(p.preempt.is_empty(), "a lone request is never preempted");
    }

    #[test]
    fn no_preemption_below_threshold() {
        let running = [run(1, 5), run(2, 1)];
        let p = FcfsBatch::new()
            .with_preemption(0.99)
            .plan(&view(&[], &running));
        assert!(p.preempt.is_empty());
    }

    #[test]
    fn chunk_clamped_and_labels_stable() {
        assert_eq!(
            FcfsBatch::chunked(0).plan(&view(&[], &[])).prefill_chunk,
            Some(1)
        );
        assert_eq!(FcfsBatch::new().label(), "fcfs");
        assert_eq!(FcfsBatch::chunked(256).label(), "fcfs-chunk256");
        assert_eq!(
            FcfsBatch::chunked(64).with_preemption(0.95).label(),
            "fcfs-chunk64-preempt0.95"
        );
        assert_eq!(EngineSpec::default().label(), "fcfs+lru");
    }

    #[test]
    fn kv_pressure_bounds() {
        let v = view(&[], &[]);
        assert!((v.kv_pressure() - 0.95).abs() < 1e-12);
        let z = StepView {
            kv_capacity: 0,
            ..v
        };
        assert_eq!(z.kv_pressure(), 1.0);
    }

    #[test]
    fn engine_spec_clones_independent_policies() {
        let spec = EngineSpec::default();
        let c = spec.clone();
        assert_eq!(spec.label(), c.label());
    }
}
