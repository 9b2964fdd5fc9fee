//! `ShortestPromptFirst` — a batch policy built entirely on the open
//! serving-engine surface, outside `skywalker-replica`.
//!
//! This is the engine-axis counterpart of [`crate::P2cLocal`] (routing),
//! `RagCorpusSource` (traffic), and [`crate::PredictiveAutoscaler`]
//! (fleet): proof that `BatchPolicy` is a real extension point, not an
//! internal enum in disguise. The policy itself is the classic SJF bet
//! applied to admission: when the batch is memory-bound, admit the
//! *cheapest* pending prompts first (shortest uncached-prefill cost
//! proxy: prompt length), skipping over requests that do not fit
//! instead of head-of-line blocking on them. Under memory pressure this
//! trades worst-case fairness for mean/P90 TTFT — exactly the
//! divergence the "Engine shootout" row of `docs/claims.md` measures
//! against FCFS.

use skywalker_replica::{BatchPlan, BatchPolicy, StepView};

/// Shortest-prompt-first admission with optional prefill chunking.
///
/// Ties (equal prompt length) break toward the older request, and a
/// configurable aging bound caps starvation: once a request has waited
/// `max_skipped` planning rounds while shorter work jumped ahead, it is
/// moved to the head of the admission order and head-of-line blocking
/// is restored until it admits.
#[derive(Debug, Clone)]
pub struct ShortestPromptFirst {
    chunk: Option<u32>,
    max_skipped: u32,
    /// (request id, rounds it has been planned-but-not-admitted).
    waits: Vec<(u64, u32)>,
}

impl ShortestPromptFirst {
    /// SJF admission, full prefill, aging bound of 64 rounds.
    pub fn new() -> Self {
        ShortestPromptFirst {
            chunk: None,
            max_skipped: 64,
            waits: Vec::new(),
        }
    }

    /// Adds chunked prefill at `chunk` tokens per request per
    /// iteration.
    pub fn chunked(mut self, chunk: u32) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Overrides the aging bound (clamped to ≥ 1 round).
    // det-allow(D07): the seam the aging unit tests configure the policy through
    pub fn with_aging(mut self, rounds: u32) -> Self {
        self.max_skipped = rounds.max(1);
        self
    }
}

impl Default for ShortestPromptFirst {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchPolicy for ShortestPromptFirst {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        // Age the requests still pending; forget the rest.
        self.waits
            .retain(|(id, _)| view.pending.iter().any(|p| p.id.0 == *id));
        for p in view.pending {
            match self.waits.iter_mut().find(|(id, _)| *id == p.id.0) {
                Some((_, rounds)) => *rounds += 1,
                None => self.waits.push((p.id.0, 0)),
            }
        }

        let mut order: Vec<usize> = (0..view.pending.len()).collect();
        order.sort_by_key(|&i| (view.pending[i].prompt_tokens, i));

        // Starvation valve: a sufficiently-aged request goes first, and
        // blocking admission behind it guarantees it wins the next slot
        // that fits.
        let starved = view
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                self.waits
                    .iter()
                    .any(|(id, rounds)| *id == p.id.0 && *rounds >= self.max_skipped)
            })
            .map(|(i, _)| i)
            .min();
        let skip_unfit = match starved {
            Some(i) => {
                order.retain(|&x| x != i);
                order.insert(0, i);
                false
            }
            None => true,
        };

        BatchPlan {
            admit_order: order,
            skip_unfit,
            prefill_chunk: self.chunk,
            preempt: Vec::new(),
        }
    }

    fn label(&self) -> String {
        match self.chunk {
            None => "sjf".to_string(),
            Some(c) => format!("sjf-chunk{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_replica::{PendingView, RequestId};

    fn pending(specs: &[(u64, u32)]) -> Vec<PendingView> {
        specs
            .iter()
            .map(|&(id, plen)| PendingView {
                id: RequestId(id),
                prompt_tokens: plen,
                target_output_tokens: 4,
            })
            .collect()
    }

    fn view(p: &[PendingView]) -> StepView<'_> {
        StepView {
            pending: p,
            running: &[],
            kv_capacity: 1000,
            kv_used: 0,
            kv_reclaimable: 0,
            kv_committed: 0,
            max_batch: 8,
        }
    }

    #[test]
    fn orders_by_prompt_length_then_arrival() {
        let p = pending(&[(1, 30), (2, 10), (3, 30), (4, 5)]);
        let plan = ShortestPromptFirst::new().plan(&view(&p));
        assert_eq!(plan.admit_order, vec![3, 1, 0, 2]);
        assert!(plan.skip_unfit, "SJF skips misfits instead of blocking");
        assert!(plan.preempt.is_empty());
    }

    #[test]
    fn aging_restores_head_of_line_blocking() {
        let p = pending(&[(1, 100), (2, 1)]);
        let mut policy = ShortestPromptFirst::new().with_aging(3);
        for _ in 0..3 {
            let plan = policy.plan(&view(&p));
            assert_eq!(plan.admit_order[0], 1, "short prompt leads pre-aging");
        }
        let plan = policy.plan(&view(&p));
        assert_eq!(plan.admit_order[0], 0, "starved long prompt promoted");
        assert!(!plan.skip_unfit, "blocking protects the starved request");
    }

    #[test]
    fn forgets_departed_requests() {
        let mut policy = ShortestPromptFirst::new().with_aging(2);
        let p = pending(&[(1, 100)]);
        policy.plan(&view(&p));
        policy.plan(&view(&p));
        // Request 1 admitted/left; a new queue never inherits its age.
        let q = pending(&[(2, 100)]);
        let plan = policy.plan(&view(&q));
        assert!(plan.skip_unfit);
        assert_eq!(policy.waits.len(), 1);
    }

    #[test]
    fn labels_stable() {
        assert_eq!(ShortestPromptFirst::new().label(), "sjf");
        assert_eq!(
            ShortestPromptFirst::new().chunked(128).label(),
            "sjf-chunk128"
        );
    }
}
