//! Pins `Replica::step` under arbitrary batch plans.
//!
//! A seeded policy draws every iteration's plan: FCFS, or an index list
//! that permutes, repeats and overruns the pending queue; `skip_unfit`
//! on or off; a prefill chunk or none; and a preemption list with
//! duplicates and out-of-range entries, sometimes the whole batch. Each
//! case drives one replica over a tiny KV cache (LRU, or tiered over
//! LRU) with a small batch ceiling, shared-prefix prompts, heads too
//! large to ever fit and an occasional `fail_all`, through
//! `Replica::advance` as every driver does.
//!
//! Every outcome's duration and its four vectors in order, the queue
//! lengths, the KV utilization bits and the cumulative statistics fold
//! into one FNV-1a word, compared with a constant recorded before
//! `step` moved its requests in place. The other suites pin FCFS
//! (`engine_parity`, `steady_parity`) and the cache alone
//! (`kvcache_props`); this one pins what a non-FCFS plan does to the
//! order of the batch, of the pending queue and of every outcome.

use skywalker_replica::{
    AdmitOrder, Advance, BatchPlan, BatchPolicy, GpuProfile, KvConfig, KvEvictor, LruEvictor,
    Replica, ReplicaId, Request, StepOutcome, StepView, TieredEvictor,
};
use skywalker_sim::{fnv1a_words, DetRng, FNV_OFFSET};

/// Draws each iteration's plan from its own seeded stream.
#[derive(Debug, Clone)]
struct RandomPlans(DetRng);

impl RandomPlans {
    /// Up to `len + 2` indices below `len + 3`: duplicates, gaps and a few
    /// past the end.
    fn ragged(&mut self, len: usize) -> Vec<usize> {
        let n = self.0.below(len as u64 + 3);
        (0..n)
            .map(|_| self.0.below(len as u64 + 3) as usize)
            .collect()
    }
}

impl BatchPolicy for RandomPlans {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        let (pending, running) = (view.pending.len(), view.running.len());
        let admit_order = match self.0.below(4) {
            0 => AdmitOrder::Fcfs,
            1 => {
                let mut idxs: Vec<usize> = (0..pending).collect();
                self.0.shuffle(&mut idxs);
                AdmitOrder::Indices(idxs)
            }
            2 => AdmitOrder::Indices((0..pending).rev().collect()),
            _ => AdmitOrder::Indices(self.ragged(pending)),
        };
        let skip_unfit = self.0.chance(0.5);
        let prefill_chunk = match self.0.below(3) {
            0 => None,
            _ => Some(self.0.below(12) as u32),
        };
        let preempt = match self.0.below(12) {
            0 => (0..running).collect(),
            1 => self.ragged(running),
            _ => Vec::new(),
        };
        BatchPlan {
            admit_order,
            skip_unfit,
            prefill_chunk,
            preempt,
        }
    }

    fn label(&self) -> String {
        "random-plans".into()
    }
}

/// Folds words into the running digest.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        self.0 = fnv1a_words(self.0, words);
    }

    fn outcome(&mut self, out: &StepOutcome) {
        self.fold([out.duration.as_micros()]);
        for ids in [&out.admitted, &out.preempted, &out.first_tokens] {
            self.fold([ids.len() as u64]);
            self.fold(ids.iter().map(|id| id.0));
        }
        self.fold([out.completions.len() as u64]);
        for c in &out.completions {
            self.fold([
                c.id.0,
                u64::from(c.prompt_tokens),
                u64::from(c.cached_prompt_tokens),
                u64::from(c.generated_tokens),
            ]);
        }
    }

    fn replica(&mut self, r: &Replica) {
        let s = r.stats();
        self.fold([
            r.pending_len() as u64,
            r.running_len() as u64,
            r.kv_utilization().to_bits(),
            s.admitted,
            s.completed,
            s.prompt_tokens,
            s.cached_prompt_tokens,
            s.generated_tokens,
            s.preempted,
            s.evicted_tokens,
            s.chunked_steps,
            s.crash_reclaimed_tokens,
            s.demoted_tokens,
            s.promoted_tokens,
        ]);
    }
}

fn profile(capacity: u64, max_batch: u32) -> GpuProfile {
    GpuProfile {
        name: "plan-fingerprint",
        prefill_base_us: 1_000,
        prefill_per_token_us: 100.0,
        chunk_base_us: 400,
        decode_base_us: 1_000,
        decode_per_request_us: 100.0,
        kv: KvConfig::tiny(capacity),
        max_batch_size: max_batch,
        kv_transfer_us_per_token: 1.0,
    }
}

/// A prompt that starts with one of three shared prefixes, or, now and
/// then, one longer than the whole cache.
fn prompt(rng: &mut DetRng, prefixes: &[Vec<u32>], capacity: u64) -> Vec<u32> {
    if rng.chance(0.04) {
        return vec![7; capacity as usize + 1];
    }
    let base = &prefixes[rng.below(prefixes.len() as u64) as usize];
    let keep = rng.below(base.len() as u64 + 1) as usize;
    let tail = rng.below(12);
    let mut p = base[..keep].to_vec();
    p.extend((0..tail).map(|_| 100 + rng.below(20) as u32));
    p
}

/// One seeded case: its digest folded onto `h`.
fn run_case(case: u64, h: u64) -> u64 {
    let mut rng = DetRng::for_component(case, "replica/plan-fingerprint");
    let capacity = rng.range(96, 320);
    let max_batch = rng.range(1, 7) as u32;
    let evictor: Box<dyn KvEvictor> = if rng.chance(0.5) {
        Box::new(LruEvictor)
    } else {
        Box::new(TieredEvictor::new(Box::new(LruEvictor), rng.below(80)))
    };
    let plans = RandomPlans(DetRng::for_component(
        case,
        "replica/plan-fingerprint/plans",
    ));
    let mut r = Replica::with_engine(
        ReplicaId(0),
        profile(capacity, max_batch),
        Box::new(plans),
        evictor,
    );
    let prefixes: Vec<Vec<u32>> = (0..3u32)
        .map(|p| {
            (0..rng.range(4, 40))
                .map(|t| p * 1_000 + t as u32)
                .collect()
        })
        .collect();
    let mut d = Digest(h);
    let mut next_id = 0u64;
    for iteration in 0..160 {
        if iteration < 100 {
            for _ in 0..rng.below(3) {
                let p = prompt(&mut rng, &prefixes, capacity);
                let out = rng.range(1, 14) as u32;
                r.enqueue(Request::new(next_id, "s", p, out));
                next_id += 1;
            }
        }
        if rng.chance(0.01) {
            let failed = r.fail_all();
            d.fold([u64::MAX, failed.len() as u64]);
            d.fold(failed.iter().map(|q| q.id.0));
        }
        match r.advance() {
            Advance::Worked(out) | Advance::Progressed(out) => {
                d.outcome(&out);
                r.recycle(out);
            }
            Advance::DroppedHead(out, req) => {
                d.outcome(&out);
                d.fold([u64::MAX - 1, req.id.0]);
                r.recycle(out);
            }
            Advance::Idle => d.fold([u64::MAX - 2]),
        }
        d.replica(&r);
    }
    d.0
}

#[test]
fn step_outcomes_under_random_plans_are_pinned() {
    let h = (0..240).fold(FNV_OFFSET, |h, case| run_case(case, h));
    assert_eq!(
        h, 0x2044_f7be_44ac_0364,
        "step outcomes under random plans drifted: {h:#018x}"
    );
}
