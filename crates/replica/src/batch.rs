//! The continuous-batching replica state machine.
//!
//! Modeled on Orca-style iteration scheduling as implemented by SGLang and
//! vLLM (§2.1): requests wait in a *pending* queue until the batch has KV
//! headroom, then join the running batch; every iteration each running
//! request advances by one token; finished requests leave and free their
//! memory. *What* joins the batch each iteration — admission order,
//! chunked prefill, preemption — is an open policy: the replica asks
//! its [`BatchPolicy`] for a [`BatchPlan`](crate::BatchPlan) and
//! enforces the safety mechanics itself (fit checks, lease accounting,
//! timing). The default [`FcfsBatch`](crate::FcfsBatch) is FCFS and
//! preemption-free — a request is only admitted if its whole footprint
//! (uncached prompt plus worst-case output) is guaranteed to fit,
//! which is how engines avoid mid-decode OOM without preemption — and
//! is pinned byte-identical to the historical hardcoded loop by
//! `tests/engine_parity.rs`.
//!
//! The *pending queue depth* is the signal the paper's selective-pushing
//! mechanism reads (§3.3): a replica with pending requests has a full
//! continuous batch and must not be pushed more work.

use std::collections::VecDeque;

use skywalker_sim::SimDuration;

use crate::engine::{BatchPolicy, PendingView, RunningView, StepView};
use crate::kvcache::{KvEvictor, Lease, PrefixCache};
use crate::request::{Request, RequestId};
use crate::timing::GpuProfile;
use crate::tokenizer::output_token;
use crate::ReplicaId;

/// One request in the running batch.
#[derive(Debug)]
struct Running {
    req: Request,
    lease: Lease,
    cached_prompt: u64,
    /// Tokens generated so far (held privately, outside the shared tree).
    generated: u32,
    /// Output length this request will reach (≥ 1).
    target: u32,
    /// Uncached prompt tokens still awaiting prefill. Zero except
    /// mid-chunked-prefill; a request only decodes once this drains.
    prefill_remaining: u64,
}

/// [`Replica::step`]'s per-iteration working storage, kept between
/// iterations so that only preempting or retiring a request makes a
/// step allocate: a steady decode step, one stalled behind an unfit
/// head and one that admits reuse what earlier steps grew. Nothing in
/// it outlives the step that filled it.
#[derive(Debug, Default)]
struct StepScratch {
    /// The queue snapshots behind the policy's [`StepView`].
    pending_view: Vec<PendingView>,
    running_view: Vec<RunningView>,
    /// Which pending indices admission has consumed.
    taken: Vec<bool>,
    /// Admitted this iteration, in plan order: `(pending index, lease,
    /// cached tokens, prefill still to run)`.
    admissions: Vec<(usize, Lease, u64, u64)>,
    /// The admitted pending indices, highest first.
    idxs: Vec<usize>,
    /// The admitted requests as they left the pending queue, by index.
    removed: Vec<(usize, Request)>,
    /// Running indices that reached their target this iteration.
    finished: Vec<usize>,
    /// The vectors of a [`StepOutcome`] handed back through
    /// [`Replica::recycle`], emptied, for the next step to fill.
    outcome: StepOutcome,
}

/// A request the fit check turned away, and the state it failed in.
/// While the same request is offered, no node has been inserted into or
/// removed from the cache, and the committed tokens have not fallen, the
/// check would fail again: the prompt charge follows the matched prefix,
/// which only a node insert or removal can change, and the rest of the
/// check only grows with the committed tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Unfit {
    /// The request: its id, prompt length and served output length. An
    /// id names one prompt; a leg with a different prompt (the decode
    /// leg of a handoff) has a different length.
    id: RequestId,
    prompt_len: usize,
    target: u32,
    /// [`PrefixCache::tree_edits`] at the failed check.
    tree_edits: u64,
    /// [`Replica::committed_tokens`] at the failed check.
    committed: u64,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The finished request.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Prompt tokens served from the prefix cache at admission.
    pub cached_prompt_tokens: u32,
    /// Output tokens generated.
    pub generated_tokens: u32,
}

/// What one continuous-batching iteration did.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Virtual time the iteration took. Zero when the replica was idle.
    pub duration: SimDuration,
    /// Requests admitted from the pending queue this iteration.
    pub admitted: Vec<RequestId>,
    /// Requests preempted out of the running batch this iteration
    /// (requeued at the pending front; their generated output was
    /// discarded).
    pub preempted: Vec<RequestId>,
    /// Requests that produced their first output token this iteration.
    pub first_tokens: Vec<RequestId>,
    /// Requests that finished this iteration.
    pub completions: Vec<Completion>,
}

impl StepOutcome {
    /// True if the iteration performed work.
    pub fn worked(&self) -> bool {
        self.duration > SimDuration::ZERO
    }

    /// True if the iteration changed replica state even without
    /// consuming virtual time (a preemption that emptied the batch).
    /// Drivers must not treat such a step as "stuck" — the requeued
    /// request is servable on the next iteration.
    pub fn progressed(&self) -> bool {
        self.worked() || !self.admitted.is_empty() || !self.preempted.is_empty()
    }
}

/// One [`Replica::advance`]: a step, classified by the stuck-head rule
/// every driver's loop needs. Each stepping variant carries the step's
/// [`StepOutcome`], so an observer sees zero-duration steps too.
#[derive(Debug)]
pub enum Advance {
    /// The iteration consumed virtual time: let it run, then publish
    /// its outputs.
    Worked(StepOutcome),
    /// A zero-duration step that still changed state (a preemption
    /// emptied the batch): the requeued request is servable — advance
    /// again rather than misread this as a stuck head.
    Progressed(StepOutcome),
    /// The step made no progress: the pending head can never fit (e.g.
    /// a prompt larger than the whole cache). It was popped, and is
    /// handed over for the driver to fail.
    DroppedHead(StepOutcome, Request),
    /// Nothing pending, nothing running: no step was taken.
    Idle,
}

impl Advance {
    /// The outcome of the step taken, if one was.
    pub fn outcome(&self) -> Option<&StepOutcome> {
        match self {
            Advance::Worked(out) | Advance::Progressed(out) | Advance::DroppedHead(out, _) => {
                Some(out)
            }
            Advance::Idle => None,
        }
    }
}

/// Cumulative replica statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplicaStats {
    /// Requests admitted into the batch.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Prompt tokens across admitted requests.
    pub prompt_tokens: u64,
    /// Prompt tokens served from cache.
    pub cached_prompt_tokens: u64,
    /// Output tokens generated.
    pub generated_tokens: u64,
    /// Running decodes preempted by the batch policy (their generated
    /// output was discarded and the request re-queued). Re-admissions
    /// count again in `admitted`.
    pub preempted: u64,
    /// Block-rounded KV tokens reclaimed by cache eviction (cumulative;
    /// mirrored from the [`PrefixCache`]).
    pub evicted_tokens: u64,
    /// Iterations in which chunked prefill was active (a prompt's
    /// prefill was split across iterations).
    pub chunked_steps: u64,
    /// KV tokens handed back to the reclaimable pool by
    /// [`Replica::fail_all`]: the failed in-flight leases' pinned paths
    /// (which may overlap) plus their private decode tokens.
    pub crash_reclaimed_tokens: u64,
    /// Block-rounded KV tokens demoted GPU→host by a tiered cache
    /// (cumulative; mirrored from the [`PrefixCache`]; 0 when untiered).
    pub demoted_tokens: u64,
    /// Block-rounded KV tokens promoted host→GPU on cache hits, each
    /// paid for as transfer time inside the admitting iteration.
    pub promoted_tokens: u64,
}

impl ReplicaStats {
    /// Prefix-cache hit rate over admitted prompts.
    pub fn hit_rate(&self) -> f64 {
        if self.prompt_tokens == 0 {
            0.0
        } else {
            self.cached_prompt_tokens as f64 / self.prompt_tokens as f64
        }
    }
}

/// One simulated model replica: a GPU profile, a prefix cache, a pending
/// queue, and a running continuous batch.
///
/// # Examples
///
/// ```
/// use skywalker_replica::{GpuProfile, Replica, ReplicaId, Request};
///
/// let mut r = Replica::new(ReplicaId(0), GpuProfile::L4_LLAMA_8B);
/// r.enqueue(Request::new(1, "user-a", vec![10, 20, 30], 4));
/// let mut done = Vec::new();
/// while !r.is_idle() {
///     done.extend(r.step().completions);
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].generated_tokens, 4);
/// ```
#[derive(Debug)]
pub struct Replica {
    id: ReplicaId,
    profile: GpuProfile,
    cache: PrefixCache,
    pending: VecDeque<Request>,
    running: Vec<Running>,
    /// Sum of private (not yet tree-resident) generated tokens.
    private_tokens: u64,
    /// Sum of tokens still to be generated by the running batch — the
    /// admission reservation that bounds concurrency.
    reserved_tokens: u64,
    /// The open admission/scheduling policy driving [`Replica::step`].
    policy: Box<dyn BatchPolicy>,
    stats: ReplicaStats,
    /// Cumulative promoted tokens already charged as transfer time, so
    /// each [`Replica::step`] bills only its own promotions.
    promoted_charged: u64,
    scratch: StepScratch,
    /// The last failed fit check, while it still holds.
    unfit: Option<Unfit>,
}

impl Replica {
    /// Creates an idle replica with the default engine
    /// ([`crate::FcfsBatch`] + [`crate::LruEvictor`] — the historical
    /// behavior).
    pub fn new(id: ReplicaId, profile: GpuProfile) -> Self {
        Self::with_engine(
            id,
            profile,
            Box::new(crate::FcfsBatch::new()),
            Box::new(crate::LruEvictor),
        )
    }

    /// Creates an idle replica running a custom serving engine: `batch`
    /// plans each iteration's admission/chunking/preemption, `evictor`
    /// picks KV-eviction victims. See `docs/replica.md` for the recipe;
    /// `EngineSpec` bundles both for scenario-level wiring.
    pub fn with_engine(
        id: ReplicaId,
        profile: GpuProfile,
        batch: Box<dyn BatchPolicy>,
        evictor: Box<dyn KvEvictor>,
    ) -> Self {
        Replica {
            id,
            profile,
            cache: PrefixCache::with_evictor(profile.kv, evictor),
            pending: VecDeque::new(),
            running: Vec::new(),
            private_tokens: 0,
            reserved_tokens: 0,
            policy: batch,
            stats: ReplicaStats::default(),
            promoted_charged: 0,
            scratch: StepScratch::default(),
            unfit: None,
        }
    }

    /// The replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The GPU profile.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Queues a request. It joins the batch once memory allows.
    pub fn enqueue(&mut self, req: Request) {
        self.pending.push_back(req);
    }

    /// Requests waiting for admission — the selective-pushing signal.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Requests currently in the continuous batch.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// True when there is nothing queued or running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// KV memory utilization in `[0, 1]`: shared tree plus private decode
    /// tokens, over capacity.
    pub fn kv_utilization(&self) -> f64 {
        let cap = self.profile.kv.capacity_tokens;
        if cap == 0 {
            return 1.0;
        }
        ((self.cache.used_tokens() + self.private_tokens) as f64 / cap as f64).min(1.0)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ReplicaStats {
        let mut s = self.stats;
        s.evicted_tokens = self.cache.evicted_tokens();
        s.demoted_tokens = self.cache.demoted_tokens();
        s.promoted_tokens = self.cache.promoted_tokens();
        s
    }

    /// Longest cached prefix for a prompt, for router probes.
    pub fn matched_tokens(&self, prompt: &[u32]) -> u64 {
        self.cache.matched_tokens(prompt)
    }

    /// Direct access to the prefix cache (read-only).
    pub fn cache(&self) -> &PrefixCache {
        &self.cache
    }

    /// Lands transferred KV state in the cache ahead of a disaggregated
    /// handoff: inserts `tokens` as a resident (unpinned) prefix, as if
    /// the replica had prefilled and released it. Returns `false` when
    /// the cache cannot make room — the decode replica then simply
    /// re-prefills on admission, so a failed prewarm costs time, never
    /// correctness.
    pub fn prewarm(&mut self, tokens: &[u32]) -> bool {
        match self.cache.acquire(tokens) {
            Ok((lease, _matched)) => {
                self.cache.release(lease);
                true
            }
            Err(_) => false,
        }
    }

    /// Executes one continuous-batching iteration: ask the
    /// [`BatchPolicy`] for a plan, apply its preemptions, admit what
    /// the plan selects *and* the memory fit check allows, advance
    /// prefill chunks, then decode one token for every fully-prefilled
    /// running request. Returns what happened and how long it took; an
    /// idle replica returns a zero-duration outcome.
    pub fn step(&mut self) -> StepOutcome {
        let mut out = std::mem::take(&mut self.scratch.outcome);

        // Snapshot the queues for the policy. Plan indices refer to
        // these snapshots; nothing below reorders the pending queue
        // until admission has consumed its indices.
        let scratch = &mut self.scratch;
        scratch.pending_view.clear();
        scratch
            .pending_view
            .extend(self.pending.iter().map(|r| PendingView {
                id: r.id,
                prompt_tokens: r.prompt.len() as u32,
                target_output_tokens: r.target_output_tokens.max(1),
            }));
        scratch.running_view.clear();
        scratch
            .running_view
            .extend(self.running.iter().map(|r| RunningView {
                id: r.req.id,
                prompt_tokens: r.req.prompt.len() as u32,
                generated: r.generated,
                target: r.target,
                prefill_remaining: r.prefill_remaining,
            }));
        let kv_committed = self.committed_tokens();
        let scratch = &self.scratch;
        let view = StepView {
            pending: &scratch.pending_view,
            running: &scratch.running_view,
            kv_capacity: self.profile.kv.capacity_tokens,
            kv_used: self.cache.used_tokens(),
            kv_reclaimable: self.cache.reclaimable_tokens(),
            kv_committed,
            max_batch: self.profile.max_batch_size,
        };
        let plan = self.policy.plan(&view);
        let chunk = plan.prefill_chunk.map(|c| u64::from(c.max(1)));

        // Preemption first: it frees reservations, so admission below
        // sees the headroom it created. The victims' requests are held
        // aside and requeued *after* admission, so the plan's pending
        // indices stay valid throughout.
        let mut preempt: Vec<usize> = plan
            .preempt
            .iter()
            .copied()
            .filter(|&i| i < self.running.len())
            .collect();
        preempt.sort_unstable();
        preempt.dedup();
        let mut preempted: Vec<Request> = Vec::new();
        for &i in preempt.iter().rev() {
            let run = self.running.remove(i);
            self.private_tokens -= u64::from(run.generated);
            self.reserved_tokens -= u64::from(run.target - run.generated);
            self.stats.preempted += 1;
            self.cache.release(run.lease);
            out.preempted.push(run.req.id);
            preempted.push(run.req);
        }

        // Continuation chunks for carried-over mid-prefill requests
        // (before admission, so newly admitted prompts are not charged
        // twice in their first iteration).
        let mut prefill_cont = 0u64;
        let mut chunked_prefill_active = false;
        for run in &mut self.running {
            if run.prefill_remaining == 0 {
                continue;
            }
            let take = chunk.map_or(run.prefill_remaining, |c| run.prefill_remaining.min(c));
            run.prefill_remaining -= take;
            prefill_cont += take;
            chunked_prefill_active = true;
        }

        // Admission in plan order, under the replica's own fit check.
        // Counters and cache state update immediately (later fit checks
        // must see earlier admissions); the owned requests move out of
        // the pending queue in one pass afterwards.
        let mut admissions = std::mem::take(&mut self.scratch.admissions);
        self.scratch.taken.clear();
        self.scratch.taken.resize(self.pending.len(), false);
        let mut prefill_fresh = 0u64;
        for idx in plan.admit_order.indices(self.pending.len()) {
            if self.running.len() + admissions.len() >= self.profile.max_batch_size as usize {
                break;
            }
            if idx >= self.pending.len() || self.scratch.taken[idx] {
                continue;
            }
            let target = self.pending[idx].target_output_tokens.max(1);
            if !self.admission_fits(idx, target) {
                if plan.skip_unfit {
                    continue;
                }
                break;
            }
            let (lease, cached) = match self.cache.acquire(&self.pending[idx].prompt) {
                Ok(v) => v,
                Err(_) => {
                    // The conservative fit check passed but
                    // fragmentation still defeated the acquire; the
                    // request stays queued.
                    if plan.skip_unfit {
                        continue;
                    }
                    break;
                }
            };
            let req = &self.pending[idx];
            let uncached = req.prompt.len() as u64 - cached;
            let first = chunk.map_or(uncached, |c| uncached.min(c));
            if first < uncached {
                chunked_prefill_active = true;
            }
            prefill_fresh += first;
            self.reserved_tokens += u64::from(target);
            self.stats.admitted += 1;
            self.stats.prompt_tokens += req.prompt.len() as u64;
            self.stats.cached_prompt_tokens += cached;
            out.admitted.push(req.id);
            self.scratch.taken[idx] = true;
            admissions.push((idx, lease, cached, uncached - first));
        }
        if !admissions.is_empty() {
            // Move the admitted requests out highest-index-first so the
            // remaining indices stay valid (O(1) per removal in the
            // FCFS common case of front indices), then enter the batch
            // in *plan* order.
            let StepScratch { idxs, removed, .. } = &mut self.scratch;
            idxs.clear();
            idxs.extend(admissions.iter().map(|a| a.0));
            idxs.sort_unstable_by(|a, b| b.cmp(a));
            for &i in idxs.iter() {
                let req = self.pending.remove(i).expect("admitted index in range");
                removed.push((i, req));
            }
            for (idx, lease, cached, prefill_remaining) in admissions.drain(..) {
                let pos = removed
                    .iter()
                    .position(|(i, _)| *i == idx)
                    .expect("each admitted index removed once");
                let (_, req) = removed.swap_remove(pos);
                let target = req.target_output_tokens.max(1);
                self.running.push(Running {
                    req,
                    lease,
                    cached_prompt: cached,
                    generated: 0,
                    target,
                    prefill_remaining,
                });
            }
        }
        self.scratch.admissions = admissions;
        // Preempted requests go back to the *front* (oldest first): the
        // default FCFS re-admits them before anything newer, so
        // preemption cannot starve a request forever.
        for req in preempted {
            self.pending.push_front(req);
        }

        if self.running.is_empty() {
            return out;
        }

        // Iteration time: one prefill pass over this iteration's chunk
        // tokens (fresh if any prompt started prefilling), then one
        // decode step over the fully-prefilled part of the batch (an
        // admitted request's first token comes out of the pass that
        // finishes its prefill).
        let decoding = self
            .running
            .iter()
            .filter(|r| r.prefill_remaining == 0)
            .count();
        let prefill_tokens = prefill_fresh + prefill_cont;
        let mut duration = self.profile.decode_step_time(decoding as u32);
        if prefill_tokens > 0 {
            duration += self
                .profile
                .prefill_pass_time(prefill_tokens, prefill_fresh > 0);
        }
        if chunked_prefill_active {
            self.stats.chunked_steps += 1;
        }
        out.duration = duration;

        // Advance every fully-prefilled running request by one token.
        self.scratch.finished.clear();
        for (i, run) in self.running.iter_mut().enumerate() {
            if run.prefill_remaining > 0 {
                continue;
            }
            if run.generated == 0 {
                out.first_tokens.push(run.req.id);
            }
            run.generated += 1;
            self.private_tokens += 1;
            self.reserved_tokens -= 1;
            self.stats.generated_tokens += 1;
            if run.generated >= run.target {
                self.scratch.finished.push(i);
            }
        }

        // Retire finished requests (highest index first so removals do not
        // shift earlier indices). Their output tokens share one buffer
        // that lives for this iteration only: an iteration that retires
        // is not a steady one, and kept on the replica the buffer would
        // hold the longest output that replica ever served.
        let mut generated_ids: Vec<u32> = Vec::new();
        for &i in self.scratch.finished.iter().rev() {
            let run = self.running.swap_remove(i);
            generated_ids.clear();
            generated_ids.extend(
                (0..run.generated).map(|k| output_token(run.req.id.0, run.req.output_offset + k)),
            );
            self.private_tokens -= u64::from(run.generated);
            self.cache.complete(run.lease, &generated_ids);
            self.stats.completed += 1;
            out.completions.push(Completion {
                id: run.req.id,
                prompt_tokens: run.req.prompt.len() as u32,
                cached_prompt_tokens: run.cached_prompt as u32,
                generated_tokens: run.generated,
            });
        }

        // Promote-on-hit cost: host→GPU KV movement triggered by this
        // iteration's admissions rides on the iteration clock, exactly
        // like the prefill work it replaced. Untiered caches never
        // promote, keeping this a byte-identical no-op.
        let promoted = self.cache.promoted_tokens();
        if promoted > self.promoted_charged {
            out.duration += self
                .profile
                .kv_transfer_time(promoted - self.promoted_charged);
            self.promoted_charged = promoted;
        }
        out
    }

    /// Hands back a [`StepOutcome`] this replica returned, once its
    /// reader is done with it: the next step refills its vectors
    /// instead of allocating new ones. Dropping an outcome instead is
    /// always correct; it only costs those allocations.
    pub fn recycle(&mut self, mut out: StepOutcome) {
        out.admitted.clear();
        out.preempted.clear();
        out.first_tokens.clear();
        out.completions.clear();
        out.duration = SimDuration::ZERO;
        self.scratch.outcome = out;
    }

    /// Tokens committed against capacity: unreclaimable cache state plus
    /// private decode tokens plus outstanding output reservations.
    fn committed_tokens(&self) -> u64 {
        self.cache.used_tokens() - self.cache.reclaimable_tokens()
            + self.private_tokens
            + self.reserved_tokens
    }

    /// Conservative fit check for admitting pending request `idx`:
    /// uncached prompt charge plus full output reservation (`target`)
    /// must fit next to everything already resident or reserved. This
    /// is the replica's own safety rail — batch policies choose *order*,
    /// not whether this holds. A failure is remembered, and the same
    /// request offered again is turned away without walking the cache
    /// while the failure provably still holds (see [`Unfit`]) — the
    /// head of an FCFS queue stalled on KV memory is offered every
    /// iteration.
    fn admission_fits(&mut self, idx: usize, target: u32) -> bool {
        let req = &self.pending[idx];
        let committed = self.committed_tokens();
        let tree_edits = self.cache.tree_edits();
        let same = |u: &Unfit| {
            (u.id, u.prompt_len, u.target) == (req.id, req.prompt.len(), target)
                && u.tree_edits == tree_edits
                && committed >= u.committed
        };
        if self.unfit.as_ref().is_some_and(same) {
            return false;
        }
        let cap = self.profile.kv.capacity_tokens;
        let cached = self.cache.matched_tokens(&req.prompt);
        let uncached = req.prompt.len() as u64 - cached;
        // Block-rounding slack: one extra block covers a possible split.
        let block = u64::from(self.profile.kv.block_tokens);
        let prompt_charge = uncached.div_ceil(block.max(1)) * block.max(1) + block;
        let fits = committed + prompt_charge + u64::from(target) <= cap;
        if !fits {
            self.unfit = Some(Unfit {
                id: req.id,
                prompt_len: req.prompt.len(),
                target,
                tree_edits,
                committed,
            });
        }
        fits
    }

    /// Removes and returns the head of the pending queue. Drivers use
    /// this to drop a request that can never be admitted (its footprint
    /// exceeds the whole KV capacity) instead of blocking the queue
    /// forever.
    pub fn pop_pending_head(&mut self) -> Option<Request> {
        self.pending.pop_front()
    }

    /// Crash support: drops every pending and running request, releasing
    /// their KV reservations, and returns them for the driver to reroute
    /// or count failed. Output generated so far is discarded; prefilled
    /// prompt state stays cached but unpinned (reclaimable), as after a
    /// normal completion. The replica itself remains usable afterwards —
    /// the fabric decides whether it ever receives work again.
    pub fn fail_all(&mut self) -> Vec<Request> {
        let mut out: Vec<Request> = Vec::with_capacity(self.pending.len() + self.running.len());
        for run in self.running.drain(..) {
            self.private_tokens -= u64::from(run.generated);
            self.reserved_tokens -= u64::from(run.target - run.generated);
            // Release the lease explicitly (nothing to extend — the
            // partial output is discarded) and account for what the
            // crash hands back to the reclaimable pool: the lease's
            // pinned path plus the private decode tokens.
            self.stats.crash_reclaimed_tokens += run.lease.tokens() + u64::from(run.generated);
            self.cache.release(run.lease);
            out.push(run.req);
        }
        out.extend(self.pending.drain(..));
        out
    }

    /// Takes one [`Replica::step`] unless idle and classifies it — the
    /// one place the stuck-head rule lives. Drivers loop on this: run a
    /// [`Advance::Worked`] iteration's duration, call again after
    /// [`Advance::Progressed`], fail the request of an
    /// [`Advance::DroppedHead`], stop on [`Advance::Idle`].
    pub fn advance(&mut self) -> Advance {
        if self.is_idle() {
            return Advance::Idle;
        }
        let out = self.step();
        if out.worked() {
            Advance::Worked(out)
        } else if out.progressed() {
            Advance::Progressed(out)
        } else {
            let dropped = self.pending.pop_front();
            debug_assert!(dropped.is_some(), "non-idle replica made no progress");
            dropped.map_or(Advance::Idle, |req| Advance::DroppedHead(out, req))
        }
    }

    /// Drains all work to completion, returning every completion in order.
    /// Test/analysis helper; the simulation drives [`Replica::advance`]
    /// itself.
    pub fn run_to_idle(&mut self) -> (Vec<Completion>, SimDuration) {
        let mut completions = Vec::new();
        let mut elapsed = SimDuration::ZERO;
        loop {
            match self.advance() {
                Advance::Worked(mut out) | Advance::Progressed(mut out) => {
                    elapsed += out.duration;
                    completions.append(&mut out.completions);
                    self.recycle(out);
                }
                Advance::DroppedHead(..) => {}
                Advance::Idle => break,
            }
        }
        (completions, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvcache::KvConfig;

    fn small_profile(capacity: u64, max_batch: u32) -> GpuProfile {
        GpuProfile {
            name: "test",
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

    fn req(id: u64, prompt: Vec<u32>, out: u32) -> Request {
        Request::new(id, format!("u{id}"), prompt, out)
    }

    #[test]
    fn single_request_lifecycle() {
        let mut r = Replica::new(ReplicaId(0), small_profile(1024, 8));
        r.enqueue(req(1, vec![1, 2, 3], 3));
        assert_eq!(r.pending_len(), 1);

        let out = r.step();
        assert_eq!(out.admitted, vec![RequestId(1)]);
        assert_eq!(out.first_tokens, vec![RequestId(1)]);
        assert!(out.completions.is_empty());
        assert!(out.worked());
        assert_eq!(r.running_len(), 1);

        r.step();
        let out = r.step();
        assert_eq!(out.completions.len(), 1);
        let c = out.completions[0];
        assert_eq!(c.generated_tokens, 3);
        assert_eq!(c.prompt_tokens, 3);
        assert!(r.is_idle());
        assert_eq!(r.stats().completed, 1);
    }

    #[test]
    fn idle_step_is_free() {
        let mut r = Replica::new(ReplicaId(0), small_profile(64, 4));
        let out = r.step();
        assert!(!out.worked());
        assert!(out.admitted.is_empty());
    }

    #[test]
    fn first_iteration_includes_prefill_cost() {
        let mut r = Replica::new(ReplicaId(0), small_profile(1024, 8));
        r.enqueue(req(1, vec![1; 100], 2));
        let out1 = r.step(); // prefill + decode
        let out2 = r.step(); // decode only
        assert!(out1.duration > out2.duration);
    }

    #[test]
    fn memory_bounds_concurrency_and_pending_queue_forms() {
        // Capacity 64 tokens; each request needs 4 (prompt, rounded) + 4
        // (slack block) + 24 (output reservation) = 32 → two fit, the
        // third waits in the pending queue.
        let mut r = Replica::new(ReplicaId(0), small_profile(64, 16));
        for i in 0..3 {
            r.enqueue(req(i, vec![100 + i as u32, 2, 3], 24));
        }
        let out = r.step();
        assert_eq!(out.admitted.len(), 2, "third request must wait on memory");
        assert_eq!(r.pending_len(), 1);
        assert_eq!(r.running_len(), 2);
        // As the first two finish, the third gets admitted.
        let (completions, _) = r.run_to_idle();
        assert_eq!(completions.len() + out.completions.len(), 3);
    }

    #[test]
    fn max_batch_size_respected() {
        let mut r = Replica::new(ReplicaId(0), small_profile(100_000, 2));
        for i in 0..5 {
            r.enqueue(req(i, vec![i as u32], 10));
        }
        let out = r.step();
        assert_eq!(out.admitted.len(), 2);
        assert_eq!(r.running_len(), 2);
        assert_eq!(r.pending_len(), 3);
    }

    #[test]
    fn fcfs_admission_no_starvation_bypass() {
        // A huge request at the head must block later small ones (FCFS).
        let mut r = Replica::new(ReplicaId(0), small_profile(64, 16));
        r.enqueue(req(1, vec![1, 2], 40)); // reserves 40 of 64
        r.enqueue(req(2, vec![3, 4], 40)); // does not fit alongside
        r.enqueue(req(3, vec![5, 6], 2)); // would fit, but FCFS says wait
        let out = r.step();
        assert_eq!(out.admitted, vec![RequestId(1)]);
        assert_eq!(r.pending_len(), 2);
    }

    #[test]
    fn prefix_hits_reduce_prefill_time() {
        let profile = small_profile(4096, 8);
        let mut r = Replica::new(ReplicaId(0), profile);
        let prompt: Vec<u32> = (0..100).collect();
        r.enqueue(req(1, prompt.clone(), 1));
        let (_, _) = r.run_to_idle();

        // Same prompt again: fully cached, shorter first iteration.
        let mut r2 = Replica::new(ReplicaId(1), profile);
        r2.enqueue(req(2, prompt.clone(), 1));
        let cold = r2.step().duration;

        r.enqueue(req(3, prompt, 1));
        let warm = r.step().duration;
        assert!(warm < cold, "cached prefill {warm} should beat cold {cold}");
        assert!(r.stats().hit_rate() > 0.4);
    }

    #[test]
    fn multi_turn_reuses_generated_output() {
        let mut r = Replica::new(ReplicaId(0), small_profile(4096, 8));
        let turn1: Vec<u32> = vec![1, 2, 3, 4];
        r.enqueue(req(1, turn1.clone(), 4));
        r.run_to_idle();

        // Turn 2 prompt = turn 1 prompt + assistant reply + new text, as a
        // conversation workload would build it.
        let mut turn2 = turn1;
        turn2.extend((0..4).map(|k| output_token(1, k)));
        turn2.extend([50, 51]);
        r.enqueue(Request::new(2, "u1", turn2.clone(), 1));
        let out = r.step();
        assert_eq!(out.admitted.len(), 1);
        // 8 of 10 tokens (prior prompt + reply) come from cache.
        assert_eq!(r.matched_tokens(&turn2), 10, "full prompt now cached");
        assert_eq!(out.completions[0].cached_prompt_tokens, 8);
    }

    #[test]
    fn kv_utilization_tracks_running_work() {
        let mut r = Replica::new(ReplicaId(0), small_profile(64, 8));
        assert_eq!(r.kv_utilization(), 0.0);
        r.enqueue(req(1, vec![1, 2, 3, 4], 8));
        r.step();
        let mid = r.kv_utilization();
        assert!(mid > 0.0);
        r.run_to_idle();
        // Finished data stays cached (utilization non-zero) but unpinned.
        assert!(r.kv_utilization() >= mid - 1e-9);
        assert_eq!(r.cache().reclaimable_tokens(), r.cache().used_tokens());
    }

    #[test]
    fn oversized_request_dropped_not_spun() {
        let mut r = Replica::new(ReplicaId(0), small_profile(16, 4));
        r.enqueue(req(1, (0..64).collect(), 1));
        let (completions, _) = r.run_to_idle();
        assert!(completions.is_empty());
        assert!(r.is_idle());
    }

    #[test]
    fn zero_output_target_clamped_to_one() {
        let mut r = Replica::new(ReplicaId(0), small_profile(1024, 4));
        r.enqueue(req(1, vec![1], 0));
        let (completions, _) = r.run_to_idle();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].generated_tokens, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = Replica::new(ReplicaId(0), small_profile(4096, 8));
        for i in 0..4 {
            r.enqueue(req(i, vec![1, 2, 3], 2));
        }
        r.run_to_idle();
        let s = r.stats();
        assert_eq!(s.admitted, 4);
        assert_eq!(s.completed, 4);
        assert_eq!(s.generated_tokens, 8);
        assert_eq!(s.prompt_tokens, 12);
        assert!(s.cached_prompt_tokens > 0, "identical prompts share cache");
    }

    #[test]
    fn fail_all_returns_everything_and_releases_memory() {
        let mut r = Replica::new(ReplicaId(0), small_profile(4096, 8));
        for i in 0..5 {
            r.enqueue(req(i, vec![i as u32, 1, 2], 6));
        }
        r.step(); // some admitted, maybe some still pending
        let lost = r.fail_all();
        assert_eq!(lost.len(), 5, "every in-flight request comes back");
        let mut ids: Vec<u64> = lost.iter().map(|l| l.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(r.is_idle());
        // All leases released: cached state is fully reclaimable.
        assert_eq!(r.cache().reclaimable_tokens(), r.cache().used_tokens());
        r.cache().check_invariants();
        // The replica still works if handed new load afterwards.
        r.enqueue(req(9, vec![7, 8], 2));
        let (done, _) = r.run_to_idle();
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn fail_all_on_idle_replica_is_empty() {
        let mut r = Replica::new(ReplicaId(0), small_profile(1024, 4));
        assert!(r.fail_all().is_empty());
        assert!(r.is_idle());
    }

    #[test]
    fn concurrency_lands_in_paper_range_on_l4() {
        // WildChat-ish requests: ~200-token prompts, ~250-token outputs.
        // The paper observes 20–50 concurrent requests on an L4 (§3.3).
        let mut r = Replica::new(ReplicaId(0), GpuProfile::L4_LLAMA_8B);
        for i in 0..200 {
            let prompt: Vec<u32> = (0..200).map(|t| t + i * 1000).collect();
            r.enqueue(req(u64::from(i), prompt, 250));
        }
        let out = r.step();
        assert!(
            (20..=80).contains(&out.admitted.len()),
            "admitted {} concurrent requests",
            out.admitted.len()
        );
    }

    mod engine_behavior {
        use super::*;
        use crate::engine::FcfsBatch;
        use crate::kvcache::{LruEvictor, NoEvict};

        #[test]
        fn chunked_prefill_bounds_iterations_and_delays_first_token() {
            let p = small_profile(4096, 8);
            // Unchunked: a 100-token prompt prefills in one long pass.
            let mut whole = Replica::new(ReplicaId(0), p);
            whole.enqueue(req(1, vec![1; 100], 2));
            let w1 = whole.step();
            assert_eq!(w1.first_tokens, vec![RequestId(1)]);

            // Chunk 40: three passes (40/40/20); the first token only
            // streams once prefill completes, and every iteration is
            // shorter than the unchunked pass.
            let mut chunked = Replica::with_engine(
                ReplicaId(1),
                p,
                Box::new(FcfsBatch::chunked(40)),
                Box::new(LruEvictor),
            );
            chunked.enqueue(req(1, vec![1; 100], 2));
            let c1 = chunked.step();
            assert_eq!(c1.admitted, vec![RequestId(1)]);
            assert!(c1.first_tokens.is_empty(), "still mid-prefill");
            assert!(c1.duration < w1.duration);
            let c2 = chunked.step();
            assert!(c2.first_tokens.is_empty(), "still mid-prefill");
            let c3 = chunked.step();
            assert_eq!(
                c3.first_tokens,
                vec![RequestId(1)],
                "first token streams the iteration prefill drains"
            );
            assert!(chunked.stats().chunked_steps >= 2);
            let (done, _) = chunked.run_to_idle();
            assert_eq!(done.len() + c3.completions.len(), 1);
            assert_eq!(whole.stats().chunked_steps, 0);
        }

        #[test]
        fn chunked_total_matches_unchunked_output() {
            // Chunking changes timing, never results: same completions,
            // token for token.
            let p = small_profile(2048, 4);
            let mk = |chunk: Option<u32>| {
                let batch = match chunk {
                    Some(c) => FcfsBatch::chunked(c),
                    None => FcfsBatch::new(),
                };
                let mut r =
                    Replica::with_engine(ReplicaId(0), p, Box::new(batch), Box::new(LruEvictor));
                for i in 0..6 {
                    r.enqueue(req(i, vec![i as u32; 30], 5));
                }
                let (mut done, _) = r.run_to_idle();
                done.sort_by_key(|c| c.id.0);
                done
            };
            assert_eq!(mk(None), mk(Some(7)));
        }

        #[test]
        fn preemption_requeues_and_counts() {
            // Tiny cache: two running requests saturate it; the
            // preemptive policy evicts the youngest decode once
            // pressure crosses the threshold, and the victim completes
            // later anyway.
            let p = small_profile(64, 8);
            let mut r = Replica::with_engine(
                ReplicaId(0),
                p,
                Box::new(FcfsBatch::new().with_preemption(0.5)),
                Box::new(LruEvictor),
            );
            for i in 0..3 {
                r.enqueue(req(i, vec![100 + i as u32, 2, 3], 20));
            }
            let (done, _) = r.run_to_idle();
            assert_eq!(done.len(), 3, "preempted work still completes");
            assert!(r.stats().preempted > 0, "pressure forced preemptions");
            assert!(r.is_idle());
            r.cache().check_invariants();
        }

        /// A hostile policy: preempts the *entire* batch once, then
        /// behaves FCFS. The resulting zero-duration step must read as
        /// progress (the requeued work is servable), not as a stuck
        /// head to be dropped.
        #[derive(Debug, Clone)]
        struct PreemptAllOnce {
            fired: bool,
        }

        impl crate::BatchPolicy for PreemptAllOnce {
            fn plan(&mut self, view: &crate::StepView<'_>) -> crate::BatchPlan {
                let mut plan = crate::BatchPlan::fcfs();
                if !self.fired && !view.running.is_empty() {
                    self.fired = true;
                    plan.admit_order = crate::AdmitOrder::default();
                    plan.preempt = (0..view.running.len()).collect();
                }
                plan
            }

            fn label(&self) -> String {
                "preempt-all-once".to_string()
            }
        }

        #[test]
        fn preempting_the_whole_batch_is_progress_not_a_stuck_head() {
            let mut r = Replica::with_engine(
                ReplicaId(0),
                small_profile(1024, 8),
                Box::new(PreemptAllOnce { fired: false }),
                Box::new(LruEvictor),
            );
            r.enqueue(req(1, vec![1, 2, 3], 4));
            let admit = r.step();
            assert_eq!(admit.admitted, vec![RequestId(1)]);
            let storm = r.step();
            assert_eq!(storm.preempted, vec![RequestId(1)]);
            assert!(!storm.worked(), "preempt-only step consumes no time");
            assert!(storm.progressed(), "but it is not a stuck step");
            // The drop-guard in run_to_idle must serve the requeued
            // request instead of discarding it.
            let (done, _) = r.run_to_idle();
            assert_eq!(done.len(), 1, "preempted request still completes");
            assert_eq!(r.stats().preempted, 1);
        }

        /// Admits shortest-output-first and records the lengths it was
        /// shown.
        #[derive(Debug, Clone, Default)]
        struct ShortestOutputFirst {
            seen: std::sync::Arc<std::sync::Mutex<Vec<u32>>>,
        }

        impl crate::BatchPolicy for ShortestOutputFirst {
            fn plan(&mut self, view: &crate::StepView<'_>) -> crate::BatchPlan {
                let mut order: Vec<usize> = (0..view.pending.len()).collect();
                order.sort_by_key(|&i| view.pending[i].target_output_tokens);
                let plan = crate::BatchPlan {
                    admit_order: crate::AdmitOrder::Indices(order),
                    ..crate::BatchPlan::fcfs()
                };
                let mut seen = self.seen.lock().expect("no panic under this lock");
                seen.extend(view.pending.iter().map(|p| p.target_output_tokens));
                plan
            }

            fn label(&self) -> String {
                "shortest-output-first".to_string()
            }
        }

        #[test]
        fn policies_see_the_output_length_the_replica_will_serve() {
            // A zero-output request is served as one token; a policy
            // ranking by output length must see that 1, not a 0 that
            // sorts it ahead of a real one-token request.
            let policy = ShortestOutputFirst::default();
            let seen = policy.seen.clone();
            let mut r = Replica::with_engine(
                ReplicaId(0),
                small_profile(1024, 1),
                Box::new(policy),
                Box::new(LruEvictor),
            );
            r.enqueue(req(1, vec![1], 1));
            r.enqueue(req(2, vec![2], 0));
            let out = r.step();
            assert_eq!(*seen.lock().unwrap(), [1, 1]);
            assert_eq!(
                out.admitted,
                vec![RequestId(1)],
                "a tie keeps arrival order"
            );
        }

        #[test]
        fn evicted_tokens_mirrored_into_stats() {
            let p = small_profile(16, 4);
            let mut r = Replica::new(ReplicaId(0), p);
            r.enqueue(req(1, vec![1, 2, 3, 4], 2));
            r.run_to_idle();
            r.enqueue(req(2, vec![9, 9, 9, 9, 9, 9], 2));
            r.run_to_idle();
            assert_eq!(r.stats().evicted_tokens, r.cache().evicted_tokens());
            assert!(
                r.stats().evicted_tokens > 0,
                "second prompt forced eviction"
            );
        }

        #[test]
        fn noevict_replica_fails_work_instead_of_recycling() {
            let p = small_profile(16, 4);
            let mut lru = Replica::new(ReplicaId(0), p);
            let mut pinned = Replica::with_engine(
                ReplicaId(1),
                p,
                Box::new(FcfsBatch::new()),
                Box::new(NoEvict),
            );
            for r in [&mut lru, &mut pinned] {
                r.enqueue(req(1, vec![1, 2, 3, 4, 5, 6, 7, 8], 2));
                r.run_to_idle();
                r.enqueue(req(2, vec![9, 9, 9, 9, 9, 9, 9, 9], 2));
            }
            let (lru_done, _) = lru.run_to_idle();
            let (pinned_done, _) = pinned.run_to_idle();
            assert_eq!(lru_done.len(), 1, "LRU recycles and serves");
            assert!(pinned_done.is_empty(), "NoEvict drops what cannot fit");
        }

        #[test]
        fn fail_all_counts_reclaimed_tokens() {
            let mut r = Replica::new(ReplicaId(0), small_profile(4096, 8));
            r.enqueue(req(1, vec![1, 2, 3, 4], 6));
            r.step();
            r.step(); // two tokens generated, lease pins 4 prompt tokens
            let lost = r.fail_all();
            assert_eq!(lost.len(), 1);
            // 4 pinned lease tokens + 2 private decode tokens.
            assert_eq!(r.stats().crash_reclaimed_tokens, 6);
            assert_eq!(r.cache().reclaimable_tokens(), r.cache().used_tokens());
        }
    }

    /// The head latch: a request the fit check turned away is turned
    /// away again without a cache walk only while the check would fail.
    /// Every step below is refereed by a fit check made afresh.
    mod head_latch {
        use super::*;

        /// The fit check without the latch: a full walk of the prompt.
        fn fits_afresh(r: &Replica, idx: usize) -> bool {
            let req = &r.pending[idx];
            let block = u64::from(r.profile.kv.block_tokens);
            let uncached = req.prompt.len() as u64 - r.cache.matched_tokens(&req.prompt);
            let charge = uncached.div_ceil(block) * block + block;
            let target = u64::from(req.target_output_tokens.max(1));
            r.committed_tokens() + charge + target <= r.profile.kv.capacity_tokens
        }

        /// Steps once; the head is admitted iff it fits afresh. Returns
        /// whether it was, and the ids the step completed.
        fn step_refereed(r: &mut Replica) -> (bool, Vec<u64>) {
            let head = r.pending.front().map(|q| q.id);
            let fits = !r.pending.is_empty() && fits_afresh(r, 0);
            let out = r.step();
            let admitted = head.is_some_and(|id| out.admitted.contains(&id));
            assert_eq!(admitted, fits, "head {head:?}");
            (admitted, out.completions.iter().map(|c| c.id.0).collect())
        }

        /// Steps until the head is admitted; returns the step at which
        /// each of `watch` completed, and the step that admitted it.
        fn run_until_admitted(r: &mut Replica, watch: &[u64]) -> (Vec<Option<usize>>, usize) {
            let mut completed = vec![None; watch.len()];
            for k in 0..200 {
                let (admitted, done) = step_refereed(r);
                for (at, id) in completed.iter_mut().zip(watch) {
                    if done.contains(id) {
                        *at = Some(k);
                    }
                }
                if admitted {
                    return (completed, k);
                }
                assert!(r.unfit.is_some(), "a refused head is latched");
            }
            panic!("head never admitted");
        }

        fn tokens(from: u32, n: u32) -> Vec<u32> {
            (from..from + n).collect()
        }

        #[test]
        fn a_completion_releases_the_latch_the_step_after_it() {
            // A commits 4 + 24 tokens while it runs; B needs 8 + 30 of
            // 64 and fits only once A is gone.
            let mut r = Replica::new(ReplicaId(0), small_profile(64, 16));
            r.enqueue(req(1, vec![1, 2, 3], 24));
            r.step();
            r.enqueue(req(2, vec![5, 6, 7], 30));
            let (completed, admitted) = run_until_admitted(&mut r, &[1]);
            assert_eq!(completed, [Some(admitted - 1)]);
            assert!(admitted > 20, "B waited out A's decode");
        }

        /// FCFS that preempts the second running request at its `at`-th
        /// plan.
        #[derive(Debug, Clone)]
        struct PreemptSecondAt {
            at: u32,
            calls: u32,
        }

        impl crate::BatchPolicy for PreemptSecondAt {
            fn plan(&mut self, _view: &crate::StepView<'_>) -> crate::BatchPlan {
                self.calls += 1;
                let mut plan = crate::BatchPlan::fcfs();
                if self.calls == self.at {
                    plan.preempt.push(1);
                }
                plan
            }

            fn label(&self) -> String {
                "preempt-second-at".to_string()
            }
        }

        #[test]
        fn a_preemption_releases_the_latch_in_its_own_step() {
            // A1 and A2 commit 24 each of 64; B needs 8 + 20. The fifth
            // plan preempts A2: the committed tokens fall while no node
            // is inserted or removed, and B is admitted in that step.
            let policy = Box::new(PreemptSecondAt { at: 5, calls: 0 });
            let mut r = Replica::with_engine(
                ReplicaId(0),
                small_profile(64, 16),
                policy,
                Box::new(crate::LruEvictor),
            );
            r.enqueue(req(1, vec![1, 2, 3], 20));
            r.enqueue(req(3, vec![5, 6, 7], 20));
            r.step();
            r.enqueue(req(2, vec![9, 10, 11], 20));
            for _ in 0..3 {
                assert_eq!(step_refereed(&mut r), (false, vec![]));
            }
            let (edits, committed) = (r.cache.tree_edits(), r.committed_tokens());
            assert_eq!(
                r.unfit.map(|u| (u.tree_edits, u.committed)),
                Some((edits, committed))
            );
            // The fit check runs after the preemption, inside the step,
            // so it is refereed by hand: 48 - 24 + 8 + 20 <= 64.
            let out = r.step();
            assert_eq!(
                (out.preempted, out.admitted),
                (vec![RequestId(3)], vec![RequestId(2)])
            );
            assert_eq!(r.cache.tree_edits(), edits + 1, "B's own leaf only");
        }

        #[test]
        fn an_insert_releases_the_latch_at_once() {
            // A commits 4 + 20; B's 16 uncached tokens charge 20, so B's
            // 21 output tokens miss by one. Four of its tokens cached
            // save a block: the next step admits it.
            let mut r = Replica::new(ReplicaId(0), small_profile(64, 16));
            r.enqueue(req(1, vec![1, 2, 3, 4], 20));
            r.step();
            let prompt = tokens(10, 16);
            r.enqueue(req(2, prompt.clone(), 21));
            for _ in 0..3 {
                assert_eq!(step_refereed(&mut r), (false, vec![]));
            }
            let latched = r.unfit.expect("B latched");
            assert!(r.prewarm(&prompt[..4]));
            assert_eq!(r.cache.tree_edits(), latched.tree_edits + 1);
            assert_eq!(step_refereed(&mut r), (true, vec![]));
        }

        #[test]
        fn an_eviction_releases_the_latch_and_the_recheck_sees_it() {
            // B's first 8 tokens are cached (W ran them), and two
            // decodes commit 14 + 24 of 128. With its prefix B would
            // fit once A1 is done; evicted, it waits for A2 as well.
            let mut r = Replica::new(ReplicaId(0), small_profile(128, 16));
            let prompt = tokens(10, 16);
            r.enqueue(req(9, prompt[..8].to_vec(), 1));
            r.run_to_idle();
            r.enqueue(req(1, vec![1, 2, 3, 4], 10));
            r.enqueue(req(3, vec![5, 6, 7, 8], 20));
            r.step();
            r.enqueue(req(2, prompt.clone(), 88));
            assert_eq!(step_refereed(&mut r), (false, vec![]));
            assert_eq!(r.cache.matched_tokens(&prompt), 8);
            let latched = r.unfit.expect("B latched");
            r.cache.clear_unpinned();
            assert_eq!(r.cache.matched_tokens(&prompt), 0);
            assert!(r.cache.tree_edits() > latched.tree_edits);
            let (completed, admitted) = run_until_admitted(&mut r, &[1, 3]);
            let (a1, a2) = (completed[0].expect("A1"), completed[1].expect("A2"));
            assert!(a1 < a2, "A1 finished first and freed too little");
            assert_eq!(a2 + 1, admitted);
        }

        #[test]
        fn a_different_request_at_the_head_is_checked_afresh() {
            // C's prompt is cached, B's is not; both are 8 tokens long
            // and ask for 30 beside A's 4 + 20 of 64: B misses, C fits.
            let stalled = || {
                let mut r = Replica::new(ReplicaId(0), small_profile(64, 16));
                r.enqueue(req(5, tokens(40, 8), 1));
                r.run_to_idle();
                r.enqueue(req(1, vec![1, 2, 3, 4], 20));
                r.step();
                r.enqueue(req(2, tokens(60, 8), 30));
                assert_eq!(step_refereed(&mut r), (false, vec![]));
                assert_eq!(r.unfit.map(|u| u.id), Some(RequestId(2)));
                r.pop_pending_head().expect("B");
                r
            };
            // Another id, the same prompt length and target.
            let mut r = stalled();
            r.enqueue(req(3, tokens(40, 8), 30));
            assert_eq!(step_refereed(&mut r), (true, vec![]));
            // The same id and prompt, a smaller target.
            let mut r = stalled();
            r.enqueue(req(2, tokens(60, 8), 10));
            assert_eq!(step_refereed(&mut r), (true, vec![]));
        }
    }

    mod properties {
        use super::*;
        use skywalker_sim::DetRng;

        fn random_specs(
            rng: &mut DetRng,
            max_len: u64,
            max_out: u64,
            max_n: u64,
        ) -> Vec<(u32, u32)> {
            let n = rng.range(1, max_n);
            (0..n)
                .map(|_| (rng.range(1, max_len) as u32, rng.range(1, max_out) as u32))
                .collect()
        }

        /// No request is lost or duplicated: everything enqueued either
        /// completes exactly once or is dropped as oversized.
        #[test]
        fn conservation_of_requests() {
            for case in 0..64u64 {
                let mut rng = DetRng::for_component(case, "batch/conservation-property");
                let specs = random_specs(&mut rng, 20, 10, 30);
                let cap = rng.range(32, 256);
                let mut r = Replica::new(ReplicaId(0), small_profile(cap, 8));
                for (i, (plen, out)) in specs.iter().enumerate() {
                    let prompt: Vec<u32> = (0..*plen).map(|t| t + i as u32 * 100).collect();
                    r.enqueue(req(i as u64, prompt, *out));
                }
                let (completions, _) = r.run_to_idle();
                assert!(r.is_idle(), "case {case}");
                let mut ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), completions.len(), "case {case}: no duplicates");
                for c in &completions {
                    let (plen, out) = specs[c.id.0 as usize];
                    assert_eq!(c.prompt_tokens, plen, "case {case}");
                    assert_eq!(c.generated_tokens, out.max(1), "case {case}");
                }
                r.cache().check_invariants();
            }
        }

        /// KV utilization never exceeds 1 and the cache never exceeds
        /// capacity mid-run.
        #[test]
        fn memory_never_oversubscribed() {
            for case in 0..64u64 {
                let mut rng = DetRng::for_component(case, "batch/memory-property");
                let specs = random_specs(&mut rng, 30, 20, 20);
                let mut r = Replica::new(ReplicaId(0), small_profile(128, 8));
                for (i, (plen, out)) in specs.iter().enumerate() {
                    let prompt: Vec<u32> = (0..*plen).collect();
                    r.enqueue(req(i as u64, prompt, *out));
                }
                let mut guard = 0;
                while !r.is_idle() && guard < 10_000 {
                    let out = r.step();
                    if !out.worked() && out.admitted.is_empty() {
                        r.run_to_idle();
                        break;
                    }
                    let resident = r.cache().used_tokens();
                    assert!(resident <= 128, "case {case}");
                    assert!(r.kv_utilization() <= 1.0, "case {case}");
                    r.cache().check_invariants();
                    guard += 1;
                }
            }
        }
    }
}
