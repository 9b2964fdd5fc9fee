//! The disaggregation layer: a request dispatched to a prefill-only
//! replica runs as two legs — a one-token prefill leg there, then a
//! decode leg on a decode-capable replica after an explicit, priced
//! [`Ev::KvTransfer`]. The client sees one request throughout.

use skywalker_net::Region;
use skywalker_replica::{output_token, Completion, Request};
use skywalker_trace::TraceEventKind;

use super::{Ev, Fabric, ReplicaHealth, Sched};

/// Which leg of a disaggregated request is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DisaggStage {
    /// Running the prompt phase on a prefill-only replica.
    Prefill,
    /// Shipped (or shipping) to a decode replica.
    Decode,
}

/// Fabric-side bookkeeping for one disaggregated request, held in its
/// [`ReqState`](super::ReqState) from the prefill-replica intercept
/// until the decode leg's completion leaves its replica (or the request
/// fails or retries).
pub(crate) struct DisaggMeta {
    /// The request exactly as the client issued it; failure paths
    /// restore it so retries re-enter the pipeline unmodified.
    orig: Request,
    /// Current leg.
    pub(super) stage: DisaggStage,
    /// Prompt tokens the prefill leg served from its prefix cache —
    /// the cache credit the client's completion reports.
    cached_at_prefill: u32,
}

impl Fabric {
    /// The handoff bookkeeping slot of in-flight request `id`.
    fn handoff(&mut self, id: u64) -> Option<&mut Option<Box<DisaggMeta>>> {
        self.reqs.get_mut(&id).map(|state| &mut state.disagg)
    }

    /// Whether no request still carries handoff bookkeeping — what a
    /// drained run must end with (an order-free walk, debug builds only).
    pub(crate) fn handoffs_retired(&self) -> bool {
        self.reqs.values().all(|state| state.disagg.is_none())
    }

    /// Intercepts a fresh request at a prefill-only replica into its
    /// one-token prefill leg, remembering the original.
    pub(crate) fn split_prefill_leg(&mut self, req: Request) -> Request {
        let mut leg1 = req.clone();
        leg1.target_output_tokens = 1;
        let meta = DisaggMeta {
            orig: req,
            stage: DisaggStage::Prefill,
            cached_at_prefill: 0,
        };
        *self
            .handoff(leg1.id.0)
            .expect("a request at a replica is in flight") = Some(Box::new(meta));
        leg1
    }

    /// Rewrites the decode leg's completion to the client's view — the
    /// original prompt length, the prefill leg's cache credit, both
    /// legs' generated tokens — and retires the bookkeeping.
    pub(crate) fn merge_decode_leg(&mut self, c: Completion) -> Completion {
        let meta = self
            .handoff(c.id.0)
            .and_then(Option::take)
            .expect("decode stage implies meta");
        Completion {
            id: c.id,
            prompt_tokens: meta.orig.prompt_len(),
            cached_prompt_tokens: meta.cached_at_prefill,
            generated_tokens: c.generated_tokens + 1,
        }
    }

    /// Strips disagg bookkeeping off a failing or retrying request,
    /// returning the original client request so it re-enters the
    /// pipeline unmodified. A request with no disagg meta passes
    /// through untouched.
    pub(crate) fn restore_original(&mut self, req: Request) -> Request {
        match self.handoff(req.id.0).and_then(Option::take) {
            Some(meta) => meta.orig,
            None => req,
        }
    }

    /// The decode replica a prefill handoff ships to: Active,
    /// decode-capable, preferring the prefill's own region, ranked by
    /// tier-weighted prefix residency (GPU-resident matches count
    /// double vs host-demoted ones — promoting costs a transfer), then
    /// the shortest queue, then the lowest id. Falls back to any region
    /// when the home region lost its decode capacity mid-run; `None`
    /// only when the whole fleet did.
    fn pick_decode_target(&self, region: Region, prompt: &[u32]) -> Option<usize> {
        let best_where = |home_only: bool| {
            self.replicas
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_active() && s.role.decodes())
                .filter(|(_, s)| !home_only || s.region == region)
                .min_by_key(|(i, s)| {
                    let (gpu, host) = s.replica.cache().matched_tokens_tiered(prompt);
                    let load = s.replica.pending_len() + s.replica.running_len();
                    (std::cmp::Reverse(gpu * 2 + host), load, *i)
                })
                .map(|(i, _)| i)
        };
        best_where(true).or_else(|| best_where(false))
    }

    /// Starts the prefill→decode handoff for a prefill-leg completion
    /// on `from`: builds the decode leg, picks its target, emits the
    /// [`TraceEventKind::KvTransfer`] span, and schedules the landing
    /// after the modeled interconnect delay.
    pub(crate) fn start_handoff(&mut self, from: u32, c: &Completion, sched: &mut Sched) {
        let req = c.id.0;
        let meta = self
            .handoff(req)
            .and_then(Option::as_mut)
            .expect("prefill stage implies meta");
        meta.stage = DisaggStage::Decode;
        meta.cached_at_prefill = c.cached_prompt_tokens;
        // The decode leg replays the prompt plus the first token the
        // prefill replica produced — exactly the KV state the transfer
        // ships — and `output_offset = 1` keeps its generated token
        // ids identical to the colocated stream.
        let mut prompt = meta.orig.prompt.clone();
        prompt.push(output_token(req, 0));
        let leg2 = Request {
            id: meta.orig.id,
            session_key: meta.orig.session_key.clone(),
            prompt,
            target_output_tokens: meta.orig.target_output_tokens - 1,
            output_offset: 1,
        };
        let tokens = leg2.prompt.len() as u64;
        let sender = &self.replicas[from as usize];
        let Some(to) = self.pick_decode_target(sender.region, &leg2.prompt) else {
            // Every decode target died since build-time validation:
            // treat the request like a crash casualty.
            return self.fail_or_reroute(leg2, sched);
        };
        let to = to as u32;
        let delay = sender.replica.profile().kv_transfer_time(tokens);
        let shipped = TraceEventKind::KvTransfer {
            req,
            from,
            to,
            tokens,
        };
        self.obs.trace(sched.now(), shipped);
        self.transfers.started += 1;
        self.transfers.tokens_sent += tokens;
        sched.after(delay, Ev::KvTransfer { to, req: leg2 });
    }

    pub(crate) fn on_kv_transfer(&mut self, to: u32, req: Request, sched: &mut Sched) {
        let tokens = req.prompt.len() as u64;
        let aimed = &self.replicas[to as usize];
        let target = if aimed.health == ReplicaHealth::Crashed {
            // The decode side died with the KV on the wire: re-ship to a
            // survivor (the extra hop is not re-billed — the prefill
            // side streams to the new target in the same window).
            self.pick_decode_target(aimed.region, &req.prompt)
        } else {
            // A retired/draining target that raced the transfer still
            // owes this landing service (the receive path un-retires it).
            Some(to as usize)
        };
        let Some(to) = target else {
            self.transfers.aborted += 1;
            self.transfers.tokens_aborted += tokens;
            return self.fail_or_reroute(req, sched);
        };
        self.transfers.landed += 1;
        self.transfers.tokens_landed += tokens;
        // The shipped KV state materializes in the decode replica's
        // prefix cache, so admission skips the re-prefill; a failed
        // prewarm (cache too small) just means the decode replica
        // recomputes.
        self.replicas[to].replica.prewarm(&req.prompt);
        let replica = to as u32;
        sched.at(sched.now(), Ev::ReplicaReceive { replica, req });
    }
}
