//! Decomposing each request's latency into exhaustive, non-overlapping
//! phases.
//!
//! A request's recorded milestones form a *main chain* from its first
//! [`Issued`](crate::trace::TraceEventKind::Issued) to its terminal event (or
//! last observation). Every interval between consecutive milestones is
//! charged to exactly one [`Phase`], chosen by the milestone the
//! interval *starts* from — e.g. the time after `LbQueued` is balancer
//! queueing, the time after `Admitted` is prefill. Because the chain
//! partitions `[first, last]` and phase durations are integer
//! microseconds, the invariant is exact, not approximate:
//!
//! > per-request phase durations sum to the request's end-to-end
//! > latency, microsecond for microsecond.
//!
//! The one parallel leg — first-token delivery racing the decode — is
//! excluded from the main chain and accounted in the separate TTFT
//! decomposition, which satisfies the same conservation invariant
//! against the client-observed TTFT.

use std::collections::BTreeMap;

use skywalker_sim::{SimDuration, SimTime};

use crate::trace::event::TraceEventKind;
use crate::trace::recorder::TraceSummary;

/// Where one microsecond of a request's life was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// In flight from the client to a balancer (or to a retry decision).
    ClientNet,
    /// Parked between losing a path and re-issuing.
    RetryBackoff,
    /// Queued inside a balancer awaiting a dispatch decision.
    LbQueue,
    /// In flight between balancers (selective pushing).
    ForwardNet,
    /// In flight from the dispatching balancer to the replica.
    DispatchNet,
    /// In a replica's pending queue while the replica was admitting —
    /// ordinary batch queueing.
    AdmissionWait,
    /// In a replica's pending queue while the replica could admit
    /// nothing for whole iterations — queueing caused by KV-memory
    /// pressure, not compute.
    KvStall,
    /// Admitted and prefilling, up to the first output token.
    Prefill,
    /// Decoding output tokens.
    Decode,
    /// Preempted out of the running batch, awaiting re-admission.
    PreemptWait,
    /// Built KV state in flight from a prefill replica to its decode
    /// replica (disaggregated handoff).
    KvTransfer,
    /// Finished response in flight back to the client.
    DeliveryNet,
    /// First output token in flight back to the client. Only appears in
    /// the TTFT decomposition — in the end-to-end chain this leg runs in
    /// parallel with [`Decode`](Phase::Decode).
    FirstTokenNet,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 13] = [
        Phase::ClientNet,
        Phase::RetryBackoff,
        Phase::LbQueue,
        Phase::ForwardNet,
        Phase::DispatchNet,
        Phase::AdmissionWait,
        Phase::KvStall,
        Phase::Prefill,
        Phase::Decode,
        Phase::PreemptWait,
        Phase::KvTransfer,
        Phase::DeliveryNet,
        Phase::FirstTokenNet,
    ];

    /// Number of phases.
    const COUNT: usize = Self::ALL.len();

    /// Stable display label (also the diff-table key).
    pub fn label(&self) -> &'static str {
        match self {
            Phase::ClientNet => "client-net",
            Phase::RetryBackoff => "retry-backoff",
            Phase::LbQueue => "lb-queue",
            Phase::ForwardNet => "forward-net",
            Phase::DispatchNet => "dispatch-net",
            Phase::AdmissionWait => "admission-wait",
            Phase::KvStall => "kv-stall",
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::PreemptWait => "preempt-wait",
            Phase::KvTransfer => "kv-transfer",
            Phase::DeliveryNet => "delivery-net",
            Phase::FirstTokenNet => "first-token-net",
        }
    }

    /// Position in [`ALL`](Self::ALL), which lists the variants in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Integer-exact time per [`Phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown([SimDuration; Phase::COUNT]);

impl PhaseBreakdown {
    /// Time spent in one phase.
    pub fn get(&self, phase: Phase) -> SimDuration {
        self.0[phase.index()]
    }

    /// Adds time to one phase (saturating, like all sim arithmetic).
    pub fn add(&mut self, phase: Phase, d: SimDuration) {
        self.0[phase.index()] += d;
    }

    /// Sum over all phases — by the conservation invariant, the
    /// request's end-to-end (or TTFT) latency.
    pub fn total(&self) -> SimDuration {
        self.0.iter().fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    /// Iterates `(phase, duration)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, SimDuration)> + '_ {
        Phase::ALL.iter().map(move |p| (*p, self.get(*p)))
    }
}

/// How a traced request's timeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceOutcome {
    /// The full response reached the client.
    Completed,
    /// The request terminally failed.
    Failed,
    /// The timeline just stops — still in flight at run end, or its
    /// tail fell past the recorder's capacity.
    #[default]
    Unfinished,
}

/// One request's attributed timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// Request id.
    pub req: u64,
    /// End-to-end phase decomposition. Sums exactly to
    /// [`e2e`](Self::e2e).
    pub phases: PhaseBreakdown,
    /// First `Issued` to terminal (or last observed) milestone.
    pub e2e: SimDuration,
    /// TTFT decomposition, when a first token reached the client.
    pub ttft: Option<TtftTrace>,
    /// How the timeline ended.
    pub outcome: TraceOutcome,
    /// Forwarding-chain length (1 = served by the first balancer); 0 if
    /// the request never reached one.
    pub hops: u8,
    /// Re-issues after the first (retries, reroutes).
    pub retries: u32,
    /// Times the request was preempted out of a running batch.
    pub preemptions: u32,
}

/// The TTFT side of a request's attribution: the main chain clipped at
/// first-token production, plus the parallel delivery leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtftTrace {
    /// Phase decomposition; sums exactly to [`ttft`](Self::ttft).
    pub phases: PhaseBreakdown,
    /// First `Issued` to `FirstTokenDelivered`.
    pub ttft: SimDuration,
}

/// The attribution pass over one recorded run.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Per-request timelines, in order of first appearance.
    pub requests: Vec<RequestTrace>,
    /// Events the recorder could not store. Non-zero means
    /// [`requests`](Self::requests) covers a prefix of the run.
    pub dropped_events: u64,
}

impl Attribution {
    /// Runs the attribution pass over a recorded trace: one walk over
    /// the log, folding each event into its request's running totals.
    pub fn from_summary(summary: &TraceSummary) -> Attribution {
        let mut folds: Vec<Fold> = Vec::new();
        let mut slot_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut stalls: BTreeMap<u32, StallClock> = BTreeMap::new();
        for ev in &summary.events {
            if let TraceEventKind::ReplicaStall { replica, until } = ev.kind {
                stalls.entry(replica).or_default().open(ev.at, until);
            }
            let Some(req) = ev.kind.request() else {
                continue;
            };
            let slot = *slot_of.entry(req).or_insert_with(|| {
                folds.push(Fold::new(req));
                folds.len() - 1
            });
            folds[slot].step(ev.at, ev.kind, &stalls);
        }
        // Collected in place, into the folds' own (larger, and grown by
        // doubling) allocation: give the difference back.
        let mut requests: Vec<RequestTrace> = folds.into_iter().map(Fold::finish).collect();
        requests.shrink_to_fit();
        Attribution {
            requests,
            dropped_events: summary.dropped_events,
        }
    }

    /// The completed requests' timelines.
    pub fn completed(&self) -> impl Iterator<Item = &RequestTrace> {
        self.requests
            .iter()
            .filter(|r| r.outcome == TraceOutcome::Completed)
    }
}

/// The phase an interval *starting* at this milestone is charged to, or
/// `None` when the milestone is terminal / not part of the main chain.
fn outgoing_phase(kind: &TraceEventKind) -> Option<Phase> {
    use TraceEventKind::*;
    match kind {
        Issued { .. } => Some(Phase::ClientNet),
        RetryWait { .. } => Some(Phase::RetryBackoff),
        LbQueued { .. } => Some(Phase::LbQueue),
        Forwarded { .. } => Some(Phase::ForwardNet),
        Dispatched { .. } => Some(Phase::DispatchNet),
        ReplicaQueued { .. } => Some(Phase::AdmissionWait),
        Admitted { .. } => Some(Phase::Prefill),
        FirstToken { .. } => Some(Phase::Decode),
        Preempted { .. } => Some(Phase::PreemptWait),
        KvTransfer { .. } => Some(Phase::KvTransfer),
        ReplicaDone { .. } => Some(Phase::DeliveryNet),
        Delivered { .. } | Failed { .. } => None,
        FirstTokenDelivered { .. } | ReplicaStall { .. } | Evicted { .. } => None,
    }
}

/// One replica's stall windows so far, as a clock that only runs while
/// the replica is stalled. Windows never overlap (a replica runs one
/// iteration at a time) and the log is in time order, so only the
/// latest window can reach past the instant being asked about.
#[derive(Default)]
struct StallClock {
    /// Whole length of every window opened so far.
    total: SimDuration,
    /// End of the latest window.
    until: SimTime,
}

impl StallClock {
    fn open(&mut self, at: SimTime, until: SimTime) {
        self.total += until.saturating_since(at);
        self.until = until;
    }

    /// Stalled time before `at`. The stalled part of `[a, b)` is
    /// `before(b) - before(a)`.
    fn before(&self, at: SimTime) -> SimDuration {
        self.total - self.until.saturating_since(at)
    }
}

/// One request's attribution so far: the [`RequestTrace`] being built
/// and where its main chain stands.
#[derive(Default)]
struct Fold {
    /// `e2e` and `ttft` are filled in by [`finish`](Self::finish).
    trace: RequestTrace,
    /// First main-chain milestone.
    start: Option<SimTime>,
    /// Latest main-chain milestone, and the phase the interval after it
    /// is charged to.
    last_at: SimTime,
    open: Option<Phase>,
    /// When the latest milestone is `ReplicaQueued`: the replica and
    /// its stall clock's reading then.
    queued: Option<(u32, SimDuration)>,
    /// The first `FirstToken`: when, and the phases up to it — the
    /// main chain clipped at first-token production.
    first_token: Option<(SimTime, PhaseBreakdown)>,
    /// The first `FirstTokenDelivered`.
    first_delivery: Option<SimTime>,
}

impl Fold {
    fn new(req: u64) -> Fold {
        let mut fold = Fold::default();
        fold.trace.req = req;
        fold
    }

    fn step(&mut self, at: SimTime, kind: TraceEventKind, stalls: &BTreeMap<u32, StallClock>) {
        use TraceEventKind::*;
        if let FirstTokenDelivered { .. } = kind {
            // The parallel first-token-delivery leg is not part of the
            // main chain. First observation wins — matches the
            // lifecycle ledger's first token.
            self.first_delivery.get_or_insert(at);
            return;
        }
        if self.trace.outcome != TraceOutcome::Unfinished {
            // A crash can fail a request whose last iteration's outputs
            // still stream out afterwards; everything past the terminal
            // milestone is that echo, not lifecycle.
            return;
        }
        let stalled_before = |replica| {
            stalls
                .get(&replica)
                .map_or(SimDuration::ZERO, |c| c.before(at))
        };
        let trace = &mut self.trace;
        let span = at.saturating_since(self.last_at);
        match (self.open, self.queued) {
            // Waiting on a stalled replica is memory pressure, not
            // ordinary queueing; integer arithmetic keeps the split
            // summing exactly to the original interval.
            (Some(_), Some((replica, before))) => {
                let stalled = stalled_before(replica) - before;
                trace.phases.add(Phase::KvStall, stalled);
                trace.phases.add(Phase::AdmissionWait, span - stalled);
            }
            (Some(phase), None) => trace.phases.add(phase, span),
            (None, _) => {}
        }
        match kind {
            Issued { .. } if self.start.is_some() => trace.retries += 1,
            LbQueued { hops, .. } => trace.hops = trace.hops.max(hops.saturating_add(1)),
            Preempted { .. } => trace.preemptions += 1,
            FirstToken { .. } => _ = self.first_token.get_or_insert((at, trace.phases)),
            Delivered { .. } => trace.outcome = TraceOutcome::Completed,
            Failed { .. } => trace.outcome = TraceOutcome::Failed,
            _ => {}
        }
        self.start.get_or_insert(at);
        self.last_at = at;
        self.open = outgoing_phase(&kind);
        self.queued = match kind {
            ReplicaQueued { replica, .. } => Some((replica, stalled_before(replica))),
            _ => None,
        };
    }

    fn finish(self) -> RequestTrace {
        let start = self.start.unwrap_or(self.last_at);
        let first_token = self.first_token.zip(self.first_delivery);
        let ttft = first_token.map(|((produced, mut phases), delivered)| {
            // Causality: any delivery's production is at or after the
            // first production, so this leg is non-negative.
            phases.add(Phase::FirstTokenNet, delivered.saturating_since(produced));
            let ttft = delivered.saturating_since(start);
            TtftTrace { phases, ttft }
        });
        let e2e = self.last_at.saturating_since(start);
        RequestTrace {
            e2e,
            ttft,
            ..self.trace
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::event::TraceEvent;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn summary(events: Vec<(u64, TraceEventKind)>) -> TraceSummary {
        TraceSummary {
            events: events
                .into_iter()
                .map(|(t, kind)| TraceEvent { at: us(t), kind })
                .collect(),
            capacity: 1 << 16,
            dropped_events: 0,
        }
    }

    use TraceEventKind::*;

    #[test]
    fn phase_discriminants_index_all() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, i, "{phase:?} is out of place in Phase::ALL");
        }
    }

    #[test]
    fn happy_path_conserves_and_maps_phases() {
        let a = Attribution::from_summary(&summary(vec![
            (0, Issued { req: 1 }),
            (
                10,
                LbQueued {
                    req: 1,
                    lb: 0,
                    hops: 0,
                },
            ),
            (
                30,
                Dispatched {
                    req: 1,
                    lb: 0,
                    replica: 2,
                },
            ),
            (45, ReplicaQueued { req: 1, replica: 2 }),
            (65, Admitted { req: 1, replica: 2 }),
            (165, FirstToken { req: 1, replica: 2 }),
            (175, FirstTokenDelivered { req: 1 }),
            (365, ReplicaDone { req: 1, replica: 2 }),
            (380, Delivered { req: 1 }),
        ]));
        assert_eq!(a.requests.len(), 1);
        let r = &a.requests[0];
        assert_eq!(r.outcome, TraceOutcome::Completed);
        assert_eq!(r.e2e, SimDuration::from_micros(380));
        assert_eq!(r.phases.total(), r.e2e);
        assert_eq!(r.phases.get(Phase::ClientNet), SimDuration::from_micros(10));
        assert_eq!(r.phases.get(Phase::LbQueue), SimDuration::from_micros(20));
        assert_eq!(
            r.phases.get(Phase::DispatchNet),
            SimDuration::from_micros(15)
        );
        assert_eq!(
            r.phases.get(Phase::AdmissionWait),
            SimDuration::from_micros(20)
        );
        assert_eq!(r.phases.get(Phase::Prefill), SimDuration::from_micros(100));
        assert_eq!(r.phases.get(Phase::Decode), SimDuration::from_micros(200));
        assert_eq!(
            r.phases.get(Phase::DeliveryNet),
            SimDuration::from_micros(15)
        );
        assert_eq!((r.hops, r.retries, r.preemptions), (1, 0, 0));
        // TTFT: chain clipped at production (165) + delivery leg (10).
        let t = r.ttft.as_ref().expect("first token was delivered");
        assert_eq!(t.ttft, SimDuration::from_micros(175));
        assert_eq!(t.phases.total(), t.ttft);
        assert_eq!(
            t.phases.get(Phase::FirstTokenNet),
            SimDuration::from_micros(10)
        );
        assert_eq!(t.phases.get(Phase::Decode), SimDuration::ZERO);
    }

    #[test]
    fn stall_windows_split_admission_wait() {
        let a = Attribution::from_summary(&summary(vec![
            (0, Issued { req: 1 }),
            (
                10,
                LbQueued {
                    req: 1,
                    lb: 0,
                    hops: 0,
                },
            ),
            (
                10,
                Dispatched {
                    req: 1,
                    lb: 0,
                    replica: 0,
                },
            ),
            (20, ReplicaQueued { req: 1, replica: 0 }),
            // Two stalled iterations while queued; one on another replica
            // (ignored) and one clipped by the admission instant.
            (
                30,
                ReplicaStall {
                    replica: 0,
                    until: us(50),
                },
            ),
            (
                30,
                ReplicaStall {
                    replica: 1,
                    until: us(90),
                },
            ),
            (
                60,
                ReplicaStall {
                    replica: 0,
                    until: us(120),
                },
            ),
            (100, Admitted { req: 1, replica: 0 }),
            (110, FirstToken { req: 1, replica: 0 }),
            (120, ReplicaDone { req: 1, replica: 0 }),
            (130, Delivered { req: 1 }),
        ]));
        let r = &a.requests[0];
        // Queued [20,100): stalled [30,50) + [60,100-clip) = 20 + 40.
        assert_eq!(r.phases.get(Phase::KvStall), SimDuration::from_micros(60));
        assert_eq!(
            r.phases.get(Phase::AdmissionWait),
            SimDuration::from_micros(20)
        );
        assert_eq!(r.phases.total(), r.e2e);
    }

    #[test]
    fn preemption_and_retry_paths_conserve() {
        let a = Attribution::from_summary(&summary(vec![
            (0, Issued { req: 1 }),
            (5, RetryWait { req: 1 }), // dead balancer
            (1005, Issued { req: 1 }),
            (
                1015,
                LbQueued {
                    req: 1,
                    lb: 1,
                    hops: 0,
                },
            ),
            (1020, Forwarded { req: 1, from: 1 }),
            (
                1060,
                LbQueued {
                    req: 1,
                    lb: 2,
                    hops: 1,
                },
            ),
            (
                1070,
                Dispatched {
                    req: 1,
                    lb: 2,
                    replica: 0,
                },
            ),
            (1080, ReplicaQueued { req: 1, replica: 0 }),
            (1090, Admitted { req: 1, replica: 0 }),
            (1190, FirstToken { req: 1, replica: 0 }),
            (1200, FirstTokenDelivered { req: 1 }),
            (1250, Preempted { req: 1, replica: 0 }),
            (1300, Admitted { req: 1, replica: 0 }),
            (1400, FirstToken { req: 1, replica: 0 }),
            (1410, FirstTokenDelivered { req: 1 }), // re-emission: ignored
            (1500, ReplicaDone { req: 1, replica: 0 }),
            (1510, Delivered { req: 1 }),
        ]));
        let r = &a.requests[0];
        assert_eq!(r.outcome, TraceOutcome::Completed);
        assert_eq!(r.e2e, SimDuration::from_micros(1510));
        assert_eq!(r.phases.total(), r.e2e);
        assert_eq!(
            r.phases.get(Phase::RetryBackoff),
            SimDuration::from_micros(1000)
        );
        assert_eq!(
            r.phases.get(Phase::ForwardNet),
            SimDuration::from_micros(40)
        );
        assert_eq!(
            r.phases.get(Phase::PreemptWait),
            SimDuration::from_micros(50)
        );
        // Two prefills (100 each), decode 1250-1190 + 1500-1400.
        assert_eq!(r.phases.get(Phase::Prefill), SimDuration::from_micros(200));
        assert_eq!(r.phases.get(Phase::Decode), SimDuration::from_micros(160));
        assert_eq!((r.hops, r.retries, r.preemptions), (2, 1, 1));
        let t = r.ttft.as_ref().expect("delivered");
        assert_eq!(t.ttft, SimDuration::from_micros(1200));
        assert_eq!(t.phases.total(), t.ttft);
    }

    /// A disaggregated handoff: prefill replica emits the first token
    /// and finishes its leg, the KV ships to a decode replica, the
    /// decode leg runs there. The transfer interval lands in
    /// `Phase::KvTransfer` and conservation still holds exactly.
    #[test]
    fn disagg_handoff_charges_kv_transfer() {
        let a = Attribution::from_summary(&summary(vec![
            (0, Issued { req: 1 }),
            (
                10,
                Dispatched {
                    req: 1,
                    lb: 0,
                    replica: 0,
                },
            ),
            (20, ReplicaQueued { req: 1, replica: 0 }),
            (30, Admitted { req: 1, replica: 0 }),
            (130, FirstToken { req: 1, replica: 0 }),
            (140, FirstTokenDelivered { req: 1 }),
            (130, ReplicaDone { req: 1, replica: 0 }),
            (
                130,
                KvTransfer {
                    req: 1,
                    from: 0,
                    to: 1,
                    tokens: 513,
                },
            ),
            (330, ReplicaQueued { req: 1, replica: 1 }),
            (340, Admitted { req: 1, replica: 1 }),
            (360, FirstToken { req: 1, replica: 1 }),
            (760, ReplicaDone { req: 1, replica: 1 }),
            (775, Delivered { req: 1 }),
        ]));
        let r = &a.requests[0];
        assert_eq!(r.outcome, TraceOutcome::Completed);
        assert_eq!(r.phases.total(), r.e2e);
        assert_eq!(
            r.phases.get(Phase::KvTransfer),
            SimDuration::from_micros(200)
        );
        // Decode: leg 2's FirstToken→ReplicaDone (leg 1's decode span
        // is zero — prefill-only legs finish at their first token).
        assert_eq!(r.phases.get(Phase::Decode), SimDuration::from_micros(400));
        // The TTFT view never sees the transfer: it is clipped at the
        // prefill replica's first-token production.
        let t = r.ttft.as_ref().expect("delivered");
        assert_eq!(t.ttft, SimDuration::from_micros(140));
        assert_eq!(t.phases.total(), t.ttft);
        assert_eq!(t.phases.get(Phase::KvTransfer), SimDuration::ZERO);
    }

    #[test]
    fn events_after_terminal_are_ignored() {
        let a = Attribution::from_summary(&summary(vec![
            (0, Issued { req: 1 }),
            (10, ReplicaQueued { req: 1, replica: 0 }),
            (20, Failed { req: 1 }),
            // Crash echo: the dying iteration's outputs still stream out.
            (30, FirstToken { req: 1, replica: 0 }),
            (40, ReplicaDone { req: 1, replica: 0 }),
        ]));
        let r = &a.requests[0];
        assert_eq!(r.outcome, TraceOutcome::Failed);
        assert_eq!(r.e2e, SimDuration::from_micros(20));
        assert_eq!(r.phases.total(), r.e2e);
        assert!(r.ttft.is_none());
    }

    #[test]
    fn unfinished_timelines_are_marked() {
        let a = Attribution::from_summary(&summary(vec![
            (0, Issued { req: 1 }),
            (
                10,
                LbQueued {
                    req: 1,
                    lb: 0,
                    hops: 0,
                },
            ),
        ]));
        assert_eq!(a.requests[0].outcome, TraceOutcome::Unfinished);
        assert_eq!(a.requests[0].e2e, SimDuration::from_micros(10));
        assert_eq!(a.requests[0].phases.total(), a.requests[0].e2e);
        assert_eq!(a.completed().count(), 0);
    }
}
