//! Streaming traffic sources: the open workload surface.
//!
//! The paper's experiments are driven by closed-loop client populations,
//! and the original API materialized every request of every client into a
//! `Vec<ClientSpec>` before the simulation started — memory proportional
//! to the total request count, and a closed set of four generators. A
//! [`TrafficSource`] inverts that: the fabric *pulls* client arrivals as
//! simulated time advances, sources generate each client's programs
//! lazily at its arrival instant, and anything implementing the trait —
//! inside this crate or out — plugs into `ScenarioBuilder` exactly like a
//! custom routing policy plugs into the balancer.
//!
//! Most workloads differ only in *content*: what the client in slot `k`
//! asks. That is one method, [`ClientGen::client`], and [`SlotSource`]
//! supplies everything else once — the `(region, count)` slots, the
//! [`ArrivalSchedule`] walk, the request-id range, the label, and the
//! cadence-invariant `next_batch`. The paper's workloads are that source
//! over a generator ([`crate::ConversationSource`], [`crate::TotSource`],
//! composed by [`MergeSource`]); a pre-materialized `Vec<ClientSpec>`
//! adapts through [`ClientListSource`]. A workload with its own arrival
//! process implements [`TrafficSource`] directly.
//!
//! # Contract
//!
//! - [`TrafficSource::next_batch`] returns every arrival with `at <= now`
//!   that has not been returned before, with nondecreasing `at` within
//!   the batch. Successive calls use nondecreasing `now`.
//! - [`TrafficSource::is_exhausted`] is `true` once no future call can
//!   produce another arrival. A source that never exhausts is legal (an
//!   open-ended diurnal feed); the run then ends at the fabric deadline.
//! - Arrival times and client content must depend only on the source's
//!   own seeded state, never on the polling cadence: the fabric may call
//!   `next_batch` at any interval. In particular, the `rng` parameter
//!   must **not** influence the emitted arrivals — its draw sequence
//!   varies with how often the source is polled, and inspection paths
//!   (`drain`, `Scenario::clients_until`) hand the source a different
//!   stream than the run does. Derive randomness from your own seed
//!   (`DetRng::for_component(seed, label)`), as the built-ins do; the
//!   parameter exists for side-channels that do not feed back into the
//!   stream (e.g. sampling diagnostics).
//! - Request ids must be unique *across* sources sharing a run. When
//!   composing sources (see [`MergeSource`]), give each a disjoint id
//!   range via [`SlotSource::with_first_request_id`].

use std::fmt;

use skywalker_net::Region;
use skywalker_sim::{DetRng, SimDuration, SimTime};

use crate::program::{ClientSpec, IdGen};

/// One traffic event: a closed-loop client joining the simulation at
/// `at`, running `spec`'s programs to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientEvent {
    /// Arrival instant.
    pub at: SimTime,
    /// The client to admit.
    pub spec: ClientSpec,
}

/// Object-safe cloning for boxed sources, blanket-implemented for every
/// `Clone` source — implementors only need `#[derive(Clone)]`.
pub trait CloneTrafficSource {
    /// Clones the source behind a fresh box, with all generation state
    /// rewound to wherever this instance currently is.
    fn clone_box(&self) -> Box<dyn TrafficSource>;
}

impl<T: TrafficSource + Clone + 'static> CloneTrafficSource for T {
    fn clone_box(&self) -> Box<dyn TrafficSource> {
        Box::new(self.clone())
    }
}

/// A lazy stream of client arrivals — the open counterpart of the old
/// closed `Workload` enum, mirroring what `RoutingPolicy` did for the
/// routing axis.
///
/// See the [module docs](self) for the full contract.
pub trait TrafficSource: fmt::Debug + Send + CloneTrafficSource {
    /// Regions this source's clients may issue from. Declared up front so
    /// per-region deployments can place a balancer in every client region
    /// before the first arrival.
    fn regions(&self) -> Vec<Region>;

    /// Returns every not-yet-emitted arrival with `at <= now`, in
    /// nondecreasing `at` order.
    fn next_batch(&mut self, now: SimTime, rng: &mut DetRng) -> Vec<ClientEvent>;

    /// True once no future [`TrafficSource::next_batch`] call can return
    /// another arrival.
    fn is_exhausted(&self) -> bool;

    /// Display label for experiment tables.
    fn label(&self) -> String;
}

impl Clone for Box<dyn TrafficSource> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Drains a *finite* source to exhaustion and returns the client specs in
/// arrival order — the bridge back to the eager `Vec<ClientSpec>` world
/// (tests, offline analysis).
///
/// Only for sources whose [`TrafficSource::is_exhausted`] eventually
/// turns `true`: an unbounded source (legal in the fabric, which polls
/// bounded horizons) will generate inside `next_batch(SimTime::MAX, ..)`
/// without returning — no guard here can interrupt it. For such sources,
/// poll a bounded horizon yourself. The empty-batch break below only
/// catches a *stuck* source (claims more arrivals, produces none).
pub fn drain(source: &mut dyn TrafficSource) -> Vec<ClientSpec> {
    let mut rng = DetRng::for_component(0, "workload/drain");
    let mut out = Vec::new();
    while !source.is_exhausted() {
        let batch = source.next_batch(SimTime::MAX, &mut rng);
        if batch.is_empty() {
            break;
        }
        out.extend(batch.into_iter().map(|e| e.spec));
    }
    out
}

/// When a source's clients come online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSchedule {
    /// Every client at `t = 0` — the paper's closed-loop populations.
    Immediate,
    /// Client `k` of `n` arrives at `k · over / (n − 1)`: a linear ramp
    /// from `0` to `over`.
    UniformRamp {
        /// Instant the last client arrives.
        over: SimDuration,
    },
    /// Exponential gaps with the given mean — a Poisson arrival process.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
}

impl ArrivalSchedule {
    /// The arrival instants of `total` clients under this schedule, as a
    /// lazy iterator. Deterministic in `seed`; reusable by sources
    /// outside this crate.
    pub fn times(self, total: usize, seed: u64) -> ArrivalTimes {
        ArrivalTimes {
            schedule: self,
            rng: DetRng::for_component(seed, "arrival-schedule"),
            total,
            cursor: 0,
            clock: SimTime::ZERO,
        }
    }
}

/// Iterator over the arrival instants of an [`ArrivalSchedule`].
/// Monotonically nondecreasing; yields exactly `total` instants.
#[derive(Debug, Clone)]
pub struct ArrivalTimes {
    schedule: ArrivalSchedule,
    rng: DetRng,
    total: usize,
    cursor: usize,
    clock: SimTime,
}

impl Iterator for ArrivalTimes {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.cursor >= self.total {
            return None;
        }
        let k = self.cursor as u64;
        self.cursor += 1;
        let at = match self.schedule {
            ArrivalSchedule::Immediate => SimTime::ZERO,
            ArrivalSchedule::UniformRamp { over } => {
                let span = (self.total as u64).saturating_sub(1).max(1);
                SimTime::from_micros(over.as_micros().saturating_mul(k) / span)
            }
            ArrivalSchedule::Poisson { mean_gap } => {
                if k > 0 {
                    let gap = self.rng.exponential(1.0) * mean_gap.as_secs_f64();
                    self.clock += SimDuration::from_secs_f64(gap);
                }
                self.clock
            }
        };
        Some(at)
    }
}

/// Walks `(region, count)` slots: the region of the `k`-th client.
/// Falls back to the last declared region if `k` exceeds the slot total.
/// Exported for sources built outside this crate.
pub fn region_of_slot(per_region: &[(Region, u32)], k: usize) -> Region {
    let mut k = k as u64;
    for &(region, count) in per_region {
        if k < u64::from(count) {
            return region;
        }
        k -= u64::from(count);
    }
    per_region.last().map(|&(r, _)| r).unwrap_or(Region::UsEast)
}

/// Total client count across `(region, count)` slots.
pub fn total_slots(per_region: &[(Region, u32)]) -> usize {
    per_region.iter().map(|&(_, n)| n as usize).sum()
}

/// The distinct regions among `regions`, in first-appearance order — the
/// shape [`TrafficSource::regions`] wants.
pub fn distinct_regions(regions: impl IntoIterator<Item = Region>) -> Vec<Region> {
    let mut out = Vec::new();
    for region in regions {
        if !out.contains(&region) {
            out.push(region);
        }
    }
    out
}

/// The arrival instants a walk has yet to hand out: drawn lazily from a
/// schedule, or listed explicitly.
#[derive(Debug, Clone)]
enum Instants {
    Scheduled(ArrivalTimes),
    Explicit(std::vec::IntoIter<SimTime>),
}

impl Iterator for Instants {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        match self {
            Instants::Scheduled(times) => times.next(),
            Instants::Explicit(times) => times.next(),
        }
    }
}

/// Cursor over a sequence of arrival instants: which of `total` clients
/// have been emitted, and when the next one is due. The emission walk
/// under [`SlotSource`]; sources outside this crate can reuse it the
/// same way.
#[derive(Debug, Clone)]
pub struct ArrivalWalk {
    seed: u64,
    total: usize,
    times: Instants,
    next_at: Option<SimTime>,
    cursor: usize,
}

impl ArrivalWalk {
    /// A walk over `total` arrivals under `schedule`.
    pub fn new(schedule: ArrivalSchedule, total: usize, seed: u64) -> Self {
        Self::over(
            Instants::Scheduled(schedule.times(total, seed)),
            total,
            seed,
        )
    }

    /// A walk over explicit, nondecreasing `instants` — an arrival
    /// process no [`ArrivalSchedule`] describes (a sampled rate curve).
    /// A later [`ArrivalWalk::reschedule`] draws under seed 0.
    fn from_instants(instants: Vec<SimTime>) -> Self {
        debug_assert!(instants.windows(2).all(|w| w[0] <= w[1]));
        let total = instants.len();
        Self::over(Instants::Explicit(instants.into_iter()), total, 0)
    }

    fn over(mut times: Instants, total: usize, seed: u64) -> Self {
        let next_at = times.next();
        ArrivalWalk {
            seed,
            total,
            times,
            next_at,
            cursor: 0,
        }
    }

    /// Swaps the schedule. Builder-style: call before the first
    /// [`ArrivalWalk::pop_due`] — a schedule swapped in mid-stream may
    /// place its remaining instants before already-emitted ones,
    /// violating the nondecreasing-`at` contract. (Defensively, instants
    /// already consumed are skipped so a client is never re-emitted.)
    fn reschedule(&mut self, schedule: ArrivalSchedule) {
        let mut times = schedule.times(self.total, self.seed);
        for _ in 0..self.cursor {
            times.next();
        }
        self.next_at = times.next();
        self.times = Instants::Scheduled(times);
    }

    /// If the next client is due by `now`, consumes it and returns its
    /// `(slot index, arrival instant)`.
    fn pop_due(&mut self, now: SimTime) -> Option<(usize, SimTime)> {
        let at = self.next_at?;
        if at > now {
            return None;
        }
        let slot = self.cursor;
        self.cursor += 1;
        self.next_at = self.times.next();
        Some((slot, at))
    }

    /// True once every slot has been emitted.
    pub fn is_exhausted(&self) -> bool {
        self.next_at.is_none()
    }
}

/// The content of a generated workload: what the client in each slot
/// asks. This is the one thing that varies between generated workloads;
/// [`SlotSource`] supplies the rest.
///
/// Slots are handed out in order, each exactly once. Content must depend
/// only on the generator's own seeded state and the slot — derive
/// per-client randomness as `DetRng::for_component(seed, label-of-slot)`
/// — so that pacing never perturbs it.
pub trait ClientGen: fmt::Debug + Clone + Send + 'static {
    /// The client in `slot`, issuing from `region`, its request ids
    /// drawn from `ids`.
    fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec;
}

/// A population of generated clients as a streaming source: `(region,
/// count)` slots walked under an [`ArrivalSchedule`], each client's
/// programs generated by `G` at its arrival instant, so memory tracks
/// the *active* population instead of the total request count.
#[derive(Debug, Clone)]
pub struct SlotSource<G> {
    pub(crate) content: G,
    pub(crate) slots: Vec<(Region, u32)>,
    pub(crate) first_request_id: u64,
    ids: IdGen,
    walk: ArrivalWalk,
    label: String,
}

impl<G: ClientGen> SlotSource<G> {
    /// `content` over `slots`, everyone arriving at `t = 0`; `seed`
    /// drives a later [`SlotSource::with_schedule`].
    pub fn over(content: G, slots: Vec<(Region, u32)>, seed: u64) -> Self {
        let walk = ArrivalWalk::new(ArrivalSchedule::Immediate, total_slots(&slots), seed);
        Self::walking(content, slots, walk)
    }

    /// `content` for one region's clients arriving at explicit,
    /// nondecreasing `instants`.
    pub fn at_instants(content: G, region: Region, instants: Vec<SimTime>) -> Self {
        let slots = vec![(region, instants.len() as u32)];
        Self::walking(content, slots, ArrivalWalk::from_instants(instants))
    }

    fn walking(content: G, slots: Vec<(Region, u32)>, walk: ArrivalWalk) -> Self {
        SlotSource {
            content,
            slots,
            first_request_id: 0,
            ids: IdGen::new(),
            walk,
            label: "generated".to_string(),
        }
    }

    /// Replaces the arrival schedule (default: everyone at `t = 0`).
    /// Builder-style: call before the source is first polled — a
    /// schedule swapped in mid-stream may place its remaining instants
    /// before already-emitted ones.
    pub fn with_schedule(mut self, schedule: ArrivalSchedule) -> Self {
        self.walk.reschedule(schedule);
        self
    }

    /// Offsets the request-id space (compose sources with disjoint ids).
    pub fn with_first_request_id(mut self, first: u64) -> Self {
        self.first_request_id = first;
        self.ids = IdGen::starting_at(first);
        self
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl<G: ClientGen> TrafficSource for SlotSource<G> {
    fn regions(&self) -> Vec<Region> {
        distinct_regions(self.slots.iter().map(|&(region, _)| region))
    }

    fn next_batch(&mut self, now: SimTime, _rng: &mut DetRng) -> Vec<ClientEvent> {
        let mut out = Vec::new();
        while let Some((slot, at)) = self.walk.pop_due(now) {
            let region = region_of_slot(&self.slots, slot);
            let spec = self.content.client(slot, region, &mut self.ids);
            out.push(ClientEvent { at, spec });
        }
        out
    }

    fn is_exhausted(&self) -> bool {
        self.walk.is_exhausted()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Thin adapter: a pre-materialized client population as a source. Every
/// client arrives at `t = 0`, in vector order — exactly the old eager
/// semantics, so `ScenarioBuilder::clients` keeps working unchanged.
#[derive(Debug, Clone)]
pub struct ClientListSource {
    specs: Vec<ClientSpec>,
    /// Distinct client regions, captured up front so the declaration
    /// survives emission (the specs themselves are handed over).
    regions: Vec<Region>,
    label: String,
}

impl ClientListSource {
    /// Wraps an eagerly built population.
    pub fn new(specs: Vec<ClientSpec>) -> Self {
        let regions = distinct_regions(specs.iter().map(|spec| spec.region));
        ClientListSource {
            specs,
            regions,
            label: "clients".to_string(),
        }
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl TrafficSource for ClientListSource {
    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    fn next_batch(&mut self, _now: SimTime, _rng: &mut DetRng) -> Vec<ClientEvent> {
        // Move the specs out instead of cloning: this run's private copy
        // of the source never needs them again, so a large population is
        // not transiently doubled in memory.
        std::mem::take(&mut self.specs)
            .into_iter()
            .map(|spec| ClientEvent {
                at: SimTime::ZERO,
                spec,
            })
            .collect()
    }

    fn is_exhausted(&self) -> bool {
        self.specs.is_empty()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Composes several sources into one stream (e.g. the Mixed Tree
/// workload: heavy 4-branch US trees merged with 2-branch traffic
/// elsewhere). Batches preserve child order for same-instant arrivals
/// and are stably sorted by arrival time across children.
///
/// Children are responsible for disjoint request-id ranges — see
/// [`SlotSource::with_first_request_id`].
#[derive(Debug, Clone)]
pub struct MergeSource {
    sources: Vec<Box<dyn TrafficSource>>,
    label: String,
}

impl MergeSource {
    /// Merges `sources` into one stream.
    pub fn new(sources: Vec<Box<dyn TrafficSource>>) -> Self {
        let label = sources
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join("+");
        MergeSource { sources, label }
    }

    /// Overrides the display label (default: children joined with `+`).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl TrafficSource for MergeSource {
    fn regions(&self) -> Vec<Region> {
        distinct_regions(self.sources.iter().flat_map(|s| s.regions()))
    }

    fn next_batch(&mut self, now: SimTime, rng: &mut DetRng) -> Vec<ClientEvent> {
        let mut out = Vec::new();
        for s in &mut self.sources {
            out.extend(s.next_batch(now, rng));
        }
        out.sort_by_key(|e| e.at);
        out
    }

    fn is_exhausted(&self) -> bool {
        self.sources.iter().all(|s| s.is_exhausted())
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversation::{ConversationConfig, ConversationSource};
    use crate::program::Program;
    use crate::tot::{TotConfig, TotSource};
    use skywalker_replica::Request;

    fn rng() -> DetRng {
        DetRng::new(0)
    }

    /// The smallest generator: one request naming its slot.
    #[derive(Debug, Clone)]
    struct Echo;

    impl ClientGen for Echo {
        fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec {
            let req = Request::new(ids.next_id(), "echo", vec![slot as u32], 1);
            ClientSpec {
                region,
                user: format!("echo-{slot}"),
                programs: vec![Program {
                    stages: vec![vec![req]],
                }],
            }
        }
    }

    /// What [`SlotSource`] promises every generator: cadence invariance,
    /// the slot → region walk, the id range, and schedule swaps that
    /// never re-emit a client.
    #[test]
    fn slot_source_contract() {
        let slots = vec![
            (Region::UsEast, 3),
            (Region::EuWest, 0),
            (Region::ApNortheast, 2),
            (Region::UsEast, 1),
        ];
        let poisson = ArrivalSchedule::Poisson {
            mean_gap: SimDuration::from_millis(7),
        };
        let source = SlotSource::over(Echo, slots, 5)
            .with_schedule(poisson)
            .with_first_request_id(100);
        assert_eq!(
            source.regions(),
            vec![Region::UsEast, Region::EuWest, Region::ApNortheast],
            "a zero-count region is still declared, and none twice"
        );
        assert_eq!(source.label(), "generated");

        // One poll to the end of time against 1 ms steps.
        let mut coarse = source.clone();
        let whole = coarse.next_batch(SimTime::MAX, &mut rng());
        let mut fine = source.clone();
        let mut stepped = Vec::new();
        let mut ms = 0;
        while !fine.is_exhausted() {
            stepped.extend(fine.next_batch(SimTime::from_millis(ms), &mut rng()));
            ms += 1;
        }
        assert_eq!(whole, stepped, "polling cadence is not semantics");
        assert!(coarse.is_exhausted());
        assert!(whole.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(whole.last().expect("six clients").at > SimTime::ZERO);

        use Region::{ApNortheast, UsEast};
        let regions: Vec<Region> = whole.iter().map(|e| e.spec.region).collect();
        assert_eq!(
            regions,
            [UsEast, UsEast, UsEast, ApNortheast, ApNortheast, UsEast]
        );
        for (slot, e) in whole.iter().enumerate() {
            let req = &e.spec.programs[0].stages[0][0];
            assert_eq!(req.prompt, [slot as u32], "slots in order, each once");
            assert_eq!(req.id.0, 100 + slot as u64, "ids start where told");
        }

        // A schedule swapped in before the first poll replaces every
        // instant; swapped in mid-stream it only covers what is left.
        let mut swapped = source.with_schedule(ArrivalSchedule::Immediate);
        let mut late = swapped.clone();
        let at_zero = swapped.next_batch(SimTime::ZERO, &mut rng());
        assert_eq!(at_zero.len(), 6);
        late.walk.reschedule(poisson);
        let first = late.next_batch(SimTime::ZERO, &mut rng());
        assert_eq!(first.len(), 1, "Poisson starts with one client at t = 0");
        late.walk.reschedule(ArrivalSchedule::Immediate);
        let rest = late.next_batch(SimTime::ZERO, &mut rng());
        let replayed: Vec<_> = first.into_iter().chain(rest).map(|e| e.spec).collect();
        let specs: Vec<_> = at_zero.into_iter().map(|e| e.spec).collect();
        assert_eq!(replayed, specs, "no client skipped or emitted twice");
    }

    #[test]
    fn explicit_instants_walk_like_a_schedule() {
        let instants: Vec<SimTime> = [0, 5, 5, 9].map(SimTime::from_secs).to_vec();
        let mut src = SlotSource::at_instants(Echo, Region::EuWest, instants.clone());
        assert_eq!(src.regions(), vec![Region::EuWest]);
        let early = src.next_batch(SimTime::from_secs(5), &mut rng());
        assert_eq!(early.len(), 3);
        assert!(!src.is_exhausted());
        let late = src.next_batch(SimTime::MAX, &mut rng());
        let at: Vec<SimTime> = early.iter().chain(&late).map(|e| e.at).collect();
        assert_eq!(at, instants);
        assert!(src.is_exhausted());
    }

    #[test]
    fn client_list_adapts_eagerly_built_populations() {
        let specs = drain(&mut TotSource::new(
            TotConfig::branch2(),
            vec![(Region::UsEast, 2), (Region::EuWest, 1)],
            1,
            7,
        ));
        let mut src = ClientListSource::new(specs.clone());
        assert_eq!(src.regions(), vec![Region::UsEast, Region::EuWest]);
        assert!(!src.is_exhausted());
        let batch = src.next_batch(SimTime::ZERO, &mut rng());
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|e| e.at == SimTime::ZERO));
        assert_eq!(
            batch.iter().map(|e| e.spec.clone()).collect::<Vec<_>>(),
            specs
        );
        assert!(src.is_exhausted());
        assert!(src.next_batch(SimTime::MAX, &mut rng()).is_empty());
    }

    #[test]
    fn uniform_ramp_spans_the_window() {
        let times: Vec<SimTime> = ArrivalSchedule::UniformRamp {
            over: SimDuration::from_secs(90),
        }
        .times(10, 1)
        .collect();
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], SimTime::ZERO);
        assert_eq!(times[9], SimTime::from_secs(90));
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_gaps_average_to_the_mean() {
        let times: Vec<SimTime> = ArrivalSchedule::Poisson {
            mean_gap: SimDuration::from_secs(2),
        }
        .times(2_000, 5)
        .collect();
        assert_eq!(times[0], SimTime::ZERO);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let span = times.last().unwrap().as_secs_f64();
        let mean = span / 1_999.0;
        assert!((mean - 2.0).abs() < 0.2, "mean gap {mean}");
    }

    #[test]
    fn merge_preserves_child_order_and_ids_stay_disjoint() {
        let heavy = TotSource::new(TotConfig::branch4(), vec![(Region::UsEast, 2)], 2, 9);
        let light = TotSource::new(
            TotConfig::branch2(),
            vec![(Region::EuWest, 3)],
            2,
            9 ^ 0xBEEF,
        )
        .with_first_request_id(heavy.request_id_end());
        let mut merged = MergeSource::new(vec![Box::new(heavy), Box::new(light)]);
        assert_eq!(merged.regions(), vec![Region::UsEast, Region::EuWest]);
        let specs = drain(&mut merged);
        assert_eq!(specs.len(), 5);
        let mut ids: Vec<u64> = specs
            .iter()
            .flat_map(|c| c.programs.iter())
            .flat_map(|p| p.requests())
            .map(|r| r.id.0)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "request ids must stay globally unique");
    }

    #[test]
    fn schedules_do_not_perturb_generated_content() {
        let regions = vec![(Region::UsEast, 8)];
        let immediate = drain(&mut ConversationSource::new(
            ConversationConfig::arena(),
            regions.clone(),
            21,
        ));
        let ramped = drain(
            &mut ConversationSource::new(ConversationConfig::arena(), regions, 21).with_schedule(
                ArrivalSchedule::Poisson {
                    mean_gap: SimDuration::from_secs(5),
                },
            ),
        );
        assert_eq!(immediate, ramped, "pacing is orthogonal to content");
    }
}
