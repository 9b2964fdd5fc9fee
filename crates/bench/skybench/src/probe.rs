//! Timing decorators for the scenario's open traits. Each wraps the
//! trait object the scenario would have run anyway, forwards every call
//! unchanged, and adds the call's wall time to a shared counter —
//! aggregates, not per-call spans, because a run makes millions of
//! calls. They observe only: a decorated run must produce the plain
//! run's fingerprint, which every traced pass checks.
//!
//! The [`SliceClock`] is the exception in kind: it times nothing itself
//! but marks where in a run the clock stood, and every set-up and every
//! plain rep of the traced pass runs behind it (and behind nothing else).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skywalker::core::{
    BalancerConfig, LbId, PolicyFactory, RingTarget, RoutingPolicy, TargetState,
};
use skywalker::fabric::Deployment;
use skywalker::net::Region;
use skywalker::replica::ReplicaId;
use skywalker::sim::{DetRng, SimTime};
use skywalker::{
    BatchPlan, BatchPolicy, ClientEvent, EngineSpec, EvictCandidate, KvEvictor, Scenario, StepView,
    TrafficSource,
};

/// Calls made through one decorated method and the time they took.
#[derive(Debug, Default)]
pub struct Cell {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Cell {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.total_ns() as f64 / n as f64,
        }
    }
}

/// One counter per decorated method.
#[derive(Debug, Default)]
pub struct Probes {
    pub next_batch: Cell,
    /// Replica-layer `select`.
    pub select: Cell,
    /// Peer-layer `select`.
    pub remote_select: Cell,
    pub note_dispatch: Cell,
    pub hit_ratio: Cell,
    pub plan: Cell,
    pub evict_pick: Cell,
}

impl Probes {
    /// Wall time spent inside decorated calls, all layers together.
    pub fn total_ns(&self) -> u64 {
        [
            &self.next_batch,
            &self.select,
            &self.remote_select,
            &self.note_dispatch,
            &self.hit_ratio,
            &self.plan,
            &self.evict_pick,
        ]
        .iter()
        .map(|c| c.total_ns())
        .sum()
    }
}

/// A copy of `scenario` with every open trait object decorated, and the
/// counters the decorators feed.
pub fn instrument(scenario: &Scenario) -> (Scenario, Arc<Probes>) {
    let probes = Arc::new(Probes::default());
    let mut traced = scenario.clone();
    traced.traffic = Box::new(TimedSource {
        inner: traced.traffic,
        probes: Arc::clone(&probes),
    });
    let engine = traced.engine.take().unwrap_or_default();
    traced.engine = Some(EngineSpec::new(
        Box::new(TimedBatch {
            inner: engine.batch,
            probes: Arc::clone(&probes),
        }),
        Box::new(TimedEvictor {
            inner: engine.evictor,
            probes: Arc::clone(&probes),
        }),
    ));
    traced.policy_factory = Some(Arc::new(TimedFactory::wrapping(
        factory_of(scenario),
        Arc::clone(&probes),
    )));
    (traced, probes)
}

/// Reads the clock at every [`SLICE_SELECTS`]-th replica-layer `select`
/// of a run, cutting the run into slices that start at the same point
/// of the simulation in every rep of one seed. It is the one observer an
/// undecorated rep carries: a relaxed counter per `select` and a clock read per
/// slice, a few hundred a run (see `stats::undisturbed`).
#[derive(Debug)]
pub struct SliceClock {
    selects: AtomicU64,
    stamps: Mutex<Vec<Instant>>,
}

/// Selects per slice: the simulated workloads make 38 k to 110 k selects
/// a run, so a slice is 2–6 ms of a 1.5–2.5 s rep.
pub const SLICE_SELECTS: u64 = 100;

impl SliceClock {
    fn tick(&self) {
        if (self.selects.fetch_add(1, Relaxed) + 1).is_multiple_of(SLICE_SELECTS) {
            self.stamps
                .lock()
                .expect("no holder panics")
                .push(Instant::now());
        }
    }

    /// Forgets the rep before.
    pub fn reset(&self) {
        self.selects.store(0, Relaxed);
        self.stamps.lock().expect("no holder panics").clear();
    }

    /// Seconds from `start` to the first stamp, between stamps, and from
    /// the last stamp to `end`: they add up to the rep's wall time.
    pub fn slices(&self, start: Instant, end: Instant) -> Vec<f64> {
        let stamps = self.stamps.lock().expect("no holder panics");
        let edges = || {
            std::iter::once(start)
                .chain(stamps.iter().copied())
                .chain([end])
        };
        edges()
            .zip(edges().skip(1))
            .map(|(from, to)| (to - from).as_secs_f64())
            .collect()
    }
}

/// A copy of `scenario` whose replica-layer policies tick a
/// [`SliceClock`]; nothing else is decorated.
pub fn slice_clocked(scenario: &Scenario) -> (Scenario, Arc<SliceClock>) {
    // Room for 400 k selects, so that a run's stamps allocate nothing.
    let clock = Arc::new(SliceClock {
        selects: AtomicU64::new(0),
        stamps: Mutex::new(Vec::with_capacity(1 << 12)),
    });
    let mut clocked = scenario.clone();
    clocked.policy_factory = Some(Arc::new(ClockedFactory {
        inner: factory_of(scenario),
        clock: Arc::clone(&clock),
    }));
    (clocked, clock)
}

/// The factory `run_scenario` would have used.
fn factory_of(scenario: &Scenario) -> Arc<dyn PolicyFactory> {
    scenario.policy_factory.clone().unwrap_or_else(|| {
        let (Deployment::Centralized { policy, .. } | Deployment::PerRegion { policy, .. }) =
            scenario.deployment;
        Arc::new(policy)
    })
}

#[derive(Debug)]
struct ClockedFactory {
    inner: Arc<dyn PolicyFactory>,
    clock: Arc<SliceClock>,
}

impl PolicyFactory for ClockedFactory {
    fn build_local(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<ReplicaId>> {
        Box::new(ClockedPolicy {
            inner: self.inner.build_local(cfg),
            clock: Arc::clone(&self.clock),
        })
    }

    /// The peer layer is left as it is.
    fn build_remote(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<LbId>> {
        self.inner.build_remote(cfg)
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[derive(Debug)]
struct ClockedPolicy {
    inner: Box<dyn RoutingPolicy<ReplicaId>>,
    clock: Arc<SliceClock>,
}

impl RoutingPolicy<ReplicaId> for ClockedPolicy {
    fn select(
        &mut self,
        key: &str,
        prompt: &[u32],
        candidates: &[TargetState<ReplicaId>],
    ) -> Option<ReplicaId> {
        self.clock.tick();
        self.inner.select(key, prompt, candidates)
    }

    fn note_dispatch(&mut self, prompt: &[u32], target: ReplicaId) {
        self.inner.note_dispatch(prompt, target)
    }

    fn add_target(&mut self, target: ReplicaId) {
        self.inner.add_target(target)
    }

    fn remove_target(&mut self, target: ReplicaId) {
        self.inner.remove_target(target)
    }

    fn hit_ratio(&self, prompt: &[u32], target: ReplicaId) -> f64 {
        self.inner.hit_ratio(prompt, target)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[derive(Debug, Clone)]
struct TimedSource {
    inner: Box<dyn TrafficSource>,
    probes: Arc<Probes>,
}

impl TrafficSource for TimedSource {
    fn regions(&self) -> Vec<Region> {
        self.inner.regions()
    }

    fn next_batch(&mut self, now: SimTime, rng: &mut DetRng) -> Vec<ClientEvent> {
        self.probes
            .next_batch
            .time(|| self.inner.next_batch(now, rng))
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[derive(Debug)]
pub struct TimedFactory {
    inner: Arc<dyn PolicyFactory>,
    probes: Arc<Probes>,
}

impl TimedFactory {
    pub fn wrapping(inner: Arc<dyn PolicyFactory>, probes: Arc<Probes>) -> Self {
        TimedFactory { inner, probes }
    }
}

impl PolicyFactory for TimedFactory {
    fn build_local(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<ReplicaId>> {
        Box::new(TimedPolicy {
            inner: self.inner.build_local(cfg),
            probes: Arc::clone(&self.probes),
            remote: false,
        })
    }

    fn build_remote(&self, cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<LbId>> {
        Box::new(TimedPolicy {
            inner: self.inner.build_remote(cfg),
            probes: Arc::clone(&self.probes),
            remote: true,
        })
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[derive(Debug)]
struct TimedPolicy<T: RingTarget> {
    inner: Box<dyn RoutingPolicy<T>>,
    probes: Arc<Probes>,
    /// Peer layer: `select` goes to its own counter; the bookkeeping
    /// calls share the replica layer's.
    remote: bool,
}

impl<T: RingTarget> RoutingPolicy<T> for TimedPolicy<T> {
    fn select(&mut self, key: &str, prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T> {
        let cell = if self.remote {
            &self.probes.remote_select
        } else {
            &self.probes.select
        };
        cell.time(|| self.inner.select(key, prompt, candidates))
    }

    fn note_dispatch(&mut self, prompt: &[u32], target: T) {
        self.probes
            .note_dispatch
            .time(|| self.inner.note_dispatch(prompt, target))
    }

    fn add_target(&mut self, target: T) {
        self.inner.add_target(target)
    }

    fn remove_target(&mut self, target: T) {
        self.inner.remove_target(target)
    }

    fn hit_ratio(&self, prompt: &[u32], target: T) -> f64 {
        self.probes
            .hit_ratio
            .time(|| self.inner.hit_ratio(prompt, target))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[derive(Debug, Clone)]
struct TimedBatch {
    inner: Box<dyn BatchPolicy>,
    probes: Arc<Probes>,
}

impl BatchPolicy for TimedBatch {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        self.probes.plan.time(|| self.inner.plan(view))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[derive(Debug, Clone)]
struct TimedEvictor {
    inner: Box<dyn KvEvictor>,
    probes: Arc<Probes>,
}

impl KvEvictor for TimedEvictor {
    fn pick(&mut self, candidates: &[EvictCandidate]) -> Option<usize> {
        self.probes.evict_pick.time(|| self.inner.pick(candidates))
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn host_budget(&self) -> Option<u64> {
        self.inner.host_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simbench::Fingerprint;
    use skywalker::{memory_pressure_scenario, run_scenario, FabricConfig};

    /// The decorators observe only: a tiny scenario that enters every
    /// decorated layer ends the same with them as without.
    #[test]
    fn decorators_leave_the_outcome_unchanged() {
        let scenario = memory_pressure_scenario(EngineSpec::default(), 0.25, 7);
        let cfg = FabricConfig {
            seed: 7,
            ..FabricConfig::default()
        };
        let plain = run_scenario(&scenario, &cfg);
        assert!(plain.report.completed > 0 && plain.evicted_tokens > 0);

        let (decorated, probes) = instrument(&scenario);
        let traced = run_scenario(&decorated, &cfg);
        let differs = Fingerprint::of(&traced).differs_in(&Fingerprint::of(&plain));
        assert!(differs.is_empty(), "decorators changed {differs:?}");
        assert_eq!(traced.engine_label, plain.engine_label);

        assert_eq!(probes.select.calls(), plain.report.completed);
        for (name, cell) in [
            ("next_batch", &probes.next_batch),
            ("note_dispatch", &probes.note_dispatch),
            ("plan", &probes.plan),
            ("evict_pick", &probes.evict_pick),
        ] {
            assert!(
                cell.calls() > 0 && cell.total_ns() > 0,
                "{name} was never timed"
            );
        }
        // One region: nothing is ever offered to a peer.
        assert_eq!(probes.remote_select.calls(), 0);
        assert!(probes.total_ns() >= probes.select.total_ns());
    }

    /// The slice clock observes only, cuts every rep at the same
    /// selects, and its slices add up to the rep.
    #[test]
    fn slice_clock_cuts_every_rep_alike_and_changes_nothing() {
        let scenario = memory_pressure_scenario(EngineSpec::default(), 2.0, 7);
        let cfg = FabricConfig {
            seed: 7,
            ..FabricConfig::default()
        };
        let plain = run_scenario(&scenario, &cfg);
        let (clocked, clock) = slice_clocked(&scenario);
        for _ in 0..2 {
            clock.reset();
            let start = Instant::now();
            let run = run_scenario(&clocked, &cfg);
            let end = Instant::now();
            assert_eq!(Fingerprint::of(&run), Fingerprint::of(&plain));
            let slices = clock.slices(start, end);
            // One select per completed request here (see above).
            let stamps = plain.report.completed / SLICE_SELECTS;
            assert!(stamps > 1, "{} requests", plain.report.completed);
            assert_eq!(slices.len() as u64, stamps + 1);
            let whole: f64 = slices.iter().sum();
            assert!((whole - (end - start).as_secs_f64()).abs() < 1e-6);
        }
    }
}
