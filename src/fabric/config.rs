//! How to run it: the fabric-wide timing knobs and the optional
//! observation planes ([`FabricConfig`]).

use skywalker_core::PolicyParams;
use skywalker_net::LatencyModel;
use skywalker_sim::{SimDuration, SimTime};
use skywalker_telemetry::TelemetryConfig;
use skywalker_trace::TraceConfig;

/// Fabric-wide timing knobs.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Wide-area latency model.
    pub net: LatencyModel,
    /// Selective-pushing probe interval (the paper uses 100 ms, §4.1).
    /// Clamped to at least one millisecond, as is the telemetry interval.
    pub probe_interval: SimDuration,
    /// Hard stop; the run ends even if clients are unfinished.
    pub deadline: SimTime,
    /// Construction parameters of every balancer's routing policies —
    /// trie memory bound, affinity threshold (§5.1: 0.5), load-gap
    /// override — handed to each [`BalancerConfig`](skywalker_core::BalancerConfig)
    /// as they are.
    pub policy: PolicyParams,
    /// Span tracing for bottleneck attribution. `None` (the default)
    /// records nothing; `Some` attaches a [`TraceRecorder`](crate::trace::TraceRecorder) and the run
    /// returns a [`TraceSummary`](crate::TraceSummary). Tracing is observation-only — it
    /// never reads clocks, draws randomness, or changes scheduling, so
    /// outcomes are byte-identical either way (pinned by the
    /// golden-digest gate).
    pub trace: Option<TraceConfig>,
    /// Streaming metrics sampling. `None` (the default) records nothing;
    /// `Some` attaches a labeled [`MetricsRegistry`](crate::MetricsRegistry) fed on a sim-time
    /// cadence and the run returns a [`TelemetrySummary`](crate::TelemetrySummary). Like tracing,
    /// telemetry is observation-only — enabling it at any cadence leaves
    /// run outcomes byte-identical (pinned by the golden-digest gate).
    pub telemetry: Option<TelemetryConfig>,
}

impl FabricConfig {
    /// This config with span tracing enabled at the default capacity.
    pub fn traced(mut self) -> Self {
        self.trace = Some(TraceConfig::default());
        self
    }

    /// This config with telemetry sampling enabled every `interval` of
    /// sim time.
    pub fn telemetry(mut self, interval: SimDuration) -> Self {
        self.telemetry = Some(TelemetryConfig::every(interval));
        self
    }

    /// The smallest period any self-rescheduling tick may have.
    const MIN_TICK: SimDuration = SimDuration::from_millis(1);

    /// LB → controller heartbeat interval, and the controller's check
    /// period.
    pub(super) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(500);

    /// How often, and how far ahead, the fabric polls the scenario's
    /// [`TrafficSource`](crate::TrafficSource) and [`FleetPlan`](crate::FleetPlan).
    /// Arrivals and scheduled commands keep their exact instants at any
    /// cadence (the poll looks one interval ahead), so for them this
    /// only batches the pull; for a *reactive* plan (an autoscaler) it is
    /// the control plane's reaction latency, which the calibrated
    /// autoscaler tables assume.
    pub(super) const POLL_INTERVAL: SimDuration = SimDuration::from_millis(500);

    /// Controller failure-detection timeout.
    pub(super) const CONTROLLER_TIMEOUT: SimDuration = SimDuration::from_secs(2);

    /// Client retry delay after losing a request to a dead balancer.
    pub(super) const RETRY_DELAY: SimDuration = SimDuration::from_secs(1);

    /// This config as the world runs it: the two configurable intervals
    /// that pace a self-rescheduling event (`ProbeTick`, `TelemetryTick`)
    /// are at least [`Self::MIN_TICK`]. A zero interval would re-enqueue
    /// its tick at the same instant forever and the run would never
    /// reach the deadline.
    pub(super) fn clamped(&self) -> FabricConfig {
        let mut cfg = self.clone();
        let clamp = |interval: &mut SimDuration| *interval = (*interval).max(Self::MIN_TICK);
        clamp(&mut cfg.probe_interval);
        if let Some(t) = cfg.telemetry.as_mut() {
            clamp(&mut t.interval);
        }
        cfg
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            seed: 0xD1CE,
            net: LatencyModel::default_wan(),
            probe_interval: SimDuration::from_millis(100),
            deadline: SimTime::from_secs(4 * 3600),
            policy: PolicyParams::default(),
            trace: None,
            telemetry: None,
        }
    }
}
