//! The run's three observation sinks behind one seam: the
//! [`RequestTracker`] (always on — it produces the [`RunReport`]), the
//! optional [`TraceRecorder`], and the optional streaming metrics plane.
//!
//! The world reports each request-lifecycle point once, through the
//! method named after it; the method fans out to every sink that cares.
//! Milestones only the tracer records go through [`Observers::trace`]
//! with the [`TraceEventKind`] vocabulary directly. Everything here is
//! observation-only: sinks are fed, nothing is read back into the
//! simulation, so outcomes are byte-identical whichever sinks are
//! attached (pinned by the golden-digest gates).

use skywalker_net::Region;
use skywalker_replica::Completion;
use skywalker_sim::{SimDuration, SimTime};
use skywalker_telemetry::{
    names, publish, MetricsRegistry, TelemetryConfig, TelemetrySummary, SERIES_CAPACITY,
};

use super::summary::ratio;
use super::world::{LbSlot, ReplicaSlot};
use super::{FabricConfig, TransferSummary};
use crate::metrics::{RequestTracker, RunReport, TimeSeries};
use crate::trace::{TraceEventKind, TraceRecorder, TraceSummary};

/// The streaming metrics plane: a labeled registry fed at lifecycle
/// points (TTFT sketches) and, once at run end, with every component's
/// listing; plus bounded dashboard series sampled every tick.
struct TelemetryPlane {
    cfg: TelemetryConfig,
    registry: MetricsRegistry,
    /// The dashboard series, created (in name order) by the first
    /// sampling pass.
    series: Vec<TimeSeries>,
    /// Sampling passes taken (every tick plus one final flush).
    ticks: u64,
}

impl TelemetryPlane {
    /// Publishes the run's end state — every balancer (a crashed one
    /// reads the queue it has, none, and the counters the crash left),
    /// every replica ever deployed, the serving count and, on a
    /// disaggregated fleet, the handoff totals — and snapshots it.
    fn into_summary(
        mut self,
        lbs: &[LbSlot],
        replicas: &[ReplicaSlot],
        transfers: &TransferSummary,
    ) -> TelemetrySummary {
        let reg = &mut self.registry;
        for slot in lbs {
            publish::balancer(reg, &slot.lb);
        }
        for slot in replicas {
            publish::replica(reg, &slot.replica);
        }
        let serving = replicas.iter().filter(|s| s.is_active()).count();
        reg.set_gauge(names::SERVING_REPLICAS, &[], serving as f64);
        if transfers.started > 0 {
            reg.inc(names::KV_TRANSFERS_TOTAL, &[], transfers.started);
            reg.inc(names::KV_TRANSFER_TOKENS_TOTAL, &[], transfers.tokens_sent);
        }
        TelemetrySummary {
            interval: self.cfg.interval,
            ticks: self.ticks,
            snapshot: self.registry.snapshot(),
            series: self.series,
        }
    }
}

pub(crate) struct Observers {
    tracker: RequestTracker,
    tracer: Option<TraceRecorder>,
    telemetry: Option<TelemetryPlane>,
}

impl Observers {
    /// Attaches the sinks `cfg` asks for (`cfg` is already clamped).
    pub(crate) fn new(cfg: &FabricConfig) -> Self {
        Observers {
            tracker: RequestTracker::new(),
            tracer: cfg.trace.map(TraceRecorder::new),
            telemetry: cfg.telemetry.map(|cfg| TelemetryPlane {
                cfg,
                registry: MetricsRegistry::new(),
                series: Vec::new(),
                ticks: 0,
            }),
        }
    }

    /// Whether a tracer is attached — lets the replica step loop skip
    /// assembling per-iteration annotations nobody records.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The telemetry tick period, when the metrics plane is attached.
    pub(crate) fn telemetry_interval(&self) -> Option<SimDuration> {
        self.telemetry.as_ref().map(|p| p.cfg.interval)
    }

    /// Records a tracer-only milestone.
    #[inline]
    pub(crate) fn trace(&mut self, at: SimTime, kind: TraceEventKind) {
        if let Some(rec) = self.tracer.as_mut() {
            rec.record(at, kind);
        }
    }

    /// A client issued a fresh request.
    pub(crate) fn arrival(&mut self, req: u64, prompt_tokens: u64, at: SimTime) {
        self.tracker.arrival(req, at, prompt_tokens);
        self.trace(at, TraceEventKind::Issued { req });
    }

    /// A client re-issued a request after a retry wait or a reroute.
    pub(crate) fn retry(&mut self, req: u64, at: SimTime) {
        self.tracker.retry(req);
        self.trace(at, TraceEventKind::Issued { req });
    }

    /// A live balancer queued the request after `hops` forwards, so the
    /// chain through this balancer is one longer.
    pub(crate) fn lb_queued(&mut self, req: u64, lb: u32, hops: u8, at: SimTime) {
        self.tracker.record_hops(req, hops.saturating_add(1));
        self.trace(at, TraceEventKind::LbQueued { req, lb, hops });
    }

    /// The first token reached the client in `region` (the TTFT instant).
    pub(crate) fn first_token_delivered(&mut self, req: u64, region: Region, at: SimTime) {
        self.trace(at, TraceEventKind::FirstTokenDelivered { req });
        let ttft = self.tracker.first_token(req, at);
        let (Some(plane), Some(ttft)) = (self.telemetry.as_mut(), ttft) else {
            return;
        };
        let ttft = ttft.as_secs_f64();
        plane.registry.observe(names::TTFT_SECONDS, &[], ttft);
        let labels = [("region", region.name())];
        plane
            .registry
            .observe(names::REGION_TTFT_SECONDS, &labels, ttft);
    }

    /// The full response reached the client (the end-to-end instant).
    pub(crate) fn delivered(&mut self, c: &Completion, at: SimTime) {
        self.trace(at, TraceEventKind::Delivered { req: c.id.0 });
        self.tracker.completion(
            c.id.0,
            at,
            u64::from(c.generated_tokens),
            u64::from(c.cached_prompt_tokens),
        );
    }

    /// The request terminally failed.
    pub(crate) fn failed(&mut self, req: u64, at: SimTime) {
        self.trace(at, TraceEventKind::Failed { req });
        self.tracker.failure(req);
    }

    /// Samples the five dashboard series (no-op when telemetry is off):
    /// reads balancer and replica state, writes only the series. The
    /// registry is not written here — between ticks nothing reads it but
    /// the TTFT sketch — so components are published once, at run end.
    pub(crate) fn sample(&mut self, now: SimTime, lbs: &[LbSlot], replicas: &[ReplicaSlot]) {
        let Some(plane) = self.telemetry.as_mut() else {
            return;
        };
        plane.ticks += 1;

        // A crashed balancer counts too: its queue was emptied when it
        // went down.
        let total_queue: usize = lbs.iter().map(|s| s.lb.queue_len()).sum();
        let mut serving = 0u64;
        let mut kv_sum = 0.0;
        let mut prompt = 0u64;
        let mut cached = 0u64;
        for slot in replicas {
            if slot.is_active() {
                serving += 1;
                kv_sum += slot.replica.kv_utilization();
            }
            let stats = slot.replica.stats();
            prompt += stats.prompt_tokens;
            cached += stats.cached_prompt_tokens;
        }
        let ttft_p90 = plane
            .registry
            .sketch(names::TTFT_SECONDS, &[])
            .map(|s| s.quantile(0.90))
            .unwrap_or(0.0);

        // Per tick: fleet-wide replica hit ratio, mean KV utilization
        // across serving replicas, total balancer queue depth,
        // serving replica count, sketch-P90 TTFT (seconds).
        let samples = [
            ("hit_ratio", ratio(cached as f64, prompt as f64)),
            ("kv_utilization", ratio(kv_sum, serving as f64)),
            ("queue_depth", total_queue as f64),
            ("serving_replicas", serving as f64),
            ("ttft_p90_seconds", ttft_p90),
        ];
        if plane.series.is_empty() {
            let series = samples
                .iter()
                .map(|(name, _)| TimeSeries::bounded(*name, SERIES_CAPACITY));
            plane.series.extend(series);
        }
        for (series, (_, value)) in plane.series.iter_mut().zip(samples) {
            series.record(now, value);
        }
    }

    /// Closes every sink at the run's end instant: the client-observed
    /// report, then the trace and telemetry summaries when attached. The
    /// telemetry plane takes one last sample (the run may end between
    /// ticks) and publishes the end state.
    pub(crate) fn finish(
        mut self,
        end: SimTime,
        lbs: &[LbSlot],
        replicas: &[ReplicaSlot],
        transfers: &TransferSummary,
    ) -> (RunReport, Option<TraceSummary>, Option<TelemetrySummary>) {
        self.sample(end, lbs, replicas);
        (
            self.tracker.report(end),
            self.tracer.map(TraceRecorder::into_summary),
            self.telemetry
                .map(|plane| plane.into_summary(lbs, replicas, transfers)),
        )
    }
}
