//! What came out: [`RunSummary`] with its [`TransferSummary`] and
//! [`FleetSummary`] sub-ledgers, and the one run digest every regression
//! suite and report selects its columns from.

use skywalker_metrics::json::Val;
use skywalker_metrics::{RunReport, TimeSeries};
use skywalker_net::Region;
use skywalker_replica::ReplicaStats;
use skywalker_sim::SimTime;
use skywalker_telemetry::TelemetrySummary;
use skywalker_trace::TraceSummary;

use super::SystemKind;

/// `num / den`, or zero when there is nothing to divide by.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Results of one scenario run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Display label of the scenario that ran.
    pub label: String,
    /// The preset the scenario was derived from, if any.
    pub system: Option<SystemKind>,
    /// Client-observed metrics (throughput, TTFT, E2E, hit rate).
    pub report: RunReport,
    /// Virtual time when the run ended.
    pub end_time: SimTime,
    /// Aggregated per-replica engine statistics.
    pub replica_stats: Vec<ReplicaStats>,
    /// Prefix-cache hit rate measured at the replicas.
    pub replica_hit_rate: f64,
    /// The serving engine's display label (e.g. `"fcfs+lru"`).
    pub engine_label: String,
    /// Running decodes preempted by batch policies, fleet-wide.
    pub preempted: u64,
    /// Block-rounded KV tokens reclaimed by cache eviction, fleet-wide.
    pub evicted_tokens: u64,
    /// Block-rounded KV tokens demoted GPU→host by tiered caches,
    /// fleet-wide (zero without a [`TieredEvictor`](crate::TieredEvictor)).
    pub demoted_tokens: u64,
    /// Block-rounded KV tokens promoted host→GPU on cache hits,
    /// fleet-wide (zero without a [`TieredEvictor`](crate::TieredEvictor)).
    pub promoted_tokens: u64,
    /// Disaggregated prefill→decode KV handoffs (zero without
    /// [`ReplicaRole::PrefillOnly`](crate::ReplicaRole::PrefillOnly) replicas).
    pub transfers: TransferSummary,
    /// Iterations with chunked prefill active, fleet-wide.
    pub chunked_steps: u64,
    /// Requests forwarded across regions.
    pub forwarded: u64,
    /// Max/min ratio of per-replica dispatch counts (load imbalance).
    pub dispatch_imbalance: f64,
    /// Max/min ratio of per-replica *peak outstanding* requests — the
    /// paper's "variance in outstanding request counts".
    pub outstanding_imbalance: f64,
    /// Peak outstanding requests observed per replica (probe-sampled).
    pub peak_outstanding: Vec<u32>,
    /// Largest balancer-side queue observed across all balancers.
    pub peak_lb_queue: usize,
    /// High-water mark of the simulation engine's pending-event count —
    /// the event-queue depth capacity planning keys off when scaling
    /// client populations.
    pub peak_events: usize,
    /// Max/min ratio of per-replica peak KV utilization (Fig. 4b).
    pub kv_peak_gap: f64,
    /// Peak KV utilization observed per replica (probe-sampled; one
    /// entry per replica ever deployed).
    pub kv_peaks: Vec<f64>,
    /// Fleet elasticity: per-region fleet-size traces and churn
    /// counters.
    pub fleet: FleetSummary,
    /// The recorded span trace, when [`FabricConfig::trace`](super::FabricConfig::trace) was set.
    /// Feed it to `skywalker_trace::Attribution` for the per-request
    /// bottleneck breakdown.
    pub trace: Option<TraceSummary>,
    /// The streaming-metrics summary, when [`FabricConfig::telemetry`](super::FabricConfig::telemetry)
    /// was set: the final registry snapshot plus the per-tick dashboard
    /// series.
    pub telemetry: Option<TelemetrySummary>,
}

impl RunSummary {
    /// Mean requests-per-second completed.
    pub fn request_rate(&self) -> f64 {
        ratio(self.report.completed as f64, self.end_time.as_secs_f64())
    }

    /// The capacity integral of the run: time-weighted mean fleet size ×
    /// run duration, in replica-seconds — identical for a static fleet to
    /// `replicas × end_time`, and the honest cost basis for elastic runs.
    pub fn replica_seconds(&self) -> f64 {
        self.fleet.mean_total() * self.end_time.as_secs_f64()
    }

    /// The run digest: every deterministic outcome the regression suites
    /// and the lab's reports carry, as named values in one fixed order.
    /// Anything that pins a file format selects keys from this list
    /// ([`RunSummary::row`]); the order and the existing names are a
    /// contract — append, never reorder.
    pub fn digest_fields(&self) -> Vec<(&'static str, Val)> {
        let r = &self.report;
        let t = &self.transfers;
        vec![
            ("label", Val::from(self.label.clone())),
            ("engine", Val::from(self.engine_label.clone())),
            ("completed", Val::from(r.completed)),
            ("failed", Val::from(r.failed)),
            ("retried", Val::from(r.retried)),
            ("in_flight", Val::from(r.in_flight)),
            ("prompt_tokens", Val::from(r.prompt_tokens)),
            ("cached_prompt_tokens", Val::from(r.cached_prompt_tokens)),
            ("generated_tokens", Val::from(r.generated_tokens)),
            ("tok_s", Val::from(r.throughput_tps)),
            ("client_hit_rate", Val::from(r.cache_hit_rate)),
            ("replica_hit_rate", Val::from(self.replica_hit_rate)),
            ("ttft_p50_s", Val::from(r.ttft.p50)),
            ("ttft_p90_s", Val::from(r.ttft.p90)),
            ("ttft_mean_s", Val::from(r.ttft.mean)),
            ("e2e_p50_s", Val::from(r.e2e.p50)),
            ("e2e_p90_s", Val::from(r.e2e.p90)),
            ("end_time_s", Val::from(self.end_time.as_secs_f64())),
            ("forwarded", Val::from(self.forwarded)),
            ("peak_lb_queue", Val::from(self.peak_lb_queue)),
            ("dispatch_imbalance", Val::from(self.dispatch_imbalance)),
            ("preempted", Val::from(self.preempted)),
            ("evicted_tokens", Val::from(self.evicted_tokens)),
            ("chunked_steps", Val::from(self.chunked_steps)),
            ("fleet_joins", Val::from(self.fleet.joins)),
            ("fleet_crashes", Val::from(self.fleet.crashes)),
            ("fleet_mean", Val::from(self.fleet.mean_total())),
            ("kv_transfers", Val::from(t.started)),
            ("kv_transfers_landed", Val::from(t.landed)),
            ("kv_transfers_aborted", Val::from(t.aborted)),
            ("kv_transfer_tokens", Val::from(t.tokens_sent)),
            ("kv_transfer_tokens_landed", Val::from(t.tokens_landed)),
            ("kv_transfer_tokens_aborted", Val::from(t.tokens_aborted)),
            ("demoted_tokens", Val::from(self.demoted_tokens)),
            ("promoted_tokens", Val::from(self.promoted_tokens)),
            ("fleet_drains", Val::from(self.fleet.drains)),
            ("fleet_peak", Val::from(self.fleet.peak_total())),
            ("replica_seconds", Val::from(self.replica_seconds())),
        ]
    }

    /// One report row: the digest values `schema` names, as `(output
    /// name, value)` in schema order. A schema is a list of `(output
    /// name, digest key)` pairs, so a report keeps its column names while
    /// every value has exactly one definition.
    ///
    /// # Panics
    ///
    /// If a schema asks for a key [`RunSummary::digest_fields`] does not
    /// carry — a typo in a static table, never a silently dropped column.
    pub fn row(&self, schema: &[(&'static str, &'static str)]) -> Vec<(&'static str, Val)> {
        let digest = self.digest_fields();
        schema
            .iter()
            .map(|&(name, key)| {
                let (_, val) = digest
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("row schema asks for unknown digest key `{key}`"));
                (name, val.clone())
            })
            .collect()
    }
}

/// What the disaggregated KV-transfer plane did over one run: handoff
/// counts and token volumes across the prefill→decode boundary. A run
/// without prefill-only replicas shows all zeros. Conservation law:
/// `started == landed + aborted + in_transfer()` at every instant, and
/// a drained run ends with `in_transfer() == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferSummary {
    /// Handoffs shipped by prefill replicas.
    pub started: u64,
    /// Handoffs that landed at a decode replica.
    pub landed: u64,
    /// Handoffs abandoned because every decode target died in flight
    /// (the request was rerouted or failed, never stranded).
    pub aborted: u64,
    /// KV tokens shipped (prompt + first token, per handoff).
    pub tokens_sent: u64,
    /// KV tokens that landed.
    pub tokens_landed: u64,
    /// KV tokens abandoned in flight.
    pub tokens_aborted: u64,
}

impl TransferSummary {
    /// Handoffs still on the wire when the run ended (shipped, neither
    /// landed nor aborted) — nonzero only for deadline-truncated runs.
    /// Saturating, so a broken ledger (more landed than started) reads
    /// as zero and fails the conservation assertions instead of
    /// panicking on overflow.
    pub fn in_transfer(&self) -> u64 {
        self.started
            .saturating_sub(self.landed)
            .saturating_sub(self.aborted)
    }

    /// KV tokens still on the wire when the run ended.
    pub fn tokens_in_transfer(&self) -> u64 {
        self.tokens_sent
            .saturating_sub(self.tokens_landed)
            .saturating_sub(self.tokens_aborted)
    }
}

/// What the fleet did over one run: per-region serving-replica traces
/// plus scale/failure counters. A static fleet shows flat traces and
/// zero counters.
#[derive(Debug, Clone, Default)]
pub struct FleetSummary {
    /// Serving (live, non-draining) replica count over time, one series
    /// per region that ever hosted a replica. Each series has a point
    /// at `t = 0` and at the run end, so time-weighted means are well
    /// defined.
    pub sizes: Vec<(Region, TimeSeries)>,
    /// Replicas that joined mid-run.
    pub joins: u64,
    /// Replicas drained (gracefully decommissioned).
    pub drains: u64,
    /// Replicas crashed.
    pub crashes: u64,
    /// Serving replicas at the end of the run.
    pub final_replicas: u32,
}

impl FleetSummary {
    /// The fleet-size trace of one region.
    pub fn series(&self, region: Region) -> Option<&TimeSeries> {
        self.sizes
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, s)| s)
    }

    /// Time-weighted mean serving-replica count across all regions —
    /// the "replica-seconds per second" a static fleet would need to
    /// match this run's capacity (the equal-cost comparison).
    pub fn mean_total(&self) -> f64 {
        self.sizes.iter().map(|(_, s)| s.time_weighted_mean()).sum()
    }

    /// Peak total serving-replica count observed at any single record
    /// point, per region, summed. (Regions peak at different times, so
    /// this upper-bounds the instantaneous total.)
    pub fn peak_total(&self) -> f64 {
        self.sizes.iter().map(|(_, s)| s.peak()).sum()
    }

    /// True if the fleet ever changed size.
    pub fn is_elastic(&self) -> bool {
        self.joins + self.drains + self.crashes > 0
    }
}
