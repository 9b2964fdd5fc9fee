//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root repeats these tables for the driver; a unit test keeps the two
//! in step.

use crate::stats::Spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse? Negative when better.
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of either plane sees. Every workload reports every one of
/// these. On the four simulated workloads the four service figures
/// (requests and tokens per second, TTFT, E2E) are in *modelled* time and
/// repeat exactly under one seed; on `live_loopback` they are in host
/// time, this machine's clock. Set-up is host time everywhere. How fast
/// the simulator runs is a per-layer metric (`fabric.host_req_per_s`):
/// the shared host moves it by a third for tens of minutes at a time,
/// which no bound the driver accepts can hold (README, "Repeatability").
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("ttft_p50_ms", "ms", Lower, 0.25),
    e2e("e2e_p50_ms", "ms", Lower, 0.25),
    e2e("tok_per_s", "1/s", Higher, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.2),
];

/// One number per layer boundary, from the traced pass. A metric whose
/// layer a workload never enters reads 0 there.
pub const PER_LAYER: [MetricDef; 79] = [
    // In situ: decorators around the scenario's own trait objects.
    layer("workload.next_batch_calls", "count", Lower),
    layer("workload.next_batch_ns_per_req", "ns", Lower),
    layer("core.policy.select_calls", "count", Lower),
    layer("core.policy.select_ns", "ns", Lower),
    layer("core.policy.note_dispatch_ns", "ns", Lower),
    layer("core.policy.hit_ratio_calls", "count", Lower),
    layer("core.policy.hit_ratio_ns", "ns", Lower),
    layer("core.policy.remote_select_calls", "count", Lower),
    layer("core.policy.remote_select_ns", "ns", Lower),
    layer("replica.batch.plan_calls", "count", Lower),
    layer("replica.batch.plan_ns", "ns", Lower),
    layer("replica.kvcache.evict_pick_calls", "count", Lower),
    layer("replica.kvcache.evict_pick_ns", "ns", Lower),
    layer("fabric.wall_s", "s", Lower),
    layer("fabric.undisturbed_s", "s", Lower),
    layer("fabric.host_req_per_s", "1/s", Higher),
    layer("fabric.residual_ns_per_req", "ns", Lower),
    layer("fabric.residual_share", "share", Lower),
    layer("fabric.heap_allocs_per_req", "count", Lower),
    layer("fabric.probe_overhead_pct", "%", Lower),
    // Counters off the run's own summary (exact under one seed).
    layer("replica.hit_rate", "share", Higher),
    layer("replica.evicted_tokens_per_req", "tokens", Lower),
    layer("replica.kv_peak_gap", "ratio", Lower),
    layer("core.balancer.forward_share", "share", Lower),
    layer("core.balancer.peak_lb_queue", "count", Lower),
    layer("core.balancer.dispatch_imbalance", "ratio", Lower),
    layer("core.balancer.outstanding_imbalance", "ratio", Lower),
    layer("sim.engine.peak_events", "count", Lower),
    layer("metrics.tracker.issued", "count", Higher),
    layer("metrics.hops_mean", "count", Lower),
    layer("metrics.ttft_p90_ms", "ms", Lower),
    layer("metrics.ttft_p99_ms", "ms", Lower),
    layer("metrics.e2e_p90_ms", "ms", Lower),
    layer("trace.events_per_req", "count", Lower),
    layer("trace.dropped_events", "count", Lower),
    // Replay: the workload's first requests fed straight into each
    // layer's public API.
    layer("workload.drain_ns_per_req", "ns", Lower),
    layer("core.trie.insert_ns", "ns", Lower),
    layer("core.trie.best_match_ns", "ns", Lower),
    layer("core.trie.nodes", "count", Lower),
    layer("core.balancer.dispatch_ns", "ns", Lower),
    layer("replica.step_ns", "ns", Lower),
    layer("replica.steps_per_req", "count", Lower),
    layer("replica.kvcache.acquire_ns", "ns", Lower),
    layer("replica.kvcache.complete_ns", "ns", Lower),
    layer("replica.kvcache.replay_hit_rate", "share", Higher),
    layer("replica.kvcache.replay_evicted_tokens", "tokens", Lower),
    layer("sim.engine.event_ns", "ns", Lower),
    layer("metrics.tracker.record_ns", "ns", Lower),
    layer("metrics.tracker.report_ns", "ns", Lower),
    layer("trace.record_ns", "ns", Lower),
    layer("trace.attribution_ns_per_req", "ns", Lower),
    layer("telemetry.observe_ns", "ns", Lower),
    layer("telemetry.snapshot_ns", "ns", Lower),
    layer("net.wire.encode_ns", "ns", Lower),
    layer("net.wire.decode_ns", "ns", Lower),
    layer("net.wire.bytes_per_req", "bytes", Lower),
    // Live: client-side spans and the servers' own scrape.
    layer("live.sent", "count", Higher),
    layer("live.succeeded", "count", Higher),
    layer("live.failed", "count", Lower),
    layer("live.retried", "count", Lower),
    layer("live.ttft_p90_ms", "ms", Lower),
    layer("live.ttft_p99_ms", "ms", Lower),
    layer("live.e2e_p50_ms", "ms", Lower),
    layer("live.e2e_p90_ms", "ms", Lower),
    layer("live.decode_p50_ms", "ms", Lower),
    layer("live.local_ttft_p50_ms", "ms", Lower),
    layer("live.forwarded_ttft_p50_ms", "ms", Lower),
    layer("live.model_floor_ms", "ms", Lower),
    layer("live.overhead_ms", "ms", Lower),
    layer("live.forward_share", "share", Lower),
    layer("live.cached_token_share", "share", Higher),
    layer("live.connect_ms", "ms", Lower),
    layer("live.scrape_ms", "ms", Lower),
    layer("live.scrapes", "count", Higher),
    layer("live.threads", "count", Lower),
    layer("live.lb_received", "count", Higher),
    layer("live.lb_dispatched", "count", Higher),
    layer("live.replica_completed", "count", Higher),
    layer("live.replica_hit_rate", "share", Higher),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "diurnal_day",
        why: "open-loop diurnal day over 3 regions, short unshared prompts: traffic pull, fabric events, tracker and cross-region forwarding do the work; trie and KV cache do little",
    },
    WorkloadDef {
        name: "diurnal_observed",
        why: "the same day with tracing and 1 s telemetry on: only here do the observers work; simulated outcomes must equal diurnal_day bit for bit",
    },
    WorkloadDef {
        name: "tot_tree",
        why: "closed-loop Tree-of-Thoughts over 192 replicas, long shared prefixes: trie match/insert, cache-aware select and KV-cache hits do the work; almost nothing is forwarded",
    },
    WorkloadDef {
        name: "kv_pressure",
        why: "one region, RAG corpus 8x one replica's KV: batch planning and KV insert/evict do the work; no forwarding, the same cache as tot_tree used for writes",
    },
    WorkloadDef {
        name: "live_loopback",
        why: "real TCP servers on loopback, two closed-loop clients, half the requests forwarded: threads, locks, channels and wire framing do the work, the sim engine none",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported number: the value, and how it varied over the reps (or
/// window slices) it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub spread: Spread,
}

impl Measured {
    /// A count, or a simulated outcome: repeats exactly under one seed.
    pub fn exact(value: f64) -> Self {
        Measured {
            value,
            spread: Spread::exact(value),
        }
    }

    /// The median of timed samples.
    pub fn median_of(samples: &[f64]) -> Self {
        let spread = Spread::of(samples);
        Measured {
            value: spread.median,
            spread,
        }
    }
}

/// Metric values by name, in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(&'static str, Measured)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, m: Measured) {
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        self.0.push((name, m));
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.put(name, Measured::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, m) in other.0 {
            self.put(name, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is the driver's copy of the tables above.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |v: &json::Value, k: &str| v.get(k).and_then(|s| s.as_str().map(String::from));

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (str_of(w, "name").unwrap(), str_of(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(str_of(entry, "name").as_deref(), Some(def.name));
                assert_eq!(
                    str_of(entry, "unit").as_deref(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    str_of(entry, "better").as_deref(),
                    Some(def.better.label()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(json::Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(Lower.worse_by(10.0, 11.0), 0.1);
        assert_eq!(Higher.worse_by(10.0, 9.0), 0.1);
        assert!(Higher.worse_by(10.0, 12.0) < 0.0);
        assert_eq!(Lower.worse_by(0.0, 5.0), 0.0);
    }
}
