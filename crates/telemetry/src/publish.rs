//! One metric listing per component.
//!
//! What a balancer or a replica publishes is written here once, and both
//! planes call it: a live server on every scrape, into a fresh registry,
//! and the simulated fabric once at run end, for every balancer and every
//! replica it ever deployed. Each listing reads only the component's own
//! state, so what a scrape or a run's final snapshot shows is what the
//! component holds at that instant.
//!
//! Counters are added with [`MetricsRegistry::inc`], so a registry takes
//! each component's listing once.

use skywalker_core::RegionalBalancer;
use skywalker_replica::Replica;

use crate::{names, MetricsRegistry};

/// Writes `lb`'s six series, labelled by its `region`.
pub fn balancer(reg: &mut MetricsRegistry, lb: &RegionalBalancer) {
    let (stats, (available, queue_len)) = (lb.stats(), lb.status());
    let labels = [("region", lb.region().name())];
    reg.inc(names::LB_RECEIVED_TOTAL, &labels, stats.received);
    reg.inc(
        names::LB_DISPATCHED_LOCAL_TOTAL,
        &labels,
        stats.dispatched_local,
    );
    reg.inc(names::LB_FORWARDED_TOTAL, &labels, stats.forwarded);
    reg.set_gauge(names::LB_QUEUE_DEPTH, &labels, f64::from(queue_len));
    reg.set_gauge(names::LB_PEAK_QUEUE, &labels, stats.peak_queue as f64);
    reg.set_gauge(names::LB_AVAILABLE_REPLICAS, &labels, f64::from(available));
}

/// Writes `r`'s nine series, labelled by its `replica` id.
pub fn replica(reg: &mut MetricsRegistry, r: &Replica) {
    let stats = r.stats();
    let id = r.id().0.to_string();
    let labels = [("replica", id.as_str())];
    reg.inc(names::REPLICA_ADMITTED_TOTAL, &labels, stats.admitted);
    reg.inc(names::REPLICA_COMPLETED_TOTAL, &labels, stats.completed);
    reg.inc(
        names::REPLICA_PROMPT_TOKENS_TOTAL,
        &labels,
        stats.prompt_tokens,
    );
    reg.inc(
        names::REPLICA_CACHED_PROMPT_TOKENS_TOTAL,
        &labels,
        stats.cached_prompt_tokens,
    );
    reg.inc(
        names::REPLICA_GENERATED_TOKENS_TOTAL,
        &labels,
        stats.generated_tokens,
    );
    reg.set_gauge(names::REPLICA_PENDING, &labels, r.pending_len() as f64);
    reg.set_gauge(names::REPLICA_RUNNING, &labels, r.running_len() as f64);
    reg.set_gauge(names::KV_UTILIZATION, &labels, r.kv_utilization());
    reg.set_gauge(names::REPLICA_HIT_RATIO, &labels, stats.hit_rate());
}
