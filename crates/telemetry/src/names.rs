//! The one table of `skywalker_*` metric names.
//!
//! The simulated fabric's telemetry plane and the live servers' `/metrics`
//! scrapes both publish through a [`MetricsRegistry`](crate::MetricsRegistry);
//! every name either side uses is spelled here and nowhere else, so the
//! two planes cannot drift apart and a scraper can check what it reads
//! against [`ALL`].

macro_rules! names {
    ($($(#[$doc:meta])* $ident:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $ident: &str = $name;)*

        /// Every name in the table, in declaration order.
        pub const ALL: &[&str] = &[$($ident),*];
    };
}

names! {
    // Balancer plane (labelled by `region`).
    /// Requests a balancer accepted.
    LB_RECEIVED_TOTAL = "skywalker_lb_received_total";
    /// Requests a balancer dispatched to one of its own replicas.
    LB_DISPATCHED_LOCAL_TOTAL = "skywalker_lb_dispatched_local_total";
    /// Requests a balancer forwarded to a peer region.
    LB_FORWARDED_TOTAL = "skywalker_lb_forwarded_total";
    /// Requests waiting in a balancer's queue right now.
    LB_QUEUE_DEPTH = "skywalker_lb_queue_depth";
    /// High-water mark of a balancer's queue (live plane).
    LB_PEAK_QUEUE = "skywalker_lb_peak_queue";
    /// Replicas a balancer may currently push to (live plane).
    LB_AVAILABLE_REPLICAS = "skywalker_lb_available_replicas";

    // Replica plane (fleet-wide in the sim, labelled by `replica` live).
    /// Requests admitted into a replica's batch (live plane).
    REPLICA_ADMITTED_TOTAL = "skywalker_replica_admitted_total";
    /// Requests replicas finished.
    REPLICA_COMPLETED_TOTAL = "skywalker_replica_completed_total";
    /// Prompt tokens replicas processed (live plane).
    REPLICA_PROMPT_TOKENS_TOTAL = "skywalker_replica_prompt_tokens_total";
    /// Prompt tokens served from the prefix cache (live plane).
    REPLICA_CACHED_PROMPT_TOKENS_TOTAL = "skywalker_replica_cached_prompt_tokens_total";
    /// Tokens replicas generated (live plane).
    REPLICA_GENERATED_TOKENS_TOTAL = "skywalker_replica_generated_tokens_total";
    /// Requests waiting for admission at a replica (live plane).
    REPLICA_PENDING = "skywalker_replica_pending";
    /// Requests in a replica's running batch (live plane).
    REPLICA_RUNNING = "skywalker_replica_running";
    /// Cached share of all prompt tokens processed so far.
    REPLICA_HIT_RATIO = "skywalker_replica_hit_ratio";
    /// One replica's KV-cache utilization (live plane).
    KV_UTILIZATION = "skywalker_kv_utilization";
    /// Mean KV-cache utilization across serving replicas (sim plane).
    KV_UTILIZATION_MEAN = "skywalker_kv_utilization_mean";
    /// Replicas currently serving (sim plane).
    SERVING_REPLICAS = "skywalker_serving_replicas";

    // Client-observed latency and the disaggregation plane (sim plane).
    /// Time to first token, all regions.
    TTFT_SECONDS = "skywalker_ttft_seconds";
    /// Time to first token, labelled by client `region`.
    REGION_TTFT_SECONDS = "skywalker_region_ttft_seconds";
    /// Prefill→decode KV handoffs shipped.
    KV_TRANSFERS_TOTAL = "skywalker_kv_transfers_total";
    /// KV tokens shipped across prefill→decode handoffs.
    KV_TRANSFER_TOKENS_TOTAL = "skywalker_kv_transfer_tokens_total";
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_and_prefixed() {
        for (i, name) in ALL.iter().enumerate() {
            assert!(name.starts_with("skywalker_"), "{name}");
            assert!(!ALL[..i].contains(name), "duplicate name {name}");
        }
    }
}
