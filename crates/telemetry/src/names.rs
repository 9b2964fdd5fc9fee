//! The one table of `skywalker_*` metric names.
//!
//! A balancer's and a replica's series are listed once, in
//! [`publish`](crate::publish), and both planes publish through that
//! listing: the live servers' `/metrics` scrapes and the simulated
//! fabric's final snapshot carry the same names with the same labels.
//! Every name is spelled here and nowhere else, so a scraper can check
//! what it reads against [`ALL`].

macro_rules! names {
    ($($(#[$doc:meta])* $ident:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $ident: &str = $name;)*

        /// Every name in the table, in declaration order.
        pub const ALL: &[&str] = &[$($ident),*];
    };
}

names! {
    // One balancer (labelled by `region`): `publish::balancer`.
    /// Requests a balancer accepted.
    LB_RECEIVED_TOTAL = "skywalker_lb_received_total";
    /// Requests a balancer dispatched to one of its own replicas.
    LB_DISPATCHED_LOCAL_TOTAL = "skywalker_lb_dispatched_local_total";
    /// Requests a balancer forwarded to a peer region.
    LB_FORWARDED_TOTAL = "skywalker_lb_forwarded_total";
    /// Requests waiting in a balancer's queue right now.
    LB_QUEUE_DEPTH = "skywalker_lb_queue_depth";
    /// High-water mark of a balancer's queue.
    LB_PEAK_QUEUE = "skywalker_lb_peak_queue";
    /// Replicas a balancer may currently push to.
    LB_AVAILABLE_REPLICAS = "skywalker_lb_available_replicas";

    // One replica (labelled by `replica`): `publish::replica`.
    /// Requests admitted into a replica's batch.
    REPLICA_ADMITTED_TOTAL = "skywalker_replica_admitted_total";
    /// Requests a replica finished.
    REPLICA_COMPLETED_TOTAL = "skywalker_replica_completed_total";
    /// Prompt tokens a replica processed.
    REPLICA_PROMPT_TOKENS_TOTAL = "skywalker_replica_prompt_tokens_total";
    /// Prompt tokens a replica served from its prefix cache.
    REPLICA_CACHED_PROMPT_TOKENS_TOTAL = "skywalker_replica_cached_prompt_tokens_total";
    /// Tokens a replica generated.
    REPLICA_GENERATED_TOKENS_TOTAL = "skywalker_replica_generated_tokens_total";
    /// Requests waiting for admission at a replica.
    REPLICA_PENDING = "skywalker_replica_pending";
    /// Requests in a replica's running batch.
    REPLICA_RUNNING = "skywalker_replica_running";
    /// Cached share of the prompt tokens a replica processed so far.
    REPLICA_HIT_RATIO = "skywalker_replica_hit_ratio";
    /// A replica's KV-cache utilization.
    KV_UTILIZATION = "skywalker_kv_utilization";

    // The fleet and its clients (unlabelled unless noted), which only a
    // simulated run has a view of.
    /// Replicas serving at the end of the run.
    SERVING_REPLICAS = "skywalker_serving_replicas";
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
