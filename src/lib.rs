//! # SkyWalker
//!
//! A from-scratch Rust reproduction of *SkyWalker: A Locality-Aware
//! Cross-Region Load Balancer for LLM Inference* (Xia et al., EuroSys
//! '26) — the load balancer itself plus every substrate its evaluation
//! depends on.
//!
//! ## Crate map
//!
//! | Crate | Provides |
//! |---|---|
//! | `skywalker-sim` | deterministic discrete-event engine, seeded RNG |
//! | `skywalker-net` | regions, WAN latency model, wire codec |
//! | `skywalker-replica` | continuous-batching replica with radix KV cache |
//! | `skywalker-workload` | WildChat/Arena/ToT-style trace generators |
//! | `skywalker-core` | the balancer: the open [`RoutingPolicy`](core::RoutingPolicy) trait and its four built-ins, selective pushing, trie, ring, controller (failover, and client resolution: the latency-based DNS stand-in) |
//! | `skywalker-fleet` | the elastic fleet control plane: the open [`FleetPlan`] trait, [`ScheduledPlan`], [`ChaosPlan`], [`ThresholdAutoscaler`] |
//! | `skywalker-metrics` | exact box-plot summaries, request tracking, time series, the JSON report serializer |
//! | `skywalker-live` | real TCP balancer/replica servers on localhost |
//! | `skywalker-trace` | run tracer: span recording, per-request bottleneck attribution, flamegraph-style reports, run diffs (`docs/tracing.md`) |
//! | `skywalker-telemetry` | streaming metrics plane: quantile sketches (one 1 % error bound), labeled registry, bounded series, the one metric listing per balancer and replica that both planes publish, Prometheus export (`docs/telemetry.md`) |
//! | this crate | the [`fabric`] with [`ScenarioBuilder`], the preset [`scenarios`], the parallel experiment [`lab`] (deterministic multi-threaded sweeps over scenario grids), the reserved/on-demand provisioning [`cost`] model, and [`P2cLocal`] — a custom policy built on the open surface |
//!
//! ## Quickstart
//!
//! Scenarios are assembled with a fluent builder: pick a deployment
//! shape (or start from a [`SystemKind`] preset), a fleet, a workload,
//! and optionally a custom routing policy, then run it:
//!
//! ```
//! use skywalker::{run_scenario, FabricConfig, P2cLocalFactory, Scenario};
//! use skywalker::scenarios::{balanced_fleet, Workload};
//!
//! // A small ToT run on SkyWalker's per-region deployment shape, but
//! // routed by a policy the paper never shipped: power-of-two-choices
//! // with locality weighting, plugged in from outside the core crate.
//! let scenario = Scenario::builder()
//!     .replicas(balanced_fleet())
//!     .workload(Workload::Tot, 0.02, 7)
//!     .policy_factory(P2cLocalFactory::new(7))
//!     .build()
//!     .expect("fleet and workload are both set");
//! let summary = run_scenario(&scenario, &FabricConfig::default());
//! assert!(summary.report.completed > 0);
//! println!(
//!     "{}: {:.0} tok/s, p50 TTFT {:.3}s",
//!     summary.label, summary.report.throughput_tps, summary.report.ttft.p50
//! );
//! ```
//!
//! The paper's seven systems remain available as presets — each is now a
//! thin wrapper over the same builder. The system-comparison loop below
//! is compiled here so the front-door code can never rot; the Fig. 8 rows
//! of `docs/claims.md` (`cargo test --test paper_claims`) gate the same
//! comparison at full size:
//!
//! ```
//! use skywalker::{fig8_scenario, run_scenario, FabricConfig, SystemKind, Workload};
//!
//! for system in [SystemKind::RoundRobin, SystemKind::SglRouter, SystemKind::SkyWalker] {
//!     let scenario = fig8_scenario(system, Workload::Arena, 0.02, 42);
//!     let s = run_scenario(&scenario, &FabricConfig::default());
//!     assert!(s.report.completed > 0);
//!     println!(
//!         "{:<14} {:>8.0} tok/s  TTFT p50 {:>6.2}s  hit {:>5.1}%  fwd {}",
//!         system.label(),
//!         s.report.throughput_tps,
//!         s.report.ttft.p50,
//!         100.0 * s.replica_hit_rate,
//!         s.forwarded,
//!     );
//! }
//! ```
//!
//! To run a whole *grid* of such cells — policy × workload × fleet ×
//! seed — in parallel with bit-identical results at any thread count,
//! add one labelled cell per seed, `move || recipe(seed)` with a
//! [`recipe`], to a [`lab::SweepSpec`]; its `run` returns one
//! [`RunSummary`] per cell. `tests/paper_claims.rs` runs the whole
//! claims table as one such sweep, and `docs/architecture.md` has the
//! determinism rules.
//!
//! ## Extending
//!
//! All four experiment axes are open:
//!
//! - **Routing**: implement [`RoutingPolicy`](core::RoutingPolicy) (one
//!   required method) and a [`PolicyFactory`](core::PolicyFactory), hand
//!   the factory to [`ScenarioBuilder::policy_factory`], and the same
//!   implementation runs in the simulator and behind the live TCP
//!   servers. Recipe in `docs/extending.md`; [`P2cLocal`] is the worked
//!   example, and the smallest one hashes the session key over whatever
//!   candidates are up:
//!
//!   ```
//!   use skywalker::core::{
//!       hash_key, BalancerConfig, LbId, PolicyFactory, RingTarget, RoutingPolicy, TargetState,
//!   };
//!   use skywalker::replica::ReplicaId;
//!   use skywalker::{run_scenario, FabricConfig, Scenario, SystemKind, Workload};
//!
//!   /// Sticky per session while the fleet is stable, rebalancing as
//!   /// availability shifts.
//!   #[derive(Debug)]
//!   struct SessionSticky;
//!
//!   impl<T: RingTarget> RoutingPolicy<T> for SessionSticky {
//!       fn select(&mut self, key: &str, _prompt: &[u32], candidates: &[TargetState<T>]) -> Option<T> {
//!           if candidates.is_empty() {
//!               return None;
//!           }
//!           let idx = (hash_key(key) % candidates.len() as u64) as usize;
//!           Some(candidates[idx].id)
//!       }
//!
//!       fn name(&self) -> &str {
//!           "Sticky"
//!       }
//!   }
//!
//!   /// Both layers run the same stateless policy.
//!   #[derive(Debug)]
//!   struct SessionStickyFactory;
//!
//!   impl PolicyFactory for SessionStickyFactory {
//!       fn build_local(&self, _cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<ReplicaId>> {
//!           Box::new(SessionSticky)
//!       }
//!
//!       fn build_remote(&self, _cfg: &BalancerConfig) -> Box<dyn RoutingPolicy<LbId>> {
//!           Box::new(SessionSticky)
//!       }
//!
//!       fn label(&self) -> String {
//!           "Sticky".to_string()
//!       }
//!   }
//!
//!   let scenario = Scenario::builder()
//!       .deployment(SystemKind::SkyWalker.deployment())
//!       .policy_factory(SessionStickyFactory)
//!       .fig8_fleet(Workload::Tot)
//!       .workload(Workload::Tot, 0.02, 77)
//!       .build()
//!       .expect("fleet and workload are set");
//!   let s = run_scenario(&scenario, &FabricConfig::default());
//!   assert_eq!(s.label, "Sticky");
//!   assert!(s.report.completed > 0);
//!   ```
//! - **Traffic**: implement [`TrafficSource`] —
//!   a lazy stream of client arrivals the fabric pulls as simulated time
//!   advances — and hand it to [`ScenarioBuilder::traffic_source`]. The
//!   paper's four workloads are presets over the same trait
//!   ([`Workload::source`]); recipe in `docs/workloads.md`;
//!   [`RagCorpusSource`] and [`FlashCrowdSource`] are the worked
//!   examples, both living outside the workload crate.
//! - **Fleet**: implement [`FleetPlan`] — a stream of joins, drains,
//!   crashes, and balancer flaps the fabric polls with a live
//!   [`FleetObservation`] as simulated time advances — and hand it to
//!   [`ScenarioBuilder::fleet_plan`]. [`ScheduledPlan`], [`ChaosPlan`],
//!   and [`ThresholdAutoscaler`] are the built-ins; recipe in
//!   `docs/fleet.md`; [`PredictiveAutoscaler`] (diurnal-aware
//!   pre-provisioning) is the worked example outside the fleet crate.
//! - **Serving engine**: implement [`BatchPolicy`] (per-iteration
//!   admission order, prefill chunking, preemption) and/or
//!   [`KvEvictor`] (which unpinned prefix-cache state dies under
//!   memory pressure), bundle them in an [`EngineSpec`], and hand it
//!   to [`ScenarioBuilder::engine`] — every replica, including mid-run
//!   fleet joins, runs a clone. [`FcfsBatch`] + [`LruEvictor`] are the
//!   (byte-identical-to-history) defaults; recipe in `docs/replica.md`;
//!   [`ShortestPromptFirst`] is the worked example outside the replica
//!   crate, and the "Engine shootout" row of `docs/claims.md` races
//!   engines under the [`memory_pressure_scenario`] preset.
//!
//! And once cells exist on any axis, the [`lab`] sweeps their cross
//! product — policy × workload × fleet × seed — across OS threads with
//! bit-identical results at any worker count
//! (`tests/determinism_double_run.rs`; determinism rules in
//! `docs/architecture.md`).

pub mod autoscale;
pub mod cost;
pub mod fabric;
pub mod lab;
mod p2c;
pub mod scenarios;
mod sjf;
pub mod sources;

pub use autoscale::{PredictiveAutoscaler, PredictiveConfig};
pub use fabric::{
    run_scenario, Deployment, FabricConfig, FleetSummary, ReplicaPlacement, RunSummary, Scenario,
    ScenarioBuilder, ScenarioError, SystemKind, TransferSummary,
};
pub use p2c::{P2cLocal, P2cLocalFactory};
pub use scenarios::{
    balanced_fleet, disagg_engine, disagg_scenario, diurnal_day_scenario,
    diurnal_reference_predictive, diurnal_reference_reactive, equal_cost_lite_fleet,
    fig10_diurnal_scenario, fig10_scenario, fig8_scenario, fig9_scenario, l4_fleet, lite_fleet,
    memory_pressure_scenario, recipe, trio_diurnal_profiles, unbalanced_fleet, workload_clients,
    DayStrategy, DisaggWorkload, Workload, DIURNAL_DAY, L4_LITE, L4_PRESSURE, REGIONS,
};
pub use sjf::ShortestPromptFirst;
pub use skywalker_fleet::{
    AutoscalerConfig, ChaosConfig, ChaosPlan, FleetCommand, FleetEvent, FleetObservation,
    FleetPlan, MergePlan, ScheduledPlan, ThresholdAutoscaler,
};
pub use skywalker_replica::{
    AdmitOrder, BatchPlan, BatchPolicy, EngineSpec, EvictCandidate, FcfsBatch, KvEvictor,
    LruEvictor, NoEvict, PendingView, PrefixAwareEvictor, ReplicaRole, RunningView, StepView,
    TieredEvictor,
};
pub use skywalker_telemetry::{
    prometheus_text, MetricsRegistry, MetricsSnapshot, QuantileSketch, TelemetryConfig,
    TelemetrySummary,
};
pub use skywalker_trace::{
    Attribution, BottleneckReport, Phase, TraceConfig, TraceDiff, TraceSummary,
};
pub use sources::{DiurnalSource, FlashCrowdSource, RagCorpusConfig, RagCorpusSource};
pub use workload::{
    ArrivalSchedule, ClientEvent, ClientListSource, ConversationSource, MergeSource, TotSource,
    TrafficSource,
};

// Re-export the member crates under stable names so downstream users can
// depend on `skywalker` alone.
pub use skywalker_core as core;
pub use skywalker_fleet as fleet;
pub use skywalker_metrics as metrics;
pub use skywalker_net as net;
pub use skywalker_replica as replica;
pub use skywalker_sim as sim;
pub use skywalker_telemetry as telemetry;
pub use skywalker_trace as trace;
pub use skywalker_workload as workload;
