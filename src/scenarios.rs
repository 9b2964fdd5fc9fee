//! Ready-made scenarios matching the paper's experiment setups (§5.1).
//!
//! Every macrobenchmark uses L4 replicas spread over the three-region
//! layout (US, Europe, Asia) with closed-loop clients in all three
//! regions. The four workloads are:
//!
//! - **ChatBot Arena**: equal client counts per region (the paper runs 80
//!   ongoing conversations per region).
//! - **WildChat**: unequal counts (40 US / 30 EU / 30 Asia), each region
//!   replaying conversations of its own geographic users.
//! - **Tree of Thoughts (ToT)**: 2-branch depth-4 trees (15 requests),
//!   40/20/20 clients.
//! - **Mixed Tree**: the US runs two clients of heavy 4-branch trees (85
//!   requests) while other regions keep 2-branch traffic — the
//!   heterogeneous-program stressor.

use skywalker_net::Region;
use skywalker_replica::{EngineSpec, GpuProfile, KvConfig, LruEvictor, ReplicaRole, TieredEvictor};
use skywalker_sim::SimDuration;
use skywalker_workload::{
    drain, fig3_regions, ClientSpec, ConversationConfig, ConversationSource, DiurnalProfile,
    LengthModel, MergeSource, TotConfig, TotSource, TrafficSource,
};

use skywalker_fleet::{AutoscalerConfig, ChaosConfig, ChaosPlan, ThresholdAutoscaler};

use crate::autoscale::{PredictiveAutoscaler, PredictiveConfig};
use crate::fabric::{
    FabricConfig, ReplicaPlacement, Scenario, ScenarioBuilder, ScenarioError, SystemKind,
};
use crate::sources::{DiurnalSource, RagCorpusConfig, RagCorpusSource};

/// The paper's three serving regions.
pub const REGIONS: [Region; 3] = Region::PAPER_TRIO;

/// `counts` placed on the trio, west to east.
fn trio(counts: [u32; 3]) -> [(Region, u32); 3] {
    [0, 1, 2].map(|i| (REGIONS[i], counts[i]))
}

/// `total` split evenly across the trio, remainders going west-to-east.
fn trio_split(total: u32) -> [(Region, u32); 3] {
    let (per, rem) = (total / 3, total % 3);
    trio([per + u32::from(rem > 0), per + u32::from(rem > 1), per])
}

/// `base` clients at `scale` (1.0 = the paper's count), never fewer
/// than `floor` — the one place a population scale is applied, so the
/// one place it is checked: a scale that is not a positive finite number
/// (or that overflows the count) would otherwise run the floor or try to
/// generate four billion clients before the engine starts.
fn scaled(base: u32, scale: f64, floor: u32) -> Result<u32, ScenarioError> {
    let n = (f64::from(base) * scale).round();
    // NaN fails the first comparison, +∞ the second.
    if scale > 0.0 && n <= f64::from(u32::MAX) {
        Ok((n as u32).max(floor))
    } else {
        Err(ScenarioError::InvalidScale)
    }
}

/// `(region, base)` client slots at `scale`, one client per region at
/// least.
fn scaled_slots(bases: &[(Region, u32)], scale: f64) -> Result<Vec<(Region, u32)>, ScenarioError> {
    bases
        .iter()
        .map(|&(region, base)| Ok((region, scaled(base, scale, 1)?)))
        .collect()
}

/// A fleet of `profile` replicas with the given per-region counts.
fn fleet_of(profile: GpuProfile, counts: &[(Region, u32)]) -> Vec<ReplicaPlacement> {
    counts
        .iter()
        .flat_map(|&(region, n)| (0..n).map(move |_| ReplicaPlacement { region, profile }))
        .collect()
}

/// An L4 fleet with the given per-region replica counts.
pub fn l4_fleet(counts: &[(Region, u32)]) -> Vec<ReplicaPlacement> {
    fleet_of(GpuProfile::L4_LLAMA_8B, counts)
}

/// A balanced 12-replica fleet (4 per region), the ToT configuration.
pub fn balanced_fleet() -> Vec<ReplicaPlacement> {
    l4_fleet(&trio([4, 4, 4]))
}

/// The unbalanced fleet variant (3 US / 2 EU / 3 Asia + 4 extra US = the
/// paper also tests 3/3/2; we expose the knob).
pub fn unbalanced_fleet() -> Vec<ReplicaPlacement> {
    l4_fleet(&trio([3, 2, 3]))
}

/// The four macrobenchmark workloads of Fig. 8 — preset constructors for
/// the streaming [`TrafficSource`]s that generate them, mirroring what
/// `PolicyKind` is to the open routing-policy trait. Nothing in the
/// fabric dispatches on this enum; any external [`TrafficSource`] plugs
/// into [`ScenarioBuilder::traffic_source`] with equal standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ChatBot Arena-style conversations, equal clients per region.
    Arena,
    /// WildChat-style conversations, 40/30/30 clients.
    WildChat,
    /// 2-branch Tree of Thoughts, 40/20/20 clients.
    Tot,
    /// Mixed: US sends 4-branch trees, others 2-branch.
    MixedTree,
}

impl Workload {
    /// All four, in the paper's column order.
    pub const ALL: [Workload; 4] = [
        Workload::Arena,
        Workload::WildChat,
        Workload::Tot,
        Workload::MixedTree,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Arena => "ChatBot Arena",
            Workload::WildChat => "WildChat",
            Workload::Tot => "ToT",
            Workload::MixedTree => "Mixed Tree",
        }
    }

    /// The streaming source generating this workload at the given scale
    /// (1.0 = the paper's client counts); clients materialize lazily at
    /// their arrival instants.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidScale`] unless `scale` is a positive
    /// finite number.
    pub fn source(&self, scale: f64, seed: u64) -> Result<Box<dyn TrafficSource>, ScenarioError> {
        // Clients per region at scale 1.0, west to east.
        let bases = match self {
            Workload::Arena => [80, 80, 80],
            Workload::WildChat => [40, 30, 30],
            Workload::Tot | Workload::MixedTree => [40, 20, 20],
        };
        let slots = scaled_slots(&trio(bases), scale)?;
        let label = self.label();
        Ok(match self {
            Workload::Arena => Box::new(
                ConversationSource::new(ConversationConfig::arena(), slots, seed).with_label(label),
            ),
            Workload::WildChat => Box::new(
                ConversationSource::new(ConversationConfig::wildchat(), slots, seed)
                    .with_label(label),
            ),
            Workload::Tot => {
                Box::new(TotSource::new(TotConfig::branch2(), slots, 2, seed).with_label(label))
            }
            Workload::MixedTree => {
                // ToT, except that the US runs two clients of heavy
                // 4-branch trees whatever the scale. The light source's
                // id range starts past the heavy source's closed-form
                // request count.
                let heavy = TotSource::new(TotConfig::branch4(), vec![(REGIONS[0], 2)], 2, seed);
                let light =
                    TotSource::new(TotConfig::branch2(), slots[1..].to_vec(), 2, seed ^ 0xBEEF)
                        .with_first_request_id(heavy.request_id_end());
                Box::new(MergeSource::new(vec![Box::new(heavy), Box::new(light)]).with_label(label))
            }
        })
    }
}

/// Builds the client population for a workload, scaled by `scale`
/// (1.0 = the paper's client counts) — the eager drain of
/// [`Workload::source`], kept for tests and offline analysis.
///
/// # Errors
///
/// [`ScenarioError::InvalidScale`], as [`Workload::source`].
pub fn workload_clients(
    workload: Workload,
    scale: f64,
    seed: u64,
) -> Result<Vec<ClientSpec>, ScenarioError> {
    Ok(drain(workload.source(scale, seed)?.as_mut()))
}

impl ScenarioBuilder {
    /// Sets the traffic to one of the paper's workloads at the given
    /// scale (1.0 = the paper's client counts), streamed through
    /// [`Workload::source`]. A scale that is not a positive finite
    /// number fails [`ScenarioBuilder::build`] with
    /// [`ScenarioError::InvalidScale`].
    pub fn workload(self, workload: Workload, scale: f64, seed: u64) -> Self {
        self.traffic(workload.source(scale, seed))
    }

    /// Sets the replica fleet to the workload's standard Fig. 8 fleet
    /// (balanced for tree workloads, unbalanced for conversations).
    pub fn fig8_fleet(self, workload: Workload) -> Self {
        match workload {
            Workload::Tot | Workload::MixedTree => self.replicas(balanced_fleet()),
            _ => self.replicas(unbalanced_fleet()),
        }
    }
}

/// One cell of the Fig. 8 grid: a system running a workload on the
/// standard fleet — a thin wrapper over [`ScenarioBuilder`].
pub fn fig8_scenario(system: SystemKind, workload: Workload, scale: f64, seed: u64) -> Scenario {
    system
        .builder()
        .fig8_fleet(workload)
        .workload(workload, scale, seed)
        .build()
        .expect("fig8 presets set a fleet and a workload")
}

/// The Fig. 9 single-region microbenchmark: everything co-located in one
/// region, ToT branch-2 traffic, `clients` closed-loop clients against
/// `replicas` replicas.
pub fn fig9_scenario(system: SystemKind, replicas: u32, clients: u32, seed: u64) -> Scenario {
    let region = REGIONS[0];
    let trees = TotSource::new(TotConfig::branch2(), vec![(region, clients)], 2, seed);
    system
        .builder()
        .replicas(l4_fleet(&[(region, replicas)]))
        .traffic_source(Box::new(trees))
        .build()
        .expect("fig9 presets set a fleet and clients")
}

/// The Fig. 10 diurnal/imbalance experiment: regionally skewed clients
/// (120 US / 40 EU / 40 Asia at scale 1.0) over an evenly distributed
/// fleet of `total_replicas`.
pub fn fig10_scenario(system: SystemKind, total_replicas: u32, scale: f64, seed: u64) -> Scenario {
    let users = scaled_slots(&trio([120, 40, 40]), scale).map(|slots| {
        let users = ConversationSource::new(ConversationConfig::wildchat(), slots, seed);
        Box::new(users) as Box<dyn TrafficSource>
    });
    system
        .builder()
        .replicas(l4_fleet(&trio_split(total_replicas)))
        .traffic(users)
        .build()
        .expect("fig10 presets set a fleet and a positive finite client scale")
}

/// A deliberately small replica for compressed diurnal days: L4 timing
/// with ~1/8 of the batch ceiling and KV capacity, so a `scale`-thinned
/// day saturates replicas the way the full-scale day saturates real
/// L4s. Without this, thinning the traffic to test volume would leave
/// every replica idle and nothing for an autoscaler to react to.
pub const L4_LITE: GpuProfile = GpuProfile {
    name: "L4-lite/llama-3.1-8b",
    kv: KvConfig {
        capacity_tokens: 6_144,
        block_tokens: 16,
    },
    max_batch_size: 6,
    ..GpuProfile::L4_LLAMA_8B
};

/// An [`L4_LITE`] fleet with the given per-region replica counts.
pub fn lite_fleet(counts: &[(Region, u32)]) -> Vec<ReplicaPlacement> {
    fleet_of(L4_LITE, counts)
}

/// The diurnal rate curves of the paper's three macrobenchmark regions
/// (Fig. 3a curves restricted to the [`REGIONS`] trio).
pub fn trio_diurnal_profiles() -> Vec<(Region, DiurnalProfile)> {
    fig3_regions()
        .into_iter()
        .filter(|(r, _)| REGIONS.contains(r))
        .collect()
}

/// The Fig. 10 experiment's *diurnal* form: a full (compressed) day of
/// per-region demand following the Fig. 3a curves, over an evenly
/// distributed starting fleet of `per_region` [`L4_LITE`] replicas per
/// region (lite hardware matches the thinned traffic — see [`L4_LITE`]).
///
/// This is the scenario where fleet elasticity shows: run it as-is for
/// the static baseline, or attach a fleet plan
/// (`ScenarioBuilder::fleet_plan` via [`Scenario`]'s builder — e.g. a
/// `ThresholdAutoscaler` or [`crate::PredictiveAutoscaler`]) to let
/// capacity track the day. `day` compresses 24 h of the curves into sim
/// time; `scale` keeps that fraction of the trace's arrivals.
pub fn fig10_diurnal_scenario(
    system: SystemKind,
    per_region: u32,
    day: SimDuration,
    scale: f64,
    seed: u64,
) -> Scenario {
    let source = DiurnalSource::new(
        &trio_diurnal_profiles(),
        day,
        scale,
        &DiurnalSource::light_chat(),
        seed,
    );
    system
        .builder()
        .replicas(lite_fleet(&trio([per_region; 3])))
        .traffic_source(Box::new(source))
        .label(format!("{} (diurnal)", system.label()))
        .build()
        .expect("fig10 diurnal presets set a fleet and traffic")
}

/// An L4-timed replica whose KV cache is starved to ~1/24 of the real
/// geometry: the [`memory_pressure_scenario`] hardware. With ~2 k KV
/// tokens against a hot 8-document corpus of 256-token prefixes, demand
/// permanently exceeds capacity — admission queues form, eviction churns
/// on every acquire, and serving-engine choices (admission order,
/// chunked prefill, eviction policy) dominate the latency distribution
/// instead of routing.
pub const L4_PRESSURE: GpuProfile = GpuProfile {
    name: "L4-pressure/llama-3.1-8b",
    kv: KvConfig {
        capacity_tokens: 2_048,
        block_tokens: 16,
    },
    max_batch_size: 16,
    ..GpuProfile::L4_LLAMA_8B
};

/// `base · scale` RAG users (two at least) over `corpus`, all in the
/// first region: the traffic of the two single-region engine presets.
fn rag_users(
    corpus: RagCorpusConfig,
    base: u32,
    scale: f64,
    seed: u64,
) -> Result<Box<dyn TrafficSource>, ScenarioError> {
    let users = vec![(REGIONS[0], scaled(base, scale, 2)?)];
    Ok(Box::new(RagCorpusSource::new(corpus, users, seed)))
}

/// The memory-pressure preset: a single-region, two-replica
/// [`L4_PRESSURE`] fleet serving RAG traffic over a hot shared corpus
/// whose working set alone fills one replica's KV cache. This is the
/// scenario where engines *measurably diverge* — run it across
/// [`EngineSpec`]s (the "Engine shootout" row of `docs/claims.md`) and
/// P90 TTFT and the replica hit ratio split by engine, because the
/// bottleneck is the serving loop, not the wide-area routing the other
/// presets stress.
///
/// `scale` thins the user population (1.0 ≈ 40 users); the engine label
/// lands in the scenario label, so shootout tables and goldens
/// self-describe.
pub fn memory_pressure_scenario(engine: EngineSpec, scale: f64, seed: u64) -> Scenario {
    let cfg = RagCorpusConfig {
        corpus_docs: 8,
        doc_tokens: 256,
        doc_zipf: 1.2,
        query_tokens: LengthModel {
            mu: 3.0,
            sigma: 0.6,
            min: 4,
            max: 64,
        },
        answer_tokens: LengthModel {
            mu: 4.0,
            sigma: 0.6,
            min: 8,
            max: 160,
        },
        queries_per_user: (3, 8),
    };
    let label = format!("memory-pressure/{}", engine.label());
    SystemKind::SkyWalker
        .builder()
        .replicas(fleet_of(L4_PRESSURE, &[(REGIONS[0], 2)]))
        .traffic(rag_users(cfg, 40, scale, seed))
        .engine(engine)
        .label(label)
        .build()
        .expect("memory-pressure preset sets a fleet and a positive finite user scale")
}

/// The two traffic shapes of the disaggregation shootout: where the
/// prefill/decode split pays for its transfer cost, and where it
/// doesn't.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisaggWorkload {
    /// Long shared-corpus prompts, short answers: prefill dominates.
    PrefillHeavy,
    /// Short prompts, long generations: decode dominates, and running
    /// decodes hold KV for a long time.
    DecodeHeavy,
}

impl DisaggWorkload {
    /// Both shapes, prefill-heavy first.
    pub const ALL: [DisaggWorkload; 2] =
        [DisaggWorkload::PrefillHeavy, DisaggWorkload::DecodeHeavy];

    /// Short label used in scenario and digest names.
    pub fn label(&self) -> &'static str {
        match self {
            DisaggWorkload::PrefillHeavy => "prefill-heavy",
            DisaggWorkload::DecodeHeavy => "decode-heavy",
        }
    }

    fn corpus(&self) -> RagCorpusConfig {
        match self {
            DisaggWorkload::PrefillHeavy => RagCorpusConfig {
                corpus_docs: 12,
                doc_tokens: 384,
                doc_zipf: 1.1,
                query_tokens: LengthModel {
                    mu: 3.5,
                    sigma: 0.6,
                    min: 8,
                    max: 96,
                },
                answer_tokens: LengthModel {
                    mu: 2.8,
                    sigma: 0.4,
                    min: 4,
                    max: 32,
                },
                queries_per_user: (3, 8),
            },
            DisaggWorkload::DecodeHeavy => RagCorpusConfig {
                corpus_docs: 8,
                doc_tokens: 96,
                doc_zipf: 1.1,
                query_tokens: LengthModel {
                    mu: 3.0,
                    sigma: 0.6,
                    min: 4,
                    max: 48,
                },
                answer_tokens: LengthModel {
                    mu: 5.3,
                    sigma: 0.4,
                    min: 128,
                    max: 400,
                },
                queries_per_user: (2, 5),
            },
        }
    }
}

/// The serving engine of the disaggregation preset: LRU eviction behind
/// a two-tier wrapper that demotes GPU victims into a host pool twice
/// the GPU cache's size instead of dropping them. Decode replicas keep
/// handoff prefixes warm this way, and the digest's `demoted_tokens` /
/// `promoted_tokens` columns come alive.
pub fn disagg_engine() -> EngineSpec {
    EngineSpec {
        evictor: Box::new(TieredEvictor::new(
            Box::new(LruEvictor),
            2 * L4_LITE.kv.capacity_tokens,
        )),
        ..EngineSpec::default()
    }
}

/// The disaggregation preset: a single-region, four-replica
/// [`L4_LITE`] fleet serving RAG traffic, either classically colocated
/// (`disagg = false`) or split into two prefill-only plus two
/// decode-only replicas (`disagg = true`). Both variants run the
/// [`disagg_engine`] two-tier cache, so the comparison isolates the
/// role split. Sweep both [`DisaggWorkload`] shapes and the P90 TTFT
/// verdict crosses over (gated as the "Disagg shootout" rows of
/// `docs/claims.md`): the split pays when running decodes
/// would otherwise starve prefill admission, and loses when halving
/// prefill capacity just doubles the prompt queue.
pub fn disagg_scenario(workload: DisaggWorkload, disagg: bool, scale: f64, seed: u64) -> Scenario {
    let roles = if disagg {
        vec![
            ReplicaRole::PrefillOnly,
            ReplicaRole::PrefillOnly,
            ReplicaRole::DecodeOnly,
            ReplicaRole::DecodeOnly,
        ]
    } else {
        Vec::new()
    };
    let label = format!(
        "disagg/{}/{}",
        workload.label(),
        if disagg { "split" } else { "colo" }
    );
    SystemKind::SkyWalker
        .builder()
        .replicas(lite_fleet(&[(REGIONS[0], 4)]))
        .roles(roles)
        .traffic(rag_users(workload.corpus(), 32, scale, seed))
        .engine(disagg_engine())
        .label(label)
        .build()
        .expect("disagg preset sets a fleet and a positive finite user scale")
}

/// Turns a seed-parametric preset into a recipe for a sweep harness:
/// one seed drives both the traffic generation and the fabric's root
/// seed, so each seed's run is an independent, reproducible experiment.
/// A `skywalker-lab` cell calls it with the seed its label names —
/// `spec.cell(format!("{label}@{seed}"), move || cell(seed))`. Wrap any
/// of the `*_scenario` presets — `recipe(move |seed| fig8_scenario(
/// system, workload, scale, seed))` — or a closure that builds on one
/// (e.g. attaches a fleet plan) to sweep variants.
pub fn recipe(
    scenario: impl Fn(u64) -> Scenario + Clone + Send + Sync + 'static,
) -> impl Fn(u64) -> (Scenario, FabricConfig) + Clone + Send + Sync + 'static {
    move |seed| {
        let cfg = FabricConfig {
            seed,
            ..FabricConfig::default()
        };
        (scenario(seed), cfg)
    }
}

/// Length of the reference diurnal day: 24 h of the Fig. 3a curves
/// compressed into 20 simulated minutes.
pub const DIURNAL_DAY: SimDuration = SimDuration::from_secs(1_200);

/// Fraction of the trace's arrivals the reference day keeps.
const DIURNAL_DAY_SCALE: f64 = 0.008;

/// The four fleet strategies compared on the reference diurnal day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayStrategy {
    /// Three [`L4_LITE`] replicas per region, never changed.
    Static,
    /// The static fleet under seeded crash/replace churn.
    Chaos,
    /// One replica per region plus a [`ThresholdAutoscaler`] on
    /// [`diurnal_reference_reactive`].
    Reactive,
    /// One replica per region plus the [`PredictiveAutoscaler`] on
    /// [`diurnal_reference_predictive`].
    Predictive,
}

/// The reference diurnal-day fleet experiment: [`fig10_diurnal_scenario`]
/// over [`DIURNAL_DAY`] under one of the four [`DayStrategy`]s — the one
/// recipe behind the "Fleet day" rows of `docs/claims.md`. The same
/// `seed` gives every strategy the same day of traffic.
pub fn diurnal_day_scenario(strategy: DayStrategy, seed: u64) -> Scenario {
    let per_region = match strategy {
        DayStrategy::Static | DayStrategy::Chaos => 3,
        DayStrategy::Reactive | DayStrategy::Predictive => 1,
    };
    let mut scenario = fig10_diurnal_scenario(
        SystemKind::SkyWalker,
        per_region,
        DIURNAL_DAY,
        DIURNAL_DAY_SCALE,
        seed,
    );
    scenario.fleet_plan = match strategy {
        DayStrategy::Static => None,
        DayStrategy::Chaos => Some(Box::new(ChaosPlan::new(
            ChaosConfig {
                mtbf: SimDuration::from_secs(120),
                mttr: SimDuration::from_secs(45),
                profile: L4_LITE,
                min_live_per_region: 1,
                ..ChaosConfig::default()
            },
            seed,
        ))),
        DayStrategy::Reactive => Some(Box::new(ThresholdAutoscaler::new(
            diurnal_reference_reactive(),
        ))),
        DayStrategy::Predictive => Some(Box::new(PredictiveAutoscaler::new(
            trio_diurnal_profiles(),
            diurnal_reference_predictive(),
        ))),
    };
    scenario
}

/// The equal-cost static counterpart of an elastic run: a lite fleet
/// whose size matches the elastic run's time-weighted mean replica
/// count (`RunSummary::fleet.mean_total()`), rounded and split across
/// the trio — the same replica-seconds, spent statically.
pub fn equal_cost_lite_fleet(mean_total: f64) -> Vec<ReplicaPlacement> {
    lite_fleet(&trio_split((mean_total.round() as u32).max(3)))
}

/// The reactive reference tunables of the compressed diurnal day —
/// the calibration table in `docs/fleet.md` §5, in code.
pub fn diurnal_reference_reactive() -> AutoscalerConfig {
    AutoscalerConfig {
        min_per_region: 1,
        max_per_region: 6,
        scale_out_load: 3.0,
        scale_in_load: 1.5,
        cooldown: SimDuration::from_secs(60),
        provision_delay: SimDuration::from_secs(20),
        profile: L4_LITE,
    }
}

/// The predictive reference tunables of the reference diurnal day
/// (`docs/fleet.md` §5), matched to its [`DIURNAL_DAY`] length and scale.
pub fn diurnal_reference_predictive() -> PredictiveConfig {
    PredictiveConfig {
        day: DIURNAL_DAY,
        scale: DIURNAL_DAY_SCALE,
        per_replica_rph: 12.0,
        lead: SimDuration::from_secs(60),
        provision_delay: SimDuration::from_secs(20),
        min_per_region: 1,
        max_per_region: 6,
        profile: L4_LITE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_sim::SimTime;

    #[test]
    fn fleet_builders_place_replicas() {
        assert_eq!(balanced_fleet().len(), 12);
        assert_eq!(unbalanced_fleet().len(), 8);
        let fleet = l4_fleet(&[(REGIONS[0], 2), (REGIONS[2], 1)]);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[0].region, REGIONS[0]);
        assert_eq!(fleet[2].region, REGIONS[2]);
    }

    #[test]
    fn workload_client_counts_match_paper_at_full_scale() {
        let workload_clients = |w, scale| workload_clients(w, scale, 1).expect("positive scale");
        let arena = workload_clients(Workload::Arena, 1.0);
        assert_eq!(arena.len(), 240, "80 clients per region");
        let wildchat = workload_clients(Workload::WildChat, 1.0);
        assert_eq!(wildchat.len(), 100, "40 + 30 + 30");
        let tot = workload_clients(Workload::Tot, 1.0);
        assert_eq!(tot.len(), 80, "40 + 20 + 20");
        // ToT: 2 trees of 15 requests each per client.
        assert!(tot.iter().all(|c| c.total_requests() == 30));
        let mixed = workload_clients(Workload::MixedTree, 1.0);
        // 2 heavy US clients with 85-request trees.
        let heavy: Vec<_> = mixed.iter().filter(|c| c.total_requests() == 170).collect();
        assert_eq!(heavy.len(), 2);
        assert!(heavy.iter().all(|c| c.region == REGIONS[0]));
    }

    #[test]
    fn scale_shrinks_population_with_floor() {
        let small = workload_clients(Workload::Arena, 0.01, 1).expect("positive scale");
        assert_eq!(small.len(), 3, "floor of one client per region");
    }

    #[test]
    fn fig9_is_single_region() {
        let s = fig9_scenario(SystemKind::SkyWalker, 4, 10, 1);
        assert_eq!(s.replicas.len(), 4);
        assert!(s.replicas.iter().all(|r| r.region == REGIONS[0]));
        assert_eq!(s.traffic.regions(), vec![REGIONS[0]]);
        assert!(s
            .clients_until(SimTime::ZERO)
            .iter()
            .all(|c| c.region == REGIONS[0]));
    }

    #[test]
    fn fig10_fleet_split_covers_remainders() {
        for n in [3u32, 4, 5, 6, 7] {
            let s = fig10_scenario(SystemKind::SkyWalker, n, 0.1, 1);
            assert_eq!(s.replicas.len(), n as usize, "total {n}");
        }
    }

    #[test]
    fn workload_labels_stable() {
        assert_eq!(Workload::Arena.label(), "ChatBot Arena");
        assert_eq!(Workload::ALL.len(), 4);
    }

    #[test]
    fn recipes_are_pure_in_the_seed() {
        let fig8 = recipe(|seed| fig8_scenario(SystemKind::SkyWalker, Workload::Tot, 0.02, seed));
        let (a, cfg_a) = fig8(9);
        let (b, cfg_b) = fig8(9);
        assert_eq!(cfg_a.seed, 9);
        assert_eq!(cfg_b.seed, 9);
        assert_eq!(a.label, b.label);
        // Same seed → identical client populations.
        assert_eq!(
            a.clients_until(SimTime::ZERO),
            b.clients_until(SimTime::ZERO)
        );
        // Different seed → a different (but equally sized) population.
        let (c, _) = fig8(10);
        assert_eq!(
            a.clients_until(SimTime::ZERO).len(),
            c.clients_until(SimTime::ZERO).len()
        );

        let diurnal = recipe(|seed| {
            fig10_diurnal_scenario(
                SystemKind::SkyWalker,
                2,
                SimDuration::from_secs(600),
                0.004,
                seed,
            )
        });
        let (d, cfg_d) = diurnal(5);
        assert_eq!(cfg_d.seed, 5);
        assert_eq!(d.replicas.len(), 6);
    }
}
