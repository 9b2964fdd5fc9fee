//! Every simulated cell the claims table reads, as one `SweepSpec`.
//!
//! One scale per recipe, written here and nowhere else; Fig. 8 runs at
//! the paper's client counts (scale 1.0). Every recipe runs once per
//! seed of [`SEEDS`], as the cell `"{label}@{seed}"`, and spends that
//! seed on both the traffic and the fabric, so the cells a row compares
//! see the same traffic, and the fleet strategies the same day.

use std::sync::Arc;

use skywalker::core::{PolicyKind, PushMode, RoutingConstraint};
use skywalker::net::Region;
use skywalker::replica::GpuProfile;
use skywalker::sim::{SimDuration, SimTime};
use skywalker::{
    balanced_fleet, disagg_scenario, diurnal_day_scenario, equal_cost_lite_fleet, fig10_scenario,
    fig8_scenario, fig9_scenario, memory_pressure_scenario, recipe, run_scenario, workload_clients,
    DayStrategy, Deployment, DisaggWorkload, EngineSpec, FabricConfig, FcfsBatch, FlashCrowdSource,
    LruEvictor, NoEvict, PrefixAwareEvictor, RagCorpusConfig, RagCorpusSource, ReplicaPlacement,
    Scenario, ShortestPromptFirst, SystemKind, TrafficSource, Workload, REGIONS,
};
use skywalker_lab::SweepSpec;

use super::analytic::fig4b_scenario;

pub const SEEDS: [u64; 3] = [1, 2, 3];

/// A seed-parametric recipe, shared by its per-seed cells.
type Recipe = Arc<dyn Fn(u64) -> (Scenario, FabricConfig) + Send + Sync>;

#[derive(Default)]
struct Grid(Vec<(String, Recipe)>);

impl Grid {
    /// One seed drives traffic and fabric alike (`skywalker::recipe`),
    /// after `knob` has had its turn at the fabric's config.
    fn add_with(
        &mut self,
        label: impl Into<String>,
        knob: impl Fn(&mut FabricConfig) + Send + Sync + 'static,
        scenario: impl Fn(u64) -> Scenario + Clone + Send + Sync + 'static,
    ) {
        let cell = recipe(scenario);
        let cell = move |seed| {
            let (scenario, mut cfg) = cell(seed);
            knob(&mut cfg);
            (scenario, cfg)
        };
        self.0.push((label.into(), Arc::new(cell)));
    }

    fn add(
        &mut self,
        label: impl Into<String>,
        scenario: impl Fn(u64) -> Scenario + Clone + Send + Sync + 'static,
    ) {
        self.add_with(label, |_| {}, scenario);
    }
}

/// A per-region deployment with the cache-aware policy — SkyWalker's
/// shape with one knob turned.
fn per_region(push: PushMode, forward: bool, tau: u32) -> Deployment {
    Deployment::PerRegion {
        policy: PolicyKind::CacheAware,
        push,
        forward,
        tau,
        constraint: RoutingConstraint::Unrestricted,
    }
}

/// `system` on the balanced 12-replica fleet under a custom source.
fn on_balanced_fleet(system: SystemKind, source: impl TrafficSource + 'static) -> Scenario {
    let fleet = system.builder().replicas(balanced_fleet());
    let scenario = fleet.traffic_source(Box::new(source)).build();
    scenario.expect("fleet and source are set")
}

pub fn spec() -> SweepSpec {
    let mut grid = Grid::default();

    // Fig. 8: seven systems × four workloads at the paper's client counts.
    for workload in Workload::ALL {
        for system in SystemKind::FIG8 {
            let label = format!("fig8/{}/{}", workload.label(), system.label());
            grid.add(label, move |seed| {
                fig8_scenario(system, workload, 1.0, seed)
            });
        }
    }

    // The traffic-source demos. The flash crowd runs at a population
    // whose burst overloads eu-west; at a quarter of it the two systems
    // are indistinguishable.
    for system in [SystemKind::RoundRobin, SystemKind::SkyWalker] {
        grid.add(format!("rag/{}", system.label()), move |seed| {
            let users = [
                (Region::UsEast, 80),
                (Region::EuWest, 64),
                (Region::ApNortheast, 64),
            ];
            let corpus = RagCorpusConfig::default();
            on_balanced_fleet(system, RagCorpusSource::new(corpus, users.to_vec(), seed))
        });
    }
    for system in [SystemKind::RegionLocal, SystemKind::SkyWalker] {
        grid.add(format!("flash/{}", system.label()), move |seed| {
            let steady = vec![(Region::UsEast, 8), (Region::EuWest, 8)];
            let burst_at = SimTime::from_secs(30);
            let crowd = FlashCrowdSource::new(steady, Region::EuWest, 240, burst_at, seed)
                .with_turns((2, 3))
                .with_burst_window(SimDuration::from_secs(10));
            on_balanced_fleet(system, crowd)
        });
    }

    grid.add("fig4b/RR", fig4b_scenario);

    // Fig. 9: one region, four replicas, cache-aware routing throughout;
    // only the admission discipline changes. The paper runs 30 clients;
    // these simulated L4s admit more concurrent ToT nodes (shared
    // ancestors cost no extra KV), so 80 reach the same saturation.
    for (name, push) in [
        ("BP", PushMode::Blind),
        ("SP-O", PushMode::Outstanding { max: 40 }),
        ("SP-P", PushMode::Pending),
    ] {
        grid.add(format!("fig9/{name}"), move |seed| {
            let scenario = fig9_scenario(SystemKind::SglRouter, 4, 80, seed);
            scenario.with_deployment(per_region(push, false, 4))
        });
    }

    // Fig. 10 at 1.8× the paper's clients: below saturation a closed-loop
    // population limits throughput by itself and every system measures
    // the same.
    for (system, sizes) in [
        (SystemKind::RegionLocal, &[6, 9, 12][..]),
        (SystemKind::SkyWalker, &[6, 9, 10, 11, 12][..]),
    ] {
        for &n in sizes {
            let label = format!("fig10/{}/{n}", system.label());
            grid.add(label, move |seed| fig10_scenario(system, n, 1.8, seed));
        }
    }

    // The ablations, each at the two knob values its row compares: the
    // Fig. 9 recipe under SkyWalker for 1, 3 and 4, Fig. 10's for 2.
    let fig9 = |clients: u32| move |seed| fig9_scenario(SystemKind::SkyWalker, 4, clients, seed);
    for ms in [100, 500] {
        let knob = move |cfg: &mut FabricConfig| cfg.probe_interval = SimDuration::from_millis(ms);
        grid.add_with(format!("abl1/probe-{ms}ms"), knob, fig9(60));
    }
    for tau in [0, 4] {
        grid.add(format!("abl2/tau-{tau}"), move |seed| {
            let scenario = fig10_scenario(SystemKind::SkyWalker, 6, 0.2, seed);
            scenario.with_deployment(per_region(PushMode::Pending, true, tau))
        });
    }
    for threshold in [0.0, 1.0] {
        let knob = move |cfg: &mut FabricConfig| cfg.policy.affinity_threshold = threshold;
        grid.add_with(format!("abl3/threshold-{threshold}"), knob, fig9(60));
    }
    for bound in [1 << 12, 1 << 24] {
        let knob = move |cfg: &mut FabricConfig| cfg.policy.trie_max_tokens = bound;
        grid.add_with(format!("abl4/trie-{bound}"), knob, fig9(40));
    }
    // Two replicas per region: six L4s, or the second of each pair an A100.
    for (name, second) in [
        ("6xL4", GpuProfile::L4_LLAMA_8B),
        ("3xL4+3xA100", GpuProfile::A100_LLAMA_8B),
    ] {
        grid.add(format!("abl5/{name}"), move |seed| {
            let pair = [GpuProfile::L4_LLAMA_8B, second];
            let fleet = REGIONS
                .iter()
                .flat_map(|&region| pair.map(|profile| ReplicaPlacement { region, profile }));
            let clients = workload_clients(Workload::WildChat, 0.3, seed).expect("positive scale");
            let builder = SystemKind::SkyWalker.builder().replicas(fleet.collect());
            builder.clients(clients).build().expect("fleet and clients")
        });
    }

    for (name, strategy) in [
        ("static-3/region", DayStrategy::Static),
        ("chaos", DayStrategy::Chaos),
        ("reactive", DayStrategy::Reactive),
        ("predictive", DayStrategy::Predictive),
    ] {
        grid.add(format!("fleet/{name}"), move |seed| {
            diurnal_day_scenario(strategy, seed)
        });
    }
    // The static fleet of the reactive run's own mean size: its recipe
    // runs the reactive day first, to price it.
    let reactive = recipe(|seed| diurnal_day_scenario(DayStrategy::Reactive, seed));
    grid.add("fleet/equal-cost-static", move |seed| {
        let (reactive, cfg) = reactive(seed);
        let mut fixed = diurnal_day_scenario(DayStrategy::Static, seed);
        fixed.replicas = equal_cost_lite_fleet(run_scenario(&reactive, &cfg).fleet.mean_total());
        fixed
    });
    for wl in DisaggWorkload::ALL {
        for (mode, split) in [("colo", false), ("split", true)] {
            let label = format!("disagg/{}/{mode}", wl.label());
            grid.add(label, move |seed| disagg_scenario(wl, split, 1.0, seed));
        }
    }
    for engine in [
        EngineSpec::default(),
        EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor)),
        EngineSpec::new(
            Box::new(FcfsBatch::new().with_preemption(0.92)),
            Box::new(LruEvictor),
        ),
        EngineSpec::new(
            Box::new(ShortestPromptFirst::new()),
            Box::new(PrefixAwareEvictor),
        ),
        EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(NoEvict)),
    ] {
        grid.add(format!("engine/{}", engine.label()), move |seed| {
            memory_pressure_scenario(engine.clone(), 0.5, seed)
        });
    }

    let mut spec = SweepSpec::new();
    for (label, recipe) in grid.0 {
        for seed in SEEDS {
            let recipe = recipe.clone();
            spec = spec.cell(format!("{label}@{seed}"), move || recipe(seed));
        }
    }
    spec
}
