//! [`run_scenario`]: builds the world a [`Scenario`] describes, plays it
//! on the event engine until every client is done (or the deadline),
//! and condenses the end state into a [`RunSummary`].

use std::collections::HashMap;

use skywalker_core::{
    BalancerConfig, Controller, LbId, PolicyFactory, RegionalBalancer, RoutingConstraint,
};
use skywalker_net::Region;
use skywalker_replica::{ReplicaRole, ReplicaStats};
use skywalker_sim::{DetRng, Engine, SimTime};
use skywalker_workload::distinct_regions;

use super::observers::Observers;
use super::world::{Ev, Fabric, FleetPlane, LbSlot, Traffic};
use super::{Deployment, FabricConfig, FleetSummary, RunSummary, Scenario, TransferSummary};
use crate::fleet::FleetObservation;
use crate::metrics::ratio;

/// Runs one scenario to completion (all clients done, or the deadline).
pub fn run_scenario(scenario: &Scenario, cfg: &FabricConfig) -> RunSummary {
    let mut world = build_world(scenario, cfg);
    let mut engine: Engine<Ev> = Engine::new();
    start(&world, &mut engine);
    let end = engine.run_until(&mut world, cfg.deadline).end_time;
    summarize(scenario, world, end, &engine)
}

/// Schedules what starts a built world: the t = 0 cohort's first stages,
/// then the periodic planes.
fn start(world: &Fabric, engine: &mut Engine<Ev>) {
    for client in 0..world.clients.len() {
        engine.schedule(SimTime::ZERO, Ev::IssueStage { client });
    }
    // A defensively-constructed scenario can hold an empty source (the
    // builder rejects them); skip the self-perpetuating ticks so the run
    // terminates immediately instead of idling to the deadline.
    if !world.clients.is_empty() || !world.traffic.exhausted {
        engine.schedule(SimTime::ZERO, Ev::ProbeTick);
        engine.schedule(SimTime::ZERO, Ev::HeartbeatTick);
        let first_check = SimTime::ZERO + FabricConfig::HEARTBEAT_INTERVAL;
        engine.schedule(first_check, Ev::ControllerTick);
        if !world.traffic.exhausted {
            engine.schedule(SimTime::ZERO, Ev::TrafficPoll);
        }
        if world.fleet.plan.is_some() {
            engine.schedule(SimTime::ZERO, Ev::FleetPoll);
        }
        if world.obs.telemetry_interval().is_some() {
            engine.schedule(SimTime::ZERO, Ev::TelemetryTick);
        }
    }
}

/// Where balancers sit. Client regions come from the traffic source's
/// declaration, so every region that may ever see an arrival has a
/// balancer before the run starts.
fn lb_regions(scenario: &Scenario) -> Vec<Region> {
    match scenario.deployment {
        Deployment::Centralized { lb_region, .. } => vec![lb_region],
        Deployment::PerRegion { .. } => {
            let hosting = scenario.replicas.iter().map(|p| p.region);
            distinct_regions(hosting.chain(scenario.traffic.regions()))
        }
    }
}

/// The balancers, each registered with the controller (which is also
/// what clients resolve against), peered all-to-all when forwarding is
/// on.
fn build_lbs(
    scenario: &Scenario,
    cfg: &FabricConfig,
    forward: bool,
    controller: &mut Controller,
) -> Vec<LbSlot> {
    let (policy, push_mode, tau, constraint) = match scenario.deployment {
        Deployment::Centralized { policy, push, .. } => {
            (policy, push, 0, RoutingConstraint::Unrestricted)
        }
        Deployment::PerRegion {
            policy,
            push,
            tau,
            constraint,
            ..
        } => (policy, push, tau, constraint),
    };
    // Custom factory if the scenario carries one, else the deployment's
    // built-in policy kind (PolicyKind itself implements PolicyFactory).
    let factory: &dyn PolicyFactory = scenario.policy_factory.as_deref().unwrap_or(&policy);
    let regions = lb_regions(scenario);
    let mut lbs: Vec<LbSlot> = Vec::with_capacity(regions.len());
    for (i, &region) in regions.iter().enumerate() {
        let lb_id = i as u32;
        let bcfg = BalancerConfig {
            region,
            policy,
            push_mode,
            tau,
            params: cfg.policy,
            constraint,
        };
        let lb = RegionalBalancer::with_factory(LbId(lb_id), bcfg, factory);
        lbs.push(LbSlot { lb, alive: true });
        controller.register_lb(LbId(lb_id), region);
    }
    if forward {
        for (i, slot) in lbs.iter_mut().enumerate() {
            for (j, &region) in regions.iter().enumerate() {
                if i != j {
                    slot.lb.add_peer(LbId(j as u32), region);
                }
            }
        }
    }
    lbs
}

fn build_world(scenario: &Scenario, cfg: &FabricConfig) -> Fabric {
    let cfg = cfg.clamped();
    let mut controller = Controller::new(cfg.net.clone(), FabricConfig::CONTROLLER_TIMEOUT);
    // Only per-region deployments forward between balancers.
    let forward_enabled = matches!(
        scenario.deployment,
        Deployment::PerRegion { forward: true, .. }
    );
    let lbs = build_lbs(scenario, &cfg, forward_enabled, &mut controller);

    let mut world = Fabric {
        rng: DetRng::for_component(cfg.seed, "fabric/net"),
        forward_enabled,
        lbs,
        replicas: Vec::with_capacity(scenario.replicas.len()),
        // `None` = the default FCFS + LRU engine.
        engine: scenario.engine.clone().unwrap_or_default(),
        transfers: TransferSummary::default(),
        clients: Vec::new(),
        free_clients: Vec::new(),
        active_clients: 0,
        // Each run pulls from a fresh copy of the traffic source, so the
        // same scenario replays identically any number of times.
        traffic: Traffic {
            source: scenario.traffic.clone(),
            rng: DetRng::for_component(cfg.seed, "fabric/traffic"),
            exhausted: false,
            pending_arrivals: 0,
        },
        reqs: HashMap::default(),
        controller,
        fleet: FleetPlane {
            // Each run polls a fresh clone, like the traffic source.
            plan: scenario.fleet_plan.clone(),
            ledger: FleetSummary::default(),
            observation: FleetObservation::default(),
        },
        obs: Observers::new(&cfg),
        probe_statuses: Vec::new(),
        decisions: Vec::new(),
        cfg,
    };
    // Replicas attach to the balancer of their region (or the single
    // centralized balancer). No roles means every replica Colocated;
    // otherwise `build()` made the list as long as the fleet.
    let classical = scenario.roles.is_empty();
    for (i, p) in scenario.replicas.iter().enumerate() {
        let role = if classical {
            ReplicaRole::Colocated
        } else {
            scenario.roles[i]
        };
        world.add_replica(p.region, p.profile, role);
    }
    world.fleet.record(SimTime::ZERO, &world.replicas);
    // The t = 0 cohort is admitted before the engine starts: their first
    // stages are scheduled ahead of every tick event, which keeps a
    // pre-materialized population bit-identical to the legacy eager
    // path. Later arrivals stream in through `Ev::TrafficPoll`.
    let t = &mut world.traffic;
    let cohort = t.source.next_batch(SimTime::ZERO, &mut t.rng);
    t.exhausted = t.source.is_exhausted();
    for arrival in cohort {
        world.admit(arrival.spec);
    }
    world
}

/// Max/min ratio of a per-replica quantity (1.0 when there is nothing
/// to compare or a replica saw none of it).
fn imbalance(vals: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = vals.clone().fold(f64::MIN, f64::max);
    let min = vals.clone().fold(f64::MAX, f64::min);
    if vals.count() < 2 || min <= 0.0 {
        1.0
    } else {
        max / min
    }
}

fn summarize(
    scenario: &Scenario,
    mut world: Fabric,
    end: SimTime,
    engine: &Engine<Ev>,
) -> RunSummary {
    // A handoff's bookkeeping lives and dies with its request's legs:
    // once every client is done and nothing is on the wire, none may be
    // left.
    debug_assert!(
        world.active_clients > 0 || world.transfers.in_transfer() > 0 || world.handoffs_retired(),
        "a drained run still holds disagg handoff state"
    );
    // An entry goes once its completion is delivered and its record has
    // settled, so a drained run holds only failed and rerouted requests'
    // entries, and delivered ones still waiting for their first token.
    debug_assert!(
        world.active_clients > 0 || world.entries_retired(),
        "a drained run still holds a request entry that should have gone"
    );
    world.fleet.record(end, &world.replicas);
    let report = world.report(end);
    let (trace, telemetry) = world
        .obs
        .finish(end, &world.lbs, &world.replicas, &world.transfers);

    let replica_stats: Vec<ReplicaStats> =
        world.replicas.iter().map(|s| s.replica.stats()).collect();
    let sum = |stat: fn(&ReplicaStats) -> u64| replica_stats.iter().map(stat).sum::<u64>();

    let mut dispatched = vec![0.0; world.replicas.len()];
    for slot in &world.lbs {
        for r in slot.lb.replica_states() {
            dispatched[r.id.0 as usize] += r.dispatched as f64;
        }
    }
    let peak_outstanding: Vec<u32> = world.replicas.iter().map(|s| s.peak_outstanding).collect();
    let final_replicas = world.replicas.iter().filter(|s| s.is_active()).count() as u32;
    let kv_peaks: Vec<f64> = world.replicas.iter().map(|s| s.kv_peak).collect();

    RunSummary {
        label: scenario.label.clone(),
        system: scenario.system,
        report,
        end_time: end,
        replica_hit_rate: ratio(
            sum(|s| s.cached_prompt_tokens) as f64,
            sum(|s| s.prompt_tokens) as f64,
        ),
        engine_label: world.engine.label(),
        preempted: sum(|s| s.preempted),
        evicted_tokens: sum(|s| s.evicted_tokens),
        chunked_steps: sum(|s| s.chunked_steps),
        demoted_tokens: sum(|s| s.demoted_tokens),
        promoted_tokens: sum(|s| s.promoted_tokens),
        transfers: world.transfers,
        forwarded: world.lbs.iter().map(|s| s.lb.stats().forwarded).sum(),
        dispatch_imbalance: imbalance(dispatched.iter().copied()),
        outstanding_imbalance: imbalance(peak_outstanding.iter().map(|&v| f64::from(v))),
        peak_outstanding,
        peak_lb_queue: world
            .lbs
            .iter()
            .map(|s| s.lb.stats().peak_queue)
            .max()
            .unwrap_or(0),
        peak_events: engine.peak_pending(),
        delivered_events: engine.delivered(),
        rearmed_events: engine.rearmed(),
        kv_peak_gap: imbalance(kv_peaks.iter().copied()),
        kv_peaks,
        fleet: FleetSummary {
            final_replicas,
            ..world.fleet.ledger
        },
        trace,
        telemetry,
        replica_stats,
    }
}

#[cfg(test)]
mod tests {
    use skywalker_replica::GpuProfile;
    use skywalker_sim::{Scheduler, SimDuration, World};
    use skywalker_workload::ArrivalSchedule;

    use super::*;
    use crate::{RagCorpusConfig, RagCorpusSource, ReplicaPlacement, SystemKind};

    /// The fabric, and the most clients it held admitted and not yet
    /// retired after any event.
    struct Watched {
        fabric: Fabric,
        most_active: usize,
    }

    impl World for Watched {
        type Event = Ev;

        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
            self.fabric.handle(now, ev, sched);
            self.most_active = self.most_active.max(self.fabric.active_clients);
        }

        fn rearm(&mut self, now: SimTime, ev: &Ev) -> Option<SimDuration> {
            self.fabric.rearm(now, ev)
        }
    }

    /// 1 200 one-request clients arriving half a second apart at two
    /// replicas: a client lives a few seconds, so a few dozen are held at
    /// once, where a table that kept a slot per client ever admitted
    /// would end 1 200 long.
    #[test]
    fn the_client_table_follows_the_clients_held_at_once() {
        let region = Region::UsEast;
        let users = 1_200;
        let cfg = RagCorpusConfig {
            queries_per_user: (1, 1),
            ..RagCorpusConfig::default()
        };
        let over = SimDuration::from_millis(500 * (users - 1));
        let source = RagCorpusSource::new(cfg, vec![(region, users as u32)], 61)
            .with_schedule(ArrivalSchedule::UniformRamp { over });
        let profile = GpuProfile::L4_LLAMA_8B;
        let scenario = SystemKind::SkyWalker
            .builder()
            .replicas(vec![ReplicaPlacement { region, profile }; 2])
            .traffic_source(Box::new(source))
            .build()
            .expect("a fleet and a source are set");
        let cfg = FabricConfig::default();
        let mut world = Watched {
            fabric: build_world(&scenario, &cfg),
            most_active: 0,
        };
        let mut engine: Engine<Ev> = Engine::new();
        start(&world.fabric, &mut engine);
        let end = engine.run_until(&mut world, cfg.deadline).end_time;
        let fabric = &mut world.fabric;
        assert_eq!(fabric.report(end).completed, users);
        assert!(fabric.reqs.is_empty(), "every request's entry went");
        let (held, most) = (fabric.clients.len(), world.most_active);
        assert!(
            (1..=most).contains(&held),
            "{held} client slots for at most {most} clients at once"
        );
        assert_eq!(fabric.free_clients.len(), held, "every slot is free");
    }
}
