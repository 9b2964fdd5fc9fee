//! Seeded MTBF/MTTR replica churn.
//!
//! [`ChaosPlan`] injects replica crashes as a Poisson process with a
//! configurable fleet-wide MTBF and replaces each casualty with a fresh
//! replica in the same region after MTTR — the "replicas die and
//! capacity heals" regime the §4.2 drills only approximated with
//! balancer flaps. Crash *instants* come from the plan's own seeded
//! clock RNG (poll-cadence invariant — a separate stream from victim
//! selection, so even floor-skipped failures never shift later crash
//! times); the *victim* is drawn from the live fleet observed at the
//! poll that emits the crash.

use skywalker_net::Region;
use skywalker_replica::{GpuProfile, ReplicaId};
use skywalker_sim::{DetRng, SimDuration, SimTime};

use crate::event::{FleetCommand, FleetEvent};
use crate::observe::FleetObservation;
use crate::plan::FleetPlan;

/// Chaos parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Fleet-wide mean time between crashes.
    pub mtbf: SimDuration,
    /// Delay before a casualty's replacement joins.
    pub mttr: SimDuration,
    /// Hardware profile of replacement replicas.
    pub profile: GpuProfile,
    /// Never crash a replica whose region would drop to fewer than this
    /// many live replicas.
    pub min_live_per_region: u32,
    /// Stop injecting failures after this instant (`SimTime::MAX`:
    /// churn forever).
    pub until: SimTime,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            mtbf: SimDuration::from_secs(60),
            mttr: SimDuration::from_secs(30),
            profile: GpuProfile::L4_LLAMA_8B,
            min_live_per_region: 1,
            until: SimTime::MAX,
        }
    }
}

/// The seeded churn plan — see the module-level docs above for the model.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    cfg: ChaosConfig,
    /// Drives the failure *instants*. A separate stream from victim
    /// selection, so skipped failures (min-live floor, empty fleet) —
    /// which depend on the observation — can never shift later crash
    /// times.
    clock_rng: DetRng,
    /// Drives victim selection only.
    victim_rng: DetRng,
    /// Next crash instant, `None` once past `cfg.until`.
    next_at: Option<SimTime>,
}

impl ChaosPlan {
    /// A churn plan with its own deterministic failure clock.
    pub fn new(cfg: ChaosConfig, seed: u64) -> Self {
        let mut clock_rng = DetRng::for_component(seed, "fleet/chaos-clock");
        let victim_rng = DetRng::for_component(seed, "fleet/chaos-victim");
        let first = Self::gap(&mut clock_rng, cfg.mtbf);
        let next_at = SimTime::ZERO + first;
        ChaosPlan {
            cfg,
            clock_rng,
            victim_rng,
            next_at: (next_at <= cfg.until).then_some(next_at),
        }
    }

    fn gap(rng: &mut DetRng, mtbf: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(rng.exponential(1.0) * mtbf.as_secs_f64())
    }

    fn advance(&mut self, from: SimTime) {
        let next = from + Self::gap(&mut self.clock_rng, self.cfg.mtbf);
        self.next_at = (next <= self.cfg.until).then_some(next);
    }
}

impl FleetPlan for ChaosPlan {
    fn next_events(&mut self, horizon: SimTime, obs: &FleetObservation) -> Vec<FleetCommand> {
        let mut out = Vec::new();
        // Victims crashed within this poll batch: the observation does
        // not refresh between same-batch failures, so exclude them by
        // hand to avoid double-killing.
        let mut killed: Vec<ReplicaId> = Vec::new();
        while let Some(at) = self.next_at {
            if at > horizon {
                break;
            }
            let eligible: Vec<(ReplicaId, Region)> = obs
                .replicas
                .iter()
                .filter(|r| !r.draining && !killed.contains(&r.id))
                .filter(|r| {
                    let live_after = obs.live_in(r.region)
                        - killed
                            .iter()
                            .filter(|k| {
                                obs.replicas
                                    .iter()
                                    .any(|o| o.id == **k && o.region == r.region)
                            })
                            .count() as u32;
                    live_after > self.cfg.min_live_per_region
                })
                .map(|r| (r.id, r.region))
                .collect();
            if eligible.is_empty() {
                // Nothing safe to kill this time; the failure is skipped
                // but the clock keeps its rhythm.
                self.advance(at);
                continue;
            }
            let (victim, region) = eligible[self.victim_rng.below(eligible.len() as u64) as usize];
            killed.push(victim);
            out.push(FleetCommand::new(
                at,
                FleetEvent::ReplicaCrash { replica: victim },
            ));
            out.push(FleetCommand::new(
                at + self.cfg.mttr,
                FleetEvent::ReplicaJoin {
                    region,
                    profile: self.cfg.profile,
                },
            ));
            self.advance(at);
        }
        out
    }

    fn is_done(&self) -> bool {
        self.next_at.is_none()
    }

    fn label(&self) -> String {
        format!(
            "chaos(mtbf={:.0}s,mttr={:.0}s)",
            self.cfg.mtbf.as_secs_f64(),
            self.cfg.mttr.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{LbObservation, ReplicaObservation};

    fn obs(now: SimTime, per_region: &[(Region, u32)]) -> FleetObservation {
        let mut replicas = Vec::new();
        let mut id = 0;
        for &(region, n) in per_region {
            for _ in 0..n {
                replicas.push(ReplicaObservation {
                    id: ReplicaId(id),
                    region,
                    pending: 0,
                    running: 1,
                    kv_utilization: 0.3,
                    draining: false,
                });
                id += 1;
            }
        }
        FleetObservation {
            now,
            replicas,
            balancers: vec![LbObservation {
                index: 0,
                region: Region::UsEast,
                queue: 0,
                outstanding: 0,
                alive: true,
            }],
        }
    }

    fn cfg() -> ChaosConfig {
        ChaosConfig {
            mtbf: SimDuration::from_secs(20),
            mttr: SimDuration::from_secs(10),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn crashes_pair_with_replacements_in_same_region() {
        let mut plan = ChaosPlan::new(cfg(), 7);
        let o = obs(SimTime::ZERO, &[(Region::UsEast, 3), (Region::EuWest, 3)]);
        let cmds = plan.next_events(SimTime::from_secs(600), &o);
        assert!(!cmds.is_empty());
        assert_eq!(cmds.len() % 2, 0, "each crash has a join");
        for pair in cmds.chunks(2) {
            let FleetEvent::ReplicaCrash { replica } = pair[0].event else {
                panic!("expected crash first, got {:?}", pair[0]);
            };
            let FleetEvent::ReplicaJoin { region, .. } = pair[1].event else {
                panic!("expected join second, got {:?}", pair[1]);
            };
            let victim_region = o.replicas.iter().find(|r| r.id == replica).unwrap().region;
            assert_eq!(
                region, victim_region,
                "replacement lands where the victim died"
            );
            assert_eq!(pair[1].at, pair[0].at + SimDuration::from_secs(10));
        }
    }

    #[test]
    fn failure_instants_are_poll_cadence_invariant() {
        // A fleet large enough that the min-live floor never engages
        // (the floor is observation-dependent by design; the failure
        // *clock* is what must not depend on polling).
        let o = |now| obs(now, &[(Region::UsEast, 32)]);
        let mut coarse = ChaosPlan::new(cfg(), 3);
        let mut fine = coarse.clone();
        let mut a = Vec::new();
        for h in [100u64, 300] {
            a.extend(coarse.next_events(SimTime::from_secs(h), &o(SimTime::ZERO)));
        }
        let mut b = Vec::new();
        for h in (10..=300u64).step_by(10) {
            b.extend(fine.next_events(SimTime::from_secs(h), &o(SimTime::ZERO)));
        }
        let times = |v: &[FleetCommand]| {
            v.iter()
                .filter(|c| matches!(c.event, FleetEvent::ReplicaCrash { .. }))
                .map(|c| c.at)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            times(&a),
            times(&b),
            "crash clock must not depend on polling"
        );
    }

    #[test]
    fn skipped_failures_never_shift_the_clock() {
        // Plan A sees a rich fleet from t = 0; plan B sees an empty
        // fleet (every failure skipped) until t = 100 and the rich
        // fleet after. The crashes B emits after t = 100 must land at
        // exactly A's post-100 instants: skips consume no clock draws.
        let mut a = ChaosPlan::new(cfg(), 9);
        let mut b = a.clone();
        let rich = |now| obs(now, &[(Region::UsEast, 32)]);
        let empty = FleetObservation {
            now: SimTime::ZERO,
            replicas: Vec::new(),
            balancers: Vec::new(),
        };
        let a_cmds = a.next_events(SimTime::from_secs(300), &rich(SimTime::ZERO));
        let skipped = b.next_events(SimTime::from_secs(100), &empty);
        assert!(skipped.is_empty());
        let b_cmds = b.next_events(SimTime::from_secs(300), &rich(SimTime::from_secs(100)));
        let crash_times = |v: &[FleetCommand]| {
            v.iter()
                .filter(|c| matches!(c.event, FleetEvent::ReplicaCrash { .. }))
                .map(|c| c.at)
                .collect::<Vec<_>>()
        };
        let a_after: Vec<SimTime> = crash_times(&a_cmds)
            .into_iter()
            .filter(|t| *t > SimTime::from_secs(100))
            .collect();
        assert!(!a_after.is_empty(), "the window must contain crashes");
        assert_eq!(crash_times(&b_cmds), a_after);
    }

    #[test]
    fn respects_min_live_floor() {
        let chaos = ChaosConfig {
            min_live_per_region: 2,
            ..cfg()
        };
        let mut plan = ChaosPlan::new(chaos, 11);
        // Two replicas per region: nothing may be killed.
        let o = obs(SimTime::ZERO, &[(Region::UsEast, 2), (Region::EuWest, 2)]);
        let cmds = plan.next_events(SimTime::from_secs(1_000), &o);
        assert!(cmds.is_empty(), "floor protects the whole fleet: {cmds:?}");
        // Clock kept ticking while nothing was eligible.
        assert!(!plan.is_done());
    }

    #[test]
    fn bounded_horizon_finishes() {
        let chaos = ChaosConfig {
            until: SimTime::from_secs(50),
            ..cfg()
        };
        let mut plan = ChaosPlan::new(chaos, 5);
        let o = obs(SimTime::ZERO, &[(Region::UsEast, 4)]);
        let cmds = plan.next_events(SimTime::from_secs(10_000), &o);
        assert!(plan.is_done());
        assert!(cmds
            .iter()
            .filter(|c| matches!(c.event, FleetEvent::ReplicaCrash { .. }))
            .all(|c| c.at <= SimTime::from_secs(50)));
    }
}
