//! A diurnal-aware *predictive* autoscaler that uses only the public
//! surface of [`crate::fleet`] — the proof that the fleet axis is open,
//! the way [`crate::P2cLocal`] proves it for routing policies and
//! [`crate::RagCorpusSource`] for traffic.
//!
//! The reactive [`ThresholdAutoscaler`](crate::fleet::ThresholdAutoscaler)
//! waits for queues to build before adding capacity, so every morning
//! ramp pays the provisioning delay in latency. This planner knows the
//! paper's Fig. 2/3a structure — per-region demand follows a predictable
//! raised-cosine day — and provisions *ahead* of the curve: at every
//! poll it computes each region's predicted arrival rate one lead
//! interval in the future and steers the fleet toward
//! `ceil(predicted_rate / per_replica_rate)`, clamped to bounds.
//!
//! Only the public [`FleetPlan`] surface is used: a struct,
//! `#[derive(Clone)]`, and the trait impl. Nothing in [`crate::fleet`]
//! or the fabric names this type.

use skywalker_net::Region;
use skywalker_replica::GpuProfile;
use skywalker_sim::{SimDuration, SimTime};
use skywalker_workload::DiurnalProfile;

use crate::fleet::{FleetCommand, FleetEvent, FleetObservation, FleetPlan, ProvisionLedger};

/// Tunables of the predictive autoscaler. The `day`/`scale` pair must
/// match the traffic source's compression (see
/// [`crate::diurnal_source`]) so predicted rates line up with actual
/// arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictiveConfig {
    /// Sim duration representing 24 h of the rate curves.
    pub day: SimDuration,
    /// Fraction of the trace-scale arrivals the traffic source keeps.
    pub scale: f64,
    /// Kept (post-`scale`) arrivals per compressed hour one replica
    /// absorbs comfortably: a region's target is
    /// `ceil(rate · scale / per_replica_rph)`.
    pub per_replica_rph: f64,
    /// How far ahead of "now" to read the curve — at least the
    /// provisioning delay, so capacity lands before the demand does.
    pub lead: SimDuration,
    /// Delay between a scale-out decision and the replica coming online.
    pub provision_delay: SimDuration,
    /// Lower bound per region: the floor a region's target is raised to.
    pub min_per_region: u32,
    /// Upper bound per region, applied after the floor: when it is below
    /// `min_per_region`, the cap wins and the target is this.
    pub max_per_region: u32,
    /// Hardware profile of scaled-out replicas.
    pub profile: GpuProfile,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            day: SimDuration::from_secs(1_200),
            scale: 0.02,
            per_replica_rph: 600.0,
            lead: SimDuration::from_secs(60),
            provision_delay: SimDuration::from_secs(30),
            min_per_region: 1,
            max_per_region: 8,
            profile: GpuProfile::L4_LLAMA_8B,
        }
    }
}

/// The diurnal-aware predictive fleet plan. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct PredictiveAutoscaler {
    cfg: PredictiveConfig,
    profiles: Vec<(Region, DiurnalProfile)>,
    /// Joins emitted but not yet online.
    provisioning: ProvisionLedger,
}

impl PredictiveAutoscaler {
    /// A planner steering toward the demand predicted by `profiles`
    /// (the same per-region curves that drive the traffic).
    pub fn new(profiles: Vec<(Region, DiurnalProfile)>, cfg: PredictiveConfig) -> Self {
        PredictiveAutoscaler {
            cfg,
            profiles,
            provisioning: ProvisionLedger::new(),
        }
    }

    /// The replica count `region` should run at UTC hour `hour`.
    fn target_at(&self, region: Region, hour: f64) -> u32 {
        let rate: f64 = self
            .profiles
            .iter()
            .filter(|(r, _)| *r == region)
            .map(|(_, p)| p.rate_at_utc(hour))
            .sum();
        let want = (rate * self.cfg.scale / self.cfg.per_replica_rph).ceil() as u32;
        // Floor, then cap: total even for inverted bounds, where the cap wins.
        want.max(self.cfg.min_per_region)
            .min(self.cfg.max_per_region)
    }
}

impl FleetPlan for PredictiveAutoscaler {
    fn next_events(&mut self, _horizon: SimTime, obs: &FleetObservation) -> Vec<FleetCommand> {
        let now = obs.now;
        self.provisioning.prune(now);
        let ahead = now + self.cfg.lead;
        let hour = ahead.as_secs_f64() / self.cfg.day.as_secs_f64() * 24.0;
        let mut out = Vec::new();
        let regions: Vec<Region> = self.profiles.iter().map(|(r, _)| *r).collect();
        for region in regions {
            let target = self.target_at(region, hour);
            let live = obs.live_in(region);
            let provisioning = self.provisioning.in_flight(region);
            let effective = live + provisioning;
            if target > effective {
                let online_at = now + self.cfg.provision_delay;
                for _ in 0..(target - effective) {
                    out.push(FleetCommand::new(
                        online_at,
                        FleetEvent::ReplicaJoin {
                            region,
                            profile: self.cfg.profile,
                        },
                    ));
                    self.provisioning.note(region, online_at);
                }
            } else if target < live && provisioning == 0 {
                // Steer down toward the curve, draining the shared
                // least-loaded-then-youngest victims.
                for replica in obs.drain_candidates(region, (live - target) as usize) {
                    out.push(FleetCommand::new(now, FleetEvent::ReplicaDrain { replica }));
                }
            }
        }
        out
    }

    fn is_done(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!(
            "predictive(lead={:.0}s,{}..{})",
            self.cfg.lead.as_secs_f64(),
            self.cfg.min_per_region,
            self.cfg.max_per_region
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{LbObservation, ReplicaObservation};
    use skywalker_replica::ReplicaId;
    use skywalker_workload::fig3_regions;

    fn planner() -> PredictiveAutoscaler {
        let profiles: Vec<_> = fig3_regions()
            .into_iter()
            .filter(|(r, _)| *r == Region::UsEast)
            .collect();
        PredictiveAutoscaler::new(
            profiles,
            PredictiveConfig {
                day: SimDuration::from_secs(2_400),
                scale: 1.0,
                per_replica_rph: 1_000.0,
                lead: SimDuration::from_secs(100),
                provision_delay: SimDuration::from_secs(50),
                min_per_region: 1,
                max_per_region: 6,
                ..PredictiveConfig::default()
            },
        )
    }

    fn obs(now: SimTime, live: u32) -> FleetObservation {
        FleetObservation {
            now,
            replicas: (0..live)
                .map(|i| ReplicaObservation {
                    id: ReplicaId(i),
                    region: Region::UsEast,
                    pending: 0,
                    running: i,
                    kv_utilization: 0.2,
                    draining: false,
                })
                .collect(),
            balancers: vec![LbObservation {
                index: 0,
                region: Region::UsEast,
                queue: 0,
                outstanding: 0,
                alive: true,
            }],
        }
    }

    #[test]
    fn targets_track_the_curve() {
        let p = planner();
        // us-east-1 (UTC-5) peaks at 14:00 local = 19:00 UTC and troughs
        // around 02:00 local = 07:00 UTC.
        let peak = p.target_at(Region::UsEast, 19.0);
        let trough = p.target_at(Region::UsEast, 7.0);
        assert!(peak > trough, "peak {peak} vs trough {trough}");
        assert!(peak <= 6 && trough >= 1, "bounds respected");
    }

    #[test]
    fn inverted_bounds_let_the_cap_win() {
        // min > max: the reactive autoscaler runs with these bounds, and
        // so must this one, at the first poll and every one after it.
        let mut p = planner();
        p.cfg.min_per_region = 5;
        p.cfg.max_per_region = 2;
        for hour in [7.0, 19.0] {
            assert_eq!(p.target_at(Region::UsEast, hour), 2);
        }
        let cmds = p.next_events(
            SimTime::from_secs(1_700),
            &obs(SimTime::from_secs(1_700), 1),
        );
        assert_eq!(cmds.len(), 1, "one join brings the region to the cap");
    }

    #[test]
    fn provisions_ahead_of_the_ramp() {
        let mut p = planner();
        // 2400 s day, so 19:00 UTC ≈ t = 1900 s. At t = 1700 the lead
        // (100 s) reads the curve near the ramp; demand exceeds one
        // replica well before the peak.
        let cmds = p.next_events(
            SimTime::from_secs(1_700),
            &obs(SimTime::from_secs(1_700), 1),
        );
        assert!(!cmds.is_empty(), "the ramp must trigger pre-provisioning");
        assert!(cmds.iter().all(|c| matches!(
            c.event,
            FleetEvent::ReplicaJoin {
                region: Region::UsEast,
                ..
            }
        )));
        assert!(
            cmds.iter().all(|c| c.at == SimTime::from_secs(1_750)),
            "joins land after the provisioning delay"
        );
        // Re-polling immediately emits nothing more: the in-flight joins
        // already cover the target.
        let again = p.next_events(
            SimTime::from_secs(1_701),
            &obs(SimTime::from_secs(1_701), 1),
        );
        assert!(again.is_empty(), "{again:?}");
    }

    #[test]
    fn steers_down_in_the_trough() {
        let mut p = planner();
        // 07:00 UTC ≈ t = 700 s: the trough wants far fewer than 5.
        let o = obs(SimTime::from_secs(700), 5);
        let cmds = p.next_events(SimTime::from_secs(700), &o);
        let target = p.target_at(Region::UsEast, (700.0 + 100.0) / 2_400.0 * 24.0);
        assert_eq!(cmds.len(), (5 - target) as usize);
        // Least-loaded victims first (load equals id in the fixture).
        assert!(matches!(
            cmds[0].event,
            FleetEvent::ReplicaDrain {
                replica: ReplicaId(0)
            }
        ));
        assert!(!p.is_done());
    }
}
