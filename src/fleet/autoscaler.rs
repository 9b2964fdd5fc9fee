//! Reactive per-region threshold autoscaling.
//!
//! [`ThresholdAutoscaler`] watches each region's outstanding load per
//! live replica and scales out (a [`crate::FleetEvent::ReplicaJoin`]
//! after a provisioning delay) when it crosses
//! [`AutoscalerConfig::scale_out_load`], or drains the least-loaded
//! replica when load falls below [`AutoscalerConfig::scale_in_load`] —
//! within `[min_per_region, max_per_region]` bounds and a per-region
//! cooldown, so a burst cannot thrash the fleet. This is the reactive
//! baseline for the paper's diurnal regime (Fig. 2/3a: per-region
//! demand swings of 2.88–32.64× over a day).

use std::collections::BTreeMap;

use skywalker_net::Region;
use skywalker_replica::GpuProfile;
use skywalker_sim::{SimDuration, SimTime};

use crate::fleet::event::{FleetCommand, FleetEvent};
use crate::fleet::observe::{FleetObservation, ProvisionLedger};
use crate::fleet::plan::FleetPlan;

/// Threshold-autoscaler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Never drain a region below this many live replicas.
    pub min_per_region: u32,
    /// Never grow a region beyond this many live (plus provisioning)
    /// replicas.
    pub max_per_region: u32,
    /// Scale out when outstanding load per live replica exceeds this.
    pub scale_out_load: f64,
    /// Drain one replica when load per live replica falls below this.
    pub scale_in_load: f64,
    /// Minimum gap between two scale actions in the same region.
    pub cooldown: SimDuration,
    /// Delay between the scale-out decision and the replica coming
    /// online (machine boot + model load).
    pub provision_delay: SimDuration,
    /// Hardware profile of scaled-out replicas.
    pub profile: GpuProfile,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_per_region: 1,
            max_per_region: 8,
            scale_out_load: 8.0,
            scale_in_load: 1.0,
            cooldown: SimDuration::from_secs(120),
            provision_delay: SimDuration::from_secs(30),
            profile: GpuProfile::L4_LLAMA_8B,
        }
    }
}

/// The reactive per-region autoscaler — see the module-level docs above for the regime it targets.
#[derive(Debug, Clone)]
pub struct ThresholdAutoscaler {
    cfg: AutoscalerConfig,
    /// Per-region earliest instant of the next allowed scale action.
    cooldown_until: BTreeMap<Region, SimTime>,
    /// Joins emitted but not yet visible in the observation.
    provisioning: ProvisionLedger,
}

impl ThresholdAutoscaler {
    /// An autoscaler with the given thresholds and bounds.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        ThresholdAutoscaler {
            cfg,
            cooldown_until: BTreeMap::new(),
            provisioning: ProvisionLedger::new(),
        }
    }
}

impl FleetPlan for ThresholdAutoscaler {
    fn next_events(&mut self, _horizon: SimTime, obs: &FleetObservation) -> Vec<FleetCommand> {
        let now = obs.now;
        // Replicas whose provisioning delay has elapsed show up in the
        // observation; stop double-counting them.
        self.provisioning.prune(now);
        let mut out = Vec::new();
        for region in obs.regions() {
            // A region whose balancer is down reads zero load (its
            // demand is served — and observed — elsewhere): treat it
            // as unobservable, never as idle.
            if !obs.balancer_alive_in(region) {
                continue;
            }
            let live = obs.live_in(region);
            let provisioning = self.provisioning.in_flight(region);
            let effective = live + provisioning;
            let load = obs.region_load(region);
            let cooled = self
                .cooldown_until
                .get(&region)
                .is_none_or(|&until| now >= until);
            if !cooled {
                continue;
            }
            if load > self.cfg.scale_out_load && effective < self.cfg.max_per_region {
                let online_at = now + self.cfg.provision_delay;
                out.push(FleetCommand::new(
                    online_at,
                    FleetEvent::ReplicaJoin {
                        region,
                        profile: self.cfg.profile,
                    },
                ));
                self.provisioning.note(region, online_at);
                self.cooldown_until.insert(region, now + self.cfg.cooldown);
            } else if load < self.cfg.scale_in_load
                && provisioning == 0
                && live > self.cfg.min_per_region
            {
                for replica in obs.drain_candidates(region, 1) {
                    out.push(FleetCommand::new(now, FleetEvent::ReplicaDrain { replica }));
                    self.cooldown_until.insert(region, now + self.cfg.cooldown);
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
            "autoscale(out>{:.0},in<{:.0},{}..{})",
            self.cfg.scale_out_load,
            self.cfg.scale_in_load,
            self.cfg.min_per_region,
            self.cfg.max_per_region
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::observe::{LbObservation, ReplicaObservation};
    use skywalker_replica::ReplicaId;

    fn obs(now: SimTime, live: u32, queue: u32, outstanding: u32) -> FleetObservation {
        FleetObservation {
            now,
            replicas: (0..live)
                .map(|i| ReplicaObservation {
                    id: ReplicaId(i),
                    region: Region::UsEast,
                    pending: 0,
                    running: i, // replica 0 is the least loaded
                    kv_utilization: 0.2,
                    draining: false,
                })
                .collect(),
            balancers: vec![LbObservation {
                index: 0,
                region: Region::UsEast,
                queue,
                outstanding,
                alive: true,
            }],
        }
    }

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig {
            min_per_region: 1,
            max_per_region: 4,
            scale_out_load: 6.0,
            scale_in_load: 1.0,
            cooldown: SimDuration::from_secs(60),
            provision_delay: SimDuration::from_secs(10),
            ..AutoscalerConfig::default()
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn scales_out_under_pressure_after_provision_delay() {
        let mut a = ThresholdAutoscaler::new(cfg());
        let cmds = a.next_events(t(1), &obs(t(0), 2, 10, 10));
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].at, t(10), "join lands after the provisioning delay");
        assert!(matches!(
            cmds[0].event,
            FleetEvent::ReplicaJoin {
                region: Region::UsEast,
                ..
            }
        ));
    }

    #[test]
    fn cooldown_and_provisioning_suppress_thrash() {
        let mut a = ThresholdAutoscaler::new(cfg());
        assert_eq!(a.next_events(t(1), &obs(t(0), 2, 10, 10)).len(), 1);
        // Still overloaded 5 s later: cooldown holds the fire.
        assert!(a.next_events(t(6), &obs(t(5), 2, 12, 12)).is_empty());
        // After the cooldown, a second join may go out.
        assert_eq!(a.next_events(t(61), &obs(t(60), 3, 30, 30)).len(), 1);
    }

    #[test]
    fn scales_in_to_the_floor_only() {
        let mut a = ThresholdAutoscaler::new(cfg());
        let cmds = a.next_events(t(1), &obs(t(0), 3, 0, 1));
        assert_eq!(cmds.len(), 1);
        // Least-loaded is replica 0 (running = id); ties prefer the
        // youngest, but here loads differ.
        assert!(matches!(
            cmds[0].event,
            FleetEvent::ReplicaDrain {
                replica: ReplicaId(0)
            }
        ));
        // A single remaining replica is never drained.
        let mut idle = ThresholdAutoscaler::new(cfg());
        assert!(idle.next_events(t(1), &obs(t(0), 1, 0, 0)).is_empty());
    }

    #[test]
    fn max_bound_caps_growth() {
        let mut a = ThresholdAutoscaler::new(cfg());
        assert!(
            a.next_events(t(1), &obs(t(0), 4, 99, 99)).is_empty(),
            "at max_per_region nothing more joins"
        );
    }

    #[test]
    fn dead_balancer_region_is_unobservable_not_idle() {
        let mut a = ThresholdAutoscaler::new(cfg());
        // The region is genuinely busy, but its balancer just went
        // down (§4.2 drill): the load reads zero. The autoscaler must
        // not read that as idleness and drain healthy capacity
        // mid-outage.
        let mut o = obs(t(0), 3, 0, 0);
        o.balancers[0].alive = false;
        assert!(
            a.next_events(t(1), &o).is_empty(),
            "no scale decision while the region is unobservable"
        );
        // Balancer back: normal scale-in resumes.
        o.balancers[0].alive = true;
        assert_eq!(a.next_events(t(2), &o).len(), 1);
    }

    #[test]
    fn steady_load_leaves_the_fleet_alone() {
        let mut a = ThresholdAutoscaler::new(cfg());
        // Load per replica = 4: between the thresholds.
        assert!(a.next_events(t(1), &obs(t(0), 2, 4, 4)).is_empty());
        assert!(!a.is_done(), "an autoscaler watches until the run ends");
    }
}
