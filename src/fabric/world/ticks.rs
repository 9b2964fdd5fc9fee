//! The periodic planes, each a self-rescheduling tick: selective-pushing
//! probes, balancer heartbeats and the controller's failure detector,
//! and the telemetry sampler (the dashboard series only). Every configurable period comes from the
//! clamped [`FabricConfig`], so a tick always advances virtual time.

use skywalker_core::LbId;

use super::{Ev, Fabric, ReplicaHealth, Sched};
use crate::fabric::FabricConfig;

impl Fabric {
    pub(crate) fn on_probe_tick(&mut self, sched: &mut Sched) {
        let now = sched.now();
        // Each live balancer probes its replicas' queue depths and KV
        // pressure (the selective-pushing signal, §4.1).
        let replicas = &mut self.replicas;
        for slot in self.lbs.iter_mut().filter(|s| s.alive) {
            slot.lb.probe_replicas(|state| {
                let probed = &mut replicas[state.id.0 as usize];
                probed.peak_outstanding = probed.peak_outstanding.max(state.outstanding);
                let r = &probed.replica;
                (
                    r.pending_len() as u32,
                    r.running_len() as u32,
                    r.kv_utilization(),
                )
            });
        }
        // Not part of the probe walk above: no balancer probes a
        // decode-only replica, or any replica while its balancer is down.
        for slot in &mut self.replicas {
            if slot.health != ReplicaHealth::Crashed {
                slot.kv_peak = slot.kv_peak.max(slot.replica.kv_utilization());
            }
        }
        if self.forward_enabled {
            self.exchange_peer_status(sched);
        }
        for (lb, slot) in self.lbs.iter().enumerate() {
            if slot.alive {
                sched.at(now, Ev::LbDispatch { lb: lb as u32 });
            }
        }
        sched.after(self.cfg.probe_interval, Ev::ProbeTick);
    }

    /// Every live balancer tells every other live balancer how much
    /// room it has (available replicas, queue length), one WAN hop away.
    fn exchange_peer_status(&mut self, sched: &mut Sched) {
        let live = || self.lbs.iter().enumerate().filter(|(_, s)| s.alive);
        let statuses = &mut self.probe_statuses;
        statuses.clear();
        statuses.extend(live().map(|(i, s)| (i as u32, s.lb.region(), s.lb.status())));
        for (to, slot) in live() {
            let to = to as u32;
            for &(from, from_region, status) in statuses.iter().filter(|s| s.0 != to) {
                let delay =
                    self.cfg
                        .net
                        .sample_one_way(slot.lb.region(), from_region, &mut self.rng);
                sched.after(delay, Ev::PeerStatus { to, from, status });
            }
        }
    }

    pub(crate) fn on_telemetry_tick(&mut self, sched: &mut Sched) {
        self.obs.sample(sched.now(), &self.lbs, &self.replicas);
        if let Some(interval) = self.obs.telemetry_interval() {
            sched.after(interval, Ev::TelemetryTick);
        }
    }

    pub(crate) fn on_heartbeat_tick(&mut self, sched: &mut Sched) {
        for lb in 0..self.lbs.len() {
            if self.lbs[lb].alive {
                let actions = self.controller.heartbeat(LbId(lb as u32), sched.now());
                self.apply_control_actions(actions, sched);
            }
        }
        sched.after(FabricConfig::HEARTBEAT_INTERVAL, Ev::HeartbeatTick);
    }

    pub(crate) fn on_controller_tick(&mut self, sched: &mut Sched) {
        let actions = self.controller.check(sched.now());
        self.apply_control_actions(actions, sched);
        sched.after(FabricConfig::HEARTBEAT_INTERVAL, Ev::ControllerTick);
    }
}
