//! The streaming fleet-plan trait and its schedule-driven built-ins.
//!
//! A [`FleetPlan`] is to the fleet axis what `TrafficSource` is to the
//! traffic axis: the fabric *pulls* fleet changes as simulated time
//! advances instead of ingesting a closed, pre-materialized schedule.
//! Anything implementing the trait — in this module or out — plugs into
//! `ScenarioBuilder::fleet_plan` with equal standing.
//!
//! # Contract
//!
//! - [`FleetPlan::next_events`] is called with a *horizon* (the poll
//!   instant plus one poll interval) and a [`FleetObservation`] taken at
//!   the poll instant (`obs.now <= horizon`). It must return every
//!   not-yet-emitted command with `at <= horizon`, in nondecreasing `at`
//!   order; reactive plans may additionally return commands beyond the
//!   horizon (e.g. a join after a provisioning delay) — every command is
//!   applied at its exact `at` regardless of the polling cadence.
//! - Commands must not be re-emitted: the fabric applies each returned
//!   command exactly once.
//! - Time-driven plans must derive their instants from their own seeded
//!   state, never from the polling cadence. A plan that draws randomness
//!   owns its stream, seeded at construction (as `ChaosPlan` does): the
//!   fabric hands it none, since draws made per poll would depend on how
//!   often it is polled. Reactive plans necessarily act on the
//!   observation at poll time; keep their *decisions* a pure function of
//!   `(observation, own state)` so runs stay reproducible.
//! - [`FleetPlan::is_done`] is `true` once no future call can produce
//!   another command; the fabric then stops polling. A plan that never
//!   finishes is legal (an autoscaler watches until the run ends).

use std::fmt;

use skywalker_sim::SimTime;

use crate::fleet::event::FleetCommand;
use crate::fleet::observe::FleetObservation;

/// Object-safe cloning for boxed plans, blanket-implemented for every
/// `Clone` plan — implementors only need `#[derive(Clone)]`.
pub trait CloneFleetPlan {
    /// Clones the plan behind a fresh box, with all emission state
    /// rewound to wherever this instance currently is.
    fn clone_box(&self) -> Box<dyn FleetPlan>;
}

impl<T: FleetPlan + Clone + 'static> CloneFleetPlan for T {
    fn clone_box(&self) -> Box<dyn FleetPlan> {
        Box::new(self.clone())
    }
}

/// A lazy stream of fleet changes — the fleet counterpart of
/// `TrafficSource` on the workload axis.
///
/// See the module-level docs above for the full contract.
pub trait FleetPlan: fmt::Debug + Send + CloneFleetPlan {
    /// Returns every not-yet-emitted command due by `horizon` (and any
    /// reactive commands the current observation triggers), in
    /// nondecreasing `at` order.
    fn next_events(&mut self, horizon: SimTime, obs: &FleetObservation) -> Vec<FleetCommand>;

    /// True once no future [`FleetPlan::next_events`] call can return
    /// another command.
    fn is_done(&self) -> bool;

    /// Display label for experiment tables.
    fn label(&self) -> String;
}

impl Clone for Box<dyn FleetPlan> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A fixed, time-driven schedule of fleet changes — the simplest way
/// to script balancer flaps, joins, drains, and crashes at known
/// instants.
///
/// Commands are emitted in `at` order regardless of construction order.
#[derive(Debug, Clone)]
pub struct ScheduledPlan {
    commands: Vec<FleetCommand>,
    cursor: usize,
    label: String,
}

impl ScheduledPlan {
    /// A plan over `commands` (sorted internally by `at`, stably, so
    /// same-instant commands keep construction order).
    pub fn new(mut commands: Vec<FleetCommand>) -> Self {
        commands.sort_by_key(|c| c.at);
        ScheduledPlan {
            commands,
            cursor: 0,
            label: "scheduled".to_string(),
        }
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl FleetPlan for ScheduledPlan {
    fn next_events(&mut self, horizon: SimTime, _obs: &FleetObservation) -> Vec<FleetCommand> {
        let mut out = Vec::new();
        while let Some(cmd) = self.commands.get(self.cursor) {
            if cmd.at > horizon {
                break;
            }
            out.push(*cmd);
            self.cursor += 1;
        }
        out
    }

    fn is_done(&self) -> bool {
        self.cursor >= self.commands.len()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Composes several plans into one stream (e.g. a scripted §4.2 drill
/// running alongside an autoscaler). Batches preserve child order for
/// same-instant commands and are stably sorted by `at` across children.
#[derive(Debug, Clone)]
pub struct MergePlan {
    plans: Vec<Box<dyn FleetPlan>>,
    label: String,
}

impl MergePlan {
    /// Merges `plans` into one stream.
    pub fn new(plans: Vec<Box<dyn FleetPlan>>) -> Self {
        let label = plans
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join("+");
        MergePlan { plans, label }
    }

    /// Overrides the display label (default: children joined with `+`).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl FleetPlan for MergePlan {
    fn next_events(&mut self, horizon: SimTime, obs: &FleetObservation) -> Vec<FleetCommand> {
        let mut out = Vec::new();
        for p in &mut self.plans {
            out.extend(p.next_events(horizon, obs));
        }
        out.sort_by_key(|c| c.at);
        out
    }

    fn is_done(&self) -> bool {
        self.plans.iter().all(|p| p.is_done())
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::event::FleetEvent;

    fn empty_obs(now: SimTime) -> FleetObservation {
        FleetObservation {
            now,
            replicas: Vec::new(),
            balancers: Vec::new(),
        }
    }

    fn lb_down(at: u64, lb: u32) -> FleetCommand {
        FleetCommand::new(SimTime::from_secs(at), FleetEvent::LbDown { lb })
    }

    #[test]
    fn scheduled_plan_emits_in_time_order_once() {
        let mut plan = ScheduledPlan::new(vec![lb_down(30, 2), lb_down(10, 0), lb_down(20, 1)]);
        assert!(!plan.is_done());
        let first = plan.next_events(SimTime::from_secs(15), &empty_obs(SimTime::ZERO));
        assert_eq!(first, vec![lb_down(10, 0)]);
        // Re-polling the same horizon emits nothing new.
        assert!(plan
            .next_events(SimTime::from_secs(15), &empty_obs(SimTime::ZERO))
            .is_empty());
        let rest = plan.next_events(SimTime::MAX, &empty_obs(SimTime::ZERO));
        assert_eq!(rest, vec![lb_down(20, 1), lb_down(30, 2)]);
        assert!(plan.is_done());
    }

    #[test]
    fn scheduled_plan_is_poll_cadence_invariant() {
        let cmds = vec![lb_down(5, 0), lb_down(5, 1), lb_down(12, 2), lb_down(40, 0)];
        let mut coarse = ScheduledPlan::new(cmds.clone());
        let mut fine = coarse.clone();
        let mut a = Vec::new();
        for h in [0u64, 20, 40] {
            a.extend(coarse.next_events(SimTime::from_secs(h), &empty_obs(SimTime::ZERO)));
        }
        let mut b = Vec::new();
        for h in 0..=40u64 {
            b.extend(fine.next_events(SimTime::from_secs(h), &empty_obs(SimTime::ZERO)));
        }
        assert_eq!(a, b, "batching granularity must not change the stream");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn merge_plan_interleaves_children_by_time() {
        let a = ScheduledPlan::new(vec![lb_down(10, 0), lb_down(30, 0)]);
        let b = ScheduledPlan::new(vec![lb_down(20, 1)]);
        let mut merged = MergePlan::new(vec![Box::new(a), Box::new(b)]);
        assert_eq!(merged.label(), "scheduled+scheduled");
        let all = merged.next_events(SimTime::MAX, &empty_obs(SimTime::ZERO));
        assert_eq!(all, vec![lb_down(10, 0), lb_down(20, 1), lb_down(30, 0)]);
        assert!(merged.is_done());
    }

    #[test]
    fn boxed_plans_clone_with_state() {
        let mut plan: Box<dyn FleetPlan> = Box::new(ScheduledPlan::new(vec![lb_down(10, 0)]));
        let fresh = plan.clone();
        plan.next_events(SimTime::MAX, &empty_obs(SimTime::ZERO));
        assert!(plan.is_done());
        assert!(!fresh.is_done(), "clone rewinds to the clone point");
    }
}
