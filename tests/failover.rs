//! Failure-recovery drills across the whole stack (§4.2): a balancer
//! crash mid-run must not lose requests, and recovery must hand replicas
//! back.
//!
//! The drills drive the fleet surface — a [`ScheduledPlan`] of
//! [`FleetEvent::LbDown`]/[`FleetEvent::LbUp`] commands.

use skywalker::net::Region;
use skywalker::sim::{SimDuration, SimTime};
use skywalker::telemetry::{names, SampleValue};
use skywalker::{
    balanced_fleet, l4_fleet, run_scenario, workload_clients, FabricConfig, FleetCommand,
    FleetEvent, RunSummary, ScheduledPlan, SystemKind, Workload,
};

fn lb_down(at_secs: u64, lb: u32) -> FleetCommand {
    FleetCommand::new(SimTime::from_secs(at_secs), FleetEvent::LbDown { lb })
}

fn lb_up(at_secs: u64, lb: u32) -> FleetCommand {
    FleetCommand::new(SimTime::from_secs(at_secs), FleetEvent::LbUp { lb })
}

/// Runs WildChat at scale 0.1 on the balanced fleet under a scheduled
/// drill (none = the healthy baseline); returns the summary and the
/// number of requests the clients will issue.
fn run_drill(commands: Vec<FleetCommand>, seed: u64) -> (RunSummary, usize) {
    let clients = workload_clients(Workload::WildChat, 0.1, seed).expect("positive scale");
    let expected: usize = clients.iter().map(|c| c.total_requests()).sum();
    let mut builder = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .clients(clients);
    if !commands.is_empty() {
        builder = builder.fleet_plan(Box::new(ScheduledPlan::new(commands)));
    }
    let scenario = builder.build().expect("fleet and clients are both set");
    (run_scenario(&scenario, &FabricConfig::default()), expected)
}

fn drill(commands: Vec<FleetCommand>, seed: u64) -> (u64, u64, u64, usize) {
    let (s, expected) = run_drill(commands, seed);
    (
        s.report.completed,
        s.report.failed,
        s.report.in_flight,
        expected,
    )
}

#[test]
fn crash_and_recovery_preserves_every_request() {
    let (completed, failed, in_flight, expected) = drill(vec![lb_down(10, 1), lb_up(40, 1)], 21);
    assert_eq!(
        (completed + failed + in_flight) as usize,
        expected,
        "requests vanished during failover"
    );
    assert_eq!(in_flight, 0, "run must drain after recovery");
    assert!(
        completed as usize >= expected * 9 / 10,
        "most requests must complete despite the crash ({completed}/{expected})"
    );
}

#[test]
fn permanent_crash_still_drains_via_rehoming() {
    // The balancer never comes back; its replicas are re-homed to the
    // nearest surviving balancer, which serves them as temporarily local.
    let (completed, failed, in_flight, expected) = drill(vec![lb_down(10, 2)], 23);
    assert_eq!((completed + failed + in_flight) as usize, expected);
    assert_eq!(in_flight, 0);
    assert!(completed as usize >= expected * 9 / 10);
}

#[test]
fn double_crash_tolerated() {
    let (completed, _failed, in_flight, expected) = drill(
        vec![lb_down(8, 0), lb_down(12, 1), lb_up(50, 0), lb_up(55, 1)],
        27,
    );
    assert_eq!(in_flight, 0);
    assert!(
        completed as usize >= expected * 8 / 10,
        "completed {completed} of {expected}"
    );
}

#[test]
fn faulted_run_matches_healthy_totals() {
    let (healthy, _) = run_drill(Vec::new(), 29);
    let (faulted, _) = run_drill(vec![lb_down(15, 1), lb_up(45, 1)], 29);
    assert_eq!(
        healthy.report.completed + healthy.report.failed,
        faulted.report.completed + faulted.report.failed,
    );
    // Retried requests pay at least the retry delay, so the faulted run's
    // tail latency cannot beat the healthy run's by more than noise.
    assert!(
        faulted.report.e2e.max >= healthy.report.e2e.p50,
        "faulted max {:.2}s vs healthy p50 {:.2}s",
        faulted.report.e2e.max,
        healthy.report.e2e.p50
    );
    // The balancer flap retried at least one request, and that shows up
    // in the report.
    assert!(faulted.report.retried >= 1);
    assert_eq!(healthy.report.retried, 0);
}

/// A crashed balancer's queue-depth gauge reads the queue it has — none,
/// its queue was lost with it — not the one it had at the last telemetry
/// tick before the crash.
#[test]
fn crashed_balancers_report_empty_queues() {
    // 100 clients on one replica per region: every client's first request
    // arrives in the first second, so at the 0.5 s tick the balancers are
    // queueing. All three crash at 0.75 s and stay down.
    let crash = SimTime::from_millis(750);
    let clients = workload_clients(Workload::WildChat, 1.0, 21).expect("positive scale");
    let one_each = [
        (Region::UsEast, 1),
        (Region::EuWest, 1),
        (Region::ApNortheast, 1),
    ];
    let plan = (0..3).map(|lb| FleetCommand::new(crash, FleetEvent::LbDown { lb }));
    let scenario = SystemKind::SkyWalker
        .builder()
        .replicas(l4_fleet(&one_each))
        .clients(clients)
        .fleet_plan(Box::new(ScheduledPlan::new(plan.collect())))
        .build()
        .expect("fleet and clients are both set");
    let cfg = FabricConfig {
        deadline: SimTime::from_secs(5),
        ..FabricConfig::default().telemetry(SimDuration::from_millis(500))
    };
    let s = run_scenario(&scenario, &cfg);
    let telemetry = s.telemetry.expect("telemetry was enabled");

    let queue = telemetry.series("queue_depth").expect("sampled every tick");
    let before = queue.points().take_while(|&(at, _)| at < crash).last();
    let (_, queued) = before.expect("a tick before the crash");
    assert!(queued > 0.0, "the drill needs a queue to lose");
    let gauges: Vec<_> = telemetry
        .snapshot
        .samples
        .iter()
        .filter(|sample| sample.name == names::LB_QUEUE_DEPTH)
        .map(|sample| (&sample.labels, &sample.value))
        .collect();
    assert_eq!(gauges.len(), 3, "one gauge per balancer");
    for (labels, value) in gauges {
        assert_eq!(
            *value,
            SampleValue::Gauge(0.0),
            "{labels:?}: a crashed balancer reports requests queued"
        );
    }
}
