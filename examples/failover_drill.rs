//! Balancer failure drill (§4.2): crash a regional balancer mid-run,
//! watch the controller re-home its replicas to the nearest surviving
//! balancer, then bring it back and verify the hand-back — scripted
//! through the open fleet surface ([`ScheduledPlan`]), which also lets
//! the same drill kill a *replica* outright and watch its in-flight
//! work reroute.
//!
//! Run with:
//! ```sh
//! cargo run --release --example failover_drill
//! ```

use skywalker::replica::ReplicaId;
use skywalker::scenarios::balanced_fleet;
use skywalker::sim::SimTime;
use skywalker::{
    run_scenario, workload_clients, FabricConfig, FleetCommand, FleetEvent, ScheduledPlan,
    SystemKind, Workload,
};

fn main() {
    let cfg = FabricConfig::default();
    let clients = workload_clients(Workload::WildChat, 0.2, 99).expect("positive scale");
    let total_requests: usize = clients.iter().map(|c| c.total_requests()).sum();

    println!("Failover drill: {total_requests} requests, 3 regions, 12 replicas");
    println!("  t=20s  balancer in region 1 crashes");
    println!("  t=35s  a replica in region 0 crashes (in-flight work reroutes)");
    println!("  t=60s  the balancer recovers\n");

    let baseline = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .clients(clients.clone())
        .build()
        .expect("fleet and clients are both set");
    let healthy = run_scenario(&baseline, &cfg);

    let plan = ScheduledPlan::new(vec![
        FleetCommand::new(SimTime::from_secs(20), FleetEvent::LbDown { lb: 1 }),
        FleetCommand::new(
            SimTime::from_secs(35),
            FleetEvent::ReplicaCrash {
                replica: ReplicaId(2),
            },
        ),
        FleetCommand::new(SimTime::from_secs(60), FleetEvent::LbUp { lb: 1 }),
    ])
    .with_label("drill");
    let drill = SystemKind::SkyWalker
        .builder()
        .replicas(balanced_fleet())
        .clients(clients)
        .fleet_plan(Box::new(plan))
        .build()
        .expect("fleet and clients are both set");
    let faulted = run_scenario(&drill, &cfg);

    println!(
        "  {:<22} {:>10} {:>8} {:>8} {:>9} {:>8}",
        "run", "completed", "failed", "retried", "tok/s", "p90 TTFT"
    );
    for (name, s) in [("healthy", &healthy), ("with crashes", &faulted)] {
        println!(
            "  {:<22} {:>10} {:>8} {:>8} {:>9.0} {:>7.2}s",
            name,
            s.report.completed,
            s.report.failed,
            s.report.retried,
            s.report.throughput_tps,
            s.report.ttft.p90
        );
    }

    assert_eq!(
        faulted.report.completed + faulted.report.failed + faulted.report.in_flight,
        healthy.report.completed + healthy.report.failed + healthy.report.in_flight,
        "no request may vanish"
    );
    assert_eq!(faulted.fleet.crashes, 1);
    println!("\nEvery request was accounted for: clients whose balancer died");
    println!("retried against the next-nearest one, the crashed replica's");
    println!("in-flight work was rerouted, and the controller re-homed the");
    println!("orphaned replicas until recovery handed them back.");
}
