//! What a built scenario holds before it runs — refereed by an
//! allocator, not by anything the product code reports about itself.
//!
//! A diurnal scenario fixes its arrival instants when it is built, eight
//! bytes a kept arrival, and generates every client's content only at its
//! arrival. So at scale 0.1 it holds the tenth of the day it kept, not
//! the buffer of the whole day's sample it thinned them from: a lab sweep
//! that holds many scenarios at once pays for what they will run.
//!
//! One `#[test]` only: the counters are process-wide.

use std::sync::atomic::Ordering::Relaxed;

use skywalker::sim::SimDuration;
use skywalker::{fig10_diurnal_scenario, SystemKind};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::LIVE;

/// The benchmark's diurnal day (3 regions, 8 replicas each, a 2 400 s
/// day at scale 0.1, ~15.9 k arrivals): 0.13 MB of instants, held in
/// 2.10 MB when each lane kept its unthinned sample's buffer.
#[test]
fn a_built_diurnal_scenario_holds_only_its_thinned_instants() {
    let before = LIVE.load(Relaxed);
    let day = SimDuration::from_secs(2_400);
    let scenario = fig10_diurnal_scenario(SystemKind::SkyWalker, 8, day, 0.1, 61);
    let held = LIVE.load(Relaxed) - before;
    println!("a built scale-0.1 diurnal scenario holds {held} B");
    assert!(held < 500_000, "{held} B held by a built scenario");
    drop(scenario);
}
