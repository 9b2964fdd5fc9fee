//! What a generated prompt token costs in heap while its request waits to
//! be issued — refereed by an allocator, not by anything the crate reports
//! about itself.
//!
//! A Tree-of-Thoughts tree is generated whole (§5.1), so a closed-loop
//! client holds every prompt of every stage it has not issued yet. All
//! children of a node get the same prompt — the parent's prompt plus the
//! parent's thought — and a tree has one session key. A source that holds
//! each distinct prompt and key once stays under [`BYTES_PER_TOKEN`]; one
//! that gives every request its own copies holds 4.29 B a token.
//!
//! One `#[test]` only: the counter is process-wide.

use std::sync::atomic::Ordering::Relaxed;

use skywalker_net::Region;
use skywalker_workload::{drain, TotConfig, TotSource};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::LIVE;

/// About 15 % above the 2.23 B a drained source holds a prompt token it
/// describes (4.29 B when every request held its own prompt and key).
const BYTES_PER_TOKEN: f64 = 2.6;

#[test]
fn a_drained_tot_source_holds_each_distinct_prompt_once() {
    // The paper's ToT population (40/20/20 clients) at scale 16, two
    // 15-node trees each: 1 280 clients, 38 400 requests.
    let slots = vec![
        (Region::UsEast, 640),
        (Region::EuWest, 320),
        (Region::ApNortheast, 320),
    ];
    let before = LIVE.load(Relaxed);
    let clients = drain(&mut TotSource::new(TotConfig::branch2(), slots, 2, 61));
    let held = LIVE.load(Relaxed) - before;

    let requests = clients
        .iter()
        .flat_map(|c| &c.programs)
        .flat_map(|p| p.requests());
    let (n, tokens) = requests.fold((0, 0), |(n, t), r| (n + 1, t + r.prompt.len()));
    assert_eq!(n, 38_400);
    let per_token = held as f64 / tokens as f64;
    println!(
        "{:.2} MB held for {n} requests and {:.2} M prompt tokens: {per_token:.2} B a token",
        held as f64 / 1e6,
        tokens as f64 / 1e6
    );
    assert!(
        per_token <= BYTES_PER_TOKEN,
        "a drained ToT source holds {per_token:.2} B a prompt token, over {BYTES_PER_TOKEN}"
    );
}
