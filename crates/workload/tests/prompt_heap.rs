//! What a generated prompt costs while its request waits to be issued —
//! refereed by an allocator, not by anything the crate reports about
//! itself. Two readings:
//!
//! - A Tree-of-Thoughts tree is generated whole (§5.1), so a closed-loop
//!   client holds every prompt of every stage it has not issued yet. All
//!   children of a node get the same prompt — the parent's prompt plus
//!   the parent's thought — and a tree has one session key. A source
//!   that holds each distinct prompt and key once stays under
//!   [`BYTES_PER_TOKEN`]; one that gives every request its own copies
//!   holds 4.29 B a token.
//! - A conversation's turn `t + 1` extends turn `t`'s prompt, so a
//!   source can build the whole conversation in one buffer of its final
//!   length and copy each turn's prompt out of it exactly once. A drained
//!   light chat source — the diurnal day's traffic — then makes at most
//!   [`ALLOCS_PER_CHAT_REQUEST`] allocations a request.
//!
//! One `#[test]` only: the counters are process-wide.

use std::sync::atomic::Ordering::Relaxed;

use skywalker_net::Region;
use skywalker_replica::Request;
use skywalker_workload::{
    drain, ClientSpec, ConversationConfig, ConversationSource, TotConfig, TotSource,
};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, LIVE};

/// About 15 % above the 2.23 B a drained source holds a prompt token it
/// describes (4.29 B when every request held its own prompt and key).
const BYTES_PER_TOKEN: f64 = 2.6;
/// About 16 % above the 3.88 allocations a drained light chat source
/// makes a request (4.91 when each session key was formatted, then
/// copied into its `Arc`, and the RNG's label was formatted too; 7.70
/// when every template, persona and turn fragment was a vector of its
/// own and the history grew by doubling).
const ALLOCS_PER_CHAT_REQUEST: f64 = 4.5;

fn requests(clients: &[ClientSpec]) -> impl Iterator<Item = &Request> {
    clients
        .iter()
        .flat_map(|c| &c.programs)
        .flat_map(|p| p.requests())
}

/// Heap held per prompt token by a drained ToT source.
fn tot_bytes_per_token() -> f64 {
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

    let (n, tokens) = requests(&clients).fold((0, 0), |(n, t), r| (n + 1, t + r.prompt.len()));
    assert_eq!(n, 38_400);
    println!(
        "ToT: {:.2} MB held for {n} requests and {:.2} M prompt tokens",
        held as f64 / 1e6,
        tokens as f64 / 1e6
    );
    held as f64 / tokens as f64
}

/// Allocations a request made by draining a light chat source
/// ([`ConversationConfig::light_chat`], the diurnal day's content: one
/// or two short conversations per user).
fn chat_allocs_per_request() -> f64 {
    let slots = vec![
        (Region::UsEast, 2_000),
        (Region::EuWest, 1_000),
        (Region::ApNortheast, 1_000),
    ];
    let before = allocs();
    let clients = drain(&mut ConversationSource::new(
        ConversationConfig::light_chat(),
        slots,
        61,
    ));
    let allocs = allocs() - before;
    let n = requests(&clients).count();
    println!("light chat: {allocs} allocations for {n} requests");
    allocs as f64 / n as f64
}

#[test]
fn a_drained_source_builds_each_prompt_once() {
    let per_token = tot_bytes_per_token();
    println!("ToT: {per_token:.2} B a prompt token");
    let per_request = chat_allocs_per_request();
    println!("light chat: {per_request:.2} allocations a request");
    assert!(
        per_token <= BYTES_PER_TOKEN,
        "a drained ToT source holds {per_token:.2} B a prompt token, over {BYTES_PER_TOKEN}"
    );
    assert!(
        per_request <= ALLOCS_PER_CHAT_REQUEST,
        "a drained light chat source makes {per_request:.2} allocations a request, \
         over {ALLOCS_PER_CHAT_REQUEST}"
    );
}
