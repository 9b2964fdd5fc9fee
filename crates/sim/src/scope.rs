//! What this thread is doing now, as one tag a counting allocator can
//! read: the arm of the fabric event being handled, or one of the tree
//! calls inside it.
//!
//! The engine itself stays domain-agnostic; the tag lives here because
//! this is the one crate every layer that sets it stands on — the
//! fabric around each handled event, the route trie around `insert`,
//! the KV cache around `acquire` and `complete` — and because a test's
//! or a bench's global allocator must reach it without a dependency on
//! any of them. It is thread-local, since the lab runs cells on several
//! threads, and it is initialised by a `const`, so reading it never
//! allocates: an allocator may read it inside `alloc`.
//!
//! # Examples
//!
//! ```
//! use skywalker_sim::Scope;
//!
//! assert_eq!(Scope::current(), Scope::Outside);
//! Scope::LbDispatch.run(|| {
//!     Scope::TrieInsert.run(|| assert_eq!(Scope::current(), Scope::TrieInsert));
//!     assert_eq!(Scope::current(), Scope::LbDispatch);
//! });
//! assert_eq!(Scope::current(), Scope::Outside);
//! ```

use std::cell::Cell;

/// One scope work is charged to. Closed: one per fabric event arm, one
/// per tree call that allocates on its own, and [`Scope::Outside`] for
/// the rest (set-up, reporting, anything between events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Not inside a handled event or a tagged call.
    Outside,
    /// The fabric's `TrafficPoll` arm.
    TrafficPoll,
    /// The fabric's `ClientArrive` arm.
    ClientArrive,
    /// The fabric's `IssueStage` arm.
    IssueStage,
    /// The fabric's `Retry` arm.
    Retry,
    /// The fabric's `LbReceive` arm.
    LbReceive,
    /// The fabric's `LbDispatch` arm.
    LbDispatch,
    /// The fabric's `ReplicaReceive` arm.
    ReplicaReceive,
    /// The fabric's `ReplicaKick` arm.
    ReplicaKick,
    /// The fabric's `IterationDone` arm, handled or re-armed.
    IterationDone,
    /// The fabric's `KvTransfer` arm.
    KvTransfer,
    /// The fabric's `DeliverFirstToken` arm.
    DeliverFirstToken,
    /// The fabric's `DeliverCompletion` arm.
    DeliverCompletion,
    /// The fabric's `ProbeTick` arm.
    ProbeTick,
    /// The fabric's `TelemetryTick` arm.
    TelemetryTick,
    /// The fabric's `PeerStatus` arm.
    PeerStatus,
    /// The fabric's `HeartbeatTick` arm.
    HeartbeatTick,
    /// The fabric's `ControllerTick` arm.
    ControllerTick,
    /// The fabric's `FleetPoll` arm.
    FleetPoll,
    /// The fabric's `FleetApply` arm.
    FleetApply,
    /// `RouteTrie::insert`, bound enforcement included.
    TrieInsert,
    /// `PrefixCache::acquire`.
    CacheAcquire,
    /// `PrefixCache::complete` and `PrefixCache::complete_run`.
    CacheComplete,
}

thread_local! {
    static CURRENT: Cell<Scope> = const { Cell::new(Scope::Outside) };
}

impl Scope {
    /// Every scope, in declaration order: `ALL[s as usize] == s`.
    pub const ALL: [Scope; 23] = [
        Scope::Outside,
        Scope::TrafficPoll,
        Scope::ClientArrive,
        Scope::IssueStage,
        Scope::Retry,
        Scope::LbReceive,
        Scope::LbDispatch,
        Scope::ReplicaReceive,
        Scope::ReplicaKick,
        Scope::IterationDone,
        Scope::KvTransfer,
        Scope::DeliverFirstToken,
        Scope::DeliverCompletion,
        Scope::ProbeTick,
        Scope::TelemetryTick,
        Scope::PeerStatus,
        Scope::HeartbeatTick,
        Scope::ControllerTick,
        Scope::FleetPoll,
        Scope::FleetApply,
        Scope::TrieInsert,
        Scope::CacheAcquire,
        Scope::CacheComplete,
    ];

    /// This thread's current scope. Never allocates.
    pub fn current() -> Scope {
        // A thread being torn down reads as outside any scope.
        CURRENT.try_with(Cell::get).unwrap_or(Scope::Outside)
    }

    /// Runs `f` with `self` as this thread's scope, then restores the
    /// scope it replaced: scopes nest. Nothing is dropped on the way
    /// out, so wrapping the fabric's hottest function adds no unwind
    /// path to it; a panic in `f` leaves `self` current.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        let outer = CURRENT.replace(self);
        let out = f();
        CURRENT.set(outer);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_scope_at_its_own_index() {
        for (i, s) in Scope::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{s:?}");
        }
    }

    #[test]
    fn scopes_are_per_thread() {
        Scope::ReplicaKick.run(|| {
            let there = std::thread::spawn(Scope::current).join().unwrap();
            assert_eq!(
                (Scope::current(), there),
                (Scope::ReplicaKick, Scope::Outside)
            );
        });
    }
}
