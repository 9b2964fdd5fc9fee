//! The counting global allocator of the allocator-refereed tests:
//! `System`, plus the bytes currently allocated, their high-water mark,
//! the largest single request and the number of requests (an `alloc`,
//! an `alloc_zeroed` or a `realloc` each count one), in all and charged
//! to the `skywalker_sim::Scope` current on the requesting thread. The
//! scheme of `crates/bench/skybench/src/alloc.rs`.
//!
//! Requests are counted per thread, and [`allocs`] and [`by_scope`] read
//! the calling thread's counts, so a measuring thread is charged only
//! for what it allocates itself: another thread allocating inside its
//! window (the test harness, a worker) moves no count it reads.
//!
//! A test binary includes it as a module, which installs it:
//!
//! ```ignore
//! #[path = "../../../tests/common/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! The byte counters are process-wide, so a test that reads `LIVE` or
//! `PEAK` is the only `#[test]` of its binary.

// Each test binary includes its own copy and reads a subset.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skywalker_sim::Scope;

/// Bytes currently allocated.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since a test last stored to it.
pub static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The largest single request since a test last stored to it.
pub static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Blocks this thread requested or grew.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// [`ALLOCS`] by the scope they were requested in:
    /// `BY_SCOPE[scope as usize]`.
    static BY_SCOPE: [Cell<usize>; Scope::ALL.len()] =
        const { [const { Cell::new(0) }; Scope::ALL.len()] };
}

/// Blocks the calling thread has requested or grown. Never allocates.
pub fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// [`allocs`] by the scope they were requested in:
/// `by_scope()[scope as usize]`.
pub fn by_scope() -> [usize; Scope::ALL.len()] {
    BY_SCOPE.with(|counts| std::array::from_fn(|i| counts[i].get()))
}

fn grew(bytes: usize) {
    // A thread being torn down has no counts left to read.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BY_SCOPE.try_with(|counts| {
        let n = &counts[Scope::current() as usize];
        n.set(n.get() + 1);
    });
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    LARGEST.fetch_max(bytes, Relaxed);
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are plain
// statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
