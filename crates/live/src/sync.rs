//! Minimal synchronization shims over `std::sync`.
//!
//! The workspace builds offline with no external crates, so instead of
//! `parking_lot` this module wraps [`std::sync::Mutex`] with the same
//! ergonomic, non-poisoning `lock()` the servers were written against: a
//! panic while holding the lock must not wedge every other connection
//! thread behind a `PoisonError`.

/// A mutex whose `lock()` never fails: poisoning from a panicked holder
/// is swallowed and the inner data returned as-is (the servers' shared
/// state stays valid across request-handler panics).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, ignoring poison.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The lock the crate's wall-clock timing tests take exclusively and
/// every test that starts threads or spins takes shared. A paced wait
/// measured beside a server test's threads can lose whole scheduler
/// slices on a small host and read as late; the timing tests' own busy
/// threads would slow the servers' in the same way.
#[cfg(test)]
static TIMING: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Runs a timing test alone among the crate's tests (until dropped).
#[cfg(test)]
pub(crate) fn timing_alone() -> std::sync::RwLockWriteGuard<'static, ()> {
    TIMING
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Keeps the timing tests out while a test's threads run (until dropped).
#[cfg(test)]
pub(crate) fn beside_timing() -> std::sync::RwLockReadGuard<'static, ()> {
    TIMING
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
