//! The one clock every timed loop of the live plane keeps.
//!
//! The replica's stepper ends each iteration at its scaled place on the
//! wall clock, a client starts its requests on a schedule, and a
//! balancer's prober sends a round every interval. Each holds a
//! [`Pacer`]: an absolute deadline, moved on one period at a time, so
//! lateness is made up by the periods after it instead of added to each,
//! and a catch-up bound, so a long stall is not made up by a burst.
//!
//! A plain `thread::sleep` comes back late by the kernel's timer slack
//! and a wake-up: on Linux tens of µs, as long as a whole iteration of a
//! replica at `time_scale` 0.001. [`Pacer::wait`] sleeps only to within
//! [`SLACK`] of the deadline and yields the core for the rest, so it is
//! never early and rarely more than a few µs late.
//!
//! A yield lets the plane's own threads run: a balancer's reader relays
//! a frame and blocks again within tens of µs. Spinning instead starves
//! them on two cores: with a pacer that spun, `live_loopback`'s
//! `ttft_p50_ms` was 0.58 ms against 0.26 ms with plain sleeps (medians
//! of four alternating pairs, two-core x86-64 VM). But beside a thread
//! that never blocks (a compiler, a busy loop) a yield gives the core
//! away for that thread's whole scheduler slice, ~4 ms. A pacer that
//! loses a yield that way after another one, in the same wait or the
//! wait before, spins for [`SPIN_SPELL`] instead, then tries a yield
//! again. One late yield alone says little: on a shared VM the host
//! pauses the process now and then, and a spin would not have won that
//! back.

use std::thread;
use std::time::{Duration, Instant};

/// How far short of the deadline [`Pacer::wait`] stops sleeping. Linux's
/// default timer slack is 50 µs, and on a two-core x86-64 VM
/// `thread::sleep(40 µs)` returned after 96.7 µs (p10 96.3, p90 97.6;
/// 2 000 samples): 57 µs late. Twice the slack leaves room for the
/// wake-up on top of it.
const SLACK: Duration = Duration::from_micros(100);

/// A yield that comes back this late lost the core for a scheduler slice
/// (beside two busy loops on two cores, yields returned after 3.85 ms);
/// one of the plane's own threads gives it back in tens of µs. On a
/// two-core VM, 8–44 yields in a 13 s `live_loopback` run came back this
/// late with nothing else running, none after another on one pacer.
const YIELD_LOST: Duration = Duration::from_millis(1);

/// How long a pacer spins instead of yielding once it lost a yield after
/// another, in one wait or the wait before. While the busy threads stay, it loses one ~4 ms slice per
/// spell; a spell it should not have started costs the plane's other
/// threads at most this long.
const SPIN_SPELL: Duration = Duration::from_millis(10);

/// An absolute deadline, and how much lateness moving it on makes up.
#[derive(Debug)]
pub(crate) struct Pacer {
    deadline: Instant,
    catch_up: Duration,
    /// Until when [`Pacer::wait`] spins instead of yielding.
    spin_until: Instant,
    /// Whether the last wait lost a yield.
    lost_last: bool,
}

impl Pacer {
    /// A pacer due now that makes up at most `catch_up` of lateness.
    pub(crate) fn new(catch_up: Duration) -> Self {
        let now = Instant::now();
        Pacer {
            deadline: now,
            catch_up,
            spin_until: now,
            lost_last: false,
        }
    }

    /// Makes now the deadline: the next period starts here, with no
    /// lateness to make up.
    pub(crate) fn restart(&mut self) {
        self.deadline = Instant::now();
    }

    /// Moves the deadline on by `period`.
    pub(crate) fn advance(&mut self, period: Duration) {
        self.advance_from(Instant::now(), period);
    }

    /// Moves the deadline on by `period` from itself if it lies less than
    /// the catch-up bound before `now`, else from `now` less that bound.
    fn advance_from(&mut self, now: Instant, period: Duration) {
        let late = now.checked_sub(self.catch_up).unwrap_or(now);
        self.deadline = self.deadline.max(late) + period;
    }

    /// Returns once the deadline has passed: never before it, and rarely
    /// more than a few µs after.
    ///
    /// A yield lost after another one, in this wait or the last, starts a
    /// spin spell. Lost yields are seldom back to back: beside busy
    /// threads a wait's first yields come back at once, and only the one
    /// that hands the core over for a slice is lost.
    pub(crate) fn wait(&mut self) {
        let mut lost = false;
        loop {
            let now = Instant::now();
            let left = self.deadline.saturating_duration_since(now);
            if left.is_zero() {
                self.lost_last = lost;
                return;
            }
            if left > SLACK {
                thread::sleep(left - SLACK);
            } else if now < self.spin_until {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
                if now.elapsed() > YIELD_LOST {
                    if lost || self.lost_last {
                        self.spin_until = Instant::now() + SPIN_SPELL;
                    }
                    lost = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn wait_never_returns_before_its_deadline() {
        let _timing = crate::sync::beside_timing();
        let mut pacer = Pacer::new(Duration::ZERO);
        for i in 0..1000u32 {
            pacer.restart();
            // 0–200 µs, every length in turn.
            pacer.advance((i * 37 % 201) * US);
            pacer.wait();
            let now = Instant::now();
            assert!(now >= pacer.deadline, "wait {i} returned early");
        }
    }

    #[test]
    fn advance_keeps_a_deadline_within_the_bound_and_restarts_one_behind_it() {
        let bound = 200 * US;
        let period = 30 * US;
        let start = Instant::now();
        let mut pacer = Pacer {
            deadline: start,
            catch_up: bound,
            spin_until: start,
            lost_last: false,
        };
        // 150 µs late: made up, the deadline moves on from itself.
        pacer.advance_from(start + 150 * US, period);
        assert_eq!(pacer.deadline, start + period);
        // On time: the same.
        let due = pacer.deadline;
        pacer.advance_from(due, period);
        assert_eq!(pacer.deadline, due + period);
        // 1 ms late: only the bound is made up.
        let now = pacer.deadline + 1000 * US;
        pacer.advance_from(now, period);
        assert_eq!(pacer.deadline, now - bound + period);
        // Early: the deadline is kept, never pulled back to now.
        let due = pacer.deadline;
        pacer.advance_from(due - 500 * US, period);
        assert_eq!(pacer.deadline, due + period);
    }

    fn median(mut late: Vec<Duration>) -> Duration {
        late.sort_unstable();
        late[late.len() / 2]
    }

    /// The median lateness of 200 pacer waits of 30 µs and of 200 plain
    /// sleeps of 30 µs, taken in turn so that both see the same load.
    fn late_paced_and_slept() -> (Duration, Duration) {
        let wait = 30 * US;
        let mut pacer = Pacer::new(Duration::ZERO);
        let (mut paced, mut slept) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            pacer.restart();
            pacer.advance(wait);
            pacer.wait();
            paced.push(pacer.deadline.elapsed());
            let asleep = Instant::now();
            thread::sleep(wait);
            slept.push(asleep.elapsed().saturating_sub(wait));
        }
        (median(paced), median(slept))
    }

    /// A host whose sleeps overshoot by 20 µs or less has no timer slack
    /// to win back, and asserts nothing.
    fn assert_paced_beats_slept((paced, slept): (Duration, Duration)) {
        if slept > 20 * US {
            assert!(paced < slept / 2, "late by {paced:?}, a sleep by {slept:?}");
        }
    }

    #[test]
    fn wait_is_later_than_its_deadline_by_less_than_half_of_what_a_sleep_is() {
        let _alone = crate::sync::timing_alone();
        assert_paced_beats_slept(late_paced_and_slept());
    }

    /// With a thread that never blocks on every core, a yield gives the
    /// core away for a whole scheduler slice; after two such yields the
    /// pacer spins instead and keeps its deadlines.
    #[test]
    fn wait_keeps_its_deadline_beside_threads_that_never_block() {
        let _alone = crate::sync::timing_alone();
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        let cores = thread::available_parallelism().map_or(2, |n| n.get().min(8));
        let stop = AtomicBool::new(false);
        let late = thread::scope(|scope| {
            for _ in 0..cores {
                scope.spawn(|| {
                    while !stop.load(Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            let late = late_paced_and_slept();
            stop.store(true, Relaxed);
            late
        });
        assert_paced_beats_slept(late);
    }
}
