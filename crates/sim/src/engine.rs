//! The discrete-event simulation engine.
//!
//! The engine owns a priority queue of `(time, sequence, event)` entries and
//! repeatedly delivers the earliest event to a user-supplied [`World`].
//! Events scheduled at the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotonically increasing sequence
//! number), which makes simulations fully deterministic.
//!
//! The design is deliberately minimal: the engine knows nothing about LLM
//! serving. Higher layers (replicas, balancers, clients) define an event
//! enum and implement [`World::handle`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// A simulation world: owns all mutable state and reacts to events.
///
/// The engine calls [`World::handle`] for every delivered event; the handler
/// may schedule further events through the [`Scheduler`].
pub trait World {
    /// The event type delivered to this world.
    type Event;

    /// Handles one event occurring at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Interface handed to event handlers for scheduling future events.
///
/// Scheduling is append-only during a handler invocation; the engine drains
/// the buffer into its heap after the handler returns. This avoids exposing
/// the heap (and any iteration-order subtleties) to user code.
pub struct Scheduler<E> {
    now: SimTime,
    buffered: Vec<(SimTime, E)>,
    stop_requested: bool,
}

impl<E> Scheduler<E> {
    /// `buffered` is handed in by the engine so its capacity can be
    /// recycled across handler invocations.
    fn with_buffer(now: SimTime, buffered: Vec<(SimTime, E)>) -> Self {
        debug_assert!(buffered.is_empty());
        Scheduler {
            now,
            buffered,
            stop_requested: false,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.buffered.push((self.now + delay, event));
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// Instants in the past are clamped to the current time, so the event is
    /// delivered next (never retroactively).
    pub fn at(&mut self, at: SimTime, event: E) {
        let t = if at < self.now { self.now } else { at };
        self.buffered.push((t, event));
    }

    /// Requests that the engine stop after the current handler returns,
    /// leaving any remaining events undelivered.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first with
        // FIFO tie-breaking on the sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Statistics about a finished (or paused) simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of events delivered.
    pub delivered: u64,
    /// Virtual time of the last delivered event.
    pub end_time: SimTime,
    /// True if the run ended because a handler called [`Scheduler::stop`].
    pub stopped_early: bool,
}

/// The discrete-event engine.
///
/// # Examples
///
/// ```
/// use skywalker_sim::{Engine, Scheduler, SimDuration, SimTime, World};
///
/// struct Counter(u64);
///
/// impl World for Counter {
///     type Event = ();
///
///     fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
///         self.0 += 1;
///         if self.0 < 10 {
///             sched.after(SimDuration::from_millis(1), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, ());
/// let mut world = Counter(0);
/// let stats = engine.run(&mut world);
/// assert_eq!(world.0, 10);
/// assert_eq!(stats.delivered, 10);
/// assert_eq!(stats.end_time, SimTime::from_millis(9));
/// ```
pub struct Engine<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Same-instant run of entries drained from the heap in one go, kept
    /// sorted by sequence number. Dense instants (dispatch storms, batch
    /// completions fanning out) deliver from here without touching the
    /// heap, and handler-scheduled events at the current instant append
    /// here directly — their sequence numbers are strictly larger than
    /// anything already drained, so FIFO order is preserved by
    /// construction.
    batch: VecDeque<Entry<E>>,
    /// Recycled `Scheduler` buffer: handlers append into this vec, the
    /// engine drains it and keeps the capacity for the next handler.
    scratch: Vec<(SimTime, E)>,
    now: SimTime,
    seq: u64,
    delivered: u64,
    peak_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            batch: VecDeque::new(),
            scratch: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            peak_pending: 0,
        }
    }

    /// The current virtual time (time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.batch.len()
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// High-water mark of the pending-event count, observed just before
    /// each delivery (so the event being delivered counts). Capacity
    /// planning for paper-scale populations keys off this.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules an event at an absolute instant before the run starts (or
    /// between runs). Instants before the current time are clamped.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = if at < self.now { self.now } else { at };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Runs until the event queue is empty or a handler requests a stop.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> RunStats {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until the queue empties, a handler requests a stop, or the next
    /// event would fire strictly after `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are delivered. On return the
    /// engine clock is the time of the last delivered event (it does not
    /// jump to `deadline`), so interleaved `run_until` calls remain exact.
    pub fn run_until<W: World<Event = E>>(&mut self, world: &mut W, deadline: SimTime) -> RunStats {
        let mut stopped_early = false;
        loop {
            if self.batch.is_empty() {
                // Refill: drain the entire run of earliest-instant entries
                // out of the heap at once. The heap pops equal-time entries
                // in sequence order, so the batch is FIFO by construction.
                let Some(head) = self.heap.peek() else { break };
                if head.at > deadline {
                    break;
                }
                let first = self.heap.pop().expect("peeked entry must exist");
                let instant = first.at;
                self.batch.push_back(first);
                while self.heap.peek().is_some_and(|e| e.at == instant) {
                    let e = self.heap.pop().expect("peeked entry must exist");
                    self.batch.push_back(e);
                }
            }
            let depth = self.heap.len() + self.batch.len();
            if depth > self.peak_pending {
                self.peak_pending = depth;
            }
            let entry = self.batch.pop_front().expect("batch refilled above");
            debug_assert!(entry.at >= self.now, "event queue went backwards");
            self.now = entry.at;
            self.delivered += 1;

            let mut sched = Scheduler::with_buffer(self.now, std::mem::take(&mut self.scratch));
            world.handle(self.now, entry.event, &mut sched);
            let mut buffered = sched.buffered;
            for (at, event) in buffered.drain(..) {
                let seq = self.seq;
                self.seq += 1;
                if at == self.now {
                    // Same-instant follow-up: joins the tail of the live
                    // batch (its seq exceeds every drained entry's).
                    self.batch.push_back(Entry { at, seq, event });
                } else {
                    self.heap.push(Entry { at, seq, event });
                }
            }
            self.scratch = buffered;
            if sched.stop_requested {
                // Undelivered batch entries go back to the heap so
                // `pending()` stays truthful and a resumed run picks them
                // up first (their seqs still order them correctly).
                while let Some(e) = self.batch.pop_front() {
                    self.heap.push(e);
                }
                stopped_early = true;
                break;
            }
        }
        RunStats {
            delivered: self.delivered,
            end_time: self.now,
            stopped_early,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Tag(u32),
        Chain(u32),
        StopNow,
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, Ev)>,
    }

    impl World for Recorder {
        type Event = Ev;

        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            self.seen.push((now.as_micros(), ev.clone()));
            match ev {
                Ev::Chain(n) if n > 0 => {
                    sched.after(SimDuration::from_micros(10), Ev::Chain(n - 1));
                }
                Ev::StopNow => sched.stop(),
                _ => {}
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(30), Ev::Tag(3));
        engine.schedule(SimTime::from_micros(10), Ev::Tag(1));
        engine.schedule(SimTime::from_micros(20), Ev::Tag(2));
        let mut w = Recorder::default();
        engine.run(&mut w);
        let order: Vec<u64> = w.seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_fifo() {
        let mut engine = Engine::new();
        for i in 0..100 {
            engine.schedule(SimTime::from_micros(5), Ev::Tag(i));
        }
        let mut w = Recorder::default();
        engine.run(&mut w);
        let tags: Vec<u32> = w
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Tag(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, Ev::Chain(5));
        let mut w = Recorder::default();
        let stats = engine.run(&mut w);
        assert_eq!(stats.delivered, 6);
        assert_eq!(stats.end_time, SimTime::from_micros(50));
        assert!(!stats.stopped_early);
    }

    #[test]
    fn stop_leaves_queue() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(1), Ev::StopNow);
        engine.schedule(SimTime::from_micros(2), Ev::Tag(9));
        let mut w = Recorder::default();
        let stats = engine.run(&mut w);
        assert!(stats.stopped_early);
        assert_eq!(w.seen.len(), 1);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(10), Ev::Tag(1));
        engine.schedule(SimTime::from_micros(20), Ev::Tag(2));
        engine.schedule(SimTime::from_micros(21), Ev::Tag(3));
        let mut w = Recorder::default();
        engine.run_until(&mut w, SimTime::from_micros(20));
        assert_eq!(w.seen.len(), 2);
        // Resume picks up the rest.
        engine.run(&mut w);
        assert_eq!(w.seen.len(), 3);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(100), Ev::Tag(1));
        let mut w = Recorder::default();
        engine.run(&mut w);
        assert_eq!(engine.now(), SimTime::from_micros(100));
        engine.schedule(SimTime::from_micros(5), Ev::Tag(2));
        engine.run(&mut w);
        assert_eq!(w.seen.last().unwrap().0, 100);
    }

    #[test]
    fn scheduler_at_clamps_past() {
        struct W2;
        impl World for W2 {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                if ev == 0 {
                    // Deliberately schedule in the past; must clamp.
                    sched.at(now - SimDuration::from_secs(1), 1);
                }
            }
        }
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_secs(10), 0u32);
        let stats = engine.run(&mut W2);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.end_time, SimTime::from_secs(10));
    }

    #[test]
    fn same_instant_followups_deliver_fifo_after_batch() {
        // A handler that schedules at the current instant: its event must
        // come after every event already scheduled at that instant,
        // exactly as the one-at-a-time heap loop delivered them.
        struct Log(std::rc::Rc<std::cell::RefCell<Vec<u32>>>);
        impl World for Log {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.0.borrow_mut().push(ev);
                if ev == 0 {
                    // Fires at the same instant: must land *after* 1 and 2.
                    sched.after(SimDuration::ZERO, 100);
                }
            }
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut engine = Engine::new();
        for tag in [0u32, 1, 2] {
            engine.schedule(SimTime::from_micros(5), tag);
        }
        engine.run(&mut Log(seen.clone()));
        assert_eq!(*seen.borrow(), vec![0, 1, 2, 100]);
    }

    #[test]
    fn stop_mid_batch_returns_remnants_to_queue() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(1), Ev::StopNow);
        engine.schedule(SimTime::from_micros(1), Ev::Tag(7));
        engine.schedule(SimTime::from_micros(1), Ev::Tag(8));
        let mut w = Recorder::default();
        let stats = engine.run(&mut w);
        assert!(stats.stopped_early);
        assert_eq!(w.seen.len(), 1);
        assert_eq!(
            engine.pending(),
            2,
            "undelivered same-instant events survive"
        );
        // Resume delivers the remnants in their original order.
        engine.run(&mut w);
        let tags: Vec<&Ev> = w.seen.iter().map(|(_, e)| e).collect();
        assert_eq!(tags, vec![&Ev::StopNow, &Ev::Tag(7), &Ev::Tag(8)]);
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule(SimTime::from_micros(i), Ev::Tag(i as u32));
        }
        let mut w = Recorder::default();
        engine.run(&mut w);
        assert_eq!(engine.peak_pending(), 10);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn determinism_same_ordering_across_runs() {
        fn trace() -> Vec<(u64, Ev)> {
            let mut engine = Engine::new();
            for i in 0..50 {
                engine.schedule(SimTime::from_micros((i * 7) % 13), Ev::Tag(i as u32));
            }
            let mut w = Recorder::default();
            engine.run(&mut w);
            w.seen
        }
        assert_eq!(trace(), trace());
    }
}
