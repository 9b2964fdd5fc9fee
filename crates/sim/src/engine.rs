//! The discrete-event simulation engine.
//!
//! The engine keeps one priority queue of pending events ordered by
//! `(time, sequence)` and repeatedly delivers the earliest event to a
//! user-supplied [`World`]. Events scheduled at the same instant are
//! delivered in the order they were scheduled (FIFO tie-breaking via a
//! sequence number drawn when the event is scheduled), which makes
//! simulations fully deterministic. Handlers schedule straight into that
//! queue through the [`Scheduler`].
//!
//! The design is deliberately minimal: the engine knows nothing about LLM
//! serving. Higher layers (replicas, balancers, clients) define an event
//! enum and implement [`World::handle`].
//!
//! # Keys and slots
//!
//! The queue is a binary heap of 16-byte keys; the events themselves wait
//! in a slab of slots, so a sift moves keys and never a payload. A key is
//! the event's instant plus one word: the sequence number in its high 40
//! bits and the event's slot in its low 24. Comparing that word compares
//! the sequence number, which is unique, so the order is `(time,
//! sequence)` exactly and the slot never decides it. Two limits follow,
//! and scheduling checks each with a panic that names it: at most 2⁴⁰
//! events scheduled over an engine's life, and at most 2²⁴ pending at
//! once. A vacant slot holds the next vacant one, so the free list costs
//! no memory beside the slab; for an event enum with a spare
//! discriminant a slot is no larger than the event, and keys plus slab
//! hold what one `(time, sequence, event)` entry did.
//!
//! # Alone at its instant
//!
//! Two shortcuts below rest on one test: once the event being delivered
//! has left the queue, nothing left in it is due at `now`. The engine makes
//! it before re-arming an event, and [`Scheduler::runs_next_now`] makes it
//! (plus "no stop requested") for a handler. An event the handler
//! scheduled at `now` is in the queue too, so the same test covers it.
//!
//! # Inline delivery
//!
//! A handler whose last action is a follow-up at the current instant may
//! run that follow-up itself instead of scheduling it, when
//! [`Scheduler::runs_next_now`] says the engine would deliver it next
//! anyway: nothing is pending at this instant and no stop was requested.
//! Delivered that way or queued, the follow-up sees the same world at the
//! same instant and every event after it keeps its place; only the
//! sequence numbers of later events shift down by one, and they only ever
//! order events among themselves. The run delivers one event fewer
//! ([`Engine::delivered`]) and is otherwise the same run.
//!
//! # Re-armed events
//!
//! One step further: an event whose whole effect is to schedule itself
//! again, `d` later, need not be handed to [`World::handle`] at all. For
//! an event alone at its instant the engine first asks
//! [`World::rearm`]; `Some(d)` means the world has applied the event and
//! that its only follow-up is the same event at `now + d`. The engine
//! counts the event delivered and pushes a new key for it at `now + d`
//! with the sequence number `sched.after(d, event)` would have drawn —
//! the next one — while the event stays in its slot. Every event keeps
//! the `(time, seq)` it would have had, and the run is the same run
//! ([`Engine::rearmed`] counts these). Asking only
//! when the event is alone at its instant is what makes that exact: the
//! handler's follow-up would be the only event it scheduled, and no other
//! event at this instant can see the world between the two. No handler
//! runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A simulation world: owns all mutable state and reacts to events.
///
/// The engine calls [`World::handle`] for every delivered event; the handler
/// may schedule further events through the [`Scheduler`].
pub trait World {
    /// The event type delivered to this world.
    type Event;

    /// Handles one event occurring at virtual time `now`. Events the
    /// handler schedules through `sched` join the engine's queue at once.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Offered an event that is alone at its instant before it is
    /// handled: a world that can tell that handling it would do nothing
    /// but schedule the same event again `d` later may apply the event
    /// itself and return `Some(d)`; the engine then re-queues the event at
    /// `now + d` in the place `handle` + [`Scheduler::after`] would have
    /// given it (see the module docs). `None` — the default — means the
    /// world changed nothing and the event goes to
    /// [`World::handle`] as usual.
    fn rearm(&mut self, _now: SimTime, _event: &Self::Event) -> Option<SimDuration> {
        None
    }
}

/// Interface handed to event handlers for scheduling future events.
///
/// It borrows the engine's queue: [`Scheduler::after`] and
/// [`Scheduler::at`] draw the next sequence number and push, so events
/// scheduled at one instant are delivered in call order. A handler cannot
/// see or reorder what is queued; the one thing it may do besides
/// scheduling is run a follow-up inline while [`Scheduler::runs_next_now`]
/// holds (see the module docs), and that follow-up schedules in the order
/// it would have as an event of its own.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut Queue<E>,
    stop_requested: bool,
}

impl<E> Scheduler<'_, E> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True when an event scheduled at the current instant would be the
    /// next one delivered: nothing is pending at this instant (this
    /// invocation's own events included) and no stop was requested. A
    /// handler may then run that event's work inline instead of
    /// scheduling it, and the run delivers everything else in the same
    /// order.
    pub fn runs_next_now(&self) -> bool {
        !self.stop_requested && self.queue.alone_at(self.now)
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// Instants in the past are clamped to the current time, so the event is
    /// delivered next (never retroactively).
    pub fn at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Requests that the engine stop after the current handler returns,
    /// leaving any remaining events undelivered.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// Bits of a key's word that hold the event's slot.
const SLOT_BITS: u32 = 24;
/// Bits of a key's word that hold the sequence number.
const SEQ_BITS: u32 = u64::BITS - SLOT_BITS;
/// The free list's end: no slot has this index, since slots fit 24 bits.
const NO_SLOT: u32 = u32::MAX;

/// A pending event's place in the order: its instant, then its sequence
/// number (high [`SEQ_BITS`]) and slot (low [`SLOT_BITS`]) in one word.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    word: u64,
}

impl Key {
    fn slot(self) -> usize {
        (self.word & ((1 << SLOT_BITS) - 1)) as usize
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first with
        // FIFO tie-breaking on the sequence number.
        (other.at, other.word).cmp(&(self.at, self.word))
    }
}

/// A slab slot: a pending event, or the next vacant slot (`NO_SLOT` at
/// the list's end).
enum Slot<E> {
    Full(E),
    Free(u32),
}

/// The pending events: a heap of keys over a slab of slots.
struct Queue<E> {
    keys: BinaryHeap<Key>,
    slots: Vec<Slot<E>>,
    /// The most recently vacated slot, or `NO_SLOT`.
    free: u32,
    /// The sequence number the next key gets.
    seq: u64,
}

impl<E> Queue<E> {
    fn new() -> Self {
        Queue {
            keys: BinaryHeap::new(),
            slots: Vec::new(),
            free: NO_SLOT,
            seq: 0,
        }
    }

    /// Queues `event` at `at` with the next sequence number.
    ///
    /// Panics if more than 2²⁴ events would be pending at once.
    fn push(&mut self, at: SimTime, event: E) {
        let slot = if self.free == NO_SLOT {
            let slot = self.slots.len();
            assert!(
                slot < 1 << SLOT_BITS,
                "invariant: pending event {slot} does not fit a {SLOT_BITS}-bit slot"
            );
            self.slots.push(Slot::Full(event));
            slot
        } else {
            let slot = self.free as usize;
            match std::mem::replace(&mut self.slots[slot], Slot::Full(event)) {
                Slot::Free(next) => self.free = next,
                Slot::Full(_) => unreachable!("the free list names a full slot"),
            }
            slot
        };
        self.push_key(at, slot);
    }

    /// Queues the event already in `slot` at `at` with the next sequence
    /// number.
    ///
    /// Panics once 2⁴⁰ sequence numbers have been drawn.
    fn push_key(&mut self, at: SimTime, slot: usize) {
        let seq = self.seq;
        assert!(
            seq < 1 << SEQ_BITS,
            "invariant: sequence number {seq} does not fit {SEQ_BITS} bits"
        );
        self.seq += 1;
        self.keys.push(Key {
            at,
            word: seq << SLOT_BITS | slot as u64,
        });
    }

    /// The event waiting in `slot`.
    fn event(&self, slot: usize) -> &E {
        match &self.slots[slot] {
            Slot::Full(event) => event,
            Slot::Free(_) => unreachable!("a queued key names a vacant slot"),
        }
    }

    /// Moves the event out of `slot` and puts the slot on the free list.
    fn take(&mut self, slot: usize) -> E {
        match std::mem::replace(&mut self.slots[slot], Slot::Free(self.free)) {
            Slot::Full(event) => {
                self.free = slot as u32;
                event
            }
            Slot::Free(_) => unreachable!("a queued key names a vacant slot"),
        }
    }

    /// True when nothing queued is due at `now` — for the event just taken
    /// off the queue, that it is alone at its instant.
    fn alone_at(&self, now: SimTime) -> bool {
        self.keys.peek().is_none_or(|k| k.at > now)
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
    queue: Queue<E>,
    now: SimTime,
    delivered: u64,
    rearmed: u64,
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
            queue: Queue::new(),
            now: SimTime::ZERO,
            delivered: 0,
            rearmed: 0,
            peak_pending: 0,
        }
    }

    /// The current virtual time (time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.keys.len()
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Of the events delivered, those the world re-armed
    /// ([`World::rearm`]) instead of handling.
    pub fn rearmed(&self) -> u64 {
        self.rearmed
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
        self.queue.push(at.max(self.now), event);
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
    /// A stop leaves every undelivered event queued, in order.
    pub fn run_until<W: World<Event = E>>(&mut self, world: &mut W, deadline: SimTime) -> RunStats {
        let mut stopped_early = false;
        while self.queue.keys.peek().is_some_and(|k| k.at <= deadline) {
            self.peak_pending = self.peak_pending.max(self.queue.keys.len());
            let key = self.queue.keys.pop().expect("peeked key must exist");
            debug_assert!(key.at >= self.now, "event queue went backwards");
            self.now = key.at;
            self.delivered += 1;

            if self.queue.alone_at(self.now) {
                if let Some(d) = world.rearm(self.now, self.queue.event(key.slot())) {
                    // Keyed where `sched.after(d, event)` would have put it.
                    self.queue.push_key(self.now + d, key.slot());
                    self.rearmed += 1;
                    continue;
                }
            }

            let event = self.queue.take(key.slot());
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                stop_requested: false,
            };
            world.handle(self.now, event, &mut sched);
            if sched.stop_requested {
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
    fn same_instant_followups_deliver_after_events_already_pending() {
        // A handler that schedules at the current instant: its event must
        // come after every event already scheduled at that instant.
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
    fn stop_leaves_same_instant_events_queued_in_order() {
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

    /// Records, for every delivery, whether a follow-up at `now` would
    /// run next — after the handler's own scheduling, as a handler's
    /// last action sees it.
    struct Probe {
        seen: Vec<(u32, bool)>,
    }

    impl World for Probe {
        type Event = u32;

        fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            match ev {
                // Schedules later only: the query stays true.
                10 => sched.after(SimDuration::from_micros(1), 99),
                // Schedules at the current instant first.
                20 => sched.after(SimDuration::ZERO, 99),
                // Clamped into the current instant.
                21 => sched.at(SimTime::ZERO, 99),
                30 => sched.stop(),
                _ => {}
            }
            self.seen.push((ev, sched.runs_next_now()));
        }
    }

    fn probe(events: &[(u64, u32)]) -> Vec<(u32, bool)> {
        let mut engine = Engine::new();
        for &(at, ev) in events {
            engine.schedule(SimTime::from_micros(at), ev);
        }
        let mut w = Probe { seen: Vec::new() };
        engine.run(&mut w);
        w.seen
    }

    #[test]
    fn runs_next_now_when_alone_at_the_instant() {
        // Later events do not count: only the current instant does.
        assert_eq!(probe(&[(5, 1), (6, 2)]), [(1, true), (2, true)]);
        assert_eq!(probe(&[(5, 10)]), [(10, true), (99, true)]);
    }

    #[test]
    fn not_next_while_another_event_is_pending_at_the_instant() {
        // The first of two same-instant events is not alone; the second
        // is, once the first has been delivered.
        assert_eq!(probe(&[(5, 1), (5, 2)]), [(1, false), (2, true)]);
    }

    #[test]
    fn not_next_once_the_handler_scheduled_at_the_instant() {
        assert_eq!(probe(&[(5, 20)]), [(20, false), (99, true)]);
        assert_eq!(probe(&[(5, 21)]), [(21, false), (99, true)]);
    }

    #[test]
    fn not_next_after_a_stop_request() {
        assert_eq!(probe(&[(5, 30), (6, 1)]), [(30, false)]);
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
    fn a_slot_is_no_larger_than_an_event_with_a_spare_discriminant() {
        // The fabric's event shape: 64 bytes, a tag with values to spare.
        #[allow(dead_code)]
        enum Wide {
            Big([u64; 7]),
            Small(u32),
            Unit,
        }
        assert_eq!(size_of::<Wide>(), 64);
        assert!(size_of::<Slot<Wide>>() <= size_of::<Wide>());
        assert!(size_of::<Slot<Ev>>() <= size_of::<Ev>());
        // So a key and a slot hold what a `(time, seq, event)` entry did.
        assert_eq!(size_of::<Key>(), 16);
    }

    /// Schedules 0–2 follow-ups 0–40 µs ahead and stops now and then,
    /// until `left` runs out; the choices hang off the tag alone.
    struct Churn {
        left: u32,
    }

    impl World for Churn {
        type Event = u32;

        fn handle(&mut self, _now: SimTime, tag: u32, sched: &mut Scheduler<u32>) {
            let mix = u64::from(tag).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
            for k in 0..mix % 3 {
                if self.left == 0 {
                    break;
                }
                self.left -= 1;
                let delay = SimDuration::from_micros((mix >> (4 + 4 * k)) % 41);
                sched.after(delay, tag.wrapping_mul(31).wrapping_add(k as u32));
            }
            if mix % 29 == 0 {
                sched.stop();
            }
        }
    }

    #[test]
    fn the_slab_never_holds_more_slots_than_peak_pending() {
        let mut engine = Engine::new();
        for tag in 0..1_200u32 {
            engine.schedule(SimTime::from_micros(u64::from(tag % 50)), tag);
        }
        let mut world = Churn { left: 6_000 };
        let mut deadline = SimTime::ZERO;
        while engine.pending() > 0 {
            deadline += SimDuration::from_micros(7);
            engine.run_until(&mut world, deadline);
            let slots = engine.queue.slots.len();
            assert!(slots <= engine.peak_pending().max(engine.pending()));
        }
        // Every slot was filled more than once, and the slab is exactly
        // as long as the queue ever was.
        assert!(engine.delivered() > 3 * engine.peak_pending() as u64);
        assert_eq!(engine.queue.slots.len(), engine.peak_pending());
    }

    #[test]
    fn the_last_sequence_numbers_keep_their_order() {
        let mut engine = Engine::new();
        engine.queue.seq = (1 << SEQ_BITS) - 2;
        engine.schedule(SimTime::from_micros(5), Ev::Tag(1));
        engine.schedule(SimTime::from_micros(5), Ev::Tag(2));
        let mut w = Recorder::default();
        engine.run(&mut w);
        assert_eq!(w.seen, [(5, Ev::Tag(1)), (5, Ev::Tag(2))]);
    }

    #[test]
    #[should_panic(expected = "does not fit 40 bits")]
    fn a_sequence_number_past_40_bits_panics() {
        let mut engine = Engine::new();
        engine.queue.seq = 1 << SEQ_BITS;
        engine.schedule(SimTime::ZERO, Ev::Tag(0));
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
