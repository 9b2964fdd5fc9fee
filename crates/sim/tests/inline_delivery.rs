//! Running a follow-up inline while [`Scheduler::runs_next_now`] holds
//! delivers the same run as scheduling it.
//!
//! Each case plays one random world twice. Its handlers schedule
//! follow-ups at the current instant and later (with ties), request stops,
//! and are driven through `run_until` deadlines. One copy runs a
//! handler's last follow-up inline whenever the query allows it; the other
//! always queues it. Both must log the same `(time, tag)` deliveries and
//! report the same pending count and clock after every return, stops
//! included; the inlining copy delivers exactly one event fewer per
//! follow-up it ran inline.
//!
//! The queued copy also referees the queue's order without sharing its
//! code: it records every `(time, tag)` it schedules, in call order, and
//! its delivery log must equal that record stably sorted by time.
//!
//! Two families of worlds: shallow ones, which hold tens of pending
//! events, and deep ones, which start with over a thousand and keep
//! their queue that deep while thousands more pass through it — deep
//! sift paths, and slots vacated and refilled across stops and
//! deadlines.

use skywalker_sim::{DetRng, Engine, Scheduler, SimDuration, SimTime, World};

/// How big a family's worlds are.
#[derive(Clone, Copy)]
struct Shape {
    /// Events scheduled before the run: `first.0 ..= first.1`.
    first: (u64, u64),
    /// Instants, 5 µs apart, that the first events and the follow-ups
    /// spread over.
    steps: u64,
    /// Follow-ups an event schedules besides its last one:
    /// `0 .. spawn`.
    spawn: u64,
    /// Tags handed out per case; past this, handlers stop spawning
    /// events so that each world drains.
    budget: u32,
}

const SHALLOW: Shape = Shape {
    first: (1, 5),
    steps: 3,
    spawn: 3,
    budget: 600,
};

const DEEP: Shape = Shape {
    first: (1_000, 1_500),
    steps: 40,
    spawn: 2,
    budget: 12_000,
};

struct RandomWorld {
    /// Run a last follow-up inline when the query allows it.
    inline: bool,
    shape: Shape,
    seed: u64,
    next_tag: u32,
    log: Vec<(u64, u32)>,
    /// Every `(time, tag)` scheduled, in call order.
    scheduled: Vec<(u64, u32)>,
    inlined: u64,
}

impl RandomWorld {
    fn new(shape: Shape, seed: u64, inline: bool, scheduled: Vec<(u64, u32)>) -> Self {
        RandomWorld {
            inline,
            shape,
            seed,
            next_tag: scheduled.len() as u32,
            log: Vec::new(),
            scheduled,
            inlined: 0,
        }
    }

    fn schedule(&mut self, sched: &mut Scheduler<u32>, delay: SimDuration, tag: u32) {
        self.scheduled
            .push(((sched.now() + delay).as_micros(), tag));
        sched.after(delay, tag);
    }

    fn fresh_tag(&mut self) -> u32 {
        self.next_tag += 1;
        self.next_tag
    }

    /// One event's work. Its choices depend on the case seed and the tag
    /// only, so both copies make the same ones whatever delivered it.
    fn deliver(&mut self, now: SimTime, tag: u32, sched: &mut Scheduler<u32>) {
        self.log.push((now.as_micros(), tag));
        if self.next_tag >= self.shape.budget {
            return;
        }
        let mut rng = DetRng::new(self.seed ^ u64::from(tag).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..rng.below(self.shape.spawn) {
            // 0, 5, 10, … µs ahead: same-instant follow-ups and ties.
            let delay = SimDuration::from_micros(5 * rng.below(self.shape.steps));
            let t = self.fresh_tag();
            self.schedule(sched, delay, t);
        }
        if rng.chance(0.03) {
            sched.stop();
        }
        if rng.chance(0.6) {
            let t = self.fresh_tag();
            if self.inline && sched.runs_next_now() {
                self.inlined += 1;
                self.deliver(now, t, sched);
            } else {
                self.schedule(sched, SimDuration::ZERO, t);
            }
        }
    }
}

impl World for RandomWorld {
    type Event = u32;

    fn handle(&mut self, now: SimTime, tag: u32, sched: &mut Scheduler<u32>) {
        self.deliver(now, tag, sched);
    }
}

/// After each return from `run_until`: the clock, the pending count, and
/// whether the run stopped early.
type Checkpoint = (SimTime, usize, bool);

/// What one play leaves: the world, its checkpoints, and the engine's
/// delivered and peak pending counts.
type Played = (RandomWorld, Vec<Checkpoint>, u64, usize);

fn play(shape: Shape, case: u64, inline: bool) -> Played {
    let mut rng = DetRng::for_component(case, "sim/inline-delivery");
    let first = rng.range(shape.first.0, shape.first.1 + 1) as u32;
    let mut engine = Engine::new();
    let mut scheduled = Vec::new();
    for tag in 1..=first {
        let at = SimTime::from_micros(5 * rng.below(shape.steps));
        scheduled.push((at.as_micros(), tag));
        engine.schedule(at, tag);
    }
    let mut world = RandomWorld::new(shape, case, inline, scheduled);
    let mut deadline = SimTime::ZERO;
    let mut checkpoints = Vec::new();
    while engine.pending() > 0 {
        deadline += SimDuration::from_micros(rng.below(12));
        let stats = engine.run_until(&mut world, deadline);
        checkpoints.push((engine.now(), engine.pending(), stats.stopped_early));
    }
    (
        world,
        checkpoints,
        engine.delivered(),
        engine.peak_pending(),
    )
}

/// Plays `cases` worlds of `shape` inline and queued, checks that both
/// deliver the same run in the stable-sort order, and returns the
/// follow-ups run inline, the stops, and the lowest and highest peak
/// pending counts.
fn referee(shape: Shape, cases: std::ops::Range<u64>) -> (u64, usize, (usize, usize)) {
    let (mut inlined, mut stops, mut peaks) = (0, 0, (usize::MAX, 0));
    for case in cases {
        let (queued, queued_marks, queued_delivered, peak) = play(shape, case, false);
        let (inline, inline_marks, inline_delivered, _) = play(shape, case, true);
        assert_eq!(inline.log, queued.log, "case {case}: delivery log");
        assert_eq!(inline_marks, queued_marks, "case {case}: checkpoints");
        assert_eq!(queued.inlined, 0);
        let mut order = queued.scheduled.clone();
        order.sort_by_key(|&(at, _)| at);
        assert_eq!(
            queued.log, order,
            "case {case}: delivery order is not a stable sort of what was scheduled"
        );
        assert_eq!(
            inline_delivered + inline.inlined,
            queued_delivered,
            "case {case}: one delivery saved per inline follow-up"
        );
        inlined += inline.inlined;
        stops += queued_marks.iter().filter(|m| m.2).count();
        peaks = (peaks.0.min(peak), peaks.1.max(peak));
    }
    (inlined, stops, peaks)
}

#[test]
fn inline_follow_ups_deliver_the_same_run_as_queued_ones() {
    let (inlined, stops, _) = referee(SHALLOW, 0..200);
    // The referee is not vacuous: both paths it compares were taken.
    assert!(inlined > 500, "only {inlined} follow-ups ran inline");
    assert!(stops > 50, "only {stops} stops");
}

#[test]
fn a_deep_queue_delivers_in_order_while_its_slots_recycle() {
    let (inlined, stops, (shallowest, deepest)) = referee(DEEP, 0..12);
    // Every case held over a thousand events at once, and several times
    // its deepest point passed through the queue, across stops and
    // deadlines: each slot was vacated and refilled.
    assert!(shallowest >= 1_000, "a case peaked at {shallowest} pending");
    assert!(
        DEEP.budget as usize > 4 * deepest,
        "a case peaked at {deepest} pending of {} events",
        DEEP.budget
    );
    assert!(inlined > 300, "only {inlined} follow-ups ran inline");
    assert!(stops > 1_000, "only {stops} stops");
}
