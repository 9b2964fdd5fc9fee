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

use skywalker_sim::{DetRng, Engine, Scheduler, SimDuration, SimTime, World};

/// Tags handed out per case; past this, handlers stop spawning events so
/// that each world drains.
const TAG_BUDGET: u32 = 600;

struct RandomWorld {
    /// Run a last follow-up inline when the query allows it.
    inline: bool,
    seed: u64,
    next_tag: u32,
    log: Vec<(u64, u32)>,
    /// Every `(time, tag)` scheduled, in call order.
    scheduled: Vec<(u64, u32)>,
    inlined: u64,
}

impl RandomWorld {
    fn new(seed: u64, inline: bool, scheduled: Vec<(u64, u32)>) -> Self {
        RandomWorld {
            inline,
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
        if self.next_tag >= TAG_BUDGET {
            return;
        }
        let mut rng = DetRng::new(self.seed ^ u64::from(tag).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..rng.below(3) {
            // 0, 5 or 10 µs ahead: same-instant follow-ups and ties.
            let delay = SimDuration::from_micros(5 * rng.below(3));
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

fn play(case: u64, inline: bool) -> (RandomWorld, Vec<Checkpoint>, u64) {
    let mut rng = DetRng::for_component(case, "sim/inline-delivery");
    let first = rng.range(1, 6) as u32;
    let mut engine = Engine::new();
    let mut scheduled = Vec::new();
    for tag in 1..=first {
        let at = SimTime::from_micros(5 * rng.below(3));
        scheduled.push((at.as_micros(), tag));
        engine.schedule(at, tag);
    }
    let mut world = RandomWorld::new(case, inline, scheduled);
    let mut deadline = SimTime::ZERO;
    let mut checkpoints = Vec::new();
    while engine.pending() > 0 {
        deadline += SimDuration::from_micros(rng.below(12));
        let stats = engine.run_until(&mut world, deadline);
        checkpoints.push((engine.now(), engine.pending(), stats.stopped_early));
    }
    let delivered = engine.delivered();
    (world, checkpoints, delivered)
}

#[test]
fn inline_follow_ups_deliver_the_same_run_as_queued_ones() {
    let (mut inlined, mut stops) = (0, 0);
    for case in 0..200u64 {
        let (queued, queued_marks, queued_delivered) = play(case, false);
        let (inline, inline_marks, inline_delivered) = play(case, true);
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
    }
    // The referee is not vacuous: both paths it compares were taken.
    assert!(inlined > 500, "only {inlined} follow-ups ran inline");
    assert!(stops > 50, "only {stops} stops");
}
