//! Re-arming an event through [`World::rearm`] delivers the same run as
//! handling it and scheduling it again.
//!
//! Each case plays one random world twice. Beside one-shot events that
//! schedule follow-ups at the current instant and later (with ties) and
//! request stops, the world runs a few self-rescheduling timers. Most of
//! a timer's deliveries are *plain*: a same-instant `Kick` follow-up, run
//! inline when `Scheduler::runs_next_now` allows it and queued otherwise,
//! schedules the timer again 0 to 15 µs later — the shape of the fabric's
//! `IterationDone` and its `ReplicaKick`. The rest also spawn events or
//! stop the run, or retire the timer. One copy applies each plain
//! delivery in `rearm` (which may only stand for the inline case, so a
//! re-arm offered while another event is pending at the instant shows as
//! a misplaced `Kick`); the other handles every delivery. Both are driven
//! through the same `run_until` deadlines and must log the same
//! `(time, event)` deliveries, deliver as many events, and show the same
//! clock, pending count and peak after every return.

use skywalker_sim::{DetRng, Engine, Scheduler, SimDuration, SimTime, World};

/// Events handed out per case; past this, one-shot events spawn nothing.
const SPAWN_BUDGET: u32 = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A one-shot event.
    Tag(u32),
    /// Timer `.0`; its state lives in the world, so a re-armed timer is
    /// the same event.
    Timer(u32),
    /// A plain timer delivery's follow-up: fires timer `.0` again.
    Kick(u32),
}

struct RandomWorld {
    /// Apply plain timer deliveries in `rearm`.
    rearm: bool,
    seed: u64,
    next_tag: u32,
    /// Deliveries left per timer.
    timers: Vec<u32>,
    log: Vec<(u64, Ev)>,
}

/// What one timer delivery does: `Some(d)` when all it does is fire the
/// timer again `d` later. Depends on the case, the timer and its count
/// only, so both copies decide alike.
fn plain_delay(seed: u64, timer: u32, left: u32) -> Option<SimDuration> {
    if left == 0 {
        return None;
    }
    let mut rng = DetRng::new(seed ^ (u64::from(timer) << 32 | u64::from(left)));
    (!rng.chance(0.15)).then(|| SimDuration::from_micros(5 * rng.below(4)))
}

impl RandomWorld {
    fn new(seed: u64, rearm: bool, timers: Vec<u32>) -> Self {
        RandomWorld {
            rearm,
            seed,
            next_tag: 0,
            timers,
            log: Vec::new(),
        }
    }

    fn rng_for(&self, salt: u64) -> DetRng {
        DetRng::new(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// One-shot work: follow-ups 0, 5 or 10 µs ahead, and maybe a stop.
    fn spawn(&mut self, mut rng: DetRng, sched: &mut Scheduler<Ev>) {
        for _ in 0..rng.below(3) {
            if self.next_tag >= SPAWN_BUDGET {
                break;
            }
            self.next_tag += 1;
            sched.after(
                SimDuration::from_micros(5 * rng.below(3)),
                Ev::Tag(self.next_tag),
            );
        }
        if rng.chance(0.05) {
            sched.stop();
        }
    }

    /// A plain delivery's follow-up: timer `t` again, `d` later.
    fn kick(&mut self, now: SimTime, t: u32, sched: &mut Scheduler<Ev>) {
        self.log.push((now.as_micros(), Ev::Kick(t)));
        let left = &mut self.timers[t as usize];
        let d = plain_delay(self.seed, t, *left).expect("a plain delivery kicks");
        *left -= 1;
        sched.after(d, Ev::Timer(t));
    }
}

impl World for RandomWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.log.push((now.as_micros(), ev));
        match ev {
            Ev::Tag(tag) => self.spawn(self.rng_for(u64::from(tag)), sched),
            Ev::Kick(t) => self.kick(now, t, sched),
            Ev::Timer(t) => {
                let left = &mut self.timers[t as usize];
                match plain_delay(self.seed, t, *left) {
                    Some(_) if sched.runs_next_now() => self.kick(now, t, sched),
                    Some(_) => sched.at(now, Ev::Kick(t)),
                    None if *left > 0 => {
                        // A noisy delivery: work besides the timer's own,
                        // then the timer again.
                        *left -= 1;
                        let salt = u64::from(t) << 40 | u64::from(*left);
                        self.spawn(self.rng_for(salt), sched);
                        sched.after(SimDuration::from_micros(5), ev);
                    }
                    None => {}
                }
            }
        }
    }

    fn rearm(&mut self, now: SimTime, ev: &Ev) -> Option<SimDuration> {
        let Ev::Timer(t) = *ev else { return None };
        if !self.rearm {
            return None;
        }
        let d = plain_delay(self.seed, t, self.timers[t as usize])?;
        self.log.push((now.as_micros(), *ev));
        self.log.push((now.as_micros(), Ev::Kick(t)));
        self.timers[t as usize] -= 1;
        Some(d)
    }
}

/// After each return from `run_until`: the clock, the pending count, the
/// peak, the deliveries so far, and whether the run stopped early.
type Checkpoint = (SimTime, usize, usize, u64, bool);

fn play(case: u64, rearm: bool) -> (Vec<(u64, Ev)>, Vec<Checkpoint>, u64) {
    let mut rng = DetRng::for_component(case, "sim/rearm");
    let mut engine = Engine::new();
    let timers: Vec<u32> = (0..rng.range(1, 5))
        .map(|_| rng.range(5, 80) as u32)
        .collect();
    for t in 0..timers.len() as u32 {
        engine.schedule(SimTime::from_micros(5 * rng.below(3)), Ev::Timer(t));
    }
    for tag in 0..rng.below(4) as u32 {
        engine.schedule(SimTime::from_micros(5 * rng.below(3)), Ev::Tag(1_000 + tag));
    }
    let mut world = RandomWorld::new(case, rearm, timers);
    let mut deadline = SimTime::ZERO;
    let mut checkpoints = Vec::new();
    while engine.pending() > 0 {
        deadline += SimDuration::from_micros(rng.below(30));
        let stats = engine.run_until(&mut world, deadline);
        checkpoints.push((
            engine.now(),
            engine.pending(),
            engine.peak_pending(),
            engine.delivered(),
            stats.stopped_early,
        ));
    }
    (world.log, checkpoints, engine.rearmed())
}

#[test]
fn rearmed_events_deliver_the_same_run_as_handled_ones() {
    let (mut rearmed, mut stops) = (0, 0);
    for case in 0..200u64 {
        let (handled_log, handled_marks, none) = play(case, false);
        let (rearmed_log, rearmed_marks, n) = play(case, true);
        assert_eq!(rearmed_log, handled_log, "case {case}: delivery log");
        assert_eq!(rearmed_marks, handled_marks, "case {case}: checkpoints");
        assert_eq!(none, 0, "case {case}: a world that never re-arms");
        rearmed += n;
        stops += handled_marks.iter().filter(|m| m.4).count();
    }
    // The referee is not vacuous: both paths it compares were taken.
    assert!(rearmed > 5_000, "only {rearmed} events re-armed");
    assert!(stops > 50, "only {stops} stops");
}
