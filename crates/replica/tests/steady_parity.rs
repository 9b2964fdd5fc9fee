//! A steady iteration taken in O(1) is the iteration a full step takes.
//!
//! Every case steps one random request stream through two replicas with
//! the same engine. One replica's policy declares its fixed plan, so the
//! replica takes a steady iteration through `Replica::advance_steady`
//! (and `Replica::step` does too). The other replica's policy is the same
//! policy behind a wrapper that hides the fixed plan, so every one of its
//! iterations is a full step. After every operation both must show the
//! same `StepOutcome`, `stats()`, `kv_utilization()`, `pending_len()` and
//! `running_len()`.
//!
//! The streams hold one- and two-token targets beside long ones, arrive
//! while a steady run is under way, stall on a full batch or on a head
//! that does not fit, fail everything mid-run, and prewarm prompts into
//! a tiered cache (a promotion is charged by the next full step).

use skywalker_replica::{
    BatchPlan, BatchPolicy, Completion, FcfsBatch, GpuProfile, KvConfig, KvEvictor, LruEvictor,
    Replica, ReplicaId, ReplicaStats, Request, RequestId, StepOutcome, StepView, TieredEvictor,
};
use skywalker_sim::{DetRng, SimDuration};

/// A policy with its fixed plan hidden: the replica asks `plan` every
/// iteration.
#[derive(Debug, Clone)]
struct Hidden(FcfsBatch);

impl BatchPolicy for Hidden {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        self.0.plan(view)
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

type Outcome = (
    SimDuration,
    Vec<RequestId>,
    Vec<RequestId>,
    Vec<RequestId>,
    Vec<Completion>,
);

fn outcome(out: &StepOutcome) -> Outcome {
    (
        out.duration,
        out.admitted.clone(),
        out.preempted.clone(),
        out.first_tokens.clone(),
        out.completions.clone(),
    )
}

/// Everything a reader of a replica can see, besides its cache.
fn state(r: &Replica) -> (ReplicaStats, u64, usize, usize) {
    (
        r.stats(),
        r.kv_utilization().to_bits(),
        r.pending_len(),
        r.running_len(),
    )
}

fn profile(capacity: u64, max_batch: u32) -> GpuProfile {
    GpuProfile {
        name: "steady",
        prefill_base_us: 1_000,
        prefill_per_token_us: 100.0,
        chunk_base_us: 400,
        decode_base_us: 1_000,
        decode_per_request_us: 100.0,
        kv: KvConfig::tiny(capacity),
        max_batch_size: max_batch,
        kv_transfer_us_per_token: 1.0,
    }
}

fn prompt(rng: &mut DetRng) -> Vec<u32> {
    let base = rng.below(4) as u32 * 1_000;
    (0..rng.range(1, 30) as u32).map(|t| base + t).collect()
}

fn request(rng: &mut DetRng, id: u64) -> Request {
    let target = match rng.below(4) {
        0 => 1,
        1 => 2,
        _ => rng.range(3, 60) as u32,
    };
    Request::new(id, "steady", prompt(rng), target)
}

/// What one case exercised, summed over the suite.
#[derive(Default)]
struct Tally {
    steady: u64,
    steady_with_pending: u64,
    full: u64,
    fail_alls: u64,
}

fn play(case: u64, tally: &mut Tally) {
    let mut rng = DetRng::for_component(case, "replica/steady-parity");
    let p = profile(rng.range(48, 400), rng.range(1, 8) as u32);
    let policy = match rng.below(3) {
        0 => FcfsBatch::new(),
        1 => FcfsBatch::chunked(rng.range(1, 24) as u32),
        _ => FcfsBatch::new().with_preemption(0.6 + rng.below(4) as f64 / 10.0),
    };
    let evictor: Box<dyn KvEvictor> = if rng.chance(0.3) {
        Box::new(TieredEvictor::new(Box::new(LruEvictor), 256))
    } else {
        Box::new(LruEvictor)
    };
    let mut fixed = Replica::with_engine(ReplicaId(0), p, Box::new(policy), evictor.clone());
    let mut full = Replica::with_engine(ReplicaId(1), p, Box::new(Hidden(policy)), evictor);
    let mut next_id = 0;
    for op in 0..400 {
        let at = format!("case {case}, op {op}");
        match rng.below(24) {
            0..=3 => {
                for _ in 0..rng.range(1, 3) {
                    let req = request(&mut rng, next_id);
                    next_id += 1;
                    fixed.enqueue(req.clone());
                    full.enqueue(req);
                }
            }
            4 if rng.chance(0.3) => {
                let ids = |v: Vec<Request>| v.into_iter().map(|r| r.id).collect::<Vec<_>>();
                assert_eq!(ids(fixed.fail_all()), ids(full.fail_all()), "{at}");
                tally.fail_alls += 1;
            }
            5 => {
                let warm = prompt(&mut rng);
                assert_eq!(fixed.prewarm(&warm), full.prewarm(&warm), "{at}");
            }
            6..=12 => {
                // The fabric's own call: a steady iteration, or nothing.
                let pending = fixed.pending_len();
                match fixed.advance_steady() {
                    Some(d) => {
                        let out = full.step();
                        assert_eq!(outcome(&out), (d, vec![], vec![], vec![], vec![]), "{at}");
                        full.recycle(out);
                        tally.steady += 1;
                        tally.steady_with_pending += u64::from(pending > 0);
                    }
                    None => tally.full += 1,
                }
            }
            _ => {
                let (a, b) = (fixed.step(), full.step());
                assert_eq!(outcome(&a), outcome(&b), "{at}");
                if !b.progressed() && full.pending_len() > 0 {
                    // A head that can never fit: drop it from both.
                    let ids = (fixed.pop_pending_head(), full.pop_pending_head());
                    assert_eq!(ids.0.map(|r| r.id), ids.1.map(|r| r.id), "{at}");
                }
                fixed.recycle(a);
                full.recycle(b);
            }
        }
        assert_eq!(state(&fixed), state(&full), "{at}");
    }
    fixed.cache().check_invariants();
}

#[test]
fn a_steady_iteration_is_the_full_step_it_stands_for() {
    let mut tally = Tally::default();
    for case in 0..200 {
        play(case, &mut tally);
    }
    // The referee is not vacuous: both kinds of iteration were taken,
    // steady ones also beside a stalled queue, and crashes landed.
    let Tally {
        steady,
        steady_with_pending,
        full,
        fail_alls,
    } = tally;
    assert!(steady > 6_000, "only {steady} steady iterations");
    assert!(steady_with_pending > 3_000, "only {steady_with_pending}");
    assert!(full > 10_000, "only {full} refused");
    assert!(fail_alls > 500, "only {fail_alls} fail_all calls");
}
