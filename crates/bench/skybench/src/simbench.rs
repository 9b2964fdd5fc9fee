//! Running one simulated workload: set-ups and the traced pass.
//! Everything is measured from outside `run_scenario`; the host-time
//! metrics come from reps cut into slices by `probe::SliceClock` and put
//! together again by `stats::undisturbed`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use skywalker::sim::{DetRng, SimDuration, SimTime};
use skywalker::{run_scenario, FabricConfig, RunSummary, Scenario};

use crate::alloc::{self, HeapCount};
use crate::probe::{self, SliceClock};
use crate::spec::{Measured, Metrics};
use crate::stats::{self, Spread};
use crate::workloads::{self, SimWorkload};

/// Failed output checks, collected so one run reports all of them.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Every simulated outcome a run reports. Two runs of one workload under
/// one seed must agree on all of it, whatever the observers, decorators
/// or host did. The event queue's peak depth is not among them: the
/// telemetry tick is itself a queued event, so observing raises it by
/// one without touching any outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint([u64; FIELDS.len()]);

const FIELDS: [&str; 18] = [
    "completed",
    "failed",
    "in_flight",
    "retried",
    "ttft.count",
    "ttft.p50",
    "ttft.p90",
    "ttft.p99",
    "e2e.p50",
    "e2e.p90",
    "e2e.p99",
    "throughput_tps",
    "generated_tokens",
    "replica_hit_rate",
    "forwarded",
    "evicted_tokens",
    "end_time",
    "peak_lb_queue",
];

impl Fingerprint {
    pub fn of(s: &RunSummary) -> Self {
        let r = &s.report;
        Fingerprint([
            r.completed,
            r.failed,
            r.in_flight,
            r.retried,
            r.ttft.count as u64,
            r.ttft.p50.to_bits(),
            r.ttft.p90.to_bits(),
            r.ttft.p99.to_bits(),
            r.e2e.p50.to_bits(),
            r.e2e.p90.to_bits(),
            r.e2e.p99.to_bits(),
            r.throughput_tps.to_bits(),
            r.generated_tokens,
            s.replica_hit_rate.to_bits(),
            s.forwarded,
            s.evicted_tokens,
            s.end_time.as_micros(),
            s.peak_lb_queue as u64,
        ])
    }

    /// FNV-1a over the fields, for printing.
    pub fn hex(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in self.0 {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// Names of the fields on which the two differ.
    pub fn differs_in(&self, other: &Fingerprint) -> Vec<&'static str> {
        (0..FIELDS.len())
            .filter(|&i| self.0[i] != other.0[i])
            .map(|i| FIELDS[i])
            .collect()
    }
}

/// Requests the workload's source emits over its whole life, counted on
/// a fresh copy polled the way the fabric polls it.
pub fn requests_in_source(w: &SimWorkload) -> u64 {
    let mut source = w.scenario.traffic.clone();
    let mut rng = DetRng::for_component(0, "skybench/count");
    let mut now = SimTime::ZERO;
    let mut total = 0u64;
    while !source.is_exhausted() && now <= w.cfg.deadline {
        let batch = source.next_batch(now, &mut rng);
        total += batch
            .iter()
            .map(|e| e.spec.total_requests() as u64)
            .sum::<u64>();
        now += SimDuration::from_secs(10);
    }
    total
}

fn timed_run(w: &SimWorkload) -> (f64, RunSummary) {
    let start = Instant::now();
    let summary = run_scenario(&w.scenario, &w.cfg);
    (start.elapsed().as_secs_f64(), summary)
}

/// A workload behind a slice clock: what set-ups and plain reps run.
struct Clocked {
    scenario: Scenario,
    cfg: FabricConfig,
    clock: Arc<SliceClock>,
}

/// One run of a [`Clocked`] workload.
struct Rep {
    summary: RunSummary,
    /// Wall time of each slice; together, the rep's.
    slices_s: Vec<f64>,
    /// Counted only when asked for.
    heap: Option<HeapCount>,
}

impl Clocked {
    fn of(w: &SimWorkload) -> Self {
        let (scenario, clock) = probe::slice_clocked(&w.scenario);
        Clocked {
            scenario,
            cfg: w.cfg.clone(),
            clock,
        }
    }

    fn run(&self, count_heap: bool) -> Rep {
        self.clock.reset();
        if count_heap {
            alloc::start();
        }
        let start = Instant::now();
        let summary = run_scenario(&self.scenario, &self.cfg);
        let end = Instant::now();
        let heap = count_heap.then(alloc::stop);
        Rep {
            summary,
            slices_s: self.clock.slices(start, end),
            heap,
        }
    }
}

/// Set-up as a user pays it: build the scenario, then one warm-up rep.
/// The warm-up runs with the allocator counting, so the peak heap and
/// allocation count are those of the program behind nothing but the
/// slice clock (three boxed policies and a pre-sized vector).
struct SetUp {
    w: SimWorkload,
    clocked: Clocked,
    warm_up: RunSummary,
    heap: HeapCount,
    /// Building, then the warm-up's slices.
    slices_s: Vec<f64>,
}

impl SetUp {
    fn of(name: &'static str, seed: u64) -> Self {
        let start = Instant::now();
        let w = workloads::build(name, seed).expect("a simulated workload's name");
        let clocked = Clocked::of(&w);
        let build_s = start.elapsed().as_secs_f64();
        let rep = clocked.run(true);
        SetUp {
            w,
            clocked,
            warm_up: rep.summary,
            heap: rep.heap.expect("the warm-up counts the heap"),
            slices_s: [vec![build_s], rep.slices_s].concat(),
        }
    }
}

/// The undisturbed whole of `reps` (`stats::undisturbed`). Its spread is
/// the estimate's own, not the disturbed reps': how it reads with any one
/// rep left out. A failed check, and the fastest whole, if the reps were
/// not cut alike.
fn undisturbed(reps: &[Vec<f64>], what: &str, checks: &mut Checks) -> Measured {
    let estimate = stats::undisturbed(reps);
    checks.require(estimate.is_some(), || {
        let counts: Vec<usize> = reps.iter().map(Vec::len).collect();
        format!("{what} were cut into {counts:?} slices, not all alike")
    });
    let Some(value) = estimate else {
        let wholes = reps.iter().map(|r| r.iter().sum());
        return Measured::exact(wholes.fold(f64::INFINITY, f64::min));
    };
    let one_left_out: Vec<f64> = (0..reps.len())
        .filter_map(|out| stats::undisturbed(&[&reps[..out], &reps[out + 1..]].concat()))
        .collect();
    let spread = match one_left_out.len() {
        0 => Spread::exact(value),
        _ => Spread::of(&one_left_out),
    };
    Measured { value, spread }
}

/// One simulated workload being measured.
pub struct SimBench {
    pub w: SimWorkload,
    seed: u64,
    /// Requests the source emits; every rep must account for all of them.
    issued: u64,
    /// The first warm-up rep's summary: the outcome every later rep must
    /// repeat.
    pub reference: RunSummary,
    pub print: Fingerprint,
    /// Heap use of the warm-up rep.
    pub heap: HeapCount,
    clocked: Clocked,
    /// Per set-up, the wall time of each slice, construction first.
    setups_s: Vec<Vec<f64>>,
    /// Requests lost over all warm-up reps.
    pub failed: u64,
}

impl SimBench {
    pub fn new(name: &'static str, seed: u64, checks: &mut Checks) -> Self {
        let SetUp {
            w,
            clocked,
            warm_up: reference,
            heap,
            slices_s,
        } = SetUp::of(name, seed);
        let issued = requests_in_source(&w);
        let r = &reference.report;
        checks.require(r.completed + r.failed + r.in_flight == issued, || {
            format!(
                "{name}: completed {} + failed {} + in_flight {} != issued {issued}",
                r.completed, r.failed, r.in_flight
            )
        });
        if let Some(trace) = &reference.trace {
            checks.require(trace.complete(), || {
                format!("{name}: trace dropped {} events", trace.dropped_events)
            });
        }
        SimBench {
            w,
            seed,
            issued,
            print: Fingerprint::of(&reference),
            failed: r.failed + r.in_flight,
            reference,
            heap,
            clocked,
            setups_s: vec![slices_s],
        }
    }

    fn same_outcome(&self, summary: &RunSummary, pass: &str, checks: &mut Checks) {
        let got = Fingerprint::of(summary);
        checks.require(got == self.print, || {
            format!(
                "{}: {pass} fingerprint {} differs from the first warm-up's {} in {:?}",
                self.w.name,
                got.hex(),
                self.print.hex(),
                got.differs_in(&self.print)
            )
        });
    }

    /// Sets up once more, for a steadier set-up time; outcome and heap
    /// counts must repeat.
    pub fn set_up_again(&mut self, checks: &mut Checks) {
        let again = SetUp::of(self.w.name, self.seed);
        self.setups_s.push(again.slices_s);
        self.same_outcome(&again.warm_up, "repeated set-up", checks);
        checks.require(again.heap == self.heap, || {
            format!(
                "{}: heap count {:?} differs from the first set-up's {:?}",
                self.w.name, again.heap, self.heap
            )
        });
        self.failed += again.warm_up.report.failed + again.warm_up.report.in_flight;
    }

    pub fn setups(&self) -> usize {
        self.setups_s.len()
    }

    /// The fastest set-up so far.
    pub fn fastest_setup_s(&self) -> f64 {
        self.setups_s
            .iter()
            .map(|s| s.iter().sum())
            .fold(f64::INFINITY, f64::min)
    }

    /// Requests issued over all warm-up reps.
    pub fn attempted(&self) -> u64 {
        self.issued * self.setups() as u64
    }

    /// What a user of the simulated system sees — the modelled service
    /// figures, exact under one seed — and the two costs of this machine
    /// a bound can be held to: peak heap, which is as exact, and set-up
    /// time, as the *undisturbed* set-up over all set-ups made. How fast
    /// the simulator itself runs is not among them: see `traced`.
    pub fn end_to_end(&self, checks: &mut Checks) -> Metrics {
        let r = &self.reference.report;
        let mut m = Metrics::default();
        m.put(
            "setup_s",
            undisturbed(
                &self.setups_s,
                &format!("{}: the set-ups", self.w.name),
                checks,
            ),
        );
        m.exact("req_per_s", self.reference.request_rate());
        m.exact("ttft_p50_ms", r.ttft.p50 * 1e3);
        m.exact("e2e_p50_ms", r.e2e.p50 * 1e3);
        m.exact("tok_per_s", r.throughput_tps);
        m.exact("peak_heap_mb", self.heap.peak_mb());
        m
    }

    /// Counters the run's own summary carries; exact under one seed.
    pub fn counters(&self) -> Metrics {
        let s = &self.reference;
        let r = &s.report;
        let per_req = |v: u64| v as f64 / self.issued.max(1) as f64;
        let mut m = Metrics::default();
        m.exact("fabric.heap_allocs_per_req", per_req(self.heap.allocs));
        m.exact("replica.hit_rate", s.replica_hit_rate);
        m.exact("replica.evicted_tokens_per_req", per_req(s.evicted_tokens));
        m.exact("replica.kv_peak_gap", s.kv_peak_gap);
        m.exact("core.balancer.forward_share", per_req(s.forwarded));
        m.exact("core.balancer.peak_lb_queue", s.peak_lb_queue as f64);
        m.exact("core.balancer.dispatch_imbalance", s.dispatch_imbalance);
        m.exact(
            "core.balancer.outstanding_imbalance",
            s.outstanding_imbalance,
        );
        m.exact("sim.engine.peak_events", s.peak_events as f64);
        m.exact("metrics.tracker.issued", self.issued as f64);
        m.exact("metrics.hops_mean", r.hops.mean);
        m.exact("metrics.ttft_p90_ms", r.ttft.p90 * 1e3);
        m.exact("metrics.ttft_p99_ms", r.ttft.p99 * 1e3);
        m.exact("metrics.e2e_p90_ms", r.e2e.p90 * 1e3);
        if let Some(trace) = &s.trace {
            m.exact("trace.events_per_req", per_req(trace.events.len() as u64));
            m.exact("trace.dropped_events", trace.dropped_events as f64);
        }
        m
    }

    /// The in-situ part of the traced pass: plain and decorated reps in
    /// alternation (so drift hits both alike) until `budget` is spent,
    /// at least two of each. The plain reps run behind the slice clock
    /// and give the simulator's own speed, as the undisturbed rep.
    pub fn traced(&self, budget: Duration, checks: &mut Checks) -> Metrics {
        let start = Instant::now();
        let (mut plain_slices_s, mut traced_s) = (Vec::new(), Vec::new());
        let (mut residual_ns_per_req, mut residual_share) = (Vec::new(), Vec::new());
        let issued = self.issued.max(1) as f64;
        let (decorated, probes) = probe::instrument(&self.w.scenario);
        let decorated = SimWorkload {
            scenario: decorated,
            cfg: self.w.cfg.clone(),
            ..self.w
        };
        while plain_slices_s.len() < 2 || start.elapsed() < budget {
            let rep = self.clocked.run(false);
            self.same_outcome(&rep.summary, "plain rep of the traced pass", checks);
            plain_slices_s.push(rep.slices_s);

            let inside_before = probes.total_ns();
            let (wall_s, summary) = timed_run(&decorated);
            self.same_outcome(&summary, "decorated rep", checks);
            traced_s.push(wall_s);
            let outside_ns = wall_s * 1e9 - (probes.total_ns() - inside_before) as f64;
            residual_ns_per_req.push(outside_ns / issued);
            residual_share.push(outside_ns / (wall_s * 1e9));
        }

        let reps = traced_s.len() as f64;
        let calls = |c: &probe::Cell| c.calls() as f64 / reps;
        let undisturbed_s = undisturbed(
            &plain_slices_s,
            &format!("{}: the plain reps of the traced pass", self.w.name),
            checks,
        );
        let plain_s: Vec<f64> = plain_slices_s.iter().map(|r| r.iter().sum()).collect();
        let plain = Measured::median_of(&plain_s);
        let traced = Measured::median_of(&traced_s);

        let mut m = Metrics::default();
        m.exact("workload.next_batch_calls", calls(&probes.next_batch));
        m.exact(
            "workload.next_batch_ns_per_req",
            probes.next_batch.total_ns() as f64 / reps / issued,
        );
        m.exact("core.policy.select_calls", calls(&probes.select));
        m.exact("core.policy.select_ns", probes.select.ns_per_call());
        m.exact(
            "core.policy.note_dispatch_ns",
            probes.note_dispatch.ns_per_call(),
        );
        m.exact("core.policy.hit_ratio_calls", calls(&probes.hit_ratio));
        m.exact("core.policy.hit_ratio_ns", probes.hit_ratio.ns_per_call());
        m.exact(
            "core.policy.remote_select_calls",
            calls(&probes.remote_select),
        );
        m.exact(
            "core.policy.remote_select_ns",
            probes.remote_select.ns_per_call(),
        );
        m.exact("replica.batch.plan_calls", calls(&probes.plan));
        m.exact("replica.batch.plan_ns", probes.plan.ns_per_call());
        m.exact(
            "replica.kvcache.evict_pick_calls",
            calls(&probes.evict_pick),
        );
        m.exact(
            "replica.kvcache.evict_pick_ns",
            probes.evict_pick.ns_per_call(),
        );
        m.put("fabric.wall_s", plain);
        m.put("fabric.undisturbed_s", undisturbed_s);
        m.exact(
            "fabric.host_req_per_s",
            self.reference.report.completed as f64 / undisturbed_s.value,
        );
        m.put(
            "fabric.residual_ns_per_req",
            Measured::median_of(&residual_ns_per_req),
        );
        m.put(
            "fabric.residual_share",
            Measured::median_of(&residual_share),
        );
        m.exact(
            "fabric.probe_overhead_pct",
            100.0 * (traced.value / plain.value - 1.0),
        );
        m
    }
}
