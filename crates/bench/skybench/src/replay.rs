//! The replay part of the traced pass: the workload's own first requests
//! fed straight into each layer's public API, outside any simulation, so
//! a layer's cost per operation can be read without the rest of the run
//! around it. Every loop runs [`PASSES`] times on fresh state and reports
//! the median; `*_ns` is nanoseconds per replayed request unless the
//! metric's name says per call, per step or per event.

use std::hint::black_box;
use std::time::Instant;

use skywalker::core::{BalancerConfig, Decision, LbId, RegionalBalancer, RouteTrie};
use skywalker::metrics::RequestTracker;
use skywalker::net::{Message, Region};
use skywalker::replica::{output_token, GpuProfile, PrefixCache, Replica, ReplicaId, Request};
use skywalker::sim::{DetRng, Engine, Scheduler, SimDuration, SimTime, World};
use skywalker::telemetry::MetricsRegistry;
use skywalker::trace::{Attribution, TraceConfig, TraceEventKind, TraceRecorder};
use skywalker::TrafficSource;

use crate::spec::{Measured, Metrics};

/// How many of the workload's first requests are replayed.
pub const REQUESTS: usize = 20_000;
const PASSES: usize = 5;
/// Events delivered by the event-engine loop.
const ENGINE_EVENTS: u64 = 200_000;

/// Drains the first [`REQUESTS`] requests out of a fresh copy of
/// `source`, polling every 500 ms of simulated time as the fabric does.
/// Returns them with the wall time per request drained.
fn drain(source: &dyn TrafficSource) -> (Vec<Request>, f64) {
    let mut source = source.clone_box();
    let mut rng = DetRng::for_component(0, "skybench/replay");
    let mut now = SimTime::ZERO;
    let mut requests = Vec::new();
    let start = Instant::now();
    while requests.len() < REQUESTS && !source.is_exhausted() {
        for event in source.next_batch(now, &mut rng) {
            for program in event.spec.programs {
                requests.extend(program.stages.into_iter().flatten());
            }
        }
        now += SimDuration::from_millis(500);
    }
    let ns_per_req = start.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    requests.truncate(REQUESTS);
    (requests, ns_per_req)
}

/// Runs `pass` [`PASSES`] times; each returns its samples, one per
/// metric, and the medians come back in the same order.
fn medians<const N: usize>(mut pass: impl FnMut() -> [f64; N]) -> [Measured; N] {
    let runs: Vec<[f64; N]> = (0..PASSES).map(|_| pass()).collect();
    std::array::from_fn(|i| Measured::median_of(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

fn ns_each(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// The replay metrics of a simulated workload.
pub fn of_source(source: &dyn TrafficSource, profile: GpuProfile, peak_events: usize) -> Metrics {
    let mut m = Metrics::default();
    let mut requests = Vec::new();
    let [drain_ns] = medians(|| {
        let (drained, ns) = drain(source);
        requests = drained;
        [ns]
    });
    m.put("workload.drain_ns_per_req", drain_ns);
    m.extend(of_requests(&requests, profile, peak_events));
    m
}

/// The replay metrics of an explicit request list (every layer but the
/// traffic source).
pub fn of_requests(requests: &[Request], profile: GpuProfile, peak_events: usize) -> Metrics {
    let mut m = Metrics::default();
    let n = requests.len();
    if n == 0 {
        return m;
    }

    // core: the routing trie on its own, then the whole balancer.
    let mut nodes = 0;
    let [insert, best_match] = medians(|| {
        let mut trie: RouteTrie<u32> = RouteTrie::new(1 << 22);
        let start = Instant::now();
        for (i, r) in requests.iter().enumerate() {
            trie.insert(&r.prompt, (i % 24) as u32);
        }
        let insert = ns_each(start, n);
        let start = Instant::now();
        for r in requests {
            black_box(trie.best_match(&r.prompt, |_| true));
        }
        nodes = trie.node_count();
        [insert, ns_each(start, n)]
    });
    m.put("core.trie.insert_ns", insert);
    m.put("core.trie.best_match_ns", best_match);
    m.exact("core.trie.nodes", nodes as f64);

    let [dispatch] = medians(|| {
        let replicas: Vec<ReplicaId> = (0..8).map(ReplicaId).collect();
        let mut lb = RegionalBalancer::new(LbId(0), BalancerConfig::skywalker(Region::UsEast));
        for id in &replicas {
            lb.add_replica(*id);
        }
        let feed = requests.to_vec();
        let start = Instant::now();
        for req in feed {
            lb.submit(req, 0);
            for decision in lb.dispatch() {
                // Completions fed straight back, so every replica stays
                // available and each request is routed on arrival.
                if let Decision::Local { replica, .. } = decision {
                    lb.on_replica_complete(replica);
                    lb.on_replica_probe(replica, 0, 0, 0.0);
                }
            }
        }
        black_box(lb.queue_len());
        [ns_each(start, n)]
    });
    m.put("core.balancer.dispatch_ns", dispatch);

    // replica: the batching loop on one standalone replica, then the
    // prefix cache on its own.
    let mut steps_per_req = 0.0;
    let [step] = medians(|| {
        let mut replica = Replica::new(ReplicaId(0), profile);
        let in_system_cap = 2 * profile.max_batch_size as usize;
        // Cloned up front, so that the timed loop only moves requests.
        let feed = requests.to_vec();
        let mut feed = feed.into_iter();
        let (mut in_system, mut steps) = (0usize, 0u64);
        let start = Instant::now();
        loop {
            while in_system < in_system_cap {
                let Some(req) = feed.next() else { break };
                replica.enqueue(req);
                in_system += 1;
            }
            if in_system == 0 {
                break;
            }
            let out = replica.step();
            steps += 1;
            in_system -= out.completions.len();
            if !out.progressed() {
                // A request that can never fit: drop it, as the live
                // stepper does, instead of spinning.
                match replica.pop_pending_head() {
                    Some(_) => in_system -= 1,
                    None => break,
                }
            }
        }
        steps_per_req = steps as f64 / n as f64;
        [start.elapsed().as_nanos() as f64 / steps.max(1) as f64]
    });
    m.put("replica.step_ns", step);
    m.exact("replica.steps_per_req", steps_per_req);

    let generated: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| {
            (0..r.target_output_tokens)
                .map(|i| output_token(r.id.0, i))
                .collect()
        })
        .collect();
    let (mut hit_rate, mut evicted) = (0.0, 0);
    let [acquire, complete] = medians(|| {
        let mut cache = PrefixCache::new(profile.kv);
        let (mut acquire_ns, mut complete_ns) = (0u128, 0u128);
        for (r, generated) in requests.iter().zip(&generated) {
            let start = Instant::now();
            let lease = cache.acquire(&r.prompt);
            acquire_ns += start.elapsed().as_nanos();
            if let Ok((lease, _cached)) = lease {
                let start = Instant::now();
                cache.complete(lease, generated);
                complete_ns += start.elapsed().as_nanos();
            }
        }
        hit_rate = cache.hit_rate();
        evicted = cache.evicted_tokens();
        [acquire_ns as f64 / n as f64, complete_ns as f64 / n as f64]
    });
    m.put("replica.kvcache.acquire_ns", acquire);
    m.put("replica.kvcache.complete_ns", complete);
    m.exact("replica.kvcache.replay_hit_rate", hit_rate);
    m.exact("replica.kvcache.replay_evicted_tokens", evicted as f64);

    // sim: schedule and deliver into a world that does nothing else, the
    // queue held at the workload's own peak depth.
    let [event] = medians(|| {
        let mut engine: Engine<u64> = Engine::new();
        for i in 0..peak_events.max(1) as u64 {
            engine.schedule(SimTime::from_micros(i), i);
        }
        let mut world = Rescheduler {
            left: ENGINE_EVENTS,
        };
        let start = Instant::now();
        let stats = engine.run(&mut world);
        [start.elapsed().as_nanos() as f64 / stats.delivered.max(1) as f64]
    });
    m.put("sim.engine.event_ns", event);

    // metrics: one request's life in the tracker, then the report.
    let [record, report] = medians(|| {
        let mut tracker = RequestTracker::new();
        let start = Instant::now();
        for (i, r) in requests.iter().enumerate() {
            let at = SimTime::from_millis(i as u64);
            tracker.arrival(r.id.0, at, u64::from(r.prompt_len()));
            tracker.record_hops(r.id.0, 1);
            tracker.first_token(r.id.0, at + SimDuration::from_millis(80));
            tracker.completion(
                r.id.0,
                at + SimDuration::from_millis(900),
                u64::from(r.target_output_tokens),
                0,
            );
        }
        let record = ns_each(start, n);
        let start = Instant::now();
        black_box(tracker.report(SimTime::from_millis(n as u64 + 900)));
        [record, ns_each(start, n)]
    });
    m.put("metrics.tracker.record_ns", record);
    m.put("metrics.tracker.report_ns", report);

    // trace: the nine milestones of an unforwarded request, then the
    // attribution pass over them.
    let [trace_record, attribution] = medians(|| {
        let mut recorder = TraceRecorder::new(TraceConfig::with_capacity(9 * n));
        let start = Instant::now();
        for (i, r) in requests.iter().enumerate() {
            let req = r.id.0;
            let t = |ms: u64| SimTime::from_millis(i as u64 + ms);
            recorder.record(t(0), TraceEventKind::Issued { req });
            recorder.record(
                t(1),
                TraceEventKind::LbQueued {
                    req,
                    lb: 0,
                    hops: 0,
                },
            );
            recorder.record(
                t(2),
                TraceEventKind::Dispatched {
                    req,
                    lb: 0,
                    replica: 0,
                },
            );
            recorder.record(t(3), TraceEventKind::ReplicaQueued { req, replica: 0 });
            recorder.record(t(4), TraceEventKind::Admitted { req, replica: 0 });
            recorder.record(t(80), TraceEventKind::FirstToken { req, replica: 0 });
            recorder.record(t(81), TraceEventKind::FirstTokenDelivered { req });
            recorder.record(t(900), TraceEventKind::ReplicaDone { req, replica: 0 });
            recorder.record(t(901), TraceEventKind::Delivered { req });
        }
        let record = ns_each(start, 9 * n);
        let summary = recorder.into_summary();
        let start = Instant::now();
        black_box(Attribution::from_summary(&summary));
        [record, ns_each(start, n)]
    });
    m.put("trace.record_ns", trace_record);
    m.put("trace.attribution_ns_per_req", attribution);

    // telemetry: one histogram observation per request, then a snapshot.
    let [observe, snapshot] = medians(|| {
        let mut registry = MetricsRegistry::new();
        let labels = [("region", "us-east-1")];
        let start = Instant::now();
        for i in 0..n {
            registry.observe(
                "skywalker_ttft_seconds",
                &labels,
                0.05 + (i % 97) as f64 * 0.01,
            );
        }
        let observe = ns_each(start, n);
        let start = Instant::now();
        black_box(registry.snapshot());
        [observe, ns_each(start, 1)]
    });
    m.put("telemetry.observe_ns", observe);
    m.put("telemetry.snapshot_ns", snapshot);

    // net: each request as the `Infer` frame a client would send.
    let messages: Vec<Message> = requests
        .iter()
        .map(|r| Message::Infer {
            request_id: r.id.0,
            session_key: r.session_key.clone(),
            prompt: r.prompt.clone(),
            max_new_tokens: r.target_output_tokens,
            hops: 0,
        })
        .collect();
    let mut bytes = 0usize;
    let [encode, decode] = medians(|| {
        let start = Instant::now();
        let frames: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
        let encode = ns_each(start, n);
        // Each frame travels behind a 4-byte length prefix.
        bytes = frames.iter().map(|f| f.len() + 4).sum();
        let start = Instant::now();
        for frame in &frames {
            black_box(Message::decode(frame).expect("a frame this program encoded"));
        }
        [encode, ns_each(start, n)]
    });
    m.put("net.wire.encode_ns", encode);
    m.put("net.wire.decode_ns", decode);
    m.exact("net.wire.bytes_per_req", bytes as f64 / n as f64);
    m
}

/// Keeps the event queue at its starting depth: every delivery schedules
/// one successor a pseudo-random distance ahead, until the budget is
/// spent.
struct Rescheduler {
    left: u64,
}

impl World for Rescheduler {
    type Event = u64;

    fn handle(&mut self, _now: SimTime, event: u64, sched: &mut Scheduler<u64>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let next = event
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        sched.after(SimDuration::from_micros(1 + (next >> 44)), next);
    }
}
