//! `live_loopback`: the live plane, in process. Two `BalancerServer`s
//! (us-east with four `ReplicaServer`s, eu-west with none) peered over
//! loopback TCP, and two closed-loop `LiveClient` threads, one per
//! balancer, so half the requests take the forward hop.
//!
//! Closed loop because the paper's clients are and `LiveClient::run`
//! blocks; two connections because the sandbox has two cores, so the
//! numbers measure the servers and not the scheduler.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use skywalker::core::{BalancerConfig, LbId, PolicyFactory};
use skywalker::net::Region;
use skywalker::replica::{GpuProfile, Replica, ReplicaId, Request};
use skywalker::sim::DetRng;
use skywalker_live::{scrape_metrics, BalancerServer, LiveClient, LiveOutcome, ReplicaServer};

use crate::alloc;
use crate::probe::{Probes, TimedFactory};
use crate::replay;
use crate::simbench::Checks;
use crate::spec::{Measured, Metrics};
use crate::stats::{percentile, supported_tail, Spread};

/// Modelled seconds per host second: 1 ms of host time stands for 1 s
/// of GPU time, so the model's share of a request is about a
/// millisecond and everything above that is the live plane's own cost.
const TIME_SCALE: f64 = 0.001;
const PROFILE: GpuProfile = GpuProfile::L4_LLAMA_8B;
const REPLICAS: u32 = 4;
const PROBE_INTERVAL: Duration = Duration::from_millis(10);
/// Ten probe rounds, so each balancer knows its peer before traffic.
const PROBE_SETTLE: Duration = Duration::from_millis(100);
const WARM_UP: Duration = Duration::from_secs(1);
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
const SHARED_DOCS: u64 = 8;
const DOC_TOKENS: usize = 256;
const FRESH_TOKENS: usize = 32;
const OUTPUT_TOKENS: u32 = 16;
/// The measured window is cut into this many slices, and the spread of a
/// live metric is its spread over them.
const SLICES: usize = 10;
/// `peak_heap_mb` covers spawn through this many answered requests
/// (warm-up included), not the whole window: the balancers' routing
/// tries grow with every request served, so a figure over a fixed time
/// would rise with the plane's speed.
const HEAP_REQUESTS: u64 = 128;

/// One client's request stream: a pure function of seed and client.
struct RequestStream {
    docs: Arc<Vec<Vec<u32>>>,
    rng: DetRng,
    client: u64,
    sent: u64,
}

impl RequestStream {
    fn new(seed: u64, client: u64) -> Self {
        let mut doc_rng = DetRng::for_component(seed, "skybench/live/docs");
        let docs = (0..SHARED_DOCS)
            .map(|_| (0..DOC_TOKENS).map(|_| doc_rng.next_u32()).collect())
            .collect();
        RequestStream {
            docs: Arc::new(docs),
            rng: DetRng::for_component(seed, &format!("skybench/live/client-{client}")),
            client,
            sent: 0,
        }
    }
}

impl RequestStream {
    /// The requests with the given ids, each made again from its
    /// client's stream.
    fn nth_of(seed: u64, ids: &[u64]) -> Vec<Request> {
        let place = |id: u64| (id >> 32, (id & 0xffff_ffff) as usize);
        let mut upto: BTreeMap<u64, usize> = BTreeMap::new();
        for (client, nth) in ids.iter().copied().map(place) {
            let highest = upto.entry(client).or_default();
            *highest = (*highest).max(nth);
        }
        let streams: BTreeMap<u64, Vec<Request>> = upto
            .into_iter()
            .map(|(client, nth)| {
                let made = RequestStream::new(seed, client).take(nth + 1).collect();
                (client, made)
            })
            .collect();
        ids.iter()
            .copied()
            .map(place)
            .map(|(client, nth)| streams[&client][nth].clone())
            .collect()
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    /// One of the shared documents, then fresh tokens.
    fn next(&mut self) -> Option<Request> {
        let doc = self.rng.below(SHARED_DOCS) as usize;
        let mut prompt = self.docs[doc].clone();
        prompt.extend((0..FRESH_TOKENS).map(|_| self.rng.next_u32()));
        let id = (self.client << 32) | self.sent;
        self.sent += 1;
        Some(Request::new(
            id,
            format!("client-{}", self.client),
            prompt,
            OUTPUT_TOKENS,
        ))
    }
}

/// The servers under test.
struct Cluster {
    replicas: Vec<ReplicaServer>,
    /// us-east: owns every replica.
    us: BalancerServer,
    /// eu-west: owns none, so all it receives is forwarded.
    eu: BalancerServer,
}

impl Cluster {
    fn spawn(factory: Option<&dyn PolicyFactory>) -> io::Result<Cluster> {
        let balancer = |id: u32, region: Region| {
            let cfg = BalancerConfig::skywalker(region);
            match factory {
                Some(f) => BalancerServer::spawn_with_factory(LbId(id), cfg, f, PROBE_INTERVAL),
                None => BalancerServer::spawn(LbId(id), cfg, PROBE_INTERVAL),
            }
        };
        let replicas = (0..REPLICAS)
            .map(|i| ReplicaServer::spawn(ReplicaId(i), PROFILE, TIME_SCALE))
            .collect::<io::Result<Vec<_>>>()?;
        let us = balancer(0, Region::UsEast)?;
        let eu = balancer(1, Region::EuWest)?;
        for (i, r) in replicas.iter().enumerate() {
            us.attach_replica(ReplicaId(i as u32), r.addr())?;
        }
        us.connect_peer(LbId(1), Region::EuWest, eu.addr())?;
        eu.connect_peer(LbId(0), Region::UsEast, us.addr())?;
        std::thread::sleep(PROBE_SETTLE);
        Ok(Cluster { replicas, us, eu })
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        [self.us.addr(), self.eu.addr()]
            .into_iter()
            .chain(self.replicas.iter().map(ReplicaServer::addr))
            .collect()
    }

    fn shutdown(self) {
        self.us.shutdown();
        self.eu.shutdown();
        for r in self.replicas {
            r.shutdown();
        }
    }
}

/// One request as its client saw it.
struct Record {
    sent_at: Instant,
    /// `None`: the request failed twice (error, rejection or lost
    /// connection). Latencies count from `sent_at`, retry included.
    outcome: Option<LiveOutcome>,
    /// The first attempt failed and the request was sent again.
    retried: bool,
    /// The request itself is not kept — the log would grow with the
    /// plane's speed and count against `peak_heap_mb` — only what names
    /// it: [`RequestStream::nth_of`] makes it again.
    id: u64,
    prompt_tokens: u32,
}

struct ClientLog {
    forwarded: bool,
    connect_ms: f64,
    records: Vec<Record>,
}

/// Sends requests back to back until told to stop. A request that fails
/// is sent once more on a fresh connection, as a client would; one that
/// fails again is recorded as failed and the loop goes on. (An idle
/// replica today refuses about one request in a few thousand: its
/// stepper can pop a request that arrives between its step and its
/// idle check.)
fn client_loop(
    addr: SocketAddr,
    stream: RequestStream,
    forwarded: bool,
    stop: &AtomicBool,
    heap: &HeapGauge,
) -> io::Result<ClientLog> {
    let start = Instant::now();
    let mut client = LiveClient::connect(addr)?;
    let connect_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut records = Vec::new();
    for request in stream {
        if stop.load(Relaxed) {
            break;
        }
        let sent_at = Instant::now();
        let mut outcome = client.run(&request).ok();
        let retried = outcome.is_none();
        if retried {
            client = LiveClient::connect(addr)?;
            let lost = sent_at.elapsed();
            outcome = client.run(&request).ok().map(|o| LiveOutcome {
                ttft: o.ttft + lost,
                e2e: o.e2e + lost,
                ..o
            });
            if outcome.is_none() {
                client = LiveClient::connect(addr)?;
            }
        }
        records.push(Record {
            sent_at,
            outcome,
            retried,
            id: request.id.0,
            prompt_tokens: request.prompt_len(),
        });
        if outcome.is_some() && heap.answered.fetch_add(1, Relaxed) + 1 == HEAP_REQUESTS {
            heap.read();
        }
    }
    Ok(ClientLog {
        forwarded,
        connect_ms,
        records,
    })
}

/// Stops the counting allocator once, at whichever comes first: the
/// [`HEAP_REQUESTS`]-th answer or the end of the window.
#[derive(Default)]
struct HeapGauge {
    answered: AtomicU64,
    count: OnceLock<alloc::HeapCount>,
}

impl HeapGauge {
    fn read(&self) -> alloc::HeapCount {
        *self.count.get_or_init(alloc::stop)
    }
}

/// `Threads:` of `/proc/self/status`; 0 where there is no procfs.
fn os_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Sum of one counter over the samples of a Prometheus text exposition.
fn scraped(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// What one measured window left behind.
struct Window {
    started: Instant,
    length: Duration,
    logs: Vec<ClientLog>,
    heap: alloc::HeapCount,
    /// Traced windows only: one sample per server per second, and the
    /// most threads the process had under load.
    scrape_ms: Vec<f64>,
    threads: u64,
    /// The servers' own counters, scraped after the window.
    exposition: String,
    forwarded: u64,
}

/// Runs a fresh cluster through warm-up and, if `window` is given, a
/// measured window; returns the set-up time and what the window saw.
fn pass(
    seed: u64,
    window: Option<Duration>,
    traced: Option<&TimedFactory>,
) -> io::Result<(f64, Option<Window>)> {
    let setup_start = Instant::now();
    if window.is_some() {
        alloc::start();
    }
    let cluster = Cluster::spawn(traced.map(|f| f as &dyn PolicyFactory))?;
    let stop = AtomicBool::new(false);
    let heap = HeapGauge::default();
    let targets = [(cluster.us.addr(), false), (cluster.eu.addr(), true)];
    let (mut scrape_ms, mut threads) = (Vec::new(), 0);

    let (setup_s, started, logs) = std::thread::scope(|scope| {
        let clients: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(k, &(addr, forwarded))| {
                let stream = RequestStream::new(seed, k as u64);
                let (stop, heap) = (&stop, &heap);
                scope.spawn(move || client_loop(addr, stream, forwarded, stop, heap))
            })
            .collect();
        std::thread::sleep(WARM_UP);
        let setup_s = setup_start.elapsed().as_secs_f64();
        let started = Instant::now();
        if let Some(length) = window {
            // The traced window also exercises the scrape path, once a
            // second, and counts the process's threads under load.
            while traced.is_some() && started.elapsed() + SCRAPE_EVERY < length {
                std::thread::sleep(SCRAPE_EVERY);
                for addr in cluster.addrs() {
                    let t = Instant::now();
                    if scrape_metrics(addr).is_ok() {
                        scrape_ms.push(ms(t.elapsed()));
                    }
                }
                threads = threads.max(os_threads());
            }
            std::thread::sleep(length.saturating_sub(started.elapsed()));
        }
        stop.store(true, Relaxed);
        let logs: io::Result<Vec<ClientLog>> = clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect();
        (setup_s, started, logs)
    });
    let logs = logs?;

    let window = window.map(|length| Window {
        started,
        length,
        logs,
        heap: heap.read(),
        scrape_ms,
        threads,
        exposition: cluster
            .addrs()
            .into_iter()
            .filter_map(|addr| scrape_metrics(addr).ok())
            .collect::<Vec<_>>()
            .join("\n"),
        forwarded: cluster.us.forwarded() + cluster.eu.forwarded(),
    });
    cluster.shutdown();
    Ok((setup_s, window))
}

/// Everything one measurement of `live_loopback` reports.
pub struct LiveResult {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p50(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A request sent and answered inside the window.
struct Answered<'a> {
    forwarded: bool,
    record: &'a Record,
    outcome: LiveOutcome,
}

impl Answered<'_> {
    fn tokens(&self) -> f64 {
        f64::from(self.record.prompt_tokens) + f64::from(self.outcome.generated)
    }
}

/// Measures `live_loopback`: `setups` set-ups (all but the last torn
/// down straight after warm-up), then one window of `length`. With
/// `traced`, the window also records the per-layer spans and counters.
pub fn measure(
    seed: u64,
    length: Duration,
    setups: usize,
    traced: bool,
    checks: &mut Checks,
) -> io::Result<LiveResult> {
    let probes = Arc::new(Probes::default());
    let inner: Arc<dyn PolicyFactory> = Arc::new(BalancerConfig::skywalker(Region::UsEast).policy);
    let factory = TimedFactory::wrapping(inner, Arc::clone(&probes));
    let factory = traced.then_some(&factory);

    let mut setups_s = Vec::new();
    for _ in 1..setups {
        setups_s.push(pass(seed, None, factory)?.0);
    }
    let (setup_s, window) = pass(seed, Some(length), factory)?;
    setups_s.push(setup_s);
    let w = window.expect("the last pass has a window");
    let end = w.started + w.length;

    // A request belongs to the window if it was sent and answered in it.
    let in_window = |r: &&Record| {
        r.sent_at >= w.started
            && match r.outcome {
                Some(o) => r.sent_at + o.e2e <= end,
                None => r.sent_at < end,
            }
    };
    let sent = w
        .logs
        .iter()
        .flat_map(|log| &log.records)
        .filter(in_window)
        .count() as u64;
    let answered: Vec<Answered> = w
        .logs
        .iter()
        .flat_map(|log| {
            log.records.iter().filter(in_window).filter_map(|record| {
                record.outcome.map(|outcome| Answered {
                    forwarded: log.forwarded,
                    record,
                    outcome,
                })
            })
        })
        .collect();
    let succeeded = answered.len() as u64;
    checks.require(succeeded > 0, || {
        "live_loopback: no request completed inside the window".to_string()
    });
    for a in &answered {
        checks.require(a.outcome.generated == OUTPUT_TOKENS, || {
            format!(
                "live_loopback: request {} generated {} tokens, not {OUTPUT_TOKENS}",
                a.record.id, a.outcome.generated
            )
        });
    }

    let mut end_to_end = end_to_end(&w, &answered);
    end_to_end.put("setup_s", Measured::median_of(&setups_s));
    let per_layer = if traced {
        per_layer(seed, &w, &answered, sent, &probes)
    } else {
        Metrics::default()
    };
    Ok(LiveResult {
        end_to_end,
        per_layer,
        attempted: sent,
        failed: sent - succeeded,
    })
}

/// Whole-window figures, each with its spread over the window's slices.
fn end_to_end(w: &Window, answered: &[Answered]) -> Metrics {
    #[derive(Default, Clone)]
    struct Slice {
        ttft: Vec<f64>,
        e2e: Vec<f64>,
        tokens: f64,
    }
    let window_s = w.length.as_secs_f64();
    let mut slices = vec![Slice::default(); SLICES];
    for a in answered {
        let at = (a.record.sent_at + a.outcome.e2e - w.started).as_secs_f64() / window_s;
        let slice = &mut slices[((at * SLICES as f64) as usize).min(SLICES - 1)];
        slice.ttft.push(ms(a.outcome.ttft));
        slice.e2e.push(ms(a.outcome.e2e));
        slice.tokens += a.tokens();
    }
    let over_slices = |value: f64, of: &dyn Fn(&Slice) -> Option<f64>| Measured {
        value,
        spread: Spread::of(&slices.iter().filter_map(of).collect::<Vec<_>>()),
    };
    let slice_s = window_s / SLICES as f64;
    let busy = |s: &Slice| !s.ttft.is_empty();

    let mut m = Metrics::default();
    m.put(
        "req_per_s",
        over_slices(answered.len() as f64 / window_s, &|s| {
            Some(s.ttft.len() as f64 / slice_s)
        }),
    );
    m.put(
        "ttft_p50_ms",
        over_slices(
            p50(answered.iter().map(|a| ms(a.outcome.ttft)).collect()),
            &|s| busy(s).then(|| p50(s.ttft.clone())),
        ),
    );
    m.put(
        "e2e_p50_ms",
        over_slices(
            p50(answered.iter().map(|a| ms(a.outcome.e2e)).collect()),
            &|s| busy(s).then(|| p50(s.e2e.clone())),
        ),
    );
    m.put(
        "tok_per_s",
        over_slices(
            answered.iter().map(Answered::tokens).sum::<f64>() / window_s,
            &|s| Some(s.tokens / slice_s),
        ),
    );
    m.exact("peak_heap_mb", w.heap.peak_mb());
    m
}

/// The traced window's spans and counters, the model's floor under them,
/// and the same requests replayed through each layer.
fn per_layer(seed: u64, w: &Window, answered: &[Answered], sent: u64, probes: &Probes) -> Metrics {
    let sorted_ms = |of: &dyn Fn(&Answered) -> Duration| {
        let mut v: Vec<f64> = answered.iter().map(|a| ms(of(a))).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ttft = sorted_ms(&|a| a.outcome.ttft);
    let e2e = sorted_ms(&|a| a.outcome.e2e);
    let decode = sorted_ms(&|a| a.outcome.e2e - a.outcome.ttft);
    let ttft_where = |forwarded: bool| {
        p50(answered
            .iter()
            .filter(|a| a.forwarded == forwarded)
            .map(|a| ms(a.outcome.ttft))
            .collect())
    };
    if let Some(tail) = supported_tail(ttft.len()) {
        println!(
            "live_loopback ttft: highest supported percentile p{tail} = {:.3} ms over {} samples",
            percentile(&ttft, tail),
            ttft.len()
        );
    }
    let share_of_sent = |n: u64| n as f64 / sent.max(1) as f64;
    let retried = w
        .logs
        .iter()
        .flat_map(|log| &log.records)
        .filter(|r| r.retried && r.sent_at >= w.started)
        .count();

    let mut m = Metrics::default();
    m.exact("live.sent", sent as f64);
    m.exact("live.succeeded", answered.len() as f64);
    m.exact("live.failed", (sent - answered.len() as u64) as f64);
    m.exact("live.retried", retried as f64);
    m.exact("live.ttft_p90_ms", percentile(&ttft, 90.0));
    m.exact("live.ttft_p99_ms", percentile(&ttft, 99.0));
    m.exact("metrics.ttft_p90_ms", percentile(&ttft, 90.0));
    m.exact("metrics.ttft_p99_ms", percentile(&ttft, 99.0));
    m.exact("live.e2e_p50_ms", percentile(&e2e, 50.0));
    m.exact("live.e2e_p90_ms", percentile(&e2e, 90.0));
    m.exact("metrics.e2e_p90_ms", percentile(&e2e, 90.0));
    m.exact("live.decode_p50_ms", percentile(&decode, 50.0));
    m.exact("live.local_ttft_p50_ms", ttft_where(false));
    m.exact("live.forwarded_ttft_p50_ms", ttft_where(true));
    m.exact("live.forward_share", share_of_sent(w.forwarded));
    m.exact("core.balancer.forward_share", share_of_sent(w.forwarded));
    m.exact("metrics.tracker.issued", sent as f64);
    let prompt: f64 = answered
        .iter()
        .map(|a| f64::from(a.record.prompt_tokens))
        .sum();
    let cached: f64 = answered
        .iter()
        .map(|a| f64::from(a.outcome.cached_prompt_tokens))
        .sum();
    m.exact("live.cached_token_share", cached / prompt.max(1.0));
    let connects: Vec<f64> = w.logs.iter().map(|l| l.connect_ms).collect();
    m.put("live.connect_ms", Measured::median_of(&connects));
    m.put("live.scrape_ms", Measured::median_of(&w.scrape_ms));
    m.exact("live.scrapes", w.scrape_ms.len() as f64);
    m.exact("live.threads", w.threads as f64);
    let counter = |name: &str| scraped(&w.exposition, name);
    m.exact("live.lb_received", counter("skywalker_lb_received_total"));
    m.exact(
        "live.lb_dispatched",
        counter("skywalker_lb_dispatched_local_total"),
    );
    m.exact(
        "live.replica_completed",
        counter("skywalker_replica_completed_total"),
    );
    m.exact(
        "live.replica_hit_rate",
        counter("skywalker_replica_cached_prompt_tokens_total")
            / counter("skywalker_replica_prompt_tokens_total").max(1.0),
    );

    // What the model alone accounts for: the same requests, in the
    // order they were sent, stepped on one standalone replica.
    let mut ids: Vec<(Instant, u64)> = answered
        .iter()
        .map(|a| (a.record.sent_at, a.record.id))
        .collect();
    ids.sort();
    let ids: Vec<u64> = ids.into_iter().map(|(_, id)| id).collect();
    let requests = RequestStream::nth_of(seed, &ids);
    let mut replica = Replica::new(ReplicaId(0), PROFILE);
    let floor_ms = p50(requests
        .iter()
        .map(|request| {
            replica.enqueue(request.clone());
            replica.run_to_idle().1.as_secs_f64() * TIME_SCALE * 1e3
        })
        .collect());
    m.exact("live.model_floor_ms", floor_ms);
    m.exact("live.overhead_ms", percentile(&e2e, 50.0) - floor_ms);

    // The balancers' policies, decorated in situ as on the sim plane.
    m.exact("core.policy.select_calls", probes.select.calls() as f64);
    m.exact("core.policy.select_ns", probes.select.ns_per_call());
    m.exact(
        "core.policy.note_dispatch_ns",
        probes.note_dispatch.ns_per_call(),
    );
    m.exact(
        "core.policy.hit_ratio_calls",
        probes.hit_ratio.calls() as f64,
    );
    m.exact("core.policy.hit_ratio_ns", probes.hit_ratio.ns_per_call());
    m.exact(
        "core.policy.remote_select_calls",
        probes.remote_select.calls() as f64,
    );
    m.exact(
        "core.policy.remote_select_ns",
        probes.remote_select.ns_per_call(),
    );

    // The same requests through each layer's public API.
    let start = Instant::now();
    let generated = RequestStream::new(seed, 0).take(2_000).count();
    m.exact(
        "workload.drain_ns_per_req",
        start.elapsed().as_nanos() as f64 / generated as f64,
    );
    let replayed = &requests[..requests.len().min(replay::REQUESTS)];
    m.extend(replay::of_requests(replayed, PROFILE, 1));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_repeat_under_a_seed_and_share_documents() {
        let a: Vec<Request> = RequestStream::new(61, 0).take(40).collect();
        let b: Vec<Request> = RequestStream::new(61, 0).take(40).collect();
        assert_eq!(a, b);
        let other_client: Vec<Request> = RequestStream::new(61, 1).take(40).collect();
        let other_seed: Vec<Request> = RequestStream::new(7, 0).take(40).collect();
        assert_ne!(a, other_seed);
        for r in a.iter().chain(&other_client) {
            assert_eq!(r.prompt.len(), DOC_TOKENS + FRESH_TOKENS);
            assert_eq!(r.target_output_tokens, OUTPUT_TOKENS);
        }
        // Both clients draw from the same eight documents.
        let docs = |rs: &[Request]| -> std::collections::BTreeSet<Vec<u32>> {
            rs.iter().map(|r| r.prompt[..DOC_TOKENS].to_vec()).collect()
        };
        let all: std::collections::BTreeSet<_> =
            docs(&a).union(&docs(&other_client)).cloned().collect();
        assert!(all.len() <= SHARED_DOCS as usize);
        assert!(docs(&a).len() > 1);
        // Ids never collide across clients, and name the request.
        assert!(a.iter().all(|r| other_client.iter().all(|o| o.id != r.id)));
        let again = RequestStream::nth_of(61, &[other_client[7].id.0, a[39].id.0, a[0].id.0]);
        assert_eq!(
            again,
            [other_client[7].clone(), a[39].clone(), a[0].clone()]
        );
    }

    #[test]
    fn scraped_sums_one_counter_over_its_label_sets() {
        let text = "# TYPE a_total counter\n\
                    a_total{lb=\"0\"} 3\n\
                    a_total{lb=\"1\"} 4\n\
                    a_total_more 100\n\
                    b 0.5";
        assert_eq!(scraped(text, "a_total"), 7.0);
        assert_eq!(scraped(text, "b"), 0.5);
        assert_eq!(scraped(text, "missing"), 0.0);
    }
}
