//! Live-mode loopback: the full TCP topology (clients → balancers →
//! replicas, with LB-to-LB peering) on localhost, exercising the same
//! core logic the simulator verifies — but through real sockets and real
//! threads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use skywalker::core::{BalancerConfig, LbId};
use skywalker::net::Region;
use skywalker::replica::{GpuProfile, ReplicaId, Request};
use skywalker_live::{scrape_metrics, BalancerServer, LiveClient, ReplicaServer};

const FAST: f64 = 0.001; // 1000× faster than real time

/// Polls the balancer's scrape until it counts `n` available replicas,
/// failing after 2 s. A probe that sampled a replica between enqueue and
/// admission reported it pending, and SP-P steers the next request away
/// from a pending replica; once every replica reads available again, a
/// probe taken after the last completion has been applied.
fn await_available_replicas(lb: SocketAddr, n: f64) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let text = scrape_metrics(lb).unwrap();
        let sample = text
            .lines()
            .find(|l| l.starts_with("skywalker_lb_available_replicas"));
        let value = sample.and_then(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok());
        if value == Some(n) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "available replicas stuck at {value:?}, never {n}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn three_region_topology_serves_and_forwards() {
    // Three balancers; only two have replicas. Traffic to the empty one
    // must forward and complete.
    let replicas: Vec<ReplicaServer> = (0..4)
        .map(|i| ReplicaServer::spawn(ReplicaId(i), GpuProfile::L4_LLAMA_8B, FAST).unwrap())
        .collect();
    let regions = [Region::UsEast, Region::EuWest, Region::ApNortheast];
    let lbs: Vec<BalancerServer> = regions
        .iter()
        .enumerate()
        .map(|(i, r)| {
            BalancerServer::spawn(
                LbId(i as u32),
                BalancerConfig::skywalker(*r),
                Duration::from_millis(10),
            )
            .unwrap()
        })
        .collect();
    // us gets replicas 0-1, eu gets 2-3, ap gets none.
    lbs[0]
        .attach_replica(ReplicaId(0), replicas[0].addr())
        .unwrap();
    lbs[0]
        .attach_replica(ReplicaId(1), replicas[1].addr())
        .unwrap();
    lbs[1]
        .attach_replica(ReplicaId(2), replicas[2].addr())
        .unwrap();
    lbs[1]
        .attach_replica(ReplicaId(3), replicas[3].addr())
        .unwrap();
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                lbs[i]
                    .connect_peer(LbId(j as u32), regions[j], lbs[j].addr())
                    .unwrap();
            }
        }
    }
    std::thread::sleep(Duration::from_millis(120)); // let probes settle

    // Local request to a balancer that has replicas.
    let mut us_client = LiveClient::connect(lbs[0].addr()).unwrap();
    let out = us_client
        .run(&Request::new(
            1,
            "us-user",
            (0..128).collect::<Vec<u32>>(),
            16,
        ))
        .unwrap();
    assert_eq!(out.generated, 16);

    // Request to the replica-less balancer: must forward, not fail.
    let mut ap_client = LiveClient::connect(lbs[2].addr()).unwrap();
    let out = ap_client
        .run(&Request::new(
            2,
            "ap-user",
            (500..700).collect::<Vec<u32>>(),
            8,
        ))
        .unwrap();
    assert_eq!(out.generated, 8);
    assert!(lbs[2].forwarded() >= 1);

    for lb in lbs {
        lb.shutdown();
    }
    for r in replicas {
        r.shutdown();
    }
}

#[test]
fn session_affinity_warms_caches_over_the_wire() {
    let r0 = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, FAST).unwrap();
    let r1 = ReplicaServer::spawn(ReplicaId(1), GpuProfile::L4_LLAMA_8B, FAST).unwrap();
    let lb = BalancerServer::spawn(
        LbId(0),
        BalancerConfig::skywalker_ch(Region::UsEast),
        Duration::from_millis(10),
    )
    .unwrap();
    lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
    lb.attach_replica(ReplicaId(1), r1.addr()).unwrap();

    // A three-turn "conversation": each turn extends the previous prompt.
    let mut client = LiveClient::connect(lb.addr()).unwrap();
    let mut prompt: Vec<u32> = (0..200).collect();
    let mut cached_last = 0;
    for (i, turn) in (0..3u64).enumerate() {
        if i > 0 {
            await_available_replicas(lb.addr(), 2.0);
        }
        let out = client
            .run(&Request::new(10 + turn, "user-7/conv-0", prompt.clone(), 8))
            .unwrap();
        if i > 0 {
            assert!(
                out.cached_prompt_tokens > cached_last,
                "turn {i} cached {} tokens",
                out.cached_prompt_tokens
            );
        }
        cached_last = out.cached_prompt_tokens;
        prompt.extend((0..50).map(|k| 10_000 + turn as u32 * 100 + k));
    }

    lb.shutdown();
    r0.shutdown();
    r1.shutdown();
}

/// No transport stall on the request path: at this scale a request is
/// modelled at well under a millisecond and measures a few tenths of one.
/// The bound is half of Linux's 40 ms delayed-ACK timer, which is what a
/// frame split over two writes, or a Nagle socket, waits for — so this
/// fails only if such a stall comes back, not on a slow machine.
#[test]
fn median_ttft_is_far_below_a_delayed_ack() {
    let r0 = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, FAST).unwrap();
    let lb = BalancerServer::spawn(
        LbId(0),
        BalancerConfig::skywalker(Region::UsEast),
        Duration::from_millis(10),
    )
    .unwrap();
    lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();

    let mut client = LiveClient::connect(lb.addr()).unwrap();
    let mut ttft: Vec<Duration> = (0..50u64)
        .map(|i| {
            let prompt: Vec<u32> = (0..64).map(|t| i as u32 * 100 + t).collect();
            let req = Request::new(i, format!("u{i}"), prompt, 8);
            client.run(&req).unwrap().ttft
        })
        .collect();
    ttft.sort();
    assert!(
        ttft[25] < Duration::from_millis(20),
        "median {:?}",
        ttft[25]
    );

    lb.shutdown();
    r0.shutdown();
}

#[test]
fn balancer_queues_when_replicas_are_full() {
    // One tiny-capacity replica; a slow long request occupies it while a
    // burst arrives. With SP-P the burst waits at the balancer and all
    // requests still complete.
    let r0 = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, FAST).unwrap();
    let lb = BalancerServer::spawn(
        LbId(0),
        BalancerConfig::skywalker(Region::UsEast),
        Duration::from_millis(5),
    )
    .unwrap();
    lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();

    let addr = lb.addr();
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = LiveClient::connect(addr).unwrap();
                c.run(&Request::new(
                    100 + i,
                    format!("u{i}"),
                    vec![i as u32; 4000],
                    64,
                ))
                .unwrap()
                .generated
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 64);
    }
    lb.shutdown();
    r0.shutdown();
}

/// Parses a Prometheus text exposition into (name, labels, value) sample
/// lines, panicking on anything malformed — the test's stand-in for a
/// real scraper.
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a metric name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown TYPE {kind} for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (key, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().expect("sample value parses as f64");
        samples.push((key.to_string(), value));
    }
    samples
}

/// A balancer's scrape after three requests from one client, each a
/// repeat of the same 64-token prompt, on one replica.
const LB_SCRAPE: &str = r#"# TYPE skywalker_lb_available_replicas gauge
skywalker_lb_available_replicas{region="us-east-1"} 1
# TYPE skywalker_lb_dispatched_local_total counter
skywalker_lb_dispatched_local_total{region="us-east-1"} 3
# TYPE skywalker_lb_forwarded_total counter
skywalker_lb_forwarded_total{region="us-east-1"} 0
# TYPE skywalker_lb_peak_queue gauge
skywalker_lb_peak_queue{region="us-east-1"} 1
# TYPE skywalker_lb_queue_depth gauge
skywalker_lb_queue_depth{region="us-east-1"} 0
# TYPE skywalker_lb_received_total counter
skywalker_lb_received_total{region="us-east-1"} 3
"#;

/// That replica's scrape after the same three requests.
const REPLICA_SCRAPE: &str = r#"# TYPE skywalker_kv_utilization gauge
skywalker_kv_utilization{replica="0"} 0.0022786458333333335
# TYPE skywalker_replica_admitted_total counter
skywalker_replica_admitted_total{replica="0"} 3
# TYPE skywalker_replica_cached_prompt_tokens_total counter
skywalker_replica_cached_prompt_tokens_total{replica="0"} 128
# TYPE skywalker_replica_completed_total counter
skywalker_replica_completed_total{replica="0"} 3
# TYPE skywalker_replica_generated_tokens_total counter
skywalker_replica_generated_tokens_total{replica="0"} 24
# TYPE skywalker_replica_hit_ratio gauge
skywalker_replica_hit_ratio{replica="0"} 0.6666666666666666
# TYPE skywalker_replica_pending gauge
skywalker_replica_pending{replica="0"} 0
# TYPE skywalker_replica_prompt_tokens_total counter
skywalker_replica_prompt_tokens_total{replica="0"} 192
# TYPE skywalker_replica_running gauge
skywalker_replica_running{replica="0"} 0
"#;

/// Both servers' scrape texts, byte for byte, for a fixed request
/// sequence: the exposition every scraper of a live cluster — skybench's
/// `live_loopback` counters among them — parses.
#[test]
fn scrape_texts_are_pinned() {
    let r0 = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, FAST).unwrap();
    let lb = BalancerServer::spawn(
        LbId(0),
        BalancerConfig::skywalker(Region::UsEast),
        Duration::from_millis(10),
    )
    .unwrap();
    lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();
    let mut client = LiveClient::connect(lb.addr()).unwrap();
    for i in 0..3u64 {
        let out = client
            .run(&Request::new(i, "u", (0..64).collect::<Vec<u32>>(), 8))
            .unwrap();
        assert_eq!(out.generated, 8);
    }
    // A probe after the last completion: the replica reads available.
    await_available_replicas(lb.addr(), 1.0);
    assert_eq!(scrape_metrics(lb.addr()).unwrap(), LB_SCRAPE);
    assert_eq!(scrape_metrics(r0.addr()).unwrap(), REPLICA_SCRAPE);
    lb.shutdown();
    r0.shutdown();
}

#[test]
fn metrics_scrape_over_the_wire() {
    let r0 = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, FAST).unwrap();
    let lb = BalancerServer::spawn(
        LbId(0),
        BalancerConfig::skywalker(Region::UsEast),
        Duration::from_millis(10),
    )
    .unwrap();
    lb.attach_replica(ReplicaId(0), r0.addr()).unwrap();

    // Serve some traffic so the counters are nonzero.
    let mut client = LiveClient::connect(lb.addr()).unwrap();
    for i in 0..3u64 {
        let out = client
            .run(&Request::new(
                i,
                format!("u{i}"),
                (0..64).collect::<Vec<u32>>(),
                8,
            ))
            .unwrap();
        assert_eq!(out.generated, 8);
    }

    // Framed scrape of the balancer: parses, is deterministically
    // ordered, and agrees with the server's own accounting.
    let lb_text = scrape_metrics(lb.addr()).unwrap();
    let samples = parse_exposition(&lb_text);
    assert!(!samples.is_empty());
    let mut keys: Vec<&String> = samples.iter().map(|(k, _)| k).collect();
    keys.dedup();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "samples must arrive in sorted order");
    let received = samples
        .iter()
        .find(|(k, _)| k.starts_with("skywalker_lb_received_total"))
        .expect("balancer exposes the received counter");
    assert_eq!(received.1, 3.0);
    let forwarded = samples
        .iter()
        .find(|(k, _)| k.starts_with("skywalker_lb_forwarded_total"))
        .expect("balancer exposes the forwarded counter");
    assert_eq!(forwarded.1, lb.forwarded() as f64);
    assert!(lb_text.contains(r#"region="us-east-1""#));

    // Scraping twice is stable modulo values: same keys, same order.
    let again = parse_exposition(&scrape_metrics(lb.addr()).unwrap());
    assert_eq!(
        samples.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        again.iter().map(|(k, _)| k).collect::<Vec<_>>(),
    );

    // Framed scrape of the replica.
    let rep_samples = parse_exposition(&scrape_metrics(r0.addr()).unwrap());
    // Both servers publish only names from the shared table (neither
    // exposes a distribution, so every sample key is `name{labels}`).
    for (key, _) in samples.iter().chain(&rep_samples) {
        let name = key.split('{').next().expect("split yields a first piece");
        assert!(
            skywalker::telemetry::names::ALL.contains(&name),
            "{name} is not in the metric-name table"
        );
    }
    let completed = rep_samples
        .iter()
        .find(|(k, _)| k.starts_with("skywalker_replica_completed_total"))
        .expect("replica exposes the completed counter");
    assert_eq!(completed.1, 3.0);

    // ASCII scrape: what `nc` or `curl` would see.
    let mut raw = TcpStream::connect(lb.addr()).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"));
    let body = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split")
        .1;
    assert_eq!(parse_exposition(body).len(), samples.len());

    lb.shutdown();
    r0.shutdown();
}
