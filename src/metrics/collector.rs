//! Per-request lifecycle tracking and run-level aggregation.
//!
//! Every experiment in the paper reports the same aggregates: service
//! throughput (tokens per second), the TTFT distribution, the end-to-end
//! latency distribution, and the KV-cache hit rate. [`RequestTracker`]
//! collects the three lifecycle timestamps per request — arrival at the
//! client, first output token, completion — plus token accounting, and
//! reduces them to a [`RunReport`].
//!
//! A record lives only while something can still change it. Once a
//! request is completed or failed *and* has its first token, no call
//! alters what it contributes, so the tracker folds it into running
//! totals — the exact-quantile latency samples (two `f64`s), a count in
//! a histogram of hop counts, and integer sums — frees its slot for
//! reuse and forgets the id. What the tracker holds therefore follows
//! the in-flight population plus 16 bytes of samples per finished
//! request, not one whole record per request ever seen.
//! The two terminal states that wait: a completed request whose first
//! token is still in flight to the client (the two deliveries draw
//! independent delays), and a failed request that never produced one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use skywalker_sim::{SimDuration, SimTime};

use super::Summary;

#[derive(Debug)]
struct Record {
    arrived: SimTime,
    first_token: Option<SimTime>,
    completed: Option<SimTime>,
    failed: bool,
    retried: bool,
    retries: u32,
    hops: Option<u8>,
    prompt_tokens: u64,
    cached_prompt_tokens: u64,
    generated_tokens: u64,
}

impl Record {
    /// True once no tracker call can change this record's contribution
    /// to a report: terminal, and the first token (which may trail the
    /// completion) has been seen.
    fn is_settled(&self) -> bool {
        (self.completed.is_some() || self.failed) && self.first_token.is_some()
    }
}

/// The per-record part of a [`RunReport`], summed over a set of records.
/// Every reduction is order-insensitive — integer sums, and samples that
/// [`Summary::of`] sorts before it sums — so settled records can be added
/// as they finish and the rest at report time with the same result as
/// one pass over all of them. The latency samples (seconds) are finite
/// by construction, as [`Summary::of_in_place`] needs; hop counts are
/// small integers, so they are kept as a histogram for
/// [`Summary::of_counts`].
#[derive(Debug, Default)]
struct Totals {
    ttft: Vec<f64>,
    e2e: Vec<f64>,
    /// `hops[h]`: how many requests carried a chain of `h` hops.
    hops: Vec<u64>,
    completed: u64,
    in_flight: u64,
    prompt_tokens: u64,
    cached_tokens: u64,
    generated_tokens: u64,
    retry_events: u64,
}

impl Totals {
    fn add(&mut self, r: &Record) {
        if let Some(ft) = r.first_token {
            self.ttft.push(ft.saturating_since(r.arrived).as_secs_f64());
        }
        if let Some(h) = r.hops {
            let h = usize::from(h);
            if self.hops.len() <= h {
                self.hops.resize(h + 1, 0);
            }
            self.hops[h] += 1;
        }
        self.retry_events += r.retries as u64;
        match r.completed {
            Some(done) => {
                self.completed += 1;
                self.e2e
                    .push(done.saturating_since(r.arrived).as_secs_f64());
                self.prompt_tokens += r.prompt_tokens;
                self.cached_tokens += r.cached_prompt_tokens;
                self.generated_tokens += r.generated_tokens;
            }
            None if r.failed => {}
            None => self.in_flight += 1,
        }
    }
}

/// Collects request lifecycle events during a run.
///
/// # Examples
///
/// ```
/// use skywalker::metrics::RequestTracker;
/// use skywalker::sim::SimTime;
///
/// let mut t = RequestTracker::new();
/// t.arrival(1, SimTime::from_millis(0), 512);
/// t.first_token(1, SimTime::from_millis(300));
/// t.completion(1, SimTime::from_millis(1300), 100, 256);
/// let report = t.report(SimTime::from_secs(2));
/// assert_eq!(report.completed, 1);
/// assert!((report.ttft.p50 - 0.3).abs() < 1e-9);
/// assert!((report.cache_hit_rate - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Default)]
pub struct RequestTracker {
    /// Slab of the records not yet settled; `None` marks a vacated slot
    /// waiting in `free`. Aggregation walks it by slot.
    records: Vec<Option<Record>>,
    /// Vacated slots of `records`, reused before the slab grows.
    free: Vec<usize>,
    /// Unsettled request id → slab slot. Hashed with a fixed key: ids
    /// are removed as they settle, and with a random key the table's
    /// tombstones — hence the instant it regrows — would differ from run
    /// to run, which would make a run's peak heap inexact under a seed.
    index: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>, // det-allow(D02): lookup-only — keyed by request id, never iterated
    /// What the settled records contribute to a report.
    settled: Totals,
    failed: u64,
    retried: u64,
}

impl RequestTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_mut(&mut self, slot: usize) -> &mut Record {
        self.records[slot]
            .as_mut()
            .expect("an indexed slot holds a record")
    }

    fn rec_mut(&mut self, id: u64) -> Option<&mut Record> {
        let slot = *self.index.get(&id)?;
        Some(self.slot_mut(slot))
    }

    /// Folds `id`'s record into the settled totals and releases its slot
    /// and index entry, if nothing can change it any more.
    fn settle(&mut self, id: u64, slot: usize) {
        if let Some(record) = self.records[slot].take_if(|r| r.is_settled()) {
            self.settled.add(&record);
            self.free.push(slot);
            self.index.remove(&id);
        }
    }

    /// Records a request issued at `at` with `prompt_tokens` prompt tokens.
    /// Re-registering an id whose record is still open overwrites that
    /// record; a settled id has been forgotten, so it registers afresh.
    pub fn arrival(&mut self, id: u64, at: SimTime, prompt_tokens: u64) {
        let record = Some(Record {
            arrived: at,
            first_token: None,
            completed: None,
            failed: false,
            retried: false,
            retries: 0,
            hops: None,
            prompt_tokens,
            cached_prompt_tokens: 0,
            generated_tokens: 0,
        });
        let slot = match self.index.get(&id) {
            Some(&slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.records.push(None);
                    self.records.len() - 1
                });
                self.index.insert(id, slot);
                slot
            }
        };
        self.records[slot] = record;
    }

    /// Records the first output token for `id` and returns the request's
    /// time to first token. `None` for an unknown id and for a repeated
    /// first token (the first observation wins).
    pub fn first_token(&mut self, id: u64, at: SimTime) -> Option<SimDuration> {
        let slot = *self.index.get(&id)?;
        let r = self.slot_mut(slot);
        if r.first_token.is_some() {
            return None;
        }
        r.first_token = Some(at);
        let ttft = at.saturating_since(r.arrived);
        self.settle(id, slot);
        Some(ttft)
    }

    /// Records completion for `id` with the generated token count and how
    /// many prompt tokens were served from the prefix cache.
    pub fn completion(&mut self, id: u64, at: SimTime, generated: u64, cached_prompt: u64) {
        if let Some(&slot) = self.index.get(&id) {
            let r = self.slot_mut(slot);
            if r.completed.is_none() && !r.failed {
                r.completed = Some(at);
                r.generated_tokens = generated;
                r.cached_prompt_tokens = cached_prompt.min(r.prompt_tokens);
                self.settle(id, slot);
            }
        }
    }

    /// Records a rejected/failed request: it stops counting as in-flight
    /// and is reported as failed. Failing a completed (or already-failed)
    /// request is ignored.
    pub fn failure(&mut self, id: u64) {
        if let Some(&slot) = self.index.get(&id) {
            let r = self.slot_mut(slot);
            if r.completed.is_none() && !r.failed {
                r.failed = true;
                self.failed += 1;
                self.settle(id, slot);
            }
        }
    }

    /// Records that a live request was retried/rerouted (a crashed
    /// balancer or replica forced it onto another path). Counted once
    /// per *request*, however many times it bounces — so the number is
    /// comparable across retry-delay and polling configurations.
    /// Unknown, completed, and failed ids are ignored.
    pub fn retry(&mut self, id: u64) {
        let mut newly_retried = false;
        if let Some(r) = self.rec_mut(id) {
            if r.completed.is_none() && !r.failed {
                r.retries += 1;
                if !r.retried {
                    r.retried = true;
                    newly_retried = true;
                }
            }
        }
        if newly_retried {
            self.retried += 1;
        }
    }

    /// Records the hop count a request carried when a balancer accepted
    /// it. A request can pass several balancers (selective pushing
    /// forwards it with `hops + 1`); the largest observation wins, so
    /// the recorded value is the full length of the forwarding chain.
    /// Unknown ids are ignored.
    pub fn record_hops(&mut self, id: u64, hops: u8) {
        if let Some(r) = self.rec_mut(id) {
            r.hops = Some(r.hops.map_or(hops, |h| h.max(hops)));
        }
    }

    /// Aggregates everything observed so far into a [`RunReport`].
    ///
    /// `run_end` bounds the measurement window for throughput: tokens of
    /// completed requests divided by the window length. TTFT and end-to-end
    /// distributions include only requests that reached the respective
    /// lifecycle point. Takes `&mut self` only to sort the settled samples
    /// in place; calling it changes no later report.
    pub fn report(&mut self, run_end: SimTime) -> RunReport {
        // The sums and hop counts continue from the settled ones; the
        // open records' latency samples are gathered apart, so that the
        // settled samples are summarized where they are instead of being
        // copied first.
        let settled = &mut self.settled;
        let mut t = Totals {
            ttft: Vec::new(),
            e2e: Vec::new(),
            hops: settled.hops.clone(),
            ..*settled
        };
        for r in self.records.iter().flatten() {
            t.add(r);
        }
        let window = run_end.as_secs_f64();
        let service_tokens = t.prompt_tokens + t.generated_tokens;
        RunReport {
            completed: t.completed,
            in_flight: t.in_flight,
            failed: self.failed,
            retried: self.retried,
            retry_events: t.retry_events,
            prompt_tokens: t.prompt_tokens,
            cached_prompt_tokens: t.cached_tokens,
            generated_tokens: t.generated_tokens,
            throughput_tps: if window > 0.0 {
                service_tokens as f64 / window
            } else {
                0.0
            },
            cache_hit_rate: if t.prompt_tokens > 0 {
                t.cached_tokens as f64 / t.prompt_tokens as f64
            } else {
                0.0
            },
            ttft: summary_with(&mut settled.ttft, t.ttft),
            e2e: summary_with(&mut settled.e2e, t.e2e),
            hops: Summary::of_counts(&t.hops),
        }
    }
}

/// The summary of the `settled` and `open` samples taken together. Sorts
/// `settled` in place, and copies it only if `open` has any samples.
fn summary_with(settled: &mut [f64], mut open: Vec<f64>) -> Summary {
    if open.is_empty() {
        return Summary::of_in_place(settled);
    }
    open.extend_from_slice(settled);
    Summary::of_in_place(&mut open)
}

/// Aggregated results of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Requests that completed inside the window.
    pub completed: u64,
    /// Requests still in flight at the end of the window.
    pub in_flight: u64,
    /// Requests rejected or failed.
    pub failed: u64,
    /// Requests that were retried/rerouted at least once (crashed
    /// balancers or replicas forced them onto another path). Counts
    /// requests, not bounce events, so the number is comparable across
    /// retry-delay configurations.
    pub retried: u64,
    /// Total retry *events* across all requests — the companion to
    /// [`retried`](Self::retried) that does count every bounce, so
    /// attribution can tell "many requests bounced once" apart from
    /// "one request ping-ponged".
    pub retry_events: u64,
    /// Total prompt tokens across completed requests.
    pub prompt_tokens: u64,
    /// Prompt tokens served from the prefix cache.
    pub cached_prompt_tokens: u64,
    /// Output tokens generated by completed requests.
    pub generated_tokens: u64,
    /// Service throughput: (prompt + generated) tokens per second of run
    /// time, the paper's headline throughput metric.
    pub throughput_tps: f64,
    /// KV-cache hit rate: cached / total prompt tokens.
    pub cache_hit_rate: f64,
    /// Time-to-first-token distribution, in seconds.
    pub ttft: Summary,
    /// End-to-end latency distribution, in seconds.
    pub e2e: Summary,
    /// Forwarding-chain length per request (1 = served by the balancer
    /// that first received it; each selective-pushing forward adds one).
    /// Only requests that reached a balancer contribute.
    pub hops: Summary,
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use skywalker_sim::DetRng;

    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// The reference the settling tracker is held to: every request kept
    /// whole to the end, reduced in one pass at report time.
    #[derive(Default)]
    struct KeepEverything {
        requests: BTreeMap<u64, Kept>,
        /// Requests ever failed / ever retried: running counts, which a
        /// re-registration does not take back.
        failed: u64,
        retried: u64,
    }

    #[derive(Default)]
    struct Kept {
        arrived: SimTime,
        prompt: u64,
        first_token: Option<SimTime>,
        /// (at, generated, cached prompt tokens).
        completed: Option<(SimTime, u64, u64)>,
        failed: bool,
        retries: u64,
        hops: Option<u8>,
    }

    impl Kept {
        fn terminal(&self) -> bool {
            self.completed.is_some() || self.failed
        }

        fn open(&self) -> bool {
            !(self.terminal() && self.first_token.is_some())
        }
    }

    impl KeepEverything {
        fn open_ids(&self) -> Vec<u64> {
            let open = self.requests.iter().filter(|(_, k)| k.open());
            open.map(|(&id, _)| id).collect()
        }

        fn report(&self, run_end: SimTime) -> RunReport {
            let (mut ttft, mut e2e, mut hops) = (Vec::new(), Vec::new(), Vec::new());
            let mut r = RunReport {
                completed: 0,
                in_flight: 0,
                failed: self.failed,
                retried: self.retried,
                retry_events: 0,
                prompt_tokens: 0,
                cached_prompt_tokens: 0,
                generated_tokens: 0,
                throughput_tps: 0.0,
                cache_hit_rate: 0.0,
                ttft: Summary::EMPTY,
                e2e: Summary::EMPTY,
                hops: Summary::EMPTY,
            };
            for k in self.requests.values() {
                if let Some(ft) = k.first_token {
                    ttft.push(ft.saturating_since(k.arrived).as_secs_f64());
                }
                if let Some(h) = k.hops {
                    hops.push(f64::from(h));
                }
                r.retry_events += k.retries;
                match k.completed {
                    Some((at, generated, cached)) => {
                        r.completed += 1;
                        e2e.push(at.saturating_since(k.arrived).as_secs_f64());
                        r.prompt_tokens += k.prompt;
                        r.cached_prompt_tokens += cached.min(k.prompt);
                        r.generated_tokens += generated;
                    }
                    None if k.failed => {}
                    None => r.in_flight += 1,
                }
            }
            let tokens = (r.prompt_tokens + r.generated_tokens) as f64;
            if run_end > SimTime::ZERO {
                r.throughput_tps = tokens / run_end.as_secs_f64();
            }
            if r.prompt_tokens > 0 {
                r.cache_hit_rate = r.cached_prompt_tokens as f64 / r.prompt_tokens as f64;
            }
            (r.ttft, r.e2e, r.hops) = (Summary::of(&ttft), Summary::of(&e2e), Summary::of(&hops));
            r
        }
    }

    /// Every field of a report, floats as their bit patterns.
    fn bits(r: &RunReport) -> Vec<u64> {
        let mut out = vec![
            r.completed,
            r.in_flight,
            r.failed,
            r.retried,
            r.retry_events,
            r.prompt_tokens,
            r.cached_prompt_tokens,
            r.generated_tokens,
            r.throughput_tps.to_bits(),
            r.cache_hit_rate.to_bits(),
        ];
        for s in [r.ttft, r.e2e, r.hops] {
            out.push(s.count as u64);
            let floats = [
                s.p10, s.p25, s.p50, s.p75, s.p90, s.p99, s.mean, s.min, s.max,
            ];
            out.extend(floats.map(f64::to_bits));
        }
        out
    }

    /// Random lifecycles — including the orders the fabric can produce
    /// only rarely (first token after completion or after failure,
    /// completion after failure, a live id registered again) — reduce to
    /// the same report, bit for bit, as keeping every request whole; and
    /// the slab holds the open requests, not the history.
    #[test]
    fn settling_matches_keeping_everything() {
        for seed in [1, 2, 61] {
            let mut rng = DetRng::new(seed);
            let mut t = RequestTracker::new();
            let mut model = KeepEverything::default();
            let (mut now, mut next_id, mut most_open) = (0u64, 0u64, 0);
            for step in 0..8_000 {
                now += rng.below(40);
                let at = ms(now);
                let open = model.open_ids();
                // Terminal requests no longer travel, so like the fabric
                // the script addresses open ids (and, one time in ten, an
                // id nobody registered).
                let id = match rng.choose(&open) {
                    Some(&id) if !rng.chance(0.1) => id,
                    _ => u64::MAX - rng.below(4),
                };
                let known = model.requests.get_mut(&id);
                match rng.below(8) {
                    0 | 1 => {
                        let (id, prompt) = (next_id, rng.below(4_000));
                        next_id += 1;
                        t.arrival(id, at, prompt);
                        let fresh = Kept {
                            arrived: at,
                            prompt,
                            ..Kept::default()
                        };
                        model.requests.insert(id, fresh);
                    }
                    2 => {
                        let hops = rng.below(5) as u8;
                        t.record_hops(id, hops);
                        if let Some(k) = known {
                            k.hops = Some(k.hops.map_or(hops, |h| h.max(hops)));
                        }
                    }
                    3 => {
                        t.retry(id);
                        if let Some(k) = known.filter(|k| !k.terminal()) {
                            k.retries += 1;
                            model.retried += u64::from(k.retries == 1);
                        }
                    }
                    4 | 5 => {
                        let expected = known.filter(|k| k.first_token.is_none()).map(|k| {
                            k.first_token = Some(at);
                            at.saturating_since(k.arrived)
                        });
                        assert_eq!(t.first_token(id, at), expected, "seed {seed} step {step}");
                    }
                    6 => {
                        let (generated, cached) = (rng.below(900), rng.below(5_000));
                        t.completion(id, at, generated, cached);
                        if let Some(k) = known.filter(|k| !k.terminal()) {
                            k.completed = Some((at, generated, cached));
                        }
                    }
                    _ if rng.chance(0.5) => {
                        t.failure(id);
                        if let Some(k) = known.filter(|k| !k.terminal()) {
                            k.failed = true;
                            model.failed += 1;
                        }
                    }
                    _ => {
                        // A live id registered again starts over.
                        if let Some(k) = known {
                            let prompt = rng.below(4_000);
                            t.arrival(id, at, prompt);
                            *k = Kept {
                                arrived: at,
                                prompt,
                                ..Kept::default()
                            };
                        }
                    }
                }
                most_open = most_open.max(model.open_ids().len());
                assert!(t.records.len() <= most_open, "seed {seed} step {step}");
                if step % 500 == 499 {
                    let end = ms(now + 1);
                    assert_eq!(
                        bits(&t.report(end)),
                        bits(&model.report(end)),
                        "seed {seed} step {step}"
                    );
                }
            }
            let settled = model.requests.len() - model.open_ids().len();
            assert!(
                settled > 500,
                "seed {seed}: the script settled only {settled}"
            );
            assert_eq!(t.index.len(), model.open_ids().len());
        }
    }

    #[test]
    fn full_lifecycle_aggregates() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 100);
        t.arrival(2, ms(0), 100);
        t.first_token(1, ms(200));
        t.first_token(2, ms(400));
        t.completion(1, ms(1000), 50, 100);
        t.completion(2, ms(2000), 150, 0);
        let r = t.report(SimTime::from_secs(10));
        assert_eq!(r.completed, 2);
        assert_eq!(r.in_flight, 0);
        assert_eq!(r.prompt_tokens, 200);
        assert_eq!(r.generated_tokens, 200);
        assert!((r.cache_hit_rate - 0.5).abs() < 1e-9);
        assert!((r.throughput_tps - 40.0).abs() < 1e-9);
        assert!((r.ttft.p50 - 0.3).abs() < 1e-9);
        assert!((r.e2e.mean - 1.5).abs() < 1e-9);
    }

    #[test]
    fn in_flight_requests_counted_but_not_aggregated() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 100);
        t.first_token(1, ms(100));
        let r = t.report(SimTime::from_secs(1));
        assert_eq!(r.completed, 0);
        assert_eq!(r.in_flight, 1);
        assert_eq!(r.prompt_tokens, 0);
        // TTFT still counted: the request produced a first token.
        assert_eq!(r.ttft.count, 1);
        assert_eq!(r.e2e.count, 0);
    }

    #[test]
    fn unknown_ids_ignored() {
        let mut t = RequestTracker::new();
        t.first_token(99, ms(1));
        t.completion(99, ms(2), 1, 0);
        assert!(t.index.is_empty() && t.records.is_empty());
    }

    #[test]
    fn duplicate_events_first_wins() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.first_token(1, ms(100));
        t.first_token(1, ms(999));
        t.completion(1, ms(500), 5, 2);
        t.completion(1, ms(900), 50, 9);
        let r = t.report(SimTime::from_secs(1));
        assert!((r.ttft.p50 - 0.1).abs() < 1e-9);
        assert!((r.e2e.p50 - 0.5).abs() < 1e-9);
        assert_eq!(r.generated_tokens, 5);
    }

    #[test]
    fn cached_tokens_clamped_to_prompt() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.completion(1, ms(10), 1, 999);
        let r = t.report(SimTime::from_secs(1));
        assert_eq!(r.cached_prompt_tokens, 10);
        assert!((r.cache_hit_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failures_tracked() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.failure(1);
        t.failure(1); // repeat: still one failure
        t.failure(42); // unknown id: no effect
        let r = t.report(SimTime::from_secs(1));
        assert_eq!((r.failed, r.completed, r.in_flight), (1, 0, 0));
    }

    #[test]
    fn failure_is_terminal() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.failure(1);
        // A straggling completion for a failed request is ignored: it
        // stays failed and nothing double-counts.
        t.completion(1, ms(5), 3, 0);
        let r = t.report(SimTime::from_secs(1));
        assert_eq!((r.failed, r.completed, r.in_flight), (1, 0, 0));
        assert_eq!((r.e2e.count, r.generated_tokens), (0, 0));
        // And failing a completed request is equally ignored — whether
        // its record is still open (2) or already settled (3).
        t.arrival(2, ms(0), 10);
        t.completion(2, ms(5), 3, 0);
        t.failure(2);
        t.arrival(3, ms(0), 10);
        t.first_token(3, ms(1));
        t.completion(3, ms(5), 3, 0);
        t.failure(3);
        let r = t.report(SimTime::from_secs(1));
        assert_eq!((r.failed, r.completed, r.in_flight), (1, 2, 0));
        assert_eq!((r.e2e.count, r.generated_tokens), (2, 6));
    }

    #[test]
    fn retries_counted_once_per_live_request() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.retry(1);
        t.retry(1); // second bounce of the same request: still one
        t.arrival(2, ms(0), 10);
        t.completion(2, ms(5), 1, 0);
        t.retry(2); // completed: ignored
        t.retry(99); // unknown: ignored
        let r = t.report(SimTime::from_secs(1));
        assert_eq!(r.retried, 1);
        // ... but the event counter sees both bounces of request 1, and
        // nothing from the completed or the unknown id.
        assert_eq!(r.retry_events, 2);
        // The bounces survive the record settling.
        t.first_token(1, ms(7));
        t.completion(1, ms(9), 1, 0);
        t.retry(1);
        let r = t.report(SimTime::from_secs(1));
        assert_eq!((r.retried, r.retry_events), (1, 2));
    }

    #[test]
    fn hops_keep_the_longest_chain() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.record_hops(1, 1);
        t.record_hops(1, 3); // forwarded twice: chain length 3
        t.record_hops(1, 2); // a stale lower observation never shrinks it
        t.arrival(2, ms(0), 10);
        t.record_hops(2, 1);
        t.arrival(3, ms(0), 10); // never reached a balancer
        t.record_hops(99, 7); // unknown: ignored
        let r = t.report(SimTime::from_secs(1));
        // Requests 1 and 2 only: 3 and 99 contribute no sample.
        assert_eq!(r.hops.count, 2);
        assert!((r.hops.max - 3.0).abs() < 1e-9);
        assert!((r.hops.min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failed_requests_keep_their_ttft() {
        // A request that streamed a first token and then died contributes
        // its (real) TTFT but no end-to-end sample.
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.first_token(1, ms(200));
        t.failure(1);
        let r = t.report(SimTime::from_secs(1));
        assert_eq!(r.ttft.count, 1);
        assert_eq!(r.e2e.count, 0);
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn outcomes_reported() {
        let mut t = RequestTracker::new();
        let outcomes = |t: &mut RequestTracker| {
            let r = t.report(SimTime::from_secs(1));
            (r.in_flight, r.completed, r.failed)
        };
        t.arrival(1, ms(0), 10);
        assert_eq!(outcomes(&mut t), (1, 0, 0));
        t.completion(1, ms(5), 1, 0);
        assert_eq!(outcomes(&mut t), (0, 1, 0));
        t.completion(2, ms(5), 1, 0); // never registered: no outcome
        assert_eq!(outcomes(&mut t), (0, 1, 0));
    }

    #[test]
    fn zero_window_throughput_is_zero() {
        let mut t = RequestTracker::new();
        t.arrival(1, ms(0), 10);
        t.completion(1, ms(0), 1, 0);
        let r = t.report(SimTime::ZERO);
        assert_eq!(r.throughput_tps, 0.0);
    }
}
