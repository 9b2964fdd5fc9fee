//! Per-request lifecycle tracking and run-level aggregation.
//!
//! Every experiment in the paper reports the same aggregates: service
//! throughput (tokens per second), the TTFT distribution, the end-to-end
//! latency distribution, and the KV-cache hit rate. A [`Record`] holds
//! the three lifecycle timestamps of one request — arrival at the
//! client, first output token, completion — plus token accounting, and
//! a [`Ledger`] reduces records to a [`RunReport`].
//!
//! A record settles once the request is completed or failed *and* has
//! its first token: no lifecycle call alters what it contributes after
//! that, so the ledger folds it into running totals — the exact-quantile
//! latency samples (two whole µs counts, four bytes each below 2³² µs),
//! a count in a histogram of hop counts, and integer sums — the moment
//! it settles, and the report adds only the records still open.
//! Whoever holds the records decides when to let a settled one go: the
//! fabric keeps each in its request's `ReqState`, the one table a
//! request in flight lives in, and [`RequestTracker`] keeps the open
//! ones by id. The two terminal states
//! that wait: a completed request whose first token is still in flight
//! to the client (the two deliveries draw independent delays), and a
//! failed request that never produced one.

use std::collections::BTreeMap;
use std::num::NonZeroU64;

use skywalker_sim::{SimDuration, SimTime};

use super::{ratio, Summary};

/// A point of a request's life as the time since its arrival, saturated
/// at zero — all a report reads of it — held one microsecond up, so that
/// `Option<Elapsed>` takes eight bytes where `Option<SimTime>` takes
/// sixteen.
#[derive(Debug, Clone, Copy)]
struct Elapsed(NonZeroU64);

impl Elapsed {
    fn between(arrived: SimTime, at: SimTime) -> Elapsed {
        let micros = at.saturating_since(arrived).as_micros();
        Elapsed(NonZeroU64::MIN.saturating_add(micros))
    }

    fn duration(self) -> SimDuration {
        SimDuration::from_micros(self.0.get() - 1)
    }
}

/// One request's lifecycle, from its arrival until it settles.
#[derive(Debug, Default)]
pub(crate) struct Record {
    arrived: SimTime,
    first_token: Option<Elapsed>,
    completed: Option<Elapsed>,
    failed: bool,
    retries: u32,
    hops: Option<u8>,
    prompt_tokens: u64,
    cached_prompt_tokens: u64,
    generated_tokens: u64,
}

impl Record {
    /// A request issued at `arrived` with `prompt_tokens` prompt tokens.
    pub(crate) fn new(arrived: SimTime, prompt_tokens: u64) -> Record {
        Record {
            arrived,
            prompt_tokens,
            ..Record::default()
        }
    }

    fn is_terminal(&self) -> bool {
        self.completed.is_some() || self.failed
    }

    /// True once no lifecycle call can change this record's contribution
    /// to a report: terminal, and the first token (which may trail the
    /// completion) has been seen.
    pub(crate) fn is_settled(&self) -> bool {
        self.is_terminal() && self.first_token.is_some()
    }

    /// Whether the request completed.
    pub(crate) fn is_completed(&self) -> bool {
        self.completed.is_some()
    }

    /// Whether the request terminally failed.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed
    }
}

/// The reducer of a run's records. It applies each lifecycle point to
/// the request's [`Record`] — `None` when no record is held for it,
/// which leaves nothing to change — and folds a record into its running
/// totals the moment the record settles.
///
/// Every reduction is order-insensitive — integer sums, and samples
/// sorted before they are summed — so settled records can be added as
/// they finish and the rest at report time with the same result as one
/// pass over all of them. The latency samples are whole microseconds
/// ([`Samples`]); hop counts are small integers, so they are kept as a
/// histogram for [`Summary::of_counts`].
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    ttft: Samples,
    e2e: Samples,
    /// `hops[h]`: how many requests carried a chain of `h` hops.
    hops: Vec<u64>,
    completed: u64,
    in_flight: u64,
    prompt_tokens: u64,
    cached_tokens: u64,
    generated_tokens: u64,
    retry_events: u64,
    /// Requests ever failed and ever retried, counted at the failure and
    /// at the first bounce, not when the record settles.
    failed: u64,
    retried: u64,
}

impl Ledger {
    /// Adds what `r` contributes to a report.
    fn add(&mut self, r: &Record) {
        if let Some(ttft) = r.first_token {
            self.ttft.push(ttft.duration());
        }
        if let Some(h) = r.hops {
            let h = usize::from(h);
            if self.hops.len() <= h {
                self.hops.resize(h + 1, 0);
            }
            self.hops[h] += 1;
        }
        self.retry_events += u64::from(r.retries);
        match r.completed {
            Some(e2e) => {
                self.completed += 1;
                self.e2e.push(e2e.duration());
                self.prompt_tokens += r.prompt_tokens;
                self.cached_tokens += r.cached_prompt_tokens;
                self.generated_tokens += r.generated_tokens;
            }
            None if r.failed => {}
            None => self.in_flight += 1,
        }
    }

    fn add_if_settled(&mut self, r: &Record) {
        if r.is_settled() {
            self.add(r);
        }
    }

    /// Records the first output token and returns the request's time to
    /// first token; `None` for a repeated first token (the first
    /// observation wins).
    pub(crate) fn first_token(
        &mut self,
        r: Option<&mut Record>,
        at: SimTime,
    ) -> Option<SimDuration> {
        let r = r.filter(|r| r.first_token.is_none())?;
        let ttft = Elapsed::between(r.arrived, at);
        r.first_token = Some(ttft);
        self.add_if_settled(r);
        Some(ttft.duration())
    }

    /// Records completion with the generated token count and how many
    /// prompt tokens were served from the prefix cache. A completed or
    /// failed request is left as it is.
    pub(crate) fn completion(
        &mut self,
        r: Option<&mut Record>,
        at: SimTime,
        generated: u64,
        cached_prompt: u64,
    ) {
        if let Some(r) = r.filter(|r| !r.is_terminal()) {
            r.completed = Some(Elapsed::between(r.arrived, at));
            r.generated_tokens = generated;
            r.cached_prompt_tokens = cached_prompt.min(r.prompt_tokens);
            self.add_if_settled(r);
        }
    }

    /// Records a rejected/failed request: it stops counting as in-flight
    /// and is reported as failed. Failing a completed (or already-failed)
    /// request is ignored.
    pub(crate) fn failure(&mut self, r: Option<&mut Record>) {
        if let Some(r) = r.filter(|r| !r.is_terminal()) {
            r.failed = true;
            self.failed += 1;
            self.add_if_settled(r);
        }
    }

    /// Records that a live request was retried/rerouted (a crashed
    /// balancer or replica forced it onto another path). Counted once
    /// per *request*, at its first bounce — so the number is comparable
    /// across retry-delay and polling configurations — and once per
    /// bounce in the retry events. A completed or failed request is
    /// left as it is.
    pub(crate) fn retry(&mut self, r: Option<&mut Record>) {
        if let Some(r) = r.filter(|r| !r.is_terminal()) {
            r.retries += 1;
            self.retried += u64::from(r.retries == 1);
        }
    }

    /// Records the hop count a request carried when a balancer accepted
    /// it. A request can pass several balancers (selective pushing
    /// forwards it with `hops + 1`); the largest observation wins, so
    /// the recorded value is the full length of the forwarding chain. A
    /// settled record is left as it was folded.
    pub(crate) fn hops(&mut self, r: Option<&mut Record>, hops: u8) {
        if let Some(r) = r.filter(|r| !r.is_settled()) {
            r.hops = Some(r.hops.map_or(hops, |h| h.max(hops)));
        }
    }

    /// Aggregates the settled records and the `open` ones into a
    /// [`RunReport`]. `open` may hold settled records too: they were
    /// folded in as they settled, so they are skipped.
    ///
    /// `run_end` bounds the measurement window for throughput: tokens of
    /// completed requests divided by the window length. TTFT and
    /// end-to-end distributions include only requests that reached the
    /// respective lifecycle point. Takes `&mut self` only to sort the
    /// settled samples in place; calling it changes no later report.
    pub(crate) fn report<'a>(
        &mut self,
        open: impl IntoIterator<Item = &'a Record>,
        run_end: SimTime,
    ) -> RunReport {
        // The sums and hop counts continue from the settled ones; the
        // open records' latency samples are gathered apart, so that the
        // settled samples are summarized where they are instead of being
        // copied first.
        let mut t = Ledger {
            ttft: Samples::default(),
            e2e: Samples::default(),
            hops: self.hops.clone(),
            ..*self
        };
        for r in open.into_iter().filter(|r| !r.is_settled()) {
            t.add(r);
        }
        let service_tokens = t.prompt_tokens + t.generated_tokens;
        RunReport {
            completed: t.completed,
            in_flight: t.in_flight,
            failed: t.failed,
            retried: t.retried,
            retry_events: t.retry_events,
            prompt_tokens: t.prompt_tokens,
            cached_prompt_tokens: t.cached_tokens,
            generated_tokens: t.generated_tokens,
            throughput_tps: ratio(service_tokens as f64, run_end.as_secs_f64()),
            cache_hit_rate: ratio(t.cached_tokens as f64, t.prompt_tokens as f64),
            ttft: self.ttft.summary_with(t.ttft),
            e2e: self.e2e.summary_with(t.e2e),
            hops: Summary::of_counts(&t.hops),
        }
    }
}

/// Collects request lifecycle events during a run, by request id: the
/// ledger over the open records, which it forgets as they settle. The fabric keeps its records in its own request table and
/// drives the ledger directly; this id-keyed form serves callers that
/// hold no such table (the benchmark's tracker replay).
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
    /// The records not yet settled, by request id.
    open: BTreeMap<u64, Record>,
    ledger: Ledger,
}

impl RequestTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `f` to `id`'s open record (`None` if it has none), then
    /// forgets the record if that settled it.
    fn update<T>(&mut self, id: u64, f: impl FnOnce(&mut Ledger, Option<&mut Record>) -> T) -> T {
        let out = f(&mut self.ledger, self.open.get_mut(&id));
        if self.open.get(&id).is_some_and(Record::is_settled) {
            self.open.remove(&id);
        }
        out
    }

    /// Records a request issued at `at` with `prompt_tokens` prompt tokens.
    /// Re-registering an id whose record is still open overwrites that
    /// record; a settled id has been forgotten, so it registers afresh.
    pub fn arrival(&mut self, id: u64, at: SimTime, prompt_tokens: u64) {
        self.open.insert(id, Record::new(at, prompt_tokens));
    }

    /// Records the first output token for `id` and returns the request's
    /// time to first token. `None` for an unknown id and for a repeated
    /// first token (the first observation wins).
    pub fn first_token(&mut self, id: u64, at: SimTime) -> Option<SimDuration> {
        self.update(id, |ledger, r| ledger.first_token(r, at))
    }

    /// Records completion for `id` with the generated token count and how
    /// many prompt tokens were served from the prefix cache.
    pub fn completion(&mut self, id: u64, at: SimTime, generated: u64, cached_prompt: u64) {
        self.update(id, |ledger, r| {
            ledger.completion(r, at, generated, cached_prompt)
        });
    }

    /// Records a rejected/failed request: it stops counting as in-flight
    /// and is reported as failed. Failing a completed (or already-failed)
    /// request, or an unknown id, is ignored.
    pub fn failure(&mut self, id: u64) {
        self.update(id, Ledger::failure);
    }

    /// Records that a live request was retried/rerouted (a crashed
    /// balancer or replica forced it onto another path). Counted once
    /// per *request*, however many times it bounces — so the number is
    /// comparable across retry-delay and polling configurations.
    /// Unknown, completed, and failed ids are ignored.
    pub fn retry(&mut self, id: u64) {
        self.update(id, Ledger::retry);
    }

    /// Records the hop count a request carried when a balancer accepted
    /// it; the largest observation wins. Unknown ids are ignored.
    pub fn record_hops(&mut self, id: u64, hops: u8) {
        self.update(id, |ledger, r| ledger.hops(r, hops));
    }

    /// Aggregates everything observed so far into a [`RunReport`].
    ///
    /// `run_end` bounds the measurement window for throughput: tokens of
    /// completed requests divided by the window length. TTFT and end-to-end
    /// distributions include only requests that reached the respective
    /// lifecycle point. Takes `&mut self` only to sort the settled samples
    /// in place; calling it changes no later report.
    pub fn report(&mut self, run_end: SimTime) -> RunReport {
        self.ledger.report(self.open.values(), run_end)
    }
}

/// Latency samples as the whole microsecond counts they are: four bytes
/// a sample below 2³² µs (71.6 min), which is every one in practice, and
/// eight a longer one, so that none saturates.
#[derive(Debug, Default)]
struct Samples {
    short: Vec<u32>,
    long: Vec<u64>,
}

impl Samples {
    fn push(&mut self, d: SimDuration) {
        let micros = d.as_micros();
        match u32::try_from(micros) {
            Ok(short) => self.short.push(short),
            Err(_) => self.long.push(micros),
        }
    }

    /// The summary, in seconds, of these samples and `open`'s taken
    /// together. Sorts these in place, and copies them only if `open` has
    /// any samples.
    ///
    /// Bit for bit [`Summary::of`] over each sample's
    /// [`SimDuration::as_secs_f64`]: that conversion keeps the order of
    /// the counts, every long sample lies above every short one, and the
    /// sum is taken in the sorted order.
    fn summary_with(&mut self, mut open: Samples) -> Summary {
        let all = if open.short.is_empty() && open.long.is_empty() {
            self
        } else {
            open.short.extend_from_slice(&self.short);
            open.long.extend_from_slice(&self.long);
            &mut open
        };
        all.short.sort_unstable();
        all.long.sort_unstable();
        let (short, long) = (&all.short, &all.long);
        let at = |rank: usize| {
            let micros = match short.get(rank) {
                Some(&us) => u64::from(us),
                None => long[rank - short.len()],
            };
            SimDuration::from_micros(micros).as_secs_f64()
        };
        let count = short.len() + long.len();
        let sum = (0..count).map(at).sum::<f64>();
        Summary::of_ranks(count, at, sum)
    }
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
    /// the tracker holds the open requests, not the history.
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
                assert!(t.open.len() <= most_open, "seed {seed} step {step}");
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
            assert_eq!(t.open.len(), model.open_ids().len());
        }
    }

    /// The fabric's regime: a failed or rerouted request's record stays
    /// with its holder after it settles. Nothing changes it any more, and
    /// a report over the holder skips it: it was folded in when it
    /// settled.
    #[test]
    fn a_held_settled_record_counts_once() {
        let (mut ledger, mut kept) = (Ledger::default(), Record::new(ms(0), 10));
        let ttft = ledger.first_token(Some(&mut kept), ms(100));
        assert_eq!(ttft, Some(SimDuration::from_millis(100)));
        ledger.failure(Some(&mut kept));
        assert!(kept.is_settled() && kept.is_failed());
        ledger.hops(Some(&mut kept), 3);
        ledger.retry(Some(&mut kept));
        ledger.failure(Some(&mut kept));
        ledger.completion(Some(&mut kept), ms(200), 5, 5);
        assert_eq!(ledger.first_token(Some(&mut kept), ms(150)), None);
        let r = ledger.report([&kept], SimTime::from_secs(1));
        let outcomes = (r.failed, r.retried, r.completed, r.in_flight);
        assert_eq!(outcomes, (1, 0, 0, 0));
        let counts = (r.ttft.count, r.e2e.count, r.hops.count, r.retry_events);
        assert_eq!(counts, (1, 0, 0, 0));
    }

    /// A latency in µs: mostly seconds, sometimes a tie-prone few µs,
    /// sometimes at or past 2³² µs, where a sample takes eight bytes.
    fn micros(rng: &mut DetRng) -> u64 {
        const SHORT_MAX: u64 = u32::MAX as u64;
        match rng.below(12) {
            0 => rng.below(8),
            1 => SHORT_MAX - rng.below(2),
            2 => SHORT_MAX + 1 + rng.below(2),
            3 => rng.range(SHORT_MAX, 1 << 40),
            _ => rng.below(30_000_000),
        }
    }

    /// Random sample sets, some settled and some still open at the
    /// report, some of 2³² µs or more: the ledger's TTFT and end-to-end
    /// summaries equal [`Summary::of`] over the same samples as `f64`
    /// seconds, every field.
    #[test]
    fn microsecond_samples_summarize_like_their_seconds() {
        let (mut long, mut open_samples) = (0, 0);
        for case in 0..400u64 {
            let mut rng = DetRng::for_component(case, "collector/samples-property");
            let mut ledger = Ledger::default();
            let (mut records, mut ttft, mut e2e) = (Vec::new(), Vec::new(), Vec::new());
            let n = if case < 10 { case } else { rng.below(300) };
            for _ in 0..n {
                let arrived = SimTime::from_micros(rng.below(1_000_000));
                let mut r = Record::new(arrived, 16);
                let (first, done) = (micros(&mut rng), micros(&mut rng));
                let lifecycle = rng.below(4);
                if lifecycle != 1 {
                    ledger.first_token(Some(&mut r), arrived + SimDuration::from_micros(first));
                    ttft.push(SimDuration::from_micros(first).as_secs_f64());
                }
                match lifecycle {
                    0 | 1 => {
                        let at = arrived + SimDuration::from_micros(done);
                        ledger.completion(Some(&mut r), at, 4, 0);
                        e2e.push(SimDuration::from_micros(done).as_secs_f64());
                    }
                    2 => ledger.failure(Some(&mut r)),
                    _ => {}
                }
                open_samples += usize::from(!r.is_settled());
                records.push(r);
            }
            let past_short =
                |&&s: &&f64| s > SimDuration::from_micros(u32::MAX.into()).as_secs_f64();
            long += ttft.iter().chain(&e2e).filter(past_short).count();
            for _ in 0..2 {
                let report = ledger.report(&records, SimTime::from_secs(1));
                assert_eq!(report.ttft, Summary::of(&ttft), "case {case}: TTFT");
                assert_eq!(report.e2e, Summary::of(&e2e), "case {case}: end to end");
            }
        }
        assert!(
            long > 1_000 && open_samples > 1_000,
            "{long} long, {open_samples} open"
        );
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
        assert!(t.open.is_empty());
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
