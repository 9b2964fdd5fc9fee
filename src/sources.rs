//! Traffic sources the paper never shipped, implemented entirely outside
//! `skywalker-workload` — the proof that the workload axis is open, the
//! way [`crate::P2cLocal`] proves it for routing policies. One worked
//! example per level of openness:
//!
//! - [`RagCorpusSource`] varies *content only*, so it is one
//!   [`ClientGen`] method under the workload crate's [`SlotSource`]:
//!   retrieval-augmented generation over a shared document corpus. Every
//!   user's prompts start with one of a small pool of hot documents, so
//!   prefix reuse is *cross-user and global* — a similarity regime none
//!   of the paper's four workloads covers (conversations share within
//!   user/region, ToT shares within one question).
//! - [`FlashCrowdSource`] has its *own arrival process*, so it implements
//!   [`TrafficSource`] itself: a step-function regional overload. A
//!   modest steady population is joined, at a configured instant, by a
//!   burst of clients in one region all asking about the same trending
//!   topic — the arrival pattern that makes cross-region forwarding pay
//!   off in seconds rather than over a diurnal cycle.
//!
//! [`DiurnalSource`] composes what the workload crate already has: one
//! conversation lane per region at instants sampled from a rate curve.
//! Nothing in `skywalker-workload` or the fabric names any of them.

use skywalker_net::Region;
use skywalker_replica::{output_token, Request};
use skywalker_sim::{fnv1a_words, DetRng, SimDuration, SimTime, Zipf, FNV_OFFSET};
use skywalker_workload::{
    distinct_regions, region_of_slot, total_slots, ClientEvent, ClientGen, ClientSpec,
    ConversationConfig, ConversationGen, DiurnalProfile, IdGen, LengthModel, MergeSource, Program,
    SlotSource, TrafficSource,
};

/// Deterministic token stream for synthetic document/topic text.
fn fragment(parts: &[u64], len: u32) -> Vec<u32> {
    let label = fnv1a_words(FNV_OFFSET, parts.iter().copied());
    (0..len)
        .map(|k| {
            let mut h = label ^ 0x6b_9d_3a_44_af_01_77_c3;
            h ^= u64::from(k).wrapping_mul(0x2545_f491_4f6c_dd1d);
            h = (h ^ (h >> 31)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            (h >> 32) as u32
        })
        .collect()
}

/// Tunables of the RAG shared-corpus workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RagCorpusConfig {
    /// Size of the shared document pool.
    pub corpus_docs: usize,
    /// Tokens per retrieved document block (the shared prompt prefix).
    pub doc_tokens: u32,
    /// Zipf exponent over document popularity — a few documents are hot.
    pub doc_zipf: f64,
    /// Fresh question tokens appended after the document.
    pub query_tokens: LengthModel,
    /// Answer length distribution.
    pub answer_tokens: LengthModel,
    /// Queries per user, inclusive clamp range.
    pub queries_per_user: (u32, u32),
}

impl Default for RagCorpusConfig {
    fn default() -> Self {
        RagCorpusConfig {
            corpus_docs: 24,
            doc_tokens: 512,
            doc_zipf: 1.2,
            query_tokens: LengthModel {
                mu: 3.4, // ≈ 30-token questions
                sigma: 0.7,
                min: 4,
                max: 512,
            },
            answer_tokens: LengthModel {
                mu: 4.8, // ≈ 120-token grounded answers
                sigma: 0.7,
                min: 8,
                max: 1_024,
            },
            queries_per_user: (3, 10),
        }
    }
}

/// Retrieval-augmented generation over a shared corpus: many users,
/// across every region, issuing independent queries whose prompts all
/// begin with one of a few hot documents. Cache-affinity routing can
/// keep each document's queries on one replica; load-blind routing
/// re-prefills the same 512-token context everywhere.
///
/// This type is the workload's *content* — a [`ClientGen`] written
/// outside the workload crate; [`RagCorpusSource::new`] returns it under
/// a [`SlotSource`], which brings the schedule, id range and label.
#[derive(Debug, Clone)]
pub struct RagCorpusSource {
    cfg: RagCorpusConfig,
    seed: u64,
    zipf: Zipf,
}

impl RagCorpusSource {
    /// A source over `users_per_region` `(region, user_count)` slots,
    /// all arriving at `t = 0`.
    pub fn new(
        cfg: RagCorpusConfig,
        users_per_region: Vec<(Region, u32)>,
        seed: u64,
    ) -> SlotSource<Self> {
        let zipf = Zipf::new(cfg.corpus_docs.max(1), cfg.doc_zipf);
        SlotSource::over(RagCorpusSource { cfg, seed, zipf }, users_per_region, seed)
            .with_label("RAG corpus")
    }
}

impl ClientGen for RagCorpusSource {
    fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec {
        let user = format!("rag-user-{slot}");
        let mut rng = DetRng::for_component(self.seed, &format!("rag/{user}"));
        let (lo, hi) = self.cfg.queries_per_user;
        let n_queries = rng.range(u64::from(lo), u64::from(hi) + 1) as u32;
        let programs = (0..n_queries)
            .map(|q| {
                let doc = self.zipf.sample(&mut rng) as u64;
                // The document block is shared corpus-wide: every user
                // retrieving document `doc` gets the identical prefix.
                let mut prompt = fragment(&[0xD0C, self.seed, doc], self.cfg.doc_tokens);
                prompt.extend(fragment(
                    &[0x9E1, self.seed, slot as u64, u64::from(q)],
                    self.cfg.query_tokens.sample(&mut rng),
                ));
                let out_len = self.cfg.answer_tokens.sample(&mut rng);
                // Key the session by document, not user: affinity
                // routing then sees corpus structure directly.
                Program {
                    stages: vec![vec![Request::new(
                        ids.next_id(),
                        format!("doc-{doc}"),
                        prompt,
                        out_len,
                    )]],
                }
            })
            .collect();
        ClientSpec {
            region,
            user,
            programs,
        }
    }
}

/// A step-function regional overload: `baseline` clients per region run
/// from `t = 0`; at `burst_at`, `burst_clients` additional clients come
/// online in `burst_region` (uniformly over `burst_window`), all asking
/// about the same trending topic. The burst's shared topic prefix and
/// its regional concentration are exactly the inputs selective pushing
/// and cross-region forwarding are built for.
///
/// Implements [`TrafficSource`] from outside the workload crate with its
/// own arrival walk: no [`ArrivalSchedule`](skywalker_workload::ArrivalSchedule)
/// describes a cohort at `t = 0` followed by a ramp at `burst_at`.
#[derive(Debug, Clone)]
pub struct FlashCrowdSource {
    baseline: Vec<(Region, u32)>,
    burst_region: Region,
    burst_clients: u32,
    burst_at: SimTime,
    burst_window: SimDuration,
    turns: (u32, u32),
    topic_tokens: u32,
    turn_input: LengthModel,
    turn_output: LengthModel,
    seed: u64,
    ids: IdGen,
    cursor: usize,
}

impl FlashCrowdSource {
    /// A steady `baseline` population plus a `burst_clients`-strong
    /// flash crowd in `burst_region` starting at `burst_at`.
    pub fn new(
        baseline: Vec<(Region, u32)>,
        burst_region: Region,
        burst_clients: u32,
        burst_at: SimTime,
        seed: u64,
    ) -> Self {
        FlashCrowdSource {
            baseline,
            burst_region,
            burst_clients,
            burst_at,
            burst_window: SimDuration::from_secs(10),
            turns: (1, 3),
            topic_tokens: 96,
            turn_input: LengthModel {
                mu: 3.6, // ≈ 37-token questions about the topic
                sigma: 0.8,
                min: 4,
                max: 1_024,
            },
            turn_output: LengthModel {
                mu: 4.6, // ≈ 100-token replies
                sigma: 0.8,
                min: 4,
                max: 2_048,
            },
            seed,
            ids: IdGen::new(),
            cursor: 0,
        }
    }

    /// Spreads the burst's arrivals over `window` (default 10 s).
    pub fn with_burst_window(mut self, window: SimDuration) -> Self {
        self.burst_window = window;
        self
    }

    /// Conversation turns per client, inclusive range (default 1–3).
    pub fn with_turns(mut self, turns: (u32, u32)) -> Self {
        self.turns = turns;
        self
    }

    /// Offsets the request-id space (compose sources with disjoint ids).
    pub fn with_first_request_id(mut self, first: u64) -> Self {
        self.ids = IdGen::starting_at(first);
        self
    }

    fn total(&self) -> usize {
        total_slots(&self.baseline) + self.burst_clients as usize
    }

    /// Arrival instant and region of the `k`-th client: baseline slots
    /// at `t = 0`, then the burst ramping over its window.
    fn slot(&self, k: usize) -> (SimTime, Region) {
        let base_total = total_slots(&self.baseline);
        if k < base_total {
            return (SimTime::ZERO, region_of_slot(&self.baseline, k));
        }
        let j = (k - base_total) as u64;
        let span = u64::from(self.burst_clients).saturating_sub(1).max(1);
        let offset = SimDuration::from_micros(self.burst_window.as_micros() * j / span);
        (self.burst_at + offset, self.burst_region)
    }

    fn generate_client(&mut self, slot: usize, region: Region, bursty: bool) -> ClientSpec {
        let user = format!("flash-user-{slot}");
        let mut rng = DetRng::for_component(self.seed, &format!("flash/{user}"));
        let (lo, hi) = self.turns;
        let turns = rng.range(u64::from(lo.max(1)), u64::from(hi.max(1)) + 1) as u32;
        // Burst clients all open with the same trending-topic context;
        // baseline clients each talk about their own subject.
        let topic = if bursty {
            fragment(&[0x7287, self.seed], self.topic_tokens)
        } else {
            fragment(&[0xBA5E, self.seed, slot as u64], self.topic_tokens)
        };
        let mut history = topic;
        let mut stages = Vec::with_capacity(turns as usize);
        for turn in 0..turns {
            history.extend(fragment(
                &[0xF00D, self.seed, slot as u64, u64::from(turn)],
                self.turn_input.sample(&mut rng),
            ));
            let out_len = self.turn_output.sample(&mut rng);
            let id = self.ids.next_id();
            stages.push(vec![Request::new(
                id,
                format!("{user}/trend"),
                history.clone(),
                out_len,
            )]);
            history.extend((0..out_len).map(|k| output_token(id, k)));
        }
        ClientSpec {
            region,
            user,
            programs: vec![Program { stages }],
        }
    }
}

impl TrafficSource for FlashCrowdSource {
    fn regions(&self) -> Vec<Region> {
        let baseline = self.baseline.iter().map(|&(region, _)| region);
        distinct_regions(baseline.chain([self.burst_region]))
    }

    fn next_batch(&mut self, now: SimTime, _rng: &mut DetRng) -> Vec<ClientEvent> {
        let mut out = Vec::new();
        while self.cursor < self.total() {
            let (at, region) = self.slot(self.cursor);
            if at > now {
                break;
            }
            let bursty = self.cursor >= total_slots(&self.baseline);
            let spec = self.generate_client(self.cursor, region, bursty);
            out.push(ClientEvent { at, spec });
            self.cursor += 1;
        }
        out
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.total()
    }

    fn label(&self) -> String {
        "Flash crowd".to_string()
    }
}

/// A compressed diurnal day of chat traffic: per-region arrival *rates*
/// follow the paper's Fig. 2/3a raised-cosine curves
/// ([`DiurnalProfile`]), mapped onto a simulated `day` much shorter
/// than 24 h so a whole cycle fits in one run. Each arrival is a light
/// chat user generated by the conversation machinery.
///
/// This is the traffic side of the Fig. 10 elasticity experiment:
/// per-region demand swings 2.88–32.64× over the day, which a static
/// fleet must provision for peak and an elastic fleet (see
/// `skywalker-fleet`) can track.
///
/// Not a source type of its own: [`DiurnalSource::new`] returns a
/// [`MergeSource`] of one conversation lane per region. A lane's arrival
/// instants are fixed at construction from the seed (8 bytes per
/// arrival); client *content* is generated lazily at each arrival, so
/// memory tracks the active population and emission is poll-cadence
/// invariant, as for every [`SlotSource`].
#[derive(Debug, Clone, Copy)]
pub struct DiurnalSource;

impl DiurnalSource {
    /// A day of traffic over `profiles` (per-region rate curves at
    /// trace scale, requests per hour), compressed into `day` of sim
    /// time, keeping a `scale` fraction of the trace's arrivals; each
    /// kept arrival is one chat user built from `cfg`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        profiles: &[(Region, DiurnalProfile)],
        day: SimDuration,
        scale: f64,
        cfg: &ConversationConfig,
        seed: u64,
    ) -> MergeSource {
        let lanes = profiles
            .iter()
            .zip(0u64..)
            .map(|((region, profile), lane)| {
                let mut rng = DetRng::for_component(seed ^ lane, "sources/diurnal");
                let instants: Vec<SimTime> = profile
                    .sample_arrivals(&mut rng)
                    .into_iter()
                    .filter(|_| rng.chance(scale))
                    .map(|t_real| SimTime::ZERO + day.mul_f64(t_real / 86_400.0))
                    .collect();
                // Lanes generate independently of how they interleave: each
                // owns a disjoint user-id and request-id range (ids only
                // need to be unique, not dense, so a wide stride suffices
                // for any realistic day).
                let content_seed = seed ^ fnv1a_words(FNV_OFFSET, [lane, 0xD1A1]);
                let users = ConversationGen::new(cfg.clone(), content_seed, lane << 32);
                let lane = SlotSource::at_instants(users, *region, instants)
                    .with_first_request_id(lane << 40);
                Box::new(lane) as Box<dyn TrafficSource>
            });
        MergeSource::new(lanes.collect()).with_label("Diurnal day")
    }

    /// A light per-user chat mix (one short conversation per user), the
    /// natural content for an open-loop diurnal feed.
    pub fn light_chat() -> ConversationConfig {
        ConversationConfig {
            conversations_per_user: (1, 2),
            turns_per_conversation: (2, 3),
            activity_sigma: 0.4,
            ..ConversationConfig::wildchat()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_workload::{drain, fig3_regions};

    #[test]
    fn diurnal_source_follows_the_rate_curve() {
        let day = SimDuration::from_secs(1_200);
        let profiles: Vec<_> = fig3_regions()
            .into_iter()
            .filter(|(r, _)| *r == Region::UsEast)
            .collect();
        let src = DiurnalSource::new(&profiles, day, 0.05, &DiurnalSource::light_chat(), 7);
        assert_eq!(src.regions(), vec![Region::UsEast]);
        // us-east-1 peaks at 14:00 local = 19:00 UTC and troughs in the
        // local early morning: compare the busiest and quietest sixths
        // of the compressed day.
        let mut per_sixth = [0usize; 6];
        let mut probe = src.clone();
        let mut rng = DetRng::new(0);
        for (k, sixth) in per_sixth.iter_mut().enumerate() {
            let until = SimTime::ZERO + day.mul_f64((k as f64 + 1.0) / 6.0);
            // Batches are incremental: each poll returns only the new
            // arrivals of that sixth.
            *sixth = probe.next_batch(until, &mut rng).len();
        }
        let total: usize = per_sixth.iter().sum();
        assert!(total > 50, "enough arrivals to see the shape: {total}");
        let max = per_sixth.iter().max().unwrap();
        let min = per_sixth.iter().min().unwrap();
        assert!(
            *max >= 2 * (*min).max(1),
            "diurnal swing must be visible: {per_sixth:?}"
        );
        assert!(probe.is_exhausted());
    }

    #[test]
    fn diurnal_source_is_poll_cadence_invariant() {
        let day = SimDuration::from_secs(600);
        let profiles = fig3_regions();
        let mk = || DiurnalSource::new(&profiles, day, 0.01, &DiurnalSource::light_chat(), 3);
        let mut coarse = mk();
        let mut fine = mk();
        let mut rng = DetRng::new(0);
        let mut a = Vec::new();
        for s in [0u64, 300, 600] {
            a.extend(coarse.next_batch(SimTime::from_secs(s), &mut rng));
        }
        let mut b = Vec::new();
        for s in (0..=600u64).step_by(20) {
            b.extend(fine.next_batch(SimTime::from_secs(s), &mut rng));
        }
        assert_eq!(a, b, "batching granularity must not change the stream");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // Ids are globally unique across regions.
        let mut ids: Vec<u64> = a
            .iter()
            .flat_map(|e| e.spec.programs.iter())
            .flat_map(|p| p.requests())
            .map(|r| r.id.0)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn rag_prompts_share_hot_document_prefixes_across_users() {
        let mut src = RagCorpusSource::new(
            RagCorpusConfig::default(),
            vec![(Region::UsEast, 10), (Region::EuWest, 10)],
            3,
        );
        let clients = drain(&mut src);
        assert_eq!(clients.len(), 20);

        // Group every prompt by its session key (the document id): all
        // prompts of one document must share the full document prefix,
        // across users and regions.
        use std::collections::HashMap;
        let mut by_doc: HashMap<String, Vec<&Request>> = HashMap::new();
        for c in &clients {
            for p in &c.programs {
                for r in p.requests() {
                    by_doc.entry(r.session_key.clone()).or_default().push(r);
                }
            }
        }
        let doc_tokens = RagCorpusConfig::default().doc_tokens as usize;
        let mut shared_pairs = 0;
        for reqs in by_doc.values() {
            for pair in reqs.windows(2) {
                assert_eq!(
                    &pair[0].prompt[..doc_tokens],
                    &pair[1].prompt[..doc_tokens],
                    "same doc ⇒ identical document block"
                );
                shared_pairs += 1;
            }
        }
        assert!(shared_pairs > 0, "zipf popularity must produce hot docs");
        // And the sharing is genuinely cross-user: at least one document
        // is retrieved by two different users.
        let multi_user = by_doc.values().any(|reqs| {
            let docs_users: std::collections::HashSet<_> = reqs
                .iter()
                .map(|r| r.prompt[doc_tokens..].first().copied())
                .collect();
            docs_users.len() > 1
        });
        assert!(multi_user);
    }

    #[test]
    fn rag_ids_unique_and_deterministic() {
        let regions = vec![(Region::UsEast, 8)];
        let a = drain(&mut RagCorpusSource::new(
            RagCorpusConfig::default(),
            regions.clone(),
            7,
        ));
        let b = drain(&mut RagCorpusSource::new(
            RagCorpusConfig::default(),
            regions,
            7,
        ));
        assert_eq!(a, b);
        let mut ids: Vec<u64> = a
            .iter()
            .flat_map(|c| c.programs.iter())
            .flat_map(|p| p.requests())
            .map(|r| r.id.0)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn flash_crowd_bursts_at_the_step() {
        let burst_at = SimTime::from_secs(30);
        let mut src = FlashCrowdSource::new(
            vec![(Region::UsEast, 3), (Region::EuWest, 3)],
            Region::EuWest,
            12,
            burst_at,
            5,
        )
        .with_burst_window(SimDuration::from_secs(6));
        assert_eq!(src.regions(), vec![Region::UsEast, Region::EuWest]);

        let mut rng = DetRng::new(0);
        let early = src.next_batch(SimTime::from_secs(29), &mut rng);
        assert_eq!(early.len(), 6, "only the baseline before the step");
        assert!(early.iter().all(|e| e.at == SimTime::ZERO));
        assert!(!src.is_exhausted());

        let late = src.next_batch(SimTime::from_secs(40), &mut rng);
        assert_eq!(late.len(), 12, "the whole crowd inside the window");
        assert!(late.iter().all(|e| e.spec.region == Region::EuWest));
        assert!(late.iter().all(|e| e.at >= burst_at));
        assert_eq!(late.last().unwrap().at, SimTime::from_secs(36));
        assert!(src.is_exhausted());

        // Burst clients share the trending prefix; baseline clients do
        // not share it with them.
        let topic_len = 96;
        let t0 = &late[0].spec.programs[0].stages[0][0].prompt[..topic_len];
        assert!(late
            .iter()
            .all(|e| &e.spec.programs[0].stages[0][0].prompt[..topic_len] == t0));
        assert_ne!(
            &early[0].spec.programs[0].stages[0][0].prompt[..topic_len],
            t0
        );
    }
}
