//! Traffic sources the paper never shipped, implemented entirely outside
//! `skywalker-workload` — the proof that the workload axis is open, the
//! way [`crate::P2cLocal`] proves it for routing policies. Each is one
//! [`ClientGen`], what the client in each slot asks, under the workload
//! crate's [`SlotSource`], which brings the arrivals, the request ids and
//! the label:
//!
//! - [`RagCorpusSource`]: retrieval-augmented generation over a shared
//!   document corpus. Every user's prompts start with one of a small
//!   pool of hot documents, so prefix reuse is *cross-user and global* —
//!   a similarity regime none of the paper's four workloads covers
//!   (conversations share within user/region, ToT shares within one
//!   question). Its arrivals follow an
//!   [`ArrivalSchedule`](skywalker_workload::ArrivalSchedule).
//! - [`FlashCrowdSource`]: a step-function regional overload. A modest
//!   steady population is joined, at a configured instant, by a burst of
//!   clients in one region all asking about the same trending topic — the
//!   arrival pattern that makes cross-region forwarding pay off in
//!   seconds rather than over a diurnal cycle. No schedule describes that
//!   arrival process, so it hands [`SlotSource::at_instants`] its
//!   instants.
//!
//! [`diurnal_source`] composes what the workload crate already has: one
//! conversation lane per region at instants sampled from a rate curve.
//! Nothing in `skywalker-workload` or the fabric names any of them.

use std::sync::Arc;

use skywalker_net::Region;
use skywalker_replica::{extended_prompt, output_token, Request};
use skywalker_sim::{fnv1a_words, DetRng, SimDuration, SimTime, Zipf, FNV_OFFSET};
use skywalker_workload::{
    ClientGen, ClientSpec, ConversationConfig, ConversationGen, DiurnalProfile, IdGen, LengthModel,
    MergeSource, Program, SlotSource, TrafficSource,
};

/// Deterministic token stream for synthetic document/topic text.
fn fragment(parts: &[u64], len: u32) -> Vec<u32> {
    fragment_tokens(parts, len).collect()
}

/// [`fragment`]'s tokens, one at a time.
fn fragment_tokens(parts: &[u64], len: u32) -> impl ExactSizeIterator<Item = u32> {
    let label = fnv1a_words(FNV_OFFSET, parts.iter().copied());
    (0..len).map(move |k| {
        let mut h = label ^ 0x6b_9d_3a_44_af_01_77_c3;
        h ^= u64::from(k).wrapping_mul(0x2545_f491_4f6c_dd1d);
        h = (h ^ (h >> 31)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        (h >> 32) as u32
    })
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
    /// Each document, by index, made the first time a query retrieves
    /// it (`None` until then). A run pulls from its own copy of the
    /// source, so a run tokenizes each document once.
    docs: Vec<Option<Document>>,
}

/// One corpus document, as its queries use it.
#[derive(Debug, Clone)]
struct Document {
    tokens: Vec<u32>,
    /// `doc-{index}`: the session key every query retrieving it shares.
    key: Arc<str>,
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
        let source = RagCorpusSource {
            cfg,
            seed,
            zipf,
            docs: Vec::new(),
        };
        SlotSource::over(source, users_per_region, seed).with_label("RAG corpus")
    }

    /// Document `doc`, made on first use.
    fn document(&mut self, doc: usize) -> &Document {
        if self.docs.len() <= doc {
            self.docs.resize(doc + 1, None);
        }
        self.docs[doc].get_or_insert_with(|| Document {
            tokens: fragment(&[0xD0C, self.seed, doc as u64], self.cfg.doc_tokens),
            key: format!("doc-{doc}").into(),
        })
    }
}

impl ClientGen for RagCorpusSource {
    fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec {
        let user = format!("rag-user-{slot}");
        let mut rng = DetRng::for_component_parts(self.seed, &["rag/", &user]);
        let (lo, hi) = self.cfg.queries_per_user;
        let n_queries = rng.range(u64::from(lo), u64::from(hi) + 1) as u32;
        let programs = (0..n_queries)
            .map(|q| {
                let doc = self.zipf.sample(&mut rng);
                let query_len = self.cfg.query_tokens.sample(&mut rng);
                let query = [0x9E1, self.seed, slot as u64, u64::from(q)];
                // The document block is shared corpus-wide: every user
                // retrieving document `doc` gets the identical prefix.
                let document = self.document(doc);
                let prompt = extended_prompt(&document.tokens, fragment_tokens(&query, query_len));
                // Key the session by document, not user: affinity
                // routing then sees corpus structure directly.
                let key = document.key.clone();
                let out_len = self.cfg.answer_tokens.sample(&mut rng);
                Program {
                    stages: vec![vec![Request::new(ids.next_id(), key, prompt, out_len)]],
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

/// A [`FlashCrowdSource`]'s burst (where, how many, when and how fast it
/// arrives) and how many turns each client, baseline or crowd, talks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowdConfig {
    /// Region the crowd floods.
    pub burst_region: Region,
    /// Clients in the crowd.
    pub burst_clients: u32,
    /// Instant the first crowd client arrives.
    pub burst_at: SimTime,
    /// The crowd's arrivals ramp uniformly over this window.
    pub burst_window: SimDuration,
    /// Conversation turns per client, inclusive range.
    pub turns: (u32, u32),
}

/// A step-function regional overload: a steady baseline population runs
/// from `t = 0`; at `burst_at`, `burst_clients` additional clients come
/// online in `burst_region` (uniformly over `burst_window`), all asking
/// about the same trending topic. The burst's shared topic prefix and
/// its regional concentration are exactly the inputs selective pushing
/// and cross-region forwarding are built for.
///
/// This type is the workload's *content*, a [`ClientGen`];
/// [`FlashCrowdSource::new`] returns it under a [`SlotSource`] whose
/// arrivals are explicit instants, since no
/// [`ArrivalSchedule`](skywalker_workload::ArrivalSchedule) describes a
/// cohort at `t = 0` followed by a ramp at `burst_at`.
#[derive(Debug, Clone)]
pub struct FlashCrowdSource {
    /// The first burst slot: every slot before it is the baseline's.
    burst_from: usize,
    turns: (u32, u32),
    seed: u64,
}

/// Tokens of a conversation's opening topic context.
const TOPIC_TOKENS: u32 = 96;
/// ≈ 37-token questions about the topic.
const TURN_INPUT: LengthModel = LengthModel {
    mu: 3.6,
    sigma: 0.8,
    min: 4,
    max: 1_024,
};
/// ≈ 100-token replies.
const TURN_OUTPUT: LengthModel = LengthModel {
    mu: 4.6,
    sigma: 0.8,
    min: 4,
    max: 2_048,
};

impl FlashCrowdSource {
    /// A steady `baseline` population of `(region, count)` slots, all at
    /// `t = 0`, then `cfg`'s crowd: client `j` of `n` arrives at
    /// `burst_at + burst_window · j / max(n − 1, 1)`.
    pub fn new(cfg: FlashCrowdConfig, baseline: Vec<(Region, u32)>, seed: u64) -> SlotSource<Self> {
        let burst_from: usize = baseline.iter().map(|&(_, n)| n as usize).sum();
        let span = u64::from(cfg.burst_clients).saturating_sub(1).max(1);
        let window = cfg.burst_window.as_micros();
        let ramp = (0..u64::from(cfg.burst_clients))
            .map(|j| cfg.burst_at + SimDuration::from_micros(window * j / span));
        let instants = std::iter::repeat_n(SimTime::ZERO, burst_from)
            .chain(ramp)
            .collect();
        let mut slots = baseline;
        slots.push((cfg.burst_region, cfg.burst_clients));
        let content = FlashCrowdSource {
            burst_from,
            turns: cfg.turns,
            seed,
        };
        SlotSource::at_instants(content, slots, instants).with_label("Flash crowd")
    }
}

impl ClientGen for FlashCrowdSource {
    fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec {
        let user = format!("flash-user-{slot}");
        let mut rng = DetRng::for_component_parts(self.seed, &["flash/", &user]);
        let (lo, hi) = self.turns;
        let turns = rng.range(u64::from(lo.max(1)), u64::from(hi.max(1)) + 1) as u32;
        // Burst clients all open with the same trending-topic context;
        // baseline clients each talk about their own subject.
        let mut history = if slot >= self.burst_from {
            fragment(&[0x7287, self.seed], TOPIC_TOKENS)
        } else {
            fragment(&[0xBA5E, self.seed, slot as u64], TOPIC_TOKENS)
        };
        let session_key: Arc<str> = format!("{user}/trend").into();
        let mut stages = Vec::with_capacity(turns as usize);
        for turn in 0..turns {
            history.extend(fragment(
                &[0xF00D, self.seed, slot as u64, u64::from(turn)],
                TURN_INPUT.sample(&mut rng),
            ));
            let out_len = TURN_OUTPUT.sample(&mut rng);
            let id = ids.next_id();
            stages.push(vec![Request::new(
                id,
                session_key.clone(),
                &history[..],
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

/// A compressed diurnal day of chat traffic: per-region arrival *rates*
/// follow the paper's Fig. 2/3a raised-cosine curves
/// ([`DiurnalProfile`]), mapped onto a simulated `day` much shorter
/// than 24 h so a whole cycle fits in one run. Each arrival is a light
/// chat user generated by the conversation machinery.
///
/// This is the traffic side of the Fig. 10 elasticity experiment:
/// per-region demand swings 2.88–32.64× over the day, which a static
/// fleet must provision for peak and an elastic fleet (see
/// [`crate::fleet`]) can track.
///
/// Not a source type of its own: a [`MergeSource`] of one conversation
/// lane per region, each a [`SlotSource`] over the lane's arrival
/// instants. The instants are fixed here from the seed (8 bytes per
/// arrival); client *content* is generated lazily at each arrival, so
/// memory tracks the active population and emission is poll-cadence
/// invariant, as for every [`SlotSource`].
///
/// The day runs over `profiles` (per-region rate curves at trace scale,
/// requests per hour), compressed into `day` of sim time, keeping a
/// `scale` fraction of the trace's arrivals; each kept arrival is one
/// chat user built from `cfg`.
pub fn diurnal_source(
    profiles: &[(Region, DiurnalProfile)],
    day: SimDuration,
    scale: f64,
    cfg: &ConversationConfig,
    seed: u64,
) -> MergeSource {
    let lanes = profiles
        .iter()
        .zip(0u64..)
        .map(|(&(region, ref profile), lane)| {
            let mut rng = DetRng::for_component(seed ^ lane, "sources/diurnal");
            let mut instants: Vec<SimTime> = profile
                .sample_arrivals(&mut rng)
                .into_iter()
                .filter(|_| rng.chance(scale))
                .map(|t_real| SimTime::ZERO + day.mul_f64(t_real / 86_400.0))
                .collect();
            // The collect reuses the full day's buffer: keep only the
            // thinned instants' bytes.
            instants.shrink_to_fit();
            // Lanes generate independently of how they interleave: each
            // owns a disjoint user-id and request-id range (ids only
            // need to be unique, not dense, so a wide stride suffices
            // for any realistic day).
            let content_seed = seed ^ fnv1a_words(FNV_OFFSET, [lane, 0xD1A1]);
            let users = ConversationGen::new(cfg.clone(), content_seed, lane << 32);
            let slots = vec![(region, instants.len() as u32)];
            let lane =
                SlotSource::at_instants(users, slots, instants).with_first_request_id(lane << 40);
            Box::new(lane) as Box<dyn TrafficSource>
        });
    MergeSource::new(lanes.collect()).with_label("Diurnal day")
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
        let src = diurnal_source(&profiles, day, 0.05, &ConversationConfig::light_chat(), 7);
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
        let mk = || diurnal_source(&profiles, day, 0.01, &ConversationConfig::light_chat(), 3);
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
        let mut by_doc: HashMap<Arc<str>, Vec<&Request>> = HashMap::new();
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
        // A document's queries share one key buffer.
        for reqs in by_doc.values() {
            assert!(reqs
                .windows(2)
                .all(|w| Arc::ptr_eq(&w[0].session_key, &w[1].session_key)));
        }
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
        let crowd = FlashCrowdConfig {
            burst_region: Region::EuWest,
            burst_clients: 12,
            burst_at,
            burst_window: SimDuration::from_secs(6),
            turns: (1, 3),
        };
        let baseline = vec![(Region::UsEast, 3), (Region::EuWest, 3)];
        let mut src = FlashCrowdSource::new(crowd, baseline, 5);
        assert_eq!(src.label(), "Flash crowd");
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
