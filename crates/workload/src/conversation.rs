//! Multi-turn conversation workload generator.
//!
//! Reproduces the *prefix structure* of the WildChat and ChatBot Arena
//! traces that the paper's analysis depends on (Fig. 5):
//!
//! - **Within-conversation reuse** — turn `t+1`'s prompt is exactly turn
//!   `t`'s prompt plus the assistant reply plus fresh user text, so
//!   consecutive-turn pairs have prefix similarity 1.0.
//! - **Cross-conversation, within-user reuse** — a user's conversations
//!   may share an application system template.
//! - **Cross-user reuse** — different users of the same application share
//!   its system template; template popularity is Zipf-distributed.
//! - **Regional structure** (WildChat) — applications have regional user
//!   bases, so template sharing is much stronger within a region than
//!   across regions (the paper's within-region 10.9 % vs across-region
//!   2.5 %).
//!
//! A conversation's prompt at turn `t` is:
//! `template ++ persona ++ (fresh_1 ++ reply_1) ++ … ++ fresh_t`.

use skywalker_net::Region;
use skywalker_replica::{output_token, Request};
use skywalker_sim::{fnv1a_words, DetRng, Zipf, FNV_OFFSET};

use crate::lengths::LengthModel;
use crate::program::{ClientSpec, IdGen, Program};
use crate::source::{ClientGen, SlotSource};

/// Tunables of the conversation generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversationConfig {
    /// Size of the global (region-independent) template pool.
    pub global_templates: usize,
    /// Size of each region's template pool.
    pub regional_templates: usize,
    /// Probability a conversation uses a regional (vs global) template.
    pub p_regional_template: f64,
    /// Zipf exponent over templates within a pool.
    pub template_zipf: f64,
    /// Tokens in a shared system template.
    pub template_tokens: u32,
    /// Tokens in the per-user persona/custom-instruction block.
    pub persona_tokens: u32,
    /// Fresh user text per turn.
    pub turn_input: LengthModel,
    /// Assistant reply length per turn.
    pub turn_output: LengthModel,
    /// Conversations per user, inclusive clamp range.
    pub conversations_per_user: (u32, u32),
    /// Turns per conversation, inclusive range.
    pub turns_per_conversation: (u32, u32),
    /// Lognormal sigma of per-user activity. Real traces are heavy-tailed
    /// — a few users carry an outsized share of the conversations — which
    /// is exactly what overloads per-user consistent hashing (§3.2).
    pub activity_sigma: f64,
}

impl ConversationConfig {
    /// WildChat-like: strong regional template structure, long user
    /// histories, weak global sharing. Calibrated against Fig. 5a
    /// (within-user 19.0 %, across-user 2.5 %, within-region 10.9 %,
    /// across-region 2.5 %).
    pub fn wildchat() -> Self {
        ConversationConfig {
            global_templates: 10,
            regional_templates: 5,
            p_regional_template: 0.65,
            template_zipf: 1.4,
            template_tokens: 56,
            persona_tokens: 8,
            turn_input: LengthModel {
                mu: 3.9, // ≈ 50 tokens median fresh text
                sigma: 0.9,
                min: 4,
                max: 2_048,
            },
            turn_output: LengthModel {
                mu: 4.4, // ≈ 80 tokens median reply
                sigma: 0.8,
                min: 4,
                max: 2_048,
            },
            conversations_per_user: (2, 24),
            turns_per_conversation: (2, 4),
            activity_sigma: 0.9,
        }
    }

    /// ChatBot Arena-like: one global application, heavier cross-user
    /// template sharing, no regional structure. Calibrated against
    /// Fig. 5a (within-user 20.5 %, across-user 8.3 %).
    pub fn arena() -> Self {
        ConversationConfig {
            global_templates: 6,
            regional_templates: 0,
            p_regional_template: 0.0,
            template_zipf: 1.5,
            template_tokens: 64,
            persona_tokens: 6,
            turn_input: LengthModel {
                mu: 3.9,
                sigma: 0.9,
                min: 4,
                max: 2_048,
            },
            turn_output: LengthModel {
                mu: 4.4,
                sigma: 0.8,
                min: 4,
                max: 2_048,
            },
            conversations_per_user: (2, 24),
            turns_per_conversation: (2, 5),
            activity_sigma: 0.9,
        }
    }
}

/// Deterministic token streams for the synthetic text fragments.
fn stream_token(label: u64, k: u32) -> u32 {
    let mut h = label ^ 0x51_7c_c1_b7_27_22_0a_95;
    h ^= u64::from(k).wrapping_mul(0x2545_f491_4f6c_dd1d);
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    (h >> 32) as u32
}

fn fragment(parts: &[u64], len: u32) -> Vec<u32> {
    let label = fnv1a_words(FNV_OFFSET, parts.iter().copied());
    (0..len).map(|k| stream_token(label, k)).collect()
}

/// The content of a conversation workload: each slot is one user, whose
/// activity level and conversations are an independent random stream
/// keyed by `(seed, user id)` — users can be generated in any order, at
/// their arrival instants, without perturbing one another.
#[derive(Debug, Clone)]
pub struct ConversationGen {
    cfg: ConversationConfig,
    seed: u64,
    user_base: u64,
    global_zipf: Zipf,
    regional_zipf: Option<Zipf>,
}

impl ConversationGen {
    /// A generator of `cfg`-shaped users. Slot `k` is user
    /// `user_base + k`: generators sharing a run (the lanes of a diurnal
    /// day) take disjoint bases so no two name the same user.
    pub fn new(cfg: ConversationConfig, seed: u64, user_base: u64) -> Self {
        let global_zipf = Zipf::new(cfg.global_templates.max(1), cfg.template_zipf);
        let regional_zipf = (cfg.regional_templates > 0)
            .then(|| Zipf::new(cfg.regional_templates, cfg.template_zipf));
        ConversationGen {
            cfg,
            seed,
            user_base,
            global_zipf,
            regional_zipf,
        }
    }

    fn conversation(
        &self,
        region: Region,
        user_id: u64,
        user: &str,
        conv: u32,
        rng: &mut DetRng,
        ids: &mut IdGen,
    ) -> Program {
        let cfg = &self.cfg;
        // Pick the application template: regional pools model apps with a
        // geographically concentrated user base.
        let template = match (&self.regional_zipf, rng.chance(cfg.p_regional_template)) {
            (Some(z), true) => {
                let t = z.sample(rng) as u64;
                fragment(&[0xA11, region.index() as u64, t], cfg.template_tokens)
            }
            _ => {
                let t = self.global_zipf.sample(rng) as u64;
                fragment(&[0x61, t], cfg.template_tokens)
            }
        };
        let persona = fragment(&[0x9E, user_id], cfg.persona_tokens);

        let turns = rng.range(
            u64::from(cfg.turns_per_conversation.0),
            u64::from(cfg.turns_per_conversation.1) + 1,
        ) as u32;

        let mut history = template;
        history.extend(&persona);

        let mut stages = Vec::with_capacity(turns as usize);
        for turn in 0..turns {
            let fresh = fragment(
                &[0xF5, user_id, u64::from(conv), u64::from(turn)],
                cfg.turn_input.sample(rng),
            );
            history.extend(&fresh);
            let out_len = cfg.turn_output.sample(rng);
            let id = ids.next_id();
            stages.push(vec![Request::new(
                id,
                format!("{user}/conv-{conv}"),
                history.clone(),
                out_len,
            )]);
            // The assistant reply becomes part of the next turn's prompt.
            history.extend((0..out_len).map(|k| output_token(id, k)));
        }
        Program { stages }
    }
}

impl ClientGen for ConversationGen {
    fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec {
        let user_id = self.user_base + slot as u64;
        let user = format!("user-{user_id}");
        let mut rng = DetRng::for_component(self.seed, &format!("conv/{user}"));
        // Heavy-tailed per-user activity: median near the low end of the
        // clamp range, a long tail of power users.
        let (lo, hi) = self.cfg.conversations_per_user;
        let median = f64::from(lo.max(1)) * 2.0;
        let n_convs = rng
            .lognormal(median.ln(), self.cfg.activity_sigma)
            .round()
            .clamp(f64::from(lo), f64::from(hi)) as u32;
        let programs = (0..n_convs)
            .map(|conv| self.conversation(region, user_id, &user, conv, &mut rng, ids))
            .collect();
        ClientSpec {
            region,
            user,
            programs,
        }
    }
}

/// The multi-turn conversation workloads (WildChat, ChatBot Arena) as a
/// streaming source: [`ConversationGen`] under the shared slot walk.
pub type ConversationSource = SlotSource<ConversationGen>;

impl ConversationSource {
    /// A source over `users_per_region` `(region, user_count)` slots,
    /// all arriving at `t = 0`.
    pub fn new(cfg: ConversationConfig, users_per_region: Vec<(Region, u32)>, seed: u64) -> Self {
        SlotSource::over(ConversationGen::new(cfg, seed, 0), users_per_region, seed)
            .with_label("conversations")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix_stats::{grouped_similarity, prefix_similarity};
    use crate::source::drain;

    fn one_region() -> Vec<(Region, u32)> {
        vec![(Region::UsEast, 12)]
    }

    fn clients(cfg: ConversationConfig, slots: Vec<(Region, u32)>, seed: u64) -> Vec<ClientSpec> {
        drain(&mut ConversationSource::new(cfg, slots, seed))
    }

    #[test]
    fn turns_are_sequential_single_request_stages() {
        let clients = clients(ConversationConfig::wildchat(), one_region(), 1);
        assert_eq!(clients.len(), 12);
        for c in &clients {
            assert!(!c.programs.is_empty());
            for p in &c.programs {
                assert!((2..=4).contains(&(p.stages.len() as u32)));
                assert!(p.stages.iter().all(|s| s.len() == 1));
            }
        }
    }

    #[test]
    fn consecutive_turns_extend_the_prompt_exactly() {
        let clients = clients(ConversationConfig::wildchat(), one_region(), 2);
        let p = &clients[0].programs[0];
        for pair in p.stages.windows(2) {
            let a = &pair[0][0];
            let b = &pair[1][0];
            assert!(b.prompt.len() > a.prompt.len());
            assert_eq!(
                &b.prompt[..a.prompt.len()],
                a.prompt.as_slice(),
                "turn t+1 must extend turn t"
            );
            // Specifically, the reply tokens follow immediately.
            let reply: Vec<u32> = (0..a.target_output_tokens)
                .map(|k| output_token(a.id.0, k))
                .collect();
            assert_eq!(
                &b.prompt[a.prompt.len()..a.prompt.len() + reply.len()],
                reply.as_slice()
            );
            assert!(prefix_similarity(&a.prompt, &b.prompt) == 1.0);
        }
    }

    #[test]
    fn request_ids_globally_unique() {
        let clients = clients(ConversationConfig::arena(), one_region(), 3);
        let mut seen: Vec<u64> = clients
            .iter()
            .flat_map(|c| c.programs.iter())
            .flat_map(|p| p.requests())
            .map(|r| r.id.0)
            .collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn session_key_stable_within_conversation() {
        let clients = clients(ConversationConfig::wildchat(), one_region(), 4);
        for c in &clients {
            for p in &c.programs {
                let keys: Vec<&str> = p.requests().map(|r| r.session_key.as_str()).collect();
                assert!(keys.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = clients(ConversationConfig::arena(), one_region(), 5);
        let b = clients(ConversationConfig::arena(), one_region(), 5);
        assert_eq!(a, b);
    }

    /// The Fig. 5a calibration: similarity structure must reproduce the
    /// paper's ordering and rough magnitudes.
    #[test]
    fn wildchat_similarity_structure() {
        let regions = vec![
            (Region::UsEast, 10),
            (Region::EuWest, 10),
            (Region::ApNortheast, 10),
        ];
        let clients = clients(ConversationConfig::wildchat(), regions.clone(), 11);

        // Group prompts by user.
        let user_groups: Vec<Vec<Vec<u32>>> = clients
            .iter()
            .map(|c| {
                c.programs
                    .iter()
                    .flat_map(|p| p.requests())
                    .map(|r| r.prompt.clone())
                    .collect()
            })
            .collect();
        let (within_user, across_user) = grouped_similarity(&user_groups);

        // Group prompts by region.
        let mut region_groups: Vec<Vec<Vec<u32>>> = vec![Vec::new(); 3];
        for (i, (region, _)) in regions.iter().enumerate() {
            for c in clients.iter().filter(|c| c.region == *region) {
                region_groups[i].extend(
                    c.programs
                        .iter()
                        .flat_map(|p| p.requests())
                        .map(|r| r.prompt.clone()),
                );
            }
        }
        let (within_region, across_region) = grouped_similarity(&region_groups);

        // Paper (WildChat): within-user 19.0 %, across-user 2.5 %,
        // within-region 10.9 %, across-region 2.5 %.
        assert!(
            (0.10..=0.32).contains(&within_user),
            "within-user {within_user}"
        );
        assert!(
            (0.005..=0.06).contains(&across_user),
            "across-user {across_user}"
        );
        assert!(
            (0.05..=0.18).contains(&within_region),
            "within-region {within_region}"
        );
        assert!(
            (0.005..=0.06).contains(&across_region),
            "across-region {across_region}"
        );
        assert!(within_user > 3.0 * across_user, "paper ratio ≥ 7.6×ish");
        assert!(within_region > 2.0 * across_region);
    }

    #[test]
    fn arena_similarity_structure() {
        let clients = clients(ConversationConfig::arena(), vec![(Region::UsEast, 24)], 13);
        let user_groups: Vec<Vec<Vec<u32>>> = clients
            .iter()
            .map(|c| {
                c.programs
                    .iter()
                    .flat_map(|p| p.requests())
                    .map(|r| r.prompt.clone())
                    .collect()
            })
            .collect();
        let (within_user, across_user) = grouped_similarity(&user_groups);
        // Paper (Arena): within-user 20.5 %, across-user 8.3 % (2.47×).
        assert!(
            (0.12..=0.32).contains(&within_user),
            "within-user {within_user}"
        );
        assert!(
            (0.04..=0.14).contains(&across_user),
            "across-user {across_user}"
        );
        assert!(within_user > 1.5 * across_user);
        assert!(
            within_user / across_user < 6.0,
            "arena sharing is much flatter than wildchat"
        );
    }
}
