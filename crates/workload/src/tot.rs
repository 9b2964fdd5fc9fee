//! Tree-of-Thoughts workload generator.
//!
//! The paper evaluates on Tree of Thoughts over GSM8K (§5.1): each math
//! question is solved by a depth-4 tree of reasoning steps. A node's
//! prompt is the question plus the chain of thoughts along its root path;
//! nodes at the same depth run concurrently. A branch factor of 2 yields
//! 1 + 2 + 4 + 8 = 15 requests per tree; a branch factor of 4 yields
//! 1 + 4 + 16 + 64 = 85 — exactly the paper's request counts.
//!
//! ToT exhibits the *highest* prefix reuse of the evaluated workloads
//! (siblings share their full ancestor path) which is why consistent
//! hashing on the question id is nearly optimal for uniform trees
//! (Fig. 8c) — and why heterogeneous trees break it (Fig. 8d).

use std::sync::Arc;

use skywalker_net::Region;
use skywalker_replica::{extended_prompt, output_token, Request};
use skywalker_sim::DetRng;

use crate::lengths::LengthModel;
use crate::program::{ClientSpec, IdGen, Program};
use crate::source::{total_slots, ClientGen, SlotSource};

/// Tree-of-Thoughts generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotConfig {
    /// Children per node.
    pub branch: u32,
    /// Tree depth (levels including the root). The paper uses 4.
    pub depth: u32,
    /// Question (root prompt) length in tokens.
    pub question_tokens: u32,
    /// Thought (per-node output) length distribution.
    pub thought: LengthModel,
}

impl TotConfig {
    /// The paper's 2-branch tree: 15 requests.
    pub fn branch2() -> Self {
        TotConfig {
            branch: 2,
            depth: 4,
            question_tokens: 96,
            thought: LengthModel::TOT_THOUGHT,
        }
    }

    /// The paper's 4-branch tree: 85 requests (Mixed Tree's US traffic).
    pub fn branch4() -> Self {
        TotConfig {
            branch: 4,
            depth: 4,
            question_tokens: 96,
            thought: LengthModel::TOT_THOUGHT,
        }
    }

    /// Requests per tree: `1 + b + b² + … + b^(depth-1)`.
    fn requests_per_tree(&self) -> u32 {
        (0..self.depth).map(|l| self.branch.pow(l)).sum()
    }
}

fn question_fragment(question_id: u64, len: u32) -> Arc<[u32]> {
    (0..len)
        .map(|k| {
            let mut h = question_id ^ 0x7a37_59df_44b5_3f91;
            h ^= u64::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (h >> 32) as u32
        })
        .collect()
}

/// Generates one ToT tree as a program: stage `l` holds the `branch^l`
/// node requests of level `l`; every node's prompt embeds its ancestors'
/// generated thoughts. A node's children get the same prompt, so they
/// hold one buffer, and the whole tree holds one key.
pub fn generate_tree(
    cfg: &TotConfig,
    question_id: u64,
    rng: &mut DetRng,
    ids: &mut IdGen,
) -> Program {
    let question = question_fragment(question_id, cfg.question_tokens);
    let session_key: Arc<str> = format!("question-{question_id}").into();
    let mut node = |prompt: &Arc<[u32]>, rng: &mut DetRng| {
        let (id, out_len) = (ids.next_id(), cfg.thought.sample(rng));
        Request::new(id, session_key.clone(), prompt.clone(), out_len)
    };
    let mut stages: Vec<Vec<Request>> = Vec::with_capacity(cfg.depth as usize);
    for _ in 0..cfg.depth {
        let stage = match stages.last() {
            None => vec![node(&question, rng)],
            Some(parents) => {
                let mut stage = Vec::with_capacity(parents.len() * cfg.branch as usize);
                for parent in parents {
                    // Every child's prompt: parent's prompt + parent's thought.
                    let thought =
                        (0..parent.target_output_tokens).map(|k| output_token(parent.id.0, k));
                    let prompt = extended_prompt(&parent.prompt, thought);
                    stage.extend((0..cfg.branch).map(|_| node(&prompt, rng)));
                }
                stage
            }
        };
        stages.push(stage);
    }
    Program { stages }
}

/// The content of a Tree-of-Thoughts workload: each slot is one client
/// solving `trees_per_client` questions back-to-back. Per-client
/// randomness is an independent stream keyed by `(seed, client)`.
#[derive(Debug, Clone)]
pub struct TotGen {
    cfg: TotConfig,
    trees_per_client: u32,
    seed: u64,
}

impl ClientGen for TotGen {
    fn client(&mut self, slot: usize, region: Region, ids: &mut IdGen) -> ClientSpec {
        let user = format!("tot-client-{slot}");
        let mut rng = DetRng::for_component(self.seed, &user);
        // Question ids run consecutively across the clients of a source.
        let trees = u64::from(self.trees_per_client);
        let first = slot as u64 * trees;
        let programs = (first..first + trees)
            .map(|question| generate_tree(&self.cfg, question, &mut rng, ids))
            .collect();
        ClientSpec {
            region,
            user,
            programs,
        }
    }
}

/// Tree-of-Thoughts traffic as a streaming source: [`TotGen`] under the
/// shared slot walk.
pub type TotSource = SlotSource<TotGen>;

impl TotSource {
    /// A source over `clients_per_region` slots, each client solving
    /// `trees_per_client` questions back-to-back, all arriving at
    /// `t = 0`.
    pub fn new(
        cfg: TotConfig,
        clients_per_region: Vec<(Region, u32)>,
        trees_per_client: u32,
        seed: u64,
    ) -> Self {
        let content = TotGen {
            cfg,
            trees_per_client,
            seed,
        };
        SlotSource::over(content, clients_per_region, seed).with_label("tot")
    }

    /// Total requests this source will ever emit — ToT trees have a fixed
    /// shape, so the count is closed-form. Useful for carving out the
    /// next source's id range when composing.
    pub fn total_requests(&self) -> u64 {
        total_slots(&self.slots) as u64
            * u64::from(self.content.trees_per_client)
            * u64::from(self.content.cfg.requests_per_tree())
    }

    /// One past the last request id this source can allocate.
    pub fn request_id_end(&self) -> u64 {
        self.first_request_id + self.total_requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix_stats::prefix_similarity;

    #[test]
    fn request_counts_match_paper() {
        assert_eq!(TotConfig::branch2().requests_per_tree(), 15);
        assert_eq!(TotConfig::branch4().requests_per_tree(), 85);
    }

    #[test]
    fn tree_structure_levels_and_widths() {
        let cfg = TotConfig::branch2();
        let mut rng = DetRng::new(1);
        let mut ids = IdGen::new();
        let p = generate_tree(&cfg, 0, &mut rng, &mut ids);
        let widths: Vec<usize> = p.stages.iter().map(Vec::len).collect();
        assert_eq!(widths, vec![1, 2, 4, 8]);
        assert_eq!(p.total_requests(), 15);
    }

    #[test]
    fn children_extend_parent_prompts() {
        let cfg = TotConfig::branch2();
        let mut rng = DetRng::new(2);
        let mut ids = IdGen::new();
        let p = generate_tree(&cfg, 7, &mut rng, &mut ids);
        for level in 1..p.stages.len() {
            for (c_idx, child) in p.stages[level].iter().enumerate() {
                let parent = &p.stages[level - 1][c_idx / 2];
                assert!(child.prompt.len() > parent.prompt.len());
                assert_eq!(&child.prompt[..parent.prompt.len()], &parent.prompt[..]);
                assert_eq!(prefix_similarity(&parent.prompt, &child.prompt), 1.0);
            }
        }
    }

    #[test]
    fn siblings_share_full_ancestor_path() {
        let cfg = TotConfig::branch4();
        let mut rng = DetRng::new(3);
        let mut ids = IdGen::new();
        let p = generate_tree(&cfg, 9, &mut rng, &mut ids);
        let level1 = &p.stages[1];
        for pair in level1.windows(2) {
            // Siblings have identical prompts at level 1 (question +
            // root's thought), so similarity is 1.
            assert_eq!(prefix_similarity(&pair[0].prompt, &pair[1].prompt), 1.0);
        }
        // At every level, a node's children hold one prompt buffer.
        for stage in &p.stages[1..] {
            for siblings in stage.chunks(cfg.branch as usize) {
                let prompt = &siblings[0].prompt;
                assert!(siblings.iter().all(|r| Arc::ptr_eq(&r.prompt, prompt)));
            }
        }
    }

    #[test]
    fn different_questions_share_nothing() {
        let cfg = TotConfig::branch2();
        let mut rng = DetRng::new(4);
        let mut ids = IdGen::new();
        let a = generate_tree(&cfg, 100, &mut rng, &mut ids);
        let b = generate_tree(&cfg, 200, &mut rng, &mut ids);
        let sim = prefix_similarity(&a.stages[0][0].prompt, &b.stages[0][0].prompt);
        assert_eq!(sim, 0.0);
    }

    #[test]
    fn session_key_is_question_scoped() {
        let cfg = TotConfig::branch2();
        let mut rng = DetRng::new(5);
        let mut ids = IdGen::new();
        let p = generate_tree(&cfg, 42, &mut rng, &mut ids);
        assert!(p.requests().all(|r| &*r.session_key == "question-42"));
        // All 15 requests hold one key buffer.
        let key = &p.stages[0][0].session_key;
        assert!(p.requests().all(|r| Arc::ptr_eq(&r.session_key, key)));
    }

    #[test]
    fn client_generation_counts() {
        let mut src = TotSource::new(
            TotConfig::branch2(),
            vec![(Region::UsEast, 3), (Region::EuWest, 2)],
            2,
            6,
        )
        .with_first_request_id(40);
        assert_eq!(src.total_requests(), 150);
        assert_eq!(src.request_id_end(), 190);
        let clients = crate::source::drain(&mut src);
        assert_eq!(clients.len(), 5);
        for c in &clients {
            assert_eq!(c.programs.len(), 2);
            assert_eq!(c.total_requests(), 30);
        }
        assert_eq!(src.request_id_end(), 190, "a closed form, not a cursor");
        // All question ids distinct → no cross-client prefix sharing.
        let roots: Vec<&Request> = clients
            .iter()
            .flat_map(|c| c.programs.iter())
            .map(|p| &p.stages[0][0])
            .collect();
        for i in 0..roots.len() {
            for j in (i + 1)..roots.len() {
                assert_eq!(prefix_similarity(&roots[i].prompt, &roots[j].prompt), 0.0);
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = TotConfig::branch2();
        let mut ids1 = IdGen::new();
        let mut ids2 = IdGen::new();
        let a = generate_tree(&cfg, 1, &mut DetRng::new(7), &mut ids1);
        let b = generate_tree(&cfg, 1, &mut DetRng::new(7), &mut ids2);
        assert_eq!(a, b);
    }
}
