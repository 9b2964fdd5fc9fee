//! Client programs: the unit of closed-loop load generation.
//!
//! The paper's clients each run *one program at a time* (§5.1): a
//! multi-turn conversation whose turns are sequential, or a
//! Tree-of-Thoughts tree whose nodes run level-by-level with intra-level
//! concurrency. A [`Program`] captures exactly that: an ordered list of
//! *stages*; all requests inside a stage are issued concurrently, and a
//! stage starts only when the previous one has fully completed.
//!
//! Programs are fully materialized at generation time. That is possible —
//! even though later turns embed the model's earlier replies — because the
//! simulated decode is deterministic: the workload computes the same
//! [`skywalker_replica::output_token`] stream the replica will "generate".
//! Identical content is held once: a request's prompt and session key are
//! shared buffers, so the children of a Tree-of-Thoughts node hold one
//! prompt, and the requests of a tree, a conversation or a RAG document
//! hold one key.

use skywalker_net::Region;
use skywalker_replica::Request;

/// Allocator of globally unique request ids across all generators.
#[derive(Debug, Clone, Default)]
pub struct IdGen(u64);

impl IdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        IdGen(0)
    }

    /// Creates a generator whose first id is `first` — used to give
    /// composed traffic sources disjoint id ranges.
    pub fn starting_at(first: u64) -> Self {
        IdGen(first)
    }

    /// Returns the next unique id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.0;
        self.0 += 1;
        id
    }
}

/// One client program: stages of concurrently issued requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Stages in issue order; every request of stage `i` must complete
    /// before stage `i + 1` starts.
    pub stages: Vec<Vec<Request>>,
}

impl Program {
    /// Total number of requests across all stages.
    pub fn total_requests(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Iterates over every request in stage order.
    pub fn requests(&self) -> impl Iterator<Item = &Request> {
        self.stages.iter().flatten()
    }
}

/// One closed-loop client: a region, an owning user key, and the programs
/// it will run back-to-back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Region the client issues from (also its nearest-LB hint).
    pub region: Region,
    /// Stable user identity (consistent-hashing key source).
    pub user: String,
    /// Programs run sequentially, one at a time.
    pub programs: Vec<Program>,
}

impl ClientSpec {
    /// Total requests across all programs.
    pub fn total_requests(&self) -> usize {
        self.programs.iter().map(Program::total_requests).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idgen_monotone_unique() {
        let mut g = IdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert!(a < b);
    }

    #[test]
    fn program_accessors() {
        let p = Program {
            stages: vec![
                vec![Request::new(0, "u", vec![1], 1)],
                vec![
                    Request::new(1, "u", vec![1, 2], 1),
                    Request::new(2, "u", vec![1, 3], 1),
                ],
            ],
        };
        assert_eq!(p.total_requests(), 3);
        assert_eq!(p.requests().count(), 3);
    }

    #[test]
    fn client_totals() {
        let p = Program {
            stages: vec![vec![Request::new(0, "u", vec![1], 1)]],
        };
        let c = ClientSpec {
            region: Region::UsEast,
            user: "u".into(),
            programs: vec![p.clone(), p],
        };
        assert_eq!(c.total_requests(), 2);
    }
}
