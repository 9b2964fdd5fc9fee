//! Inference request types shared by the replica, balancer, and workloads.

/// A globally unique request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// One inference request as seen by a replica.
///
/// `target_output_tokens` is the number of tokens the request will generate
/// before finishing. The *workload* decides it (it models the model's
/// stochastic output length); the *balancer never reads it* — that is the
/// paper's load-unpredictability premise (§2.3): output length is unknown
/// until decoding ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Globally unique id.
    pub id: RequestId,
    /// Consistent-hashing key: user id, session id, or program id (§3.2).
    pub session_key: String,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens the request will generate (hidden from the balancer).
    pub target_output_tokens: u32,
    /// Index of the first output token this request emits, in the
    /// original request's output stream. Zero for every normal request;
    /// the fabric's disaggregated decode leg sets it to 1 so the token
    /// ids generated across the prefill and decode replicas union to
    /// exactly what a colocated replica would have produced (multi-turn
    /// workloads replay those ids as follow-up prompts, so cache
    /// locality depends on the ids, not just the counts).
    pub output_offset: u32,
}

impl Request {
    /// Convenience constructor.
    pub fn new(
        id: u64,
        session_key: impl Into<String>,
        prompt: Vec<u32>,
        target_output_tokens: u32,
    ) -> Self {
        Request {
            id: RequestId(id),
            session_key: session_key.into(),
            prompt,
            target_output_tokens,
            output_offset: 0,
        }
    }

    /// Prompt length in tokens.
    pub fn prompt_len(&self) -> u32 {
        self.prompt.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_and_accessors() {
        let r = Request::new(7, "user-1", vec![1, 2, 3], 10);
        assert_eq!(r.id, RequestId(7));
        assert_eq!(r.prompt_len(), 3);
        assert_eq!(format!("{}", r.id), "req-7");
    }
}
