//! Inference request types shared by the replica, balancer, and workloads.

use std::sync::Arc;

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
///
/// The key and the prompt are shared and immutable: cloning a request —
/// a retry, the disaggregated prefill leg, a relay over the wire — copies
/// two pointers, and requests with identical content (a Tree-of-Thoughts
/// node's children, a conversation's turns) can hold one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Globally unique id.
    pub id: RequestId,
    /// Consistent-hashing key: user id, session id, or program id (§3.2).
    /// Shared and immutable; the requests of one session hold one key.
    pub session_key: Arc<str>,
    /// Prompt token ids. Shared and immutable; requests with the same
    /// prompt may hold one buffer.
    pub prompt: Arc<[u32]>,
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
        session_key: impl Into<Arc<str>>,
        prompt: impl Into<Arc<[u32]>>,
        target_output_tokens: u32,
    ) -> Self {
        Request {
            id: RequestId(id),
            session_key: session_key.into(),
            prompt: prompt.into(),
            target_output_tokens,
            output_offset: 0,
        }
    }

    /// Prompt length in tokens.
    pub fn prompt_len(&self) -> u32 {
        self.prompt.len() as u32
    }
}

/// A prompt that extends `head` by `tail`: a follow-up that replays an
/// earlier prompt plus what came after it. One exact-size allocation;
/// `head` is copied as a slice rather than token by token.
pub fn extended_prompt(head: &[u32], tail: impl ExactSizeIterator<Item = u32>) -> Arc<[u32]> {
    let len = head.len() + tail.len();
    let mut prompt: Arc<[u32]> = std::iter::repeat_n(0, len).collect();
    let buf = Arc::get_mut(&mut prompt).expect("a new buffer has one owner");
    let (front, back) = buf.split_at_mut(head.len());
    front.copy_from_slice(head);
    for (slot, token) in back.iter_mut().zip(tail) {
        *slot = token;
    }
    prompt
}

// A field that grows a request fails to compile here: requests ride in
// every fabric event and every replica queue.
const _: () = assert!(std::mem::size_of::<Request>() == 48);

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

    #[test]
    fn an_extended_prompt_equals_the_chained_tokens() {
        let chained = |head: &[u32], tail: &[u32]| -> Arc<[u32]> {
            head.iter().chain(tail).copied().collect()
        };
        let cases: [(&[u32], &[u32]); 4] = [
            (&[], &[]),
            (&[], &[4, 5]),
            (&[1, 2, 3], &[]),
            (&[1, 2, 3], &[4, 5]),
        ];
        for (head, tail) in cases {
            let got = extended_prompt(head, tail.iter().copied());
            assert_eq!(got, chained(head, tail), "{head:?} + {tail:?}");
        }
    }
}
