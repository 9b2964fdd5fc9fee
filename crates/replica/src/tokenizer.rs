//! Deterministic synthetic tokens.
//!
//! Caches and routers operate on token ids, and decoding is deterministic
//! in this simulation: a request's output tokens are a pure function of
//! its id.

/// The `index`-th output token of request `request_id`.
///
/// Both the replica (which "generates" the tokens) and the workload
/// generator (which must embed the assistant's reply into the next
/// conversation turn) compute the same sequence from the request id
/// alone.
pub fn output_token(request_id: u64, index: u32) -> u32 {
    let mut h: u64 = request_id ^ 0x6a09_e667_f3bc_c908;
    h ^= u64::from(index).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (h >> 32) as u32
}
