//! Seeded property loops over the prefix-similarity statistics (Fig. 5's
//! measurement machinery) — the same style as the core crate's policy
//! parity suites: a `DetRng` drives many randomized cases, so the
//! properties hold over a broad input space while staying reproducible.

use skywalker_net::Region;
use skywalker_sim::DetRng;
use skywalker_workload::{
    drain, grouped_similarity, mean_cross_similarity, mean_within_similarity, prefix_similarity,
    similarity_matrix, ConversationConfig, ConversationSource,
};

fn random_seq(rng: &mut DetRng, max_len: u64, alphabet: u64) -> Vec<u32> {
    let len = rng.below(max_len + 1) as usize;
    (0..len).map(|_| rng.below(alphabet) as u32).collect()
}

/// A pair with a planted common prefix, so the loop exercises the whole
/// `[0, 1]` range instead of mostly-zero similarities.
fn related_pair(rng: &mut DetRng) -> (Vec<u32>, Vec<u32>) {
    let common = random_seq(rng, 64, 8);
    let mut a = common.clone();
    let mut b = common;
    a.extend(random_seq(rng, 32, 8));
    b.extend(random_seq(rng, 32, 8));
    (a, b)
}

#[test]
fn similarity_is_symmetric_bounded_and_reflexive() {
    let mut rng = DetRng::for_component(0xF165, "prefix-props");
    for case in 0..2_000 {
        let (a, b) = if case % 2 == 0 {
            (random_seq(&mut rng, 48, 4), random_seq(&mut rng, 48, 4))
        } else {
            related_pair(&mut rng)
        };
        let ab = prefix_similarity(&a, &b);
        let ba = prefix_similarity(&b, &a);
        assert_eq!(ab, ba, "symmetry violated for {a:?} / {b:?}");
        assert!((0.0..=1.0).contains(&ab), "out of bounds: {ab}");
        assert_eq!(prefix_similarity(&a, &a), 1.0, "reflexivity for {a:?}");
        // A strict prefix is maximally similar.
        if !a.is_empty() {
            let mut ext = a.clone();
            ext.extend(random_seq(&mut rng, 16, 4));
            assert_eq!(prefix_similarity(&a, &ext), 1.0);
        }
    }
}

#[test]
fn group_means_stay_bounded_and_consistent() {
    let mut rng = DetRng::for_component(0xF165, "group-props");
    for _ in 0..300 {
        let group = |rng: &mut DetRng| -> Vec<Vec<u32>> {
            let n = rng.below(6) as usize;
            (0..n).map(|_| random_seq(rng, 24, 3)).collect()
        };
        let xs = group(&mut rng);
        let ys = group(&mut rng);
        let cross = mean_cross_similarity(&xs, &ys);
        assert!((0.0..=1.0).contains(&cross));
        // Symmetric up to summation order.
        assert!(
            (cross - mean_cross_similarity(&ys, &xs)).abs() < 1e-12,
            "cross symmetry"
        );
        let within = mean_within_similarity(&xs);
        assert!((0.0..=1.0).contains(&within));

        let (w, c) = grouped_similarity(&[xs.clone(), ys.clone()]);
        assert!((0.0..=1.0).contains(&w));
        assert!((0.0..=1.0).contains(&c));
        // Two groups: the across term is exactly the pairwise cross mean.
        if !xs.is_empty() && !ys.is_empty() {
            assert!((c - cross).abs() < 1e-12);
        }

        let m = similarity_matrix(&[xs, ys]);
        #[allow(clippy::needless_range_loop)] // i,j index a symmetric matrix
        for i in 0..2 {
            for j in 0..2 {
                assert!((m[i][j] - m[j][i]).abs() < 1e-12, "matrix symmetry");
                assert!((0.0..=1.0).contains(&m[i][j]));
            }
        }
    }
}

/// The paper's load-bearing inequality on real generator output: prompts
/// share far more prefix within a user (templates, personas, multi-turn
/// history) than across users — across seeds, not just the one the
/// calibration test happens to use.
#[test]
fn conversation_clients_keep_within_at_least_cross_across_seeds() {
    for seed in [1u64, 7, 23, 1999, 0xF00D] {
        let clients = drain(&mut ConversationSource::new(
            ConversationConfig::wildchat(),
            vec![(Region::UsEast, 8), (Region::EuWest, 8)],
            seed,
        ));
        let groups: Vec<Vec<Vec<u32>>> = clients
            .iter()
            .map(|c| {
                c.programs
                    .iter()
                    .flat_map(|p| p.requests())
                    .map(|r| r.prompt.clone())
                    .collect()
            })
            .collect();
        let (within, cross) = grouped_similarity(&groups);
        assert!(
            within >= cross,
            "seed {seed}: within-user {within} < across-user {cross}"
        );
        assert!(
            within > 0.0,
            "seed {seed}: multi-turn history must share prefixes"
        );
        assert!((0.0..=1.0).contains(&within) && (0.0..=1.0).contains(&cross));
    }
}
