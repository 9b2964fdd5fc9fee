//! A cache that keeps a finished request's output as a run — request,
//! offset, length — holds what a cache fed the same tokens holds, op
//! for op.
//!
//! Two caches race through one seeded schedule: `runs` completes every
//! request with `PrefixCache::complete_run`, `tokens` with
//! `PrefixCache::complete` over the same output written out. The
//! schedule acquires prompts that replay earlier outputs (whole, cut
//! inside, or diverging inside — a split inside a run), completes
//! requests from offset 0 or 1 (the disaggregated decode leg's), lets
//! eviction run, preempts one request and fails all of them. After every
//! op the two must agree on what each acquire matched, on the tiered
//! match of every prompt seen, on every counter the cache reports, and
//! on its tree edits. Caches run under the LRU evictor, a two-tier LRU
//! and the prefix-aware evictor.
//!
//! Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.

use skywalker_replica::{
    output_token, KvConfig, KvEvictor, Lease, LruEvictor, PrefixAwareEvictor, PrefixCache,
    TieredEvictor,
};
use skywalker_sim::DetRng;

/// Builds one cache's evictor; each cache of a pair gets its own.
type Evictor = fn() -> Box<dyn KvEvictor>;

/// A request in flight on both caches, and the prompt it acquired.
struct Live {
    runs: Lease,
    tokens: Lease,
    prompt: Vec<u32>,
}

/// A finished request: its prompt, then its output as a run.
struct Done {
    prompt: Vec<u32>,
    request: u64,
    from: u32,
    len: u32,
}

impl Done {
    fn output(&self) -> Vec<u32> {
        (0..self.len)
            .map(|k| output_token(self.request, self.from + k))
            .collect()
    }
}

/// Everything a cache reports, in one comparable tuple.
fn stats(c: &PrefixCache) -> [u64; 9] {
    [
        c.used_tokens(),
        c.pinned_tokens(),
        c.reclaimable_tokens(),
        c.host_used_tokens(),
        c.evicted_tokens(),
        c.demoted_tokens(),
        c.promoted_tokens(),
        c.tree_edits(),
        c.hit_rate().to_bits(),
    ]
}

/// A prompt: fresh tokens from a small alphabet, or a finished
/// request's prompt and a cut of its output, then (sometimes) a token
/// that diverges inside the output and a few more. A replay also
/// returns where the output it replays lies in the prompt.
fn prompt(rng: &mut DetRng, done: &[Done]) -> (Vec<u32>, Option<(u64, u64)>) {
    if done.is_empty() || rng.below(3) == 0 {
        let len = rng.range(1, 24);
        return ((0..len).map(|_| rng.below(6) as u32).collect(), None);
    }
    let d = &done[rng.below(done.len() as u64) as usize];
    let out = d.output();
    let cut = rng.range(0, u64::from(d.len) + 1) as usize;
    let mut p = d.prompt.clone();
    p.extend(&out[..cut]);
    if rng.below(2) == 0 {
        p.push(u32::MAX - rng.below(3) as u32);
        p.extend((0..rng.below(6)).map(|_| rng.below(6) as u32));
    }
    let at = d.prompt.len() as u64;
    (p, Some((at, at + u64::from(d.len))))
}

/// What one race went through: acquires whose hit ended strictly inside
/// a replayed output (a split inside a run, or a walk stopped in one),
/// and the tokens it evicted and demoted.
#[derive(Default)]
struct Seen {
    inside_a_run: u64,
    evicted: u64,
    demoted: u64,
}

fn race(case: u64, evictor: Evictor, tag: &str, cover: &mut Seen) {
    let mut rng = DetRng::for_component(case, &format!("run-race/{tag}"));
    let cfg = KvConfig::tiny(rng.range(32, 320));
    let mut runs = PrefixCache::with_evictor(cfg, evictor());
    let mut tokens = PrefixCache::with_evictor(cfg, evictor());
    let (mut live, mut done, mut seen) = (Vec::<Live>::new(), Vec::<Done>::new(), Vec::new());
    let mut next_request = 1_000 * case;
    for op in 0..rng.range(20, 80) {
        let at = format!("{tag} case {case} op {op}");
        match rng.below(10) {
            0..=3 => {
                let (p, replay) = prompt(&mut rng, &done);
                match (runs.acquire(&p), tokens.acquire(&p)) {
                    (Ok((r, hit_r)), Ok((t, hit_t))) => {
                        assert_eq!(hit_r, hit_t, "{at}: acquire matched");
                        if replay.is_some_and(|(lo, hi)| lo < hit_r && hit_r < hi) {
                            cover.inside_a_run += 1;
                        }
                        live.push(Live {
                            runs: r,
                            tokens: t,
                            prompt: p.clone(),
                        });
                    }
                    (Err(r), Err(t)) => assert_eq!(r, t, "{at}: acquire refused"),
                    (r, t) => panic!("{at}: one acquire failed: {r:?} against {t:?}"),
                }
                seen.push(p);
            }
            4..=6 if !live.is_empty() => {
                let l = live.swap_remove(rng.below(live.len() as u64) as usize);
                next_request += 1;
                let d = Done {
                    prompt: l.prompt,
                    request: next_request,
                    from: rng.below(2) as u32,
                    len: rng.range(0, 41) as u32,
                };
                runs.complete_run(l.runs, d.request, d.from, d.len);
                tokens.complete(l.tokens, &d.output());
                let mut whole = d.prompt.clone();
                whole.extend(d.output());
                seen.push(whole);
                done.push(d);
            }
            // Preemption: one request in flight gives its lease back.
            7 if !live.is_empty() => {
                let l = live.swap_remove(rng.below(live.len() as u64) as usize);
                runs.release(l.runs);
                tokens.release(l.tokens);
            }
            // A failed replica: every request in flight lets go.
            8 => {
                for l in live.drain(..) {
                    runs.release(l.runs);
                    tokens.release(l.tokens);
                }
            }
            _ => {
                runs.clear_unpinned();
                tokens.clear_unpinned();
            }
        }
        runs.check_invariants();
        assert_eq!(stats(&runs), stats(&tokens), "{at}: counters");
        for p in &seen {
            assert_eq!(
                runs.matched_tokens_tiered(p),
                tokens.matched_tokens_tiered(p),
                "{at}: match of a prompt seen"
            );
        }
    }
    cover.evicted += runs.evicted_tokens();
    cover.demoted += runs.demoted_tokens();
}

#[test]
fn a_cache_fed_runs_holds_what_a_cache_fed_tokens_holds() {
    let evictors: [(&str, Evictor); 3] = [
        ("lru", || Box::new(LruEvictor)),
        ("tiered", || {
            Box::new(TieredEvictor::new(Box::new(LruEvictor), 64))
        }),
        ("prefix-aware", || Box::new(PrefixAwareEvictor)),
    ];
    for (tag, evictor) in evictors {
        let mut cover = Seen::default();
        for case in 0..200 {
            race(case, evictor, tag, &mut cover);
        }
        println!(
            "{tag}: {} hits ended inside a run; {} tokens evicted, {} demoted",
            cover.inside_a_run, cover.evicted, cover.demoted
        );
        assert!(
            cover.inside_a_run > 500,
            "{tag}: {} hits ended inside a run",
            cover.inside_a_run
        );
        assert!(cover.evicted > 0, "{tag}: nothing was evicted");
        assert_eq!(
            cover.demoted > 0,
            tag == "tiered",
            "{tag}: demoted {}",
            cover.demoted
        );
    }
}
