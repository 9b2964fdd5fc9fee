//! The serving-engine shootout: the `memory_pressure` preset run across
//! five engines on the parallel lab, showing the fourth experiment axis
//! is real — same routing, same traffic, same fleet, and the engines
//! still split on P90 TTFT and hit ratio because the bottleneck is the
//! serving loop itself.
//!
//! Raced: the default `fcfs+lru`, chunked prefill, preemption under KV
//! pressure, `ShortestPromptFirst` (a policy implemented *outside* the
//! replica crate) over the hot-corpus-protecting evictor, and a
//! no-eviction baseline; each engine's label lands in the table.
//!
//! A demo: it prints the lab's own report and checks nothing. That the
//! engines diverge on P90 TTFT is gated as the "Engine shootout" row of
//! `docs/claims.md` (`tests/paper_claims.rs`).
//!
//! Run with:
//! ```sh
//! cargo run --release --example engine_shootout
//! ```

use skywalker::{
    memory_pressure_scenario, recipe, EngineSpec, FcfsBatch, LruEvictor, NoEvict,
    PrefixAwareEvictor, ShortestPromptFirst,
};
use skywalker_lab::SweepSpec;

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engines = vec![
        EngineSpec::default(),
        EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor)),
        EngineSpec::new(
            Box::new(FcfsBatch::new().with_preemption(0.92)),
            Box::new(LruEvictor),
        ),
        EngineSpec::new(
            Box::new(ShortestPromptFirst::new()),
            Box::new(PrefixAwareEvictor),
        ),
        EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(NoEvict)),
    ];

    println!(
        "engine shootout: memory_pressure × {} engines × 2 seeds on {workers} workers\n",
        engines.len()
    );
    let result = SweepSpec::new("engine_shootout", 7)
        .seeds(vec![1, 2])
        .engine_cells(
            "mp",
            recipe(|seed| memory_pressure_scenario(EngineSpec::default(), 0.5, seed)),
            engines,
        )
        .run(workers);
    println!("{}", result.report().markdown());
}
