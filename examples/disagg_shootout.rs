//! The disaggregation shootout: the `disagg` preset run split vs
//! colocated across both traffic shapes on the parallel lab, showing
//! where prefill/decode disaggregation pays and where it doesn't —
//! same fleet, same two-tier cache, same traffic; only the roles move.
//!
//! The expected verdict crosses over on P90 TTFT:
//!
//! - **decode-heavy**: colocated replicas fill their KV with
//!   long-running decodes and starve prefill admission, so the split —
//!   whose prefill replicas shed every request right after the first
//!   token — wins time-to-first-token;
//! - **prefill-heavy**: decodes are short, admission never starves, and
//!   halving the prefill capacity just doubles the prompt queue — the
//!   split loses.
//!
//! A demo: it prints the lab's own report and checks nothing. The
//! crossover is gated as the "Disagg shootout" rows of `docs/claims.md`
//! (`tests/paper_claims.rs`); transfer conservation by
//! `tests/conservation.rs`.
//!
//! Run with:
//! ```sh
//! cargo run --release --example disagg_shootout
//! ```

use skywalker::{disagg_scenario, recipe, DisaggWorkload};
use skywalker_lab::SweepSpec;

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "disagg shootout: {} workloads × split/colo × 2 seeds on {workers} workers\n",
        DisaggWorkload::ALL.len()
    );
    let mut spec = SweepSpec::new("disagg_shootout", 7).seeds(vec![1, 2]);
    for wl in DisaggWorkload::ALL {
        for disagg in [false, true] {
            spec = spec.cell(
                format!("{}/{}", wl.label(), if disagg { "split" } else { "colo" }),
                recipe(move |seed| disagg_scenario(wl, disagg, 1.0, seed)),
            );
        }
    }
    println!("{}", spec.run(workers).report().markdown());
}
