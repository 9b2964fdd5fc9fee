//! # skywalker-workload
//!
//! Synthetic workload generators reproducing the structure of the traces
//! the paper evaluates on — WildChat and ChatBot Arena multi-turn
//! conversations, Tree-of-Thoughts program traces over GSM8K-style
//! questions, and the diurnal per-region arrival patterns that motivate
//! cross-region serving in the first place.
//!
//! The real datasets are not shipped; instead each generator is calibrated
//! to the published statistics the paper derives from them:
//!
//! - diurnal per-region load with 2.88–32.64× per-region swings that
//!   aggregate to ≈ 1.29× (Fig. 2, Fig. 3a) — [`diurnal`];
//! - heavy-tailed input/output token lengths (Fig. 4a) — [`lengths`];
//! - within-user ≫ across-user and within-region ≫ across-region prefix
//!   similarity (Fig. 5) — [`conversation`] + [`prefix_stats`];
//! - ToT trees with 15 (2-branch) / 85 (4-branch) requests and level
//!   concurrency (§5.1) — [`tot`].
//!
//! Workloads are served to the simulation as **streaming
//! [`TrafficSource`]s** ([`source`]): the fabric pulls client arrivals as
//! simulated time advances and each client's [`program::Program`]s —
//! fully materialized stages of [`skywalker_replica::Request`]s — are
//! generated lazily at its arrival instant. A new generated workload is
//! one [`ClientGen`] method under the shared [`SlotSource`]; any external
//! type implementing [`TrafficSource`] plugs into the fabric without
//! touching this crate.

pub mod conversation;
pub mod diurnal;
pub mod lengths;
pub mod prefix_stats;
pub mod program;
pub mod source;
pub mod tot;

pub use conversation::{ConversationConfig, ConversationGen, ConversationSource};
pub use diurnal::{aggregate_hourly, fig2_countries, fig3_regions, variance_ratio, DiurnalProfile};
pub use lengths::LengthModel;
pub use prefix_stats::{
    grouped_similarity, mean_cross_similarity, mean_within_similarity, prefix_similarity,
    similarity_matrix,
};
pub use program::{ClientSpec, IdGen, Program};
pub use source::{
    distinct_regions, drain, region_of_slot, total_slots, ArrivalSchedule, ArrivalTimes,
    ArrivalWalk, ClientEvent, ClientGen, ClientListSource, CloneTrafficSource, MergeSource,
    SlotSource, TrafficSource,
};
pub use tot::{generate_tree, TotConfig, TotGen, TotSource};
