//! # skywalker-net
//!
//! The wide-area substrate for the SkyWalker reproduction: geographic
//! [`Region`]s, a calibrated inter-region [`LatencyModel`], and the
//! framed wire protocol used by the live TCP mode ([`wire`]). Where a
//! client is sent — latency-based DNS over the alive balancers, standing
//! in for Route53 — is `skywalker_core::Controller::resolve`, over this
//! latency model.
//!
//! The simulation and live modes share these types so that routing
//! decisions are made against one consistent view of "where things are".

mod region;
pub mod wire;

pub use region::{Continent, LatencyModel, Region};
pub use wire::{read_frame, write_frame, Message, WireError, MAX_FRAME_LEN, WIRE_VERSION};
