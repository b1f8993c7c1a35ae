//! # sbitmap-stream — workloads and synthetic traces
//!
//! The experiment harness needs three kinds of input:
//!
//! * [`generators`] — item streams with controlled distinct counts and
//!   duplication patterns (sequential, shuffled, Zipf-duplicated);
//! * [`worm`] — a synthetic stand-in for the MIT LCS "Slammer" outbreak
//!   traces used in the paper's §7.1 (per-minute flow counts on two
//!   peering links, bursty and non-stationary);
//! * [`backbone`] — a synthetic stand-in for the Tier-1 provider's
//!   600-link five-minute flow-count snapshot of §7.2, regenerated from
//!   the quantiles the paper publishes under its Figure 7;
//! * [`collector`] — the §7.2 deployment itself: sharded measurement
//!   nodes shipping binary checkpoints over channels to a collector that
//!   merges mergeable sketches and aggregates per-link S-bitmap
//!   estimates — plus the *windowed* deployment's per-shard v3 delta
//!   chains and the codec-free reference of the central sliding-window
//!   ring (`sbitmap_core::WindowedFleet`) they reassemble;
//! * [`net`] — the transport-agnostic session protocol (framed,
//!   checksummed messages with typed error frames) the `sbitmap-daemon`
//!   crate speaks over TCP;
//! * [`fault`] — deterministic, seeded fault injection ([`FaultPlan`])
//!   at the byte-stream and frame level, powering the robustness
//!   property suites.
//!
//! Both trace generators are deterministic in their seed, and both match
//! the *published statistics* of the original data (see DESIGN.md §4 for
//! the substitution argument — notably, the paper itself simulated
//! per-link streams from observed counts in §7.2, which is exactly what
//! we do).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backbone;
pub mod collector;
pub mod fault;
pub mod generators;
pub mod net;
pub mod worm;

pub use backbone::BackboneSnapshot;
pub use collector::{
    quantile_summary, run_pipeline, run_windowed_pipeline, CollectSummary, DeltaFrameSource,
    EpochFrames, LinkReport, PipelineConfig, WindowedLinkReport, WindowedPipelineConfig,
    WindowedSummary,
};
pub use fault::{FaultPlan, FaultyStream};
pub use generators::{distinct_items, shuffle_stream, zipf_stream, DistinctItems};
pub use worm::{WormLink, WormTrace};
