//! # sbitmap-core — the Self-learning Bitmap
//!
//! Implementation of the distinct-counting sketch of Chen, Cao, Shepp and
//! Nguyen, *Distinct Counting with a Self-Learning Bitmap* (ICDE 2009;
//! full version arXiv:1107.1697).
//!
//! The S-bitmap estimates the number of distinct items `n` in a stream
//! using an `m`-bit bitmap updated through an adaptive sampling process.
//! Its defining property is **scale-invariance**: with the dimensioning
//! rule of the paper's Theorem 2, the relative root mean square error
//! (RRMSE) of the estimator equals `(C − 1)^{−1/2}` for *every*
//! `n ∈ [1, N]` — it does not drift with the unknown cardinality the way
//! linear counting, LogLog or HyperLogLog errors do.
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`dimensioning`] | §5.1, eq. (7) | solve `(N, m) → C`, `(N, ε) → m` |
//! | [`schedule`] | Thm. 2 | sampling rates `p_k`, `q_k`, thresholds |
//! | [`sketch`] | §3, Alg. 2 | the [`SBitmap`] update path |
//! | [`estimator`] | §4, eq. (2)/(8) | `n̂ = t_B` with truncation |
//! | [`theory`] | §4–§5 | closed forms: `t_b`, `var(T_b)`, RRMSE |
//! | [`simulate`] | Lemma 1 | exact O(m) Monte-Carlo of the fill process |
//! | [`counter`] | — | the layered trait family: [`DistinctCounter`], [`BatchedCounter`], [`MergeableCounter`] |
//! | [`fleet`] | §7.2 | per-key seed derivation shared by every keyed fleet |
//! | [`arena`] | §7.2 | many keyed sketches over one shared schedule, packed into one contiguous arena, with an allocation-free radix batch router |
//! | [`sparse`] | §7 | the same fleet in size-classed sparse slab storage for million-key Zipf workloads |
//! | [`concurrent`] | §7.2 | lock-free sketch over the atomic bitmap backend |
//! | [`rotating`] | §7.1 | per-interval counting with bounded history |
//! | [`window`] | §7.1–7.2 | sliding-window distinct counting: a ring of epoch arenas on the [`window::EpochClock`] |
//! | [`codec`] | — | dependency-free versioned binary checkpoints: the [`Checkpoint`] trait and the tagged v2 wire format |
//! | [`journal`] | §7.2 | write-ahead delta journal + atomic snapshots: the durability substrate of the collector daemon |
//!
//! ## Quick start
//!
//! ```
//! use sbitmap_core::{DistinctCounter, SBitmap};
//!
//! // Count up to one million distinct flows with ~3% RRMSE.
//! let mut sketch = SBitmap::with_error(1_000_000, 0.03, 42).unwrap();
//! for flow_id in 0..50_000u64 {
//!     sketch.insert_u64(flow_id);
//!     sketch.insert_u64(flow_id); // duplicates are filtered by design
//! }
//! let estimate = sketch.estimate();
//! assert!((estimate / 50_000.0 - 1.0).abs() < 0.15);
//! // The sketch itself is just the bitmap: ~5.1 kbit here.
//! assert!(sketch.memory_bits() < 6_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod codec;
pub mod concurrent;
pub mod counter;
pub mod dimensioning;
mod error;
pub mod estimator;
pub mod fleet;
pub mod journal;
pub mod rotating;
pub mod schedule;
pub mod simulate;
pub mod sketch;
pub mod sparse;
pub mod theory;
pub mod window;

pub use arena::FleetArena;
pub use codec::{
    CheckedDelta, Checkpoint, CounterKind, DeltaBody, DeltaHeader, DeltaRecord, DeltaRuns,
    DeltaView, FleetDeltaFrame,
};
pub use concurrent::ConcurrentSBitmap;
pub use counter::{BatchedCounter, DistinctCounter, KeyedEstimates, MergeableCounter};
pub use dimensioning::Dimensioning;
pub use error::SBitmapError;
pub use journal::{JournalConfig, JournalError, JournalRecord, JournalWriter, SegmentScan};
pub use rotating::RotatingCounter;
pub use schedule::RateSchedule;
pub use sketch::SBitmap;
pub use sparse::SparseFleet;
pub use window::{AbsorbOutcome, EpochClock, WindowedFleet};
