//! # sbitmap — Distinct Counting with a Self-Learning Bitmap
//!
//! Facade crate for the S-bitmap workspace: a production-quality Rust
//! reproduction of Chen, Cao, Shepp and Nguyen, *Distinct Counting with a
//! Self-Learning Bitmap* (ICDE 2009; arXiv:1107.1697), including every
//! baseline the paper evaluates against and the full experiment harness.
//!
//! The commonly used types are re-exported at the crate root:
//!
//! ```
//! use sbitmap::{SBitmap, DistinctCounter, HyperLogLog};
//!
//! let mut sb = SBitmap::with_error(1_000_000, 0.03, 42).unwrap();
//! let mut hll = HyperLogLog::with_error(1_000_000, 0.03, 42).unwrap();
//! for flow in 0..10_000u64 {
//!     sb.insert_u64(flow);
//!     hll.insert_u64(flow);
//! }
//! println!("S-bitmap: {:.0} with {} bits", sb.estimate(), sb.memory_bits());
//! println!("HLL:      {:.0} with {} bits", hll.estimate(), hll.memory_bits());
//! // The paper's Table 2: at this (N, eps) the S-bitmap is smaller.
//! assert!(sb.memory_bits() < hll.memory_bits());
//! ```
//!
//! See the subcrates for the full APIs:
//!
//! * [`core`] — the S-bitmap itself (sketch, dimensioning,
//!   theory, exact fast simulator);
//! * [`baselines`] — linear counting, virtual bitmap,
//!   multiresolution bitmap, FM/PCSA, LogLog, HyperLogLog, adaptive
//!   sampling, KMV, and the exact counter;
//! * [`hash`] — stream hashes and deterministic RNGs;
//! * [`bitvec`] — packed bitmaps and register files;
//! * [`stream`] — workload and synthetic-trace generators;
//! * [`stats`] — error metrics and the replication harness;
//! * [`daemon`] — `sbitmapd`, the fault-tolerant TCP collector daemon
//!   and its retrying node agent.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sbitmap_baselines as baselines;
pub use sbitmap_bitvec as bitvec;
pub use sbitmap_core as core;
pub use sbitmap_daemon as daemon;
pub use sbitmap_hash as hash;
pub use sbitmap_stats as stats;
pub use sbitmap_stream as stream;

pub use sbitmap_baselines::{
    AdaptiveBitmap, AdaptiveSampling, DistinctSampling, ExactCounter, FmSketch, HyperLogLog,
    KMinValues, LinearCounting, LogLog, MrBitmap, VirtualBitmap,
};
pub use sbitmap_bitvec::{AtomicBitmap, BitStore, Bitmap, OwnedBitStore, SliceBitmap};
pub use sbitmap_core::{
    BatchedCounter, Checkpoint, ConcurrentSBitmap, CounterKind, Dimensioning, DistinctCounter,
    EpochClock, FleetArena, KeyedEstimates, MergeableCounter, RateSchedule, RotatingCounter,
    SBitmap, SBitmapError, SparseFleet, WindowedFleet,
};
pub use sbitmap_hash::{HashKind, Hasher64};
