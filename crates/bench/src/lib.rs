//! Support library for the sbitmap benchmark suite.
//!
//! The benches themselves live in `benches/` and run on the in-tree
//! [`harness`] (this workspace builds offline, so criterion is not a
//! dependency; every bench is `harness = false` with its own `main`):
//!
//! * `update_throughput` — scalar vs batched vs concurrent ingestion on
//!   the backbone/worm generators (see [`mod@ingest`]), emitting
//!   `BENCH_ingest.json`, plus per-item insert cost for every sketch
//!   (the paper's "similar or less computational cost" claim, §3);
//! * `collector` — the sharded node→collector checkpoint pipeline at
//!   1..=T shards (see [`collect`]), emitting `BENCH_collect.json`;
//! * `fleet_storage` — per-key sketches ([`keyed`]) vs the arena fleet
//!   on the backbone workload, plus sparse vs dense on a Zipf workload
//!   (see [`fleet`]), emitting `BENCH_fleet.json`;
//! * `window_throughput` — windowed fleet ingest at W ∈ {2, 8, 32}
//!   epochs vs the plain arena, plus window query cost (see
//!   [`window`]), emitting `BENCH_window.json`;
//! * `estimate_cost` — cost of producing an estimate at realistic fills;
//! * `hashing` — the four hash families on word and byte inputs;
//! * `construction` — dimensioning solver and schedule precomputation;
//! * `paper_repro` — quick-mode regeneration of every table and figure
//!   (prints the same rows the experiment binaries do).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collect;
pub mod fleet;
pub mod harness;
pub mod ingest;
pub mod keyed;
pub mod window;

use sbitmap_core::DistinctCounter;

/// The standard workload the throughput benches share: `n` distinct
/// 64-bit items, pre-materialized so generation cost stays out of the
/// measurement.
pub fn workload(n: u64) -> Vec<u64> {
    sbitmap_stream::distinct_items(0xbe9c, n).collect()
}

/// Feed a whole workload into a counter (the measured inner loop).
#[inline]
pub fn ingest<C: DistinctCounter>(counter: &mut C, items: &[u64]) {
    for &item in items {
        counter.insert_u64(item);
    }
}

/// Names of the benchmarked sketches, in presentation order.
pub const ROSTER_NAMES: [&str; 11] = [
    "s-bitmap",
    "linear-counting",
    "virtual-bitmap",
    "adaptive-bitmap",
    "mr-bitmap",
    "fm-pcsa",
    "loglog",
    "hyperloglog",
    "adaptive-sampling",
    "distinct-sampling",
    "kmv",
];

/// Build one roster sketch by name (panics on unknown names — bench-only
/// code).
pub fn build_by_name(name: &str, seed: u64) -> Box<dyn DistinctCounter> {
    roster(seed)
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown sketch {name}"))
        .1
}

/// The sketch roster benchmarked head-to-head, with the paper's §7.1
/// configuration (`N = 10^6`, `m = 8000` bits).
pub fn roster(seed: u64) -> Vec<(&'static str, Box<dyn DistinctCounter>)> {
    const N_MAX: u64 = 1_000_000;
    const M: usize = 8_000;
    vec![
        (
            "s-bitmap",
            Box::new(sbitmap_core::SBitmap::with_memory(N_MAX, M, seed).unwrap())
                as Box<dyn DistinctCounter>,
        ),
        (
            "linear-counting",
            Box::new(sbitmap_baselines::LinearCounting::new(M, seed).unwrap()),
        ),
        (
            "virtual-bitmap",
            Box::new(sbitmap_baselines::VirtualBitmap::for_cardinality(M, N_MAX, seed).unwrap()),
        ),
        (
            "adaptive-bitmap",
            Box::new(sbitmap_baselines::AdaptiveBitmap::new(M, seed).unwrap()),
        ),
        (
            "mr-bitmap",
            Box::new(sbitmap_baselines::MrBitmap::with_memory(M, N_MAX, seed).unwrap()),
        ),
        (
            "fm-pcsa",
            Box::new(sbitmap_baselines::FmSketch::with_memory(M, seed).unwrap()),
        ),
        (
            "loglog",
            Box::new(sbitmap_baselines::LogLog::with_memory(M, N_MAX, seed).unwrap()),
        ),
        (
            "hyperloglog",
            Box::new(sbitmap_baselines::HyperLogLog::with_memory(M, N_MAX, seed).unwrap()),
        ),
        (
            "adaptive-sampling",
            Box::new(sbitmap_baselines::AdaptiveSampling::with_memory(M, seed).unwrap()),
        ),
        (
            "distinct-sampling",
            Box::new(sbitmap_baselines::DistinctSampling::with_memory(M, seed).unwrap()),
        ),
        (
            "kmv",
            Box::new(sbitmap_baselines::KMinValues::with_memory(M, seed).unwrap()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_builds_and_counts() {
        let items = workload(10_000);
        for (name, mut counter) in roster(1) {
            ingest(&mut counter, &items);
            let rel = counter.estimate() / 10_000.0 - 1.0;
            assert!(rel.abs() < 0.5, "{name}: rel {rel}");
        }
    }
}
