//! The backbone lanes' reference fleet: one standalone [`SBitmap`] per
//! key behind a `HashMap`, over one shared [`RateSchedule`], each key
//! hashing with the seed [`sketch_seed`] derives — the pointer-rich
//! layout [`sbitmap_core::FleetArena`] packs into one arena.
//!
//! It backs two lanes and one gate of `bench-ingest` / `bench-fleet`:
//!
//! * **scalar** — [`KeyedSketches::insert_u64`] per pair: one HashMap
//!   probe and one pointer chase per item;
//! * **batched** — [`KeyedSketches::insert_batch`]: group the batch by
//!   key into reused buckets (arrival order kept within a key), then one
//!   HashMap lookup and one [`SBitmap::insert_u64s`] call per key;
//! * the equivalence gate: the arena's estimates must equal these
//!   independently built sketches' estimates before anything is timed.

use std::collections::HashMap;
use std::sync::Arc;

use sbitmap_core::fleet::sketch_seed;
use sbitmap_core::{DistinctCounter, RateSchedule, SBitmap};
use sbitmap_hash::{FromSeed, SplitMix64Hasher};

/// Per-key [`SBitmap`]s over one shared schedule.
#[derive(Debug)]
pub struct KeyedSketches {
    schedule: Arc<RateSchedule>,
    seed: u64,
    sketches: HashMap<u64, SBitmap>,
    /// Per-key item buckets for [`KeyedSketches::insert_batch`], indexed
    /// by key: drained after every call, capacity kept.
    buckets: Vec<Vec<u64>>,
}

impl KeyedSketches {
    /// Largest key [`KeyedSketches::insert_batch`] buckets directly. The
    /// backbone keys are link indices, far below it.
    const MAX_BUCKETED_KEY: u64 = 1 << 16;

    /// An empty fleet over `schedule`, per-key seeds derived from `seed`.
    pub fn new(schedule: Arc<RateSchedule>, seed: u64) -> Self {
        Self {
            schedule,
            seed,
            sketches: HashMap::new(),
            buckets: Vec::new(),
        }
    }

    fn sketch_mut(&mut self, key: u64) -> &mut SBitmap {
        let (schedule, seed) = (&self.schedule, self.seed);
        self.sketches.entry(key).or_insert_with(|| {
            SBitmap::with_shared_schedule(
                schedule.clone(),
                SplitMix64Hasher::from_seed(sketch_seed(seed, key)),
            )
        })
    }

    /// Insert one `(key, item)` pair.
    pub fn insert_u64(&mut self, key: u64, item: u64) {
        self.sketch_mut(key).insert_u64(item);
    }

    /// Insert a batch grouped by key: per-key state ends bit-identical
    /// to feeding [`KeyedSketches::insert_u64`] pair by pair. Returns
    /// the bits newly set across the fleet.
    ///
    /// # Panics
    ///
    /// Panics on a key at or above 2^16 — the bucket table is indexed
    /// by key, which suits link indices only.
    pub fn insert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let Some(max_key) = pairs.iter().map(|&(k, _)| k).max() else {
            return 0;
        };
        assert!(
            max_key < Self::MAX_BUCKETED_KEY,
            "key {max_key} is not a link index"
        );
        let mut buckets = std::mem::take(&mut self.buckets);
        if buckets.len() <= max_key as usize {
            buckets.resize_with(max_key as usize + 1, Vec::new);
        }
        for &(key, item) in pairs {
            buckets[key as usize].push(item);
        }
        let mut newly = 0;
        for (key, items) in buckets[..=max_key as usize].iter_mut().enumerate() {
            if !items.is_empty() {
                newly += self.sketch_mut(key as u64).insert_u64s(items);
                items.clear();
            }
        }
        self.buckets = buckets;
        newly
    }

    /// Number of keys with a sketch.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// `true` before the first insert.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// All `(key, estimate)` pairs, in ascending key order.
    pub fn estimates(&self) -> Vec<(u64, f64)> {
        let mut estimates: Vec<(u64, f64)> = self
            .sketches
            .iter()
            .map(|(&key, sketch)| (key, sketch.estimate()))
            .collect();
        estimates.sort_unstable_by_key(|&(key, _)| key);
        estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> KeyedSketches {
        KeyedSketches::new(
            Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap()),
            9,
        )
    }

    #[test]
    fn batched_matches_pairwise_feed_across_repeated_batches() {
        let mut batched = fleet();
        let mut scalar = fleet();
        let a: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 7, i / 7 % 3_000)).collect();
        let b: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 3, i + 9_000)).collect();
        let mut newly = 0;
        for pairs in [&a, &b] {
            newly += batched.insert_batch(pairs);
            for &(k, item) in pairs.iter() {
                scalar.insert_u64(k, item);
            }
        }
        assert_eq!(batched.estimates(), scalar.estimates());
        let fill: usize = batched.sketches.values().map(SBitmap::fill).sum();
        assert_eq!(newly, fill as u64, "newly-set count must equal total fill");
        assert_eq!(batched.insert_batch(&[]), 0);
    }
}
