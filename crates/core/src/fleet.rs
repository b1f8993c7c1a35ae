//! A fleet of S-bitmaps sharing one rate schedule — the deployment
//! pattern of the paper's §7.2 (600 backbone links, one configuration).
//!
//! The schedule (threshold table) is a pure function of `(N, m, d)` and
//! is by far the largest per-sketch allocation (`8m` bytes vs `m/8`
//! bytes of bitmap). Sharing it across a fleet keeps per-key overhead at
//! the paper's accounting: `m` bits of bitmap plus a fill counter.

use std::collections::HashMap;
use std::sync::Arc;

use sbitmap_bitvec::Bitmap;
use sbitmap_hash::{FromSeed, Hasher64, SplitMix64Hasher};

use crate::codec::{Checkpoint, CounterKind, PayloadReader, PayloadWriter};
use crate::counter::{DistinctCounter, KeyedEstimates};
use crate::schedule::RateSchedule;
use crate::sketch::SBitmap;
use crate::SBitmapError;

/// Per-key sketch seed derivation: a pure function of `(fleet seed, key)`
/// so a restored fleet rebuilds identical hashers.
///
/// Public because every fleet flavor ([`SketchFleet`],
/// [`crate::FleetArena`], [`crate::ParallelFleet`]) and the stream
/// collector derive per-key seeds through this one function — which is
/// what makes their per-key sketches interchangeable and their
/// checkpoints mutually restorable.
pub fn sketch_seed(fleet_seed: u64, key: u64) -> u64 {
    sbitmap_hash::mix64(fleet_seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A keyed collection of identically-configured S-bitmaps.
///
/// Sketches are created lazily on first insert for a key. Each key's
/// sketch hashes with a seed derived from `(fleet seed, key)`, so
/// distinct keys' estimates are independent.
///
/// This is the pointer-rich flavor: one heap allocation per key behind a
/// `HashMap`. It is the most flexible (cheap key removal, sketches can
/// be borrowed individually) but the slowest to ingest at fleet scale;
/// [`crate::FleetArena`] packs the same state contiguously and is the
/// hot-path choice.
///
/// ```
/// use sbitmap_core::SketchFleet;
///
/// let mut fleet: SketchFleet = SketchFleet::new(100_000, 4_000, 7).unwrap();
/// let pairs: Vec<(u64, u64)> = (0..9_000u64).map(|i| (i % 3, i / 3)).collect();
/// fleet.insert_batch(&pairs);
/// assert_eq!(fleet.len(), 3);
/// for (key, estimate) in fleet.estimates() {
///     assert!(key < 3, "ascending key order starts at the smallest");
///     assert!((estimate / 3_000.0 - 1.0).abs() < 0.2);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SketchFleet<H: Hasher64 + FromSeed = SplitMix64Hasher> {
    schedule: Arc<RateSchedule>,
    seed: u64,
    sketches: HashMap<u64, SBitmap<H>>,
    /// Reused dense-path bucket table (`insert_batch_dense`): buckets are
    /// drained after every call but keep their capacity, so the steady
    /// state allocates nothing.
    scratch_buckets: Vec<Vec<u64>>,
    /// Reused sparse-path sort buffer (`insert_batch_sorted`).
    scratch_pairs: Vec<(u64, u64)>,
    /// Reused per-run item buffer (`insert_batch_sorted`).
    scratch_items: Vec<u64>,
}

impl<H: Hasher64 + FromSeed> SketchFleet<H> {
    /// Create an empty fleet for cardinalities in `[1, n_max]` with `m`
    /// bits per key.
    ///
    /// # Errors
    ///
    /// See [`crate::Dimensioning::from_memory`].
    pub fn new(n_max: u64, m: usize, seed: u64) -> Result<Self, SBitmapError> {
        Ok(Self::with_schedule(
            Arc::new(RateSchedule::from_memory(n_max, m)?),
            seed,
        ))
    }

    /// Create a fleet over an existing shared schedule.
    pub fn with_schedule(schedule: Arc<RateSchedule>, seed: u64) -> Self {
        Self {
            schedule,
            seed,
            sketches: HashMap::new(),
            scratch_buckets: Vec::new(),
            scratch_pairs: Vec::new(),
            scratch_items: Vec::new(),
        }
    }

    /// Insert `item` into the sketch for `key` (created if absent).
    pub fn insert_u64(&mut self, key: u64, item: u64) {
        self.sketch_mut(key).insert_u64(item);
    }

    /// Insert a byte-string item into the sketch for `key`.
    pub fn insert_bytes(&mut self, key: u64, item: &[u8]) {
        self.sketch_mut(key).insert_bytes(item);
    }

    /// Largest key eligible for the O(n) dense grouping path of
    /// [`SketchFleet::insert_batch`]. Covers the paper's §7.2 shape
    /// (hundreds to thousands of link indices) with a bounded per-call
    /// bucket table; beyond it, grouping falls back to a stable sort.
    const DENSE_KEY_LIMIT: u64 = 1 << 16;

    /// Ingest a batch of `(key, item)` pairs, returning how many bits
    /// were newly set across the fleet.
    ///
    /// The batch is grouped by key first, preserving each key's arrival
    /// order — so per-key sketch state is bit-identical to feeding
    /// [`SketchFleet::insert_u64`] pair by pair. Each group then pays
    /// its HashMap lookup *once* and runs through the batched sketch
    /// path ([`SBitmap::insert_u64s`]) — the §7.2 shape, where a
    /// collector drains a packet buffer spanning hundreds of links in
    /// one call.
    ///
    /// Grouping is O(n) bucketing when keys are dense (all below
    /// `Self::DENSE_KEY_LIMIT`, as link indices are), and a stable
    /// sort otherwise; both orderings feed the sketches identically.
    pub fn insert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        if pairs.is_empty() {
            return 0;
        }
        let max_key = pairs.iter().map(|&(k, _)| k).max().expect("non-empty");
        // Dense only when the bucket table is small relative to the
        // batch — a lone pair with key 60000 should not allocate and
        // sweep 60001 buckets.
        let table_bound = pairs.len().saturating_mul(4).max(64) as u64;
        if max_key < Self::DENSE_KEY_LIMIT.min(table_bound) {
            self.insert_batch_dense(pairs, max_key as usize)
        } else {
            self.insert_batch_sorted(pairs)
        }
    }

    /// Dense-key grouping: one order-preserving pass into the reused
    /// per-key bucket table, then one batched ingest per touched key.
    /// Buckets are drained (not dropped) afterwards, so after warm-up no
    /// call allocates.
    fn insert_batch_dense(&mut self, pairs: &[(u64, u64)], max_key: usize) -> u64 {
        let mut buckets = std::mem::take(&mut self.scratch_buckets);
        if buckets.len() <= max_key {
            buckets.resize_with(max_key + 1, Vec::new);
        }
        for &(key, item) in pairs {
            buckets[key as usize].push(item);
        }
        let mut newly = 0u64;
        // Sweep only this batch's key range: the persistent table may be
        // wider than `max_key` after an earlier large-key batch.
        for (key, items) in buckets[..=max_key].iter_mut().enumerate() {
            if !items.is_empty() {
                newly += self.sketch_mut(key as u64).insert_u64s(items);
                items.clear();
            }
        }
        self.scratch_buckets = buckets;
        newly
    }

    /// Sparse-key grouping: stable sort into the reused pair buffer
    /// (preserves arrival order within a key), then run detection.
    fn insert_batch_sorted(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut sorted = std::mem::take(&mut self.scratch_pairs);
        let mut items = std::mem::take(&mut self.scratch_items);
        sorted.clear();
        sorted.extend_from_slice(pairs);
        sorted.sort_by_key(|&(key, _)| key);
        let mut newly = 0u64;
        let mut i = 0;
        while i < sorted.len() {
            let key = sorted[i].0;
            let run = i + sorted[i..].partition_point(|&(k, _)| k == key);
            items.clear();
            items.extend(sorted[i..run].iter().map(|&(_, item)| item));
            newly += self.sketch_mut(key).insert_u64s(&items);
            i = run;
        }
        self.scratch_pairs = sorted;
        self.scratch_items = items;
        newly
    }

    fn sketch_mut(&mut self, key: u64) -> &mut SBitmap<H> {
        let schedule = &self.schedule;
        let seed = self.seed;
        self.sketches.entry(key).or_insert_with(|| {
            SBitmap::with_shared_schedule(schedule.clone(), H::from_seed(sketch_seed(seed, key)))
        })
    }

    /// The sketch for one key; `None` if the key has never been inserted.
    pub fn sketch(&self, key: u64) -> Option<&SBitmap<H>> {
        self.sketches.get(&key)
    }

    /// Keys with a sketch, in ascending order.
    ///
    /// Sorting (rather than exposing HashMap order) keeps every consumer
    /// — CLI tables, examples, checkpoints — deterministic across runs
    /// and across fleet flavors.
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.sketches.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// All `(key, sketch)` pairs, in ascending key order.
    pub fn sketches(&self) -> impl Iterator<Item = (u64, &SBitmap<H>)> + '_ {
        self.keys_sorted()
            .into_iter()
            .map(move |k| (k, &self.sketches[&k]))
    }

    /// Estimate for one key; `None` if the key has never been inserted.
    pub fn estimate(&self, key: u64) -> Option<f64> {
        self.sketches.get(&key).map(|s| s.estimate())
    }

    /// All `(key, estimate)` pairs, in ascending key order.
    pub fn estimates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.sketches().map(|(k, s)| (k, s.estimate()))
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// `true` when no key has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Keys whose sketches have saturated (estimates pinned near `N`) —
    /// the operational signal to re-dimension. Ascending key order.
    pub fn saturated_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .sketches
            .iter()
            .filter(|(_, s)| s.is_saturated())
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Total sketch payload across the fleet, in bits (paper accounting:
    /// the shared schedule is configuration, not state).
    pub fn memory_bits(&self) -> usize {
        self.sketches
            .values()
            .map(DistinctCounter::memory_bits)
            .sum()
    }

    /// Reset every sketch, keeping keys and allocations.
    pub fn reset_all(&mut self) {
        for s in self.sketches.values_mut() {
            s.reset();
        }
    }

    /// Drop all keys.
    pub fn clear(&mut self) {
        self.sketches.clear();
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &Arc<RateSchedule> {
        &self.schedule
    }
}

impl<H: Hasher64 + FromSeed> KeyedEstimates for SketchFleet<H> {
    fn keys_sorted(&self) -> Vec<u64> {
        SketchFleet::keys_sorted(self)
    }

    fn estimate(&self, key: u64) -> Option<f64> {
        SketchFleet::estimate(self, key)
    }
}

/// Fleet checkpoint payload: the shared configuration key once —
/// `n_max` (u64), `m` (u64), sampling `d` (u32), fleet seed (u64) — then
/// `count` (u64) per-key records of `key` (u64), fill (u64) and the
/// bitmap words, sorted by key. Per-key hash seeds are *derived* from
/// `(fleet seed, key)`, so they are not stored: the whole fleet costs
/// `16 + ⌈m/64⌉·8` bytes per key plus a 38-byte header.
impl<H: Hasher64 + FromSeed> Checkpoint for SketchFleet<H> {
    const KIND: CounterKind = CounterKind::SketchFleet;

    fn write_payload(&self, out: &mut PayloadWriter) {
        let dims = self.schedule.dims();
        out.u64(dims.n_max());
        out.u64(dims.m() as u64);
        out.u32(self.schedule.split().sampling_bits());
        out.u64(self.seed);
        out.u64(self.sketches.len() as u64);
        for key in self.keys_sorted() {
            let sketch = &self.sketches[&key];
            out.u64(key);
            out.u64(sketch.fill() as u64);
            out.words(sketch.bitmap().words());
        }
    }

    fn read_payload(r: &mut PayloadReader<'_>) -> Result<Self, SBitmapError> {
        let fail = |msg: &str| SBitmapError::invalid("checkpoint", msg.to_string());
        let n_max = r.u64()?;
        let m = r.len_u64()?;
        // Cap before the O(m) schedule rebuild — see `codec::MAX_WIRE_M`.
        crate::codec::check_wire_m(m)?;
        let sampling_bits = r.u32()?;
        let seed = r.u64()?;
        let count = r.len_u64()?;
        let schedule = RateSchedule::shared(n_max, m, sampling_bits)?;
        let mut fleet = SketchFleet::with_schedule(schedule.clone(), seed);
        for _ in 0..count {
            let key = r.u64()?;
            let fill = r.len_u64()?;
            let words = r.words(m.div_ceil(64))?;
            let bitmap =
                Bitmap::from_words(words, m).map_err(|e| SBitmapError::invalid("checkpoint", e))?;
            if bitmap.count_ones() != fill {
                return Err(fail("fill counter disagrees with bitmap"));
            }
            let mut sketch = SBitmap::with_shared_schedule(
                schedule.clone(),
                H::from_seed(sketch_seed(seed, key)),
            );
            sketch.restore_state(bitmap, fill);
            if fleet.sketches.insert(key, sketch).is_some() {
                return Err(fail("duplicate key in fleet checkpoint"));
            }
        }
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> SketchFleet {
        SketchFleet::new(100_000, 4_000, 9).unwrap()
    }

    #[test]
    fn lazy_creation_and_estimates() {
        let mut f = fleet();
        assert!(f.is_empty());
        assert_eq!(f.estimate(3), None);
        for i in 0..5_000u64 {
            f.insert_u64(3, i);
        }
        for i in 0..500u64 {
            f.insert_u64(8, i);
        }
        assert_eq!(f.len(), 2);
        let e3 = f.estimate(3).unwrap();
        let e8 = f.estimate(8).unwrap();
        assert!((e3 / 5_000.0 - 1.0).abs() < 0.15, "{e3}");
        assert!((e8 / 500.0 - 1.0).abs() < 0.2, "{e8}");
    }

    #[test]
    fn keys_are_independent() {
        let mut f = fleet();
        // Identical items into two keys: per-key hashing differs, so the
        // touched buckets differ, but both estimates are correct.
        for i in 0..2_000u64 {
            f.insert_u64(1, i);
            f.insert_u64(2, i);
        }
        let e1 = f.estimate(1).unwrap();
        let e2 = f.estimate(2).unwrap();
        assert!((e1 / 2_000.0 - 1.0).abs() < 0.2);
        assert!((e2 / 2_000.0 - 1.0).abs() < 0.2);
        // With ~4.7% error, the two independent estimates almost surely
        // differ in their low digits.
        assert_ne!(e1, e2);
    }

    #[test]
    fn insert_batch_matches_pairwise_feed() {
        let mut batched = fleet();
        let mut scalar = fleet();
        // Interleaved keys with duplicates, order-sensitive within key.
        let pairs: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 7, i / 7 % 3_000)).collect();
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
        }
        let newly = batched.insert_batch(&pairs);
        assert_eq!(batched.len(), scalar.len());
        let mut total = 0u64;
        for key in 0..7u64 {
            assert_eq!(
                batched.estimate(key),
                scalar.estimate(key),
                "estimates diverged for key {key}"
            );
            total += batched.sketches[&key].fill() as u64;
        }
        assert_eq!(newly, total, "newly-set count must equal total fill");
    }

    #[test]
    fn insert_batch_sparse_keys_match_pairwise_feed() {
        // Keys above DENSE_KEY_LIMIT exercise the stable-sort path.
        let mut batched = fleet();
        let mut scalar = fleet();
        let keys = [u64::MAX, 1 << 20, 0xdead_beef_u64, 3];
        let pairs: Vec<(u64, u64)> = (0..8_000u64)
            .map(|i| (keys[(i % 4) as usize], i / 4 % 900))
            .collect();
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
        }
        batched.insert_batch(&pairs);
        for &k in &keys {
            assert_eq!(batched.estimate(k), scalar.estimate(k), "key {k}");
        }
    }

    #[test]
    fn small_batch_with_high_key_avoids_dense_table() {
        // One pair with a key just under DENSE_KEY_LIMIT must not build
        // a 60k-bucket table; it routes to the sort path and still
        // matches the pairwise feed.
        let mut batched = fleet();
        let mut scalar = fleet();
        let pairs = [(60_000u64, 7u64), (60_000, 8), (3, 9)];
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
        }
        batched.insert_batch(&pairs);
        assert_eq!(batched.estimate(60_000), scalar.estimate(60_000));
        assert_eq!(batched.estimate(3), scalar.estimate(3));
    }

    #[test]
    fn insert_batch_empty_is_noop() {
        let mut f = fleet();
        assert_eq!(f.insert_batch(&[]), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn memory_scales_with_keys() {
        let mut f = fleet();
        f.insert_u64(1, 1);
        assert_eq!(f.memory_bits(), 4_000);
        f.insert_u64(2, 1);
        assert_eq!(f.memory_bits(), 8_000);
        // The schedule is shared: exactly one strong reference per fleet
        // plus one per sketch.
        assert!(Arc::strong_count(f.schedule()) >= 3);
    }

    #[test]
    fn saturation_reporting() {
        let mut f = SketchFleet::<SplitMix64Hasher>::new(1_000, 120, 1).unwrap();
        for i in 0..10_000u64 {
            f.insert_u64(42, i);
        }
        f.insert_u64(7, 1);
        assert_eq!(f.saturated_keys(), vec![42]);
    }

    #[test]
    fn checkpoint_round_trips_whole_fleet() {
        let mut f = fleet();
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 11, i / 11 % 1_500)).collect();
        f.insert_batch(&pairs);
        let bytes = f.checkpoint();
        let restored: SketchFleet = Checkpoint::restore(&bytes).unwrap();
        assert_eq!(restored.len(), f.len());
        for (key, sketch) in f.sketches() {
            let r = restored.sketch(key).expect("key restored");
            assert_eq!(r.fill(), sketch.fill(), "key {key}");
            assert_eq!(r.bitmap(), sketch.bitmap(), "key {key}");
            assert_eq!(r.seed(), sketch.seed(), "derived seed must match");
        }
        // The restored fleet keeps counting identically.
        let mut a = f.clone();
        let mut b = restored;
        a.insert_u64(3, 999_999);
        b.insert_u64(3, 999_999);
        assert_eq!(a.estimate(3), b.estimate(3));
    }

    #[test]
    fn empty_fleet_checkpoint_round_trips() {
        let f = fleet();
        let restored: SketchFleet = Checkpoint::restore(&f.checkpoint()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.schedule().dims().m(), 4_000);
    }

    #[test]
    fn fleet_checkpoint_rejects_tampered_fill() {
        let mut f = fleet();
        f.insert_u64(1, 1);
        let bytes = f.checkpoint();
        // Rebuild the frame with a corrupted per-key fill but a valid
        // checksum: structural validation must reject it.
        let payload_start = 6;
        let payload_end = bytes.len() - 8;
        let mut payload = bytes[payload_start..payload_end].to_vec();
        // Header is 36 bytes + key(8): fill sits at offset 44.
        payload[44..52].copy_from_slice(&3u64.to_le_bytes());
        let reframed = crate::codec::frame(CounterKind::SketchFleet, &payload);
        let err = <SketchFleet as Checkpoint>::restore(&reframed).unwrap_err();
        assert!(err.to_string().contains("fill"), "{err}");
    }

    #[test]
    fn iteration_is_sorted_by_key() {
        let mut f = fleet();
        for key in [9u64, 2, 77, 41, 5] {
            f.insert_u64(key, 1);
        }
        let keys: Vec<u64> = f.estimates().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2, 5, 9, 41, 77]);
        let sketch_keys: Vec<u64> = f.sketches().map(|(k, _)| k).collect();
        assert_eq!(sketch_keys, keys);
        assert_eq!(f.keys_sorted(), keys);
    }

    #[test]
    fn repeated_batches_reuse_scratch_and_stay_consistent() {
        // Two calls through each grouping path must leave no stale items
        // behind in the reused scratch buffers.
        let mut batched = fleet();
        let mut scalar = fleet();
        let dense_a: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 5, i)).collect();
        let dense_b: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 3, i + 9_000)).collect();
        let sparse: Vec<(u64, u64)> = (0..2_000u64).map(|i| (u64::MAX - (i % 2), i)).collect();
        for pairs in [&dense_a, &dense_b, &sparse] {
            batched.insert_batch(pairs);
            for &(k, item) in pairs.iter() {
                scalar.insert_u64(k, item);
            }
        }
        assert_eq!(batched.len(), scalar.len());
        for (key, sketch) in scalar.sketches() {
            assert_eq!(
                batched.sketch(key).map(|s| s.fill()),
                Some(sketch.fill()),
                "key {key}"
            );
        }
    }

    #[test]
    fn reset_all_keeps_keys() {
        let mut f = fleet();
        f.insert_u64(5, 1);
        f.reset_all();
        assert_eq!(f.len(), 1);
        assert_eq!(f.estimate(5), Some(0.0));
        f.clear();
        assert!(f.is_empty());
    }
}
