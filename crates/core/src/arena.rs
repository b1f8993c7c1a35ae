//! Arena-backed fleet storage: every per-key bitmap packed into one
//! contiguous word buffer, plus an allocation-free radix batch router.
//!
//! A `HashMap<u64, SBitmap>` stores each key's [`SBitmap`] behind its
//! own heap allocation, so fleet-scale ingestion (the paper's §7.2:
//! hundreds of identically-dimensioned per-link sketches fed from one
//! interleaved packet stream) is dominated by pointer chasing and
//! allocator traffic rather than the constant-time update the paper
//! promises. [`FleetArena`] keeps the same *logical* state —
//! per-key `(bitmap, fill)` over one shared [`RateSchedule`], per-key
//! hash seeds derived by [`crate::fleet::sketch_seed`] — in a flat
//! layout:
//!
//! * all bitmaps live in **one** `Vec<u64>` at a fixed stride of
//!   `⌈m/64⌉` words (the shared dimensioning fixes `m`), viewed through
//!   [`sbitmap_bitvec::SliceBitmap`] during ingest;
//! * fill counters sit in a parallel dense array;
//! * key→slot lookup goes through a small open-addressed table instead
//!   of a `HashMap<u64, SBitmap>`.
//!
//! Batches route through a two-pass counting sort (`key → slot`, count,
//! prefix-sum, scatter) into scratch buffers **owned by the arena**, so
//! the steady state allocates nothing: after warm-up, an
//! [`FleetArena::insert_batch`] call touches only the arena, the scratch
//! and the stack. Behavior is bit-identical to standalone per-key
//! sketches — same per-key bitmap words and fills for the same
//! `(key, item)` stream — and the [`CounterKind::SketchFleet`]
//! checkpoint is exactly the documented per-key layout, which the
//! property tests in `tests/fleet_arena.rs` lock in against a per-key
//! [`SBitmap`] oracle.

use std::sync::Arc;

use sbitmap_bitvec::{Bitmap, SliceBitmap};
use sbitmap_hash::{FromSeed, Hasher64, SplitMix64Hasher};

use crate::codec::{Checkpoint, CounterKind, DeltaSink, PayloadReader, PayloadWriter, RunWords};
use crate::counter::KeyedEstimates;
use crate::fleet::sketch_seed;
use crate::schedule::RateSchedule;
use crate::sketch::{probe_hashes, SBitmap, BATCH_CHUNK};
use crate::SBitmapError;

/// Empty-slot sentinel in the open-addressed index.
pub(crate) const EMPTY: u32 = u32::MAX;

/// Open-addressed `key → slot` table with linear probing.
///
/// Capacity is a power of two, grown at 7/8 load. Slots are dense arena
/// indices (`u32`), so a probe touches one cache line of keys and the
/// matching line of slot ids — no per-entry heap boxes, no hasher state.
/// Shared with [`crate::sparse::SparseFleet`], whose key→(class, slab,
/// slot) lookup routes through the same table (the `u32` payload there
/// is an ordinal into a handle array).
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex {
    keys: Box<[u64]>,
    slots: Box<[u32]>,
    len: usize,
}

impl SlotIndex {
    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Self {
            keys: vec![0u64; cap].into_boxed_slice(),
            slots: vec![EMPTY; cap].into_boxed_slice(),
            len: 0,
        }
    }

    pub(crate) fn new() -> Self {
        Self::with_capacity_pow2(16)
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot for `key`, if present.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = sbitmap_hash::mix64(key) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a key known to be absent.
    pub(crate) fn insert(&mut self, key: u64, slot: u32) {
        debug_assert_eq!(self.get(key), None, "duplicate key in slot index");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = sbitmap_hash::mix64(key) as usize & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
        self.len += 1;
    }

    fn grow(&mut self) {
        let next = Self::with_capacity_pow2(self.slots.len() * 2);
        let old = std::mem::replace(self, next);
        for (i, &slot) in old.slots.iter().enumerate() {
            if slot != EMPTY {
                self.insert(old.keys[i], slot);
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// Longest probe chain in the table: the worst-case distance (in
    /// entries, wrap-aware) between any occupied entry and its home
    /// bucket. A diagnostic — the 7/8 load bound keeps this small with
    /// overwhelming probability, and the million-key stress test in
    /// `tests/sparse_fleet.rs` asserts it stays bounded.
    pub(crate) fn max_probe_len(&self) -> usize {
        let mask = self.mask();
        let mut worst = 0usize;
        for (i, &slot) in self.slots.iter().enumerate() {
            if slot == EMPTY {
                continue;
            }
            let home = sbitmap_hash::mix64(self.keys[i]) as usize & mask;
            worst = worst.max(i.wrapping_sub(home) & mask);
        }
        worst
    }

    /// Allocated table bytes (keys + slots) — storage accounting for the
    /// sparse fleet's RSS bookkeeping.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.keys.len() * 8 + self.slots.len() * 4
    }
}

/// Scratch buffers for the radix batch router, owned by the arena so a
/// steady-state [`FleetArena::insert_batch`] call allocates nothing.
/// Shared with [`crate::sparse::SparseFleet`], whose batch path is the
/// same two-pass counting sort (route first, resolve class per run).
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterScratch {
    /// Slot of each pair of the current batch (pass 1 output).
    pub(crate) pair_slots: Vec<u32>,
    /// Item *hashes* regrouped by slot, arrival order preserved within a
    /// slot (pass 2 output). Hashing is fused into the scatter — the
    /// slot (hence the per-key hasher) is already known there, so the
    /// per-slot ingest becomes a pure probe loop over a contiguous run.
    pub(crate) grouped: Vec<u64>,
    /// Per-slot cursor/offset table (counting-sort prefix sums).
    pub(crate) offsets: Vec<u32>,
    /// Slot of each *bucket* of the current batch (`EMPTY` when the
    /// bucket has no run) — what pass 3 walks.
    pub(crate) run_slots: Vec<u32>,
}

impl RouterScratch {
    /// Allocated scratch bytes — storage accounting.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.pair_slots.capacity() * 4
            + self.grouped.capacity() * 8
            + self.offsets.capacity() * 4
            + self.run_slots.capacity() * 4
    }
}

/// Counting sort's classic cursor trick: turn start-of-run offsets into
/// write cursors. Afterwards `offsets[k+1]` is bucket `k`'s cursor; once
/// the scatter completes it has advanced to the end of the run, so
/// `offsets[k]..offsets[k+1]` frames bucket `k`'s run again.
pub(crate) fn shift_to_cursors(offsets: &mut [u32]) {
    for k in (1..offsets.len()).rev() {
        offsets[k] = offsets[k - 1];
    }
    offsets[0] = 0;
}

/// A keyed fleet of S-bitmaps packed into one contiguous arena.
///
/// Each key's state is what a standalone [`SBitmap`] seeded with
/// [`crate::fleet::sketch_seed`] would hold after the same items. The
/// layout is one allocation for every bitmap, dense fill counters and
/// an open-addressed key index; batches go through a reusable
/// counting-sort router.
///
/// ```
/// use sbitmap_core::FleetArena;
///
/// let mut fleet: FleetArena = FleetArena::new(100_000, 4_000, 7).unwrap();
/// let pairs: Vec<(u64, u64)> = (0..9_000u64).map(|i| (i % 3, i / 3)).collect();
/// fleet.insert_batch(&pairs);
/// assert_eq!(fleet.len(), 3);
/// let (key, estimate) = fleet.estimates().next().unwrap();
/// assert_eq!(key, 0);
/// assert!((estimate / 3_000.0 - 1.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct FleetArena<H: Hasher64 + FromSeed = SplitMix64Hasher> {
    schedule: Arc<RateSchedule>,
    seed: u64,
    /// Words per slot: `⌈m/64⌉`, fixed by the shared dimensioning.
    stride: usize,
    /// All bitmaps, slot-major: slot `s` owns `words[s·stride..(s+1)·stride]`.
    words: Vec<u64>,
    /// Per-slot fill counters (the paper's `L`), parallel to the arena.
    fills: Vec<usize>,
    /// Per-slot keys, in slot (= first-insert) order.
    keys: Vec<u64>,
    /// Per-slot hashers, seeded by `sketch_seed(fleet seed, key)`.
    hashers: Vec<H>,
    index: SlotIndex,
    /// Direct `key → slot` table for keys below
    /// [`FleetArena::DENSE_KEY_CACHE`] (the §7.2 shape: link indices).
    /// Authoritative for `key < dense_slots.len()`; the open-addressed
    /// index covers the sparse remainder. One bounds check and one load
    /// replace a hash probe on the batch router's hottest pass.
    dense_slots: Vec<u32>,
    router: RouterScratch,
}

impl<H: Hasher64 + FromSeed> FleetArena<H> {
    /// Create an empty arena fleet for cardinalities in `[1, n_max]` with
    /// `m` bits per key.
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

    /// Create an arena fleet over an existing shared schedule.
    pub fn with_schedule(schedule: Arc<RateSchedule>, seed: u64) -> Self {
        let stride = schedule.dims().m().div_ceil(64);
        Self {
            schedule,
            seed,
            stride,
            words: Vec::new(),
            fills: Vec::new(),
            keys: Vec::new(),
            hashers: Vec::new(),
            index: SlotIndex::new(),
            dense_slots: Vec::new(),
            router: RouterScratch::default(),
        }
    }

    /// Largest key served by the direct `dense_slots` table. Link
    /// indices (the paper's deployment) sit far below this; the table
    /// grows only to the largest dense key actually seen, so its
    /// worst-case footprint is 256 KiB.
    pub(crate) const DENSE_KEY_CACHE: u64 = 1 << 16;

    /// The slot for `key`, if present: one load for dense keys, a hash
    /// probe for sparse ones.
    #[inline]
    fn lookup_slot(&self, key: u64) -> Option<u32> {
        if key < Self::DENSE_KEY_CACHE {
            // `dense_slots` is authoritative below its length: every
            // dense-key creation records itself here.
            let k = key as usize;
            if k < self.dense_slots.len() {
                let slot = self.dense_slots[k];
                return (slot != EMPTY).then_some(slot);
            }
            return None;
        }
        self.index.get(key)
    }

    /// The slot for `key`, creating it (zero bitmap, derived hasher) if
    /// absent.
    fn slot_for(&mut self, key: u64) -> usize {
        if let Some(slot) = self.lookup_slot(key) {
            return slot as usize;
        }
        let slot = self.keys.len();
        assert!(slot < EMPTY as usize, "fleet arena slot count overflow");
        self.keys.push(key);
        self.fills.push(0);
        self.hashers.push(H::from_seed(sketch_seed(self.seed, key)));
        self.words.resize(self.words.len() + self.stride, 0);
        self.index.insert(key, slot as u32);
        if key < Self::DENSE_KEY_CACHE {
            let k = key as usize;
            if k >= self.dense_slots.len() {
                self.dense_slots.resize(k + 1, EMPTY);
            }
            self.dense_slots[k] = slot as u32;
        }
        slot
    }

    /// Ensure `key` has a (possibly empty) sketch, as a first insert
    /// would. Useful when a downstream consumer expects a record for
    /// every key of a known universe, observed or not.
    pub fn touch(&mut self, key: u64) {
        self.slot_for(key);
    }

    /// The arena region and fill counter of `slot`, as the sketch update
    /// needs them. Split borrows: the caller keeps `self.hashers` and
    /// `self.schedule` available immutably.
    #[inline]
    fn region(words: &mut [u64], stride: usize, m: usize, slot: usize) -> SliceBitmap<'_> {
        SliceBitmap::new(&mut words[slot * stride..(slot + 1) * stride], m)
            .expect("stride is ⌈m/64⌉ by construction")
    }

    /// Feed one pre-split hash into `slot`'s sketch — the exact update of
    /// [`SBitmap::insert_hash`] over the arena region.
    #[inline]
    fn insert_hash_at(&mut self, slot: usize, hash: u64) -> bool {
        let m = self.schedule.dims().m();
        let mut bits = Self::region(&mut self.words, self.stride, m, slot);
        let (bucket, u) = self.schedule.split().split(hash);
        if bits.get_unchecked(bucket) {
            return false;
        }
        let fill = &mut self.fills[slot];
        debug_assert!(*fill < self.schedule.len());
        if u < self.schedule.threshold(*fill + 1) {
            bits.set_unchecked(bucket);
            *fill += 1;
            true
        } else {
            false
        }
    }

    /// Insert `item` into the sketch for `key` (created if absent).
    /// Returns `true` if the update set a new bit.
    pub fn insert_u64(&mut self, key: u64, item: u64) -> bool {
        let slot = self.slot_for(key);
        let hash = self.hashers[slot].hash_u64(item);
        self.insert_hash_at(slot, hash)
    }

    /// Insert a byte-string item into the sketch for `key`.
    pub fn insert_bytes(&mut self, key: u64, item: &[u8]) -> bool {
        let slot = self.slot_for(key);
        let hash = self.hashers[slot].hash_bytes(item);
        self.insert_hash_at(slot, hash)
    }

    /// Batched per-key ingest: feed `items` to `key`'s sketch in order,
    /// returning how many bits were newly set. Bit-identical to calling
    /// [`FleetArena::insert_u64`] per item; hashes are batch-computed in
    /// 256-item stack chunks and probes are prefetch-pipelined, exactly
    /// like [`SBitmap::insert_u64s`].
    pub fn insert_u64s(&mut self, key: u64, items: &[u64]) -> u64 {
        let slot = self.slot_for(key);
        self.ingest_slot(slot, items)
    }

    /// The batched sketch update over one arena region.
    fn ingest_slot(&mut self, slot: usize, items: &[u64]) -> u64 {
        let m = self.schedule.dims().m();
        let hasher = &self.hashers[slot];
        let mut bits = Self::region(&mut self.words, self.stride, m, slot);
        let fill = &mut self.fills[slot];
        let mut buf = [0u64; BATCH_CHUNK];
        let mut newly = 0u64;
        for chunk in items.chunks(BATCH_CHUNK) {
            let hashes = &mut buf[..chunk.len()];
            hasher.hash_u64_batch(chunk, hashes);
            newly += probe_hashes(&self.schedule, bits.words_mut(), fill, hashes);
        }
        newly
    }

    /// Ingest a batch of `(key, item)` pairs through the radix router,
    /// returning how many bits were newly set across the fleet.
    ///
    /// The router is a two-pass counting sort into arena-owned scratch:
    ///
    /// 1. map every key to its slot — one direct load for dense keys,
    ///    a hash probe for sparse ones, creating slots for new keys —
    ///    and count pairs per slot;
    /// 2. prefix-sum the counts and scatter the item **hashes** into one
    ///    reused buffer, grouped by slot with arrival order preserved
    ///    (the slot is known here, so per-key hashing fuses into the
    ///    scatter instead of being a separate chunked pass);
    /// 3. run each slot's contiguous hash run through the
    ///    prefetch-pipelined probe loop, warming the next occupied
    ///    slot's arena region while the current one is being filled.
    ///
    /// Per-key sketch state afterwards is bit-identical to feeding
    /// [`FleetArena::insert_u64`] pair by pair. After warm-up the call
    /// performs no allocation: the scratch grows to the largest batch
    /// and slot count seen, then stabilizes.
    pub fn insert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        if pairs.is_empty() {
            return 0;
        }
        assert!(
            pairs.len() < u32::MAX as usize,
            "batch too large for u32 offsets"
        );
        // Route in blocks: the scatter buffer and the second read of the
        // block stay cache-resident instead of streaming megabytes
        // through DRAM twice, and the arena regions stay hot across
        // blocks. Blocks preserve arrival order (outer loop in order,
        // counting sort stable within), so per-key state is unchanged.
        const BLOCK: usize = 32 * 1024;
        let mut newly = 0u64;
        for block in pairs.chunks(BLOCK) {
            newly += self.insert_batch_dense(block);
        }
        newly
    }

    /// Dense-key router (the §7.2 shape: keys are link indices). Counts
    /// land directly in a key-indexed table — no per-pair slot lookup,
    /// no per-pair slot buffer — and slots for new keys are created once
    /// per *key* between the counting and scatter passes. Falls back to
    /// [`FleetArena::insert_batch_general`] the moment a key exceeds the
    /// dense bound.
    fn insert_batch_dense(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut r = std::mem::take(&mut self.router);

        // Pass 1: count per key, growing the table on demand (fused max
        // scan — the batch is read only twice in total). Dense only
        // while the counting table stays small relative to the batch —
        // a lone pair with key 60000 must not sweep a 60001-entry table.
        let bound = Self::DENSE_KEY_CACHE.min(pairs.len().saturating_mul(4).max(64) as u64);
        r.offsets.clear();
        let mut dense = true;
        for &(key, _) in pairs {
            let k = key as usize;
            // Saturating: `key` can be anything up to `u64::MAX`; any
            // key at or beyond the bound bails before indexing.
            if k.saturating_add(2) > r.offsets.len() {
                if key >= bound {
                    dense = false;
                    break;
                }
                r.offsets.resize(k + 2, 0);
            }
            r.offsets[k + 1] += 1;
        }
        if !dense {
            self.router = r;
            return self.insert_batch_general(pairs);
        }
        let buckets = r.offsets.len() - 1;
        // Prefix sums: offsets[k] = start of key k's run.
        for k in 1..=buckets {
            r.offsets[k] += r.offsets[k - 1];
        }
        debug_assert_eq!(r.offsets[buckets] as usize, pairs.len());
        // Create slots for the batch's first-seen keys — once per
        // *present* key (nonempty run), not per pair — and record the
        // bucket → slot map for the scatter and probe passes. Absent
        // keys in [0, max_key) get no slot, matching the pair-by-pair
        // feed.
        r.run_slots.clear();
        r.run_slots.resize(buckets, EMPTY);
        for key in 0..buckets {
            if r.offsets[key + 1] > r.offsets[key] {
                r.run_slots[key] = self.slot_for(key as u64) as u32;
            }
        }
        shift_to_cursors(&mut r.offsets);

        // Pass 2: stable hash-and-scatter. The slot (hence the per-key
        // hasher) is one bucket-table load away; per-item hash chains
        // are independent, so the CPU pipelines them across iterations.
        if r.grouped.len() < pairs.len() {
            // Growth only: every element of [0, pairs.len()) is written
            // exactly once by a cursor before being read, so stale tail
            // contents are never observed and no per-call memset is paid.
            r.grouped.resize(pairs.len(), 0);
        }
        for &(key, item) in pairs {
            let slot = r.run_slots[key as usize] as usize;
            let cursor = &mut r.offsets[key as usize + 1];
            r.grouped[*cursor as usize] = self.hashers[slot].hash_u64(item);
            *cursor += 1;
        }

        let newly = self.ingest_runs(&r.offsets, &r.run_slots, &r.grouped);
        self.router = r;
        newly
    }

    /// General router for arbitrary keys: pass 1 maps every pair to its
    /// slot (hash probe for sparse keys) and records it, the rest is the
    /// same counting sort over slots.
    fn insert_batch_general(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut r = std::mem::take(&mut self.router);

        // Pass 1: key → slot per pair (creating new slots), then count.
        r.pair_slots.clear();
        r.pair_slots.extend(pairs.iter().map(|&(key, _)| {
            let slot = self.slot_for(key);
            slot as u32
        }));
        let n_slots = self.keys.len();
        r.offsets.clear();
        r.offsets.resize(n_slots + 1, 0);
        for &slot in &r.pair_slots {
            r.offsets[slot as usize + 1] += 1;
        }
        // Prefix sums: offsets[s] = start of slot s's run in `grouped`.
        for s in 1..=n_slots {
            r.offsets[s] += r.offsets[s - 1];
        }
        debug_assert_eq!(r.offsets[n_slots] as usize, pairs.len());
        shift_to_cursors(&mut r.offsets);
        // Buckets are slots themselves here: the bucket → slot map is
        // the identity.
        r.run_slots.clear();
        r.run_slots.extend(0..n_slots as u32);

        // Pass 2: stable hash-and-scatter (preserves arrival order
        // within a slot).
        if r.grouped.len() < pairs.len() {
            r.grouped.resize(pairs.len(), 0);
        }
        for (&(_, item), &slot) in pairs.iter().zip(&r.pair_slots) {
            let cursor = &mut r.offsets[slot as usize + 1];
            r.grouped[*cursor as usize] = self.hashers[slot as usize].hash_u64(item);
            *cursor += 1;
        }

        let newly = self.ingest_runs(&r.offsets, &r.run_slots, &r.grouped);
        self.router = r;
        newly
    }

    /// Pass 3 of the router, shared by both key shapes: ingest each
    /// bucket's contiguous hash run into its slot, warming the next
    /// occupied slot's arena region one run ahead so its cold cache
    /// misses overlap with the current run's probes.
    fn ingest_runs(&mut self, offsets: &[u32], run_slots: &[u32], grouped: &[u64]) -> u64 {
        let mut newly = 0u64;
        let mut pending: Option<(usize, u32, u32)> = None;
        for bucket in 0..run_slots.len() {
            let start = offsets[bucket];
            let end = offsets[bucket + 1];
            if end == start {
                continue;
            }
            let slot = run_slots[bucket] as usize;
            if let Some((prev, ps, pe)) = pending.replace((slot, start, end)) {
                self.prefetch_region(slot);
                newly += self.ingest_slot_hashes(prev, &grouped[ps as usize..pe as usize]);
            }
        }
        if let Some((last, ps, pe)) = pending {
            newly += self.ingest_slot_hashes(last, &grouped[ps as usize..pe as usize]);
        }
        newly
    }

    /// The probe half of the sketch update over one arena region:
    /// `hashes` are already per-key hashed, in arrival order.
    fn ingest_slot_hashes(&mut self, slot: usize, hashes: &[u64]) -> u64 {
        let m = self.schedule.dims().m();
        let mut bits = Self::region(&mut self.words, self.stride, m, slot);
        probe_hashes(
            &self.schedule,
            bits.words_mut(),
            &mut self.fills[slot],
            hashes,
        )
    }

    /// Warm the leading cache lines of `slot`'s arena region.
    #[inline]
    fn prefetch_region(&self, slot: usize) {
        let base = slot * self.stride;
        // Four 64-byte lines = the first 32 words of the region.
        for line in 0..4usize {
            sbitmap_bitvec::prefetch_word(&self.words, base + line * 8);
        }
    }

    /// Estimate for one key; `None` if the key has never been inserted.
    pub fn estimate(&self, key: u64) -> Option<f64> {
        let slot = self.lookup_slot(key)? as usize;
        Some(self.schedule.estimate_at(self.fills[slot]))
    }

    /// Fill counter for one key; `None` if the key has never been
    /// inserted.
    pub fn fill(&self, key: u64) -> Option<usize> {
        Some(self.fills[self.lookup_slot(key)? as usize])
    }

    /// Keys with a sketch, in ascending order.
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys
    }

    /// Keys with a sketch, in slot (= first-insert) order — the raw
    /// backing list, no copy, no sort. For callers that aggregate keys
    /// across several arenas (the window ring) and sort once at the end
    /// instead of paying a clone + sort per arena.
    #[inline]
    pub fn keys_unsorted(&self) -> &[u64] {
        &self.keys
    }

    /// `(key, slot)` pairs in ascending key order — the canonical
    /// iteration order of every keyed fleet.
    fn slots_by_key(&self) -> Vec<(u64, usize)> {
        let mut pairs: Vec<(u64, usize)> =
            self.keys.iter().enumerate().map(|(s, &k)| (k, s)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs
    }

    /// All `(key, estimate)` pairs, in ascending key order.
    pub fn estimates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.slots_by_key()
            .into_iter()
            .map(|(key, slot)| (key, self.schedule.estimate_at(self.fills[slot])))
    }

    /// Materialize one key's sketch as a standalone [`SBitmap`] (words
    /// copied out of the arena); `None` if the key has never been
    /// inserted. The result is bit-identical to a standalone sketch
    /// seeded with [`crate::fleet::sketch_seed`] and fed the same items,
    /// so its checkpoint bytes are interchangeable.
    pub fn export_sketch(&self, key: u64) -> Option<SBitmap<H>> {
        let slot = self.lookup_slot(key)? as usize;
        let m = self.schedule.dims().m();
        let words = self.words[slot * self.stride..(slot + 1) * self.stride].to_vec();
        let bitmap = Bitmap::from_words(words, m).expect("arena region is a valid bitmap");
        let mut sketch = SBitmap::with_shared_schedule(
            self.schedule.clone(),
            H::from_seed(sketch_seed(self.seed, key)),
        );
        sketch.restore_state(bitmap, self.fills[slot]);
        Some(sketch)
    }

    /// One key's raw record — fill counter and borrowed bitmap words —
    /// without materializing a sketch (checkpoint writers).
    pub(crate) fn slot_record(&self, key: u64) -> Option<(usize, &[u64])> {
        let slot = self.lookup_slot(key)? as usize;
        Some((
            self.fills[slot],
            &self.words[slot * self.stride..(slot + 1) * self.stride],
        ))
    }

    /// Borrow one key's raw bitmap words (`⌈m/64⌉` of them); `None` if
    /// the key has never been inserted. This is the read side delta
    /// encoders snapshot between rounds — no copy, no sketch
    /// materialization.
    pub fn slot_words(&self, key: u64) -> Option<&[u64]> {
        let slot = self.lookup_slot(key)? as usize;
        Some(&self.words[slot * self.stride..(slot + 1) * self.stride])
    }

    /// The sink that ORs a walked delta frame's records onto this
    /// arena: each record's slot is created if absent (a round-0
    /// baseline record does exactly that) and its fill counter raised
    /// by the newly-set count.
    ///
    /// Infallible by construction: a walk only hands over runs inside
    /// the stride and positions below `m` of its frame, and the caller
    /// ([`crate::WindowedFleet::absorb_delta_view`] and its frame
    /// siblings) has verified the frame's dimensioning matches this
    /// arena's.
    pub(crate) fn delta_sink(&mut self) -> DeltaApply<'_, H> {
        DeltaApply {
            arena: self,
            kernels: sbitmap_bitvec::kernels::WordKernels::dispatched(),
            slot: 0,
            base: 0,
            newly: 0,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no key has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys whose sketches have saturated (estimates pinned near `N`) —
    /// the operational signal to re-dimension. Ascending key order.
    pub fn saturated_keys(&self) -> Vec<u64> {
        let b_max = self.schedule.dims().b_max();
        let mut keys: Vec<u64> = self
            .keys
            .iter()
            .zip(&self.fills)
            .filter(|&(_, &fill)| fill >= b_max)
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Total sketch payload across the fleet, in bits (paper accounting:
    /// the shared schedule and the key index are configuration, not
    /// state).
    pub fn memory_bits(&self) -> usize {
        self.keys.len() * self.schedule.dims().m()
    }

    /// Reset every sketch, keeping keys, slots and scratch allocations.
    pub fn reset_all(&mut self) {
        self.words.fill(0);
        self.fills.fill(0);
    }

    /// Drop all keys, keeping the arena and scratch allocations for
    /// reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.fills.clear();
        self.keys.clear();
        self.hashers.clear();
        self.index.clear();
        self.dense_slots.clear();
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &Arc<RateSchedule> {
        &self.schedule
    }

    /// The fleet seed per-key hashers are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Bitwise-OR `other`'s per-key bitmaps into `self`, creating slots
    /// for keys `self` has not seen. Returns how many bits were newly
    /// set across the fleet.
    ///
    /// This is the **storage-level union**, not a distinct-counting
    /// merge: the S-bitmap is not mergeable (whether an item is sampled
    /// depends on the sketch-local fill at its arrival time), so the
    /// union of two arenas fed *overlapping* streams is not the arena of
    /// the combined stream. The two sound uses are:
    ///
    /// * reassembling **disjoint** state — e.g. a windowed collector
    ///   folding per-shard epoch checkpoints whose key sets never
    ///   overlap (each link is owned by one shard), where the union *is*
    ///   the state a single node would have built;
    /// * the [`crate::WindowedFleet`] epoch-union estimator, which ORs
    ///   one key's per-epoch bitmaps and re-reads the fill — a
    ///   documented sliding-window heuristic, not the paper's estimator.
    ///
    /// # Errors
    ///
    /// The two fleets must share a configuration: same `(n_max, m, d)`
    /// dimensioning and the same fleet seed (per-key hashers are derived
    /// from it, so unioning across seeds would mix incompatible bucket
    /// mappings).
    pub fn union_from(&mut self, other: &Self) -> Result<u64, SBitmapError> {
        let (a, b) = (self.schedule.dims(), other.schedule.dims());
        if a.n_max() != b.n_max()
            || a.m() != b.m()
            || self.schedule.split().sampling_bits() != other.schedule.split().sampling_bits()
        {
            return Err(SBitmapError::invalid(
                "union",
                "fleets have different dimensioning".to_string(),
            ));
        }
        if self.seed != other.seed {
            return Err(SBitmapError::invalid(
                "union",
                "fleets have different seeds".to_string(),
            ));
        }
        let kernels = sbitmap_bitvec::kernels::WordKernels::dispatched();
        let mut newly = 0u64;
        // One reused copy buffer for the whole union: the borrow of
        // `other` must end before `self` is mutated (`slot_for` may grow
        // `self.words`), but that costs one allocation total, not one
        // per key.
        let mut src = Vec::new();
        for key in other.keys_sorted() {
            let (_, words) = other.slot_record(key).expect("key listed");
            src.clear();
            src.extend_from_slice(words);
            let slot = self.slot_for(key);
            let dst = &mut self.words[slot * self.stride..(slot + 1) * self.stride];
            let set = kernels.union_or_count(dst, &src);
            self.fills[slot] += set;
            newly += set as u64;
        }
        Ok(newly)
    }

    /// Bitwise-OR a [`crate::sparse::SparseFleet`]'s per-key bitmaps into
    /// `self`, creating slots for keys `self` has not seen. The sparse
    /// counterpart of [`FleetArena::union_from`] — same storage-level
    /// union semantics and the same soundness caveats (disjoint key sets,
    /// or the window's epoch-union estimator), with each sparse record
    /// expanded to its full-stride word image on the fly. Returns how
    /// many bits were newly set.
    ///
    /// # Errors
    ///
    /// Same compatibility requirements as [`FleetArena::union_from`]:
    /// identical `(n_max, m, sampling_bits)` dimensioning and the same
    /// fleet seed.
    pub fn union_from_sparse(
        &mut self,
        other: &crate::sparse::SparseFleet<H>,
    ) -> Result<u64, SBitmapError> {
        let (a, b) = (self.schedule.dims(), other.schedule().dims());
        if a.n_max() != b.n_max()
            || a.m() != b.m()
            || self.schedule.split().sampling_bits() != other.schedule().split().sampling_bits()
        {
            return Err(SBitmapError::invalid(
                "union",
                "fleets have different dimensioning".to_string(),
            ));
        }
        if self.seed != other.seed() {
            return Err(SBitmapError::invalid(
                "union",
                "fleets have different seeds".to_string(),
            ));
        }
        let kernels = sbitmap_bitvec::kernels::WordKernels::dispatched();
        let mut newly = 0u64;
        let mut src = Vec::new();
        for (key, ordinal) in other.ordinals_by_key() {
            other.copy_full_words(ordinal, &mut src);
            let slot = self.slot_for(key);
            let dst = &mut self.words[slot * self.stride..(slot + 1) * self.stride];
            let set = kernels.union_or_count(dst, &src);
            self.fills[slot] += set;
            newly += set as u64;
        }
        Ok(newly)
    }

    /// Adopt one key's restored state (checkpoint/reshard path): the
    /// bitmap words and the matching fill counter.
    pub(crate) fn restore_slot(
        &mut self,
        key: u64,
        fill: usize,
        words: Vec<u64>,
    ) -> Result<(), SBitmapError> {
        let fail = |msg: &str| SBitmapError::invalid("checkpoint", msg.to_string());
        let m = self.schedule.dims().m();
        // Bitmap::from_words validates the word count and that no bit is
        // set beyond the logical length.
        let bitmap =
            Bitmap::from_words(words, m).map_err(|e| SBitmapError::invalid("checkpoint", e))?;
        if bitmap.count_ones() != fill {
            return Err(fail("fill counter disagrees with bitmap"));
        }
        if self.lookup_slot(key).is_some() {
            return Err(fail("duplicate key in fleet checkpoint"));
        }
        let slot = self.slot_for(key);
        self.words[slot * self.stride..(slot + 1) * self.stride].copy_from_slice(bitmap.words());
        self.fills[slot] = fill;
        Ok(())
    }
}

impl<H: Hasher64 + FromSeed> KeyedEstimates for FleetArena<H> {
    fn keys_sorted(&self) -> Vec<u64> {
        FleetArena::keys_sorted(self)
    }

    fn estimate(&self, key: u64) -> Option<f64> {
        FleetArena::estimate(self, key)
    }
}

/// Fleet checkpoint payload, tag [`CounterKind::SketchFleet`]: the
/// shared configuration once — `n_max` (u64), `m` (u64), sampling `d`
/// (u32), fleet seed (u64) — then `count` (u64) per-key records of `key`
/// (u64), fill (u64) and the bitmap words, sorted by key. Per-key hash
/// seeds are derived from `(fleet seed, key)`, so they are not stored.
/// [`crate::SparseFleet`] writes the same bytes: a fleet written by
/// either restores into either.
impl<H: Hasher64 + FromSeed> Checkpoint for FleetArena<H> {
    const KIND: CounterKind = CounterKind::SketchFleet;

    fn write_payload(&self, out: &mut PayloadWriter) {
        let dims = self.schedule.dims();
        out.u64(dims.n_max());
        out.u64(dims.m() as u64);
        out.u32(self.schedule.split().sampling_bits());
        out.u64(self.seed);
        out.u64(self.keys.len() as u64);
        for (key, slot) in self.slots_by_key() {
            out.u64(key);
            out.u64(self.fills[slot] as u64);
            out.words(&self.words[slot * self.stride..(slot + 1) * self.stride]);
        }
    }

    fn read_payload(r: &mut PayloadReader<'_>) -> Result<Self, SBitmapError> {
        let n_max = r.u64()?;
        let m = r.len_u64()?;
        // The schedule rebuild below is O(m) and runs before any
        // m-sized record can bound `m` against the payload — cap it
        // (see `codec::MAX_WIRE_M`).
        crate::codec::check_wire_m(m)?;
        let sampling_bits = r.u32()?;
        let seed = r.u64()?;
        let count = r.len_u64()?;
        let schedule = RateSchedule::shared(n_max, m, sampling_bits)?;
        let mut fleet = FleetArena::with_schedule(schedule, seed);
        for _ in 0..count {
            let key = r.u64()?;
            let fill = r.len_u64()?;
            let words = r.words(m.div_ceil(64))?;
            fleet.restore_slot(key, fill, words)?;
        }
        Ok(fleet)
    }
}

/// ORs delta records onto a [`FleetArena`] (see
/// [`FleetArena::delta_sink`]).
pub(crate) struct DeltaApply<'a, H: Hasher64 + FromSeed> {
    arena: &'a mut FleetArena<H>,
    kernels: &'static sbitmap_bitvec::kernels::WordKernels,
    /// The open record's slot and its first word.
    slot: usize,
    base: usize,
    /// Bits the open record newly set so far.
    newly: usize,
}

impl<H: Hasher64 + FromSeed> DeltaSink for DeltaApply<'_, H> {
    fn key(&mut self, key: u64, _: u32, _: bool) {
        self.slot = self.arena.slot_for(key);
        self.base = self.slot * self.arena.stride;
    }

    fn run(&mut self, start: usize, words: RunWords<'_>) {
        let at = self.base + start;
        let dst = &mut self.arena.words[at..at + words.len()];
        self.newly += match words {
            RunWords::Le(raw) => self.kernels.union_or_count_bytes(dst, raw),
            RunWords::Words(src) => self.kernels.union_or_count(dst, src),
        };
    }

    fn positions(&mut self, positions: &[u32]) {
        let words = &mut self.arena.words[self.base..self.base + self.arena.stride];
        let mut newly = 0;
        for &pos in positions {
            let word = &mut words[pos as usize >> 6];
            let bit = 1u64 << (pos & 63);
            newly += usize::from(*word & bit == 0);
            *word |= bit;
        }
        self.newly += newly;
    }

    fn end(&mut self, _: usize) {
        self.arena.fills[self.slot] += self.newly;
        self.newly = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::counter::DistinctCounter;

    fn arena() -> FleetArena {
        FleetArena::new(100_000, 4_000, 9).unwrap()
    }

    /// The reference: one standalone [`SBitmap`] per key, seeded like
    /// the arena's key, fed `pairs` one by one.
    fn per_key_sketches(arena: &FleetArena, pairs: &[(u64, u64)]) -> BTreeMap<u64, SBitmap> {
        let mut sketches = BTreeMap::new();
        for &(key, item) in pairs {
            sketches
                .entry(key)
                .or_insert_with(|| {
                    SBitmap::with_shared_schedule(
                        arena.schedule().clone(),
                        SplitMix64Hasher::from_seed(sketch_seed(arena.seed(), key)),
                    )
                })
                .insert_u64(item);
        }
        sketches
    }

    /// Every key of `arena` holds exactly its reference sketch's state.
    fn assert_matches_reference(arena: &FleetArena, reference: &BTreeMap<u64, SBitmap>) {
        assert_eq!(arena.len(), reference.len(), "key count");
        for (&key, sketch) in reference {
            assert_eq!(arena.fill(key), Some(sketch.fill()), "fill for key {key}");
            assert_eq!(arena.estimate(key), Some(sketch.estimate()), "key {key}");
            let exported = arena.export_sketch(key).unwrap();
            assert_eq!(exported.bitmap(), sketch.bitmap(), "bitmap for key {key}");
            assert_eq!(exported.seed(), sketch.seed(), "seed for key {key}");
        }
    }

    #[test]
    fn scalar_inserts_match_per_key_sketches_bit_for_bit() {
        let mut a = arena();
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 7, i / 7 % 2_500)).collect();
        for &(key, item) in &pairs {
            a.insert_u64(key, item);
        }
        assert_matches_reference(&a, &per_key_sketches(&a, &pairs));
    }

    #[test]
    fn insert_batch_matches_pairwise_feed() {
        let mut batched = arena();
        let mut scalar = arena();
        let pairs: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 7, i / 7 % 3_000)).collect();
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
        }
        let newly = batched.insert_batch(&pairs);
        assert_eq!(batched.len(), scalar.len());
        let mut total = 0u64;
        for key in 0..7u64 {
            assert_eq!(batched.estimate(key), scalar.estimate(key), "key {key}");
            assert_eq!(
                batched.export_sketch(key).unwrap().bitmap(),
                scalar.export_sketch(key).unwrap().bitmap(),
                "bitmap for key {key}"
            );
            total += batched.fill(key).unwrap() as u64;
        }
        assert_eq!(newly, total, "newly-set count must equal total fill");
    }

    #[test]
    fn repeated_batches_reuse_scratch_without_cross_talk() {
        let mut batched = arena();
        let mut scalar = arena();
        let a: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i % 5, i)).collect();
        let b: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i % 11, i + 70_000)).collect();
        let c: Vec<(u64, u64)> = (0..500u64).map(|i| (u64::MAX - (i % 2), i)).collect();
        for pairs in [&a, &b, &c] {
            batched.insert_batch(pairs);
            for &(k, item) in pairs.iter() {
                scalar.insert_u64(k, item);
            }
        }
        assert_eq!(batched.len(), scalar.len());
        for key in batched.keys_sorted() {
            assert_eq!(batched.fill(key), scalar.fill(key), "key {key}");
        }
    }

    #[test]
    fn sparse_and_colliding_keys_route_correctly() {
        // Keys engineered to stress the open-addressed index: large,
        // clustered, and hitting the same probe neighborhoods.
        let mut a = arena();
        let keys = [u64::MAX, u64::MAX - 16, 0, 16, 1 << 60, (1 << 60) + 16];
        let pairs: Vec<(u64, u64)> = (0..12_000u64)
            .map(|i| (keys[(i % 6) as usize], i / 6 % 1_500))
            .collect();
        a.insert_batch(&pairs);
        assert_matches_reference(&a, &per_key_sketches(&a, &pairs));
    }

    #[test]
    fn checkpoint_restores_and_keeps_counting_in_lockstep() {
        let mut a = arena();
        let mut pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 11, i / 11 % 1_500)).collect();
        a.insert_batch(&pairs);
        let mut restored: FleetArena = Checkpoint::restore(&a.checkpoint()).unwrap();
        assert_matches_reference(&restored, &per_key_sketches(&a, &pairs));
        // The restored fleet keeps counting like the original and like
        // the uninterrupted reference.
        a.insert_u64(3, 999_999);
        restored.insert_u64(3, 999_999);
        pairs.push((3, 999_999));
        assert_matches_reference(&restored, &per_key_sketches(&a, &pairs));
        assert_eq!(restored.checkpoint(), a.checkpoint());
    }

    #[test]
    fn empty_and_touched_keys_round_trip() {
        let mut a = arena();
        assert_eq!(a.insert_batch(&[]), 0);
        assert!(a.is_empty());
        a.touch(42);
        assert_eq!(a.len(), 1);
        assert_eq!(a.estimate(42), Some(0.0));
        assert_eq!(a.fill(42), Some(0));
        let restored: FleetArena = Checkpoint::restore(&a.checkpoint()).unwrap();
        assert_eq!(restored.estimate(42), Some(0.0));
    }

    #[test]
    fn saturation_reporting_matches_per_key_sketches() {
        let mut a: FleetArena = FleetArena::new(1_000, 120, 1).unwrap();
        let mut pairs: Vec<(u64, u64)> = (0..10_000u64).map(|i| (42, i)).collect();
        pairs.push((7, 1));
        for &(key, item) in &pairs {
            a.insert_u64(key, item);
        }
        let reference = per_key_sketches(&a, &pairs);
        assert_eq!(a.saturated_keys(), vec![42]);
        assert!(reference[&42].is_saturated() && !reference[&7].is_saturated());
        assert_matches_reference(&a, &reference);
    }

    #[test]
    fn estimates_are_sorted_by_key() {
        let mut a = arena();
        for key in [9u64, 2, 77, 41, 5] {
            a.insert_u64(key, 1);
        }
        let keys: Vec<u64> = a.estimates().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2, 5, 9, 41, 77]);
        assert_eq!(a.keys_sorted(), keys);
    }

    #[test]
    fn reset_and_clear_semantics() {
        let mut a = arena();
        a.insert_u64(5, 1);
        a.insert_u64(6, 2);
        assert_eq!(a.memory_bits(), 8_000);
        a.reset_all();
        assert_eq!(a.len(), 2);
        assert_eq!(a.estimate(5), Some(0.0));
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.estimate(5), None);
        // The arena is reusable after clear.
        a.insert_u64(5, 1);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn index_survives_growth_past_initial_capacity() {
        let mut a = arena();
        for key in 0..500u64 {
            a.insert_u64(key * 1_000_003, key);
        }
        assert_eq!(a.len(), 500);
        for key in 0..500u64 {
            assert!(a.fill(key * 1_000_003).is_some(), "key {key} lost");
        }
        assert_eq!(a.estimate(1), None);
    }

    #[test]
    fn restore_rejects_tampered_fill() {
        let mut a = arena();
        a.insert_u64(1, 1);
        let bytes = a.checkpoint();
        let payload_start = 6;
        let payload_end = bytes.len() - 8;
        let mut payload = bytes[payload_start..payload_end].to_vec();
        // Header is 36 bytes + key(8): fill sits at offset 44.
        payload[44..52].copy_from_slice(&3u64.to_le_bytes());
        let reframed = crate::codec::frame(CounterKind::SketchFleet, &payload);
        let err = <FleetArena as Checkpoint>::restore(&reframed).unwrap_err();
        assert!(err.to_string().contains("fill"), "{err}");
    }
}
