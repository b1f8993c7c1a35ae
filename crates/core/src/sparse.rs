//! Size-classed sparse slab storage for million-key fleets.
//!
//! [`crate::FleetArena`] packs every key at the full `⌈m/64⌉`-word
//! stride — perfect for 150 dense backbone links, hopeless for the
//! paper's per-flow scenarios (§7), where millions of mostly-cold keys
//! each set a handful of bits and the Zipf tail never fills a sketch.
//! [`SparseFleet`] keeps the same *logical* state — per-key `(bitmap,
//! fill)` over one shared [`RateSchedule`], per-key hashers derived by
//! [`crate::fleet::sketch_seed`] — but stores each key's bitmap in the
//! smallest **size class** that holds its live words:
//!
//! * a **sparse class** of capacity `c` stores the bitmap's non-zero
//!   words compacted into a `c`-word prefix, addressed through a
//!   word-occupancy mask ([`sbitmap_bitvec::masked`]): because S-bitmap
//!   buckets are only ever *set*, a word the mask does not list is
//!   exactly the dense bitmap's all-zero word, so reads never need the
//!   missing words and the truncated record is bit-equivalent to the
//!   full stride;
//! * the final class is a **full-stride slab** with the dense arena's
//!   flat layout, ingested by the same prefetch-pipelined
//!   `probe_hashes` kernel (`sketch.rs`).
//!
//! Records live in bump-allocated **slabs** (fixed-size extents per
//! class, never reallocated, so growth never copies the whole fleet).
//! When an insert must set a bit in a word the record's class cannot
//! hold — fill pressure crossing the class boundary — the record is
//! **promoted**: live words are copied into a freshly bumped slot of the
//! next class and the old slot becomes a tombstone. A key→(class, slab,
//! slot) handle table sits where the dense arena's index sits (the same
//! open-addressed `SlotIndex` + direct dense-key table, now mapping to
//! an ordinal whose handle encodes the storage address), and the same
//! radix batch router runs unchanged on top: route first, then resolve
//! the class per run — a promotion mid-run simply resumes the run in the
//! new class.
//!
//! Promotion preserves bit-identity by construction, so estimates,
//! exports and [`CounterKind::SketchFleet`] checkpoint bytes match the
//! dense [`crate::FleetArena`] byte for byte — sparse is a storage
//! strategy, not a wire format — which `tests/sparse_fleet.rs` locks in
//! differentially on both SIMD dispatch paths.

use std::sync::Arc;

use sbitmap_bitvec::masked::{rank_before, scatter_masked};
use sbitmap_bitvec::Bitmap;
use sbitmap_hash::{FromSeed, Hasher64, SplitMix64Hasher};

use crate::arena::{shift_to_cursors, RouterScratch, SlotIndex, EMPTY};
use crate::codec::{Checkpoint, CounterKind, PayloadReader, PayloadWriter};
use crate::counter::KeyedEstimates;
use crate::fleet::sketch_seed;
use crate::schedule::RateSchedule;
use crate::sketch::{probe_hashes, SBitmap, BATCH_CHUNK};
use crate::{FleetArena, SBitmapError};

/// One size class's record geometry, fixed at construction from the
/// shared stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClassSpec {
    /// Packed data-word capacity (the full stride for the dense class).
    cap: usize,
    /// Word-occupancy mask words per record (0 marks the dense class).
    mask_words: usize,
    /// Total words per record: mask + data.
    record_words: usize,
}

impl ClassSpec {
    #[inline]
    fn is_dense(&self) -> bool {
        self.mask_words == 0
    }
}

/// The class ladder for a given stride: sparse capacities grow
/// geometrically (×4 from 2) while a record stays worth its mask — at
/// most half the full stride — and the ladder always ends in the dense
/// full-stride class. Tiny strides (`m ≤ ~384` bits) get no sparse class
/// at all: every key starts directly in the largest class, which is the
/// right call for dense key spaces whose sketches are expected to fill.
fn class_table(stride: usize) -> Vec<ClassSpec> {
    let mask_words = stride.div_ceil(64);
    let mut classes = Vec::new();
    let mut cap = 2usize;
    while mask_words + cap <= stride / 2 {
        classes.push(ClassSpec {
            cap,
            mask_words,
            record_words: mask_words + cap,
        });
        cap *= 4;
    }
    classes.push(ClassSpec {
        cap: stride,
        mask_words: 0,
        record_words: stride,
    });
    classes
}

/// Bump-allocated slab storage for one size class: fixed-size extents of
/// zeroed records, a cursor into the newest one, and tombstone
/// accounting for records abandoned by promotion. Slabs are never
/// reallocated or compacted — a promotion costs one record copy, not a
/// fleet copy, and outstanding record addresses stay stable.
#[derive(Debug, Clone)]
struct ClassStore {
    spec: ClassSpec,
    /// Records per slab (~256 KiB extents, at least one record).
    slab_records: usize,
    slabs: Vec<Box<[u64]>>,
    /// Records handed out in the newest slab.
    used_in_last: usize,
    /// Records abandoned by promotion out of this class.
    tombstones: usize,
}

impl ClassStore {
    const SLAB_TARGET_WORDS: usize = 32 * 1024;

    fn new(spec: ClassSpec) -> Self {
        Self {
            spec,
            slab_records: (Self::SLAB_TARGET_WORDS / spec.record_words).max(1),
            slabs: Vec::new(),
            used_in_last: 0,
            tombstones: 0,
        }
    }

    /// Bump-allocate one zeroed record, opening a new slab when the
    /// current one is exhausted. Returns the `(slab, slot)` address.
    fn alloc(&mut self) -> (u32, u32) {
        if self.slabs.is_empty() || self.used_in_last == self.slab_records {
            assert!(
                self.slabs.len() < (1 << 24),
                "sparse fleet slab count overflow"
            );
            self.slabs
                .push(vec![0u64; self.slab_records * self.spec.record_words].into_boxed_slice());
            self.used_in_last = 0;
        }
        let slab = (self.slabs.len() - 1) as u32;
        let slot = self.used_in_last as u32;
        self.used_in_last += 1;
        (slab, slot)
    }

    #[inline]
    fn record(&self, slab: u32, slot: u32) -> &[u64] {
        let r = self.spec.record_words;
        let base = slot as usize * r;
        &self.slabs[slab as usize][base..base + r]
    }

    #[inline]
    fn record_mut(&mut self, slab: u32, slot: u32) -> &mut [u64] {
        let r = self.spec.record_words;
        let base = slot as usize * r;
        &mut self.slabs[slab as usize][base..base + r]
    }

    fn allocated_bytes(&self) -> usize {
        self.slabs.iter().map(|s| s.len() * 8).sum()
    }
}

/// Pack a storage address into the ordinal→handle table entry.
#[inline]
fn pack_handle(class: usize, slab: u32, slot: u32) -> u64 {
    debug_assert!(class < 256 && slab < (1 << 24));
    ((class as u64) << 56) | ((slab as u64) << 32) | slot as u64
}

/// `(class, slab, slot)` of a packed handle.
#[inline]
fn unpack_handle(handle: u64) -> (usize, u32, u32) {
    (
        (handle >> 56) as usize,
        ((handle >> 32) & 0x00ff_ffff) as u32,
        handle as u32,
    )
}

/// Outcome of a sparse-class probe run.
enum SparseProbe {
    /// Run complete; newly set bits.
    Done(u64),
    /// The hash at the carried index needs a word the class cannot hold:
    /// promote, then resume the run there. Carries the bits set so far.
    Promote(u64, usize),
}

/// The sparse-class twin of [`probe_hashes`]: same per-hash decision
/// procedure (occupancy test, then the fill-indexed threshold), same
/// fill evolution, but over a masked compacted word set. A bit landing
/// in an absent word reads as zero — the class invariant guarantees the
/// dense bitmap is zero there — and materializes the word on a
/// successful take, shifting the packed tail to keep ascending word
/// order. Returns [`SparseProbe::Promote`] *before* consuming the hash
/// that needs an unaffordable word, so the caller can promote and resume
/// bit-identically.
fn probe_sparse_class(
    schedule: &RateSchedule,
    spec: ClassSpec,
    record: &mut [u64],
    live: &mut usize,
    fill: &mut usize,
    hashes: &[u64],
) -> SparseProbe {
    let split = *schedule.split();
    let top = schedule.len() - 1;
    let mut f = *fill;
    let mut newly = 0u64;
    let (mask, data) = record.split_at_mut(spec.mask_words);
    for (i, &hash) in hashes.iter().enumerate() {
        let (bucket, u) = split.split(hash);
        let wi = bucket >> 6;
        let bit = 1u64 << (bucket & 63);
        let threshold = schedule.threshold(f.min(top) + 1);
        let gbit = 1u64 << (wi & 63);
        if mask[wi >> 6] & gbit != 0 {
            let pos = rank_before(mask, wi);
            let word = data[pos];
            let take = (word & bit == 0) & (u < threshold);
            data[pos] = word | (bit & (take as u64).wrapping_neg());
            f += take as usize;
            newly += u64::from(take);
        } else if u < threshold {
            if *live == spec.cap {
                *fill = f;
                return SparseProbe::Promote(newly, i);
            }
            let pos = rank_before(mask, wi);
            data.copy_within(pos..*live, pos + 1);
            data[pos] = bit;
            mask[wi >> 6] |= gbit;
            *live += 1;
            f += 1;
            newly += 1;
        }
    }
    *fill = f;
    SparseProbe::Done(newly)
}

/// A keyed fleet of S-bitmaps in size-classed sparse slab storage.
///
/// Drop-in sibling of [`crate::FleetArena`] for key spaces where most
/// sketches stay nearly empty: same constructors, same per-key seed
/// derivation, bit-identical per-key sketch state and byte-identical
/// [`CounterKind::SketchFleet`] checkpoints — at a fraction of the
/// resident memory when the key distribution is heavy-tailed (the
/// `BENCH_fleet.json` Zipf lane gates sparse peak RSS at ≤ 0.25× the
/// dense arena's on a million-key Zipf(1.1) workload).
///
/// ```
/// use sbitmap_core::SparseFleet;
///
/// let mut fleet: SparseFleet = SparseFleet::new(100_000, 4_000, 7).unwrap();
/// let pairs: Vec<(u64, u64)> = (0..9_000u64).map(|i| (i % 3, i / 3)).collect();
/// fleet.insert_batch(&pairs);
/// assert_eq!(fleet.len(), 3);
/// let (key, estimate) = fleet.estimates().next().unwrap();
/// assert_eq!(key, 0);
/// assert!((estimate / 3_000.0 - 1.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct SparseFleet<H: Hasher64 + FromSeed = SplitMix64Hasher> {
    schedule: Arc<RateSchedule>,
    seed: u64,
    /// Words per full-stride bitmap: `⌈m/64⌉`.
    stride: usize,
    /// The size-class ladder; the last entry is always the dense class.
    classes: Vec<ClassStore>,
    /// Per-ordinal keys, in ordinal (= first-insert) order.
    keys: Vec<u64>,
    /// Per-ordinal fill counters (the paper's `L`).
    fills: Vec<usize>,
    /// Per-ordinal hashers, seeded by `sketch_seed(fleet seed, key)`.
    hashers: Vec<H>,
    /// Per-ordinal packed `(class, slab, slot)` storage addresses — the
    /// one indirection a promotion rewrites.
    handles: Vec<u64>,
    index: SlotIndex,
    /// Direct `key → ordinal` table for keys below
    /// [`FleetArena::DENSE_KEY_CACHE`], exactly as in the dense arena.
    dense_slots: Vec<u32>,
    router: RouterScratch,
}

impl<H: Hasher64 + FromSeed> SparseFleet<H> {
    /// Create an empty sparse fleet for cardinalities in `[1, n_max]`
    /// with `m` bits per key.
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

    /// Create a sparse fleet over an existing shared schedule.
    pub fn with_schedule(schedule: Arc<RateSchedule>, seed: u64) -> Self {
        let stride = schedule.dims().m().div_ceil(64);
        let classes = class_table(stride)
            .into_iter()
            .map(ClassStore::new)
            .collect();
        Self {
            schedule,
            seed,
            stride,
            classes,
            keys: Vec::new(),
            fills: Vec::new(),
            hashers: Vec::new(),
            handles: Vec::new(),
            index: SlotIndex::new(),
            dense_slots: Vec::new(),
            router: RouterScratch::default(),
        }
    }

    /// The ordinal for `key`, if present: one load for dense keys, a
    /// hash probe for sparse ones.
    #[inline]
    fn lookup_ordinal(&self, key: u64) -> Option<u32> {
        if key < FleetArena::<H>::DENSE_KEY_CACHE {
            let k = key as usize;
            if k < self.dense_slots.len() {
                let ordinal = self.dense_slots[k];
                return (ordinal != EMPTY).then_some(ordinal);
            }
            return None;
        }
        self.index.get(key)
    }

    /// The ordinal for `key`, creating it (smallest-class record, derived
    /// hasher) if absent.
    fn ordinal_for(&mut self, key: u64) -> u32 {
        if let Some(ordinal) = self.lookup_ordinal(key) {
            return ordinal;
        }
        let ordinal = self.keys.len();
        assert!(ordinal < EMPTY as usize, "sparse fleet ordinal overflow");
        self.keys.push(key);
        self.fills.push(0);
        self.hashers.push(H::from_seed(sketch_seed(self.seed, key)));
        let (slab, slot) = self.classes[0].alloc();
        self.handles.push(pack_handle(0, slab, slot));
        self.index.insert(key, ordinal as u32);
        if key < FleetArena::<H>::DENSE_KEY_CACHE {
            let k = key as usize;
            if k >= self.dense_slots.len() {
                self.dense_slots.resize(k + 1, EMPTY);
            }
            self.dense_slots[k] = ordinal as u32;
        }
        ordinal as u32
    }

    /// Ensure `key` has a (possibly empty) sketch, as a first insert
    /// would.
    pub fn touch(&mut self, key: u64) {
        self.ordinal_for(key);
    }

    /// Copy `ordinal`'s record into a freshly bumped slot of the next
    /// class up (ultimately the full-stride dense class), leaving a
    /// tombstone behind and rewriting the handle. The ×4 capacity ladder
    /// guarantees the next class fits the current live words plus the
    /// one that forced the promotion.
    fn promote(&mut self, ordinal: u32) {
        let (k, slab, slot) = unpack_handle(self.handles[ordinal as usize]);
        debug_assert!(k + 1 < self.classes.len(), "dense class never promotes");
        let (head, tail) = self.classes.split_at_mut(k + 1);
        let from = &mut head[k];
        let to = &mut tail[0];
        let (nslab, nslot) = to.alloc();
        let old = from.record(slab, slot);
        let mw = from.spec.mask_words;
        let live = sbitmap_bitvec::kernels::popcount_slice(&old[..mw]);
        let dense = to.spec.is_dense();
        let new = to.record_mut(nslab, nslot);
        if dense {
            scatter_masked(&old[..mw], &old[mw..mw + live], new);
        } else {
            new[..mw].copy_from_slice(&old[..mw]);
            new[mw..mw + live].copy_from_slice(&old[mw..mw + live]);
        }
        from.tombstones += 1;
        self.handles[ordinal as usize] = pack_handle(k + 1, nslab, nslot);
    }

    /// Feed a run of pre-split hashes (already per-key hashed, arrival
    /// order) into `ordinal`'s record, promoting across class boundaries
    /// as the run demands — the per-run half of the batch router, also
    /// the scalar path with a one-hash run.
    fn ingest_ordinal_hashes(&mut self, ordinal: u32, hashes: &[u64]) -> u64 {
        let mut newly = 0u64;
        let mut rest = hashes;
        loop {
            let (k, slab, slot) = unpack_handle(self.handles[ordinal as usize]);
            let spec = self.classes[k].spec;
            let outcome = {
                let Self {
                    ref schedule,
                    ref mut classes,
                    ref mut fills,
                    ..
                } = *self;
                let record = classes[k].record_mut(slab, slot);
                if spec.is_dense() {
                    return newly
                        + probe_hashes(schedule, record, &mut fills[ordinal as usize], rest);
                }
                let mut live = sbitmap_bitvec::kernels::popcount_slice(&record[..spec.mask_words]);
                probe_sparse_class(
                    schedule,
                    spec,
                    record,
                    &mut live,
                    &mut fills[ordinal as usize],
                    rest,
                )
            };
            match outcome {
                SparseProbe::Done(n) => return newly + n,
                SparseProbe::Promote(n, at) => {
                    newly += n;
                    rest = &rest[at..];
                    self.promote(ordinal);
                }
            }
        }
    }

    /// Insert `item` into the sketch for `key` (created if absent).
    /// Returns `true` if the update set a new bit.
    pub fn insert_u64(&mut self, key: u64, item: u64) -> bool {
        let ordinal = self.ordinal_for(key);
        let hash = self.hashers[ordinal as usize].hash_u64(item);
        self.ingest_ordinal_hashes(ordinal, &[hash]) == 1
    }

    /// Insert a byte-string item into the sketch for `key`.
    pub fn insert_bytes(&mut self, key: u64, item: &[u8]) -> bool {
        let ordinal = self.ordinal_for(key);
        let hash = self.hashers[ordinal as usize].hash_bytes(item);
        self.ingest_ordinal_hashes(ordinal, &[hash]) == 1
    }

    /// Batched per-key ingest: feed `items` to `key`'s sketch in order,
    /// returning how many bits were newly set. Bit-identical to calling
    /// [`SparseFleet::insert_u64`] per item.
    pub fn insert_u64s(&mut self, key: u64, items: &[u64]) -> u64 {
        let ordinal = self.ordinal_for(key);
        let mut buf = [0u64; BATCH_CHUNK];
        let mut newly = 0u64;
        for chunk in items.chunks(BATCH_CHUNK) {
            let hashes = &mut buf[..chunk.len()];
            self.hashers[ordinal as usize].hash_u64_batch(chunk, hashes);
            newly += self.ingest_ordinal_hashes(ordinal, hashes);
        }
        newly
    }

    /// Ingest a batch of `(key, item)` pairs through the radix router,
    /// returning how many bits were newly set across the fleet.
    ///
    /// The router is the dense arena's two-pass counting sort verbatim —
    /// route first (key → ordinal, count, prefix-sum, hash-and-scatter),
    /// then resolve each run's storage class at ingest time. A run that
    /// crosses its class boundary mid-stream promotes and resumes, so
    /// per-key sketch state is bit-identical to the pair-by-pair feed.
    pub fn insert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        if pairs.is_empty() {
            return 0;
        }
        assert!(
            pairs.len() < u32::MAX as usize,
            "batch too large for u32 offsets"
        );
        const BLOCK: usize = 32 * 1024;
        let mut newly = 0u64;
        for block in pairs.chunks(BLOCK) {
            newly += self.insert_batch_dense(block);
        }
        newly
    }

    /// Dense-key router block (see [`FleetArena`]'s twin for the play by
    /// play): counts land in a key-indexed table, falling back to the
    /// general router the moment a key exceeds the dense bound.
    fn insert_batch_dense(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut r = std::mem::take(&mut self.router);
        let bound =
            FleetArena::<H>::DENSE_KEY_CACHE.min(pairs.len().saturating_mul(4).max(64) as u64);
        r.offsets.clear();
        let mut dense = true;
        for &(key, _) in pairs {
            let k = key as usize;
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
        for k in 1..=buckets {
            r.offsets[k] += r.offsets[k - 1];
        }
        debug_assert_eq!(r.offsets[buckets] as usize, pairs.len());
        r.run_slots.clear();
        r.run_slots.resize(buckets, EMPTY);
        for key in 0..buckets {
            if r.offsets[key + 1] > r.offsets[key] {
                r.run_slots[key] = self.ordinal_for(key as u64);
            }
        }
        shift_to_cursors(&mut r.offsets);

        if r.grouped.len() < pairs.len() {
            r.grouped.resize(pairs.len(), 0);
        }
        for &(key, item) in pairs {
            let ordinal = r.run_slots[key as usize] as usize;
            let cursor = &mut r.offsets[key as usize + 1];
            r.grouped[*cursor as usize] = self.hashers[ordinal].hash_u64(item);
            *cursor += 1;
        }

        let newly = self.ingest_runs(&r.offsets, &r.run_slots, &r.grouped);
        self.router = r;
        newly
    }

    /// General router block for arbitrary keys: pass 1 maps every pair
    /// to its ordinal, the rest is the same counting sort over ordinals.
    fn insert_batch_general(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut r = std::mem::take(&mut self.router);

        r.pair_slots.clear();
        r.pair_slots
            .extend(pairs.iter().map(|&(key, _)| self.ordinal_for(key)));
        let n_ordinals = self.keys.len();
        r.offsets.clear();
        r.offsets.resize(n_ordinals + 1, 0);
        for &ordinal in &r.pair_slots {
            r.offsets[ordinal as usize + 1] += 1;
        }
        for s in 1..=n_ordinals {
            r.offsets[s] += r.offsets[s - 1];
        }
        debug_assert_eq!(r.offsets[n_ordinals] as usize, pairs.len());
        shift_to_cursors(&mut r.offsets);
        r.run_slots.clear();
        r.run_slots.extend(0..n_ordinals as u32);

        if r.grouped.len() < pairs.len() {
            r.grouped.resize(pairs.len(), 0);
        }
        for (&(_, item), &ordinal) in pairs.iter().zip(&r.pair_slots) {
            let cursor = &mut r.offsets[ordinal as usize + 1];
            r.grouped[*cursor as usize] = self.hashers[ordinal as usize].hash_u64(item);
            *cursor += 1;
        }

        let newly = self.ingest_runs(&r.offsets, &r.run_slots, &r.grouped);
        self.router = r;
        newly
    }

    /// Pass 3 of the router: ingest each bucket's contiguous hash run
    /// into its ordinal's record, warming the next occupied record one
    /// run ahead.
    fn ingest_runs(&mut self, offsets: &[u32], run_slots: &[u32], grouped: &[u64]) -> u64 {
        let mut newly = 0u64;
        let mut pending: Option<(u32, u32, u32)> = None;
        for bucket in 0..run_slots.len() {
            let start = offsets[bucket];
            let end = offsets[bucket + 1];
            if end == start {
                continue;
            }
            let ordinal = run_slots[bucket];
            if let Some((prev, ps, pe)) = pending.replace((ordinal, start, end)) {
                self.prefetch_record(ordinal);
                newly += self.ingest_ordinal_hashes(prev, &grouped[ps as usize..pe as usize]);
            }
        }
        if let Some((last, ps, pe)) = pending {
            newly += self.ingest_ordinal_hashes(last, &grouped[ps as usize..pe as usize]);
        }
        newly
    }

    /// Warm the leading cache lines of `ordinal`'s record.
    #[inline]
    fn prefetch_record(&self, ordinal: u32) {
        let (k, slab, slot) = unpack_handle(self.handles[ordinal as usize]);
        let store = &self.classes[k];
        let base = slot as usize * store.spec.record_words;
        let words = &store.slabs[slab as usize];
        for line in 0..store.spec.record_words.div_ceil(8).min(4) {
            sbitmap_bitvec::prefetch_word(words, base + line * 8);
        }
    }

    /// Expand `ordinal`'s record into its full-stride dense word image.
    pub(crate) fn copy_full_words(&self, ordinal: u32, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.stride, 0);
        let (k, slab, slot) = unpack_handle(self.handles[ordinal as usize]);
        let store = &self.classes[k];
        let record = store.record(slab, slot);
        if store.spec.is_dense() {
            out.copy_from_slice(record);
        } else {
            let mw = store.spec.mask_words;
            let live = sbitmap_bitvec::kernels::popcount_slice(&record[..mw]);
            scatter_masked(&record[..mw], &record[mw..mw + live], out);
        }
    }

    /// `(key, ordinal)` pairs in ascending key order — the canonical
    /// iteration order shared with the dense flavors.
    pub(crate) fn ordinals_by_key(&self) -> Vec<(u64, u32)> {
        let mut pairs: Vec<(u64, u32)> = self
            .keys
            .iter()
            .enumerate()
            .map(|(o, &k)| (k, o as u32))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs
    }

    /// Estimate for one key; `None` if the key has never been inserted.
    pub fn estimate(&self, key: u64) -> Option<f64> {
        let ordinal = self.lookup_ordinal(key)? as usize;
        Some(self.schedule.estimate_at(self.fills[ordinal]))
    }

    /// Fill counter for one key; `None` if the key has never been
    /// inserted.
    pub fn fill(&self, key: u64) -> Option<usize> {
        Some(self.fills[self.lookup_ordinal(key)? as usize])
    }

    /// Keys with a sketch, in ascending order.
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys
    }

    /// Keys with a sketch, in ordinal (= first-insert) order — the raw
    /// backing list, no copy, no sort.
    #[inline]
    pub fn keys_unsorted(&self) -> &[u64] {
        &self.keys
    }

    /// All `(key, estimate)` pairs, in ascending key order.
    pub fn estimates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.ordinals_by_key()
            .into_iter()
            .map(|(key, o)| (key, self.schedule.estimate_at(self.fills[o as usize])))
    }

    /// Materialize one key's sketch as a standalone [`SBitmap`]; `None`
    /// if the key has never been inserted. Bit-identical to the dense
    /// flavors' exports for the same stream.
    pub fn export_sketch(&self, key: u64) -> Option<SBitmap<H>> {
        let ordinal = self.lookup_ordinal(key)?;
        let m = self.schedule.dims().m();
        let mut words = Vec::new();
        self.copy_full_words(ordinal, &mut words);
        let bitmap = Bitmap::from_words(words, m).expect("sparse record is a valid bitmap");
        let mut sketch = SBitmap::with_shared_schedule(
            self.schedule.clone(),
            H::from_seed(sketch_seed(self.seed, key)),
        );
        sketch.restore_state(bitmap, self.fills[ordinal as usize]);
        Some(sketch)
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no key has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys whose sketches have saturated — the re-dimensioning signal.
    /// Ascending key order.
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

    /// Total *logical* sketch payload across the fleet, in bits — the
    /// paper's accounting, identical to the dense arena's for the same
    /// key set. For the physical footprint the storage actually pays,
    /// see [`SparseFleet::allocated_bytes`].
    pub fn memory_bits(&self) -> usize {
        self.keys.len() * self.schedule.dims().m()
    }

    /// Physically allocated bytes across slabs, handle/key/fill/hasher
    /// tables, the index and the router scratch — what the Zipf bench's
    /// RSS gate is about.
    pub fn allocated_bytes(&self) -> usize {
        let slabs: usize = self.classes.iter().map(ClassStore::allocated_bytes).sum();
        slabs
            + self.keys.capacity() * 8
            + self.fills.capacity() * std::mem::size_of::<usize>()
            + self.hashers.capacity() * std::mem::size_of::<H>()
            + self.handles.capacity() * 8
            + self.index.allocated_bytes()
            + self.dense_slots.capacity() * 4
            + self.router.allocated_bytes()
    }

    /// Live records per class, smallest class first (the dense class is
    /// last) — the class table a capacity report prints.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut histogram = vec![0usize; self.classes.len()];
        for &handle in &self.handles {
            histogram[unpack_handle(handle).0] += 1;
        }
        histogram
    }

    /// The class index `key`'s record currently lives in (0 = smallest;
    /// `class_count() - 1` = the dense full-stride class); `None` if the
    /// key has never been inserted.
    pub fn class_of(&self, key: u64) -> Option<usize> {
        let ordinal = self.lookup_ordinal(key)?;
        Some(unpack_handle(self.handles[ordinal as usize]).0)
    }

    /// Number of size classes in the ladder (≥ 1; exactly 1 when the
    /// stride is too small for any sparse class to pay for its mask, in
    /// which case every key starts directly in the full-stride class).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Records abandoned by promotion, summed across classes — the
    /// fragmentation the bump allocator trades for stable addresses.
    pub fn tombstones(&self) -> usize {
        self.classes.iter().map(|c| c.tombstones).sum()
    }

    /// Longest probe chain in the open-addressed key index — bounded by
    /// the 7/8 load factor; the million-key stress test asserts it.
    pub fn index_max_probe(&self) -> usize {
        self.index.max_probe_len()
    }

    /// Reset every sketch to empty, keeping keys, class assignments and
    /// all allocations.
    pub fn reset_all(&mut self) {
        for class in &mut self.classes {
            for slab in &mut class.slabs {
                slab.fill(0);
            }
        }
        self.fills.fill(0);
    }

    /// Drop all keys and slabs, keeping table allocations for reuse.
    pub fn clear(&mut self) {
        for class in &mut self.classes {
            class.slabs.clear();
            class.used_in_last = 0;
            class.tombstones = 0;
        }
        self.keys.clear();
        self.fills.clear();
        self.hashers.clear();
        self.handles.clear();
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

    /// Materialize the whole fleet as a dense [`FleetArena`] with
    /// identical logical state (bit-identical sketches, byte-identical
    /// checkpoints) — the bridge into dense-only consumers.
    pub fn to_arena(&self) -> FleetArena<H> {
        let mut arena = FleetArena::with_schedule(self.schedule.clone(), self.seed);
        let mut words = Vec::new();
        for (o, &key) in self.keys.iter().enumerate() {
            self.copy_full_words(o as u32, &mut words);
            arena
                .restore_slot(key, self.fills[o], std::mem::take(&mut words))
                .expect("sparse records are valid dense slots");
        }
        arena
    }

    /// Adopt one key's restored state (checkpoint path): full-stride
    /// bitmap words and the matching fill counter, landed directly in
    /// the smallest class that holds the live words — no promotion
    /// chain, no tombstones.
    pub(crate) fn restore_record(
        &mut self,
        key: u64,
        fill: usize,
        words: Vec<u64>,
    ) -> Result<(), SBitmapError> {
        let fail = |msg: &str| SBitmapError::invalid("checkpoint", msg.to_string());
        let m = self.schedule.dims().m();
        let bitmap =
            Bitmap::from_words(words, m).map_err(|e| SBitmapError::invalid("checkpoint", e))?;
        if bitmap.count_ones() != fill {
            return Err(fail("fill counter disagrees with bitmap"));
        }
        if self.lookup_ordinal(key).is_some() {
            return Err(fail("duplicate key in fleet checkpoint"));
        }
        let live = bitmap.words().iter().filter(|&&w| w != 0).count();
        let class = self
            .classes
            .iter()
            .position(|c| c.spec.cap >= live)
            .expect("the dense class holds any full stride");
        let ordinal = self.ordinal_for(key) as usize;
        // `ordinal_for` parked the key in class 0; move the handle to the
        // right class directly (the class-0 record it bumped stays zero —
        // it is only a tombstone when the right class differs).
        if class != 0 {
            self.classes[0].tombstones += 1;
            let (slab, slot) = self.classes[class].alloc();
            self.handles[ordinal] = pack_handle(class, slab, slot);
        }
        let (k, slab, slot) = unpack_handle(self.handles[ordinal]);
        let store = &mut self.classes[k];
        let spec = store.spec;
        let record = store.record_mut(slab, slot);
        if spec.is_dense() {
            record.copy_from_slice(bitmap.words());
        } else {
            let (mask, data) = record.split_at_mut(spec.mask_words);
            let placed = sbitmap_bitvec::masked::gather_masked(bitmap.words(), mask, data);
            debug_assert_eq!(placed, live);
        }
        self.fills[ordinal] = fill;
        Ok(())
    }
}

impl<H: Hasher64 + FromSeed> KeyedEstimates for SparseFleet<H> {
    fn keys_sorted(&self) -> Vec<u64> {
        SparseFleet::keys_sorted(self)
    }

    fn estimate(&self, key: u64) -> Option<f64> {
        SparseFleet::estimate(self, key)
    }
}

/// Sparse fleets serialize exactly like [`crate::FleetArena`] — same
/// [`CounterKind::SketchFleet`] tag, same payload (config header, then
/// `(key, fill, full-stride words)` records sorted by key) — so the two
/// flavors' checkpoints are interchangeable. The size classes are a storage strategy: nothing
/// about them reaches the wire, and restore re-derives each record's
/// class from its live word count.
impl<H: Hasher64 + FromSeed> Checkpoint for SparseFleet<H> {
    const KIND: CounterKind = CounterKind::SketchFleet;

    fn write_payload(&self, out: &mut PayloadWriter) {
        let dims = self.schedule.dims();
        out.u64(dims.n_max());
        out.u64(dims.m() as u64);
        out.u32(self.schedule.split().sampling_bits());
        out.u64(self.seed);
        out.u64(self.keys.len() as u64);
        let mut words = Vec::new();
        for (key, ordinal) in self.ordinals_by_key() {
            out.u64(key);
            out.u64(self.fills[ordinal as usize] as u64);
            self.copy_full_words(ordinal, &mut words);
            out.words(&words);
        }
    }

    fn read_payload(r: &mut PayloadReader<'_>) -> Result<Self, SBitmapError> {
        let n_max = r.u64()?;
        let m = r.len_u64()?;
        // Same restore-side geometry caps as the dense arena: the
        // schedule rebuild is O(m) and the per-record word reads are
        // m-sized, so `m` is bounded before any allocation keyed on it
        // (class specs, slab extents and record sizes all derive from
        // the stride, hence from this checked `m`).
        crate::codec::check_wire_m(m)?;
        let sampling_bits = r.u32()?;
        let seed = r.u64()?;
        let count = r.len_u64()?;
        let schedule = RateSchedule::shared(n_max, m, sampling_bits)?;
        let mut fleet = SparseFleet::with_schedule(schedule, seed);
        for _ in 0..count {
            let key = r.u64()?;
            let fill = r.len_u64()?;
            let words = r.words(m.div_ceil(64))?;
            fleet.restore_record(key, fill, words)?;
        }
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse() -> SparseFleet {
        SparseFleet::new(100_000, 4_000, 9).unwrap()
    }

    fn arena() -> FleetArena {
        FleetArena::new(100_000, 4_000, 9).unwrap()
    }

    /// First item whose hash lands in word `word` of `key`'s bitmap (and
    /// is accepted at fill+1 — early fills accept almost everything, so
    /// search only the landing word).
    fn item_in_word(fleet: &SparseFleet, key: u64, word: usize, skip: u64) -> u64 {
        let hasher = sbitmap_hash::SplitMix64Hasher::from_seed(sketch_seed(fleet.seed(), key));
        let split = *fleet.schedule().split();
        let mut skipped = 0u64;
        for item in 0..u64::MAX {
            let (bucket, _) = split.split(hasher.hash_u64(item));
            if bucket >> 6 == word {
                if skipped == skip {
                    return item;
                }
                skipped += 1;
            }
        }
        unreachable!("some item lands in every word");
    }

    #[test]
    fn class_table_shape() {
        // m = 4000 → stride 63, mask 1: sparse caps 2 and 8, then dense.
        let f = sparse();
        assert_eq!(f.class_count(), 3);
        // m = 120 → stride 2: no sparse class pays for its mask; every
        // key starts directly in the largest (dense) class.
        let tiny: SparseFleet = SparseFleet::new(1_000, 120, 1).unwrap();
        assert_eq!(tiny.class_count(), 1);
        tiny.classes
            .iter()
            .for_each(|c| assert!(c.spec.is_dense() == (c.spec.mask_words == 0)));
    }

    #[test]
    fn start_in_largest_for_tiny_strides() {
        let mut tiny: SparseFleet = SparseFleet::new(1_000, 120, 1).unwrap();
        tiny.insert_u64(5, 1);
        assert_eq!(tiny.class_of(5), Some(0));
        assert_eq!(tiny.class_count(), 1);
        // And it still matches the dense arena bit for bit.
        let mut dense: FleetArena = FleetArena::new(1_000, 120, 1).unwrap();
        for i in 0..5_000u64 {
            tiny.insert_u64(5, i);
            dense.insert_u64(5, i);
        }
        assert_eq!(tiny.fill(5), dense.fill(5));
        assert_eq!(tiny.checkpoint(), dense.checkpoint());
    }

    #[test]
    fn fill_to_exact_class_boundary_does_not_promote() {
        let mut f = sparse();
        let cap0 = f.classes[0].spec.cap;
        // Set one bit in each of exactly `cap0` distinct words.
        for w in 0..cap0 {
            assert!(f.insert_u64(7, item_in_word(&f, 7, w, 0)));
        }
        assert_eq!(f.class_of(7), Some(0), "at the boundary, not past it");
        assert_eq!(f.fill(7), Some(cap0));
        assert_eq!(f.tombstones(), 0);
    }

    #[test]
    fn one_bit_below_boundary_stays_one_bit_above_promotes() {
        let mut below = sparse();
        let cap0 = below.classes[0].spec.cap;
        for w in 0..cap0 - 1 {
            below.insert_u64(7, item_in_word(&below, 7, w, 0));
        }
        assert_eq!(below.class_of(7), Some(0), "one word below the boundary");

        let mut above = sparse();
        for w in 0..cap0 + 1 {
            above.insert_u64(7, item_in_word(&above, 7, w, 0));
        }
        assert_eq!(above.class_of(7), Some(1), "one word above promotes");
        assert_eq!(above.tombstones(), 1);
        assert_eq!(above.fill(7), Some(cap0 + 1));
        // A second bit in an already-live word never promotes.
        above.insert_u64(7, item_in_word(&above, 7, 0, 1));
        assert_eq!(above.class_of(7), Some(1));
        assert_eq!(above.tombstones(), 1);
    }

    #[test]
    fn every_class_is_reachable_and_stays_bit_identical() {
        let mut f = sparse();
        let mut d = arena();
        // Walk one key through every class boundary: one bit per word
        // until the record has been forced dense.
        let last = f.class_count() - 1;
        let mut w = 0usize;
        let mut seen = vec![false; f.class_count()];
        while f.class_of(42) != Some(last) {
            let item = item_in_word(&f, 42, w, 0);
            assert_eq!(f.insert_u64(42, item), d.insert_u64(42, item));
            seen[f.class_of(42).unwrap()] = true;
            w += 1;
        }
        assert!(seen.iter().all(|&s| s), "every class visited: {seen:?}");
        assert_eq!(f.tombstones(), last);
        assert_eq!(f.fill(42), d.fill(42));
        assert_eq!(
            f.export_sketch(42).unwrap().bitmap(),
            d.export_sketch(42).unwrap().bitmap()
        );
        assert_eq!(f.checkpoint(), d.checkpoint());
    }

    #[test]
    fn promote_under_batch_crosses_boundary_mid_run() {
        // One router run whose hashes cross the class-0 boundary in the
        // middle: the run must promote and resume bit-identically to the
        // scalar feed.
        let mut batched = sparse();
        let mut scalar = sparse();
        let mut dense = arena();
        let cap0 = batched.classes[0].spec.cap;
        let items: Vec<u64> = (0..3 * cap0)
            .map(|w| item_in_word(&batched, 9, w, 0))
            .collect();
        let pairs: Vec<(u64, u64)> = items.iter().map(|&i| (9u64, i)).collect();
        let newly = batched.insert_batch(&pairs);
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
            dense.insert_u64(k, item);
        }
        assert_eq!(newly, 3 * cap0 as u64);
        assert!(batched.class_of(9).unwrap() >= 1, "promoted mid-run");
        assert_eq!(batched.fill(9), scalar.fill(9));
        assert_eq!(batched.checkpoint(), scalar.checkpoint());
        assert_eq!(batched.checkpoint(), dense.checkpoint());
    }

    #[test]
    fn cold_keys_stay_in_the_smallest_class() {
        let mut f = sparse();
        for key in 0..10_000u64 {
            f.insert_u64(key, key);
        }
        let histogram = f.class_histogram();
        assert_eq!(
            histogram[0], 10_000,
            "one bit each → class 0: {histogram:?}"
        );
        assert_eq!(f.tombstones(), 0);
        // Physical storage is a small fraction of the logical payload.
        assert!(f.allocated_bytes() < f.memory_bits() / 8 / 4);
    }

    #[test]
    fn checkpoint_restores_into_the_right_classes() {
        let mut f = sparse();
        for key in 0..50u64 {
            f.insert_u64(key, 1);
        }
        for i in 0..200_000u64 {
            f.insert_u64(3, i); // key 3 goes dense (saturates)
        }
        let bytes = f.checkpoint();
        let restored: SparseFleet = Checkpoint::restore(&bytes).unwrap();
        assert_eq!(restored.class_of(7), Some(0));
        assert_eq!(restored.class_of(3), Some(f.class_count() - 1));
        assert_eq!(restored.tombstones(), 1, "one parked class-0 record");
        assert_eq!(restored.checkpoint(), bytes, "restore round-trips");
        // Restored fleets keep counting identically to the original.
        let mut a = f.clone();
        let mut b = restored;
        a.insert_u64(7, 999);
        b.insert_u64(7, 999);
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn reset_and_clear_semantics() {
        let mut f = sparse();
        f.insert_u64(5, 1);
        f.insert_u64(6, 2);
        assert_eq!(f.memory_bits(), 8_000);
        f.reset_all();
        assert_eq!(f.len(), 2);
        assert_eq!(f.estimate(5), Some(0.0));
        assert_eq!(f.fill(5), Some(0));
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.estimate(5), None);
        f.insert_u64(5, 1);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn to_arena_is_bit_identical() {
        let mut f = sparse();
        let pairs: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 97, i / 7)).collect();
        f.insert_batch(&pairs);
        let arena = f.to_arena();
        assert_eq!(arena.len(), f.len());
        assert_eq!(arena.checkpoint(), f.checkpoint());
        for key in f.keys_sorted() {
            assert_eq!(arena.fill(key), f.fill(key), "key {key}");
        }
    }

    #[test]
    fn handle_packing_round_trips() {
        for &(c, slab, slot) in &[
            (0usize, 0u32, 0u32),
            (3, 77, 12345),
            (255, (1 << 24) - 1, u32::MAX),
        ] {
            assert_eq!(unpack_handle(pack_handle(c, slab, slot)), (c, slab, slot));
        }
    }
}
