//! The layered trait family every distinct-counting sketch in this
//! workspace implements — the S-bitmap itself and all the baselines it is
//! evaluated against.
//!
//! The interface is split into capability layers rather than one fat
//! trait, because the capabilities genuinely differ across the sketch
//! family (the paper's Table 1):
//!
//! | trait | contract | who implements it |
//! |---|---|---|
//! | [`DistinctCounter`] | streaming insert + estimate | every sketch |
//! | [`BatchedCounter`] | slice ingestion, bit-identical to scalar | every sketch (S-bitmap overrides with the prefetch-pipelined path) |
//! | [`MergeableCounter`] | union of two same-configuration sketches | OR-mergeable bitmaps, the loglog family, order statistics — **not** the S-bitmap |
//! | [`Checkpoint`](crate::codec::Checkpoint) | versioned dependency-free binary encode/decode | everything a collector ships |
//!
//! The S-bitmap deliberately does not implement [`MergeableCounter`]:
//! whether an item is sampled depends on the sketch-local fill level at
//! its arrival time, so two S-bitmaps over different substreams cannot be
//! combined into the sketch of the union. Distributed S-bitmap
//! deployments ship per-link checkpoints and aggregate *estimates*
//! instead (see `sbitmap_stream`'s collector), which is exactly the
//! paper's §7.2 architecture.

use crate::SBitmapError;

/// A streaming distinct counter (cardinality estimator).
///
/// The contract mirrors the paper's problem statement (§2.1): items arrive
/// one at a time, possibly with duplicates; the sketch may not buffer the
/// stream; [`DistinctCounter::estimate`] may be called at any point and
/// returns an estimate of the number of *distinct* items inserted so far.
///
/// Implementations hash internally with their own seeded hasher, so two
/// sketches built with different seeds give independent estimates of the
/// same stream (the property replicated experiments rely on).
pub trait DistinctCounter {
    /// Insert a `u64` item (e.g. a flow key already packed into a word).
    fn insert_u64(&mut self, item: u64);

    /// Insert an arbitrary byte-string item.
    fn insert_bytes(&mut self, item: &[u8]);

    /// Estimate the number of distinct items inserted so far.
    fn estimate(&self) -> f64;

    /// Size of the summary statistic in bits, using the paper's accounting
    /// (§6.2): the sketch payload only, excluding hash seeds and any
    /// configuration shared across sketch instances.
    fn memory_bits(&self) -> usize;

    /// Forget everything, keeping the configuration and allocation.
    fn reset(&mut self);

    /// Short stable name used in experiment output ("s-bitmap", "hll", …).
    fn name(&self) -> &'static str;
}

/// Slice ingestion, semantically identical to a scalar insert loop.
///
/// The default methods are the scalar loop, so implementing the trait is
/// a one-line opt-in; sketches with a faster path (batch hashing,
/// prefetch-pipelined probes — see `SBitmap::insert_hashes`) override
/// them. The contract is strict: the sketch state after a batched call is
/// **bit-identical** to inserting the items one at a time in order, so
/// batching is a pure performance transform (property-tested in
/// `tests/properties.rs`).
pub trait BatchedCounter: DistinctCounter {
    /// Insert a slice of `u64` items, in order.
    fn insert_u64_batch(&mut self, items: &[u64]) {
        for &item in items {
            self.insert_u64(item);
        }
    }

    /// Insert a slice of byte-string items, in order.
    fn insert_bytes_batch(&mut self, items: &[&[u8]]) {
        for &item in items {
            self.insert_bytes(item);
        }
    }
}

/// Sketches whose union is computable from the sketches alone: merging
/// two same-configuration sketches of streams `A` and `B` yields exactly
/// the sketch of `A ∪ B`.
///
/// This holds for the OR-mergeable bitmap family (linear counting,
/// virtual bitmap, multiresolution bitmap, FM/PCSA), for max-mergeable
/// rank registers (LogLog, HyperLogLog) and for order statistics (KMV) —
/// and does **not** hold for the S-bitmap (see the module docs). The
/// bit-identity `merge(sketch(A), sketch(B)) == sketch(A ∪ B)` is
/// property-tested per implementation in `tests/merge_properties.rs`.
pub trait MergeableCounter: DistinctCounter {
    /// Fold `other` into `self`, making `self` the sketch of the union of
    /// both input streams.
    ///
    /// # Errors
    ///
    /// Merging requires identical configuration (size/shape *and* hash
    /// seed); incompatible sketches are rejected, never silently mixed.
    fn merge_from(&mut self, other: &Self) -> Result<(), SBitmapError>;
}

/// Keyed fleets with deterministic, ascending-key iteration — the query
/// surface shared by both fleet storage types ([`crate::FleetArena`],
/// [`crate::SparseFleet`]) and by the window ring
/// ([`crate::WindowedFleet`]).
///
/// **Ordering guarantee:** [`KeyedEstimates::keys_sorted`] returns keys
/// in strictly ascending order, and [`KeyedEstimates::estimates_sorted`]
/// follows it — never insertion order, never `HashMap` order, never a
/// shard- or epoch-dependent order. Every consumer (CLI tables,
/// checkpoints, the collector summaries, the examples) relies on this to
/// stay byte-for-byte reproducible across runs, storage flavors, shard
/// counts and window spans; implementations must sort, not expose their
/// internal layout.
pub trait KeyedEstimates {
    /// Keys with state, in strictly ascending order.
    fn keys_sorted(&self) -> Vec<u64>;

    /// Estimate for one key; `None` if the key has no state.
    fn estimate(&self, key: u64) -> Option<f64>;

    /// All `(key, estimate)` pairs, in ascending key order (provided:
    /// derived from [`KeyedEstimates::keys_sorted`], so every flavor
    /// reports the same keys in the same order for the same state).
    fn estimates_sorted(&self) -> Vec<(u64, f64)> {
        self.keys_sorted()
            .into_iter()
            .map(|key| (key, self.estimate(key).expect("key listed")))
            .collect()
    }
}

/// Blanket impl so `Box<dyn DistinctCounter>` is itself a counter — the
/// experiment harness stores heterogeneous sketch fleets this way.
impl DistinctCounter for Box<dyn DistinctCounter> {
    fn insert_u64(&mut self, item: u64) {
        (**self).insert_u64(item)
    }
    fn insert_bytes(&mut self, item: &[u8]) {
        (**self).insert_bytes(item)
    }
    fn estimate(&self) -> f64 {
        (**self).estimate()
    }
    fn memory_bits(&self) -> usize {
        (**self).memory_bits()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Boxed counters batch through the scalar loop (the box erases any
/// faster path; unbox for hot-loop ingestion).
impl BatchedCounter for Box<dyn DistinctCounter> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SBitmap;

    #[test]
    fn batched_defaults_match_scalar() {
        // Through the trait's default methods (the boxed counter), the
        // batch calls must be the scalar loop.
        let mut boxed: Box<dyn DistinctCounter> =
            Box::new(SBitmap::with_memory(100_000, 2_000, 3).unwrap());
        let mut scalar = SBitmap::with_memory(100_000, 2_000, 3).unwrap();
        let items: Vec<u64> = (0..5_000).collect();
        boxed.insert_u64_batch(&items);
        for &i in &items {
            scalar.insert_u64(i);
        }
        assert_eq!(boxed.estimate(), scalar.estimate());
    }
}
