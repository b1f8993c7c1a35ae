//! The Zipf differential suite locking [`SparseFleet`]'s size-classed
//! slab storage to the dense [`FleetArena`]: seeded Zipf and backbone
//! streams are driven into both flavors in lockstep, and per-key
//! estimates, `keys_sorted()` order and checkpoint bytes must be
//! **bit-identical** — through mid-stream promotions, saturation,
//! restore-into-either-flavor, batched ≡ scalar ingest, and the windowed
//! collector's absorb path. Sparse storage is a strategy, not a wire
//! format: nothing observable may depend on it. The saturation and
//! restore paths are also held to standalone per-key sketches
//! (`support/keyed_oracle.rs`).
//!
//! The suite also stresses the open-addressed key index past a million
//! keys (bounded probe chains, panic-free growth). All cases are
//! deterministic; CI runs the whole file under both SIMD dispatch modes
//! (default and `SBITMAP_FORCE_SCALAR=1`).

#[path = "support/keyed_oracle.rs"]
mod keyed_oracle;

use keyed_oracle::KeyedOracle;
use sbitmap::core::Checkpoint;
use sbitmap::hash::rng::{Rng, SplitMix64};
use sbitmap::stream::{distinct_items, zipf_stream};
use sbitmap::{FleetArena, SparseFleet, WindowedFleet};

/// Deterministic per-case RNG.
fn rng(case: u64) -> SplitMix64 {
    SplitMix64::new(0x59a2_5e00_0000_0000 ^ case)
}

/// The backbone-shaped stream of `tests/fleet_arena.rs`: dense
/// link-index keys with sparse hashed outliers, repeating items.
fn backbone_stream(
    g: &mut SplitMix64,
    len: usize,
    key_space: u64,
    item_space: u64,
) -> Vec<(u64, u64)> {
    (0..len)
        .map(|_| {
            let key = if g.next_below(8) == 0 {
                g.next_u64() | (1 << 60)
            } else {
                g.next_below(key_space)
            };
            (key, g.next_below(item_space))
        })
        .collect()
}

/// The per-flow-shaped stream: `keys` distinct hashed keys drawn
/// Zipf(`alpha`), one fresh item per pair — hot keys promote through the
/// size classes, the tail stays in the smallest.
fn zipf_pairs(case: u64, keys: u64, total: u64, alpha: f64) -> Vec<(u64, u64)> {
    let (draws, _) = zipf_stream(case, keys, total, alpha);
    draws.into_iter().zip(0u64..).collect()
}

/// Assert every observable of the two flavors matches, bit for bit.
fn assert_lockstep(case: u64, sparse: &SparseFleet, dense: &FleetArena) {
    assert_eq!(sparse.len(), dense.len(), "case {case}: key count");
    assert_eq!(
        sparse.keys_sorted(),
        dense.keys_sorted(),
        "case {case}: key order"
    );
    assert_eq!(
        sparse.estimates().collect::<Vec<_>>(),
        dense.estimates().collect::<Vec<_>>(),
        "case {case}: estimates"
    );
    assert_eq!(
        sparse.saturated_keys(),
        dense.saturated_keys(),
        "case {case}: saturation"
    );
    for key in sparse.keys_sorted() {
        assert_eq!(sparse.fill(key), dense.fill(key), "case {case}: key {key}");
        assert_eq!(
            sparse.export_sketch(key).unwrap().bitmap().words(),
            dense.export_sketch(key).unwrap().bitmap().words(),
            "case {case}: bitmap words for key {key}"
        );
    }
    assert_eq!(
        sparse.checkpoint(),
        dense.checkpoint(),
        "case {case}: checkpoint bytes"
    );
}

/// Assert the sparse fleet holds exactly the oracle's per-key state.
fn assert_matches_oracle(case: u64, sparse: &SparseFleet, oracle: &KeyedOracle) {
    assert_eq!(
        sparse.keys_sorted(),
        oracle.keys_sorted(),
        "case {case}: key set"
    );
    for (key, sketch) in oracle.sketches() {
        assert_eq!(
            sparse.fill(key),
            Some(sketch.fill()),
            "case {case}: key {key}"
        );
        assert_eq!(
            sparse.export_sketch(key).unwrap().bitmap().words(),
            sketch.bitmap().words(),
            "case {case}: bitmap words for key {key}"
        );
    }
    assert_eq!(
        sparse.saturated_keys(),
        oracle.saturated_keys(),
        "case {case}: saturation"
    );
    assert_eq!(
        sparse.checkpoint(),
        oracle.checkpoint(),
        "case {case}: checkpoint bytes"
    );
}

#[test]
fn zipf_streams_stay_bit_identical_through_promotions() {
    for case in 0..6u64 {
        // 3k keys × 30k draws at Zipf 1.1: the head keys cross every
        // class boundary, the tail never leaves class 0.
        let pairs = zipf_pairs(case, 3_000, 30_000, 1.1);
        let seed = rng(case).next_u64();
        let mut sparse: SparseFleet = SparseFleet::new(100_000, 4_000, seed).unwrap();
        let mut dense: FleetArena = FleetArena::new(100_000, 4_000, seed).unwrap();
        // Mixed feeding: batches into sparse, pairwise into dense — the
        // router and the promotion machinery must be invisible.
        for chunk in pairs.chunks(4_000) {
            sparse.insert_batch(chunk);
            for &(k, item) in chunk {
                dense.insert_u64(k, item);
            }
        }
        let hist = sparse.class_histogram();
        assert!(
            hist.iter().skip(1).any(|&n| n > 0),
            "case {case}: the head must actually promote: {hist:?}"
        );
        assert!(
            hist[0] > hist.iter().skip(1).sum::<usize>(),
            "case {case}: the Zipf tail must dominate class 0: {hist:?}"
        );
        assert_lockstep(case, &sparse, &dense);
    }
}

#[test]
fn backbone_streams_stay_bit_identical() {
    for case in 0..6u64 {
        let mut g = rng(case ^ 0xbb);
        let pairs = backbone_stream(&mut g, 8_000, 24, 2_000);
        let seed = g.next_u64();
        let mut sparse: SparseFleet = SparseFleet::new(50_000, 2_000, seed).unwrap();
        let mut dense: FleetArena = FleetArena::new(50_000, 2_000, seed).unwrap();
        for chunk in pairs.chunks(1_500) {
            sparse.insert_batch(chunk);
            dense.insert_batch(chunk);
        }
        assert_lockstep(case, &sparse, &dense);
    }
}

#[test]
fn batched_ingest_is_scalar_identical() {
    for case in 0..4u64 {
        let pairs = zipf_pairs(case ^ 0x6a7c, 800, 12_000, 1.1);
        let seed = rng(case).next_u64();
        let mut batched: SparseFleet = SparseFleet::new(100_000, 4_000, seed).unwrap();
        let mut scalar: SparseFleet = SparseFleet::new(100_000, 4_000, seed).unwrap();
        let newly_batched = batched.insert_batch(&pairs);
        let mut newly_scalar = 0u64;
        for &(k, item) in &pairs {
            newly_scalar += u64::from(scalar.insert_u64(k, item));
        }
        assert_eq!(newly_batched, newly_scalar, "case {case}: newly set bits");
        assert_eq!(
            batched.checkpoint(),
            scalar.checkpoint(),
            "case {case}: checkpoint bytes"
        );
        assert_eq!(
            batched.class_histogram(),
            scalar.class_histogram(),
            "case {case}: same promotion decisions"
        );
    }
}

#[test]
fn saturation_stays_identical_across_all_three_flavors() {
    // The tiny (1_000, 120) configuration saturates quickly AND has a
    // stride too small for any sparse class — the start-in-largest path
    // must behave exactly like the dense arena and standalone per-key
    // sketches through the clamped schedule tail.
    for case in 0..4u64 {
        let mut g = rng(case ^ 0x5a7);
        let pairs = backbone_stream(&mut g, 20_000, 4, u64::MAX);
        let seed = g.next_u64();
        let mut sparse: SparseFleet = SparseFleet::new(1_000, 120, seed).unwrap();
        let mut dense: FleetArena = FleetArena::new(1_000, 120, seed).unwrap();
        let mut oracle = KeyedOracle::new(1_000, 120, seed);
        sparse.insert_batch(&pairs);
        dense.insert_batch(&pairs);
        oracle.insert_pairs(&pairs);
        assert!(
            !sparse.saturated_keys().is_empty(),
            "case {case}: workload must actually saturate"
        );
        assert_eq!(sparse.class_count(), 1, "m=120 is dense-only");
        assert_lockstep(case, &sparse, &dense);
        assert_matches_oracle(case, &sparse, &oracle);
    }
}

#[test]
fn checkpoints_restore_into_either_flavor_and_continue_in_lockstep() {
    for case in 0..4u64 {
        let pairs = zipf_pairs(case ^ 0xc5, 1_500, 15_000, 1.1);
        let seed = rng(case).next_u64();
        let mut sparse: SparseFleet = SparseFleet::new(100_000, 4_000, seed).unwrap();
        sparse.insert_batch(&pairs);
        let bytes = sparse.checkpoint();
        // Sparse checkpoint → dense restore, dense checkpoint → sparse
        // restore: the tag-9 frame is flavor-blind in both directions.
        let mut dense: FleetArena = Checkpoint::restore(&bytes).unwrap();
        assert_eq!(dense.checkpoint(), bytes, "case {case}: dense round-trip");
        let mut sparse2: SparseFleet = Checkpoint::restore(&dense.checkpoint()).unwrap();
        assert_eq!(
            sparse2.checkpoint(),
            bytes,
            "case {case}: sparse round-trip"
        );
        // Keep feeding all three — original, dense-restored,
        // sparse-restored — and they must stay in lockstep.
        let more = zipf_pairs(case ^ 0xdead, 1_500, 5_000, 1.1);
        sparse.insert_batch(&more);
        dense.insert_batch(&more);
        sparse2.insert_batch(&more);
        assert_lockstep(case, &sparse, &dense);
        assert_eq!(
            sparse.checkpoint(),
            sparse2.checkpoint(),
            "case {case}: restored sparse diverged"
        );
        // And the restored fleets match a reference that never stopped.
        let mut oracle = KeyedOracle::new(100_000, 4_000, seed);
        oracle.insert_pairs(&pairs);
        oracle.insert_pairs(&more);
        assert_matches_oracle(case, &sparse2, &oracle);
    }
}

#[test]
fn windowed_absorb_is_flavor_blind() {
    // A collector absorbing a sparse shard must land exactly the bytes
    // it would have landed absorbing the dense expansion of that shard —
    // including the tag-10 window checkpoint.
    for case in 0..3u64 {
        let pairs = zipf_pairs(case ^ 0x111d, 1_000, 8_000, 1.1);
        let seed = rng(case).next_u64();
        let mut shard_sparse: SparseFleet = SparseFleet::new(100_000, 4_000, seed).unwrap();
        let mut shard_dense: FleetArena = FleetArena::new(100_000, 4_000, seed).unwrap();
        shard_sparse.insert_batch(&pairs);
        shard_dense.insert_batch(&pairs);

        let mut via_sparse: WindowedFleet = WindowedFleet::new(100_000, 4_000, seed, 3).unwrap();
        let mut via_dense: WindowedFleet = WindowedFleet::new(100_000, 4_000, seed, 3).unwrap();
        assert!(via_sparse.absorb_epoch_sparse(0, &shard_sparse).unwrap());
        assert!(via_dense.absorb_epoch(0, &shard_dense).unwrap());
        assert_eq!(
            via_sparse.checkpoint(),
            via_dense.checkpoint(),
            "case {case}: tag-10 bytes"
        );
        // to_arena is the same bridge in one call.
        let mut via_bridge: WindowedFleet = WindowedFleet::new(100_000, 4_000, seed, 3).unwrap();
        assert!(via_bridge
            .absorb_epoch(0, &shard_sparse.to_arena())
            .unwrap());
        assert_eq!(
            via_bridge.checkpoint(),
            via_dense.checkpoint(),
            "case {case}"
        );
    }
}

#[test]
fn million_key_index_growth_is_bounded_and_panic_free() {
    // 1.1M distinct hashed keys through the batch router: the
    // open-addressed index must grow through many doublings without a
    // panic and keep probe chains bounded (the 7/8 load factor bounds
    // the expected chain; 64 is a generous hard ceiling), and the
    // class-0-dominated slab layout must stay a small fraction of the
    // dense arena's footprint.
    const KEYS: u64 = 1_100_000;
    let mut sparse: SparseFleet = SparseFleet::new(100_000, 4_000, 7).unwrap();
    let pairs: Vec<(u64, u64)> = distinct_items(0x1d, KEYS).zip(0u64..).collect();
    sparse.insert_batch(&pairs);
    assert_eq!(sparse.len(), KEYS as usize);
    assert!(
        sparse.index_max_probe() < 64,
        "probe chains blew up: {}",
        sparse.index_max_probe()
    );
    // One bit per key: everyone sits in the smallest class, and physical
    // storage is far below the 550+ MB the dense arena would pay.
    // `allocated_bytes` counts *capacity* (including Vec doubling slack
    // that never becomes resident), so the bound here is looser than the
    // 0.25x peak-RSS gate the bench asserts against the dense arena.
    assert_eq!(sparse.class_histogram()[0], KEYS as usize);
    assert!(
        sparse.allocated_bytes() < sparse.memory_bits() / 8 * 3 / 10,
        "sparse fleet lost its memory advantage: {} bytes for {} logical bits",
        sparse.allocated_bytes(),
        sparse.memory_bits()
    );
    // Keep feeding the same keys: lookups now hit the grown index; no
    // estimate may change except through real inserts.
    let before = sparse.estimate(pairs[0].0);
    sparse.insert_batch(&pairs); // duplicate items — all filtered
    assert_eq!(sparse.estimate(pairs[0].0), before, "duplicates leaked");
}
