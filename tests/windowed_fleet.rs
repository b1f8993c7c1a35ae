//! Property tests locking the sliding-window subsystem together:
//!
//! * the windowed fleet over epoch arenas must match a naive reference
//!   — one per-key oracle (`support/keyed_oracle.rs`: a standalone
//!   `SBitmap` per key) per epoch, window fill = popcount
//!   of the OR of the key's per-epoch bitmaps, estimate =
//!   `min(t(U), Σ t(Lₑ))` — **bit-for-bit** over seeded random streams,
//!   including epoch expiry and restore-from-checkpoint mid-window;
//! * batched windowed ingest must be bit-identical to a scalar feed
//!   even when a batch spans epoch boundaries on the count-driven
//!   clock;
//! * the v3 delta chains of any node shard count (1–4) and any round
//!   split, OR-absorbed into one ring, must reproduce the codec-free
//!   windowed reference (`run_windowed_pipeline`) bit for bit.
//!
//! This workspace builds offline, so instead of proptest these
//! properties run over deterministic randomized cases drawn from the
//! in-tree [`sbitmap::hash::rng`] generators: every case is
//! reproducible from its loop index, and a failure message names the
//! case that broke.

#[path = "support/keyed_oracle.rs"]
mod keyed_oracle;

use keyed_oracle::KeyedOracle;
use sbitmap::core::estimator;
use sbitmap::core::{AbsorbOutcome, FleetDeltaFrame};
use sbitmap::hash::rng::{Rng, SplitMix64};
use sbitmap::stream::{
    quantile_summary, run_windowed_pipeline, DeltaFrameSource, WindowedPipelineConfig,
};
use sbitmap::{Bitmap, Checkpoint, WindowedFleet};

/// Deterministic per-case RNG.
fn rng(case: u64) -> SplitMix64 {
    SplitMix64::new(0x51ed_e000_0000_0000 ^ case)
}

/// A seeded random `(key, item)` stream over a bounded key space, with
/// item repeats both within and across epochs (persistent flows).
fn stream(g: &mut SplitMix64, len: usize, key_space: u64, item_space: u64) -> Vec<(u64, u64)> {
    (0..len)
        .map(|_| (g.next_below(key_space), g.next_below(item_space)))
        .collect()
}

/// The naive reference over standalone per-epoch oracles (oldest
/// first): union fill and the `min(t(U), Σ t(Lₑ))` estimate.
fn reference(epochs: &[KeyedOracle], key: u64) -> Option<(usize, f64)> {
    let mut acc: Option<Bitmap> = None;
    let mut sum = 0.0;
    for fleet in epochs {
        if let Some(sketch) = fleet.sketch(key) {
            sum += estimator::estimate_from_fill(fleet.schedule().dims(), sketch.fill());
            match &mut acc {
                None => acc = Some(sketch.bitmap().clone()),
                Some(bits) => {
                    bits.union_or(sketch.bitmap()).unwrap();
                }
            }
        }
    }
    let bits = acc?;
    let fill = bits.count_ones();
    let dims = *epochs[0].schedule().dims();
    Some((fill, estimator::estimate_from_fill(&dims, fill).min(sum)))
}

const N_MAX: u64 = 100_000;
const M_BITS: usize = 4_000;

#[test]
fn windowed_fleet_matches_naive_reference_over_random_streams() {
    for case in 0..4u64 {
        let mut g = rng(case);
        let window = 2 + (case as usize % 3); // W ∈ {2, 3, 4}
        let epochs = window + 2 + case as usize; // always exercises expiry
        let mut w: WindowedFleet = WindowedFleet::new(N_MAX, M_BITS, 9, window).unwrap();
        let mut per_epoch: Vec<KeyedOracle> = Vec::new();
        for _ in 0..epochs {
            let pairs = stream(&mut g, 6_000, 6, 2_500);
            let mut naive = KeyedOracle::new(N_MAX, M_BITS, 9);
            w.insert_batch(&pairs);
            naive.insert_pairs(&pairs);
            assert_eq!(
                w.epoch_checkpoint(),
                naive.checkpoint(),
                "case {case}: open-epoch checkpoint bytes"
            );
            per_epoch.push(naive);
            w.rotate();
        }
        // After the final rotate the open epoch is empty; the live
        // window is the last `window − 1` closed epochs.
        let live = &per_epoch[epochs - (window - 1)..];
        for key in 0..6u64 {
            let expect = reference(live, key);
            assert_eq!(
                w.window_fill(key),
                expect.map(|(fill, _)| fill),
                "case {case}: union fill for key {key}"
            );
            assert_eq!(
                w.estimate(key),
                expect.map(|(_, est)| est),
                "case {case}: estimate for key {key}"
            );
        }
        // Expired epochs held state the window no longer reports.
        assert!(
            reference(&per_epoch[..epochs - (window - 1)], 0).is_some(),
            "case {case}: sanity — early epochs saw key 0"
        );
    }
}

#[test]
fn count_driven_batches_match_scalar_across_epoch_boundaries() {
    for case in 0..4u64 {
        let mut g = rng(case ^ 0xba7c);
        let budget = 700 + case * 350;
        let pairs = stream(&mut g, 12_000, 5, 3_000);
        let mut batched: WindowedFleet = WindowedFleet::new(N_MAX, M_BITS, 9, 3)
            .unwrap()
            .with_epoch_items(budget)
            .unwrap();
        let mut scalar = batched.clone();
        // Feed in uneven slices so epoch boundaries land mid-slice.
        let mut rest = pairs.as_slice();
        while !rest.is_empty() {
            let take = (1 + g.next_below(2_000) as usize).min(rest.len());
            batched.insert_batch(&rest[..take]);
            rest = &rest[take..];
        }
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
        }
        assert_eq!(
            batched.current_epoch(),
            scalar.current_epoch(),
            "case {case}"
        );
        assert_eq!(batched.estimates(), scalar.estimates(), "case {case}");
        assert_eq!(batched.checkpoint(), scalar.checkpoint(), "case {case}");
    }
}

#[test]
fn restore_mid_window_resumes_bit_identically() {
    for case in 0..3u64 {
        let mut g = rng(case ^ 0xc4e);
        let mut w: WindowedFleet = WindowedFleet::new(N_MAX, M_BITS, 9, 3)
            .unwrap()
            .with_epoch_items(2_000)
            .unwrap();
        w.insert_batch(&stream(&mut g, 7_000, 6, 2_000));
        // Checkpoint mid-window (open epoch partially filled), restore,
        // and continue both under more epochs than the window holds.
        let bytes = w.checkpoint();
        let mut restored: WindowedFleet = Checkpoint::restore(&bytes).unwrap();
        assert_eq!(restored.estimates(), w.estimates(), "case {case}");
        let more = stream(&mut g, 9_000, 6, 2_000);
        w.insert_batch(&more);
        restored.insert_batch(&more);
        assert_eq!(
            restored.current_epoch(),
            w.current_epoch(),
            "case {case}: clock resumed"
        );
        assert_eq!(restored.estimates(), w.estimates(), "case {case}");
        assert_eq!(restored.checkpoint(), w.checkpoint(), "case {case}");
    }
}

/// Cut every shard's v3 delta chain with `DeltaFrameSource` and
/// OR-absorb the chains into one ring in `(epoch, shard)` order: the
/// collector's ingest path without the network in between.
fn absorb_chains(cfg: &WindowedPipelineConfig) -> WindowedFleet {
    let chains: Vec<_> = (0..cfg.shards)
        .map(|shard| DeltaFrameSource::new(cfg, shard).unwrap().collect_epochs())
        .collect();
    let mut ring: WindowedFleet =
        WindowedFleet::new(cfg.n_max, cfg.m_bits, cfg.seed, cfg.window).unwrap();
    for epoch in 0..cfg.epochs {
        ring.advance_to(epoch as u64).unwrap();
        for (shard, chain) in chains.iter().enumerate() {
            let ef = &chain[epoch];
            assert_eq!(ef.epoch, epoch as u64);
            assert_eq!(ef.deltas.len(), cfg.rounds);
            for bytes in &ef.deltas {
                let frame = FleetDeltaFrame::decode(bytes).unwrap();
                let outcome = ring.absorb_delta_from(shard as u64, &frame).unwrap();
                assert_eq!(
                    outcome,
                    AbsorbOutcome::Absorbed,
                    "shard {shard} epoch {epoch}"
                );
            }
        }
    }
    ring
}

#[test]
fn windowed_collector_is_shard_count_invariant() {
    // However many shards cut the delta chains and however many rounds
    // each epoch is split into, the OR-absorbed chains reassemble the
    // codec-free `run_windowed_pipeline` reference bit for bit.
    for shards in 1..=4usize {
        for rounds in [1usize, 2, 3, 8] {
            let cfg = WindowedPipelineConfig {
                links: 12,
                shards,
                n_max: N_MAX,
                m_bits: M_BITS,
                window: 3,
                epochs: 5,
                rounds,
                seed: 7,
            };
            let case = format!("{shards} shards, {rounds} rounds");
            let reference = run_windowed_pipeline(&cfg).unwrap();
            let estimates = absorb_chains(&cfg).estimates();
            assert_eq!(estimates.len(), reference.links.len(), "{case}");
            for ((key, est), link) in estimates.iter().zip(&reference.links) {
                assert_eq!(*key as usize, link.link, "{case}");
                assert_eq!(
                    est.to_bits(),
                    link.estimate.to_bits(),
                    "{case}: link {}",
                    link.link
                );
            }
            let mut sample: Vec<f64> = estimates.iter().map(|&(_, e)| e).collect();
            assert_eq!(
                quantile_summary(&mut sample),
                reference.estimate_quantiles,
                "{case}"
            );
            // And the estimates stay honest against the window truth.
            assert!(
                reference.mean_abs_rel_err < 0.2,
                "{case}: mean |rel err| {}",
                reference.mean_abs_rel_err
            );
        }
    }
}

#[test]
fn windowed_checkpoint_restores_after_collector_absorbs() {
    // A central ring assembled from shard frames checkpoints and
    // restores like any other windowed fleet: run the pipeline twice
    // with the same seed and compare summaries (pure function of the
    // configuration).
    let cfg = WindowedPipelineConfig {
        links: 8,
        shards: 2,
        n_max: N_MAX,
        m_bits: M_BITS,
        window: 2,
        epochs: 4,
        rounds: 2,
        seed: 11,
    };
    let a = run_windowed_pipeline(&cfg).unwrap();
    let b = run_windowed_pipeline(&cfg).unwrap();
    for (ra, rb) in a.links.iter().zip(&b.links) {
        assert_eq!(ra.estimate, rb.estimate, "link {}", ra.link);
    }
    assert_eq!(a.estimate_quantiles, b.estimate_quantiles, "deterministic");
}
