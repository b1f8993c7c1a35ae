//! Differential property tests for the runtime-dispatched kernel layer:
//! the AVX2 and scalar word kernels must be **bit-identical** on every
//! input shape, and everything built on top of them — bitmap unions,
//! fleet-arena absorbs, the fused sliding-window query — must produce
//! the same bits, counts, estimates and checkpoint bytes regardless of
//! which path the process dispatched to.
//!
//! Two layers of coverage:
//!
//! * **in-process**: [`WordKernels::scalar`] stays directly callable, so
//!   on an AVX2 host these tests compare the vector path against the
//!   scalar reference within one run;
//! * **cross-process**: CI runs the whole workspace suite a second time
//!   with `SBITMAP_FORCE_SCALAR=1`, which pins the dispatch to scalar —
//!   every golden-vector and bit-identity test then re-proves the
//!   scalar path end to end (checkpoint bytes in
//!   `tests/checkpoint_golden.rs` are the cross-path anchor).
//!
//! This workspace builds offline, so instead of proptest the properties
//! run over deterministic randomized cases drawn from the in-tree
//! [`sbitmap::hash::rng`] generators.

use sbitmap::bitvec::kernels::{popcount_bytes, WordKernels};
use sbitmap::hash::rng::{Rng, SplitMix64};
use sbitmap::hash::{Hasher64, SplitMix64Hasher};
use sbitmap::{Bitmap, DistinctCounter, FleetArena, SBitmap, WindowedFleet};

/// Deterministic per-case RNG.
fn rng(case: u64) -> SplitMix64 {
    SplitMix64::new(0x5e1f_ca5e_0000_0000 ^ case)
}

/// Seeded random word slices covering the shapes the kernels
/// special-case: empty, sub-vector lengths, vector multiples, odd
/// lengths with scalar tails, all-zeros, all-ones, sparse.
fn word_cases(case: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut g = rng(case);
    let mut out = Vec::new();
    for len in [
        0usize, 1, 2, 3, 4, 5, 7, 8, 12, 31, 63, 64, 65, 125, 127, 128, 200, 1023,
    ] {
        let dense_a: Vec<u64> = (0..len).map(|_| g.next_u64()).collect();
        let dense_b: Vec<u64> = (0..len).map(|_| g.next_u64()).collect();
        // Sparse: mostly-zero words, the realistic sketch shape.
        let sparse_a: Vec<u64> = (0..len)
            .map(|_| 1u64.checked_shl(g.next_u64() as u32 % 64).unwrap_or(0))
            .collect();
        let sparse_b: Vec<u64> = (0..len).map(|_| 0).collect();
        out.push((dense_a, dense_b));
        out.push((sparse_a, sparse_b));
        out.push((vec![0u64; len], vec![u64::MAX; len]));
        out.push((vec![u64::MAX; len], vec![u64::MAX; len]));
    }
    out
}

#[test]
fn word_kernels_scalar_and_dispatched_agree_on_random_slices() {
    let dispatched = WordKernels::dispatched();
    let scalar = WordKernels::scalar();
    for case in 0..8u64 {
        for (a, b) in word_cases(case) {
            assert_eq!(
                dispatched.popcount(&a),
                scalar.popcount(&a),
                "popcount case {case} len {}",
                a.len()
            );
            let (mut da, mut sa) = (a.clone(), a.clone());
            dispatched.or_into(&mut da, &b);
            scalar.or_into(&mut sa, &b);
            assert_eq!(da, sa, "or_into case {case} len {}", a.len());

            let (mut da, mut sa) = (a.clone(), a.clone());
            let dn = dispatched.union_or_count(&mut da, &b);
            let sn = scalar.union_or_count(&mut sa, &b);
            assert_eq!(
                (da, dn),
                (sa, sn),
                "union_or_count case {case} len {}",
                a.len()
            );

            let (mut da, mut sa) = (a.clone(), a.clone());
            let dp = dispatched.or_accumulate_popcount(&mut da, &b);
            let sp = scalar.or_accumulate_popcount(&mut sa, &b);
            assert_eq!(
                (da, dp),
                (sa, sp),
                "or_accumulate_popcount case {case} len {}",
                a.len()
            );
        }
    }
}

#[test]
fn byte_input_kernels_match_scalar_and_the_word_kernels() {
    // The v3 wire apply ORs delta runs straight from their little-endian
    // bytes, and validation popcounts them: both tables must agree with
    // each other and with the word kernels on the decoded words, at
    // every length (ragged byte tails included for the popcount).
    let dispatched = WordKernels::dispatched();
    let scalar = WordKernels::scalar();
    for case in 0..8u64 {
        for (a, b) in word_cases(case) {
            let bytes: Vec<u8> = b.iter().flat_map(|w| w.to_le_bytes()).collect();
            for cut in [0, 1, 7, 9, 31, 33]
                .into_iter()
                .filter(|&c| c <= bytes.len())
            {
                let ragged = &bytes[cut..];
                let per_byte: usize = ragged.iter().map(|x| x.count_ones() as usize).sum();
                assert_eq!(
                    popcount_bytes(ragged),
                    per_byte,
                    "popcount_bytes case {case} len {} cut {cut}",
                    b.len()
                );
            }
            assert_eq!(popcount_bytes(&bytes), scalar.popcount(&b));
            let (mut da, mut sa, mut wa) = (a.clone(), a.clone(), a.clone());
            let dn = dispatched.union_or_count_bytes(&mut da, &bytes);
            let sn = scalar.union_or_count_bytes(&mut sa, &bytes);
            let wn = scalar.union_or_count(&mut wa, &b);
            assert_eq!(
                (&da, dn),
                (&sa, sn),
                "union_or_count_bytes case {case} len {}",
                a.len()
            );
            assert_eq!((da, dn), (wa, wn), "bytes vs words case {case}");
        }
    }
}

/// One plain LEB128 gap at `at`: `(gap, next)`.
fn plain_gap(bytes: &[u8], mut at: usize) -> Option<(u32, usize)> {
    let (mut gap, mut shift) = (0u32, 0);
    loop {
        let b = *bytes.get(at)?;
        at += 1;
        gap |= u32::from(b & 0x7f) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            return Some((gap, at));
        }
    }
}

/// Decode `count` gaps from `bytes` the way the v3 sparse reader does:
/// the kernel in bulk, a plain LEB128 step wherever it stops.
fn positions_via(kernels: &WordKernels, bytes: &[u8], count: usize) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    let mut buf = [0u32; 72];
    let (mut at, mut pos) = (1usize, 0u32);
    while out.len() < count {
        let limit = (count - out.len()).min(64);
        let (n, next) = kernels.varint_positions(bytes, at, pos, &mut buf, limit);
        if n > 0 {
            out.extend_from_slice(&buf[..n]);
            pos = buf[n - 1];
            at = next;
            continue;
        }
        let (gap, next) = plain_gap(bytes, at)?;
        pos += gap;
        at = next;
        out.push(pos);
    }
    Some(out)
}

/// A sparse-body-shaped byte string behind a one-byte stand-in for the
/// record head: `count` gaps of one and two bytes mixed at random,
/// salted with three-byte and over-long varints (and a zero first gap
/// when `zero_first`), then another record's bytes. Returns the bytes
/// and the running positions.
fn sparse_body(g: &mut SplitMix64, count: usize, zero_first: bool) -> (Vec<u8>, Vec<u32>) {
    let mut bytes = vec![0xff];
    let mut expect = Vec::new();
    let mut pos = 0u32;
    for i in 0..count {
        let roll = g.next_u64() % 100;
        let gap = match roll {
            _ if i == 0 && zero_first => 0,
            1 => 20_000 + (g.next_u64() % 1_000) as u32,
            _ if roll < 80 => 1 + (g.next_u64() % 127) as u32,
            _ => 128 + (g.next_u64() % 16_000) as u32,
        };
        if roll == 2 && gap < 128 {
            // Over-long: a one-byte value in two bytes.
            bytes.extend_from_slice(&[gap as u8 | 0x80, 0]);
        } else {
            let mut v = gap;
            while v >= 0x80 {
                bytes.push(v as u8 | 0x80);
                v >>= 7;
            }
            bytes.push(v as u8);
        }
        pos += gap;
        expect.push(pos);
    }
    bytes.extend((0..g.next_u64() % 40).map(|_| g.next_u64() as u8));
    (bytes, expect)
}

#[test]
fn varint_kernel_decodes_like_a_plain_reader() {
    // Both tables must decode every body to the plain reader's
    // positions, three-byte varints handed back to the plain reader.
    // The kernel judges nothing: zero gaps decode like any other, for
    // the validator to refuse.
    let dispatched = WordKernels::dispatched();
    let scalar = WordKernels::scalar();
    for case in 0..60u64 {
        let mut g = rng(0x7a21 ^ case);
        let count = (g.next_u64() % 300) as usize;
        let (bytes, expect) = sparse_body(&mut g, count, case % 3 == 0);
        for k in [dispatched, scalar] {
            assert_eq!(
                positions_via(k, &bytes, count).as_deref(),
                Some(&expect[..]),
                "{} case {case}",
                k.name()
            );
        }
    }
    let mut zeroed = vec![0xff, 0];
    zeroed.extend_from_slice(&[5; 40]);
    zeroed.push(0);
    zeroed.extend_from_slice(&[3; 40]);
    let expect: Vec<u32> = std::iter::once(0)
        .chain((1..=40).map(|i| 5 * i))
        .chain(std::iter::once(200))
        .chain((1..=40).map(|i| 200 + 3 * i))
        .collect();
    for k in [dispatched, scalar] {
        assert_eq!(
            positions_via(k, &zeroed, 82).as_deref(),
            Some(&expect[..]),
            "{}",
            k.name()
        );
    }
}

#[test]
fn gather_kernel_matches_scalar_and_chained_ors_at_every_source_count() {
    // 0..=10 sources covers every arm of the scalar pairing loop (the
    // `while srcs.len() > 2` reduction plus the 0/1/2-source endings)
    // and the AVX2 dynamic source loop, on both overwrite modes.
    let dispatched = WordKernels::dispatched();
    let scalar = WordKernels::scalar();
    for case in 0..4u64 {
        let mut g = rng(0x006a_74e7 ^ case);
        for len in [0usize, 1, 3, 4, 5, 64, 125, 1000] {
            let sources: Vec<Vec<u64>> = (0..10)
                .map(|_| (0..len).map(|_| g.next_u64() & g.next_u64()).collect())
                .collect();
            let base: Vec<u64> = (0..len).map(|_| g.next_u64() & g.next_u64()).collect();
            for n in 0..=sources.len() {
                let srcs: Vec<&[u64]> = sources[..n].iter().map(Vec::as_slice).collect();
                for overwrite in [true, false] {
                    if overwrite && n == 0 {
                        continue; // rejected by the wrapper
                    }
                    let (mut da, mut sa) = (base.clone(), base.clone());
                    let dp = dispatched.or_gather_popcount(&mut da, &srcs, overwrite);
                    let sp = scalar.or_gather_popcount(&mut sa, &srcs, overwrite);
                    assert_eq!(
                        (&da, dp),
                        (&sa, sp),
                        "case {case} len {len} srcs {n} overwrite {overwrite}"
                    );
                    // First principles: the gather must equal chained
                    // two-operand ORs plus a popcount.
                    let mut reference = if overwrite {
                        vec![0u64; len]
                    } else {
                        base.clone()
                    };
                    for s in &srcs {
                        scalar.or_into(&mut reference, s);
                    }
                    assert_eq!(da, reference, "case {case} len {len} srcs {n}");
                    assert_eq!(dp, scalar.popcount(&reference));
                }
            }
        }
    }
}

#[test]
fn batch_hashing_matches_the_scalar_reference_on_random_streams() {
    for case in 0..6u64 {
        let mut g = rng(0xbeef ^ case);
        let h = SplitMix64Hasher::new(g.next_u64());
        let n = 1 + (g.next_u64() % 2_000) as usize; // odd lengths, tails
        let items: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        let mut dispatched = vec![0u64; n];
        let mut scalar = vec![0u64; n];
        h.hash_u64_batch(&items, &mut dispatched);
        h.hash_u64_batch_scalar(&items, &mut scalar);
        assert_eq!(dispatched, scalar, "case {case} len {n}");
        for (i, (&x, &got)) in items.iter().zip(&dispatched).enumerate() {
            assert_eq!(got, h.hash_u64(x), "case {case} lane {i}");
        }
    }
}

#[test]
fn bitmap_union_and_popcount_ride_the_kernels_consistently() {
    for case in 0..4u64 {
        let mut g = rng(0xb17 ^ case);
        let bits = 64 + (g.next_u64() % 9_000) as usize;
        let mut a = Bitmap::new(bits);
        let mut b = Bitmap::new(bits);
        let mut reference = vec![false; bits];
        for _ in 0..bits / 2 {
            let i = (g.next_u64() % bits as u64) as usize;
            let j = (g.next_u64() % bits as u64) as usize;
            a.set(i);
            b.set(j);
            reference[i] = true;
            reference[j] = true;
        }
        let before = a.count_ones();
        let newly = a.union_or(&b).unwrap();
        let expect: usize = reference.iter().filter(|&&x| x).count();
        assert_eq!(a.count_ones(), expect, "case {case}");
        assert_eq!(before + newly, expect, "case {case}");
        assert_eq!(
            WordKernels::scalar().popcount(a.words()),
            expect,
            "case {case}: scalar recount"
        );
    }
}

#[test]
fn batched_sbitmap_ingest_stays_bit_identical_to_scalar_inserts() {
    // End-to-end: the batched path runs the dispatched hash kernel and
    // the branchless probe; the scalar path hashes item-at-a-time. Same
    // bits, same fill, whatever the dispatch picked.
    for case in 0..3u64 {
        let mut g = rng(0x5b17 ^ case);
        let seed = g.next_u64();
        let mut batched = SBitmap::with_memory(1 << 20, 4_000, seed).unwrap();
        let mut scalar = SBitmap::with_memory(1 << 20, 4_000, seed).unwrap();
        let items: Vec<u64> = (0..20_003).map(|_| g.next_u64() % 30_000).collect();
        for &i in &items {
            scalar.insert_u64(i);
        }
        batched.insert_u64s(&items);
        assert_eq!(batched.fill(), scalar.fill(), "case {case}");
        assert_eq!(batched.bitmap(), scalar.bitmap(), "case {case}");
    }
}

#[test]
fn fused_window_queries_match_the_naive_reference_on_random_streams() {
    // The tentpole property: the fused single-pass window query (copy +
    // OR + fused popcount on the dispatched kernels, with the
    // single-epoch shortcut) returns exactly what the naive three-pass
    // reference returns, for every key, across rotations and expiry.
    for case in 0..4u64 {
        let mut g = rng(0xf05e_d00e ^ case);
        // Case 3 pins a 12-epoch window with a budget small enough that
        // keys go live in more than GATHER = 8 epochs, so the fused
        // query's second gather flush (overwrite = false) is exercised
        // against the naive reference, not just the single-flush shape.
        let window = if case == 3 {
            12
        } else {
            2 + (g.next_u64() % 4) as usize
        };
        let budget = if case == 3 {
            600
        } else {
            1 + g.next_u64() % 3_000
        };
        let mut fleet: WindowedFleet = WindowedFleet::new(100_000, 4_000, g.next_u64(), window)
            .unwrap()
            .with_epoch_items(budget)
            .unwrap();
        let pairs: Vec<(u64, u64)> = (0..15_000)
            .map(|_| (g.next_u64() % 9, g.next_u64() % 4_000))
            .collect();
        fleet.insert_batch(&pairs);
        if case == 3 {
            // 15000 items / 600 per epoch = 25 epochs; with the keys
            // uniform over 0..9 every key is live in all 12 of the ring.
            let live = fleet
                .window_epochs()
                .min(fleet.current_epoch() as usize + 1);
            assert!(live > 8, "case 3 must exceed one gather batch, got {live}");
        }
        for key in 0..10u64 {
            assert_eq!(
                fleet.window_fill(key),
                fleet.window_fill_naive(key),
                "case {case} fill key {key}"
            );
            assert_eq!(
                fleet.estimate(key),
                fleet.estimate_naive(key),
                "case {case} estimate key {key}"
            );
        }
        // The estimates sweep (what `bench-window` times) agrees with a
        // naive per-key sweep.
        let fused = fleet.estimates();
        let naive: Vec<(u64, f64)> = fleet
            .keys_sorted()
            .into_iter()
            .map(|k| (k, fleet.estimate_naive(k).unwrap()))
            .collect();
        assert_eq!(fused, naive, "case {case} sweep");
    }
}

#[test]
fn arena_union_through_kernels_preserves_checkpoint_bytes() {
    // The collector's windowed absorb path now runs union_or_count:
    // unioning two disjoint-key arenas must equal the arena a single
    // node would have built, checkpoint bytes included.
    for case in 0..3u64 {
        let mut g = rng(0x0ab5_012b ^ case);
        let seed = g.next_u64();
        let mut a: FleetArena = FleetArena::new(100_000, 4_000, seed).unwrap();
        let mut b: FleetArena = FleetArena::new(100_000, 4_000, seed).unwrap();
        let mut whole: FleetArena = FleetArena::new(100_000, 4_000, seed).unwrap();
        for _ in 0..12_000 {
            let key = g.next_u64() % 8;
            let item = g.next_u64() % 2_500;
            if key.is_multiple_of(2) {
                a.insert_u64(key, item);
            } else {
                b.insert_u64(key, item);
            }
            whole.insert_u64(key, item);
        }
        use sbitmap::Checkpoint;
        a.union_from(&b).unwrap();
        assert_eq!(a.checkpoint(), whole.checkpoint(), "case {case}");
    }
}
