//! Hostile-input hardening for the checkpoint codec.
//!
//! A collector unframes bytes that crossed a network: every truncation,
//! every flipped bit, every lying length field must come back as a typed
//! [`sbitmap::core::SBitmapError`] — never a panic, never an
//! attacker-sized allocation. The sweeps are exhaustive over golden
//! frames of several checkpoint kinds (scalar sketch, sketch fleet —
//! authored by both the dense arena and the size-classed sparse fleet —
//! windowed fleet), plus a seeded pass that mutates payload bytes *and
//! repairs the trailing checksum*, so the payload validators themselves
//! face the hostile bytes instead of hiding behind the checksum.

use std::sync::Arc;

use sbitmap::core::codec::{self, peek_kind, CounterKind};
use sbitmap::hash::mix64;
use sbitmap::{Checkpoint, FleetArena, RateSchedule, SBitmap, SparseFleet, WindowedFleet};

#[path = "support/delta_oracle.rs"]
mod delta_oracle;

/// Golden frames: one valid v2 checkpoint per kind under test.
fn golden_frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut sketch = SBitmap::with_memory(10_000, 256, 42).unwrap();
    for i in 0..300u64 {
        use sbitmap::DistinctCounter;
        sketch.insert_u64(i);
    }

    let schedule = Arc::new(RateSchedule::from_memory(5_000, 300).unwrap());
    let mut fleet: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
    for key in [3u64, 11, 42] {
        fleet.touch(key);
        for item in 0..40u64 {
            fleet.insert_u64(key, key * 1_000 + item);
        }
    }

    let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule, 9, 2).unwrap();
    ring.absorb_epoch(0, &fleet).unwrap();
    ring.advance_to(1).unwrap();
    ring.absorb_epoch(1, &fleet).unwrap();

    // A sparse-authored fleet whose stride is wide enough for the full
    // size-class ladder (m = 4 000 → 2-word, 8-word and dense classes),
    // with keys pinned at different rungs: on the wire its frame is
    // indistinguishable from a dense arena's, so every sweep below runs
    // over a checkpoint that *came from* size-classed slab storage too.
    let mut sparse: SparseFleet = SparseFleet::new(5_000, 4_000, 9).unwrap();
    sparse.insert_u64(3, 1);
    for item in 0..6u64 {
        sparse.insert_u64(11, item);
    }
    for item in 0..5_000u64 {
        sparse.insert_u64(42, item);
    }

    vec![
        ("sbitmap", sketch.checkpoint()),
        ("sketch-fleet", fleet.checkpoint()),
        ("windowed-fleet", ring.checkpoint()),
        ("sparse-fleet", sparse.checkpoint()),
    ]
}

/// Feed `bytes` through the whole decode surface; every path must
/// return, not panic. Returns whether *any* path accepted the bytes.
fn decode_all(bytes: &[u8]) -> bool {
    let _ = peek_kind(bytes);
    let unframed = codec::unframe(bytes).is_ok();
    // The typed restores run their kind/payload validators even when
    // unframe succeeds (a repaired-checksum mutation can be framed
    // perfectly yet lie in every payload field).
    let a = <SBitmap as Checkpoint>::restore(bytes).is_ok();
    let b = <FleetArena as Checkpoint>::restore(bytes).is_ok();
    let c = <WindowedFleet as Checkpoint>::restore(bytes).is_ok();
    let d = <SparseFleet as Checkpoint>::restore(bytes).is_ok();
    // Sparse is a storage strategy, not a wire format: on every byte
    // string — golden, truncated, resealed, lying — both fleet flavors
    // must reach the same verdict, so each sweep in this file doubles
    // as a differential test of the sparse restore path.
    assert_eq!(b, d, "FleetArena / SparseFleet restore verdicts diverged");
    // The same bytes through the v3 delta decoder, held to the tree
    // oracle (a checkpoint is never a delta frame, on either side).
    let _ = delta_oracle::decode_both(bytes);
    unframed && (a || b || c || d)
}

#[test]
fn goldens_are_valid_to_begin_with() {
    for (name, bytes) in golden_frames() {
        assert!(decode_all(&bytes), "{name}: golden frame must decode");
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for (name, bytes) in golden_frames() {
        for cut in 0..bytes.len() {
            assert!(
                !decode_all(&bytes[..cut]),
                "{name}: truncation to {cut} of {} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_bit_flip_is_caught_by_the_checksum() {
    for (name, bytes) in golden_frames() {
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                assert!(
                    codec::unframe(&evil).is_err(),
                    "{name}: flipped bit {bit} of byte {i} passed the checksum"
                );
                // And the full restore path agrees (no panic either).
                let _ = <WindowedFleet as Checkpoint>::restore(&evil);
            }
        }
    }
}

/// Re-seal a mutated body with a fresh valid checksum, so the bytes
/// sail past `unframe` and hit the payload validators.
fn reseal(body_and_checksum: &[u8], mutate: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut evil = body_and_checksum[..body_and_checksum.len() - 8].to_vec();
    mutate(&mut evil);
    let checksum = sbitmap::hash::xxh64(&evil, 0);
    evil.extend_from_slice(&checksum.to_le_bytes());
    evil
}

#[test]
fn resealed_payload_mutations_never_panic() {
    // Seeded exhaustive-ish sweep: XOR a seed-derived byte into every
    // payload position, reseal, decode. The decoder may accept benign
    // mutations (e.g. a changed seed field) but must never panic and
    // must reject structural lies with typed errors.
    for (name, bytes) in golden_frames() {
        for i in 0..bytes.len() - 8 {
            let patch = (mix64(0xb0_5711 ^ i as u64) & 0xff) as u8;
            let patch = if patch == 0 { 0x5a } else { patch };
            let evil = reseal(&bytes, |body| body[i] ^= patch);
            let _ = decode_all(&evil); // must return, whatever the verdict
        }
        let _ = name;
    }
}

#[test]
fn oversized_declared_lengths_are_rejected_not_allocated() {
    // Every schedule-bearing payload opens with the same config header:
    // n_max u64 @6, m u64 @14, sampling_bits u32 @22, seed u64 @26,
    // then the first kind-specific length field @34 (scalar fill, fleet
    // record count, ring window span). Stamp all-ones over the fields
    // that drive allocations or loops; each lie must come back as a
    // typed error — `m` via the `MAX_WIRE_M` wire cap *before* the
    // O(m) schedule rebuild, the rest by bounds-checking against the
    // bytes actually present.
    for (name, bytes) in golden_frames() {
        for offset in [14usize, 34] {
            let evil = reseal(&bytes, |body| body[offset..offset + 8].fill(0xff));
            assert!(
                !decode_all(&evil),
                "{name}: all-ones length field at {offset} was accepted"
            );
        }
    }
    // And a half-plausible lie: m one past the wire cap, not 2^64-1.
    let (_, bytes) = &golden_frames()[1];
    let evil = reseal(bytes, |body| {
        let m = (sbitmap::core::codec::MAX_WIRE_M as u64 + 1).to_le_bytes();
        body[14..22].copy_from_slice(&m);
    });
    assert!(!decode_all(&evil), "m just above the wire cap was accepted");
    // The sparse restore derives its whole geometry — class specs, slab
    // extents, record sizes — from `m`, so the same wire cap must bounce
    // the lie before any of that is allocated.
    assert!(
        <SparseFleet as Checkpoint>::restore(&evil).is_err(),
        "sparse restore accepted m above the wire cap"
    );
}

/// Sketch-fleet payload offsets (the golden fleet has `m = 300`, stride
/// 5 words): record count @34, record 0 key @42, fill @50, words
/// @58..98, record 1 key @98. Each forged field must come back as a
/// typed error from *both* fleet flavors.
#[test]
fn sketch_fleet_payload_lies_are_rejected_by_both_flavors() {
    let (_, bytes) = &golden_frames()[1];
    let both_reject = |evil: &[u8], what: &str| {
        assert!(
            <FleetArena as Checkpoint>::restore(evil).is_err(),
            "dense restore accepted {what}"
        );
        assert!(
            <SparseFleet as Checkpoint>::restore(evil).is_err(),
            "sparse restore accepted {what}"
        );
    };
    // Record 1 claims record 0's key.
    let evil = reseal(bytes, |body| {
        let key0: [u8; 8] = body[42..50].try_into().unwrap();
        body[98..106].copy_from_slice(&key0);
    });
    both_reject(&evil, "a duplicate key");
    // A fill counter disagreeing with the bitmap popcount.
    let evil = reseal(bytes, |body| body[50] ^= 1);
    both_reject(&evil, "a fill/popcount mismatch");
    // A bit at position `m` in the tail word, with the fill counter
    // adjusted to match, so only the beyond-`m` validator can object.
    let evil = reseal(bytes, |body| {
        body[95] |= 0x10; // bit 300 of record 0's bitmap; m = 300
        let fill = u64::from_le_bytes(body[50..58].try_into().unwrap()) + 1;
        body[50..58].copy_from_slice(&fill.to_le_bytes());
    });
    both_reject(&evil, "a bit at m");
    // A record count smaller than the records present: the leftover
    // bytes are a typed trailing-garbage error, not silently dropped
    // fleet state.
    let evil = reseal(bytes, |body| {
        body[34..42].copy_from_slice(&2u64.to_le_bytes());
    });
    both_reject(&evil, "trailing records beyond the declared count");
}

#[test]
fn sketch_fleet_goldens_restore_into_both_flavors_byte_identically() {
    for (name, bytes) in golden_frames() {
        if peek_kind(&bytes).unwrap().1 != CounterKind::SketchFleet {
            continue;
        }
        let dense = <FleetArena as Checkpoint>::restore(&bytes).unwrap();
        let sparse = <SparseFleet as Checkpoint>::restore(&bytes).unwrap();
        assert_eq!(dense.checkpoint(), bytes, "{name}: dense round-trip");
        assert_eq!(sparse.checkpoint(), bytes, "{name}: sparse round-trip");
        assert_eq!(sparse.keys_sorted(), dense.keys_sorted(), "{name}: keys");
        for key in sparse.keys_sorted() {
            assert_eq!(
                sparse.estimate(key),
                dense.estimate(key),
                "{name}: estimate for key {key}"
            );
        }
    }
    // The sparse-authored golden spans the class ladder; restoring it
    // lands each record straight in its fill-appropriate class rather
    // than replaying the promotion history.
    let (_, bytes) = &golden_frames()[3];
    let sparse = <SparseFleet as Checkpoint>::restore(bytes).unwrap();
    assert!(sparse.class_count() > 1, "ladder collapsed to one class");
    let histogram = sparse.class_histogram();
    let occupied = histogram.iter().filter(|&&n| n > 0).count();
    assert!(
        occupied >= 2,
        "expected a spread across classes: {histogram:?}"
    );
    assert_eq!(
        sparse.class_of(42),
        Some(sparse.class_count() - 1),
        "the hot key belongs in the dense class"
    );
}

#[test]
fn foreign_magic_version_and_kind_are_typed_errors() {
    let (_, bytes) = &golden_frames()[0];
    // Wrong magic.
    let evil = reseal(bytes, |body| body[..4].copy_from_slice(b"EVIL"));
    assert!(codec::unframe(&evil).is_err(), "bad magic accepted");
    // Unknown version.
    let evil = reseal(bytes, |body| body[4] = 200);
    assert!(codec::unframe(&evil).is_err(), "unknown version accepted");
    // Unknown kind tag.
    let evil = reseal(bytes, |body| body[5] = 250);
    assert!(codec::unframe(&evil).is_err(), "unknown kind tag accepted");
    // Kind confusion: a valid fleet frame restored as a scalar sketch
    // must be a typed mismatch error, not UB or panic.
    let fleet_frame = &golden_frames()[1].1;
    assert_eq!(peek_kind(fleet_frame).unwrap().1, CounterKind::SketchFleet);
    assert!(<SBitmap as Checkpoint>::restore(fleet_frame).is_err());
}

#[test]
fn empty_and_tiny_inputs_are_typed_errors() {
    for n in 0..32usize {
        let zeros = vec![0u8; n];
        assert!(codec::unframe(&zeros).is_err(), "{n} zero bytes accepted");
        assert!(<WindowedFleet as Checkpoint>::restore(&zeros).is_err());
    }
}

// ---------------------------------------------------------------------
// v3 fleet-delta frames (tag 11)
// ---------------------------------------------------------------------
//
// The delta decoder faces the same adversary as the checkpoint decoders
// — plus geometry of its own: run starts/lengths, sparse position gaps,
// and the round chain. Every structural lie must be rejected *before*
// the O(m) work it would drive (the `MAX_WIRE_M` discipline), and a
// delta whose baseline was never absorbed must bounce off the receiver
// without touching the ring.

use sbitmap::core::{AbsorbOutcome, FleetDeltaFrame, SBitmapError};

/// `m = 130`: stride 3 with two live bits in the tail word, so the
/// sweeps cover the tail-mask branch of the run coder.
const DELTA_M: usize = 130;
const DELTA_STRIDE: usize = 3;

fn delta_schedule() -> Arc<RateSchedule> {
    Arc::new(RateSchedule::from_memory(2_000, DELTA_M).unwrap())
}

/// A frame with the schedule's configuration key at (epoch 4, round).
fn delta_frame(round: u32) -> FleetDeltaFrame {
    let schedule = delta_schedule();
    let dims = schedule.dims();
    FleetDeltaFrame::new(
        dims.n_max(),
        dims.m(),
        schedule.split().sampling_bits(),
        9,
        4,
        round,
    )
}

/// Golden v3 frames: a dense baseline (runs mode) and a sparse delta.
fn golden_delta_frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut baseline = delta_frame(0);
    // Dense enough that `from_delta_words` picks run coding, with a gap
    // word so two runs exist, plus an untouched key (empty record).
    baseline.push(3, &[0x00ff_ffff_ffff_ffff, 0, 0b11]);
    baseline.push(11, &[0, 0, 0]);
    let mut delta = delta_frame(1);
    // Sparse: a handful of scattered bits, varint-gap coded.
    delta.push(3, &[1 << 7, 1 << 3, 1]);
    delta.push(11, &[0b1001, 0, 0b10]);
    vec![("baseline", baseline.encode()), ("delta", delta.encode())]
}

#[test]
fn v3_goldens_roundtrip_to_begin_with() {
    for (name, bytes) in golden_delta_frames() {
        let (version, kind) = peek_kind(&bytes).unwrap();
        assert_eq!(version, 3, "{name}");
        assert_eq!(kind, CounterKind::FleetDelta, "{name}");
        let frame = delta_oracle::decode_both(&bytes).unwrap();
        assert_eq!(frame.encode(), bytes, "{name}: re-encode");
    }
}

#[test]
fn v3_every_truncation_is_a_typed_error() {
    for (name, bytes) in golden_delta_frames() {
        for cut in 0..bytes.len() {
            assert!(
                delta_oracle::decode_both(&bytes[..cut]).is_err(),
                "{name}: truncation to {cut} of {} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn v3_every_bit_flip_is_caught_by_the_checksum() {
    for (name, bytes) in golden_delta_frames() {
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                assert!(
                    delta_oracle::decode_both(&evil).is_err(),
                    "{name}: flipped bit {bit} of byte {i} decoded"
                );
            }
        }
    }
}

#[test]
fn v3_resealed_payload_mutations_never_panic() {
    for (name, bytes) in golden_delta_frames() {
        for i in 0..bytes.len() - 8 {
            let patch = (mix64(0xde17a ^ i as u64) & 0xff) as u8;
            let patch = if patch == 0 { 0x5a } else { patch };
            let evil = reseal(&bytes, |body| body[i] ^= patch);
            let _ = delta_oracle::decode_both(&evil); // must return
        }
        let _ = name;
    }
}

/// Payload byte offsets inside the framed bytes (6-byte header first):
/// `n_max` @6, `m` @14, `d` @22, `seed` @26, `epoch` @34, `round` @42,
/// `count` @46, first record key @54, bits @62, mode @66, body @67.
#[test]
fn v3_header_lies_are_rejected_before_any_om_work() {
    let (_, bytes) = &golden_delta_frames()[0];
    // m: all-ones, one past the wire cap, and zero — all refused by the
    // header guards before any stride math or allocation.
    for m_lie in [u64::MAX, sbitmap::core::codec::MAX_WIRE_M as u64 + 1, 0u64] {
        let evil = reseal(bytes, |body| {
            body[14..22].copy_from_slice(&m_lie.to_le_bytes())
        });
        assert!(
            delta_oracle::decode_both(&evil).is_err(),
            "m = {m_lie} accepted"
        );
    }
    // The reserved full-frame sentinel round.
    let evil = reseal(bytes, |body| body[42..46].fill(0xff));
    assert!(
        delta_oracle::decode_both(&evil).is_err(),
        "round u32::MAX accepted"
    );
    // A record count far beyond the bytes present: bounded against the
    // payload before the record vector is allocated.
    let evil = reseal(bytes, |body| body[46..54].fill(0xff));
    assert!(
        delta_oracle::decode_both(&evil).is_err(),
        "all-ones record count accepted"
    );
    // A forged run length (first record is runs-mode: run count @67,
    // first run start @71, len @75).
    let evil = reseal(bytes, |body| body[75..79].fill(0xff));
    assert!(
        delta_oracle::decode_both(&evil).is_err(),
        "all-ones run length accepted"
    );
    // A forged run count, bounded against the payload.
    let evil = reseal(bytes, |body| body[67..71].fill(0xff));
    assert!(
        delta_oracle::decode_both(&evil).is_err(),
        "all-ones run count accepted"
    );
    // An unknown body mode.
    let evil = reseal(bytes, |body| body[66] = 99);
    assert!(
        delta_oracle::decode_both(&evil).is_err(),
        "unknown body mode accepted"
    );
}

/// One hand-forged record body: `Runs` lists `(start, words)` with the
/// wire run length taken from `words.len()`; `Sparse` lists positions,
/// gap-coded exactly as the encoder would (a repeated position becomes
/// a zero gap).
enum ForgedBody<'a> {
    Runs(&'a [(u32, &'a [u64])]),
    Sparse(&'a [u32]),
}

/// The framed v3 bytes of a frame at [`delta_frame`]`(0)`'s header
/// whose records are written byte by byte: the encoder only emits
/// well-formed records, decode must refuse every lie on its own.
fn forged(records: &[(u64, u32, ForgedBody<'_>)]) -> Vec<u8> {
    let header = delta_frame(0).encode();
    // Magic, version, tag and the payload header up to the record
    // count (offsets as documented above `v3_header_lies_...`).
    let mut body = header[..46].to_vec();
    body.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (key, bits, rec) in records {
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(&bits.to_le_bytes());
        match rec {
            ForgedBody::Runs(runs) => {
                body.push(0);
                body.extend_from_slice(&(runs.len() as u32).to_le_bytes());
                for (start, words) in *runs {
                    body.extend_from_slice(&start.to_le_bytes());
                    body.extend_from_slice(&(words.len() as u32).to_le_bytes());
                    for w in *words {
                        body.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
            ForgedBody::Sparse(positions) => {
                body.push(1);
                let mut last = 0u32;
                for &pos in *positions {
                    let mut gap = pos - last;
                    last = pos;
                    while gap >= 0x80 {
                        body.push(gap as u8 | 0x80);
                        gap >>= 7;
                    }
                    body.push(gap as u8);
                }
            }
        }
    }
    let checksum = sbitmap::hash::xxh64(&body, 0);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

#[test]
fn v3_forged_run_geometry_is_rejected() {
    // The forger is faithful: well-formed records come out as the
    // encoder's own bytes.
    let mut honest = delta_frame(0);
    honest.push(3, &[0b1011, 0, 0]);
    honest.push(11, &[u64::MAX, u64::MAX, 0]);
    assert_eq!(
        forged(&[
            (3, 3, ForgedBody::Sparse(&[0, 1, 3])),
            (11, 128, ForgedBody::Runs(&[(0, &[u64::MAX, u64::MAX])])),
        ]),
        honest.encode()
    );

    // Overlapping runs.
    let bytes = forged(&[(3, 3, ForgedBody::Runs(&[(0, &[1, 1]), (1, &[1])]))]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "overlapping runs"
    );

    // An empty run.
    let bytes = forged(&[(3, 0, ForgedBody::Runs(&[(0, &[])]))]);
    assert!(delta_oracle::decode_both(&bytes).is_err(), "empty run");

    // A run extending past the stride.
    let bytes = forged(&[(
        3,
        2,
        ForgedBody::Runs(&[(DELTA_STRIDE as u32 - 1, &[1, 1])]),
    )]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "run past stride"
    );

    // A tail word setting bits at or beyond m (m = 130 leaves two live
    // bits in word 2; bit 2 of that word is bit 130 of the bitmap).
    let bytes = forged(&[(3, 1, ForgedBody::Runs(&[(2, &[0b100])]))]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "bit at m accepted"
    );

    // A bits header disagreeing with the run popcount.
    let bytes = forged(&[(3, 2, ForgedBody::Runs(&[(0, &[1])]))]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "bits lie accepted"
    );

    // bits > m outright.
    let bytes = forged(&[(3, DELTA_M as u32 + 1, ForgedBody::Sparse(&[0]))]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "bits > m accepted"
    );

    // A sparse position at m.
    let bytes = forged(&[(3, 1, ForgedBody::Sparse(&[DELTA_M as u32]))]);
    assert!(delta_oracle::decode_both(&bytes).is_err(), "position at m");

    // Duplicate sparse positions (gap 0 on the wire).
    let bytes = forged(&[(3, 2, ForgedBody::Sparse(&[5, 5]))]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "duplicate position"
    );

    // Non-ascending record keys.
    let bytes = forged(&[
        (9, 1, ForgedBody::Sparse(&[0])),
        (3, 1, ForgedBody::Sparse(&[0])),
    ]);
    assert!(
        delta_oracle::decode_both(&bytes).is_err(),
        "descending keys"
    );
}

#[test]
fn v3_version_kind_pairings_are_enforced() {
    let (_, bytes) = &golden_delta_frames()[0];
    // Fleet-delta under version 2: refused at the frame layer.
    let evil = reseal(bytes, |body| body[4] = 2);
    assert!(codec::unframe(&evil).is_err(), "v2 fleet-delta accepted");
    // A checkpoint kind under version 3: refused at the frame layer.
    let (_, checkpoint) = &golden_frames()[2];
    let evil = reseal(checkpoint, |body| body[4] = 3);
    assert!(
        codec::unframe(&evil).is_err(),
        "v3 checkpoint kind accepted"
    );
    // A valid v2 checkpoint fed to the delta decoder: typed mismatch.
    assert!(
        delta_oracle::decode_both(checkpoint).is_err(),
        "checkpoint decoded as a delta frame"
    );
}

#[test]
fn v3_delta_without_baseline_is_refused_before_touching_the_ring() {
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(delta_schedule(), 9, 2).unwrap();
    ring.advance_to(4).unwrap();
    let before = ring.checkpoint();

    let mut orphan = delta_frame(2);
    orphan.push(3, &[1, 0, 0]);
    match ring.absorb_delta_from(7, &orphan) {
        Err(SBitmapError::MissingBaseline { epoch: 4, round: 2 }) => {}
        other => panic!("expected MissingBaseline, got {other:?}"),
    }
    assert_eq!(
        ring.checkpoint(),
        before,
        "a refused delta must not touch the ring"
    );

    // After the baseline lands, the same frame is welcome — and the
    // refusal did not poison the (source, round) guard.
    let mut baseline = delta_frame(0);
    baseline.push(3, &[0, 0, 0]);
    assert_eq!(
        ring.absorb_delta_from(7, &baseline).unwrap(),
        AbsorbOutcome::Absorbed
    );
    assert_eq!(
        ring.absorb_delta_from(7, &orphan).unwrap(),
        AbsorbOutcome::Absorbed
    );
    assert_eq!(
        ring.absorb_delta_from(7, &orphan).unwrap(),
        AbsorbOutcome::Duplicate
    );
    assert_ne!(ring.checkpoint(), before, "the replayed delta landed");
}
