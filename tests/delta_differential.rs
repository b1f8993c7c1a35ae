//! The v3 delta validator and the flat decoder built on it, held to the
//! tree decoder they replaced (`support/delta_oracle.rs`).
//!
//! Seeded random delta chains — sparse- and run-shaped records, tail
//! words of sub-word `m` — must decode to the same records as the
//! oracle and, OR-absorbed into a ring from the decoded frame or
//! straight from the validated wire bytes, land on the same checkpoint
//! bytes as the oracle's records absorbed as one full frame. Resealed
//! byte mutations and truncations of those chains must get the same
//! accept/reject verdict from the validator and both decoders; the wire
//! absorb must land on the frame absorb's checkpoint, and any frame the
//! ring refuses, live or on replay, must leave its checkpoint
//! byte-identical.

#[path = "support/delta_oracle.rs"]
mod delta_oracle;

use std::collections::BTreeMap;
use std::sync::Arc;

use sbitmap::core::codec::{self, CounterKind};
use sbitmap::core::{AbsorbOutcome, CheckedDelta, DeltaView, FleetDeltaFrame};
use sbitmap::hash::{mix64, xxh64};
use sbitmap::{Checkpoint, FleetArena, RateSchedule, WindowedFleet};

const SEED: u64 = 9;
const N_MAX: u64 = 20_000;

/// SplitMix-style deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn schedule(m: usize) -> Arc<RateSchedule> {
    RateSchedule::shared(N_MAX, m, RateSchedule::DEFAULT_SAMPLING_BITS).unwrap()
}

/// One epoch's round chain over `keys` keys: every round sets only bits
/// no earlier round set (the S-bitmap's only-set rule), at a per-record
/// density drawn from sparse-shaped to run-shaped. Round 0 carries a
/// record for every key; later rounds skip some unchanged keys and keep
/// others as empty records.
fn random_chain(
    rng: &mut Rng,
    m: usize,
    epoch: u64,
    keys: &[u64],
    rounds: u32,
) -> Vec<FleetDeltaFrame> {
    let sampling_bits = schedule(m).split().sampling_bits();
    let stride = m.div_ceil(64);
    let mut state: Vec<Vec<u64>> = vec![vec![0; stride]; keys.len()];
    let mut frames = Vec::new();
    for round in 0..rounds {
        let mut frame = FleetDeltaFrame::new(N_MAX, m, sampling_bits, SEED, epoch, round);
        for (i, &key) in keys.iter().enumerate() {
            // Per-mille chance each free bit turns on this round.
            let density = [0u64, 2, 20, 150, 600, 1000][rng.below(6) as usize];
            let mut delta = vec![0u64; stride];
            for bit in 0..m {
                let (w, b) = (bit / 64, 1u64 << (bit % 64));
                if state[i][w] & b == 0 && rng.below(1000) < density {
                    delta[w] |= b;
                }
            }
            let fresh = delta.iter().any(|&w| w != 0);
            if round == 0 || fresh || rng.below(4) == 0 {
                frame.push(key, &delta);
            }
            for (s, d) in state[i].iter_mut().zip(&delta) {
                *s |= d;
            }
        }
        frames.push(frame);
    }
    frames
}

/// The oracle side of the absorb: every record's bits OR-ed per key and
/// shipped as one full tag-9 frame into a fresh ring.
fn oracle_ring(m: usize, epoch: u64, frames: &[delta_oracle::Frame]) -> WindowedFleet {
    let stride = m.div_ceil(64);
    let mut union: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for frame in frames {
        for (key, image) in frame.images() {
            let words = union.entry(key).or_insert_with(|| vec![0; stride]);
            for (w, i) in words.iter_mut().zip(&image) {
                *w |= i;
            }
        }
    }
    let sampling_bits = schedule(m).split().sampling_bits();
    let mut payload = Vec::new();
    payload.extend_from_slice(&N_MAX.to_le_bytes());
    payload.extend_from_slice(&(m as u64).to_le_bytes());
    payload.extend_from_slice(&sampling_bits.to_le_bytes());
    payload.extend_from_slice(&SEED.to_le_bytes());
    payload.extend_from_slice(&(union.len() as u64).to_le_bytes());
    for (key, words) in &union {
        let fill: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&fill.to_le_bytes());
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
    }
    let fleet: FleetArena =
        Checkpoint::restore(&codec::frame(CounterKind::SketchFleet, &payload)).unwrap();
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule(m), SEED, 2).unwrap();
    ring.advance_to(epoch).unwrap();
    ring.absorb_epoch_from(1, epoch, &fleet).unwrap();
    ring
}

/// Tail-word shapes — sub-word, exact word, one bit into a word, wide —
/// and an `m` past 2^14, whose sparse gaps can take three varint bytes.
const MS: [usize; 6] = [63, 64, 130, 321, 2_000, 40_000];

#[test]
fn random_chains_decode_and_absorb_like_the_oracle() {
    let mut rng = Rng(0x5eed);
    for case in 0..40u64 {
        let m = MS[case as usize % MS.len()];
        let keys: Vec<u64> = (0..1 + rng.below(12))
            .map(|k| k * 7 + rng.below(7))
            .collect();
        let epoch = rng.below(3);
        let rounds = 1 + rng.below(4) as u32;
        let frames = random_chain(&mut rng, m, epoch, &keys, rounds);
        let mut decoded = Vec::new();
        let mut trees = Vec::new();
        let wire: Vec<Vec<u8>> = frames.iter().map(FleetDeltaFrame::encode).collect();
        for (frame, bytes) in frames.iter().zip(&wire) {
            let bytes = bytes.clone();
            let back = delta_oracle::decode_both(&bytes).unwrap();
            assert_eq!(&back, frame, "case {case}: decode(encode(f)) == f");
            assert_eq!(back.encode(), bytes, "case {case}: canonical re-encode");
            trees.push(delta_oracle::decode(&bytes).unwrap());
            decoded.push(back);
        }
        let expected = oracle_ring(m, epoch, &trees).checkpoint();

        // Live order, then every frame again as a duplicate.
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule(m), SEED, 2).unwrap();
        ring.advance_to(epoch).unwrap();
        for f in decoded.iter().chain(&decoded) {
            let _ = ring.absorb_delta_from(1, f).unwrap();
        }
        assert_eq!(ring.checkpoint(), expected, "case {case}: live absorb");

        // Replay order reversed (no baseline requirement).
        let mut replay: WindowedFleet = WindowedFleet::with_schedule(schedule(m), SEED, 2).unwrap();
        replay.advance_to(epoch).unwrap();
        for f in decoded.iter().rev() {
            assert_eq!(
                replay.absorb_delta_replay(1, f).unwrap(),
                AbsorbOutcome::Absorbed
            );
        }
        assert_eq!(replay.checkpoint(), expected, "case {case}: replay absorb");

        // The same two orders straight from the wire bytes, with the
        // sparse positions decoded as the views apply and carried from
        // validation.
        let checked: Vec<CheckedDelta> = wire
            .iter()
            .map(|b| CheckedDelta::new(b.clone()).unwrap())
            .collect();
        let plain = wire.iter().map(|b| DeltaView::validate(b).unwrap());
        let kept = checked.iter().map(CheckedDelta::view);
        for (how, views) in [
            ("plain", plain.collect::<Vec<_>>()),
            ("kept", kept.collect()),
        ] {
            let mut ring: WindowedFleet =
                WindowedFleet::with_schedule(schedule(m), SEED, 2).unwrap();
            ring.advance_to(epoch).unwrap();
            for v in views.iter().chain(&views) {
                let _ = ring.absorb_delta_view(1, v).unwrap();
            }
            assert_eq!(
                ring.checkpoint(),
                expected,
                "case {case}: live wire absorb ({how})"
            );
            let mut replay: WindowedFleet =
                WindowedFleet::with_schedule(schedule(m), SEED, 2).unwrap();
            replay.advance_to(epoch).unwrap();
            for v in views.iter().rev() {
                assert_eq!(
                    replay.absorb_delta_view_replay(1, v).unwrap(),
                    AbsorbOutcome::Absorbed
                );
            }
            assert_eq!(
                replay.checkpoint(),
                expected,
                "case {case}: replay wire absorb ({how})"
            );
        }
    }
}

/// Re-frame a mutated v3 body with a fresh checksum.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&xxh64(body, 0).to_le_bytes());
    out
}

/// Offer the accepted frame `bytes` (decoded: `frame`) to copies of
/// `ring` (whose checkpoint is `before`) on both absorb paths, from the
/// decoded frame and straight from the wire (positions decoded as the
/// view applies, or carried from validation in owned or borrowed
/// bytes): all must agree on the
/// outcome and land on the same checkpoint, and a refusal must leave it
/// byte-identical to `before`.
fn absorb_or_untouched(ring: &WindowedFleet, before: &[u8], bytes: &[u8], frame: &FleetDeltaFrame) {
    let checked = CheckedDelta::new(bytes.to_vec()).expect("decode accepted the frame");
    let borrowed =
        CheckedDelta::validate_into(bytes, &mut Vec::new()).expect("decode accepted the frame");
    let plain = DeltaView::validate(bytes).expect("decode accepted the frame");
    for (view, replay) in [plain, checked.view(), borrowed.view()]
        .into_iter()
        .flat_map(|v| [(v, false), (v, true)])
    {
        let (mut decoded, mut wire) = (ring.clone(), ring.clone());
        let (by_frame, by_view) = if replay {
            (
                decoded.absorb_delta_replay(1, frame),
                wire.absorb_delta_view_replay(1, &view),
            )
        } else {
            (
                decoded.absorb_delta_from(1, frame),
                wire.absorb_delta_view(1, &view),
            )
        };
        assert_eq!(
            by_frame.as_ref().ok(),
            by_view.as_ref().ok(),
            "frame and wire absorb outcomes diverged (replay {replay})"
        );
        let after = wire.checkpoint();
        assert_eq!(
            decoded.checkpoint(),
            after,
            "frame and wire absorb diverged (replay {replay})"
        );
        if by_view.is_err() {
            assert_eq!(
                after, before,
                "refused frame touched the ring (replay {replay})"
            );
        }
    }
}

/// A ring holding `frames[0]` (a baseline), so later rounds reach the
/// absorb, and its checkpoint.
fn baseline_ring(m: usize, frames: &[FleetDeltaFrame]) -> (WindowedFleet, Vec<u8>) {
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule(m), SEED, 2).unwrap();
    ring.advance_to(1).unwrap();
    ring.absorb_delta_from(1, &frames[0]).unwrap();
    let before = ring.checkpoint();
    (ring, before)
}

#[test]
fn hostile_chain_bytes_keep_verdicts_and_refusals_leave_the_ring_untouched() {
    let mut rng = Rng(0xbad5eed);
    let mut verdicts = [0usize; 2];
    for case in 0..10u64 {
        let m = MS[case as usize % MS.len()];
        let keys: Vec<u64> = (0..1 + rng.below(4)).map(|k| k * 3 + 1).collect();
        let frames = random_chain(&mut rng, m, 1, &keys, 3);
        let (ring, before) = baseline_ring(m, &frames);
        for frame in &frames {
            let bytes = frame.encode();
            let body = &bytes[..bytes.len() - 8];
            let mut offer = |evil: &[u8]| {
                let decoded = delta_oracle::decode_both(evil);
                verdicts[usize::from(decoded.is_ok())] += 1;
                if let Ok(f) = decoded {
                    absorb_or_untouched(&ring, &before, evil, &f);
                }
            };
            for i in 0..body.len() {
                let mut evil = body.to_vec();
                evil[i] ^= 1 << rng.below(8);
                offer(&reseal(&evil));
                let mut evil = body.to_vec();
                evil[i] = rng.next() as u8;
                offer(&reseal(&evil));
            }
            for cut in 0..body.len() {
                offer(&bytes[..cut]);
                offer(&reseal(&body[..cut]));
            }
        }
    }
    // Both verdicts are well represented (header mutations such as a
    // new key or seed still decode).
    assert!(verdicts[0] > 1_000 && verdicts[1] > 100, "{verdicts:?}");
}

#[test]
fn single_byte_mutations_resealed_keep_verdicts_and_wire_absorbs() {
    // Every byte of every frame, set to a handful of values and resealed
    // with a fresh XXH64, so the checksum never hides a body fault: the
    // validator, both decoders and both absorb paths must agree.
    let mut rng = Rng(0x0b17e);
    let mut verdicts = [0usize; 2];
    for (case, &m) in [63usize, 130, 2_000].iter().enumerate() {
        let keys: Vec<u64> = (0..3).map(|k| k * 5 + 2).collect();
        let frames = random_chain(&mut rng, m, 1, &keys, 3);
        let (ring, before) = baseline_ring(m, &frames);
        for frame in &frames {
            let bytes = frame.encode();
            let body = &bytes[..bytes.len() - 8];
            for i in 0..body.len() {
                let b = body[i];
                for v in [
                    0,
                    0xff,
                    b ^ 0x01,
                    b ^ 0x80,
                    b.wrapping_add(1),
                    b.wrapping_sub(1),
                ] {
                    if v == b {
                        continue;
                    }
                    let mut evil = body.to_vec();
                    evil[i] = v;
                    let evil = reseal(&evil);
                    let decoded = delta_oracle::decode_both(&evil);
                    verdicts[usize::from(decoded.is_ok())] += 1;
                    if let Ok(f) = decoded {
                        absorb_or_untouched(&ring, &before, &evil, &f);
                    }
                }
            }
        }
        assert!(verdicts[0] > 0, "case {case}: no mutation was refused");
    }
    assert!(verdicts[1] > 100, "{verdicts:?}");
}
