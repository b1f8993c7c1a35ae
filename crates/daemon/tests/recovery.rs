//! Hostile recovery inputs: hand-crafted data directories fed to
//! [`Daemon::start`], proving that a truncated tail, a bit-flipped
//! record, a resealed record, a config-mismatched journal or snapshot,
//! and a pre-snapshot record are each rejected or skipped with the ring
//! provably untouched — the recovered state always equals a clean ring
//! that absorbed exactly the surviving records. The reference rings
//! replay record by record, so they also pin the daemon's two-stage
//! (validate ahead, apply in order) replay to sequential outcomes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sbitmap_core::codec::Checkpoint;
use sbitmap_core::journal::{self, JournalConfig, JournalRecord, JournalWriter};
use sbitmap_core::{
    AbsorbOutcome, DeltaView, FleetArena, FleetDeltaFrame, RateSchedule, WindowedFleet,
};
use sbitmap_daemon::{Daemon, DaemonConfig, DaemonReport};

const N_MAX: u64 = 50_000;
const M_BITS: usize = 2_000;
const SEED: u64 = 7;
const WINDOW: usize = 3;

fn schedule() -> Arc<RateSchedule> {
    Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).unwrap())
}

fn jcfg() -> JournalConfig {
    JournalConfig {
        n_max: N_MAX,
        m: M_BITS as u64,
        sampling_bits: schedule().split().sampling_bits(),
        seed: SEED,
        window: WINDOW as u64,
    }
}

fn dcfg(dir: &std::path::Path) -> DaemonConfig {
    DaemonConfig {
        n_max: N_MAX,
        m_bits: M_BITS,
        seed: SEED,
        window: WINDOW,
        data_dir: Some(dir.to_path_buf()),
        read_deadline: Duration::from_millis(10),
        ..DaemonConfig::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbitmapd-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tag-9 fleet frame touching `key` with a deterministic item set.
fn frame(key: u64) -> Vec<u8> {
    let mut fleet: FleetArena = FleetArena::with_schedule(schedule(), SEED);
    fleet.touch(key);
    for item in 0..60u64 {
        fleet.insert_u64(key, key.wrapping_mul(1_000) + item);
    }
    fleet.checkpoint()
}

fn record(source: u64, epoch: u64, payload: Vec<u8>) -> JournalRecord {
    JournalRecord {
        source,
        epoch,
        payload,
    }
}

/// Start a daemon on `dir`, wait out recovery, drain, and return the
/// report (estimates + final checkpoint + replay counters).
fn recover(dir: &std::path::Path) -> DaemonReport {
    let daemon = Daemon::start(dcfg(dir)).unwrap();
    while daemon.is_recovering() {
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.drain();
    daemon.join().unwrap()
}

/// The ring a clean collector holds after absorbing exactly `records`.
fn expected_ring(records: &[(u64, u64, &[u8])]) -> WindowedFleet {
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule(), SEED, WINDOW).unwrap();
    for &(source, epoch, payload) in records {
        let fleet: FleetArena = Checkpoint::restore(payload).unwrap();
        if epoch > ring.current_epoch() {
            ring.advance_to(epoch).unwrap();
        }
        ring.absorb_epoch_from(source, epoch, &fleet).unwrap();
    }
    ring
}

#[test]
fn truncated_tail_is_discarded_and_the_prefix_replays() {
    let dir = scratch_dir("torn");
    let (f1, f2, f3) = (frame(1), frame(2), frame(3));
    {
        let mut w = JournalWriter::create(&dir, &jcfg(), 0, 1, false).unwrap();
        w.append(&record(1, 0, f1.clone())).unwrap();
        w.append(&record(2, 0, f2.clone())).unwrap();
        // Half a record: the torn tail a crash mid-append leaves.
        let torn = journal::encode_record(&record(1, 1, f3.clone()));
        w.append_bytes(&torn[..torn.len() / 2]).unwrap();
    }
    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, 2);
    assert_eq!(report.replay_skipped, 0, "a torn tail is not a record");
    let expected = expected_ring(&[(1, 0, &f1), (2, 0, &f2)]);
    assert_eq!(report.estimates, expected.estimates());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn bit_flipped_record_stops_the_scan_with_the_prefix_intact() {
    let dir = scratch_dir("flip");
    let (f1, f2, f3) = (frame(4), frame(5), frame(6));
    {
        let mut w = JournalWriter::create(&dir, &jcfg(), 0, 1, false).unwrap();
        w.append(&record(1, 0, f1.clone())).unwrap();
        // Flip one byte inside the second record's encoding: its outer
        // checksum fails, and nothing after it can be trusted.
        let mut bytes = journal::encode_record(&record(1, 0, f2.clone()));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        w.append_bytes(&bytes).unwrap();
        w.append(&record(1, 0, f3.clone())).unwrap();
    }
    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, 1, "only the clean prefix replays");
    let expected = expected_ring(&[(1, 0, &f1)]);
    assert_eq!(report.estimates, expected.estimates());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn resealed_record_is_skipped_and_later_records_still_replay() {
    let dir = scratch_dir("reseal");
    let (f1, f3) = (frame(7), frame(9));
    // The reseal attack: corrupt the sketch payload, then wrap it in a
    // *valid* record envelope (outer checksum computed over the corrupt
    // bytes). The record layer cannot catch it — the payload's own
    // frame checksum must.
    let mut evil = frame(8);
    let mid = evil.len() / 2;
    evil[mid] ^= 0x11;
    {
        let mut w = JournalWriter::create(&dir, &jcfg(), 0, 1, false).unwrap();
        w.append(&record(1, 0, f1.clone())).unwrap();
        w.append(&record(2, 0, evil)).unwrap();
        w.append(&record(3, 0, f3.clone())).unwrap();
    }
    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, 2, "the records around it replay");
    assert_eq!(report.replay_skipped, 1, "the resealed record is skipped");
    let expected = expected_ring(&[(1, 0, &f1), (3, 0, &f3)]);
    assert_eq!(report.estimates, expected.estimates());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn config_mismatched_journal_refuses_startup_with_a_typed_error() {
    let dir = scratch_dir("jcfg");
    let foreign = JournalConfig {
        seed: SEED ^ 1,
        ..jcfg()
    };
    {
        let mut w = JournalWriter::create(&dir, &foreign, 0, 1, false).unwrap();
        w.append(&record(1, 0, frame(1))).unwrap();
        // A second segment so the mismatch is not excused as a torn
        // final header.
        JournalWriter::create(&dir, &foreign, 1, 1, false).unwrap();
    }
    let err = Daemon::start(dcfg(&dir))
        .err()
        .expect("startup must refuse a mismatched journal");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        err.contains("config mismatch"),
        "the refusal must name the mismatch: {err}"
    );
}

#[test]
fn config_mismatched_snapshot_refuses_startup_with_a_typed_error() {
    let dir = scratch_dir("scfg");
    let foreign: WindowedFleet =
        WindowedFleet::with_schedule(schedule(), SEED ^ 1, WINDOW).unwrap();
    journal::write_atomic(&dir.join(journal::SNAPSHOT_FILE), &foreign.checkpoint()).unwrap();
    let err = Daemon::start(dcfg(&dir))
        .err()
        .expect("startup must refuse a mismatched snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        err.contains("config mismatch"),
        "the refusal must name the mismatch: {err}"
    );
}

#[test]
fn record_older_than_the_snapshot_is_skipped_untouched() {
    let dir = scratch_dir("stale");
    // Snapshot holds a ring already advanced to epoch 10 (window 3, so
    // live epochs are 8..=10); a journal record for epoch 0 is ancient
    // history the ring must refuse to resurrect.
    let f1 = frame(11);
    let snapshot = expected_ring(&[(1, 10, &f1)]);
    journal::write_atomic(&dir.join(journal::SNAPSHOT_FILE), &snapshot.checkpoint()).unwrap();
    {
        let mut w = JournalWriter::create(&dir, &jcfg(), 0, 1, false).unwrap();
        w.append(&record(2, 0, frame(12))).unwrap();
    }
    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(
        report.replay_skipped, 1,
        "the stale record expires as a skip"
    );
    assert_eq!(report.estimates, snapshot.estimates());
    assert_eq!(report.final_checkpoint, snapshot.checkpoint());
}

/// One epoch's v3 round chain for `keys`, encoded.
fn delta_chain(keys: &[u64], epoch: u64, rounds: u32) -> Vec<Vec<u8>> {
    let schedule = schedule();
    let mut arena: FleetArena = FleetArena::with_schedule(schedule.clone(), SEED);
    let stride = M_BITS.div_ceil(64);
    let mut prev = vec![vec![0u64; stride]; keys.len()];
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut frame = FleetDeltaFrame::new(
            N_MAX,
            M_BITS,
            schedule.split().sampling_bits(),
            SEED,
            epoch,
            round,
        );
        for (i, &key) in keys.iter().enumerate() {
            arena.touch(key);
            for item in 0..(40 + 30 * u64::from(round)) {
                arena.insert_u64(key, key * 100_000 + u64::from(round) * 1_000 + item);
            }
            let words = arena.slot_words(key).unwrap();
            let delta: Vec<u64> = words.iter().zip(&prev[i]).map(|(w, p)| w ^ p).collect();
            frame.push(key, &delta);
            prev[i].copy_from_slice(words);
        }
        out.push(frame.encode());
    }
    out
}

#[test]
fn resealed_delta_records_are_skipped_with_the_ring_untouched() {
    let dir = scratch_dir("delta-reseal");
    let chain = delta_chain(&[2, 5, 9], 0, 3);
    // Every payload byte of the last round, mutated and resealed with a
    // valid inner checksum, so each reaches the delta decoder (most are
    // refused there, a few — a changed key, say — decode and absorb).
    let last = &chain[2];
    let body = &last[..last.len() - 8];
    let mut records = vec![
        record(1, 0, chain[0].clone()),
        record(1, 0, chain[1].clone()),
    ];
    for i in 0..body.len() {
        let mut evil = body.to_vec();
        evil[i] ^= 0x24;
        let checksum = sbitmap_hash::xxh64(&evil, 0);
        evil.extend_from_slice(&checksum.to_le_bytes());
        records.push(record(2, 0, evil));
    }
    records.push(record(1, 0, last.clone()));
    {
        let mut w = JournalWriter::create(&dir, &jcfg(), 0, 1, false).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
    }
    // The reference replays record by record as recovery does, and
    // checks that every refused record left the ring byte-identical.
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule(), SEED, WINDOW).unwrap();
    let (mut replayed, mut skipped) = (0u64, 0u64);
    for rec in &records {
        let before = ring.checkpoint();
        let absorbed = FleetDeltaFrame::decode(&rec.payload)
            .ok()
            .filter(|f| f.epoch == rec.epoch)
            .map(|f| ring.absorb_delta_replay(rec.source, &f));
        if let Some(Ok(AbsorbOutcome::Absorbed)) = absorbed {
            replayed += 1;
        } else {
            skipped += 1;
            assert_eq!(
                ring.checkpoint(),
                before,
                "a skipped record touched the ring"
            );
        }
    }
    assert!(skipped > records.len() as u64 / 2, "{skipped} skipped");

    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, replayed);
    assert_eq!(report.replay_skipped, skipped);
    assert_eq!(report.final_checkpoint, ring.checkpoint());
}

/// The forward epoch jump recovery refuses (the daemon's
/// `MAX_EPOCH_JUMP`).
const MAX_EPOCH_JUMP: u64 = 1 << 20;

/// `frame` with one body byte mutated (the first, from `from` on, that
/// validation refuses) and the inner checksum recomputed over it, so
/// only the delta validator can catch it.
fn resealed(frame: &[u8], from: usize) -> Vec<u8> {
    let body = &frame[..frame.len() - 8];
    (from..body.len())
        .map(|i| {
            let mut evil = body.to_vec();
            evil[i] ^= 0x24;
            let checksum = sbitmap_hash::xxh64(&evil, 0);
            evil.extend_from_slice(&checksum.to_le_bytes());
            evil
        })
        .find(|evil| DeltaView::validate(evil).is_err())
        .expect("some mutation is refused")
}

/// Write each segment of `segments` as its own journal file, in order.
fn write_segments(dir: &std::path::Path, segments: &[Vec<JournalRecord>]) {
    for (seq, records) in segments.iter().enumerate() {
        let mut w = JournalWriter::create(dir, &jcfg(), seq as u64, 1, false).unwrap();
        for rec in records {
            w.append(rec).unwrap();
        }
    }
}

/// Replay `records` into `ring` one at a time over the public APIs, the
/// way sequential recovery does, checking that every skipped record
/// left the ring byte-identical. Returns `(replayed, skipped)`.
fn replay_sequentially(ring: &mut WindowedFleet, records: &[&JournalRecord]) -> (u64, u64) {
    let (mut replayed, mut skipped) = (0u64, 0u64);
    let mut positions = Vec::new();
    for rec in records {
        let before = ring.checkpoint();
        let advance = |ring: &mut WindowedFleet| {
            let current = ring.current_epoch();
            rec.epoch <= current
                || (rec.epoch - current <= MAX_EPOCH_JUMP && ring.advance_to(rec.epoch).is_ok())
        };
        let outcome = if let Ok(view) = DeltaView::validate_into(&rec.payload, &mut positions) {
            (view.header().epoch == rec.epoch && advance(ring))
                .then(|| ring.absorb_delta_view_replay(rec.source, &view))
        } else if let Ok(fleet) = <FleetArena as Checkpoint>::restore(&rec.payload) {
            advance(ring).then(|| ring.absorb_epoch_from(rec.source, rec.epoch, &fleet))
        } else {
            None
        };
        if let Some(Ok(AbsorbOutcome::Absorbed)) = outcome {
            replayed += 1;
        } else {
            skipped += 1;
            assert_eq!(
                ring.checkpoint(),
                before,
                "a skipped record touched the ring"
            );
        }
    }
    (replayed, skipped)
}

#[test]
fn two_stage_replay_matches_sequential_replay_across_segments() {
    let dir = scratch_dir("pipeline");
    // The snapshot ring sits at epoch 5 (live epochs 3..=5).
    let snapshot = expected_ring(&[(9, 5, &frame(30))]);
    journal::write_atomic(&dir.join(journal::SNAPSHOT_FILE), &snapshot.checkpoint()).unwrap();
    let chain = |source: u64, epoch: u64, keys: &[u64]| -> Vec<JournalRecord> {
        delta_chain(keys, epoch, 4)
            .into_iter()
            .map(|f| record(source, epoch, f))
            .collect()
    };
    let evil = |source: u64, epoch: u64, from: usize| {
        record(
            source,
            epoch,
            resealed(&delta_chain(&[4, 8], epoch, 1)[0], from),
        )
    };
    // The ring is at epoch 7 when this record arrives.
    let far = 7 + MAX_EPOCH_JUMP + 1;

    // Segment 0: resealed records first, in the middle and last; a
    // legacy tag-9 record between deltas; a record older than the
    // snapshot; a frame whose header epoch disagrees with its record.
    let mut seg0 = vec![evil(7, 5, 30)];
    seg0.extend(chain(1, 5, &[2, 5, 9]));
    seg0.push(record(3, 5, frame(31)));
    seg0.extend(chain(2, 5, &[5, 11]));
    seg0.push(evil(7, 5, 45));
    seg0.extend(chain(4, 1, &[2, 6]).into_iter().take(1));
    seg0.extend(chain(1, 6, &[2, 5, 9]));
    seg0.push(record(5, 6, delta_chain(&[13], 7, 1).remove(0)));
    seg0.extend(chain(2, 6, &[5, 11]));
    seg0.push(evil(7, 6, 60));
    // Segment 1: a valid frame far past the epoch-jump bound, and
    // resealed records first, in the middle and last.
    let mut seg1 = vec![evil(8, 6, 38)];
    seg1.extend(chain(1, 7, &[2, 5, 9]));
    seg1.push(record(6, far, delta_chain(&[2], far, 1).remove(0)));
    seg1.push(evil(8, 7, 50));
    seg1.extend(chain(2, 8, &[5, 11, 17]));
    seg1.extend(chain(3, 8, &[2, 9]));
    seg1.push(record(3, 8, frame(32)));
    seg1.push(evil(8, 8, 70));
    let segments = vec![seg0, seg1];
    let total: usize = segments.iter().map(Vec::len).sum();
    assert!(total > 8 * 4, "{total} records");
    write_segments(&dir, &segments);

    let mut ring = snapshot.clone();
    let all: Vec<&JournalRecord> = segments.iter().flatten().collect();
    let (replayed, skipped) = replay_sequentially(&mut ring, &all);
    // 6 resealed, 1 expired, 1 epoch mismatch, 1 jump past the bound.
    assert_eq!(skipped, 9, "the planted records, and nothing else");

    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, replayed);
    assert_eq!(report.replay_skipped, skipped);
    assert_eq!(report.final_checkpoint, ring.checkpoint());
}

#[test]
fn a_full_seen_guard_refuses_the_next_replayed_record() {
    let dir = scratch_dir("guard-full");
    let cap = <WindowedFleet>::MAX_GUARD_ENTRIES_PER_SLOT;
    let rounds = u32::try_from(cap).unwrap() + 1;
    // One key, one source, one epoch, a distinct round per record. The
    // refused last record sets a bit no earlier record sets, so
    // absorbing it would show.
    let schedule = schedule();
    let stride = M_BITS.div_ceil(64);
    let records: Vec<JournalRecord> = (0..rounds)
        .map(|round| {
            let bit = if round + 1 == rounds {
                M_BITS - 1
            } else {
                round as usize % (M_BITS - 1)
            };
            let mut words = vec![0u64; stride];
            words[bit / 64] |= 1 << (bit % 64);
            let mut f = FleetDeltaFrame::new(
                N_MAX,
                M_BITS,
                schedule.split().sampling_bits(),
                SEED,
                0,
                round,
            );
            f.push(42, &words);
            record(1, 0, f.encode())
        })
        .collect();
    write_segments(&dir, std::slice::from_ref(&records));

    let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule, SEED, WINDOW).unwrap();
    let all: Vec<&JournalRecord> = records.iter().collect();
    assert_eq!(replay_sequentially(&mut ring, &all), (cap as u64, 1));

    let report = recover(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.replayed_records, cap as u64);
    assert_eq!(report.replay_skipped, 1, "the record past the guard cap");
    assert_eq!(report.final_checkpoint, ring.checkpoint());
}
