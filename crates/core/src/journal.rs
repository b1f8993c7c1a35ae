//! Write-ahead journal for durable collectors: checksummed,
//! length-prefixed records of absorbed wire frames, grouped into
//! config-stamped segment files, plus the atomic snapshot write both
//! sides of the crash-safety story share.
//!
//! The daemon in `sbitmap-daemon` appends one record per absorbed frame
//! *before* acknowledging it, periodically writes a tag-10 ring
//! checkpoint as an atomic snapshot, and on restart replays the journal
//! tail on top of the newest snapshot. This module owns the byte
//! formats and the filesystem discipline; the replay policy (what a
//! record *means* for a ring) stays with the daemon. The complete
//! grammar is documented in `docs/recovery.md`.
//!
//! ## Record layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SBJR"
//! 4       8     source (LE u64) — the agent id the frame came from
//! 12      8     epoch  (LE u64) — the ring epoch the frame landed in
//! 20      4     payload length P (LE u32)
//! 24      P     payload — one complete SBMP frame (tag-9 full fleet
//!               checkpoint or tag-11 fleet-delta frame), checksum and
//!               all
//! 24+P    8     XXH64 of bytes [0, 24+P) with seed 0
//! ```
//!
//! The payload reuses the v2/v3 checkpoint codec verbatim, so a journal
//! record is *doubly* checksummed: the outer XXH64 detects torn or
//! bit-flipped records, and the payload's own frame checksum detects a
//! record whose outer checksum was recomputed over a corrupted payload
//! (a "resealed" record — skipped at replay when the inner frame fails
//! to decode).
//!
//! ## Segment layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SBJS"
//! 4       1     segment version (2)
//! 5       8     n_max          (LE u64) ┐
//! 13      8     m              (LE u64) │ the sketch configuration
//! 21      4     sampling bits  (LE u32) │ every record in the segment
//! 25      8     seed           (LE u64) │ was absorbed under
//! 33      8     window         (LE u64) ┘
//! 41      8     segment sequence number (LE u64)
//! 49      8     replication fencing term (LE u64)
//! 57      8     XXH64 of bytes [0, 57) with seed 0
//! 65      …     records, back to back
//! ```
//!
//! Version 2 added the fencing term (see `docs/replication.md`): a
//! restarted collector resumes at the highest term stamped on any
//! surviving segment, so a promoted standby cannot forget its promotion
//! across a crash while it has journal state.
//!
//! Segments are named `journal-<seq as %016x>.sbj` and rotate when a
//! snapshot is written: the snapshot covers every record in segments
//! `≤ seq`, so those files can be deleted — and because ring absorption
//! is an idempotent OR, a crash that leaves covered segments behind
//! merely replays no-ops on the next recovery.
//!
//! ## Tail discipline
//!
//! A crash mid-append leaves a torn final record; [`scan_segment_bytes`]
//! stops at the first record that is truncated or fails its outer
//! checksum and reports the discarded byte count. Nothing after an
//! invalid record can be trusted (the stream is length-delimited), so a
//! scan never resynchronizes past one.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use sbitmap_hash::xxh64;

/// Magic prefix of every journal record.
const RECORD_MAGIC: &[u8; 4] = b"SBJR";
/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 4] = b"SBJS";
/// Current segment header version (2 = fencing term added).
const SEGMENT_VERSION: u8 = 2;
/// Fixed record header length: magic + source + epoch + payload length.
const RECORD_HEADER_LEN: usize = 4 + 8 + 8 + 4;
/// Trailing XXH64 length (records and segment headers alike).
const CHECKSUM_LEN: usize = 8;
/// Fixed segment header length, checksum included.
pub const SEGMENT_HEADER_LEN: usize = 4 + 1 + 36 + 8 + 8 + CHECKSUM_LEN;
/// Largest record payload a scan will accept — matches the net layer's
/// frame bound, so a corrupted length field cannot demand an absurd
/// allocation.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 26;
/// File name of the ring snapshot inside a journal data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.sbmp";
/// Extension of journal segment files.
const SEGMENT_EXT: &str = "sbj";

/// The sketch configuration a journal was written under — the same five
/// fields the net handshake echoes. Recovery refuses a journal whose
/// configuration differs from the collector's, because frames
/// dimensioned differently would be absorbed into garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Per-key design maximum cardinality.
    pub n_max: u64,
    /// Bits per key per epoch.
    pub m: u64,
    /// Sampling-prefix bits of the dimensioned schedule.
    pub sampling_bits: u32,
    /// Fleet seed.
    pub seed: u64,
    /// Window span in epochs.
    pub window: u64,
}

/// One journal entry: the wire frame exactly as it was absorbed, plus
/// the `(source, epoch)` identity replay needs before decoding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Agent id the frame arrived from (drives the absorb guard).
    pub source: u64,
    /// Ring epoch the frame was absorbed into.
    pub epoch: u64,
    /// The complete SBMP frame bytes (tag-9 full or tag-11 delta).
    pub payload: Vec<u8>,
}

/// Errors raised by journal encode/decode and filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// A filesystem operation failed.
    Io(String),
    /// A segment header or snapshot that cannot be parsed at all (bad
    /// magic, truncated header, checksum mismatch on the header).
    Corrupt(String),
    /// The journal was written under a different sketch configuration
    /// than the collector expects — replaying it would corrupt the ring,
    /// so recovery must refuse.
    ConfigMismatch {
        /// The configuration the collector runs with.
        expected: JournalConfig,
        /// The configuration stamped on the segment.
        found: JournalConfig,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal io: {msg}"),
            JournalError::Corrupt(msg) => write!(f, "corrupt journal: {msg}"),
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal config mismatch: collector runs {expected:?}, journal was written \
                 under {found:?}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(context: &str, e: &std::io::Error) -> JournalError {
    JournalError::Io(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// A journal record borrowed from the bytes it was read from — what a
/// replay walks without copying each payload out of the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Agent id the frame arrived from.
    pub source: u64,
    /// Ring epoch the frame was absorbed into.
    pub epoch: u64,
    /// The complete SBMP frame bytes.
    pub payload: &'a [u8],
}

impl RecordRef<'_> {
    fn to_record(self) -> JournalRecord {
        JournalRecord {
            source: self.source,
            epoch: self.epoch,
            payload: self.payload.to_vec(),
        }
    }
}

/// Encode one record: header, payload, trailing XXH64.
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    encode_record_parts(rec.source, rec.epoch, &rec.payload)
}

/// [`encode_record`] from borrowed parts: the one copy of `payload` is
/// the one into the record image.
pub fn encode_record_parts(source: u64, epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(RECORD_MAGIC);
    out.extend_from_slice(&source.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload < 4 GiB")
            .to_le_bytes(),
    );
    out.extend_from_slice(payload);
    let checksum = xxh64(&out, 0);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Try to decode one record at the front of `bytes`. Returns the record
/// and the bytes it consumed, or `None` when the front of `bytes` is not
/// a complete valid record (truncated, bad magic, absurd length, or
/// checksum mismatch) — the scan-stopping condition.
fn decode_record_front(bytes: &[u8]) -> Option<(RecordRef<'_>, usize)> {
    if bytes.len() < RECORD_HEADER_LEN + CHECKSUM_LEN || &bytes[0..4] != RECORD_MAGIC {
        return None;
    }
    let source = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_PAYLOAD {
        return None;
    }
    let total = RECORD_HEADER_LEN + len + CHECKSUM_LEN;
    if bytes.len() < total {
        return None;
    }
    let body = &bytes[..RECORD_HEADER_LEN + len];
    let expect = u64::from_le_bytes(
        bytes[RECORD_HEADER_LEN + len..total]
            .try_into()
            .expect("8 bytes"),
    );
    if xxh64(body, 0) != expect {
        return None;
    }
    Some((
        RecordRef {
            source,
            epoch,
            payload: &bytes[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len],
        },
        total,
    ))
}

/// Decode exactly one encoded record — the unit the replication stream
/// ships (a [`encode_record`] image with nothing after it).
///
/// # Errors
///
/// [`JournalError::Corrupt`] when the bytes are not a single complete
/// valid record (truncated, bad magic, checksum mismatch, or trailing
/// garbage).
pub fn decode_record(bytes: &[u8]) -> Result<JournalRecord, JournalError> {
    match decode_record_front(bytes) {
        Some((rec, used)) if used == bytes.len() => Ok(rec.to_record()),
        _ => Err(JournalError::Corrupt(
            "invalid replication record image".into(),
        )),
    }
}

// ---------------------------------------------------------------------
// Segment codec
// ---------------------------------------------------------------------

/// Encode a segment header for `cfg` with sequence number `seq`,
/// stamped with the fencing `term` the collector held when the segment
/// was opened.
pub fn encode_segment_header(cfg: &JournalConfig, seq: u64, term: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.push(SEGMENT_VERSION);
    out.extend_from_slice(&cfg.n_max.to_le_bytes());
    out.extend_from_slice(&cfg.m.to_le_bytes());
    out.extend_from_slice(&cfg.sampling_bits.to_le_bytes());
    out.extend_from_slice(&cfg.seed.to_le_bytes());
    out.extend_from_slice(&cfg.window.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&term.to_le_bytes());
    let checksum = xxh64(&out, 0);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decode and verify a segment header (the first
/// [`SEGMENT_HEADER_LEN`] bytes of a segment file).
///
/// # Errors
///
/// [`JournalError::Corrupt`] on truncation, bad magic, an unknown
/// version, or a header checksum mismatch.
pub fn decode_segment_header(bytes: &[u8]) -> Result<(JournalConfig, u64, u64), JournalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(JournalError::Corrupt("segment header truncated".into()));
    }
    let header = &bytes[..SEGMENT_HEADER_LEN];
    let (body, checksum_bytes) = header.split_at(SEGMENT_HEADER_LEN - CHECKSUM_LEN);
    let expect = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
    if xxh64(body, 0) != expect {
        return Err(JournalError::Corrupt(
            "segment header checksum mismatch".into(),
        ));
    }
    if &body[0..4] != SEGMENT_MAGIC {
        return Err(JournalError::Corrupt("bad segment magic".into()));
    }
    if body[4] != SEGMENT_VERSION {
        return Err(JournalError::Corrupt(format!(
            "unsupported segment version {}",
            body[4]
        )));
    }
    let cfg = JournalConfig {
        n_max: u64::from_le_bytes(body[5..13].try_into().expect("8 bytes")),
        m: u64::from_le_bytes(body[13..21].try_into().expect("8 bytes")),
        sampling_bits: u32::from_le_bytes(body[21..25].try_into().expect("4 bytes")),
        seed: u64::from_le_bytes(body[25..33].try_into().expect("8 bytes")),
        window: u64::from_le_bytes(body[33..41].try_into().expect("8 bytes")),
    };
    let seq = u64::from_le_bytes(body[41..49].try_into().expect("8 bytes"));
    let term = u64::from_le_bytes(body[49..57].try_into().expect("8 bytes"));
    Ok((cfg, seq, term))
}

/// What scanning one segment produced: its identity plus every record
/// up to (not including) the first invalid one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// The sequence number stamped in the header.
    pub seq: u64,
    /// The fencing term stamped in the header.
    pub term: u64,
    /// The sketch configuration stamped in the header.
    pub config: JournalConfig,
    /// Valid records in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes after the last valid record that were discarded — nonzero
    /// means a torn tail (crash mid-append) or a corrupted record; the
    /// scan cannot resynchronize past either.
    pub trailing_discarded: usize,
}

/// Scan a whole segment image: verify the header, then decode records
/// until the bytes run out or a record fails validation.
///
/// # Errors
///
/// [`JournalError::Corrupt`] when the *header* is invalid — a segment
/// whose identity cannot be established has no replayable prefix. Torn
/// or corrupt records are not errors; they end the scan and are
/// reported via [`SegmentScan::trailing_discarded`].
pub fn scan_segment_bytes(bytes: &[u8]) -> Result<SegmentScan, JournalError> {
    let (config, seq, term) = decode_segment_header(bytes)?;
    let mut walk = SegmentRecords {
        rest: &bytes[SEGMENT_HEADER_LEN..],
    };
    let records = walk.by_ref().map(|rec| rec.to_record()).collect();
    Ok(SegmentScan {
        seq,
        term,
        config,
        records,
        trailing_discarded: walk.trailing(),
    })
}

/// The valid records of a whole segment image, borrowed in append order
/// — [`scan_segment_bytes`] without the per-record payload copies. The
/// header is verified up front; the walk ends at the first truncated or
/// corrupt record, like a scan.
///
/// # Errors
///
/// [`JournalError::Corrupt`] when the header is invalid.
pub fn segment_records(bytes: &[u8]) -> Result<SegmentRecords<'_>, JournalError> {
    decode_segment_header(bytes)?;
    Ok(SegmentRecords {
        rest: &bytes[SEGMENT_HEADER_LEN..],
    })
}

/// Iterator over a segment's valid records (see [`segment_records`]).
#[derive(Debug, Clone)]
pub struct SegmentRecords<'a> {
    rest: &'a [u8],
}

impl SegmentRecords<'_> {
    /// Bytes not yet walked: after the walk ends, the torn or corrupt
    /// tail it discarded.
    fn trailing(&self) -> usize {
        self.rest.len()
    }
}

impl<'a> Iterator for SegmentRecords<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let (rec, used) = decode_record_front(self.rest)?;
        self.rest = &self.rest[used..];
        Some(rec)
    }
}

/// Read and scan one segment file.
///
/// # Errors
///
/// [`JournalError::Io`] on read failure, [`JournalError::Corrupt`] on
/// an invalid header.
pub fn read_segment(path: &Path) -> Result<SegmentScan, JournalError> {
    // `fs::read` sizes the buffer from the file's length: one read, no
    // regrowth copies of a multi-megabyte segment.
    let bytes = fs::read(path).map_err(|e| io_err(&format!("read {}", path.display()), &e))?;
    scan_segment_bytes(&bytes)
}

// ---------------------------------------------------------------------
// Directory layout
// ---------------------------------------------------------------------

/// The path of segment `seq` inside `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:016x}.{SEGMENT_EXT}"))
}

/// List the segment files in `dir` as `(seq, path)` pairs in ascending
/// sequence order. Sequence numbers are parsed from file names; files
/// that do not match the `journal-<hex>.sbj` pattern are ignored.
///
/// # Errors
///
/// [`JournalError::Io`] when the directory cannot be read.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| io_err(&format!("read dir {}", dir.display()), &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(&format!(".{SEGMENT_EXT}")))
        else {
            continue;
        };
        let Ok(seq) = u64::from_str_radix(stem, 16) else {
            continue;
        };
        out.push((seq, entry.path()));
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// The sequence number the next fresh segment in `dir` should use: one
/// past the highest existing segment, or 0 in an empty directory.
///
/// # Errors
///
/// [`JournalError::Io`] when the directory cannot be read.
pub fn next_segment_seq(dir: &Path) -> Result<u64, JournalError> {
    Ok(list_segments(dir)?
        .last()
        .map_or(0, |&(seq, _)| seq.saturating_add(1)))
}

/// Read the snapshot file from `dir`, if one exists. The returned bytes
/// are a complete self-checksummed SBMP frame; validation belongs to
/// the checkpoint codec that restores it. A leftover `*.tmp` from a
/// crash mid-snapshot is never read — only the atomically renamed name
/// counts.
///
/// # Errors
///
/// [`JournalError::Io`] on a read failure other than the file being
/// absent.
pub fn read_snapshot(dir: &Path) -> Result<Option<Vec<u8>>, JournalError> {
    let path = dir.join(SNAPSHOT_FILE);
    match fs::read(&path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(&format!("read {}", path.display()), &e)),
    }
}

/// Write `bytes` to `path` atomically: write to a sibling `.tmp` file,
/// fsync it, rename it over `path`, then fsync the parent directory so
/// the rename itself is durable. A reader never observes a partial
/// file — it sees either the old content or the new.
///
/// # Errors
///
/// Any underlying filesystem failure (the `.tmp` file may be left
/// behind; it is ignored by every reader and overwritten by the next
/// attempt).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), JournalError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err(&format!("create {}", tmp.display()), &e))?;
    f.write_all(bytes)
        .map_err(|e| io_err(&format!("write {}", tmp.display()), &e))?;
    f.sync_all()
        .map_err(|e| io_err(&format!("fsync {}", tmp.display()), &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| {
        io_err(
            &format!("rename {} -> {}", tmp.display(), path.display()),
            &e,
        )
    })?;
    // Make the rename durable. Directory fsync is a Unix-ism; where the
    // open fails (or the platform has no such notion) the rename is
    // still atomic, just not power-loss durable — so errors here are
    // not fatal.
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// An open journal segment being appended to by a single writer (the
/// daemon's absorber thread).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    term: u64,
    fsync: bool,
}

impl JournalWriter {
    /// Create segment `seq` in `dir` and write its header, stamped with
    /// the collector's current fencing `term`. Fails if the segment
    /// file already exists — sequence numbers are never reused.
    ///
    /// When `fsync` is true every append is fsynced before returning
    /// (power-loss durability); when false appends reach the OS page
    /// cache only, which still survives a process crash — the level the
    /// kill-and-recover harness proves.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on create or header-write failure.
    pub fn create(
        dir: &Path,
        cfg: &JournalConfig,
        seq: u64,
        term: u64,
        fsync: bool,
    ) -> Result<Self, JournalError> {
        let path = segment_path(dir, seq);
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err(&format!("create {}", path.display()), &e))?;
        let mut writer = Self {
            file,
            path,
            seq,
            term,
            fsync,
        };
        writer.append_bytes(&encode_segment_header(cfg, seq, term))?;
        Ok(writer)
    }

    /// The segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The fencing term stamped in the segment header.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one encoded record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write (or fsync) failure.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        self.append_bytes(&encode_record(rec))
    }

    /// Append raw bytes. Exists so the crash harness can write a
    /// deliberately torn prefix of a record; production code always
    /// goes through [`JournalWriter::append`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write (or fsync) failure.
    pub fn append_bytes(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&format!("append {}", self.path.display()), &e))?;
        if self.fsync {
            self.file
                .sync_data()
                .map_err(|e| io_err(&format!("fsync {}", self.path.display()), &e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> JournalConfig {
        JournalConfig {
            n_max: 50_000,
            m: 2_000,
            sampling_bits: 4,
            seed: 7,
            window: 3,
        }
    }

    fn rec(source: u64, epoch: u64, fill: u8) -> JournalRecord {
        JournalRecord {
            source,
            epoch,
            payload: vec![fill; 16 + fill as usize],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sbj-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_and_segment_round_trip() {
        let mut bytes = encode_segment_header(&cfg(), 3, 2);
        let records = vec![rec(1, 0, 4), rec(2, 0, 9), rec(1, 1, 2)];
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let scan = scan_segment_bytes(&bytes).unwrap();
        assert_eq!(scan.seq, 3);
        assert_eq!(scan.term, 2);
        assert_eq!(scan.config, cfg());
        assert_eq!(scan.records, records);
        assert_eq!(scan.trailing_discarded, 0);
    }

    #[test]
    fn torn_tail_is_discarded_and_counted() {
        let mut bytes = encode_segment_header(&cfg(), 0, 1);
        bytes.extend_from_slice(&encode_record(&rec(1, 0, 4)));
        let torn = encode_record(&rec(2, 0, 9));
        let keep = torn.len() / 2;
        bytes.extend_from_slice(&torn[..keep]);
        let scan = scan_segment_bytes(&bytes).unwrap();
        assert_eq!(scan.records, vec![rec(1, 0, 4)]);
        assert_eq!(scan.trailing_discarded, keep);
    }

    #[test]
    fn bit_flip_stops_the_scan_before_the_flipped_record() {
        let mut bytes = encode_segment_header(&cfg(), 0, 1);
        bytes.extend_from_slice(&encode_record(&rec(1, 0, 4)));
        let start = bytes.len();
        bytes.extend_from_slice(&encode_record(&rec(2, 0, 9)));
        bytes.extend_from_slice(&encode_record(&rec(3, 1, 5)));
        bytes[start + RECORD_HEADER_LEN + 3] ^= 0x40; // flip a payload bit
        let scan = scan_segment_bytes(&bytes).unwrap();
        assert_eq!(scan.records, vec![rec(1, 0, 4)]);
        assert!(scan.trailing_discarded > 0);
    }

    #[test]
    fn hostile_length_field_is_bounded() {
        let mut bytes = encode_segment_header(&cfg(), 0, 1);
        let mut r = encode_record(&rec(1, 0, 4));
        r[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&r);
        let scan = scan_segment_bytes(&bytes).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.trailing_discarded, r.len());
    }

    #[test]
    fn corrupt_header_is_a_typed_error() {
        let mut bytes = encode_segment_header(&cfg(), 0, 1);
        bytes[6] ^= 0x01;
        assert!(matches!(
            scan_segment_bytes(&bytes),
            Err(JournalError::Corrupt(_))
        ));
        assert!(matches!(
            decode_segment_header(&bytes[..10]),
            Err(JournalError::Corrupt(_))
        ));
    }

    #[test]
    fn writer_listing_and_rotation() {
        let dir = tmp_dir("rotate");
        assert_eq!(next_segment_seq(&dir).unwrap(), 0);
        let mut w = JournalWriter::create(&dir, &cfg(), 0, 1, false).unwrap();
        w.append(&rec(1, 0, 4)).unwrap();
        w.append(&rec(2, 0, 9)).unwrap();
        drop(w);
        let mut w = JournalWriter::create(&dir, &cfg(), 1, 3, true).unwrap();
        w.append(&rec(1, 1, 2)).unwrap();
        drop(w);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(
            segments.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(next_segment_seq(&dir).unwrap(), 2);
        let scan0 = read_segment(&segments[0].1).unwrap();
        assert_eq!(scan0.records.len(), 2);
        let scan1 = read_segment(&segments[1].1).unwrap();
        assert_eq!(scan1.records, vec![rec(1, 1, 2)]);
        assert_eq!(scan0.term, 1);
        assert_eq!(scan1.term, 3);
        // Sequence numbers are never reused.
        assert!(JournalWriter::create(&dir, &cfg(), 1, 3, false).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_ignores_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join(SNAPSHOT_FILE);
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        write_atomic(&path, b"first").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), b"second");
        // A stale tmp from a crashed writer is invisible to readers.
        fs::write(path.with_extension("tmp"), b"torn").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), b"second");
        fs::remove_dir_all(&dir).unwrap();
    }
}
