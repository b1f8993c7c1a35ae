//! Compact, versioned binary serialization for sketch checkpoints — the
//! wire format measurement nodes use to ship per-link sketches to a
//! collector.
//!
//! Unlike the (optional, feature-gated) serde support, this codec has no
//! dependencies and a stable wire format. Version 2 generalizes the
//! original S-bitmap-only format to the whole estimator family through
//! the [`Checkpoint`] trait: a common frame carries a counter-kind tag
//! and a checksum, and each counter serializes its configuration key plus
//! state as the payload.
//!
//! The complete byte-level specification — frame layout, every kind tag,
//! every per-kind payload, and the v1 compatibility rules — lives in
//! `docs/wire-format.md` at the repository root. That document is the
//! human-readable source of truth the golden vectors in
//! `tests/checkpoint_golden.rs` are written against; the summary below
//! covers the frame and the S-bitmap payload only.
//!
//! ## v2 frame (current)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SBMP"
//! 4       1     version (2)
//! 5       1     counter kind tag (see `CounterKind`)
//! 6       P     kind-specific payload
//! 6+P     8     XXH64 of bytes [0, 6+P) with seed 0
//! ```
//!
//! The S-bitmap payload is the v1 body unchanged — `n_max` (u64), `m`
//! (u64), sampling `d` (u32), hash seed (u64), fill `L` (u64), bitmap
//! words (u64 × ⌈m/64⌉), all little-endian — so an `m = 8000` checkpoint
//! is `42 + ⌈m/64⌉·8 + 8` bytes ≈ 1 KiB. Payload layouts for the
//! baseline estimators are documented on their `Checkpoint` impls in
//! `sbitmap-baselines`.
//!
//! ## v1 frame (decoded forever, no longer emitted)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SBMP"
//! 4       1     version (1)
//! 5       8     n_max        (LE u64)
//! 13      8     m            (LE u64)
//! 21      4     sampling d   (LE u32)
//! 25      8     hash seed    (LE u64)
//! 33      8     fill L       (LE u64)
//! 41      8·W   bitmap words (LE u64 × ⌈m/64⌉)
//! 41+8W   8     XXH64 of bytes [0, 41+8W) with seed 0
//! ```
//!
//! v1 carried no kind tag — it could only describe an S-bitmap — so
//! [`unframe`] maps it to [`CounterKind::SBitmap`] and the golden-vector
//! test in `tests/checkpoint_golden.rs` locks the byte-level
//! compatibility.
//!
//! Checkpoints do not record the *hash family*: a sketch restores with
//! the hasher type the caller names (defaulting to `SplitMix64Hasher`
//! everywhere in this workspace), reseeded from the embedded seed.

use sbitmap_bitvec::Bitmap;
use sbitmap_hash::{xxh64, FromSeed, Hasher64};

use crate::schedule::RateSchedule;
use crate::sketch::SBitmap;
use crate::SBitmapError;

const MAGIC: &[u8; 4] = b"SBMP";
const VERSION_1: u8 = 1;
const VERSION_2: u8 = 2;
/// v3: the fleet-delta frame ([`FleetDeltaFrame`]) — same outer layout
/// as v2 (magic, version, kind tag, payload, checksum) but the version
/// byte is 3 and the only legal kind is [`CounterKind::FleetDelta`].
/// Kept a distinct version so v2-only decoders reject v3 frames at the
/// header instead of misreading a delta as a checkpoint.
const VERSION_3: u8 = 3;
/// v2: magic + version + kind tag.
const V2_HEADER_LEN: usize = 6;
/// Trailing XXH64 checksum.
const CHECKSUM_LEN: usize = 8;

/// A codec rejection. The rules a hostile frame can trip use static
/// messages, so a refusal allocates nothing.
#[cold]
fn fail(msg: impl Into<std::borrow::Cow<'static, str>>) -> SBitmapError {
    SBitmapError::invalid("checkpoint", msg)
}

/// The counter-kind tag stored in every v2 frame.
///
/// Tags are append-only wire constants: never renumber or reuse them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CounterKind {
    /// [`SBitmap`] — the self-learning bitmap (not mergeable).
    SBitmap = 1,
    /// `LinearCounting` from `sbitmap-baselines`.
    LinearCounting = 2,
    /// `VirtualBitmap` from `sbitmap-baselines`.
    VirtualBitmap = 3,
    /// `MrBitmap` from `sbitmap-baselines`.
    MrBitmap = 4,
    /// `FmSketch` (PCSA) from `sbitmap-baselines`.
    FmSketch = 5,
    /// `LogLog` from `sbitmap-baselines`.
    LogLog = 6,
    /// `HyperLogLog` from `sbitmap-baselines`.
    HyperLogLog = 7,
    /// `KMinValues` from `sbitmap-baselines`.
    KMinValues = 8,
    /// Keyed fleet checkpoint (written by [`crate::FleetArena`] /
    /// [`crate::SparseFleet`]) — a keyed collection of S-bitmaps over
    /// one shared schedule.
    SketchFleet = 9,
    /// [`crate::WindowedFleet`] — a ring of per-epoch fleets answering
    /// sliding-window queries.
    WindowedFleet = 10,
    /// [`FleetDeltaFrame`] — a wire-v3 incremental fleet frame: per-key
    /// newly-set-bit deltas (run-length or sparse-varint coded) a
    /// collector OR-applies onto its ring arena. Not a checkpoint — it
    /// only makes sense against an absorbed round-0 baseline.
    FleetDelta = 11,
}

impl CounterKind {
    /// All kinds, in tag order.
    pub const ALL: [CounterKind; 11] = [
        CounterKind::SBitmap,
        CounterKind::LinearCounting,
        CounterKind::VirtualBitmap,
        CounterKind::MrBitmap,
        CounterKind::FmSketch,
        CounterKind::LogLog,
        CounterKind::HyperLogLog,
        CounterKind::KMinValues,
        CounterKind::SketchFleet,
        CounterKind::WindowedFleet,
        CounterKind::FleetDelta,
    ];

    /// The wire tag.
    #[inline]
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parse a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Stable human-readable name (matches `DistinctCounter::name` where
    /// a counter exists).
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::SBitmap => "s-bitmap",
            CounterKind::LinearCounting => "linear-counting",
            CounterKind::VirtualBitmap => "virtual-bitmap",
            CounterKind::MrBitmap => "mr-bitmap",
            CounterKind::FmSketch => "fm-pcsa",
            CounterKind::LogLog => "loglog",
            CounterKind::HyperLogLog => "hyperloglog",
            CounterKind::KMinValues => "kmv",
            CounterKind::SketchFleet => "sketch-fleet",
            CounterKind::WindowedFleet => "windowed-fleet",
            CounterKind::FleetDelta => "fleet-delta",
        }
    }

    /// Whether checkpoints of this kind can be merged (union semantics).
    /// The S-bitmap family cannot — the paper's non-mergeable case.
    pub fn is_mergeable(self) -> bool {
        !matches!(
            self,
            CounterKind::SBitmap
                | CounterKind::SketchFleet
                | CounterKind::WindowedFleet
                | CounterKind::FleetDelta
        )
    }
}

impl std::fmt::Display for CounterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Payload cursor helpers
// ---------------------------------------------------------------------

/// Little-endian payload writer used by [`Checkpoint`] implementations.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a LEB128 varint (7 value bits per byte, high bit =
    /// continuation) — the v3 sparse-record position coding.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a slice of `u64` words, little-endian, without a length
    /// prefix (the reader derives the count from configuration fields).
    pub fn words(&mut self, words: &[u64]) {
        self.buf.reserve(words.len() * 8);
        for w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    pub(crate) fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian payload reader; every read fails loudly
/// on truncation instead of panicking.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SBitmapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| fail("payload truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Truncated payload.
    pub fn u8(&mut self) -> Result<u8, SBitmapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`, little-endian.
    ///
    /// # Errors
    ///
    /// Truncated payload.
    pub fn u32(&mut self) -> Result<u32, SBitmapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64`, little-endian.
    ///
    /// # Errors
    ///
    /// Truncated payload.
    pub fn u64(&mut self) -> Result<u64, SBitmapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a LEB128 varint (see [`PayloadWriter::varint`]).
    ///
    /// # Errors
    ///
    /// Truncated payload, or an encoding longer than 10 bytes / wider
    /// than 64 bits.
    pub fn varint(&mut self) -> Result<u64, SBitmapError> {
        let mut v = 0u64;
        for shift in (0..=63).step_by(7) {
            let b = self.u8()?;
            let chunk = u64::from(b & 0x7f);
            if shift == 63 && chunk > 1 {
                return Err(fail("varint overflows 64 bits"));
            }
            v |= chunk << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(fail("varint longer than 10 bytes"))
    }

    /// Read a `u64` that must fit in `usize` (counts, sizes).
    ///
    /// # Errors
    ///
    /// Truncated payload or a value beyond `usize::MAX`.
    pub fn len_u64(&mut self) -> Result<usize, SBitmapError> {
        usize::try_from(self.u64()?).map_err(|_| fail("length field overflows usize"))
    }

    /// Read exactly `n` `u64` words.
    ///
    /// # Errors
    ///
    /// Truncated payload.
    pub fn words(&mut self, n: usize) -> Result<Vec<u64>, SBitmapError> {
        let raw = self.take(
            n.checked_mul(8)
                .ok_or_else(|| fail("word count overflow"))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Assert the payload was fully consumed — trailing garbage is a
    /// corruption signal, not padding.
    ///
    /// # Errors
    ///
    /// Unconsumed trailing bytes.
    pub fn finish(self) -> Result<(), SBitmapError> {
        if self.remaining() != 0 {
            return Err(fail("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// A verified checkpoint frame: magic, version and checksum have been
/// checked; `payload` is the kind-specific body.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Wire version the frame was encoded with (1, 2 or 3).
    pub version: u8,
    /// The counter kind (v1 frames are always [`CounterKind::SBitmap`]).
    pub kind: CounterKind,
    /// Kind-specific payload bytes.
    pub payload: &'a [u8],
}

/// Wrap `payload` in a v2 frame (magic, version, kind tag, checksum).
pub fn frame(kind: CounterKind, payload: &[u8]) -> Vec<u8> {
    let mut out = open_frame(VERSION_2, kind, payload.len());
    out.extend_from_slice(payload);
    seal_frame(out)
}

/// A frame's header (magic, version, kind tag) in a buffer with room
/// for `payload_len` more bytes and the checksum. v3 frames share the
/// v2 layout; only the version byte differs, so v2-only peers reject
/// them at the header.
fn open_frame(version: u8, kind: CounterKind, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(V2_HEADER_LEN + payload_len + CHECKSUM_LEN);
    out.extend_from_slice(MAGIC);
    out.push(version);
    out.push(kind.tag());
    out
}

/// Append the XXH64 (seed 0) of everything written so far.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let checksum = xxh64(&out, 0);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Verify and open a checkpoint frame (v1, v2 or v3).
///
/// # Errors
///
/// Truncated input, bad magic, unsupported version, unknown kind tag, a
/// version/kind pairing that is not legal on the wire (fleet-delta is
/// v3-only, every checkpoint kind is v1/v2-only), or checksum mismatch.
pub fn unframe(bytes: &[u8]) -> Result<Frame<'_>, SBitmapError> {
    if bytes.len() < V2_HEADER_LEN + CHECKSUM_LEN {
        return Err(fail("truncated"));
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let expect = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
    if xxh64(body, 0) != expect {
        return Err(fail("checksum mismatch"));
    }
    if &body[0..4] != MAGIC {
        return Err(fail("bad magic"));
    }
    match body[4] {
        // v1 carried no kind tag: the whole post-version body is an
        // S-bitmap payload (same field layout as the v2 payload).
        VERSION_1 => Ok(Frame {
            version: VERSION_1,
            kind: CounterKind::SBitmap,
            payload: &body[5..],
        }),
        VERSION_2 => {
            let kind =
                CounterKind::from_tag(body[5]).ok_or_else(|| fail("unknown counter kind tag"))?;
            if kind == CounterKind::FleetDelta {
                return Err(fail("fleet-delta frames require version 3"));
            }
            Ok(Frame {
                version: VERSION_2,
                kind,
                payload: &body[V2_HEADER_LEN..],
            })
        }
        VERSION_3 => {
            let kind =
                CounterKind::from_tag(body[5]).ok_or_else(|| fail("unknown counter kind tag"))?;
            if kind != CounterKind::FleetDelta {
                return Err(fail("version 3 carries only fleet-delta frames"));
            }
            Ok(Frame {
                version: VERSION_3,
                kind,
                payload: &body[V2_HEADER_LEN..],
            })
        }
        _ => Err(fail("unsupported version")),
    }
}

/// Read just the `(version, kind)` of a checkpoint, verifying the frame.
///
/// # Errors
///
/// See [`unframe`].
pub fn peek_kind(bytes: &[u8]) -> Result<(u8, CounterKind), SBitmapError> {
    let f = unframe(bytes)?;
    Ok((f.version, f.kind))
}

// ---------------------------------------------------------------------
// The Checkpoint trait
// ---------------------------------------------------------------------

/// Versioned, dependency-free binary encode/decode.
///
/// Implementations serialize their *configuration key* plus state into a
/// payload; the framing (magic, version, kind tag, checksum) is shared.
/// A restored sketch must be behaviourally identical to the original:
/// same estimate now, and the same state evolution under further inserts.
///
/// ```
/// use sbitmap_core::{Checkpoint, DistinctCounter, SBitmap};
///
/// let mut sketch = SBitmap::with_memory(100_000, 4_000, 7).unwrap();
/// for flow in 0..2_000u64 {
///     sketch.insert_u64(flow);
/// }
/// // ~0.5 KiB on the wire: framed, tagged, checksummed.
/// let bytes = sketch.checkpoint();
/// let mut restored: SBitmap = Checkpoint::restore(&bytes).unwrap();
/// assert_eq!(restored.estimate(), sketch.estimate());
/// // The restored sketch evolves identically.
/// sketch.insert_u64(999_999);
/// restored.insert_u64(999_999);
/// assert_eq!(restored.checkpoint(), sketch.checkpoint());
/// ```
pub trait Checkpoint: Sized {
    /// The kind tag this type serializes under.
    const KIND: CounterKind;

    /// Serialize configuration + state into `out`.
    fn write_payload(&self, out: &mut PayloadWriter);

    /// Rebuild from a payload produced by [`Checkpoint::write_payload`].
    ///
    /// # Errors
    ///
    /// Structurally invalid payloads (truncation, inconsistent fields,
    /// configurations that no longer dimension).
    fn read_payload(r: &mut PayloadReader<'_>) -> Result<Self, SBitmapError>;

    /// Serialize into a framed, checksummed v2 checkpoint.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = PayloadWriter::default();
        self.write_payload(&mut w);
        frame(Self::KIND, &w.into_inner())
    }

    /// Restore from a framed checkpoint (v2, or v1 where the format
    /// predates v2 — today that is only the S-bitmap).
    ///
    /// # Errors
    ///
    /// Corrupt frames (see [`unframe`]), a kind tag that does not match
    /// `Self`, or invalid payloads.
    fn restore(bytes: &[u8]) -> Result<Self, SBitmapError> {
        let f = unframe(bytes)?;
        if f.kind != Self::KIND {
            return Err(fail(format!(
                "checkpoint holds a {}, expected a {}",
                f.kind,
                Self::KIND
            )));
        }
        let mut r = PayloadReader::new(f.payload);
        let decoded = Self::read_payload(&mut r)?;
        r.finish()?;
        Ok(decoded)
    }
}

/// Largest `m` (bits per sketch) a checkpoint is allowed to declare.
///
/// The in-memory API has no such cap, but rebuilding a [`RateSchedule`]
/// is O(m) time and memory, and the fleet decoders must do it *before*
/// the first byte-backed record can bound `m` against the payload
/// length. Without this limit a 16-byte hostile frame with a repaired
/// checksum can demand minutes of threshold computation and gigabytes
/// of allocation. 2²² bits (512 KiB per sketch) is ~500× the paper's
/// largest configuration. Recorded in `docs/wire-format.md`.
pub const MAX_WIRE_M: usize = 1 << 22;

/// Shared guard for the config header of every schedule-bearing payload.
pub(crate) fn check_wire_m(m: usize) -> Result<(), SBitmapError> {
    if m > MAX_WIRE_M {
        return Err(fail(format!(
            "checkpoint declares m = {m} bits, above the wire limit {MAX_WIRE_M}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// v3 fleet-delta frames (tag 11)
// ---------------------------------------------------------------------

/// Encoded length of a LEB128 varint, in bytes.
fn varint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros().min(63) as usize;
    bits.div_ceil(7)
}

/// Record body mode: word-level run coding.
const DELTA_MODE_RUNS: u8 = 0;
/// Record body mode: sparse varint-gap bit positions.
const DELTA_MODE_SPARSE: u8 = 1;
/// Wire bytes of the v3 payload header: n_max · m · d · seed · epoch ·
/// round · count.
const DELTA_HEADER_LEN: usize = 48;
/// Wire bytes of a record's fixed head: key u64 · bits u32 · mode u8.
const RECORD_HEAD_LEN: usize = 13;

/// Where one record's body lives in its frame's shared arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordHeader {
    key: u64,
    bits: u32,
    mode: u8,
    /// Sparse: the positions are `spans[lo..hi]`. Runs: `spans[lo..hi]`
    /// holds one `(start, len)` pair per run.
    lo: usize,
    hi: usize,
    /// Runs: the run words, back to back in run order (empty for
    /// sparse records).
    word_lo: usize,
    word_hi: usize,
}

/// One key's delta record, borrowed from a [`FleetDeltaFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRecord<'a> {
    /// The fleet key (link id).
    pub key: u64,
    /// Total set bits the body carries (validated against the decoded
    /// body, so a forged header cannot skew fill accounting).
    pub bits: u32,
    /// The coded bits.
    pub body: DeltaBody<'a>,
}

/// The body of one per-key delta record — the bits newly set since the
/// previous round, in whichever of the two codings was smaller on the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaBody<'a> {
    /// Word-level runs: zero words between runs are elided (the RLE
    /// side of the coding — dense late-epoch deltas).
    Runs(DeltaRuns<'a>),
    /// Strictly increasing bit positions, varint-gap coded on the wire
    /// (sparse early-epoch deltas).
    Sparse(&'a [u32]),
}

/// The runs of a [`DeltaBody::Runs`] record, in ascending order: each
/// item is `(start, words)`, covering word indices `start ..
/// start + words.len()` of the key's bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRuns<'a> {
    /// `(start, len)` pairs.
    spans: &'a [u32],
    /// Every run's words, back to back.
    words: &'a [u64],
}

impl<'a> Iterator for DeltaRuns<'a> {
    type Item = (u32, &'a [u64]);

    fn next(&mut self) -> Option<Self::Item> {
        let (&[start, len], spans) = self.spans.split_first_chunk::<2>()?;
        let (run, words) = self.words.split_at(len as usize);
        self.spans = spans;
        self.words = words;
        Some((start, run))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.spans.len() / 2;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DeltaRuns<'_> {}

/// A wire-v3 incremental fleet frame: the bits one shard newly set for
/// its keys during one *round* of one epoch, delta-coded against the
/// round before.
///
/// Within an epoch the S-bitmap only ever **sets** bits, so round `r`'s
/// state is a superset of round `r-1`'s and the XOR delta between them
/// is exactly the newly-set bits — OR-applying every round of an epoch
/// onto a zeroed slot reproduces the epoch's final bitmap bit for bit,
/// in any arrival order, idempotently. That is what makes the frame
/// safe under at-least-once delivery and reordering: the receiver
/// ([`crate::WindowedFleet::absorb_delta_view`]) ORs records straight
/// from the checked wire bytes onto its ring arena, no decoded copy.
///
/// Round 0 is the **baseline reset**: a self-contained image of the
/// shard's state at the end of the first round, carrying a record for
/// *every* key the shard owns (even still-empty ones), so the receiver
/// creates the slots a later round's delta will land in. Rounds > 0
/// require the same `(source, epoch)`'s baseline to have been absorbed
/// first and are rejected with [`SBitmapError::MissingBaseline`]
/// otherwise — before any O(m) work.
///
/// In memory the frame is flat: three arrays — fixed-size record
/// headers, one `u32` array of every sparse position and run
/// `(start, len)` pair, one `u64` array of every run word — so
/// decoding, absorbing and dropping a frame costs a constant number of
/// allocations however many records it carries, and building one never
/// allocates per record. [`FleetDeltaFrame::records`] borrows the
/// records back as [`DeltaRecord`] views.
///
/// Byte layout (payload; the outer v3 frame adds magic/version/tag and
/// the trailing XXH64) — see `docs/wire-format.md` for the normative
/// spec:
///
/// ```text
/// n_max u64 · m u64 · d u32 · seed u64 · epoch u64 · round u32 ·
/// count u64 · count × record
/// record  = key u64 · bits u32 · mode u8 · body
/// body(0) = runs u32 · runs × (start u32 · len u32 · words u64×len)
/// body(1) = bits × varint   (first absolute position, then gaps)
/// ```
#[derive(Debug, Clone)]
pub struct FleetDeltaFrame {
    /// Dimensioning `n_max` of the shard's schedule.
    pub n_max: u64,
    /// Bits per key (`m` of the shared dimensioning).
    pub m: usize,
    /// Sampling split bits (`d`).
    pub sampling_bits: u32,
    /// The fleet seed per-key hashers derive from.
    pub seed: u64,
    /// Absolute epoch the frame belongs to.
    pub epoch: u64,
    /// Round within the epoch: 0 = baseline reset, > 0 = delta.
    /// `u32::MAX` is reserved (the receiver's full-frame sentinel) and
    /// rejected on the wire.
    pub round: u32,
    /// Per-key record headers, in push (wire) order.
    records: Vec<RecordHeader>,
    /// Sparse positions and run `(start, len)` pairs of every record.
    spans: Vec<u32>,
    /// Run words of every record.
    words: Vec<u64>,
    /// Wire bytes of all records, heads and bodies — `encode` sizes its
    /// output from it (exactly, unless a decoded frame arrived with
    /// over-long varints, which `encode` writes canonically).
    records_len: usize,
}

/// Frames are equal when their headers and records are: how the records
/// sit in the arrays, and how long their varints were on the wire, do
/// not count.
impl PartialEq for FleetDeltaFrame {
    fn eq(&self, other: &Self) -> bool {
        (
            self.n_max,
            self.m,
            self.sampling_bits,
            self.seed,
            self.epoch,
            self.round,
        ) == (
            other.n_max,
            other.m,
            other.sampling_bits,
            other.seed,
            other.epoch,
            other.round,
        ) && self.records().eq(other.records())
    }
}

impl FleetDeltaFrame {
    /// An empty frame with the given configuration key and position in
    /// the round chain; fill in records via [`FleetDeltaFrame::push`].
    pub fn new(
        n_max: u64,
        m: usize,
        sampling_bits: u32,
        seed: u64,
        epoch: u64,
        round: u32,
    ) -> Self {
        Self {
            n_max,
            m,
            sampling_bits,
            seed,
            epoch,
            round,
            records: Vec::new(),
            spans: Vec::new(),
            words: Vec::new(),
            records_len: 0,
        }
    }

    /// `true` for a round-0 baseline-reset frame.
    pub fn is_baseline(&self) -> bool {
        self.round == 0
    }

    /// Number of per-key records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the frame carries no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The per-key records in wire order, borrowed from the flat arrays.
    pub fn records(&self) -> impl ExactSizeIterator<Item = DeltaRecord<'_>> + '_ {
        self.records.iter().map(|h| {
            let spans = &self.spans[h.lo..h.hi];
            let body = if h.mode == DELTA_MODE_SPARSE {
                DeltaBody::Sparse(spans)
            } else {
                DeltaBody::Runs(DeltaRuns {
                    spans,
                    words: &self.words[h.word_lo..h.word_hi],
                })
            };
            DeltaRecord {
                key: h.key,
                bits: h.bits,
                body,
            }
        })
    }

    /// Append the record for `key`'s newly-set bits, given as a
    /// full-stride word image (callers push keys in ascending order —
    /// encode asserts it). Picks whichever coding is smaller on the
    /// wire: word runs for dense deltas, varint positions for sparse
    /// ones; the set bits are walked at most once.
    pub fn push(&mut self, key: u64, delta_words: &[u64]) {
        let (lo, word_lo) = (self.spans.len(), self.words.len());
        let mut bits = 0u32;
        // Run coding cost: 8 bytes (start + len) per run, 8 per word.
        let mut run_cost = 0usize;
        let mut in_run = false;
        for &w in delta_words {
            bits += w.count_ones();
            if w != 0 {
                run_cost += if in_run { 8 } else { 16 };
            }
            in_run = w != 0;
        }
        // Sparse costs at least one varint byte per set bit, and the
        // runs mode also pays its 4-byte run-count field: only price
        // (and stage) the positions when sparse can still win.
        let mut body_len = None;
        if bits as usize <= run_cost + 4 {
            let mut sparse_cost = 0usize;
            let mut last = 0u64;
            for (wi, &w) in delta_words.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    let pos = (wi as u64) * 64 + u64::from(w.trailing_zeros());
                    // The first gap is the absolute position (last = 0).
                    sparse_cost += varint_len(pos - last);
                    last = pos;
                    self.spans.push(pos as u32);
                    w &= w - 1;
                }
            }
            if sparse_cost <= run_cost + 4 {
                body_len = Some(sparse_cost);
            } else {
                self.spans.truncate(lo);
            }
        }
        let mode = if let Some(len) = body_len {
            self.records_len += RECORD_HEAD_LEN + len;
            DELTA_MODE_SPARSE
        } else {
            let mut in_run = false;
            for (wi, &w) in delta_words.iter().enumerate() {
                if w != 0 {
                    if in_run {
                        *self.spans.last_mut().expect("open run") += 1;
                    } else {
                        self.spans.extend([wi as u32, 1]);
                    }
                    self.words.push(w);
                }
                in_run = w != 0;
            }
            self.records_len += RECORD_HEAD_LEN + 4 + run_cost;
            DELTA_MODE_RUNS
        };
        self.records.push(RecordHeader {
            key,
            bits,
            mode,
            lo,
            hi: self.spans.len(),
            word_lo,
            word_hi: self.words.len(),
        });
    }

    /// Serialize into a framed, checksummed v3 frame (one allocation,
    /// sized exactly).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter {
            buf: open_frame(
                VERSION_3,
                CounterKind::FleetDelta,
                DELTA_HEADER_LEN + self.records_len,
            ),
        };
        w.u64(self.n_max);
        w.u64(self.m as u64);
        w.u32(self.sampling_bits);
        w.u64(self.seed);
        w.u64(self.epoch);
        w.u32(self.round);
        w.u64(self.records.len() as u64);
        let mut last: Option<u64> = None;
        for rec in self.records() {
            assert!(
                last.is_none_or(|l| rec.key > l),
                "delta records must be strictly ascending by key"
            );
            last = Some(rec.key);
            w.u64(rec.key);
            w.u32(rec.bits);
            match rec.body {
                DeltaBody::Runs(runs) => {
                    w.u8(DELTA_MODE_RUNS);
                    w.u32(runs.len() as u32);
                    for (start, words) in runs {
                        w.u32(start);
                        w.u32(words.len() as u32);
                        w.words(words);
                    }
                }
                DeltaBody::Sparse(positions) => {
                    w.u8(DELTA_MODE_SPARSE);
                    let mut last_pos = 0u64;
                    for &pos in positions {
                        let pos = u64::from(pos);
                        w.varint(pos - last_pos);
                        last_pos = pos;
                    }
                }
            }
        }
        seal_frame(w.into_inner())
    }

    /// Verify and decode a v3 frame: the checked record walk behind
    /// [`DeltaView::validate`], filling the flat arrays as it goes.
    /// Validation is the only rule set, so decode and the wire-byte
    /// absorb path ([`crate::WindowedFleet::absorb_delta_view`]) can
    /// never disagree on a verdict.
    ///
    /// The arrays are bounded by the wire bytes left after the record
    /// heads (a sparse position takes at least one byte, a run word
    /// eight), so decode makes three allocations reserved up front —
    /// never more, and never proportional to a claimed length.
    ///
    /// # Errors
    ///
    /// See [`DeltaView::validate`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SBitmapError> {
        let (h, count, r) = delta_header(bytes)?;
        let body_bytes = r.remaining() - count * RECORD_HEAD_LEN;
        let mut frame = Self {
            n_max: h.n_max,
            m: h.m,
            sampling_bits: h.sampling_bits,
            seed: h.seed,
            epoch: h.epoch,
            round: h.round,
            records: Vec::with_capacity(count),
            spans: Vec::with_capacity(body_bytes),
            words: Vec::with_capacity(body_bytes / 8),
            records_len: r.remaining(),
        };
        walk_records::<true>(r, h.m, count, None, &mut frame)?;
        Ok(frame)
    }
}

impl DeltaSource for FleetDeltaFrame {
    fn header(&self) -> DeltaHeader {
        DeltaHeader {
            n_max: self.n_max,
            m: self.m,
            sampling_bits: self.sampling_bits,
            seed: self.seed,
            epoch: self.epoch,
            round: self.round,
        }
    }

    fn walk(&self, sink: &mut impl DeltaSink) {
        for rec in self.records() {
            sink.key(rec.key, rec.bits, matches!(rec.body, DeltaBody::Runs(_)));
            match rec.body {
                DeltaBody::Runs(runs) => {
                    for (start, words) in runs {
                        sink.run(start as usize, RunWords::Words(words));
                    }
                }
                DeltaBody::Sparse(positions) => sink.positions(positions),
            }
            sink.end(0);
        }
    }
}

/// Decode fills a frame from the checked walk.
impl DeltaSink for FleetDeltaFrame {
    fn key(&mut self, key: u64, bits: u32, runs: bool) {
        self.records.push(RecordHeader {
            key,
            bits,
            mode: if runs {
                DELTA_MODE_RUNS
            } else {
                DELTA_MODE_SPARSE
            },
            lo: self.spans.len(),
            hi: self.spans.len(),
            word_lo: self.words.len(),
            word_hi: self.words.len(),
        });
    }

    fn run(&mut self, start: usize, words: RunWords<'_>) {
        let RunWords::Le(raw) = words else {
            unreachable!("a wire walk hands over wire bytes")
        };
        self.spans.extend([start as u32, (raw.len() / 8) as u32]);
        self.words.extend(
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
    }

    fn positions(&mut self, positions: &[u32]) {
        self.spans.extend_from_slice(positions);
    }

    fn end(&mut self, _: usize) {
        let (hi, word_hi) = (self.spans.len(), self.words.len());
        let h = self.records.last_mut().expect("open record");
        h.hi = hi;
        h.word_hi = word_hi;
    }
}

/// The fixed header of a v3 delta frame: the configuration key the
/// receiver must share, and the frame's place in the round chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Dimensioning `n_max` of the shard's schedule.
    pub n_max: u64,
    /// Bits per key.
    pub m: usize,
    /// Sampling split bits (`d`).
    pub sampling_bits: u32,
    /// The fleet seed.
    pub seed: u64,
    /// Absolute epoch.
    pub epoch: u64,
    /// Round within the epoch (0 = baseline reset).
    pub round: u32,
}

/// One run's words as a record walk hands them over: straight from the
/// wire, or from a decoded frame's word array.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunWords<'a> {
    /// Little-endian wire bytes, 8 per word.
    Le(&'a [u8]),
    /// Decoded words.
    Words(&'a [u64]),
}

impl RunWords<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            RunWords::Le(raw) => raw.len() / 8,
            RunWords::Words(words) => words.len(),
        }
    }
}

/// What a record walk feeds: for each record, `key` (with the record's
/// `bits` header and whether it is run-coded), then its runs or its
/// sparse positions in ascending order, then `end` with the byte length
/// of the record's body. Every run lies inside the stride and every
/// position below `m` of the walked frame.
/// A checked walk feeds a record's pieces as they pass, so a refused
/// frame may have fed part of itself: its sink is thrown away.
pub(crate) trait DeltaSink {
    fn key(&mut self, key: u64, bits: u32, runs: bool);
    fn run(&mut self, start: usize, words: RunWords<'_>);
    fn positions(&mut self, positions: &[u32]);
    fn end(&mut self, body: usize);
}

/// A delta frame the ring can absorb: a decoded [`FleetDeltaFrame`] or
/// a validated [`DeltaView`]. Both absorb through the same checks and
/// the same sink.
pub(crate) trait DeltaSource {
    fn header(&self) -> DeltaHeader;
    fn walk(&self, sink: &mut impl DeltaSink);
}

/// Validation walks into nothing.
impl DeltaSink for () {
    fn key(&mut self, _: u64, _: u32, _: bool) {}
    fn run(&mut self, _: usize, _: RunWords<'_>) {}
    fn positions(&mut self, _: &[u32]) {}
    fn end(&mut self, _: usize) {}
}

/// [`DeltaView::validate_into`] keeps, for each record, its sparse
/// positions (none for a run-coded one), then the byte length of its
/// body — so the apply walk steps over a sparse body without reading
/// it. A checked body fits a `u32`: a sparse one holds at most `m`
/// gaps of at most ten bytes, a run-coded one at most a stride's words.
impl DeltaSink for Vec<u32> {
    fn key(&mut self, _: u64, _: u32, _: bool) {}
    fn run(&mut self, _: usize, _: RunWords<'_>) {}
    fn positions(&mut self, positions: &[u32]) {
        self.extend_from_slice(positions);
    }
    fn end(&mut self, body: usize) {
        self.push(u32::try_from(body).expect("a checked record body fits a u32"));
    }
}

/// Offset of the first record in a v3 frame: frame header, then payload
/// header.
const DELTA_RECORDS_AT: usize = V2_HEADER_LEN + DELTA_HEADER_LEN;

/// Verify a v3 frame's envelope and fixed header: returns the header,
/// the record count (bounded by the bytes left) and a reader at the
/// first record.
fn delta_header(bytes: &[u8]) -> Result<(DeltaHeader, usize, PayloadReader<'_>), SBitmapError> {
    let f = unframe(bytes)?;
    if f.kind != CounterKind::FleetDelta {
        return Err(fail("frame is not a fleet-delta frame"));
    }
    let mut r = PayloadReader::new(f.payload);
    let n_max = r.u64()?;
    let m = r.len_u64()?;
    check_wire_m(m)?;
    if m == 0 {
        return Err(fail("delta frame declares m = 0"));
    }
    let sampling_bits = r.u32()?;
    let seed = r.u64()?;
    let epoch = r.u64()?;
    let round = r.u32()?;
    if round == u32::MAX {
        return Err(fail("round index u32::MAX is reserved"));
    }
    let count = r.len_u64()?;
    if count > r.remaining() / RECORD_HEAD_LEN {
        return Err(fail("record count exceeds the payload"));
    }
    let header = DeltaHeader {
        n_max,
        m,
        sampling_bits,
        seed,
        epoch,
        round,
    };
    Ok((header, count, r))
}

/// A v3 fleet-delta frame checked in place: [`DeltaView::validate`]
/// makes one pass over the wire bytes, allocates nothing, and enforces
/// every rule of the format. The view then hands its records straight
/// from those bytes to the ring
/// ([`crate::WindowedFleet::absorb_delta_view`]) — an S-bitmap bit only
/// ever goes from 0 to 1, so the checked bytes already are the absorb
/// input, and no decoded copy of the runs is made. A view built by
/// [`DeltaView::validate_into`] (or [`CheckedDelta::view`]) also
/// carries the sparse positions its validation decoded, so applying it
/// only sets bits.
///
/// The header is read off the view without walking the body.
#[derive(Debug, Clone, Copy)]
pub struct DeltaView<'a> {
    header: DeltaHeader,
    count: usize,
    /// Every record, heads and bodies, as on the wire.
    records: &'a [u8],
    /// What validation kept (see [`DeltaView::validate_into`]): every
    /// sparse position and each record's body length, in record order.
    /// Without it the apply pass decodes the positions again from
    /// `records`.
    positions: Option<&'a [u32]>,
}

impl<'a> DeltaView<'a> {
    /// Verify a v3 frame without copying it.
    ///
    /// Every structural lie is rejected *before* the work it would
    /// drive: `m` is capped at [`MAX_WIRE_M`] ahead of any stride math,
    /// record/run counts are bounded by the bytes actually remaining,
    /// keys must be strictly increasing, runs ascending and
    /// non-overlapping within the stride, sparse positions strictly
    /// increasing below `m`, no run word may set a bit at or beyond
    /// `m`, and the per-record `bits` header must equal the popcount of
    /// the body. A record's body may not reach into the bytes later
    /// record heads need.
    ///
    /// # Errors
    ///
    /// Corrupt frames (see [`unframe`]), a non-v3 frame, or any payload
    /// violation above.
    pub fn validate(bytes: &'a [u8]) -> Result<Self, SBitmapError> {
        let (header, count, r) = delta_header(bytes)?;
        let records = &r.bytes[r.pos..];
        walk_records::<true>(r, header.m, count, None, &mut ())?;
        Ok(Self {
            header,
            count,
            records,
            positions: None,
        })
    }

    /// [`DeltaView::validate`], keeping the sparse positions the pass
    /// decodes, and each record's body length, in `positions` (cleared
    /// first; a caller validating many frames reuses it). Applying the
    /// view then only sets bits and ORs runs — the decoding is done
    /// here, outside whatever lock the apply runs under.
    ///
    /// # Errors
    ///
    /// See [`DeltaView::validate`].
    pub fn validate_into(
        bytes: &'a [u8],
        positions: &'a mut Vec<u32>,
    ) -> Result<Self, SBitmapError> {
        positions.clear();
        let (header, count, r) = delta_header(bytes)?;
        let records = &r.bytes[r.pos..];
        walk_records::<true>(r, header.m, count, None, positions)?;
        Ok(Self {
            header,
            count,
            records,
            positions: Some(positions),
        })
    }

    /// The frame's configuration key and position in the round chain.
    pub fn header(&self) -> DeltaHeader {
        self.header
    }

    /// Number of per-key records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the frame carries no record.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl DeltaSource for DeltaView<'_> {
    fn header(&self) -> DeltaHeader {
        self.header
    }

    /// Hand every record to `sink`, straight from the wire bytes. The
    /// checks already ran in [`DeltaView::validate`]; this pass only
    /// reads.
    fn walk(&self, sink: &mut impl DeltaSink) {
        walk_records::<false>(
            PayloadReader::new(self.records),
            self.header.m,
            self.count,
            self.positions,
            sink,
        )
        .expect("a validated frame walks cleanly");
    }
}

/// A v3 frame that passed validation: its bytes plus the sparse
/// positions validation decoded from them
/// ([`DeltaView::validate_into`]). Only validation builds one, so a
/// consumer on another thread — the daemon's ring writer — applies it
/// through [`CheckedDelta::view`] without checking or decoding again.
///
/// `B` holds the bytes: the live path owns them (`Vec<u8>`, the
/// default); journal replay borrows them from the segment buffer
/// (`&[u8]`), so a record crosses to the ring writer without a copy.
#[derive(Debug, Clone)]
pub struct CheckedDelta<B: AsRef<[u8]> = Vec<u8>> {
    bytes: B,
    positions: Vec<u32>,
    header: DeltaHeader,
    count: usize,
}

impl<B: AsRef<[u8]>> CheckedDelta<B> {
    /// Validate `bytes` (see [`DeltaView::validate_into`]) and keep
    /// them. What validation keeps is bounded by the frame's bytes — a
    /// position or a record's body length per byte at most — and
    /// reserved once.
    ///
    /// # Errors
    ///
    /// See [`DeltaView::validate`].
    pub fn new(bytes: B) -> Result<Self, SBitmapError> {
        let mut positions = Vec::with_capacity(bytes.as_ref().len());
        Self::validate_into(bytes, &mut positions)
    }

    /// [`CheckedDelta::new`] into the caller's `positions` buffer: on
    /// success the frame takes it (leaving an empty one behind), and
    /// [`CheckedDelta::into_positions`] hands it back for the next
    /// frame; on a refusal it stays with the caller.
    ///
    /// # Errors
    ///
    /// See [`DeltaView::validate`].
    pub fn validate_into(bytes: B, positions: &mut Vec<u32>) -> Result<Self, SBitmapError> {
        let view = DeltaView::validate_into(bytes.as_ref(), positions)?;
        let (header, count) = (view.header, view.count);
        Ok(Self {
            bytes,
            positions: std::mem::take(positions),
            header,
            count,
        })
    }

    /// The frame's configuration key and position in the round chain.
    pub fn header(&self) -> DeltaHeader {
        self.header
    }

    /// The frame exactly as it arrived.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_ref()
    }

    /// The validated view of the bytes, with their decoded positions
    /// (no second check).
    pub fn view(&self) -> DeltaView<'_> {
        let bytes = self.bytes.as_ref();
        DeltaView {
            header: self.header,
            count: self.count,
            records: &bytes[DELTA_RECORDS_AT..bytes.len() - CHECKSUM_LEN],
            positions: Some(&self.positions),
        }
    }

    /// Give up the frame, returning its positions buffer for reuse.
    pub fn into_positions(self) -> Vec<u32> {
        self.positions
    }
}

/// Walk `count` records from `r` into `sink`. With `CHECK`, every rule
/// of the format is enforced, in a fixed order; without it the bytes
/// must have passed a checked walk before, and `kept` may hold what
/// that walk kept (see [`DeltaView::validate_into`]).
///
/// The body bytes (everything past the record heads) bound what the
/// records hold: a sparse position takes at least one of them, a run's
/// `(start, len)` pair eight, a run word eight. A body that would push
/// either count past its bound reaches into later records' heads and is
/// refused.
fn walk_records<const CHECK: bool>(
    mut r: PayloadReader<'_>,
    m: usize,
    count: usize,
    mut kept: Option<&[u32]>,
    sink: &mut impl DeltaSink,
) -> Result<(), SBitmapError> {
    let body_bytes = r.remaining() - count * RECORD_HEAD_LEN;
    let mut budget = Budget {
        spans: body_bytes,
        words: body_bytes / 8,
    };
    let mut last_key: Option<u64> = None;
    for _ in 0..count {
        let key = r.u64()?;
        if CHECK && last_key.is_some_and(|l| key <= l) {
            return Err(fail("delta record keys must be strictly increasing"));
        }
        last_key = Some(key);
        let bits = r.u32()?;
        if CHECK && bits as usize > m {
            return Err(fail("record declares more set bits than m"));
        }
        let mode = r.u8()?;
        if !matches!(mode, DELTA_MODE_RUNS | DELTA_MODE_SPARSE) {
            return Err(fail("unknown delta body mode"));
        }
        let body = r.pos;
        sink.key(key, bits, mode == DELTA_MODE_RUNS);
        match (mode, kept) {
            (DELTA_MODE_RUNS, _) => walk_runs::<CHECK>(&mut r, m, bits, &mut budget, sink)?,
            (_, Some(kept)) => {
                let (positions, len) = kept.split_at(bits as usize);
                sink.positions(positions);
                r.pos += len[0] as usize;
            }
            _ => walk_sparse::<CHECK>(&mut r, m, bits, &mut budget, sink)?,
        }
        sink.end(r.pos - body);
        // Step past what was kept for the record: its positions (if
        // sparse), then its body length.
        if let Some(kept) = &mut kept {
            let positions = if mode == DELTA_MODE_RUNS {
                0
            } else {
                bits as usize
            };
            *kept = &kept[positions + 1..];
        }
    }
    if CHECK {
        r.finish()?;
    }
    Ok(())
}

/// Spans and run words a frame's body bytes can still back.
struct Budget {
    spans: usize,
    words: usize,
}

/// Walk one runs-mode body.
fn walk_runs<const CHECK: bool>(
    r: &mut PayloadReader<'_>,
    m: usize,
    bits: u32,
    budget: &mut Budget,
    sink: &mut impl DeltaSink,
) -> Result<(), SBitmapError> {
    let stride = m.div_ceil(64);
    let runs = r.u32()? as usize;
    // Every run is at least start + len + one word.
    if CHECK {
        if runs > r.remaining() / 16 || 2 * runs > budget.spans {
            return Err(fail("run count exceeds the payload"));
        }
        budget.spans -= 2 * runs;
    }
    let mut cursor = 0usize;
    let mut pop = 0u64;
    for _ in 0..runs {
        let start = r.u32()? as usize;
        let len = r.u32()? as usize;
        if CHECK {
            if len == 0 {
                return Err(fail("empty run"));
            }
            if start < cursor {
                return Err(fail("runs must be ascending and non-overlapping"));
            }
            cursor = start
                .checked_add(len)
                .filter(|&e| e <= stride)
                .ok_or_else(|| fail("run extends past the bitmap"))?;
            if len > r.remaining() / 8 || len > budget.words {
                return Err(fail("run length exceeds the payload"));
            }
            budget.words -= len;
        }
        let raw = r.take(len * 8)?;
        if CHECK {
            if cursor == stride && !m.is_multiple_of(64) {
                let last = u64::from_le_bytes(raw[raw.len() - 8..].try_into().expect("8 bytes"));
                if last & !((1u64 << (m % 64)) - 1) != 0 {
                    return Err(fail("run sets bits at or beyond m"));
                }
            }
            pop += sbitmap_bitvec::kernels::popcount_bytes(raw) as u64;
        }
        sink.run(start, RunWords::Le(raw));
    }
    if CHECK && pop != u64::from(bits) {
        return Err(fail("bits header disagrees with run payload"));
    }
    Ok(())
}

/// Sparse positions decoded per word-kernel call, and the buffer they
/// land in (the kernel may write up to seven past the last).
const POSITIONS_PER_CALL: usize = 256;
const POSITION_BUF: usize = POSITIONS_PER_CALL + 8;

/// Walk one sparse-mode body, handing its positions to `sink` a kernel
/// call's worth at a time. The word kernel decodes the common one- and
/// two-byte gaps in bulk; with `CHECK`, a batch passes when its
/// positions ascend strictly (the record's first may be 0) and its last
/// is below `m`. The exact one-varint step takes whatever the kernel
/// leaves — longer varints, the payload's last bytes — and, once a
/// batch fails, the rest of the record, so it reports the first fault
/// in order and a hostile record costs one pass.
fn walk_sparse<const CHECK: bool>(
    r: &mut PayloadReader<'_>,
    m: usize,
    bits: u32,
    budget: &mut Budget,
    sink: &mut impl DeltaSink,
) -> Result<(), SBitmapError> {
    let bits = bits as usize;
    // Every position is at least one varint byte of the body bytes.
    if CHECK {
        if bits > r.remaining() || bits > budget.spans {
            return Err(fail("position count exceeds the payload"));
        }
        budget.spans -= bits;
    }
    let kernels = sbitmap_bitvec::kernels::WordKernels::dispatched();
    let mut buf = [0u32; POSITION_BUF];
    // The last position handed over (0 before the first).
    let mut pos = 0u32;
    let mut i = 0usize;
    let mut bulk = true;
    while i < bits {
        let mut n = 0;
        if bulk {
            let room = (bits - i).min(POSITIONS_PER_CALL);
            let (k, next) = kernels.varint_positions(r.bytes, r.pos, pos, &mut buf, room);
            if k > 0 && (!CHECK || ascending(&buf[..k], pos, i == 0) && (buf[k - 1] as usize) < m) {
                n = k;
                r.pos = next;
            }
            bulk = n > 0 || k == 0;
        }
        if n == 0 {
            let gap = r.varint()?;
            if CHECK {
                if i > 0 && gap == 0 {
                    return Err(fail("sparse positions must be strictly increasing"));
                }
                // `pos < m` holds, so this is `pos + gap >= m` without
                // the overflow.
                if gap >= (m - pos as usize) as u64 {
                    return Err(fail("sparse position at or beyond m"));
                }
            }
            pos += gap as u32;
            buf[0] = pos;
            n = 1;
        }
        pos = buf[n - 1];
        i += n;
        sink.positions(&buf[..n]);
    }
    Ok(())
}

/// `true` when `positions` ascend strictly from `prev`; with `first`,
/// the first may equal it (a record's first gap may be zero).
fn ascending(positions: &[u32], prev: u32, first: bool) -> bool {
    let repeats: usize = positions
        .iter()
        .zip(&positions[1..])
        .map(|(a, b)| usize::from(a >= b))
        .sum();
    repeats == 0 && (first || positions[0] > prev)
}

// ---------------------------------------------------------------------
// S-bitmap payload (shared by v1 bodies and v2 payloads)
// ---------------------------------------------------------------------

impl<H: Hasher64 + FromSeed> Checkpoint for SBitmap<H> {
    const KIND: CounterKind = CounterKind::SBitmap;

    fn write_payload(&self, out: &mut PayloadWriter) {
        let dims = self.dims();
        out.u64(dims.n_max());
        out.u64(dims.m() as u64);
        out.u32(self.schedule().split().sampling_bits());
        out.u64(self.seed());
        out.u64(self.fill() as u64);
        out.words(self.bitmap().words());
    }

    fn read_payload(r: &mut PayloadReader<'_>) -> Result<Self, SBitmapError> {
        let n_max = r.u64()?;
        let m = r.len_u64()?;
        check_wire_m(m)?;
        let sampling_bits = r.u32()?;
        let seed = r.u64()?;
        let fill = r.len_u64()?;
        let words = r.words(m.div_ceil(64))?;
        let bitmap = Bitmap::from_words(words, m).map_err(fail)?;
        if bitmap.count_ones() != fill {
            return Err(fail("fill counter disagrees with bitmap"));
        }
        let schedule = RateSchedule::shared(n_max, m, sampling_bits)?;
        let mut sketch = SBitmap::with_shared_schedule(schedule, H::from_seed(seed));
        sketch.restore_state(bitmap, fill);
        Ok(sketch)
    }
}

/// Serialize a sketch checkpoint (v2 frame).
///
/// Alias for [`Checkpoint::checkpoint`], kept as the codec's original
/// free-function entry point.
pub fn encode<H: Hasher64 + FromSeed>(sketch: &SBitmap<H>) -> Vec<u8> {
    sketch.checkpoint()
}

/// Deserialize a checkpoint (v1 or v2), rebuilding the schedule from the
/// embedded configuration key and the hasher from the embedded seed.
///
/// # Errors
///
/// Corrupt or truncated input (magic/version/kind/checksum/length
/// mismatch), a fill counter inconsistent with the bitmap, or a
/// configuration that no longer dimensions (all reported as
/// [`SBitmapError`]).
pub fn decode<H: Hasher64 + FromSeed>(bytes: &[u8]) -> Result<SBitmap<H>, SBitmapError> {
    SBitmap::restore(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::DistinctCounter;
    use sbitmap_hash::SplitMix64Hasher;

    fn checkpointed() -> (SBitmap, Vec<u8>) {
        let mut s = SBitmap::with_memory(1_000_000, 8_000, 42).unwrap();
        for i in 0..30_000u64 {
            s.insert_u64(i);
        }
        let bytes = encode(&s);
        (s, bytes)
    }

    #[test]
    fn round_trip_preserves_state_and_behaviour() {
        let (mut original, bytes) = checkpointed();
        let mut restored: SBitmap<SplitMix64Hasher> = decode(&bytes).unwrap();
        assert_eq!(restored.fill(), original.fill());
        assert_eq!(restored.estimate(), original.estimate());
        // Resume identically.
        for i in 30_000..60_000u64 {
            original.insert_u64(i);
            restored.insert_u64(i);
        }
        assert_eq!(restored.fill(), original.fill());
    }

    #[test]
    fn size_is_as_documented() {
        let (_, bytes) = checkpointed();
        assert_eq!(bytes.len(), 42 + 8_000usize.div_ceil(64) * 8 + 8);
    }

    #[test]
    fn round_trips_non_word_multiple_m() {
        // m = 8000 (word multiple), 8001 (one bit into a fresh word) and
        // 63 (sub-word) all round-trip with exact state.
        for (n_max, m) in [(1_000_000u64, 8_000usize), (1_000_000, 8_001), (1_000, 63)] {
            let mut s = SBitmap::with_memory(n_max, m, 9).unwrap();
            for i in 0..(n_max / 10) {
                s.insert_u64(i);
            }
            let restored: SBitmap<SplitMix64Hasher> = decode(&encode(&s)).unwrap();
            assert_eq!(restored.fill(), s.fill(), "m={m}");
            assert_eq!(restored.bitmap(), s.bitmap(), "m={m}");
            assert_eq!(restored.estimate(), s.estimate(), "m={m}");
        }
    }

    #[test]
    fn detects_corruption_everywhere() {
        let (_, bytes) = checkpointed();
        // Flip one bit at a sample of positions: every one must fail
        // (checksum covers the whole body).
        for pos in [0usize, 4, 5, 9, 20, 50, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(
                decode::<SplitMix64Hasher>(&bad).is_err(),
                "corruption at {pos} accepted"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let (_, bytes) = checkpointed();
        assert!(decode::<SplitMix64Hasher>(&bytes[..10]).is_err());
        assert!(decode::<SplitMix64Hasher>(&[]).is_err());
        assert!(decode::<SplitMix64Hasher>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn rejects_consistent_checksum_with_bad_fill() {
        // Re-encode with a tampered fill *and* a fixed-up checksum: the
        // structural validation must still catch it.
        let (_, mut bytes) = checkpointed();
        let len = bytes.len();
        bytes.truncate(len - 8);
        // Fill field: v2 payload offset 28 within the payload, +6 header.
        bytes[34..42].copy_from_slice(&7u64.to_le_bytes());
        let checksum = xxh64(&bytes, 0);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let err = decode::<SplitMix64Hasher>(&bytes).unwrap_err();
        assert!(err.to_string().contains("fill"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage_with_fixed_checksum() {
        let (_, mut bytes) = checkpointed();
        let len = bytes.len();
        bytes.truncate(len - 8);
        bytes.extend_from_slice(&[0u8; 3]);
        let checksum = xxh64(&bytes, 0);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let err = decode::<SplitMix64Hasher>(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn empty_sketch_round_trips() {
        let s = SBitmap::with_memory(10_000, 1_200, 7).unwrap();
        let restored: SBitmap<SplitMix64Hasher> = decode(&encode(&s)).unwrap();
        assert_eq!(restored.fill(), 0);
        assert_eq!(restored.estimate(), 0.0);
    }

    #[test]
    fn frame_reports_version_and_kind() {
        let (_, bytes) = checkpointed();
        let (version, kind) = peek_kind(&bytes).unwrap();
        assert_eq!(version, 2);
        assert_eq!(kind, CounterKind::SBitmap);
        assert!(!kind.is_mergeable());
    }

    #[test]
    fn kind_tags_are_stable_and_unique() {
        let tags: Vec<u8> = CounterKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        for k in CounterKind::ALL {
            assert_eq!(CounterKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(CounterKind::from_tag(0), None);
        assert_eq!(CounterKind::from_tag(200), None);
    }

    #[test]
    fn rejects_unknown_kind_and_version() {
        // Hand-build frames with a bad kind tag / version and a valid
        // checksum: the frame parser must reject them by field, not by
        // checksum accident.
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.push(VERSION_2);
        body.push(250); // unknown tag
        let checksum = xxh64(&body, 0);
        body.extend_from_slice(&checksum.to_le_bytes());
        assert!(unframe(&body).unwrap_err().to_string().contains("kind"));

        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.push(7); // unsupported version
        body.push(CounterKind::SBitmap.tag());
        let checksum = xxh64(&body, 0);
        body.extend_from_slice(&checksum.to_le_bytes());
        assert!(unframe(&body).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u64().is_err(), "overlong read must fail, not panic");
        assert_eq!(r.remaining(), 2);
        assert!(r.words(usize::MAX / 4).is_err(), "size overflow guarded");
    }

    #[test]
    fn varints_round_trip_and_reject_overwide() {
        let mut w = PayloadWriter::default();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX];
        for &v in &values {
            w.varint(v);
        }
        let buf = w.into_inner();
        let mut r = PayloadReader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
        // 10 continuation bytes = wider than 64 bits.
        let evil = [0xffu8; 11];
        assert!(PayloadReader::new(&evil).varint().is_err());
        // A 10th byte above 1 overflows bit 63.
        let evil = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert!(PayloadReader::new(&evil).varint().is_err());
        // Truncated mid-varint.
        assert!(PayloadReader::new(&[0x80]).varint().is_err());
    }

    /// Wrap a fleet-delta payload in a v3 frame.
    fn frame_v3(payload: &[u8]) -> Vec<u8> {
        let mut out = open_frame(VERSION_3, CounterKind::FleetDelta, payload.len());
        out.extend_from_slice(payload);
        seal_frame(out)
    }

    /// A delta frame over two keys: one sparse-shaped, one dense-shaped.
    fn delta_frame() -> FleetDeltaFrame {
        let mut f = FleetDeltaFrame::new(100_000, 256, 32, 9, 4, 1);
        // Key 3: a handful of scattered bits → sparse wins.
        let mut sparse = vec![0u64; 4];
        for pos in [1usize, 64, 70, 200] {
            sparse[pos / 64] |= 1 << (pos % 64);
        }
        f.push(3, &sparse);
        // Key 7: dense contiguous words → runs win.
        let dense = vec![u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1];
        f.push(7, &dense);
        f
    }

    #[test]
    fn delta_frame_round_trips() {
        let f = delta_frame();
        let records: Vec<DeltaRecord<'_>> = f.records().collect();
        assert!(matches!(records[0].body, DeltaBody::Sparse(_)));
        assert!(matches!(records[1].body, DeltaBody::Runs(_)));
        assert_eq!(records[0].bits, 4);
        assert_eq!(records[1].bits, 255);
        let bytes = f.encode();
        let (version, kind) = peek_kind(&bytes).unwrap();
        assert_eq!(version, 3);
        assert_eq!(kind, CounterKind::FleetDelta);
        assert!(!kind.is_mergeable());
        let back = FleetDeltaFrame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.encode(), bytes, "canonical re-encode");
    }

    #[test]
    fn over_long_varints_decode_to_an_equal_frame() {
        let mut pushed = FleetDeltaFrame::new(1_000, 64, 32, 1, 2, 1);
        pushed.push(5, &[0b1010]);
        let mut payload = Vec::new();
        for v in [1_000u64, 64] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.extend_from_slice(&32u32.to_le_bytes());
        for v in [1u64, 2] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.push(DELTA_MODE_SPARSE);
        // Positions 1 and 3: gap 1 over-long as 0x81 0x00, then gap 2.
        payload.extend_from_slice(&[0x81, 0x00, 0x02]);
        let back = FleetDeltaFrame::decode(&frame_v3(&payload)).unwrap();
        assert_eq!(back, pushed);
        assert_eq!(back.encode(), pushed.encode(), "canonical re-encode");
    }

    #[test]
    fn empty_and_baseline_delta_frames_round_trip() {
        // An all-empty round frame (no records) is legal — it keeps the
        // per-round frame count deterministic.
        let f = FleetDeltaFrame::new(1_000, 63, 32, 1, 0, 3);
        let back = FleetDeltaFrame::decode(&f.encode()).unwrap();
        assert!(back.is_empty());
        assert!(!back.is_baseline());
        // A baseline with an empty record (key touched, no bits yet).
        let mut f = FleetDeltaFrame::new(1_000, 63, 32, 1, 0, 0);
        f.push(42, &[0]);
        let back = FleetDeltaFrame::decode(&f.encode()).unwrap();
        assert!(back.is_baseline());
        let rec = back.records().next().unwrap();
        assert_eq!(rec.bits, 0);
        assert_eq!(rec.body, DeltaBody::Sparse(&[]));
    }

    #[test]
    fn delta_frame_is_not_a_checkpoint_and_vice_versa() {
        // A v3 frame must not restore as any checkpoint kind.
        let bytes = delta_frame().encode();
        assert!(<SBitmap as Checkpoint>::restore(&bytes).is_err());
        // A v2 frame carrying tag 11 is illegal on the wire.
        let evil = frame(CounterKind::FleetDelta, &[]);
        let err = unframe(&evil).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");
        // A v3 frame carrying a checkpoint tag is illegal too.
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.push(VERSION_3);
        body.push(CounterKind::SketchFleet.tag());
        let checksum = xxh64(&body, 0);
        body.extend_from_slice(&checksum.to_le_bytes());
        let err = unframe(&body).unwrap_err();
        assert!(err.to_string().contains("fleet-delta"), "{err}");
        // And a checkpoint must not decode as a delta frame.
        let (_, ckpt) = checkpointed();
        assert!(FleetDeltaFrame::decode(&ckpt).is_err());
    }

    /// Re-frame a mutated v3 payload with a fresh checksum so the bytes
    /// reach the payload validators.
    fn reseal_v3(bytes: &[u8], mutate: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut body = bytes[..bytes.len() - CHECKSUM_LEN].to_vec();
        mutate(&mut body);
        let checksum = xxh64(&body, 0);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    #[test]
    fn delta_decode_rejects_structural_lies() {
        let bytes = delta_frame().encode();
        // Payload offsets (after the 6-byte header): n_max@6 m@14 d@22
        // seed@26 epoch@34 round@42 count@46, first record key@54
        // bits@62 mode@66.
        type Mutator = Box<dyn FnOnce(&mut [u8])>;
        let cases: Vec<(&str, Mutator)> = vec![
            (
                "m above the wire cap",
                Box::new(|b: &mut [u8]| {
                    b[14..22].copy_from_slice(&(MAX_WIRE_M as u64 + 1).to_le_bytes())
                }),
            ),
            (
                "m = 0",
                Box::new(|b: &mut [u8]| b[14..22].copy_from_slice(&0u64.to_le_bytes())),
            ),
            (
                "reserved round",
                Box::new(|b: &mut [u8]| b[42..46].copy_from_slice(&u32::MAX.to_le_bytes())),
            ),
            (
                "record count beyond payload",
                Box::new(|b: &mut [u8]| b[46..54].copy_from_slice(&u64::MAX.to_le_bytes())),
            ),
            (
                "bits header above m",
                Box::new(|b: &mut [u8]| b[62..66].copy_from_slice(&300u32.to_le_bytes())),
            ),
            (
                "bits header off by one",
                Box::new(|b: &mut [u8]| b[62..66].copy_from_slice(&5u32.to_le_bytes())),
            ),
            ("unknown body mode", Box::new(|b: &mut [u8]| b[66] = 9)),
        ];
        for (what, mutate) in cases {
            let evil = reseal_v3(&bytes, mutate);
            assert!(FleetDeltaFrame::decode(&evil).is_err(), "{what} accepted");
        }
        // Truncation at every byte.
        for cut in 0..bytes.len() {
            assert!(
                FleetDeltaFrame::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} accepted"
            );
        }
    }

    #[test]
    fn delta_decode_rejects_hostile_runs_and_positions() {
        // Hand-build payloads around a single mode-0 record.
        let build = |runs: &[(u32, u32, &[u64])], bits: u32| {
            let mut w = PayloadWriter::default();
            w.u64(1_000); // n_max
            w.u64(256); // m → stride 4
            w.u32(32);
            w.u64(9);
            w.u64(0); // epoch
            w.u32(0); // round
            w.u64(1); // one record
            w.u64(5); // key
            w.u32(bits);
            w.u8(DELTA_MODE_RUNS);
            w.u32(runs.len() as u32);
            for &(start, len, words) in runs {
                w.u32(start);
                w.u32(len);
                w.words(words);
            }
            frame_v3(&w.into_inner())
        };
        // Overlapping runs.
        let evil = build(&[(0, 2, &[1, 1]), (1, 1, &[1])], 3);
        assert!(FleetDeltaFrame::decode(&evil).is_err(), "overlap accepted");
        // Run past the stride.
        let evil = build(&[(3, 2, &[1, 1])], 2);
        assert!(FleetDeltaFrame::decode(&evil).is_err(), "overrun accepted");
        // Zero-length run.
        let evil = build(&[(0, 0, &[])], 0);
        assert!(
            FleetDeltaFrame::decode(&evil).is_err(),
            "empty run accepted"
        );
        // start + len overflowing u32 arithmetic must not wrap.
        let evil = build(&[(u32::MAX, 2, &[1, 1])], 2);
        assert!(
            FleetDeltaFrame::decode(&evil).is_err(),
            "wraparound accepted"
        );
        // A valid one for contrast.
        let ok = build(&[(0, 1, &[0b1011]), (3, 1, &[2])], 4);
        assert!(FleetDeltaFrame::decode(&ok).is_ok());

        // Tail-bit discipline on a sub-word m: m = 63, bit 63 illegal.
        let tail = |word: u64, bits: u32| {
            let mut w = PayloadWriter::default();
            w.u64(1_000);
            w.u64(63);
            w.u32(32);
            w.u64(9);
            w.u64(0);
            w.u32(0);
            w.u64(1);
            w.u64(5);
            w.u32(bits);
            w.u8(DELTA_MODE_RUNS);
            w.u32(1);
            w.u32(0);
            w.u32(1);
            w.words(&[word]);
            frame_v3(&w.into_inner())
        };
        assert!(FleetDeltaFrame::decode(&tail(1 << 63, 1)).is_err());
        assert!(FleetDeltaFrame::decode(&tail(1 << 62, 1)).is_ok());

        // Sparse lies: position at m, non-increasing position, overflow.
        let sparse = |m: u64, bits: u32, payload: &[u8]| {
            let mut w = PayloadWriter::default();
            w.u64(1_000);
            w.u64(m);
            w.u32(32);
            w.u64(9);
            w.u64(0);
            w.u32(0);
            w.u64(1);
            w.u64(5);
            w.u32(bits);
            w.u8(DELTA_MODE_SPARSE);
            let mut bytes = w.into_inner();
            bytes.extend_from_slice(payload);
            frame_v3(&bytes)
        };
        // First position = m (one varint byte value 63 on m=63).
        assert!(FleetDeltaFrame::decode(&sparse(63, 1, &[63])).is_err());
        assert!(FleetDeltaFrame::decode(&sparse(63, 1, &[62])).is_ok());
        // Zero gap after the first position.
        assert!(FleetDeltaFrame::decode(&sparse(63, 2, &[5, 0])).is_err());
        // Cumulative position overflowing u64.
        let huge = {
            let mut w = PayloadWriter::default();
            w.varint(u64::MAX);
            w.varint(u64::MAX);
            w.into_inner()
        };
        assert!(FleetDeltaFrame::decode(&sparse(63, 2, &huge)).is_err());
        // Declared positions beyond the bytes present.
        assert!(FleetDeltaFrame::decode(&sparse(63, 40, &[1, 1])).is_err());
    }
}
