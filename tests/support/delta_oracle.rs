//! The tree-shaped v3 delta decoder the flat `FleetDeltaFrame` replaced,
//! kept as a test oracle: a `Vec` per record, per run and per sparse
//! position list, decoded with the same validation rules in the same
//! order. The differential suites hold the in-place validator
//! (`DeltaView::validate`) and the flat decoder built on it to it byte
//! for byte — same accept/reject verdict, same header, same records,
//! same ring after absorb.
//!
//! Several test binaries include this file; each uses part of it.
#![allow(dead_code)]

use sbitmap::core::codec::{self, CounterKind, MAX_WIRE_M};
use sbitmap::core::{CheckedDelta, DeltaBody, DeltaHeader, DeltaView, FleetDeltaFrame};

/// One decoded record body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// `(start, words)` per run.
    Runs(Vec<(u32, Vec<u64>)>),
    /// Strictly increasing bit positions.
    Sparse(Vec<u32>),
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub key: u64,
    pub bits: u32,
    pub body: Body,
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub n_max: u64,
    pub m: usize,
    pub sampling_bits: u32,
    pub seed: u64,
    pub epoch: u64,
    pub round: u32,
    pub records: Vec<Record>,
}

impl Frame {
    /// The same content as the flat frame's records, as a tree.
    pub fn of(flat: &FleetDeltaFrame) -> Self {
        Self {
            n_max: flat.n_max,
            m: flat.m,
            sampling_bits: flat.sampling_bits,
            seed: flat.seed,
            epoch: flat.epoch,
            round: flat.round,
            records: flat
                .records()
                .map(|r| Record {
                    key: r.key,
                    bits: r.bits,
                    body: match r.body {
                        DeltaBody::Runs(runs) => {
                            Body::Runs(runs.map(|(start, w)| (start, w.to_vec())).collect())
                        }
                        DeltaBody::Sparse(positions) => Body::Sparse(positions.to_vec()),
                    },
                })
                .collect(),
        }
    }

    /// Each record's bits as a full-stride word image.
    pub fn images(&self) -> Vec<(u64, Vec<u64>)> {
        let stride = self.m.div_ceil(64);
        self.records
            .iter()
            .map(|rec| {
                let mut words = vec![0u64; stride];
                match &rec.body {
                    Body::Runs(runs) => {
                        for (start, run) in runs {
                            let start = *start as usize;
                            words[start..start + run.len()].copy_from_slice(run);
                        }
                    }
                    Body::Sparse(positions) => {
                        for &pos in positions {
                            words[pos as usize / 64] |= 1 << (pos % 64);
                        }
                    }
                }
                (rec.key, words)
            })
            .collect()
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("payload truncated")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..=63).step_by(7) {
            let b = self.u8()?;
            let chunk = u64::from(b & 0x7f);
            if shift == 63 && chunk > 1 {
                return Err("varint overflows 64 bits".into());
            }
            v |= chunk << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes".into())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Decode a v3 frame into the tree.
pub fn decode(bytes: &[u8]) -> Result<Frame, String> {
    let f = codec::unframe(bytes).map_err(|e| e.to_string())?;
    if f.kind != CounterKind::FleetDelta {
        return Err("not a fleet-delta".into());
    }
    let mut r = Reader {
        bytes: f.payload,
        pos: 0,
    };
    let n_max = r.u64()?;
    let m = usize::try_from(r.u64()?).map_err(|_| "length field overflows usize")?;
    if m > MAX_WIRE_M {
        return Err("m above the wire limit".into());
    }
    if m == 0 {
        return Err("m = 0".into());
    }
    let stride = m.div_ceil(64);
    let sampling_bits = r.u32()?;
    let seed = r.u64()?;
    let epoch = r.u64()?;
    let round = r.u32()?;
    if round == u32::MAX {
        return Err("reserved round".into());
    }
    let count = usize::try_from(r.u64()?).map_err(|_| "length field overflows usize")?;
    if count > r.remaining() / 13 {
        return Err("record count exceeds the payload".into());
    }
    let mut records = Vec::with_capacity(count);
    let mut last_key: Option<u64> = None;
    for _ in 0..count {
        let key = r.u64()?;
        if last_key.is_some_and(|l| key <= l) {
            return Err("keys not strictly increasing".into());
        }
        last_key = Some(key);
        let bits = r.u32()?;
        if bits as usize > m {
            return Err("more set bits than m".into());
        }
        let body = match r.u8()? {
            0 => {
                let runs = r.u32()? as usize;
                if runs > r.remaining() / 16 {
                    return Err("run count exceeds the payload".into());
                }
                let mut out = Vec::with_capacity(runs);
                let mut cursor = 0usize;
                let mut pop = 0u64;
                for _ in 0..runs {
                    let start = r.u32()? as usize;
                    let len = r.u32()? as usize;
                    if len == 0 {
                        return Err("empty run".into());
                    }
                    if start < cursor {
                        return Err("runs overlap".into());
                    }
                    let end = start
                        .checked_add(len)
                        .filter(|&e| e <= stride)
                        .ok_or("run extends past the bitmap")?;
                    if len > r.remaining() / 8 {
                        return Err("run length exceeds the payload".into());
                    }
                    let words: Vec<u64> = r
                        .take(len * 8)?
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    if end == stride && m % 64 != 0 {
                        let tail_mask = !((1u64 << (m % 64)) - 1);
                        if words[len - 1] & tail_mask != 0 {
                            return Err("run sets bits at or beyond m".into());
                        }
                    }
                    pop += words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                    cursor = end;
                    out.push((start as u32, words));
                }
                if pop != u64::from(bits) {
                    return Err("bits header disagrees with run payload".into());
                }
                Body::Runs(out)
            }
            1 => {
                if bits as usize > r.remaining() {
                    return Err("position count exceeds the payload".into());
                }
                let mut positions = Vec::with_capacity(bits as usize);
                let mut pos = 0u64;
                for i in 0..bits {
                    let gap = r.varint()?;
                    if i > 0 && gap == 0 {
                        return Err("positions not strictly increasing".into());
                    }
                    pos = pos.checked_add(gap).ok_or("sparse position overflows")?;
                    if pos >= m as u64 {
                        return Err("sparse position at or beyond m".into());
                    }
                    positions.push(pos as u32);
                }
                Body::Sparse(positions)
            }
            other => return Err(format!("unknown body mode {other}")),
        };
        records.push(Record { key, bits, body });
    }
    if r.remaining() != 0 {
        return Err("trailing bytes".into());
    }
    Ok(Frame {
        n_max,
        m,
        sampling_bits,
        seed,
        epoch,
        round,
        records,
    })
}

/// Decode `bytes` with both decoders, and validate them in place, and
/// hold all three to each other: same verdict, and on acceptance the
/// same header and content. Returns the flat decoder's result.
pub fn decode_both(bytes: &[u8]) -> Result<FleetDeltaFrame, sbitmap::core::SBitmapError> {
    let flat = FleetDeltaFrame::decode(bytes);
    let view = DeltaView::validate(bytes);
    let tree = decode(bytes);
    assert_eq!(
        CheckedDelta::new(bytes.to_vec()).map(|c| c.header()).ok(),
        view.as_ref().ok().map(DeltaView::header),
        "validation keeping positions diverged"
    );
    // Borrowed, into a caller's buffer: the same verdict; an accepted
    // frame takes the buffer and hands it back, a refusal leaves it.
    let mut positions = Vec::with_capacity(16);
    let borrowed = CheckedDelta::validate_into(bytes, &mut positions);
    assert_eq!(
        borrowed.as_ref().map(CheckedDelta::header).ok(),
        view.as_ref().ok().map(DeltaView::header),
        "borrowed validation diverged"
    );
    let returned = borrowed.map_or(positions, CheckedDelta::into_positions);
    assert!(returned.capacity() >= 16, "the positions buffer was lost");
    match (&view, &tree) {
        (Ok(v), Ok(t)) => {
            let header = DeltaHeader {
                n_max: t.n_max,
                m: t.m,
                sampling_bits: t.sampling_bits,
                seed: t.seed,
                epoch: t.epoch,
                round: t.round,
            };
            assert_eq!(v.header(), header, "view header diverged");
            assert_eq!(v.len(), t.records.len(), "view record count diverged");
        }
        (Err(_), Err(_)) => {}
        (v, t) => panic!(
            "verdicts diverged: view {:?}, oracle {:?}",
            v.as_ref().map(|_| ()),
            t.as_ref().map(|_| ())
        ),
    }
    match (&flat, &tree) {
        (Ok(f), Ok(t)) => assert_eq!(&Frame::of(f), t, "decoded content diverged"),
        (Err(_), Err(_)) => {}
        (f, t) => panic!(
            "verdicts diverged: flat {:?}, oracle {:?}",
            f.as_ref().map(|_| ()),
            t.as_ref().map(|_| ())
        ),
    }
    flat
}
