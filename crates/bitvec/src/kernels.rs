//! Runtime-dispatched word kernels: the vectorized inner loops every
//! word-at-a-time bitmap operation in the workspace runs on.
//!
//! The rest of the crate (and the fleet/window layers above it) express
//! their hot paths as operations over `&[u64]` word slices: popcount a
//! region, OR one region into another and report the newly set bits, or
//! accumulate an OR *and* the running popcount in one pass (the fused
//! window-query kernel). One OR also takes its source as raw
//! little-endian bytes, so a v3 delta run is ORed straight from the wire
//! with no decoded copy, and one kernel decodes a delta's sparse varint
//! gaps in bulk. This module provides each of those as a pair of
//! bit-identical implementations —
//!
//! * a **scalar** loop (`u64` ops only, every platform), and
//! * an **AVX2** loop (x86-64, 4 words per vector, nibble-LUT popcount)
//!
//! — behind a function-pointer table selected **once per process**:
//! [`WordKernels::dispatched`] probes `is_x86_feature_detected!("avx2")`
//! the first time any kernel runs and caches the result, so steady-state
//! calls are one indirect call with zero per-call feature checks.
//!
//! Setting the environment variable `SBITMAP_FORCE_SCALAR=1` (any value
//! other than `0`/empty) before the first kernel call pins the dispatch
//! to the scalar table — that is how CI exercises the scalar path on
//! AVX2 hosts, and how a misbehaving host can be triaged. The scalar
//! table also stays reachable directly via [`WordKernels::scalar`], so
//! differential tests can compare the two paths *within* one process.
//!
//! Every kernel is a pure function of its input words; the AVX2 and
//! scalar variants are locked bit-identical (same outputs, same counts)
//! by the property tests in this module and the workspace-level
//! `tests/kernel_parity.rs` suite. Checkpoint bytes therefore cannot
//! depend on which path ran.

use std::sync::OnceLock;

/// The word-kernel table: one entry per primitive, all entries from the
/// same implementation family (never a mix).
#[derive(Debug)]
pub struct WordKernels {
    /// `"avx2"` or `"scalar"` — recorded in every `BENCH_*.json` header.
    name: &'static str,
    popcount: fn(&[u64]) -> usize,
    or_into: fn(&mut [u64], &[u64]),
    union_or_count: fn(&mut [u64], &[u64]) -> usize,
    union_or_count_bytes: fn(&mut [u64], &[u8]) -> usize,
    varint_positions: VarintPositions,
    or_accumulate_popcount: fn(&mut [u64], &[u64]) -> usize,
    or_gather_popcount: fn(&mut [u64], &[&[u64]], bool) -> usize,
}

/// `(bytes, at, base, out, limit) -> (decoded, next)`; see
/// [`WordKernels::varint_positions`].
type VarintPositions = fn(&[u8], usize, u32, &mut [u32], usize) -> (usize, usize);

static SCALAR: WordKernels = WordKernels {
    name: "scalar",
    popcount: scalar::popcount,
    or_into: scalar::or_into,
    union_or_count: scalar::union_or_count,
    union_or_count_bytes: scalar::union_or_count_bytes,
    varint_positions: scalar::varint_positions,
    or_accumulate_popcount: scalar::or_accumulate_popcount,
    or_gather_popcount: scalar::or_gather_popcount,
};

#[cfg(target_arch = "x86_64")]
static AVX2: WordKernels = WordKernels {
    name: "avx2",
    popcount: avx2::popcount,
    or_into: avx2::or_into,
    union_or_count: avx2::union_or_count,
    union_or_count_bytes: avx2::union_or_count_bytes,
    varint_positions: avx2::varint_positions,
    or_accumulate_popcount: avx2::or_accumulate_popcount,
    or_gather_popcount: avx2::or_gather_popcount,
};

/// `true` when `SBITMAP_FORCE_SCALAR` is set to anything but `0`/empty.
pub(crate) fn force_scalar() -> bool {
    std::env::var_os("SBITMAP_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

impl WordKernels {
    /// The table the process dispatched to: AVX2 when the CPU has it and
    /// `SBITMAP_FORCE_SCALAR` is unset, scalar otherwise. Detection runs
    /// once; every later call returns the cached table.
    pub fn dispatched() -> &'static WordKernels {
        static TABLE: OnceLock<&'static WordKernels> = OnceLock::new();
        TABLE.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if !force_scalar() && std::arch::is_x86_feature_detected!("avx2") {
                return &AVX2;
            }
            &SCALAR
        })
    }

    /// The scalar table, always available — the reference side of every
    /// differential test.
    pub fn scalar() -> &'static WordKernels {
        &SCALAR
    }

    /// The implementation family: `"avx2"` or `"scalar"`.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of one bits across `words`.
    #[inline]
    pub fn popcount(&self, words: &[u64]) -> usize {
        (self.popcount)(words)
    }

    /// `dst |= src`, word by word.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn or_into(&self, dst: &mut [u64], src: &[u64]) {
        assert_eq!(dst.len(), src.len(), "or_into: slice lengths differ");
        (self.or_into)(dst, src);
    }

    /// `dst |= src`, returning how many bits the OR newly set — the
    /// increment a mergeable sketch's fill counter needs, without a
    /// second scan.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn union_or_count(&self, dst: &mut [u64], src: &[u64]) -> usize {
        assert_eq!(dst.len(), src.len(), "union_or_count: slice lengths differ");
        (self.union_or_count)(dst, src)
    }

    /// [`WordKernels::union_or_count`] with the source given as the
    /// little-endian bytes of `dst.len()` words — a v3 delta run exactly
    /// as it sits on the wire.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not exactly `8 * dst.len()` bytes.
    #[inline]
    pub fn union_or_count_bytes(&self, dst: &mut [u64], src: &[u8]) -> usize {
        assert_eq!(
            dst.len() * 8,
            src.len(),
            "union_or_count_bytes: slice lengths differ"
        );
        (self.union_or_count_bytes)(dst, src)
    }

    /// Decode at most `limit` LEB128 gaps of one or two bytes,
    /// starting at offset `at` of `bytes`, into running positions —
    /// `out[i]` is `base` plus gaps `0..=i`: a sparse record body of a
    /// v3 delta frame. Nothing is judged — a zero gap or a position past
    /// the bitmap is decoded like any other, for the caller to check.
    /// `out` may be written up to `limit + 7`, as room allows. Stops
    /// early, leaving the rest to a byte-by-byte reader, at a varint
    /// longer than two bytes and within the last bytes of `bytes`;
    /// where exactly differs between the tables, what is decoded does
    /// not. Returns the positions decoded and the offset after them.
    ///
    /// # Panics
    ///
    /// Panics if `at` is past the end of `bytes` or `limit` past the end
    /// of `out`.
    #[inline]
    pub fn varint_positions(
        &self,
        bytes: &[u8],
        at: usize,
        base: u32,
        out: &mut [u32],
        limit: usize,
    ) -> (usize, usize) {
        assert!(at <= bytes.len(), "varint_positions: offset past the bytes");
        assert!(
            limit <= out.len(),
            "varint_positions: limit past the output"
        );
        (self.varint_positions)(bytes, at, base, out, limit)
    }

    /// The fused window-query kernel: `acc |= src` and the popcount of
    /// `acc` *after* the OR, both in one pass. A W-epoch union that ends
    /// with this call gets its final fill with zero extra scans.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn or_accumulate_popcount(&self, acc: &mut [u64], src: &[u64]) -> usize {
        assert_eq!(
            acc.len(),
            src.len(),
            "or_accumulate_popcount: slice lengths differ"
        );
        (self.or_accumulate_popcount)(acc, src)
    }

    /// The multi-source fused kernel behind the sliding-window query:
    /// OR every slice of `srcs` into `acc` — overwriting `acc` when
    /// `overwrite` is set, accumulating otherwise — and return the
    /// popcount of `acc` after, all in **one pass over the words**. A
    /// W-epoch union becomes `W` source reads, one write and the final
    /// popcount per word, instead of `W` separate read-modify-write
    /// passes plus a popcount sweep.
    ///
    /// # Panics
    ///
    /// Panics if any source length differs from `acc`, or if `srcs` is
    /// empty while `overwrite` is set (there would be nothing to define
    /// `acc` from).
    #[inline]
    pub fn or_gather_popcount(&self, acc: &mut [u64], srcs: &[&[u64]], overwrite: bool) -> usize {
        for s in srcs {
            assert_eq!(
                acc.len(),
                s.len(),
                "or_gather_popcount: slice lengths differ"
            );
        }
        assert!(
            !(overwrite && srcs.is_empty()),
            "or_gather_popcount: overwrite needs at least one source"
        );
        (self.or_gather_popcount)(acc, srcs, overwrite)
    }
}

/// [`WordKernels::popcount`] on the dispatched table.
#[inline]
pub fn popcount_slice(words: &[u64]) -> usize {
    WordKernels::dispatched().popcount(words)
}

/// Number of one bits across `bytes` (any length; the popcount of a
/// word slice's little-endian image equals the slice's popcount). One
/// portable loop with no table entry: it validates a v3 delta frame's
/// runs, a few hundred words per frame.
pub fn popcount_bytes(bytes: &[u8]) -> usize {
    let mut chunks = bytes.chunks_exact(8);
    let words: usize = (&mut chunks)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")).count_ones() as usize)
        .sum();
    words
        + chunks
            .remainder()
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum::<usize>()
}

/// [`WordKernels::or_into`] on the dispatched table.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    WordKernels::dispatched().or_into(dst, src);
}

/// [`WordKernels::union_or_count`] on the dispatched table.
#[inline]
pub fn union_or_count(dst: &mut [u64], src: &[u64]) -> usize {
    WordKernels::dispatched().union_or_count(dst, src)
}

/// [`WordKernels::or_accumulate_popcount`] on the dispatched table.
#[inline]
pub fn or_accumulate_popcount(acc: &mut [u64], src: &[u64]) -> usize {
    WordKernels::dispatched().or_accumulate_popcount(acc, src)
}

/// [`WordKernels::or_gather_popcount`] on the dispatched table.
#[inline]
pub fn or_gather_popcount(acc: &mut [u64], srcs: &[&[u64]], overwrite: bool) -> usize {
    WordKernels::dispatched().or_gather_popcount(acc, srcs, overwrite)
}

/// The dispatched implementation family: `"avx2"` or `"scalar"`.
/// Benchmark reports record this next to `available_parallelism`.
#[inline]
pub fn active_path() -> &'static str {
    WordKernels::dispatched().name()
}

mod scalar {
    //! The portable loops. On x86-64 these compile to `popcnt` and
    //! SSE2-width ORs; the point of the AVX2 table is the 256-bit width
    //! and the single-pass fusion, not beating these per instruction.

    pub(super) fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub(super) fn or_into(dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }

    pub(super) fn union_or_count(dst: &mut [u64], src: &[u64]) -> usize {
        let mut newly = 0usize;
        for (d, &s) in dst.iter_mut().zip(src) {
            let merged = *d | s;
            newly += (merged ^ *d).count_ones() as usize;
            *d = merged;
        }
        newly
    }

    pub(super) fn union_or_count_bytes(dst: &mut [u64], src: &[u8]) -> usize {
        let mut newly = 0usize;
        for (d, s) in dst.iter_mut().zip(src.chunks_exact(8)) {
            let merged = *d | u64::from_le_bytes(s.try_into().expect("8 bytes"));
            newly += (merged ^ *d).count_ones() as usize;
            *d = merged;
        }
        newly
    }

    /// Eight bytes at a time with no branch per varint: a byte adds its
    /// seven value bits to the running position, shifted by seven when
    /// it follows a continuation byte, and every byte with its top bit
    /// clear ends a varint and writes the position to the next slot
    /// (the slot only advances past it then, so other bytes' writes are
    /// overwritten).
    pub(super) fn varint_positions(
        bytes: &[u8],
        mut at: usize,
        mut pos: u32,
        out: &mut [u32],
        limit: usize,
    ) -> (usize, usize) {
        let mut k = 0usize;
        // Whether the byte before the stride is a continuation byte.
        let mut carry = 0u32;
        while k + 8 <= out.len() && at + 8 <= bytes.len() {
            let word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            // The top bit of every byte, gathered into one byte.
            let cont =
                ((word & 0x8080_8080_8080_8080).wrapping_mul(0x0002_0408_1020_4081) >> 56) as u32;
            let count = 8 - cont.count_ones() as usize;
            // A stride is taken whole: no varint of three bytes or more
            // (a continuation byte after another), every varint that
            // ends in it wanted, and when the last wanted one ends in
            // it, so must the stride (the next bytes are another
            // record's).
            if cont & (cont << 1 | carry) != 0
                || k + count > limit
                || (k + count == limit && cont >> 7 == 1)
            {
                break;
            }
            let lanes: &mut [u32; 8] = (&mut out[k..k + 8]).try_into().expect("8 lanes");
            let (mut lane, mut second) = (0usize, carry);
            for i in 0..8 {
                let byte = (word >> (8 * i)) as u32 & 0xff;
                pos += (byte & 0x7f) << (7 * second);
                lanes[lane & 7] = pos;
                second = byte >> 7;
                lane += (second ^ 1) as usize;
            }
            k += count;
            at += 8;
            carry = cont >> 7;
        }
        // A varint begun in the last stride resumes at its first byte.
        if carry == 1 {
            at -= 1;
            pos -= u32::from(bytes[at] & 0x7f);
        }
        one_by_one(bytes, pos, &mut out[..limit], k, at)
    }

    /// The one-varint tail of both tables' `varint_positions`: one- and
    /// two-byte gaps, decoded with no branch on which.
    pub(super) fn one_by_one(
        bytes: &[u8],
        mut pos: u32,
        out: &mut [u32],
        mut k: usize,
        mut at: usize,
    ) -> (usize, usize) {
        while k < out.len() {
            let Some(&[b0, b1]) = bytes.get(at..at + 2) else {
                break;
            };
            if b0 & b1 & 0x80 != 0 {
                break;
            }
            let two = b0 >> 7;
            pos +=
                u32::from(b0 & 0x7f) | (u32::from(b1 & 0x7f) << 7) & u32::from(two).wrapping_neg();
            out[k] = pos;
            k += 1;
            at += 1 + usize::from(two);
        }
        (k, at)
    }

    pub(super) fn or_accumulate_popcount(acc: &mut [u64], src: &[u64]) -> usize {
        let mut pop = 0usize;
        for (a, &s) in acc.iter_mut().zip(src) {
            let merged = *a | s;
            pop += merged.count_ones() as usize;
            *a = merged;
        }
        pop
    }

    pub(super) fn or_gather_popcount(
        acc: &mut [u64],
        mut srcs: &[&[u64]],
        mut overwrite: bool,
    ) -> usize {
        // Fixed two-source passes, then a fused final pass: every loop
        // here is a plain slice zip the autovectorizer turns into full
        // vector ORs — a dynamic inner loop over `srcs` per word would
        // defeat it and lose to the naive pass-per-source shape.
        while srcs.len() > 2 {
            let (a, b) = (srcs[0], srcs[1]);
            if overwrite {
                for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                    *d = x | y;
                }
                overwrite = false;
            } else {
                for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                    *d |= x | y;
                }
            }
            srcs = &srcs[2..];
        }
        let mut pop = 0usize;
        match (srcs, overwrite) {
            ([a, b], true) => {
                for ((d, &x), &y) in acc.iter_mut().zip(*a).zip(*b) {
                    let v = x | y;
                    *d = v;
                    pop += v.count_ones() as usize;
                }
            }
            ([a, b], false) => {
                for ((d, &x), &y) in acc.iter_mut().zip(*a).zip(*b) {
                    let v = *d | x | y;
                    *d = v;
                    pop += v.count_ones() as usize;
                }
            }
            ([a], true) => {
                for (d, &x) in acc.iter_mut().zip(*a) {
                    *d = x;
                    pop += x.count_ones() as usize;
                }
            }
            ([a], false) => pop = or_accumulate_popcount(acc, a),
            // Empty with overwrite is rejected by the dispatch wrapper;
            // empty without overwrite is a pure popcount of `acc`.
            (_, _) => pop = popcount(acc),
        }
        pop
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 256-bit variants: 4 words per vector, unaligned loads (arena
    //! regions are word- but not vector-aligned), popcounts via the
    //! nibble-LUT (`vpshufb`) + `vpsadbw` reduction. All `unsafe` in the
    //! crate beyond the prefetch hint lives here; every intrinsic body
    //! is reached only through the safe wrappers below, which are only
    //! installed in the dispatch table after AVX2 detection succeeded.
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256,
        _mm256_blend_epi32, _mm256_cvtepu16_epi32, _mm256_extract_epi32, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_permutevar8x32_epi32, _mm256_sad_epu8, _mm256_set1_epi32,
        _mm256_set1_epi8, _mm256_setr_epi32, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_slli_si256, _mm256_srli_epi16, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_and_si128, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
        _mm_set1_epi16, _mm_shuffle_epi8, _mm_srli_epi16,
    };

    /// Per-64-bit-lane popcount of `v` (Muła's nibble-LUT algorithm).
    #[inline(always)]
    unsafe fn popcnt_epi64(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Sum the four 64-bit lanes of an accumulator.
    #[inline(always)]
    unsafe fn hsum_epi64(v: __m256i) -> usize {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as usize
    }

    #[target_feature(enable = "avx2")]
    unsafe fn popcount_impl(words: &[u64]) -> usize {
        let mut chunks = words.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for c in &mut chunks {
            let v = _mm256_loadu_si256(c.as_ptr().cast());
            acc = _mm256_add_epi64(acc, popcnt_epi64(v));
        }
        let mut total = hsum_epi64(acc);
        for &w in chunks.remainder() {
            total += w.count_ones() as usize;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    unsafe fn or_into_impl(dst: &mut [u64], src: &[u64]) {
        let mut d_chunks = dst.chunks_exact_mut(4);
        let mut s_chunks = src.chunks_exact(4);
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            let dv = _mm256_loadu_si256(d.as_ptr().cast());
            let sv = _mm256_loadu_si256(s.as_ptr().cast());
            _mm256_storeu_si256(d.as_mut_ptr().cast(), _mm256_or_si256(dv, sv));
        }
        for (d, &s) in d_chunks
            .into_remainder()
            .iter_mut()
            .zip(s_chunks.remainder())
        {
            *d |= s;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn union_or_count_impl(dst: &mut [u64], src: &[u64]) -> usize {
        let mut d_chunks = dst.chunks_exact_mut(4);
        let mut s_chunks = src.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            let dv = _mm256_loadu_si256(d.as_ptr().cast());
            let sv = _mm256_loadu_si256(s.as_ptr().cast());
            let merged = _mm256_or_si256(dv, sv);
            _mm256_storeu_si256(d.as_mut_ptr().cast(), merged);
            acc = _mm256_add_epi64(acc, popcnt_epi64(_mm256_xor_si256(merged, dv)));
        }
        let mut newly = hsum_epi64(acc);
        for (d, &s) in d_chunks
            .into_remainder()
            .iter_mut()
            .zip(s_chunks.remainder())
        {
            let merged = *d | s;
            newly += (merged ^ *d).count_ones() as usize;
            *d = merged;
        }
        newly
    }

    /// `union_or_count_impl` reading the source as little-endian bytes:
    /// x86-64 is little-endian, so an unaligned 32-byte load of the wire
    /// image is the same vector as a load of the decoded words.
    #[target_feature(enable = "avx2")]
    unsafe fn union_or_count_bytes_impl(dst: &mut [u64], src: &[u8]) -> usize {
        let mut d_chunks = dst.chunks_exact_mut(4);
        let mut s_chunks = src.chunks_exact(32);
        let mut acc = _mm256_setzero_si256();
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            let dv = _mm256_loadu_si256(d.as_ptr().cast());
            let sv = _mm256_loadu_si256(s.as_ptr().cast());
            let merged = _mm256_or_si256(dv, sv);
            _mm256_storeu_si256(d.as_mut_ptr().cast(), merged);
            acc = _mm256_add_epi64(acc, popcnt_epi64(_mm256_xor_si256(merged, dv)));
        }
        hsum_epi64(acc)
            + super::scalar::union_or_count_bytes(d_chunks.into_remainder(), s_chunks.remainder())
    }

    #[target_feature(enable = "avx2")]
    unsafe fn or_accumulate_popcount_impl(acc: &mut [u64], src: &[u64]) -> usize {
        let mut a_chunks = acc.chunks_exact_mut(4);
        let mut s_chunks = src.chunks_exact(4);
        let mut pops = _mm256_setzero_si256();
        for (a, s) in (&mut a_chunks).zip(&mut s_chunks) {
            let av = _mm256_loadu_si256(a.as_ptr().cast());
            let sv = _mm256_loadu_si256(s.as_ptr().cast());
            let merged = _mm256_or_si256(av, sv);
            _mm256_storeu_si256(a.as_mut_ptr().cast(), merged);
            pops = _mm256_add_epi64(pops, popcnt_epi64(merged));
        }
        let mut pop = hsum_epi64(pops);
        for (a, &s) in a_chunks
            .into_remainder()
            .iter_mut()
            .zip(s_chunks.remainder())
        {
            let merged = *a | s;
            pop += merged.count_ones() as usize;
            *a = merged;
        }
        pop
    }

    /// How the eight bytes of one stride split into varints, by table
    /// index `carry << 8 | mask`: `mask` holds the stride bytes'
    /// continuation bits, `carry` whether the byte before the stride
    /// begins a varint that ends inside it. `shuffle` gathers each
    /// varint that ends in the stride into a 16-bit lane of the 16
    /// bytes loaded from one byte before the stride (low byte, then high
    /// byte or `0x80`, which zeroes); `count` varints end in the stride.
    /// A varint of three bytes or more makes the stride `LONG`.
    #[derive(Clone, Copy)]
    struct Split {
        shuffle: [u8; 16],
        count: u8,
    }

    const LONG: u8 = u8::MAX;

    const SPLITS: [Split; 512] = {
        let mut table = [Split {
            shuffle: [0x80; 16],
            count: 0,
        }; 512];
        let mut index = 0;
        while index < 512 {
            // Register byte `i` is a continuation byte: byte 0 is the
            // carried one, bytes 1..=8 the stride.
            let cont = (index & 0xff) << 1 | index >> 8;
            let mut s = if index >> 8 == 1 { 0 } else { 1 };
            let mut count = 0;
            while s <= 8 {
                if cont >> s & 1 == 0 {
                    table[index].shuffle[2 * count] = s as u8;
                    s += 1;
                } else if s == 8 {
                    break;
                } else if cont >> (s + 1) & 1 == 0 {
                    table[index].shuffle[2 * count] = s as u8;
                    table[index].shuffle[2 * count + 1] = s as u8 + 1;
                    s += 2;
                } else {
                    count = LONG as usize;
                    break;
                }
                count += 1;
            }
            table[index].count = count as u8;
            index += 1;
        }
        table
    };

    /// [`super::scalar::varint_positions`] a fixed eight-byte stride at
    /// a time: every byte with its top bit clear ends a varint wherever
    /// the stride starts, so a stride's split is one table lookup on its
    /// continuation bits (plus the carried one) and no stride waits on
    /// the one before it. A table shuffle gathers the varints into
    /// 16-bit lanes; their running sums come from two in-lane shifts and
    /// one cross-lane carry.
    #[target_feature(enable = "avx2")]
    unsafe fn varint_positions_impl(
        bytes: &[u8],
        mut at: usize,
        pos: u32,
        out: &mut [u32],
        limit: usize,
    ) -> (usize, usize) {
        let mut k = 0usize;
        let mut carry = 0usize;
        let low7 = _mm_set1_epi16(0x7f);
        let high7 = _mm_set1_epi16(0x3f80);
        let cross = _mm256_setr_epi32(0, 0, 0, 0, 3, 3, 3, 3);
        let last = _mm256_set1_epi32(7);
        let mut posv = _mm256_set1_epi32(pos as i32);
        // The load starts one byte before the stride.
        while k + 8 <= out.len() && at >= 1 && at + 15 <= bytes.len() {
            let reg = _mm_loadu_si128(bytes.as_ptr().add(at - 1).cast::<__m128i>());
            let mask = (_mm_movemask_epi8(reg) as usize >> 1) & 0xff;
            let split = &SPLITS[carry << 8 | mask];
            let count = usize::from(split.count);
            // A stride is taken whole: every varint that ends in it must
            // be wanted, and when the last wanted one ends in it, so
            // must the stride (the next bytes are another record's).
            if split.count == LONG || k + count > limit || (k + count == limit && mask >> 7 == 1) {
                break;
            }
            let lanes = _mm_shuffle_epi8(reg, _mm_loadu_si128(split.shuffle.as_ptr().cast()));
            let gaps = _mm_or_si128(
                _mm_and_si128(lanes, low7),
                _mm_and_si128(_mm_srli_epi16(lanes, 1), high7),
            );
            let mut sums = _mm256_cvtepu16_epi32(gaps);
            sums = _mm256_add_epi32(sums, _mm256_slli_si256(sums, 4));
            sums = _mm256_add_epi32(sums, _mm256_slli_si256(sums, 8));
            let low_total = _mm256_blend_epi32(
                _mm256_setzero_si256(),
                _mm256_permutevar8x32_epi32(sums, cross),
                0b1111_0000,
            );
            sums = _mm256_add_epi32(_mm256_add_epi32(sums, low_total), posv);
            // `out[k..k + 8]` is in bounds (checked above); lanes past
            // `count` repeat the last position and are overwritten next.
            _mm256_storeu_si256(out.as_mut_ptr().add(k).cast(), sums);
            posv = _mm256_permutevar8x32_epi32(sums, last);
            k += count;
            at += 8;
            carry = mask >> 7;
        }
        // A varint begun in the last stride resumes at its first byte.
        let pos = _mm256_extract_epi32(posv, 0) as u32;
        super::scalar::one_by_one(bytes, pos, &mut out[..limit], k, at - carry)
    }

    // Safe wrappers with the plain `fn` signature the dispatch table
    // needs. SAFETY (all of them): these symbols are referenced only by the
    // `AVX2` table, which `WordKernels::dispatched` installs exclusively
    // after `is_x86_feature_detected!("avx2")` returned true, so the
    // target-feature contract of the inner functions holds.

    pub(super) fn popcount(words: &[u64]) -> usize {
        unsafe { popcount_impl(words) }
    }

    pub(super) fn or_into(dst: &mut [u64], src: &[u64]) {
        unsafe { or_into_impl(dst, src) }
    }

    pub(super) fn union_or_count(dst: &mut [u64], src: &[u64]) -> usize {
        unsafe { union_or_count_impl(dst, src) }
    }

    pub(super) fn union_or_count_bytes(dst: &mut [u64], src: &[u8]) -> usize {
        unsafe { union_or_count_bytes_impl(dst, src) }
    }

    pub(super) fn varint_positions(
        bytes: &[u8],
        at: usize,
        pos: u32,
        out: &mut [u32],
        limit: usize,
    ) -> (usize, usize) {
        unsafe { varint_positions_impl(bytes, at, pos, out, limit) }
    }

    pub(super) fn or_accumulate_popcount(acc: &mut [u64], src: &[u64]) -> usize {
        unsafe { or_accumulate_popcount_impl(acc, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn or_gather_popcount_impl(acc: &mut [u64], srcs: &[&[u64]], overwrite: bool) -> usize {
        let n = acc.len();
        let zero = _mm256_setzero_si256();
        let mut pops = zero;
        let mut i = 0usize;
        while i + 4 <= n {
            let mut v = if overwrite {
                zero
            } else {
                _mm256_loadu_si256(acc.as_ptr().add(i).cast())
            };
            for s in srcs {
                // Length equality is asserted by the dispatch wrapper,
                // so `s.as_ptr().add(i)` stays in bounds.
                v = _mm256_or_si256(v, _mm256_loadu_si256(s.as_ptr().add(i).cast()));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), v);
            pops = _mm256_add_epi64(pops, popcnt_epi64(v));
            i += 4;
        }
        let mut pop = hsum_epi64(pops);
        for j in i..n {
            let mut v = if overwrite { 0 } else { acc[j] };
            for s in srcs {
                v |= s[j];
            }
            acc[j] = v;
            pop += v.count_ones() as usize;
        }
        pop
    }

    pub(super) fn or_gather_popcount(acc: &mut [u64], srcs: &[&[u64]], overwrite: bool) -> usize {
        unsafe { or_gather_popcount_impl(acc, srcs, overwrite) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word-slice generator covering the shapes the issue
    /// calls out: empty, single word, vector-width multiples, odd
    /// lengths with tails, all-zeros, all-ones.
    fn cases() -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 64, 125, 127, 200] {
            let a: Vec<u64> = (0..len).map(|_| next()).collect();
            let b: Vec<u64> = (0..len).map(|_| next()).collect();
            out.push((a, b));
            out.push((vec![0u64; len], vec![u64::MAX; len]));
            out.push((vec![u64::MAX; len], vec![u64::MAX; len]));
        }
        out
    }

    #[test]
    fn dispatched_and_scalar_are_bit_identical() {
        let d = WordKernels::dispatched();
        let s = WordKernels::scalar();
        for (a, b) in cases() {
            assert_eq!(d.popcount(&a), s.popcount(&a), "popcount len {}", a.len());

            let (mut da, mut sa) = (a.clone(), a.clone());
            d.or_into(&mut da, &b);
            s.or_into(&mut sa, &b);
            assert_eq!(da, sa, "or_into len {}", a.len());

            let (mut da, mut sa) = (a.clone(), a.clone());
            let dn = d.union_or_count(&mut da, &b);
            let sn = s.union_or_count(&mut sa, &b);
            assert_eq!(da, sa, "union_or_count words len {}", a.len());
            assert_eq!(dn, sn, "union_or_count count len {}", a.len());

            let b_bytes: Vec<u8> = b.iter().flat_map(|w| w.to_le_bytes()).collect();
            let (mut da, mut sa) = (a.clone(), a.clone());
            let dn = d.union_or_count_bytes(&mut da, &b_bytes);
            let sn = s.union_or_count_bytes(&mut sa, &b_bytes);
            assert_eq!((da, dn), (sa, sn), "union_or_count_bytes len {}", a.len());

            let (mut da, mut sa) = (a.clone(), a.clone());
            let dp = d.or_accumulate_popcount(&mut da, &b);
            let sp = s.or_accumulate_popcount(&mut sa, &b);
            assert_eq!(da, sa, "or_accumulate words len {}", a.len());
            assert_eq!(dp, sp, "or_accumulate pop len {}", a.len());

            for overwrite in [true, false] {
                for srcs in [
                    &[&a[..]][..],
                    &[&a[..], &b[..]][..],
                    &[&b[..], &a[..], &b[..]][..],
                ] {
                    let (mut da, mut sa) = (b.clone(), b.clone());
                    let dg = d.or_gather_popcount(&mut da, srcs, overwrite);
                    let sg = s.or_gather_popcount(&mut sa, srcs, overwrite);
                    assert_eq!(
                        (da, dg),
                        (sa, sg),
                        "or_gather len {} srcs {} overwrite {overwrite}",
                        a.len(),
                        srcs.len()
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_agree_with_first_principles() {
        for (a, b) in cases() {
            let k = WordKernels::dispatched();
            let expect_pop: usize = a.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(k.popcount(&a), expect_pop);

            let mut merged = a.clone();
            let newly = k.union_or_count(&mut merged, &b);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
            assert_eq!(merged, expect);
            assert_eq!(newly, k.popcount(&expect) - expect_pop);

            let b_bytes: Vec<u8> = b.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(popcount_bytes(&b_bytes), k.popcount(&b));
            let mut merged = a.clone();
            assert_eq!(k.union_or_count_bytes(&mut merged, &b_bytes), newly);
            assert_eq!(merged, expect);

            let mut acc = a.clone();
            let pop = k.or_accumulate_popcount(&mut acc, &b);
            assert_eq!(acc, expect);
            assert_eq!(pop, k.popcount(&expect));

            // Gather with overwrite rebuilds the same union from
            // scratch contents that must be ignored; without overwrite
            // it accumulates on top.
            let mut gathered = vec![u64::MAX; a.len()];
            let pop = k.or_gather_popcount(&mut gathered, &[&a, &b], true);
            assert_eq!(gathered, expect);
            assert_eq!(pop, k.popcount(&expect));
            let mut acc2 = a.clone();
            let pop = k.or_gather_popcount(&mut acc2, &[&b], false);
            assert_eq!(acc2, expect);
            assert_eq!(pop, k.popcount(&expect));
            if !a.is_empty() {
                let mut acc3 = a.clone();
                assert_eq!(
                    k.or_gather_popcount(&mut acc3, &[], false),
                    k.popcount(&a),
                    "empty gather is a popcount of the accumulator"
                );
                assert_eq!(acc3, a);
            }
        }
    }

    #[test]
    fn free_functions_route_through_the_dispatched_table() {
        let a = vec![0b1011u64, u64::MAX, 0];
        let b = vec![0b0110u64, 1, 1 << 63];
        assert_eq!(popcount_slice(&a), 3 + 64);
        let mut d = a.clone();
        assert_eq!(union_or_count(&mut d, &b), 2);
        let mut d2 = a.clone();
        or_into(&mut d2, &b);
        assert_eq!(d, d2);
        let mut acc = a;
        assert_eq!(or_accumulate_popcount(&mut acc, &b), 3 + 64 + 2);
        assert_eq!(acc, d);
        assert!(matches!(active_path(), "avx2" | "scalar"));
        assert_eq!(active_path(), WordKernels::dispatched().name());
        assert_eq!(WordKernels::scalar().name(), "scalar");
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        union_or_count(&mut [0u64; 2], &[0u64; 3]);
    }
}
