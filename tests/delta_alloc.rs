//! Allocation bounds of the v3 delta path, measured with a counting
//! global allocator.
//!
//! - `DeltaView::validate` allocates nothing, for valid and hostile
//!   frames alike (a refusal carries a static message).
//! - Applying a validated view onto a warmed ring — keys present, guard
//!   not growing — allocates nothing, whether the view decodes its
//!   sparse positions as it goes or carries the ones validation kept.
//! - `decode` of an N-record frame makes the same small number of
//!   allocations for every N, never grows one, and allocates at most a
//!   constant times the wire length in bytes — also for hostile frames,
//!   which must never drive per-record scratch of a stride's size.
//! - `encode` makes exactly one allocation, sized to the output.
//! - `push` allocates only when one of the frame's three arrays grows
//!   geometrically, never per record, and within the same byte bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sbitmap::core::codec::MAX_WIRE_M;
use sbitmap::core::{AbsorbOutcome, CheckedDelta, DeltaView, FleetDeltaFrame};
use sbitmap::hash::{mix64, xxh64};
use sbitmap::{Checkpoint, WindowedFleet};

struct Counting;

thread_local! {
    /// (allocations, bytes, reallocations) made by this thread; a
    /// reallocation counts as an allocation of its new size too.
    static COUNT: Cell<(usize, usize, usize)> = const { Cell::new((0, 0, 0)) };
}

fn note(bytes: usize, grew: bool) {
    let _ = COUNT.try_with(|c| {
        let (n, b, g) = c.get();
        c.set((n + 1, b + bytes, g + usize::from(grew)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local `Cell` (no allocation,
// no destructor), so counting cannot recurse into the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, true);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its output and the (allocations, bytes) it made;
/// panics if it reallocated and `may_grow` is false.
fn measure<T>(may_grow: bool, f: impl FnOnce() -> T) -> (T, usize, usize) {
    // The word kernels pick their table on first use, reading
    // `SBITMAP_FORCE_SCALAR` (an allocation when it is set): do that
    // outside the measured region.
    sbitmap::bitvec::kernels::WordKernels::dispatched();
    let (n0, b0, g0) = COUNT.with(Cell::get);
    let out = f();
    let (n1, b1, g1) = COUNT.with(Cell::get);
    assert!(may_grow || g1 == g0, "{} reallocations", g1 - g0);
    (out, n1 - n0, b1 - b0)
}

const M: usize = 8_000;
const STRIDE: usize = M.div_ceil(64);

/// Key `key`'s delta image: sparse, medium or dense by key.
fn image(key: u64) -> Vec<u64> {
    let density = [1u64, 8, 64, 200][key as usize % 4];
    (0..STRIDE as u64)
        .map(|w| {
            (0..64u64)
                .filter(|b| mix64(key << 32 ^ w << 8 ^ b) % 256 < density)
                .fold(0u64, |acc, b| acc | 1 << b)
        })
        .collect()
}

fn frame_of(records: u64) -> FleetDeltaFrame {
    let mut frame = FleetDeltaFrame::new(1_000_000, M, 32, 9, 3, 1);
    for key in 0..records {
        frame.push(key, &image(key));
    }
    frame
}

/// Round `round` of a chain over keys `0..records`: each round's images
/// differ, so later rounds set bits the earlier ones did not.
fn round_of(records: u64, sampling_bits: u32, round: u32) -> FleetDeltaFrame {
    let mut frame = FleetDeltaFrame::new(1_000_000, M, sampling_bits, 9, 3, round);
    for key in 0..records {
        frame.push(key, &image(key * 3 + u64::from(round)));
    }
    frame
}

#[test]
fn decode_allocations_are_constant_and_wire_proportional() {
    let mut counts = Vec::new();
    for n in [1u64, 4, 40, 400] {
        let bytes = frame_of(n).encode();
        let (frame, allocs, alloc_bytes) =
            measure(false, || FleetDeltaFrame::decode(&bytes).unwrap());
        assert_eq!(frame.len(), n as usize);
        assert!(
            alloc_bytes <= 5 * bytes.len(),
            "{n} records: {alloc_bytes} bytes allocated for {} on the wire",
            bytes.len()
        );
        // Dropping the frame frees the same few buffers.
        drop(frame);
        counts.push(allocs);
    }
    assert!(
        counts.iter().all(|&c| c == 3),
        "allocations per decode by record count: {counts:?}"
    );
}

#[test]
fn validate_allocates_nothing_for_valid_and_hostile_frames() {
    for n in [0u64, 1, 4, 40, 400] {
        let bytes = frame_of(n).encode();
        let (len, allocs, _) = measure(false, || DeltaView::validate(&bytes).unwrap().len());
        assert_eq!(len, n as usize);
        assert_eq!(allocs, 0, "{n} records");
    }
    for (what, bytes, ok) in hostile_cases() {
        let (valid, allocs, _) = measure(false, || DeltaView::validate(&bytes).is_ok());
        assert_eq!(valid, ok, "{what}");
        assert_eq!(allocs, 0, "{what}");
    }
}

#[test]
fn applying_a_view_onto_a_warmed_ring_allocates_nothing() {
    let mut ring: WindowedFleet = WindowedFleet::new(1_000_000, M, 9, 2).unwrap();
    ring.advance_to(3).unwrap();
    let sampling_bits = ring.schedule().split().sampling_bits();
    let chain: Vec<Vec<u8>> = (0..3)
        .map(|round| round_of(40, sampling_bits, round).encode())
        .collect();
    let checked: Vec<CheckedDelta> = chain
        .iter()
        .map(|b| CheckedDelta::new(b.clone()).unwrap())
        .collect();
    // Views that decode their positions as they apply, and views that
    // carry the ones validation kept (the daemon's).
    let views: Vec<DeltaView<'_>> = chain
        .iter()
        .map(|b| DeltaView::validate(b).unwrap())
        .chain(checked.iter().map(CheckedDelta::view))
        .collect();
    // Warm: every key gets its slot, the guard its capacity.
    for view in &views[..chain.len()] {
        ring.absorb_delta_view(5, view).unwrap();
    }
    let warm = ring.checkpoint();
    for views in views.chunks(chain.len()) {
        ring.reset_all();
        let (outcomes, allocs, _) = measure(false, || {
            views
                .iter()
                .map(|view| ring.absorb_delta_view(5, view).unwrap())
                .collect::<Vec<_>>()
        });
        assert!(outcomes.iter().all(|&o| o == AbsorbOutcome::Absorbed));
        // The outcome vector itself is the only allocation.
        assert_eq!(allocs, 1, "apply allocated");
        assert_eq!(
            ring.checkpoint(),
            warm,
            "apply after reset reproduces the ring"
        );
    }
}

#[test]
fn encode_is_one_exact_allocation_and_push_never_allocates_per_record() {
    for n in [1u64, 4, 40, 400] {
        let images: Vec<Vec<u64>> = (0..n).map(image).collect();
        let (frame, push_allocs, push_bytes) = measure(true, || {
            let mut frame = FleetDeltaFrame::new(1_000_000, M, 32, 9, 3, 1);
            for (key, words) in images.iter().enumerate() {
                frame.push(key as u64, words);
            }
            frame
        });
        let (bytes, encode_allocs, encode_bytes) = measure(false, || frame.encode());
        assert_eq!(encode_allocs, 1, "{n} records");
        assert_eq!(
            encode_bytes,
            bytes.len(),
            "{n} records: output sized exactly"
        );
        // Three arrays, each doubling from empty: a handful of
        // reallocations per array however many records arrive.
        let growth = 3 * (usize::BITS - (n as usize * STRIDE * 64).leading_zeros()) as usize;
        assert!(
            push_allocs <= growth,
            "{n} records: {push_allocs} allocations (growth bound {growth})"
        );
        assert!(
            push_bytes + encode_bytes <= 20 * bytes.len(),
            "{n} records: {} bytes allocated for {} on the wire",
            push_bytes + encode_bytes,
            bytes.len()
        );
    }
}

/// Framed v3 bytes: header at `m`, `count` records, then `records`
/// (raw record bytes), resealed.
fn hostile(m: u64, count: u64, records: &[u8]) -> Vec<u8> {
    let mut body = b"SBMP\x03\x0b".to_vec();
    for field in [1_000_000u64, m] {
        body.extend_from_slice(&field.to_le_bytes());
    }
    body.extend_from_slice(&32u32.to_le_bytes());
    body.extend_from_slice(&9u64.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(records);
    let checksum = xxh64(&body, 0);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Resealed frames that lie about their geometry, and whether each is
/// in fact valid.
fn hostile_cases() -> Vec<(&'static str, Vec<u8>, bool)> {
    let m = MAX_WIRE_M as u64;
    // Many one-bit sparse records at the widest m: a dense per-record
    // staging buffer would be m/8 bytes each (~35 000x the wire here).
    let mut one_bit = Vec::new();
    for key in 0..20_000u64 {
        one_bit.extend_from_slice(&key.to_le_bytes());
        one_bit.extend_from_slice(&1u32.to_le_bytes());
        one_bit.push(1);
        one_bit.push(0x7f);
    }
    // The same records plus a last one that claims m positions and
    // carries one byte.
    let mut lying = one_bit.clone();
    lying.extend_from_slice(&u64::MAX.to_le_bytes());
    lying.extend_from_slice(&(m as u32).to_le_bytes());
    lying.push(1);
    lying.push(0);
    // A sparse record whose position count reaches into the heads of
    // the records after it.
    let mut into_heads = Vec::new();
    into_heads.extend_from_slice(&0u64.to_le_bytes());
    into_heads.extend_from_slice(&40u32.to_le_bytes());
    into_heads.push(1);
    into_heads.push(5);
    for key in 1..4u64 {
        into_heads.extend_from_slice(&key.to_le_bytes());
        into_heads.extend_from_slice(&0u32.to_le_bytes());
        into_heads.push(1);
    }
    // Empty records only (the most headers per wire byte).
    let mut empty = Vec::new();
    for key in 0..20_000u64 {
        empty.extend_from_slice(&key.to_le_bytes());
        empty.extend_from_slice(&0u32.to_le_bytes());
        empty.push(1);
    }
    // One runs record covering the whole stride with all-ones words
    // except a bits lie, found only after every word was read.
    let stride = (m as usize).div_ceil(64) as u32;
    let mut runs = Vec::new();
    runs.extend_from_slice(&0u64.to_le_bytes());
    runs.extend_from_slice(&7u32.to_le_bytes());
    runs.push(0);
    runs.extend_from_slice(&1u32.to_le_bytes());
    runs.extend_from_slice(&0u32.to_le_bytes());
    runs.extend_from_slice(&stride.to_le_bytes());
    for _ in 0..stride {
        runs.extend_from_slice(&u64::MAX.to_le_bytes());
    }
    vec![
        ("one-bit records", hostile(m, 20_000, &one_bit), true),
        ("lying count", hostile(m, 20_010, &one_bit), false),
        ("lying positions", hostile(m, 20_001, &lying), false),
        ("empty records", hostile(m, 20_000, &empty), true),
        (
            "positions reaching into later heads",
            hostile(m, 4, &into_heads),
            false,
        ),
        ("runs with a bits lie", hostile(m, 1, &runs), false),
        (
            "count beyond the bytes",
            hostile(m, u64::MAX / 13, &empty),
            false,
        ),
    ]
}

#[test]
fn hostile_frames_never_amplify_past_the_wire_bound() {
    for (what, bytes, ok) in hostile_cases() {
        let (decoded, allocs, alloc_bytes) =
            measure(false, || FleetDeltaFrame::decode(&bytes).is_ok());
        assert_eq!(decoded, ok, "{what}");
        // The three arrays, plus the error message on a rejection.
        assert!(allocs <= 5, "{what}: {allocs} allocations");
        assert!(
            alloc_bytes <= 5 * bytes.len(),
            "{what}: {alloc_bytes} bytes allocated for {} on the wire",
            bytes.len()
        );
    }
}
