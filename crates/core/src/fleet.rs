//! Per-key seed derivation for fleets of S-bitmaps sharing one rate
//! schedule — the deployment pattern of the paper's §7.2 (600 backbone
//! links, one configuration).

/// Per-key sketch seed derivation: a pure function of `(fleet seed, key)`
/// so a restored fleet rebuilds identical hashers.
///
/// Public because both fleet storage types ([`crate::FleetArena`],
/// [`crate::SparseFleet`]), node agents and the stream collector derive
/// per-key seeds through this one function — which is what makes their
/// per-key sketches interchangeable with standalone [`crate::SBitmap`]s
/// and their checkpoints mutually restorable.
pub fn sketch_seed(fleet_seed: u64, key: u64) -> u64 {
    sbitmap_hash::mix64(fleet_seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}
