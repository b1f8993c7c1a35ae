//! The per-key reference the fleet storage types are held to: one
//! standalone `SBitmap` per key in a `HashMap`, each hashing with the
//! seed `sketch_seed(fleet seed, key)` derives, fed pair by pair. It
//! replaces the HashMap-backed `SketchFleet` the suites once compared
//! against, and shares no storage, routing or batching code with
//! `FleetArena` or `SparseFleet`.
//!
//! It also writes the documented tag-9 checkpoint (`docs/wire-format.md`)
//! from its own sketches, so a fleet's checkpoint bytes are checked
//! against an independent encoder.
//!
//! Several test binaries include this file; each uses part of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Arc;

use sbitmap::core::codec::{CounterKind, PayloadReader, PayloadWriter};
use sbitmap::core::fleet::sketch_seed;
use sbitmap::hash::{FromSeed, SplitMix64Hasher};
use sbitmap::{Checkpoint, DistinctCounter, RateSchedule, SBitmap, SBitmapError};

/// Standalone per-key sketches over one shared schedule.
pub struct KeyedOracle {
    schedule: Arc<RateSchedule>,
    seed: u64,
    sketches: HashMap<u64, SBitmap>,
}

impl KeyedOracle {
    /// An empty oracle for `m`-bit sketches counting up to `n_max`.
    pub fn new(n_max: u64, m: usize, seed: u64) -> Self {
        Self {
            schedule: Arc::new(RateSchedule::from_memory(n_max, m).unwrap()),
            seed,
            sketches: HashMap::new(),
        }
    }

    /// Feed one pair into its key's sketch (created on first sight).
    pub fn insert(&mut self, key: u64, item: u64) {
        let (schedule, seed) = (&self.schedule, self.seed);
        self.sketches
            .entry(key)
            .or_insert_with(|| {
                SBitmap::with_shared_schedule(
                    schedule.clone(),
                    SplitMix64Hasher::from_seed(sketch_seed(seed, key)),
                )
            })
            .insert_u64(item);
    }

    /// Feed every pair, in order, one at a time.
    pub fn insert_pairs(&mut self, pairs: &[(u64, u64)]) {
        for &(key, item) in pairs {
            self.insert(key, item);
        }
    }

    /// Keys with a sketch, ascending.
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.sketches.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// All `(key, sketch)` pairs, in ascending key order.
    pub fn sketches(&self) -> impl Iterator<Item = (u64, &SBitmap)> + '_ {
        self.keys_sorted()
            .into_iter()
            .map(move |key| (key, &self.sketches[&key]))
    }

    /// One key's sketch; `None` before the key's first pair.
    pub fn sketch(&self, key: u64) -> Option<&SBitmap> {
        self.sketches.get(&key)
    }

    /// Number of keys seen.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Keys whose sketches have saturated, ascending.
    pub fn saturated_keys(&self) -> Vec<u64> {
        self.sketches()
            .filter(|(_, sketch)| sketch.is_saturated())
            .map(|(key, _)| key)
            .collect()
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &Arc<RateSchedule> {
        &self.schedule
    }
}

/// The tag-9 payload: `n_max` (u64), `m` (u64), sampling `d` (u32),
/// fleet seed (u64), key count (u64), then per key in ascending order:
/// key (u64), fill (u64) and the `⌈m/64⌉` bitmap words.
impl Checkpoint for KeyedOracle {
    const KIND: CounterKind = CounterKind::SketchFleet;

    fn write_payload(&self, out: &mut PayloadWriter) {
        let dims = self.schedule.dims();
        out.u64(dims.n_max());
        out.u64(dims.m() as u64);
        out.u32(self.schedule.split().sampling_bits());
        out.u64(self.seed);
        out.u64(self.sketches.len() as u64);
        for (key, sketch) in self.sketches() {
            out.u64(key);
            out.u64(sketch.fill() as u64);
            out.words(sketch.bitmap().words());
        }
    }

    /// The oracle only writes checkpoints: the suites restore into the
    /// storage types under test and keep feeding the oracle itself.
    fn read_payload(_: &mut PayloadReader<'_>) -> Result<Self, SBitmapError> {
        unreachable!("the keyed oracle is never restored")
    }
}
