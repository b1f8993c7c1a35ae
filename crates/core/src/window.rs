//! Sliding-window distinct counting on epoch arenas.
//!
//! The paper's motivating workload — per-link flow counting on a
//! backbone — is temporal: operators ask *"how many distinct flows in
//! the last N minutes"*, not *"since process start"*. The S-bitmap
//! cannot answer that from one sketch (it is neither mergeable nor
//! decrementable), so this module does what §7.1's per-interval usage
//! pattern implies at fleet scale: keep a **ring of W epoch fleets**,
//! one [`FleetArena`] per epoch, and answer window queries over the live
//! epochs.
//!
//! * **Rotation** is driven by [`EpochClock`] — a pure item-count /
//!   caller-tick clock, no wall time anywhere, so every run is
//!   deterministic and replayable. The same clock type backs
//!   [`crate::RotatingCounter`], so the workspace has exactly one
//!   rotation mechanism.
//! * **Ingest** lands in the current epoch's arena at full arena speed:
//!   the only overhead over a plain [`FleetArena::insert_batch`] is the
//!   clock bookkeeping and, on a count-driven clock, splitting a batch
//!   at an epoch boundary (so batched and scalar feeds stay
//!   bit-identical — the same contract every other batch path in this
//!   workspace honors).
//! * **Queries** merge one key's per-epoch bitmaps through the
//!   runtime-dispatched [`sbitmap_bitvec::kernels`] gather kernel in
//!   one fused pass — every live region read once, fleet-owned scratch
//!   written once, popcount taken in the same pass — amortized
//!   O(⌈m/64⌉ · W) per query with **zero allocation after warmup**. A
//!   key live in a single epoch skips scratch entirely (the fill
//!   counter is already the union popcount), and the estimator curve
//!   is a precomputed table ([`RateSchedule::estimate_at`]), so a
//!   query performs no transcendental math.
//! * **Expiry** is O(1) amortized: rotating past window capacity clears
//!   the oldest arena in place (allocations are kept and reused).
//!
//! ## The windowed estimator, honestly
//!
//! The S-bitmap is not mergeable: sampling depends on the fill at
//! arrival time, so no function of per-epoch sketches reproduces the
//! sketch a single S-bitmap over the whole window would hold. What the
//! per-epoch state *does* support are two upper-bound-flavored reads,
//! and the window estimate takes their minimum:
//!
//! * **`t(U)`** — the estimator applied to the union fill `U`
//!   (popcount of the OR of the key's per-epoch bitmaps). A key's
//!   per-epoch sketches share one derived hasher, so a flow present in
//!   several epochs lands in the *same* bucket and is counted once; in
//!   the limit of identical epoch streams the per-epoch bitmaps are
//!   bit-identical (the update is deterministic) and `t(U)` is exactly
//!   the paper's estimate. For *disjoint* epochs it overestimates:
//!   every epoch restarts at high sampling rates, so the union holds
//!   more bits than one saturating sketch would, and `t_B` is
//!   exponential in `B`.
//! * **`Σ t(Lₑ)`** — the sum of the per-epoch estimates (each unbiased
//!   for its epoch, Theorem 3). Exact for disjoint epoch substreams;
//!   overestimates when flows persist across epochs (double counting).
//!
//! `min` picks whichever regime the data is in, and both terms err
//! upward. Between the two regimes neither term is close. Let ρ be the
//! fraction of a key's flows that recur in every epoch. On a ring with
//! W = 8, m = 8000, `N_max` = 1.5M and 200 keys, each epoch feeding a
//! key 5000 or 50000 items, the measured RRMSE (nearly all of it upward
//! bias) is:
//!
//! | ρ | 0 | 0.25 | 0.5 | 1 |
//! |---|---|---|---|---|
//! | RRMSE | 0.9% | 28% | 78% | 2.4% |
//!
//! The paper's bound for one sketch of that shape
//! ([`crate::theory::rrmse`]) is 2.3%. So the windowed estimate meets
//! it only at the ends: disjoint epochs (ρ = 0) and identical epochs
//! (ρ = 1). No current workload has ρ > 0: every generator, windowed
//! test and benchmark draws disjoint per-(link, epoch) substreams.
//!
//! With W = 1 the two terms coincide and the windowed estimate *is* the
//! paper's estimator. Everything is a deterministic function of
//! per-epoch fills and bitmaps, which is what lets the property tests
//! lock the windowed estimate to a naive reference over standalone
//! per-epoch, per-key [`crate::SBitmap`]s bit-for-bit — no statistical
//! guarantee the paper does not offer is pretended; deployments that
//! need exact windowed unions at scale should pair the ring with a
//! mergeable sketch (see the HyperLogLog lane of
//! `sbitmap_stream::collector`).

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use sbitmap_bitvec::Bitmap;
use sbitmap_hash::{FromSeed, Hasher64, SplitMix64Hasher};

use crate::arena::FleetArena;
use crate::codec::{
    Checkpoint, CounterKind, DeltaSource, DeltaView, FleetDeltaFrame, PayloadReader, PayloadWriter,
};
use crate::counter::KeyedEstimates;
use crate::fleet::sketch_seed;
use crate::schedule::RateSchedule;
use crate::sketch::SBitmap;
use crate::SBitmapError;

/// A deterministic epoch clock: item-count driven or caller driven,
/// never wall time.
///
/// This is the single rotation mechanism of the workspace — both
/// [`WindowedFleet`] (a ring of epoch arenas) and
/// [`crate::RotatingCounter`] (a single counter with an estimate
/// history) advance through it. An unbudgeted clock only moves when the
/// caller says so ([`EpochClock::advance`]); a budgeted clock is due
/// after exactly `budget` recorded items, which makes epoch assignment a
/// pure function of the item sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochClock {
    /// Absolute index of the open epoch (starts at 0).
    epoch: u64,
    /// Items recorded into the open epoch so far.
    in_epoch: u64,
    /// Count-driven budget: the epoch is due after this many items.
    /// `None` = caller-driven only.
    budget: Option<u64>,
}

impl EpochClock {
    /// A caller-driven clock: epochs close only on [`EpochClock::advance`].
    pub fn unbounded() -> Self {
        Self {
            epoch: 0,
            in_epoch: 0,
            budget: None,
        }
    }

    /// A count-driven clock: the epoch is due after `budget` items.
    ///
    /// # Errors
    ///
    /// A zero budget (every insert would rotate before landing).
    pub fn with_budget(budget: u64) -> Result<Self, SBitmapError> {
        if budget == 0 {
            return Err(SBitmapError::invalid(
                "epoch_items",
                "per-epoch item budget must be at least 1".to_string(),
            ));
        }
        Ok(Self {
            epoch: 0,
            in_epoch: 0,
            budget: Some(budget),
        })
    }

    /// Absolute index of the open epoch (starts at 0).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Items recorded into the open epoch so far.
    #[inline]
    pub fn items_in_epoch(&self) -> u64 {
        self.in_epoch
    }

    /// The count-driven budget, if any.
    #[inline]
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Items that still fit in the open epoch (`None` = unbounded).
    #[inline]
    pub fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.in_epoch))
    }

    /// Record `n` items into the open epoch. Callers must not overfill:
    /// split batches at [`EpochClock::remaining`] first.
    #[inline]
    pub fn record(&mut self, n: u64) {
        debug_assert!(
            self.remaining().is_none_or(|r| n <= r),
            "epoch overfilled: recording {n} with {:?} remaining",
            self.remaining()
        );
        self.in_epoch += n;
    }

    /// `true` when the budget is exhausted and the epoch must close
    /// before the next item.
    #[inline]
    pub fn is_due(&self) -> bool {
        self.budget.is_some_and(|b| self.in_epoch >= b)
    }

    /// Close the open epoch and start the next. Returns the index of the
    /// epoch just closed.
    pub fn advance(&mut self) -> u64 {
        let closed = self.epoch;
        self.epoch += 1;
        self.in_epoch = 0;
        closed
    }
}

/// A sliding-window fleet: a ring of `W` epoch [`FleetArena`]s over one
/// shared schedule, answering per-key distinct estimates for the last
/// `W` epochs.
///
/// Ingest feeds the current epoch; [`WindowedFleet::rotate`] (or a
/// count-driven [`EpochClock`] budget) closes it, and the arena that
/// falls out of the window is cleared in place and reused. Queries OR
/// one key's live per-epoch bitmaps into a fleet-owned scratch region
/// and estimate from the union fill — see the module docs for exactly
/// what that estimator is (and is not).
///
/// ```
/// use sbitmap_core::WindowedFleet;
///
/// // Window of 3 epochs, ~4k distinct per window, key = link id.
/// let mut fleet: WindowedFleet = WindowedFleet::new(100_000, 4_000, 7, 3).unwrap();
/// for epoch in 0..5u64 {
///     if epoch > 0 {
///         fleet.rotate(); // close the minute, expire epoch − 3
///     }
///     for i in 0..800u64 {
///         fleet.insert_u64(1, epoch * 800 + i); // 800 fresh flows per epoch
///     }
/// }
/// // Only the last 3 epochs (2400 distinct flows) are still visible.
/// let windowed = fleet.estimate(1).unwrap();
/// assert!((windowed / 2_400.0 - 1.0).abs() < 0.25, "{windowed}");
/// assert_eq!(fleet.keys_sorted(), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedFleet<H: Hasher64 + FromSeed = SplitMix64Hasher> {
    /// Ring of epoch arenas; absolute epoch `e` lives at slot `e % W`.
    ring: Vec<FleetArena<H>>,
    clock: EpochClock,
    /// Words per key: `⌈m/64⌉`, shared by every epoch arena.
    stride: usize,
    /// Query scratch: the union of one key's live epoch bitmaps is
    /// assembled here, so a warm query allocates nothing. Interior
    /// mutability keeps queries `&self` like every other fleet flavor.
    scratch: RefCell<Vec<u64>>,
    /// Per-slot absorb guard: the `(source, round)` pairs whose frame
    /// for the slot's current epoch has already been absorbed. Full v2
    /// frames ([`WindowedFleet::absorb_epoch_from`]) record the
    /// [`FULL_FRAME_ROUND`] sentinel; v3 delta frames
    /// ([`WindowedFleet::absorb_delta_from`]) record their round, and
    /// the round-0 entry doubles as the baseline marker rounds > 0
    /// require. Cleared whenever the slot is reused, never serialized —
    /// see the method docs for why a restore losing the guard is safe.
    seen: Vec<HashSet<(u64, u32)>>,
}

/// The guard-set round sentinel full (non-delta) frames absorb under —
/// `u32::MAX` is rejected as a wire round index by the v3 decoder, so
/// the sentinel can never collide with a real delta round.
const FULL_FRAME_ROUND: u32 = u32::MAX;

/// What [`WindowedFleet::absorb_epoch_from`] did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbOutcome {
    /// The frame was folded into the ring (first delivery from this
    /// source for this epoch).
    Absorbed,
    /// The same `(source, epoch)` was already absorbed — the replay was
    /// skipped. State is unchanged (and would have been unchanged even
    /// without the guard: the storage-level union is an OR).
    Duplicate,
    /// The epoch has already expired from the window; the late frame was
    /// dropped, not an error.
    Expired,
}

impl<H: Hasher64 + FromSeed> WindowedFleet<H> {
    /// Largest window span a checkpoint is allowed to declare (the
    /// in-memory API has no such cap). 65536 epochs is far beyond any
    /// real monitoring window; the limit only exists so a corrupt or
    /// hostile 8-byte wire field cannot demand a ring allocation the
    /// rest of the payload never backs. Recorded in
    /// `docs/wire-format.md` (tag 10).
    pub const MAX_WIRE_WINDOW: usize = 1 << 16;

    /// Most `(source, round)` entries one epoch slot's absorb guard may
    /// hold. The guard exists to shortcut replays, but a peer that
    /// churns through source ids within one epoch would otherwise grow
    /// it without bound — a memory DoS on a long-lived collector. Once
    /// a slot reaches the cap, further frames from *new* guard
    /// identities are rejected with [`SBitmapError::GuardFull`] (the
    /// ring untouched); already-tracked identities keep working. 65536
    /// entries is far beyond any real agent fleet's `sources × rounds`
    /// per epoch.
    pub const MAX_GUARD_ENTRIES_PER_SLOT: usize = 1 << 16;

    /// Create a windowed fleet for cardinalities in `[1, n_max]` with
    /// `m` bits per key per epoch and a window of `window` epochs.
    ///
    /// Size `(n_max, m)` for the cardinality of the whole *window*, not
    /// of one epoch — the union estimator is at its best when per-epoch
    /// fills stay low (see the module docs).
    ///
    /// # Errors
    ///
    /// A zero window, or an invalid `(n_max, m)` (see
    /// [`crate::Dimensioning::from_memory`]).
    pub fn new(n_max: u64, m: usize, seed: u64, window: usize) -> Result<Self, SBitmapError> {
        Self::with_schedule(Arc::new(RateSchedule::from_memory(n_max, m)?), seed, window)
    }

    /// Create a windowed fleet over an existing shared schedule.
    ///
    /// # Errors
    ///
    /// A zero window.
    pub fn with_schedule(
        schedule: Arc<RateSchedule>,
        seed: u64,
        window: usize,
    ) -> Result<Self, SBitmapError> {
        if window == 0 {
            return Err(SBitmapError::invalid(
                "window",
                "window must span at least 1 epoch".to_string(),
            ));
        }
        let stride = schedule.dims().m().div_ceil(64);
        Ok(Self {
            ring: (0..window)
                .map(|_| FleetArena::with_schedule(schedule.clone(), seed))
                .collect(),
            clock: EpochClock::unbounded(),
            stride,
            scratch: RefCell::new(Vec::new()),
            seen: (0..window).map(|_| HashSet::new()).collect(),
        })
    }

    /// Switch to a count-driven clock: the epoch closes automatically
    /// after `items` inserted items. Epoch assignment becomes a pure
    /// function of the item sequence, so batched and scalar feeds remain
    /// bit-identical (batches are split at epoch boundaries).
    ///
    /// The open epoch's progress is preserved when the budget changes;
    /// if that progress already meets the new budget, the epoch closes
    /// right before the next insert lands.
    ///
    /// # Errors
    ///
    /// A zero budget.
    pub fn with_epoch_items(mut self, items: u64) -> Result<Self, SBitmapError> {
        let mut clock = EpochClock::with_budget(items)?;
        clock.epoch = self.clock.epoch;
        clock.in_epoch = self.clock.in_epoch;
        self.clock = clock;
        Ok(self)
    }

    /// The window span, in epochs (the `W` the fleet was built with).
    pub fn window_epochs(&self) -> usize {
        self.ring.len()
    }

    /// Absolute index of the open epoch (starts at 0).
    pub fn current_epoch(&self) -> u64 {
        self.clock.epoch()
    }

    /// Epochs currently contributing to queries: `min(opened, W)`.
    pub fn live_epochs(&self) -> usize {
        usize::try_from(self.clock.epoch() + 1)
            .unwrap_or(usize::MAX)
            .min(self.ring.len())
    }

    /// The rotation clock (epoch index, per-epoch budget and progress).
    pub fn clock(&self) -> &EpochClock {
        &self.clock
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &Arc<RateSchedule> {
        self.ring[0].schedule()
    }

    /// The fleet seed per-key hashers are derived from.
    pub fn seed(&self) -> u64 {
        self.ring[0].seed()
    }

    /// The arena holding the open epoch.
    #[inline]
    fn current_mut(&mut self) -> &mut FleetArena<H> {
        let slot = (self.clock.epoch() % self.ring.len() as u64) as usize;
        &mut self.ring[slot]
    }

    /// The arena holding the open epoch (read side).
    #[inline]
    fn current(&self) -> &FleetArena<H> {
        let slot = (self.clock.epoch() % self.ring.len() as u64) as usize;
        &self.ring[slot]
    }

    /// The ring slot of absolute epoch `epoch`, if that epoch is live.
    fn live_slot(&self, epoch: u64) -> Option<usize> {
        let current = self.clock.epoch();
        (epoch <= current && current - epoch < self.ring.len() as u64)
            .then(|| (epoch % self.ring.len() as u64) as usize)
    }

    /// Close the open epoch and start the next: the arena that falls out
    /// of the window is cleared in place (allocations kept). Returns the
    /// index of the epoch just closed.
    pub fn rotate(&mut self) -> u64 {
        let closed = self.clock.advance();
        // The new epoch reuses the slot that held epoch `new − W`.
        self.current_mut().clear();
        let slot = (self.clock.epoch() % self.ring.len() as u64) as usize;
        self.seen[slot].clear();
        closed
    }

    /// Drive the clock forward until the open epoch is `epoch` (a
    /// collector replaying an epoch-tagged stream). No-op when already
    /// there.
    ///
    /// # Errors
    ///
    /// `epoch` lies in the past — the ring cannot rotate backwards.
    pub fn advance_to(&mut self, epoch: u64) -> Result<(), SBitmapError> {
        if epoch < self.clock.epoch() {
            return Err(SBitmapError::invalid(
                "epoch",
                format!(
                    "cannot rotate back to epoch {epoch} from {}",
                    self.clock.epoch()
                ),
            ));
        }
        while self.clock.epoch() < epoch {
            self.rotate();
        }
        Ok(())
    }

    /// Rotate if the count-driven budget is exhausted.
    #[inline]
    fn rotate_if_due(&mut self) {
        if self.clock.is_due() {
            self.rotate();
        }
    }

    /// Insert `item` into the open epoch's sketch for `key`. Returns
    /// `true` if the update set a new bit.
    pub fn insert_u64(&mut self, key: u64, item: u64) -> bool {
        // Leading check: a budget change can leave the open epoch
        // already full, and the item must land in the next one — the
        // same boundary the batch paths take via a zero-length slice.
        self.rotate_if_due();
        let newly = self.current_mut().insert_u64(key, item);
        self.clock.record(1);
        self.rotate_if_due();
        newly
    }

    /// Insert a byte-string item into the open epoch's sketch for `key`.
    pub fn insert_bytes(&mut self, key: u64, item: &[u8]) -> bool {
        self.rotate_if_due();
        let newly = self.current_mut().insert_bytes(key, item);
        self.clock.record(1);
        self.rotate_if_due();
        newly
    }

    /// Batched per-key ingest into the open epoch(s); on a count-driven
    /// clock the slice is split at epoch boundaries, so the result is
    /// bit-identical to feeding [`WindowedFleet::insert_u64`] per item.
    /// Returns how many bits were newly set.
    pub fn insert_u64s(&mut self, key: u64, mut items: &[u64]) -> u64 {
        let mut newly = 0u64;
        while !items.is_empty() {
            let take = self
                .clock
                .remaining()
                .map_or(items.len(), |r| r.min(items.len() as u64) as usize);
            newly += self.current_mut().insert_u64s(key, &items[..take]);
            self.clock.record(take as u64);
            self.rotate_if_due();
            items = &items[take..];
        }
        newly
    }

    /// Ingest a batch of `(key, item)` pairs through the arena's radix
    /// router, splitting at epoch boundaries on a count-driven clock.
    /// Returns how many bits were newly set.
    pub fn insert_batch(&mut self, mut pairs: &[(u64, u64)]) -> u64 {
        let mut newly = 0u64;
        while !pairs.is_empty() {
            let take = self
                .clock
                .remaining()
                .map_or(pairs.len(), |r| r.min(pairs.len() as u64) as usize);
            newly += self.current_mut().insert_batch(&pairs[..take]);
            self.clock.record(take as u64);
            self.rotate_if_due();
            pairs = &pairs[take..];
        }
        newly
    }

    /// Ensure `key` has a record in the open epoch, as a first insert
    /// would (does not count against a count-driven budget).
    pub fn touch(&mut self, key: u64) {
        // Same boundary as the insert paths: a due epoch closes first,
        // so the record lands where the next insert would.
        self.rotate_if_due();
        self.current_mut().touch(key);
    }

    /// The union fill of `key` over the live epochs — the popcount of
    /// the OR of its per-epoch bitmaps. `None` if no live epoch has seen
    /// the key.
    ///
    /// This is the **fused single-pass** query: the common shapes never
    /// touch word memory at all (key absent, or present in exactly one
    /// epoch — where the union fill *is* that epoch's fill counter, an
    /// invariant the arena maintains per probe and re-validates on
    /// restore), and the multi-epoch shape runs on the
    /// [`sbitmap_bitvec::kernels`] gather kernel: all live regions are
    /// OR-ed into the fleet-owned scratch and popcounted in **one pass
    /// over the words** — each epoch read once, scratch written once,
    /// no zero-fill, no separate popcount sweep. Zero allocation after
    /// warmup, like every other fleet query path.
    /// [`WindowedFleet::window_fill_naive`] keeps the old three-pass
    /// shape callable as the reference the benches gate against.
    pub fn window_fill(&self, key: u64) -> Option<usize> {
        let (live, only_fill, pop) = self.scan_live(key, |_| {});
        match live {
            0 => None,
            // Single live epoch: the union fill is that epoch's fill
            // counter — no scratch traffic at all.
            1 => Some(only_fill),
            _ => Some(pop),
        }
    }

    /// The one fused scan both query entry points run on: walk `key`'s
    /// live epoch records **oldest → newest**, hand every fill counter
    /// to `visit` (the estimate path accumulates Σ t(Lₑ) there; the
    /// epoch order keeps that f64 sum identical across flavors and
    /// restores — the union OR itself is order-independent), and feed
    /// every bitmap region to the gather machine: up to `GATHER`
    /// pending regions on the stack, flushed through the fused
    /// multi-source kernel, with the scratch borrowed (and sized) only
    /// if a flush actually happens.
    ///
    /// Returns `(live, only_fill, pop)`: how many epochs hold the key,
    /// the last seen fill counter (**the** union fill when `live == 1`
    /// — no flush can have happened, so no scratch was touched), and
    /// the gathered union popcount (meaningful when `live >= 2`).
    fn scan_live(&self, key: u64, mut visit: impl FnMut(usize)) -> (usize, usize, usize) {
        const GATHER: usize = 8;
        let current = self.clock.epoch();
        let live_span = self.live_epochs() as u64;
        let w = self.ring.len() as u64;
        let mut srcs: [&[u64]; GATHER] = [&[]; GATHER];
        let mut gathered = 0usize;
        let mut live = 0usize;
        let mut only_fill = 0usize;
        let mut scratch = None;
        let mut overwrite = true;
        let mut pop = 0usize;
        for epoch in (current + 1 - live_span)..=current {
            let slot = (epoch % w) as usize;
            if let Some((fill, words)) = self.ring[slot].slot_record(key) {
                visit(fill);
                live += 1;
                only_fill = fill;
                srcs[gathered] = words;
                gathered += 1;
                if gathered == GATHER {
                    pop = self.gather_flush(&mut scratch, &srcs, overwrite);
                    overwrite = false;
                    gathered = 0;
                }
            }
        }
        if live >= 2 && gathered > 0 {
            pop = self.gather_flush(&mut scratch, &srcs[..gathered], overwrite);
        }
        (live, only_fill, pop)
    }

    /// Flush gathered epoch regions into the query scratch through the
    /// fused multi-source kernel, borrowing (and sizing) the scratch
    /// only on the first flush of a query. Returns the union popcount
    /// after this flush.
    fn gather_flush<'a>(
        &'a self,
        scratch: &mut Option<std::cell::RefMut<'a, Vec<u64>>>,
        srcs: &[&[u64]],
        overwrite: bool,
    ) -> usize {
        let s = scratch.get_or_insert_with(|| {
            let mut s = self.scratch.borrow_mut();
            s.resize(self.stride, 0);
            s
        });
        sbitmap_bitvec::kernels::WordKernels::dispatched().or_gather_popcount(s, srcs, overwrite)
    }

    /// The reference implementation of [`WindowedFleet::window_fill`]:
    /// the pre-kernel three-pass shape (zero the scratch, OR every live
    /// epoch in with a plain scalar word loop, then a separate popcount
    /// sweep). Kept callable so `bench-window` can time the fused kernel
    /// path against it **in the same run** — and refuse to time at all
    /// if the two ever disagree — and so the property suites can lock
    /// them bit-identical.
    pub fn window_fill_naive(&self, key: u64) -> Option<usize> {
        let mut scratch = self.scratch.borrow_mut();
        scratch.resize(self.stride, 0);
        scratch.fill(0);
        let mut found = false;
        for arena in &self.ring {
            if let Some((_, words)) = arena.slot_record(key) {
                for (dst, &src) in scratch.iter_mut().zip(words) {
                    *dst |= src;
                }
                found = true;
            }
        }
        found.then(|| scratch.iter().map(|w| w.count_ones() as usize).sum())
    }

    /// The `min(t(U), Σₑ t(Lₑ))` combination from a precomputed union
    /// fill — shared by the fused and naive estimate paths so the two
    /// can only diverge through the union fill itself.
    fn estimate_from_union(&self, key: u64, union_fill: usize) -> f64 {
        let schedule = self.schedule();
        // Sum per-epoch estimates oldest → newest: a fixed order keeps
        // the f64 sum identical across flavors and restores. Estimates
        // come from the schedule's precomputed curve — one load per
        // epoch, bit-identical to `estimator::estimate_from_fill`.
        let current = self.clock.epoch();
        let live = self.live_epochs() as u64;
        let mut sum = 0.0;
        for epoch in (current + 1 - live)..=current {
            let slot = self.live_slot(epoch).expect("live by construction");
            if let Some(fill) = self.ring[slot].fill(key) {
                sum += schedule.estimate_at(fill);
            }
        }
        schedule.estimate_at(union_fill).min(sum)
    }

    /// The sliding-window distinct estimate for `key`:
    /// `min(t(U), Σₑ t(Lₑ))` over the live epochs — the union term
    /// de-duplicates persistent flows, the sum term is exact for
    /// disjoint epochs, and both err upward (see the module docs).
    /// `None` if no live epoch has seen the key.
    ///
    /// One scan over the live epochs (the private `scan_live` helper
    /// shared with [`WindowedFleet::window_fill`]) does everything: the
    /// per-epoch estimate sum accumulates from the fill counters
    /// (precomputed-curve loads) while the same
    /// `slot_record` lookups feed the fused union gather of
    /// [`WindowedFleet::window_fill`] — no second pass over the ring.
    pub fn estimate(&self, key: u64) -> Option<f64> {
        let schedule = self.schedule();
        let mut sum = 0.0f64;
        let (live, only_fill, pop) = self.scan_live(key, |fill| sum += schedule.estimate_at(fill));
        let union_fill = match live {
            0 => return None,
            1 => only_fill,
            _ => pop,
        };
        Some(schedule.estimate_at(union_fill).min(sum))
    }

    /// [`WindowedFleet::estimate`] on the naive three-pass union
    /// ([`WindowedFleet::window_fill_naive`]) — the reference lane
    /// `bench-window` times and gates the fused path against.
    pub fn estimate_naive(&self, key: u64) -> Option<f64> {
        let union_fill = self.window_fill_naive(key)?;
        Some(self.estimate_from_union(key, union_fill))
    }

    /// The open epoch's estimate for `key` alone (the §7.1 per-interval
    /// view); `None` if the open epoch has not seen the key.
    pub fn epoch_estimate(&self, key: u64) -> Option<f64> {
        self.current().estimate(key)
    }

    /// Keys seen in any live epoch, in ascending order (the workspace
    /// ordering guarantee — see [`KeyedEstimates`]). Gathers each
    /// arena's raw key list and sorts once, rather than paying a clone
    /// and sort per epoch.
    pub fn keys_sorted(&self) -> Vec<u64> {
        let total: usize = self.ring.iter().map(FleetArena::len).sum();
        let mut keys: Vec<u64> = Vec::with_capacity(total);
        for arena in &self.ring {
            keys.extend_from_slice(arena.keys_unsorted());
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// All `(key, windowed estimate)` pairs, in ascending key order
    /// (the [`KeyedEstimates`] derivation, so every flavor reports the
    /// same keys in the same order).
    pub fn estimates(&self) -> Vec<(u64, f64)> {
        KeyedEstimates::estimates_sorted(self)
    }

    /// Number of distinct keys across the live epochs.
    pub fn len(&self) -> usize {
        self.keys_sorted().len()
    }

    /// `true` when no live epoch holds any key.
    pub fn is_empty(&self) -> bool {
        self.ring.iter().all(FleetArena::is_empty)
    }

    /// Total sketch payload across the live epochs, in bits.
    pub fn memory_bits(&self) -> usize {
        self.ring.iter().map(FleetArena::memory_bits).sum()
    }

    /// Materialize the window union of `key` as a standalone
    /// [`SBitmap`] (the union state behind the `t(U)` term of
    /// [`WindowedFleet::estimate`]); `None` if no live epoch has seen
    /// the key. The union is assembled directly in the result's own
    /// allocation — the first live epoch's words seed it and the rest OR
    /// in through the fused kernel — so there is no intermediate scratch
    /// copy to clone out of.
    pub fn export_window_sketch(&self, key: u64) -> Option<SBitmap<H>> {
        let kernels = sbitmap_bitvec::kernels::WordKernels::dispatched();
        let mut words: Vec<u64> = Vec::new();
        let mut fill = 0usize;
        for arena in &self.ring {
            if let Some((epoch_fill, src)) = arena.slot_record(key) {
                if words.is_empty() {
                    words.reserve_exact(self.stride);
                    words.extend_from_slice(src);
                    fill = epoch_fill;
                } else {
                    // Each call returns the running union popcount; the
                    // last one is the final fill.
                    fill = kernels.or_accumulate_popcount(&mut words, src);
                }
            }
        }
        if words.is_empty() {
            return None;
        }
        let m = self.schedule().dims().m();
        let bitmap = Bitmap::from_words(words, m).expect("arena regions are valid bitmaps");
        let mut sketch = SBitmap::with_shared_schedule(
            self.schedule().clone(),
            H::from_seed(sketch_seed(self.seed(), key)),
        );
        sketch.restore_state(bitmap, fill);
        Some(sketch)
    }

    /// Serialize the open epoch alone as a [`CounterKind::SketchFleet`]
    /// checkpoint — what a measurement node ships per epoch in the
    /// windowed collector pipeline.
    pub fn epoch_checkpoint(&self) -> Vec<u8> {
        self.current().checkpoint()
    }

    /// Fold another fleet's state into the ring at absolute epoch
    /// `epoch` via [`FleetArena::union_from`] — the collector side of
    /// the windowed pipeline, where node shards ship per-epoch
    /// checkpoints for disjoint key sets. Returns `Ok(false)` when the
    /// epoch has already expired from the window (a late frame is
    /// dropped, not an error).
    ///
    /// # Errors
    ///
    /// A future epoch (drive the ring with
    /// [`WindowedFleet::advance_to`] first), or a configuration/seed
    /// mismatch (see [`FleetArena::union_from`]).
    pub fn absorb_epoch(
        &mut self,
        epoch: u64,
        other: &FleetArena<H>,
    ) -> Result<bool, SBitmapError> {
        if epoch > self.clock.epoch() {
            return Err(SBitmapError::invalid(
                "epoch",
                format!(
                    "epoch {epoch} is ahead of the ring's open epoch {}",
                    self.clock.epoch()
                ),
            ));
        }
        let Some(slot) = self.live_slot(epoch) else {
            return Ok(false);
        };
        self.ring[slot].union_from(other)?;
        Ok(true)
    }

    /// [`WindowedFleet::absorb_epoch`] for a sparse shard: fold a
    /// [`crate::SparseFleet`]'s state into the ring at absolute epoch
    /// `epoch` via [`FleetArena::union_from_sparse`] — the collector
    /// side when measurement nodes run million-key per-flow fleets in
    /// size-classed sparse storage. Bit-identical to expanding the shard
    /// with [`crate::SparseFleet::to_arena`] and calling
    /// [`WindowedFleet::absorb_epoch`], without materializing the dense
    /// copy. Returns `Ok(false)` when the epoch has already expired.
    ///
    /// # Errors
    ///
    /// A future epoch, or a configuration/seed mismatch (see
    /// [`FleetArena::union_from_sparse`]).
    pub fn absorb_epoch_sparse(
        &mut self,
        epoch: u64,
        other: &crate::sparse::SparseFleet<H>,
    ) -> Result<bool, SBitmapError> {
        if epoch > self.clock.epoch() {
            return Err(SBitmapError::invalid(
                "epoch",
                format!(
                    "epoch {epoch} is ahead of the ring's open epoch {}",
                    self.clock.epoch()
                ),
            ));
        }
        let Some(slot) = self.live_slot(epoch) else {
            return Ok(false);
        };
        self.ring[slot].union_from_sparse(other)?;
        Ok(true)
    }

    /// [`WindowedFleet::absorb_epoch`] with an at-least-once delivery
    /// guard: a `(source, epoch)` pair that was already absorbed is
    /// skipped and reported as [`AbsorbOutcome::Duplicate`], so a network
    /// peer may replay unacknowledged frames freely. The guard is a
    /// *shortcut*, not a correctness requirement — the storage-level
    /// union is an OR, so replaying an identical frame sets zero new
    /// bits either way — which is exactly why the guard is **not**
    /// serialized in the tag-10 checkpoint: a restored ring that re-sees
    /// an old frame re-absorbs a bitwise no-op.
    ///
    /// # Errors
    ///
    /// Same as [`WindowedFleet::absorb_epoch`]: a future epoch, or a
    /// configuration/seed mismatch (the source is *not* marked seen on
    /// error — a corrected retry still lands).
    pub fn absorb_epoch_from(
        &mut self,
        source: u64,
        epoch: u64,
        other: &FleetArena<H>,
    ) -> Result<AbsorbOutcome, SBitmapError> {
        if epoch > self.clock.epoch() {
            return Err(SBitmapError::invalid(
                "epoch",
                format!(
                    "epoch {epoch} is ahead of the ring's open epoch {}",
                    self.clock.epoch()
                ),
            ));
        }
        let Some(slot) = self.live_slot(epoch) else {
            return Ok(AbsorbOutcome::Expired);
        };
        if self.seen[slot].contains(&(source, FULL_FRAME_ROUND)) {
            return Ok(AbsorbOutcome::Duplicate);
        }
        self.check_guard_capacity(slot, epoch)?;
        self.seen[slot].insert((source, FULL_FRAME_ROUND));
        if let Err(e) = self.ring[slot].union_from(other) {
            self.seen[slot].remove(&(source, FULL_FRAME_ROUND));
            return Err(e);
        }
        Ok(AbsorbOutcome::Absorbed)
    }

    /// Reject a *new* guard identity once `slot`'s guard is at
    /// [`WindowedFleet::MAX_GUARD_ENTRIES_PER_SLOT`] — before any O(m)
    /// absorb work, so a rejected frame provably leaves the ring
    /// untouched.
    fn check_guard_capacity(&self, slot: usize, epoch: u64) -> Result<(), SBitmapError> {
        if self.seen[slot].len() >= Self::MAX_GUARD_ENTRIES_PER_SLOT {
            return Err(SBitmapError::GuardFull {
                epoch,
                cap: Self::MAX_GUARD_ENTRIES_PER_SLOT,
            });
        }
        Ok(())
    }

    /// Absorb a validated wire-v3 delta frame incrementally into the
    /// ring: every record is OR-applied straight from the checked wire
    /// bytes onto the epoch arena's words through the word kernels — no
    /// decoded copy, no intermediate arena. The at-least-once guard
    /// works per `(source, round)`: replays come back as
    /// [`AbsorbOutcome::Duplicate`], late frames for expired epochs as
    /// [`AbsorbOutcome::Expired`], and a round > 0 whose `(source,
    /// epoch)` baseline (round 0) has not been absorbed is rejected with
    /// [`SBitmapError::MissingBaseline`] after nothing more than two map
    /// lookups — the sender must resync from a baseline frame. Every
    /// check runs before the first ring write: a refused frame leaves
    /// the ring untouched.
    ///
    /// Correctness under duplication and reorder: within an epoch the
    /// S-bitmap only sets bits, so round frames carry disjoint
    /// newly-set-bit sets and OR-absorption is idempotent and
    /// commutative — absorbing all rounds of an epoch in any order, any
    /// number of times, converges to exactly the epoch's final bitmap.
    /// (Rounds > 0 still require the baseline first: round 0 is the only
    /// frame guaranteed to carry a record — and thus create the slot —
    /// for every key of the shard, including still-empty ones.)
    ///
    /// # Errors
    ///
    /// A future epoch (drive the ring with [`WindowedFleet::advance_to`]
    /// first), a configuration/seed mismatch between the frame and the
    /// ring, a full guard ([`SBitmapError::GuardFull`]), or a broken
    /// delta chain ([`SBitmapError::MissingBaseline`]).
    pub fn absorb_delta_view(
        &mut self,
        source: u64,
        view: &DeltaView<'_>,
    ) -> Result<AbsorbOutcome, SBitmapError> {
        self.absorb_delta(source, view, true)
    }

    /// [`WindowedFleet::absorb_delta_view`] minus the baseline
    /// requirement — the journal-replay entry point.
    ///
    /// A write-ahead journal only records frames *after* they were
    /// absorbed, so every journaled round > 0 had its baseline absorbed
    /// first; but a ring restored from a snapshot has an empty guard,
    /// and the baseline's journal record may live in a segment the
    /// snapshot already covered (truncated away). Re-checking the
    /// baseline at replay would therefore reject causally-valid
    /// records. Replay skips the check — safe because OR-absorption is
    /// idempotent and commutative — while still recording `(source,
    /// round)` in the guard, so post-recovery live traffic dedupes
    /// against everything the replay restored.
    ///
    /// # Errors
    ///
    /// Same as [`WindowedFleet::absorb_delta_view`], except
    /// [`SBitmapError::MissingBaseline`] is never raised.
    pub fn absorb_delta_view_replay(
        &mut self,
        source: u64,
        view: &DeltaView<'_>,
    ) -> Result<AbsorbOutcome, SBitmapError> {
        self.absorb_delta(source, view, false)
    }

    /// [`WindowedFleet::absorb_delta_view`] for a decoded
    /// [`FleetDeltaFrame`]: the same checks, guard and sink, fed from
    /// the frame's arrays.
    ///
    /// # Errors
    ///
    /// See [`WindowedFleet::absorb_delta_view`].
    pub fn absorb_delta_from(
        &mut self,
        source: u64,
        frame: &FleetDeltaFrame,
    ) -> Result<AbsorbOutcome, SBitmapError> {
        self.absorb_delta(source, frame, true)
    }

    /// [`WindowedFleet::absorb_delta_view_replay`] for a decoded
    /// [`FleetDeltaFrame`].
    ///
    /// # Errors
    ///
    /// See [`WindowedFleet::absorb_delta_view_replay`].
    pub fn absorb_delta_replay(
        &mut self,
        source: u64,
        frame: &FleetDeltaFrame,
    ) -> Result<AbsorbOutcome, SBitmapError> {
        self.absorb_delta(source, frame, false)
    }

    fn absorb_delta(
        &mut self,
        source: u64,
        delta: &impl DeltaSource,
        require_baseline: bool,
    ) -> Result<AbsorbOutcome, SBitmapError> {
        let frame = delta.header();
        let schedule = self.schedule();
        let dims = schedule.dims();
        if frame.n_max != dims.n_max()
            || frame.m != dims.m()
            || frame.sampling_bits != schedule.split().sampling_bits()
        {
            return Err(SBitmapError::invalid(
                "delta",
                "delta frame has different dimensioning".to_string(),
            ));
        }
        if frame.seed != self.seed() {
            return Err(SBitmapError::invalid(
                "delta",
                "delta frame has a different fleet seed".to_string(),
            ));
        }
        if frame.epoch > self.clock.epoch() {
            return Err(SBitmapError::invalid(
                "epoch",
                format!(
                    "epoch {} is ahead of the ring's open epoch {}",
                    frame.epoch,
                    self.clock.epoch()
                ),
            ));
        }
        let Some(slot) = self.live_slot(frame.epoch) else {
            return Ok(AbsorbOutcome::Expired);
        };
        if self.seen[slot].contains(&(source, frame.round)) {
            return Ok(AbsorbOutcome::Duplicate);
        }
        if require_baseline && frame.round != 0 && !self.seen[slot].contains(&(source, 0)) {
            return Err(SBitmapError::MissingBaseline {
                epoch: frame.epoch,
                round: frame.round,
            });
        }
        self.check_guard_capacity(slot, frame.epoch)?;
        delta.walk(&mut self.ring[slot].delta_sink());
        self.seen[slot].insert((source, frame.round));
        Ok(AbsorbOutcome::Absorbed)
    }

    /// Reset every live epoch, keeping keys, slots and allocations; the
    /// clock keeps running.
    pub fn reset_all(&mut self) {
        for arena in &mut self.ring {
            arena.reset_all();
        }
        for seen in &mut self.seen {
            seen.clear();
        }
    }

    /// Drop all keys from every epoch, keeping allocations for reuse;
    /// the clock keeps running.
    pub fn clear(&mut self) {
        for arena in &mut self.ring {
            arena.clear();
        }
        for seen in &mut self.seen {
            seen.clear();
        }
    }
}

impl<H: Hasher64 + FromSeed> KeyedEstimates for WindowedFleet<H> {
    fn keys_sorted(&self) -> Vec<u64> {
        WindowedFleet::keys_sorted(self)
    }

    fn estimate(&self, key: u64) -> Option<f64> {
        WindowedFleet::estimate(self, key)
    }
}

/// Windowed fleets serialize as [`CounterKind::WindowedFleet`]: the
/// shared configuration once, the clock, then every live epoch's
/// per-key records (fleet wire layout), oldest epoch first, keys sorted.
/// See `docs/wire-format.md` (tag 10) for the byte layout.
impl<H: Hasher64 + FromSeed> Checkpoint for WindowedFleet<H> {
    const KIND: CounterKind = CounterKind::WindowedFleet;

    fn write_payload(&self, out: &mut PayloadWriter) {
        let schedule = self.schedule();
        let dims = schedule.dims();
        out.u64(dims.n_max());
        out.u64(dims.m() as u64);
        out.u32(schedule.split().sampling_bits());
        out.u64(self.seed());
        out.u64(self.ring.len() as u64);
        out.u64(self.clock.epoch());
        out.u64(self.clock.budget().unwrap_or(0));
        out.u64(self.clock.items_in_epoch());
        let live = self.live_epochs() as u64;
        out.u64(live);
        let current = self.clock.epoch();
        for epoch in (current + 1 - live)..=current {
            let slot = self.live_slot(epoch).expect("live by construction");
            let arena = &self.ring[slot];
            out.u64(epoch);
            let keys = arena.keys_sorted();
            out.u64(keys.len() as u64);
            for key in keys {
                let (fill, words) = arena.slot_record(key).expect("key listed");
                out.u64(key);
                out.u64(fill as u64);
                out.words(words);
            }
        }
    }

    fn read_payload(r: &mut PayloadReader<'_>) -> Result<Self, SBitmapError> {
        let fail = |msg: &str| SBitmapError::invalid("checkpoint", msg.to_string());
        let n_max = r.u64()?;
        let m = r.len_u64()?;
        // Cap before the O(m) schedule rebuild — see `codec::MAX_WIRE_M`.
        crate::codec::check_wire_m(m)?;
        let sampling_bits = r.u32()?;
        let seed = r.u64()?;
        let window = r.len_u64()?;
        let epoch = r.u64()?;
        let budget = r.u64()?;
        let in_epoch = r.u64()?;
        let live = r.len_u64()?;
        // `window` drives the ring allocation *before* any byte-backed
        // record is read, so unlike the per-epoch record counts it is
        // not implicitly bounded by the payload length — cap it so a
        // crafted 8-byte field cannot demand a multi-GB ring.
        if window > Self::MAX_WIRE_WINDOW {
            return Err(fail("window span exceeds the wire limit"));
        }
        let next_epoch = epoch
            .checked_add(1)
            .ok_or_else(|| fail("epoch index out of range"))?;
        if live > window || live as u64 > next_epoch {
            return Err(fail("live epoch count exceeds the window"));
        }
        let schedule = RateSchedule::shared(n_max, m, sampling_bits)?;
        let mut fleet = WindowedFleet::with_schedule(schedule, seed, window)?;
        if budget > 0 {
            fleet = fleet.with_epoch_items(budget)?;
        }
        fleet.clock.epoch = epoch;
        fleet.clock.in_epoch = in_epoch;
        if budget > 0 && in_epoch > budget {
            return Err(fail("open epoch overfills its item budget"));
        }
        let mut last: Option<u64> = None;
        for _ in 0..live {
            let e = r.u64()?;
            if last.is_some_and(|l| e <= l) {
                return Err(fail("epoch indices must be strictly increasing"));
            }
            last = Some(e);
            let Some(slot) = fleet.live_slot(e) else {
                return Err(fail("epoch record outside the live window"));
            };
            let count = r.len_u64()?;
            for _ in 0..count {
                let key = r.u64()?;
                let fill = r.len_u64()?;
                let words = r.words(m.div_ceil(64))?;
                fleet.ring[slot].restore_slot(key, fill, words)?;
            }
        }
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::DistinctCounter;
    use crate::estimator;
    use std::collections::HashMap;

    fn windowed(window: usize) -> WindowedFleet {
        WindowedFleet::new(100_000, 4_000, 9, window).unwrap()
    }

    /// One epoch of the naive reference: a standalone [`SBitmap`] per
    /// key, seeded like the ring's key.
    type EpochSketches = HashMap<u64, SBitmap>;

    /// The naive reference: one [`EpochSketches`] per epoch, window fill
    /// = popcount of the OR of the key's per-epoch bitmaps.
    fn reference_fill(epochs: &[EpochSketches], key: u64) -> Option<usize> {
        let mut acc: Option<Bitmap> = None;
        for sketches in epochs {
            if let Some(sketch) = sketches.get(&key) {
                match &mut acc {
                    None => acc = Some(sketch.bitmap().clone()),
                    Some(bits) => {
                        bits.union_or(sketch.bitmap()).unwrap();
                    }
                }
            }
        }
        acc.map(|bits| bits.count_ones())
    }

    /// The naive reference estimate: `min(t(U), Σₑ t(Lₑ))` computed from
    /// standalone per-epoch sketches, oldest first.
    fn reference_estimate(epochs: &[EpochSketches], key: u64) -> Option<f64> {
        let union = reference_fill(epochs, key)?;
        let dims = *epochs.iter().find_map(|e| e.get(&key))?.dims();
        let sum: f64 = epochs
            .iter()
            .filter_map(|sketches| sketches.get(&key))
            .map(|s| estimator::estimate_from_fill(&dims, s.fill()))
            .sum();
        Some(estimator::estimate_from_fill(&dims, union).min(sum))
    }

    #[test]
    fn clock_budget_and_advance_semantics() {
        let mut clock = EpochClock::with_budget(3).unwrap();
        assert_eq!(clock.remaining(), Some(3));
        clock.record(2);
        assert!(!clock.is_due());
        clock.record(1);
        assert!(clock.is_due());
        assert_eq!(clock.advance(), 0);
        assert_eq!(clock.epoch(), 1);
        assert_eq!(clock.items_in_epoch(), 0);
        assert!(EpochClock::with_budget(0).is_err());
        assert_eq!(EpochClock::unbounded().remaining(), None);
    }

    #[test]
    fn single_epoch_matches_plain_arena() {
        let mut w = windowed(4);
        let mut a: FleetArena = FleetArena::new(100_000, 4_000, 9).unwrap();
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 7, i / 7 % 2_000)).collect();
        w.insert_batch(&pairs);
        a.insert_batch(&pairs);
        for key in 0..7u64 {
            assert_eq!(w.estimate(key), a.estimate(key), "key {key}");
            assert_eq!(w.window_fill(key), a.fill(key), "key {key}");
        }
        assert_eq!(w.epoch_checkpoint(), a.checkpoint());
    }

    #[test]
    fn windowed_estimates_match_naive_per_epoch_reference() {
        let mut w = windowed(3);
        let mut reference: Vec<EpochSketches> = Vec::new();
        for epoch in 0..7u64 {
            let mut current = EpochSketches::new();
            for i in 0..4_000u64 {
                let key = i % 5;
                let item = epoch * 10_000 + i / 5 % 900;
                w.insert_u64(key, item);
                current
                    .entry(key)
                    .or_insert_with(|| {
                        SBitmap::with_shared_schedule(
                            w.schedule().clone(),
                            SplitMix64Hasher::from_seed(sketch_seed(w.seed(), key)),
                        )
                    })
                    .insert_u64(item);
            }
            w.rotate();
            reference.push(current);
        }
        // Live window after 7 rotations: epochs 5, 6 and the (empty)
        // open epoch 7 — epochs 0..=4 must have expired.
        let live = &reference[5..7];
        for key in 0..5u64 {
            assert_eq!(
                w.window_fill(key),
                reference_fill(live, key),
                "fill for key {key}"
            );
            assert_eq!(
                w.estimate(key),
                reference_estimate(live, key),
                "estimate for key {key}"
            );
            assert_eq!(
                w.window_fill(key),
                w.window_fill_naive(key),
                "fused vs naive fill for key {key}"
            );
            assert_eq!(
                w.estimate(key),
                w.estimate_naive(key),
                "fused vs naive estimate for key {key}"
            );
        }
        let expired_only = reference_fill(&reference[..5], 0).unwrap();
        assert!(expired_only > 0, "sanity: expired epochs held state");
    }

    #[test]
    fn count_driven_batches_match_scalar_feed() {
        let pairs: Vec<(u64, u64)> = (0..9_500u64).map(|i| (i % 4, i * 31 % 3_000)).collect();
        let mut batched = windowed(3).with_epoch_items(1_000).unwrap();
        let mut scalar = windowed(3).with_epoch_items(1_000).unwrap();
        batched.insert_batch(&pairs);
        for &(k, item) in &pairs {
            scalar.insert_u64(k, item);
        }
        assert_eq!(batched.current_epoch(), 9, "9500 items / 1000 per epoch");
        assert_eq!(batched.current_epoch(), scalar.current_epoch());
        assert_eq!(batched.estimates(), scalar.estimates());
        assert_eq!(batched.checkpoint(), scalar.checkpoint());
    }

    #[test]
    fn expiry_forgets_old_epochs() {
        let mut w = windowed(2);
        for i in 0..2_000u64 {
            w.insert_u64(1, i);
        }
        let full = w.estimate(1).unwrap();
        w.rotate();
        assert!(w.estimate(1).is_some(), "still live one epoch later");
        w.rotate();
        assert_eq!(w.estimate(1), None, "expired after W rotations");
        assert!(w.is_empty());
        assert!(full > 0.0);
    }

    #[test]
    fn checkpoint_round_trips_mid_window() {
        let mut w = windowed(3).with_epoch_items(2_500).unwrap();
        let pairs: Vec<(u64, u64)> = (0..8_000u64).map(|i| (i % 6, i / 6 % 1_100)).collect();
        w.insert_batch(&pairs);
        let bytes = w.checkpoint();
        let mut restored: WindowedFleet = Checkpoint::restore(&bytes).unwrap();
        assert_eq!(restored.current_epoch(), w.current_epoch());
        assert_eq!(restored.window_epochs(), 3);
        assert_eq!(restored.estimates(), w.estimates());
        assert_eq!(restored.checkpoint(), bytes, "canonical re-encode");
        // Both continue identically across further epochs.
        let more: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 6, 50_000 + i)).collect();
        w.insert_batch(&more);
        restored.insert_batch(&more);
        assert_eq!(restored.estimates(), w.estimates());
        assert_eq!(restored.checkpoint(), w.checkpoint());
    }

    #[test]
    fn absorb_epoch_unions_disjoint_shards() {
        let schedule = Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap());
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule.clone(), 9, 3).unwrap();
        let mut single = windowed(3);
        for epoch in 0..4u64 {
            // Two "shards" own disjoint keys {0,2} and {1,3}.
            let mut a: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
            let mut b: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
            for i in 0..3_000u64 {
                let key = i % 4;
                let item = epoch * 10_000 + i / 4 % 600;
                if key % 2 == 0 {
                    a.insert_u64(key, item);
                } else {
                    b.insert_u64(key, item);
                }
                single.insert_u64(key, item);
            }
            ring.advance_to(epoch).unwrap();
            assert!(ring.absorb_epoch(epoch, &a).unwrap());
            assert!(ring.absorb_epoch(epoch, &b).unwrap());
            single.advance_to(epoch).unwrap();
            if epoch < 3 {
                ring.rotate();
                single.rotate();
            }
        }
        assert_eq!(ring.estimates(), single.estimates());
        // A frame for an expired epoch is dropped, a future one rejected.
        let empty: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
        assert!(!ring.absorb_epoch(0, &empty).unwrap());
        assert!(ring.absorb_epoch(99, &empty).is_err());
        // Mismatched seeds are rejected, not silently mixed.
        let alien: FleetArena = FleetArena::with_schedule(schedule, 77);
        assert!(ring.absorb_epoch(ring.current_epoch(), &alien).is_err());
    }

    #[test]
    fn absorb_guard_dedups_per_source_and_resets_on_reuse() {
        let schedule = Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap());
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        let mut a: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
        for i in 0..1_000u64 {
            a.insert_u64(3, i);
        }
        assert_eq!(
            ring.absorb_epoch_from(7, 0, &a).unwrap(),
            AbsorbOutcome::Absorbed
        );
        let after_first = ring.checkpoint();
        // Replays from the same source are skipped; a different source
        // absorbs (a bitwise no-op here — identical frame), and neither
        // changes the ring state.
        assert_eq!(
            ring.absorb_epoch_from(7, 0, &a).unwrap(),
            AbsorbOutcome::Duplicate
        );
        assert_eq!(
            ring.absorb_epoch_from(8, 0, &a).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(ring.checkpoint(), after_first, "replay is a no-op");
        // A failed absorb does not poison the guard: the source retries.
        let alien: FleetArena = FleetArena::with_schedule(schedule.clone(), 77);
        let mut fresh: WindowedFleet = WindowedFleet::with_schedule(schedule, 9, 2).unwrap();
        assert!(fresh.absorb_epoch_from(9, 0, &alien).is_err());
        assert_eq!(
            fresh.absorb_epoch_from(9, 0, &a).unwrap(),
            AbsorbOutcome::Absorbed
        );
        // Expiry: epoch 0 falls out after W rotations, and the guard of
        // its reused slot is cleared for the new epoch.
        ring.advance_to(2).unwrap();
        assert_eq!(
            ring.absorb_epoch_from(7, 0, &a).unwrap(),
            AbsorbOutcome::Expired
        );
        assert_eq!(
            ring.absorb_epoch_from(7, 2, &a).unwrap(),
            AbsorbOutcome::Absorbed,
            "slot reuse cleared the old epoch's seen set"
        );
        // The guard is not serialized: a restored ring re-absorbs.
        let mut restored: WindowedFleet = Checkpoint::restore(&ring.checkpoint()).unwrap();
        let before = restored.checkpoint();
        assert_eq!(
            restored.absorb_epoch_from(7, 2, &a).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(restored.checkpoint(), before, "re-absorb is bitwise no-op");
    }

    /// Build the round-`r` delta frame for `shard` against `prev`
    /// per-key snapshots (updating the snapshots in place) — the same
    /// shape the stream-layer encoder produces.
    fn delta_round(
        shard: &FleetArena,
        prev: &mut std::collections::HashMap<u64, Vec<u64>>,
        epoch: u64,
        round: u32,
    ) -> FleetDeltaFrame {
        let schedule = shard.schedule();
        let dims = schedule.dims();
        let mut frame = FleetDeltaFrame::new(
            dims.n_max(),
            dims.m(),
            schedule.split().sampling_bits(),
            shard.seed(),
            epoch,
            round,
        );
        for key in shard.keys_sorted() {
            let cur = shard.slot_words(key).expect("key listed");
            let old = prev.entry(key).or_insert_with(|| vec![0; cur.len()]);
            let delta: Vec<u64> = cur.iter().zip(old.iter()).map(|(&c, &p)| c ^ p).collect();
            let fresh = delta.iter().any(|&w| w != 0);
            if round == 0 || fresh {
                frame.push(key, &delta);
            }
            old.copy_from_slice(cur);
        }
        frame
    }

    #[test]
    fn delta_chain_reproduces_the_full_absorb_under_duplication_and_reorder() {
        let schedule = Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap());
        let mut shard: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
        let mut prev = std::collections::HashMap::new();
        // Three rounds of one epoch; keys 1..4 grow each round.
        let mut frames = Vec::new();
        for round in 0..3u32 {
            for i in 0..2_000u64 {
                shard.insert_u64(i % 4, u64::from(round) * 10_000 + i / 4 % 450);
            }
            frames.push(delta_round(&shard, &mut prev, 0, round));
        }
        let bytes: Vec<Vec<u8>> = frames.iter().map(FleetDeltaFrame::encode).collect();

        // Reference: the whole shard absorbed as one full frame.
        let mut reference: WindowedFleet =
            WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        reference.absorb_epoch_from(7, 0, &shard).unwrap();

        // In-order chain.
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        for b in &bytes {
            let f = FleetDeltaFrame::decode(b).unwrap();
            assert_eq!(
                ring.absorb_delta_from(7, &f).unwrap(),
                AbsorbOutcome::Absorbed
            );
        }
        assert_eq!(ring.checkpoint(), reference.checkpoint());
        assert_eq!(ring.estimates(), reference.estimates());

        // Baseline first, later rounds reordered and duplicated: the OR
        // absorb is idempotent and commutative, so the state is
        // bit-identical (duplicates are skipped by the guard anyway).
        let mut chaos: WindowedFleet =
            WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        let f0 = FleetDeltaFrame::decode(&bytes[0]).unwrap();
        let f1 = FleetDeltaFrame::decode(&bytes[1]).unwrap();
        let f2 = FleetDeltaFrame::decode(&bytes[2]).unwrap();
        assert_eq!(
            chaos.absorb_delta_from(7, &f0).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(
            chaos.absorb_delta_from(7, &f2).unwrap(),
            AbsorbOutcome::Absorbed,
            "round 2 before round 1 is fine once the baseline landed"
        );
        assert_eq!(
            chaos.absorb_delta_from(7, &f2).unwrap(),
            AbsorbOutcome::Duplicate
        );
        assert_eq!(
            chaos.absorb_delta_from(7, &f1).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(
            chaos.absorb_delta_from(7, &f0).unwrap(),
            AbsorbOutcome::Duplicate
        );
        assert_eq!(chaos.checkpoint(), reference.checkpoint());

        // A second source replays the same chain: absorbed (bitwise
        // no-op — same shard state), ring unchanged.
        let before = ring.checkpoint();
        assert_eq!(
            ring.absorb_delta_from(8, &f0).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(ring.checkpoint(), before);
    }

    #[test]
    fn delta_absorb_guards_baseline_expiry_and_config() {
        let schedule = Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap());
        let mut shard: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
        let mut prev = std::collections::HashMap::new();
        for i in 0..1_000u64 {
            shard.insert_u64(3, i);
        }
        let base = delta_round(&shard, &mut prev, 0, 0);
        for i in 1_000..2_000u64 {
            shard.insert_u64(3, i);
        }
        let delta = delta_round(&shard, &mut prev, 0, 1);

        // Round 1 before round 0: MissingBaseline, typed, state intact.
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        let err = ring.absorb_delta_from(7, &delta).unwrap_err();
        assert_eq!(err, SBitmapError::MissingBaseline { epoch: 0, round: 1 });
        assert!(err.to_string().contains("baseline"), "{err}");
        assert!(ring.is_empty(), "rejected delta must not touch the ring");
        // The recovery path: baseline, then the delta.
        assert_eq!(
            ring.absorb_delta_from(7, &base).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(
            ring.absorb_delta_from(7, &delta).unwrap(),
            AbsorbOutcome::Absorbed
        );
        // A v2 full frame from the same source does not stand in for a
        // delta baseline (different guard entries)…
        let mut full_first: WindowedFleet =
            WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        full_first.absorb_epoch_from(7, 0, &shard).unwrap();
        assert!(full_first.absorb_delta_from(7, &delta).is_err());

        // Expired epoch → Expired, future epoch → error.
        ring.advance_to(2).unwrap();
        assert_eq!(
            ring.absorb_delta_from(7, &base).unwrap(),
            AbsorbOutcome::Expired
        );
        let mut future = base.clone();
        future.epoch = 99;
        assert!(ring.absorb_delta_from(7, &future).is_err());

        // Config/seed mismatches are typed errors, not silent mixes.
        let mut alien = base.clone();
        alien.seed = 77;
        assert!(ring.absorb_delta_from(7, &alien).is_err());
        let mut alien = base.clone();
        alien.m = 8_000;
        assert!(ring.absorb_delta_from(7, &alien).is_err());
    }

    #[test]
    fn replay_absorb_skips_the_baseline_requirement_but_keeps_the_guard() {
        let schedule = Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap());
        let mut shard: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
        let mut prev = std::collections::HashMap::new();
        for i in 0..1_000u64 {
            shard.insert_u64(3, i);
        }
        let base = delta_round(&shard, &mut prev, 0, 0);
        for i in 1_000..2_000u64 {
            shard.insert_u64(3, i);
        }
        let delta = delta_round(&shard, &mut prev, 0, 1);

        // Reference: the chain absorbed in order through the live path.
        let mut reference: WindowedFleet =
            WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        reference.absorb_delta_from(7, &base).unwrap();
        reference.absorb_delta_from(7, &delta).unwrap();

        // Replay path: round 1 with no baseline in the guard (the
        // snapshot-covered-baseline shape) is absorbed, not rejected…
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        assert_eq!(
            ring.absorb_delta_replay(7, &delta).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(
            ring.absorb_delta_replay(7, &base).unwrap(),
            AbsorbOutcome::Absorbed
        );
        assert_eq!(ring.checkpoint(), reference.checkpoint());
        // …and the guard entries stuck: live-path replays are dupes.
        assert_eq!(
            ring.absorb_delta_from(7, &delta).unwrap(),
            AbsorbOutcome::Duplicate
        );
        // Config mismatches stay typed errors on the replay path too.
        let mut alien = base.clone();
        alien.seed = 77;
        assert!(ring.absorb_delta_replay(7, &alien).is_err());
    }

    #[test]
    fn guard_capacity_is_capped_with_a_typed_rejection() {
        let schedule = Arc::new(RateSchedule::from_memory(100_000, 4_000).unwrap());
        let mut ring: WindowedFleet = WindowedFleet::with_schedule(schedule.clone(), 9, 2).unwrap();
        // Churn source ids through empty baseline frames: guard entries
        // without absorb work.
        let dims = schedule.dims();
        let empty = || {
            FleetDeltaFrame::new(
                dims.n_max(),
                dims.m(),
                schedule.split().sampling_bits(),
                9,
                0,
                0,
            )
        };
        let cap = <WindowedFleet>::MAX_GUARD_ENTRIES_PER_SLOT;
        for source in 0..cap as u64 {
            assert_eq!(
                ring.absorb_delta_from(source, &empty()).unwrap(),
                AbsorbOutcome::Absorbed
            );
        }
        // One more source: typed rejection, ring untouched.
        let before = ring.checkpoint();
        let err = ring.absorb_delta_from(cap as u64, &empty()).unwrap_err();
        assert_eq!(err, SBitmapError::GuardFull { epoch: 0, cap });
        assert!(err.to_string().contains("guard full"), "{err}");
        assert_eq!(ring.checkpoint(), before);
        // Full frames hit the same cap…
        let shard: FleetArena = FleetArena::with_schedule(schedule.clone(), 9);
        let err = ring.absorb_epoch_from(cap as u64, 0, &shard).unwrap_err();
        assert_eq!(err, SBitmapError::GuardFull { epoch: 0, cap });
        // …while already-tracked identities keep deduping.
        assert_eq!(
            ring.absorb_delta_from(5, &empty()).unwrap(),
            AbsorbOutcome::Duplicate
        );
        // Rotation clears the slot's guard and frees capacity again.
        ring.advance_to(2).unwrap();
        let fresh = FleetDeltaFrame::new(
            dims.n_max(),
            dims.m(),
            schedule.split().sampling_bits(),
            9,
            2,
            0,
        );
        assert_eq!(
            ring.absorb_delta_from(cap as u64, &fresh).unwrap(),
            AbsorbOutcome::Absorbed
        );
    }

    #[test]
    fn fused_query_special_cases_match_naive() {
        // Every shape the fused path special-cases: key absent, key in
        // exactly one live epoch (the zero-word-traffic shortcut), key
        // in exactly two (copy + fused OR only), and key in all epochs.
        let mut w = windowed(4);
        w.insert_u64(1, 7); // epoch 0 only — expires later
        w.rotate();
        for i in 0..800u64 {
            w.insert_u64(2, i); // epoch 1 only
        }
        w.rotate();
        for i in 0..800u64 {
            w.insert_u64(2, 10_000 + i); // epochs 1 and 2
            w.insert_u64(3, i); // epoch 2 only
        }
        w.rotate();
        for i in 0..800u64 {
            w.insert_u64(2, 20_000 + i);
            w.insert_u64(3, i + 400); // epochs 2 and 3
        }
        for key in 0..6u64 {
            assert_eq!(w.window_fill(key), w.window_fill_naive(key), "key {key}");
            assert_eq!(w.estimate(key), w.estimate_naive(key), "key {key}");
        }
        // Single-epoch key: the shortcut answers without word traffic,
        // and an absent key answers None on both paths.
        assert!(w.window_fill(1).is_some());
        assert_eq!(w.window_fill(5), None);
        assert_eq!(w.estimate_naive(5), None);
        // Expire key 1 (inserted in epoch 0; window is 4 epochs).
        w.rotate();
        assert_eq!(w.window_fill(1), None);
        assert_eq!(w.window_fill_naive(1), None);
    }

    #[test]
    fn export_window_sketch_carries_the_union_state() {
        let mut w = windowed(2);
        for i in 0..1_500u64 {
            w.insert_u64(4, i);
        }
        w.rotate();
        for i in 1_000..2_500u64 {
            w.insert_u64(4, i);
        }
        let sketch = w.export_window_sketch(4).unwrap();
        let union_fill = w.window_fill(4).unwrap();
        assert_eq!(sketch.fill(), union_fill);
        // The exported sketch carries the t(U) term; the windowed
        // estimate is min(t(U), Σ t(Lₑ)) and can only be tighter.
        let t_union = estimator::estimate_from_fill(w.schedule().dims(), union_fill);
        assert_eq!(sketch.estimate(), t_union);
        assert!(w.estimate(4).unwrap() <= t_union);
        assert!(w.export_window_sketch(5).is_none());
    }

    #[test]
    fn shrinking_the_budget_under_an_open_epoch_stays_scalar_batch_identical() {
        // Fill an unbudgeted epoch past the budget about to be set; the
        // overfull epoch must close before the next insert lands, and
        // scalar and batched feeds must keep agreeing bit-for-bit.
        let mut scalar = windowed(3);
        for i in 0..1_500u64 {
            scalar.insert_u64(1, i);
        }
        let mut batched = scalar.clone();
        scalar = scalar.with_epoch_items(1_000).unwrap();
        batched = batched.with_epoch_items(1_000).unwrap();
        scalar.insert_u64(1, 9_999);
        assert_eq!(scalar.current_epoch(), 1, "overfull epoch closed first");
        assert_eq!(scalar.clock().items_in_epoch(), 1);
        batched.insert_batch(&[(1, 9_999)]);
        assert_eq!(batched.checkpoint(), scalar.checkpoint());
    }

    #[test]
    fn restore_rejects_hostile_window_and_epoch_fields() {
        use crate::codec::{frame, PayloadWriter};

        // A frame with a valid checksum but an absurd window span must
        // be rejected before any ring allocation happens.
        let hostile = |window: u64, epoch: u64, live: u64| {
            let mut w = PayloadWriter::default();
            w.u64(100_000); // n_max
            w.u64(4_000); // m
            w.u32(32); // d
            w.u64(9); // seed
            w.u64(window);
            w.u64(epoch);
            w.u64(0); // budget
            w.u64(0); // in_epoch
            w.u64(live);
            frame(CounterKind::WindowedFleet, &w.into_inner())
        };
        let err = <WindowedFleet as Checkpoint>::restore(&hostile(1 << 40, 0, 0)).unwrap_err();
        assert!(err.to_string().contains("wire limit"), "{err}");
        // epoch = u64::MAX must fail loudly, not overflow.
        let err = <WindowedFleet as Checkpoint>::restore(&hostile(2, u64::MAX, 1)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // An in-range frame with no live epochs restores fine.
        let ok: WindowedFleet = Checkpoint::restore(&hostile(2, 5, 0)).unwrap();
        assert_eq!(ok.current_epoch(), 5);
        assert!(ok.is_empty());
    }

    #[test]
    fn rejects_degenerate_configs_and_tampered_checkpoints() {
        assert!(WindowedFleet::<SplitMix64Hasher>::new(100_000, 4_000, 9, 0).is_err());
        assert!(windowed(2).with_epoch_items(0).is_err());
        let mut w = windowed(2);
        w.insert_u64(1, 1);
        let bytes = w.checkpoint();
        for pos in [0usize, 10, 40, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(
                <WindowedFleet as Checkpoint>::restore(&bad).is_err(),
                "corruption at {pos} accepted"
            );
        }
    }

    #[test]
    fn ordering_guarantee_holds_across_epochs() {
        let mut w = windowed(3);
        for key in [41u64, 5, 77] {
            w.insert_u64(key, 1);
        }
        w.rotate();
        for key in [9u64, 2, 41] {
            w.insert_u64(key, 2);
        }
        assert_eq!(w.keys_sorted(), vec![2, 5, 9, 41, 77]);
        let keys: Vec<u64> = w.estimates().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, w.keys_sorted());
        assert_eq!(w.len(), 5);
        assert_eq!(KeyedEstimates::estimates_sorted(&w), w.estimates());
    }
}
