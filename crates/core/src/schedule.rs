//! The sequential sampling-rate schedule of Theorem 2, plus the
//! quantized thresholds used by the sketch's hot path.
//!
//! With `r = 1 − 2/(C+1)`:
//!
//! ```text
//! q_k = (1 + 1/C) · r^k                    (success rate of step k)
//! p_k = q_k · m / (m + 1 − k)              (sampling rate of step k)
//! t_b = Σ_{k≤b} 1/q_k = (C/2)(r^{−b} − 1)  (expected stream position)
//! ```
//!
//! Rates are clamped to `p_{b_max}` for `k > b_max = ⌊m − C/2⌋`, which
//! restores the monotonicity Lemma 1 requires (the paper's remark after
//! eq. (7)).
//!
//! The schedule is immutable and shareable: a fleet of sketches with the
//! same `(N, m, d)` configuration (e.g. one per router link) can hold an
//! `Arc<RateSchedule>` and pay the precomputed tables once — `m × 8`
//! bytes of sampling thresholds plus `(m + 1) × 8` bytes of estimator
//! curve (`t_b`, see [`RateSchedule::estimate_at`]), ≈ `2m × 8` bytes
//! total.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::dimensioning::Dimensioning;
use crate::SBitmapError;
use sbitmap_hash::HashSplit;

/// Precomputed sampling schedule: the `d`-bit integer thresholds
/// `⌈p_k · 2^d⌉` for `k = 1..=m`, plus the constants needed by the
/// estimator and the simulator.
#[derive(Debug, Clone)]
pub struct RateSchedule {
    dims: Dimensioning,
    split: HashSplit,
    /// `thresholds[k-1] = ⌈p_k · 2^d⌉` (clamped beyond `b_max`).
    thresholds: Box<[u64]>,
    /// `estimates[b] = t_{min(b, b_max)}` for `b = 0..=m` — the entire
    /// estimator curve, precomputed so a query is one table load
    /// instead of an `ln_1p` + `exp` pair. Values are exactly
    /// [`crate::estimator::estimate_from_fill`] at every fill (same
    /// f64 computation, evaluated once), so estimates cannot depend on
    /// which path produced them.
    estimates: Box<[f64]>,
}

impl RateSchedule {
    /// Default width of the sampling word (the paper's `d`). The paper
    /// suggests `d = 30` is ample for `N` in the millions; we default to
    /// the full 32 bits our hash split provides.
    pub const DEFAULT_SAMPLING_BITS: u32 = 32;

    /// Build the schedule for a solved [`Dimensioning`] with `d` sampling
    /// bits.
    ///
    /// # Errors
    ///
    /// Propagates invalid `(m, d)` combinations from [`HashSplit`].
    pub fn new(dims: Dimensioning, sampling_bits: u32) -> Result<Self, SBitmapError> {
        let split = HashSplit::new(dims.m(), sampling_bits)
            .map_err(|e| SBitmapError::invalid("sampling_bits", e))?;
        let m = dims.m();
        let b_max = dims.b_max();
        let mut thresholds = Vec::with_capacity(m);
        let mut clamp = u64::MAX;
        for k in 1..=m {
            let k_eff = k.min(b_max);
            let p = raw_rate(&dims, k_eff);
            let t = if k <= b_max {
                split.threshold(p)
            } else {
                clamp
            };
            if k == b_max {
                clamp = t;
            }
            // Enforce monotone non-increasing thresholds even under
            // quantization, so the duplicate-filtering argument holds
            // bit-exactly.
            let t = t.min(*thresholds.last().unwrap_or(&u64::MAX));
            thresholds.push(t);
        }
        let estimates: Vec<f64> = (0..=m)
            .map(|b| crate::theory::t(&dims, b.min(b_max)))
            .collect();
        Ok(Self {
            dims,
            split,
            thresholds: thresholds.into_boxed_slice(),
            estimates: estimates.into_boxed_slice(),
        })
    }

    /// Convenience: schedule from `(n_max, m)` with default `d`.
    pub fn from_memory(n_max: u64, m: usize) -> Result<Self, SBitmapError> {
        Self::new(
            Dimensioning::from_memory(n_max, m)?,
            Self::DEFAULT_SAMPLING_BITS,
        )
    }

    /// The schedule for `(n_max, m, sampling_bits)`, shared with every
    /// other live user of the same configuration.
    ///
    /// Building a schedule is O(m) (≈ 0.7 ms at `m = 8000`), and every
    /// checkpoint restore needs one; this is the path restores take.
    /// The process-wide cache holds only [`Weak`] handles, so a
    /// schedule lives exactly as long as its last user, and entries
    /// whose users are gone are pruned on every miss — a stream of
    /// distinct (say, hostile) configurations cannot grow it past the
    /// number of schedules actually alive. The build runs outside the
    /// cache lock.
    ///
    /// # Errors
    ///
    /// As [`Dimensioning::from_memory`] and [`RateSchedule::new`].
    pub fn shared(n_max: u64, m: usize, sampling_bits: u32) -> Result<Arc<Self>, SBitmapError> {
        type Entry = ((u64, usize, u32), Weak<RateSchedule>);
        static CACHE: Mutex<Vec<Entry>> = Mutex::new(Vec::new());
        let key = (n_max, m, sampling_bits);
        let lookup = |cache: &[Entry]| {
            cache
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, w)| w.upgrade())
        };
        if let Some(hit) = lookup(&CACHE.lock().unwrap_or_else(PoisonError::into_inner)) {
            return Ok(hit);
        }
        let built = Arc::new(Self::new(
            Dimensioning::from_memory(n_max, m)?,
            sampling_bits,
        )?);
        let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have built the same one meanwhile.
        if let Some(hit) = lookup(&cache) {
            return Ok(hit);
        }
        cache.retain(|(_, w)| w.strong_count() > 0);
        cache.push((key, Arc::downgrade(&built)));
        Ok(built)
    }

    /// Convenience: schedule from `(n_max, epsilon)` with default `d`.
    pub fn from_error(n_max: u64, epsilon: f64) -> Result<Self, SBitmapError> {
        Self::new(
            Dimensioning::from_error(n_max, epsilon)?,
            Self::DEFAULT_SAMPLING_BITS,
        )
    }

    /// The dimensioning this schedule was built from.
    #[inline]
    pub fn dims(&self) -> &Dimensioning {
        &self.dims
    }

    /// The hash splitter (bucket count `m`, sampling width `d`).
    #[inline]
    pub fn split(&self) -> &HashSplit {
        &self.split
    }

    /// Quantized threshold for step `k` (`1 ≤ k ≤ m`): the update fires
    /// when the `d`-bit sampling word is below this.
    #[inline]
    pub fn threshold(&self, k: usize) -> u64 {
        self.thresholds[k - 1]
    }

    /// The estimator value `t_{min(fill, b_max)}` from the precomputed
    /// curve: one bounds check and one load on the query hot path,
    /// bit-identical to [`crate::estimator::estimate_from_fill`] on this
    /// schedule's dimensioning (locked by this module's tests). Fills
    /// beyond `m` (impossible for a well-formed sketch) clamp to the
    /// truncated maximum.
    #[inline]
    pub fn estimate_at(&self, fill: usize) -> f64 {
        self.estimates[fill.min(self.estimates.len() - 1)]
    }

    /// The *achieved* sampling rate at step `k` after quantization,
    /// `⌈p_k·2^d⌉ / 2^d`.
    #[inline]
    pub fn p(&self, k: usize) -> f64 {
        self.thresholds[k - 1] as f64 / self.split.sampling_range() as f64
    }

    /// The success probability `q_k = (1 − (k−1)/m)·p_k` of the fill
    /// process at step `k`, using the achieved (quantized) `p_k`.
    #[inline]
    pub fn q(&self, k: usize) -> f64 {
        (1.0 - (k as f64 - 1.0) / self.dims.m() as f64) * self.p(k)
    }

    /// Exact (unquantized) `p_k` from Theorem 2, clamped at `b_max`.
    #[inline]
    pub fn p_exact(&self, k: usize) -> f64 {
        raw_rate(&self.dims, k.min(self.dims.b_max()))
    }

    /// Number of schedule steps (= `m`).
    #[inline]
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// `true` when the schedule is empty (never: `m ≥ 1`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }
}

/// Theorem 2's `p_k = m/(m+1−k) · (1 + 1/C) · r^k`, un-clamped, capped
/// at 1.
fn raw_rate(dims: &Dimensioning, k: usize) -> f64 {
    let m = dims.m() as f64;
    let c = dims.c();
    let r = dims.r();
    let p = m / (m + 1.0 - k as f64) * (1.0 + 1.0 / c) * r.powi(k as i32);
    p.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_schedules_are_one_per_live_configuration() {
        // A configuration no other test uses, so nothing else keeps it
        // alive.
        let (n_max, m) = (123_457, 1_001);
        let a = RateSchedule::shared(n_max, m, 32).unwrap();
        let b = RateSchedule::shared(n_max, m, 32).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let other = RateSchedule::shared(n_max, m, 31).unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(other.split().sampling_bits(), 31);
        // Identical to a private build.
        let fresh = RateSchedule::new(Dimensioning::from_memory(n_max, m).unwrap(), 32).unwrap();
        assert_eq!(*a.dims(), *fresh.dims());
        assert!((1..=m).all(|k| a.threshold(k) == fresh.threshold(k)));
        assert!((0..=m).all(|b| a.estimate_at(b).to_bits() == fresh.estimate_at(b).to_bits()));
        // The cache never outlives the users.
        let weak = Arc::downgrade(&a);
        drop((a, b));
        assert!(weak.upgrade().is_none());
        // Errors are not cached either.
        assert!(RateSchedule::shared(0, m, 32).is_err());
        assert!(RateSchedule::shared(n_max, m, 0).is_err());
    }

    fn sched() -> RateSchedule {
        RateSchedule::from_memory(1 << 20, 4000).unwrap()
    }

    #[test]
    fn estimate_table_matches_the_direct_estimator_bit_for_bit() {
        let s = sched();
        for fill in 0..=s.len() {
            assert_eq!(
                s.estimate_at(fill).to_bits(),
                crate::estimator::estimate_from_fill(s.dims(), fill).to_bits(),
                "fill {fill}"
            );
        }
        // Out-of-range fills clamp to the truncated maximum.
        assert_eq!(s.estimate_at(s.len() + 100), s.estimate_at(s.len()));
        assert_eq!(s.estimate_at(0), 0.0);
    }

    #[test]
    fn thresholds_are_monotone_non_increasing() {
        let s = sched();
        for k in 2..=s.len() {
            assert!(
                s.threshold(k) <= s.threshold(k - 1),
                "threshold rose at k={k}"
            );
        }
    }

    #[test]
    fn p1_below_one_and_positive_everywhere() {
        let s = sched();
        assert!(s.p(1) < 1.0);
        // p_1 = (C−1)/C.
        let c = s.dims().c();
        assert!((s.p_exact(1) - (c - 1.0) / c).abs() < 1e-9);
        for k in 1..=s.len() {
            assert!(s.p(k) > 0.0, "p_{k} quantized to zero");
        }
    }

    #[test]
    fn rates_strictly_decreasing_up_to_b_max() {
        let s = sched();
        let b_max = s.dims().b_max();
        for k in 2..=b_max {
            assert!(
                s.p_exact(k) < s.p_exact(k - 1),
                "p not strictly decreasing at k={k}"
            );
        }
    }

    #[test]
    fn rates_clamped_beyond_b_max() {
        let s = sched();
        let b_max = s.dims().b_max();
        let clamp = s.threshold(b_max);
        for k in b_max..=s.len() {
            assert_eq!(s.threshold(k), clamp);
        }
    }

    #[test]
    fn quantization_error_is_negligible_at_32_bits() {
        let s = sched();
        for k in (1..=s.dims().b_max()).step_by(97) {
            let exact = s.p_exact(k);
            let achieved = s.p(k);
            assert!(
                (achieved - exact).abs() <= 1.0 / (1u64 << 32) as f64 + 1e-15,
                "k={k}: quantized {achieved} vs exact {exact}"
            );
        }
    }

    #[test]
    fn q_includes_occupancy_factor() {
        let s = sched();
        let k = 100;
        let expect = (1.0 - 99.0 / s.dims().m() as f64) * s.p(k);
        assert!((s.q(k) - expect).abs() < 1e-15);
    }

    #[test]
    fn coarse_sampling_bits_still_monotone() {
        // d = 8 quantizes hard; monotonicity must survive.
        let dims = Dimensioning::from_memory(10_000, 1200).unwrap();
        let s = RateSchedule::new(dims, 8).unwrap();
        for k in 2..=s.len() {
            assert!(s.threshold(k) <= s.threshold(k - 1));
        }
        assert!(s.threshold(s.len()) >= 1, "tail rate must stay positive");
    }

    #[test]
    fn paper_d30_configuration_builds() {
        let dims = Dimensioning::from_memory(1 << 20, 4000).unwrap();
        let s = RateSchedule::new(dims, 30).unwrap();
        assert_eq!(s.split().sampling_bits(), 30);
    }

    #[test]
    fn invalid_sampling_bits_rejected() {
        let dims = Dimensioning::from_memory(1 << 20, 4000).unwrap();
        assert!(RateSchedule::new(dims, 0).is_err());
        assert!(RateSchedule::new(dims, 33).is_err());
    }

    #[test]
    fn schedule_len_is_m() {
        let s = sched();
        assert_eq!(s.len(), 4000);
        assert!(!s.is_empty());
    }
}
