//! The sharded node → collector pipeline of the paper's §7.2 deployment.
//!
//! A Tier-1 backbone runs one measurement node per region; each node
//! builds per-link sketches locally and ships *checkpoints* — not flow
//! tables — to a central collector. This module reproduces that
//! architecture in-process: `shards` node workers on std threads each own
//! a subset of the links of a [`BackboneSnapshot`], hold their links'
//! sketches in one arena-packed [`FleetArena`] (keyed by link index, all
//! bitmaps in one contiguous buffer over one shared schedule)
//! plus one shard-wide [`HyperLogLog`], and send framed v2 checkpoints
//! (`sbitmap_core::codec`) over an `mpsc` channel. Per-link seeds are
//! derived with [`sbitmap_core::fleet::sketch_seed`], so the shipped
//! per-link checkpoints are bit-identical to what standalone `SBitmap`s
//! would produce — sharding and arena packing are execution details. The
//! collector verifies and decodes every frame, then combines them the two
//! ways the estimator family allows:
//!
//! * **mergeable sketches** (the per-shard HLLs share one seed) are
//!   folded with [`MergeableCounter::merge_from`] into a single sketch of
//!   the union of *all* flows across *all* links — one number the bitmap
//!   family cannot produce from per-link state;
//! * **S-bitmaps are not mergeable** (the paper's trade-off), so their
//!   per-link *estimates* are aggregated into the §7.2 summary: the
//!   quantiles of the per-link distinct-count distribution (the Figure 7
//!   view) plus error statistics against the generator's ground truth.
//!
//! Every byte that crosses the channel is a real checkpoint: the pipeline
//! end-to-end exercises encode → frame → checksum → decode → merge, which
//! is exactly what a networked deployment would do with TCP in the
//! middle.
//!
//! The windowed half serves the deployment `sbitmap-daemon` runs:
//! [`DeltaFrameSource`] cuts one node shard's per-epoch v3 delta chains
//! (what an agent ships), and [`run_windowed_pipeline`] is the
//! codec-free reference ring those chains must reassemble.

use std::sync::mpsc;
use std::sync::Arc;

use sbitmap_baselines::HyperLogLog;
use sbitmap_core::codec::Checkpoint;
use sbitmap_core::{
    BatchedCounter, DistinctCounter, FleetArena, FleetDeltaFrame, KeyedEstimates, MergeableCounter,
    RateSchedule, SBitmap, WindowedFleet,
};

use crate::backbone::BackboneSnapshot;

/// Configuration for one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of backbone links (600 = the paper's full snapshot).
    pub links: usize,
    /// Node shards (worker threads); links are dealt round-robin.
    pub shards: usize,
    /// Per-link S-bitmap range `[1, n_max]` (paper §7.2: 1.5×10⁶).
    pub n_max: u64,
    /// Per-link S-bitmap bits (paper §7.2: 8000 ≈ 3% RRMSE).
    pub m_bits: usize,
    /// Registers of each shard's mergeable union sketch.
    pub hll_registers: usize,
    /// Workload + sketch seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            links: 150,
            shards: 4,
            n_max: 1_500_000,
            m_bits: 8_000,
            hll_registers: 4_096,
            seed: 0xc011,
        }
    }
}

/// One decoded per-link report at the collector.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Link index in the snapshot.
    pub link: usize,
    /// Shard that measured the link.
    pub shard: usize,
    /// The generator's true distinct flow count.
    pub truth: u64,
    /// The restored S-bitmap's estimate.
    pub estimate: f64,
}

/// The collector's aggregate output — the §7.2 summary.
#[derive(Debug, Clone)]
pub struct CollectSummary {
    /// Per-link reports, sorted by link index.
    pub links: Vec<LinkReport>,
    /// Number of node shards that ran.
    pub shards: usize,
    /// Estimate of the distinct flows across the whole backbone, from
    /// merging the shards' HyperLogLogs.
    pub union_estimate: f64,
    /// True total flows fed through the pipeline (sum of link counts;
    /// link flow-id spaces are disjoint by construction).
    pub total_flows: u64,
    /// Checkpoint frames received and verified.
    pub checkpoints: usize,
    /// Total checkpoint bytes that crossed the channel.
    pub bytes_shipped: usize,
    /// Mean absolute relative error of the per-link estimates.
    pub mean_abs_rel_err: f64,
    /// Quantiles of the per-link *estimates* at the probabilities of the
    /// paper's Figure 7 (25%, 50%, 75%, 99%), as `(p, value)` pairs.
    pub estimate_quantiles: Vec<(f64, f64)>,
}

impl CollectSummary {
    /// The per-link estimate quantile probabilities reported (Figure 7's
    /// interior knots).
    pub const QUANTILES: [f64; 4] = [0.25, 0.50, 0.75, 0.99];
}

/// The Figure 7 quantile summary of a per-link estimate sample (sorted
/// in place), at [`CollectSummary::QUANTILES`]. Sorting uses
/// [`f64::total_cmp`], so a NaN estimate — which no healthy estimator
/// produces, but a summary must never *panic* over — sorts to the high
/// end instead of aborting the collector.
pub fn quantile_summary(estimates: &mut [f64]) -> Vec<(f64, f64)> {
    estimates.sort_by(f64::total_cmp);
    CollectSummary::QUANTILES
        .iter()
        .map(|&p| {
            let idx = ((estimates.len() as f64 - 1.0) * p).round() as usize;
            (p, estimates[idx])
        })
        .collect()
}

/// What a node ships: a per-link S-bitmap checkpoint or the shard's
/// final mergeable union sketch.
enum NodeMessage {
    Link {
        shard: usize,
        link: usize,
        bytes: Vec<u8>,
    },
    ShardUnion {
        bytes: Vec<u8>,
    },
}

/// Per-link sketch seed: a pure function of the run seed and the link, so
/// anyone (tests, a remote peer) can rebuild a node's sketch exactly.
/// Delegates to the fleet-family derivation, which is what lets a node
/// hold its links in a [`FleetArena`] and still ship per-link checkpoints
/// indistinguishable from standalone sketches.
pub fn link_seed(seed: u64, link: usize) -> u64 {
    sbitmap_core::fleet::sketch_seed(seed, link as u64)
}

/// Run the sharded pipeline end-to-end and return the collector summary.
///
/// # Errors
///
/// Invalid configuration (zero links/shards, un-dimensionable sketch
/// parameters), or a checkpoint that fails verification at the collector
/// (which would indicate a codec bug, not an I/O hazard — the channel is
/// in-process).
pub fn run_pipeline(cfg: &PipelineConfig) -> Result<CollectSummary, String> {
    if cfg.links == 0 {
        return Err("links must be at least 1".into());
    }
    if cfg.shards == 0 {
        return Err("shards must be at least 1".into());
    }
    // Validate the sketch configuration once, before spawning anything;
    // the schedule (the big per-sketch table) is built once and shared by
    // every shard's arena.
    let schedule =
        Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).map_err(|e| e.to_string())?);
    HyperLogLog::new(cfg.hll_registers, 5, cfg.seed).map_err(|e| e.to_string())?;

    let snapshot = BackboneSnapshot::with_links(cfg.links, cfg.seed);
    let (tx, rx) = mpsc::channel::<NodeMessage>();

    let summary = std::thread::scope(|scope| -> Result<CollectSummary, String> {
        // --- node shards ---
        for shard in 0..cfg.shards {
            let tx = tx.clone();
            let snapshot = &snapshot;
            let schedule = schedule.clone();
            scope.spawn(move || {
                // The shard's links live in one arena-packed fleet keyed
                // by link index: a single allocation for every bitmap, no
                // per-link sketch boxes. Per-link seeds derive from the
                // run seed exactly as standalone sketches would, so the
                // shipped checkpoints are bit-identical either way.
                let mut fleet: FleetArena = FleetArena::with_schedule(schedule, cfg.seed);
                // The shard's mergeable union sketch: same (registers,
                // width, seed) on every shard, so the collector can merge.
                let mut union = HyperLogLog::new(cfg.hll_registers, 5, cfg.seed)
                    .expect("validated before spawn");
                // One scratch buffer for the whole worker, sized up front
                // to the shard's largest link so the per-link `extend`
                // never re-grows it mid-loop (the stream iterator cannot
                // report its length, so growth would otherwise happen
                // geometrically inside the hot fill).
                let mut flows: Vec<u64> = Vec::with_capacity(
                    (shard..cfg.links)
                        .step_by(cfg.shards)
                        .map(|link| snapshot.counts()[link] as usize)
                        .max()
                        .unwrap_or(0),
                );
                for link in (shard..cfg.links).step_by(cfg.shards) {
                    flows.clear();
                    flows.extend(snapshot.link_stream(link));
                    fleet.touch(link as u64);
                    fleet.insert_u64s(link as u64, &flows);
                    union.insert_u64_batch(&flows);
                    let bytes = fleet
                        .export_sketch(link as u64)
                        .expect("link touched above")
                        .checkpoint();
                    if tx.send(NodeMessage::Link { shard, link, bytes }).is_err() {
                        return; // collector gone; stop measuring
                    }
                }
                let _ = tx.send(NodeMessage::ShardUnion {
                    bytes: union.checkpoint(),
                });
            });
        }
        // The collector runs on this thread. Drop the original sender so
        // the receive loop ends when every shard has finished.
        drop(tx);

        // --- collector ---
        let mut links: Vec<LinkReport> = Vec::with_capacity(cfg.links);
        let mut merged: Option<HyperLogLog> = None;
        let mut checkpoints = 0usize;
        let mut bytes_shipped = 0usize;
        for msg in rx {
            match msg {
                NodeMessage::Link { shard, link, bytes } => {
                    bytes_shipped += bytes.len();
                    checkpoints += 1;
                    let sketch: SBitmap =
                        Checkpoint::restore(&bytes).map_err(|e| format!("link {link}: {e}"))?;
                    links.push(LinkReport {
                        link,
                        shard,
                        truth: snapshot.counts()[link],
                        estimate: sketch.estimate(),
                    });
                }
                NodeMessage::ShardUnion { bytes } => {
                    bytes_shipped += bytes.len();
                    checkpoints += 1;
                    let sketch: HyperLogLog =
                        Checkpoint::restore(&bytes).map_err(|e| format!("shard union: {e}"))?;
                    merged = Some(match merged.take() {
                        None => sketch,
                        Some(mut acc) => {
                            acc.merge_from(&sketch).map_err(|e| e.to_string())?;
                            acc
                        }
                    });
                }
            }
        }

        links.sort_by_key(|r| r.link);
        if links.len() != cfg.links {
            return Err(format!(
                "collector saw {} of {} links",
                links.len(),
                cfg.links
            ));
        }
        let mean_abs_rel_err = links
            .iter()
            .map(|r| (r.estimate / r.truth as f64 - 1.0).abs())
            .sum::<f64>()
            / links.len() as f64;
        let mut sorted: Vec<f64> = links.iter().map(|r| r.estimate).collect();
        let estimate_quantiles = quantile_summary(&mut sorted);
        Ok(CollectSummary {
            shards: cfg.shards,
            union_estimate: merged.as_ref().map_or(0.0, DistinctCounter::estimate),
            total_flows: snapshot.counts().iter().sum(),
            checkpoints,
            bytes_shipped,
            mean_abs_rel_err,
            estimate_quantiles,
            links,
        })
    })?;
    Ok(summary)
}

// ---------------------------------------------------------------------
// The windowed deployment: per-epoch delta chains, a central window ring
// ---------------------------------------------------------------------

/// Configuration for one windowed pipeline run.
#[derive(Debug, Clone)]
pub struct WindowedPipelineConfig {
    /// Number of backbone links.
    pub links: usize,
    /// Node shards (agents); links are dealt round-robin.
    pub shards: usize,
    /// Per-link S-bitmap range `[1, n_max]` — size for the *window's*
    /// cardinality, as [`WindowedFleet::new`] advises.
    pub n_max: u64,
    /// Per-link S-bitmap bits per epoch.
    pub m_bits: usize,
    /// Sliding-window span, in epochs (the ring's `W`).
    pub window: usize,
    /// Epochs the run simulates; the final summary covers the last
    /// `min(window, epochs)` of them.
    pub epochs: usize,
    /// Wire rounds per epoch: each shard ships an epoch as one round-0
    /// baseline plus `rounds − 1` newly-set-bit delta frames
    /// ([`DeltaFrameSource`]). Purely a wire granularity knob — per-link
    /// sketch state and estimates are independent of it.
    pub rounds: usize,
    /// Workload + sketch seed.
    pub seed: u64,
}

impl Default for WindowedPipelineConfig {
    fn default() -> Self {
        Self {
            links: 150,
            shards: 4,
            n_max: 1_500_000,
            m_bits: 8_000,
            window: 8,
            epochs: 12,
            rounds: 8,
            seed: 0xc011,
        }
    }
}

impl WindowedPipelineConfig {
    /// Flows one link emits per epoch: the snapshot count spread over
    /// the window, so a full window carries roughly the snapshot's
    /// five-minute load (and the `n_max` sizing stays honest).
    fn epoch_flows(&self, count: u64) -> u64 {
        (count / self.window as u64).max(1)
    }

    /// Epochs contributing to the final window.
    fn live_epochs(&self) -> usize {
        self.window.min(self.epochs)
    }

    /// Reject a configuration no windowed run can use, and build the
    /// schedule its sketches share.
    fn validate(&self) -> Result<Arc<RateSchedule>, String> {
        if self.links == 0 || self.shards == 0 {
            return Err("links and shards must be at least 1".into());
        }
        if self.window == 0 || self.epochs == 0 {
            return Err("window and epochs must be at least 1".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        RateSchedule::from_memory(self.n_max, self.m_bits)
            .map(Arc::new)
            .map_err(|e| e.to_string())
    }
}

/// One epoch's wire output from a [`DeltaFrameSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochFrames {
    /// Epoch the frames describe.
    pub epoch: u64,
    /// Always empty, and read by nothing. The field stays only so that
    /// code building `EpochFrames` by field keeps compiling.
    pub fulls: Vec<Vec<u8>>,
    /// One v3 `fleet-delta` frame per round. Round 0 is the baseline
    /// reset — a record for *every* shard link, even still-empty ones,
    /// which is what creates the receiver slots — and later rounds carry
    /// only links with newly-set bits since the previous round.
    pub deltas: Vec<Vec<u8>>,
}

/// A deterministic builder of one node shard's per-epoch v3
/// `fleet-delta` chains. Each epoch's per-link substream is split into
/// `cfg.rounds` contiguous chunks; after inserting chunk `r` the source
/// cuts one delta frame (XOR against the previous round's bitmap words —
/// which, because bits are only ever *set* within an epoch, is exactly
/// the newly-set bits). Because the chunks preserve per-key insertion
/// order, the final round's state is the shard's whole epoch, and
/// OR-absorbing every shard's chain reassembles exactly the ring
/// [`run_windowed_pipeline`] builds.
#[derive(Debug)]
pub struct DeltaFrameSource {
    cfg: WindowedPipelineConfig,
    snapshot: BackboneSnapshot,
    shard: usize,
    fleet: FleetArena,
    /// The shard's links, ascending — also the frame record key order.
    links: Vec<u64>,
    /// Per-link bitmap words as of the previous round (aligned with
    /// `links`): the XOR baseline for the next delta.
    prev: Vec<Vec<u64>>,
    /// The whole epoch's flows, generated once, with per-link extents
    /// aligned with `links`; rounds slice chunks out of it.
    flows: Vec<u64>,
    ranges: Vec<std::ops::Range<usize>>,
    next_epoch: usize,
}

impl DeltaFrameSource {
    /// Create the round-frame source for `shard` of `cfg.shards`.
    ///
    /// # Errors
    ///
    /// Zero links/shards/window/epochs/rounds, a shard index out of
    /// range, or un-dimensionable sketch parameters.
    pub fn new(cfg: &WindowedPipelineConfig, shard: usize) -> Result<Self, String> {
        let schedule = cfg.validate()?;
        if shard >= cfg.shards {
            return Err(format!(
                "shard {shard} out of range ({} shards)",
                cfg.shards
            ));
        }
        let links: Vec<u64> = (shard..cfg.links)
            .step_by(cfg.shards)
            .map(|l| l as u64)
            .collect();
        let stride = schedule.dims().m().div_ceil(64);
        let prev = vec![vec![0u64; stride]; links.len()];
        Ok(Self {
            cfg: cfg.clone(),
            snapshot: BackboneSnapshot::with_links(cfg.links, cfg.seed),
            shard,
            fleet: FleetArena::with_schedule(schedule, cfg.seed),
            links,
            prev,
            flows: Vec::new(),
            ranges: Vec::with_capacity(0),
            next_epoch: 0,
        })
    }

    /// The shard this source builds frames for.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Build the next epoch's round frames; `None` once every configured
    /// epoch has been built.
    pub fn next_frames(&mut self) -> Option<EpochFrames> {
        if self.next_epoch >= self.cfg.epochs {
            return None;
        }
        let epoch = self.next_epoch as u64;
        let rounds = self.cfg.rounds;
        self.fleet.clear();
        for prev in &mut self.prev {
            prev.fill(0);
        }
        // Generate each link's epoch substream exactly once — the same
        // stream `run_windowed_pipeline` inserts in one go — and remember
        // the per-link extents so each round can take its chunk.
        self.flows.clear();
        self.ranges.clear();
        for &link in &self.links {
            let start = self.flows.len();
            self.flows.extend(self.snapshot.link_epoch_stream(
                link as usize,
                epoch,
                self.cfg.epoch_flows(self.snapshot.counts()[link as usize]),
            ));
            self.ranges.push(start..self.flows.len());
        }
        let schedule = self.fleet.schedule().clone();
        let dims = schedule.dims();
        let mut scratch = vec![0u64; dims.m().div_ceil(64)];
        let mut deltas = Vec::with_capacity(rounds);
        for round in 0..rounds {
            for (idx, &link) in self.links.iter().enumerate() {
                let range = &self.ranges[idx];
                let len = range.len();
                let lo = range.start + len * round / rounds;
                let hi = range.start + len * (round + 1) / rounds;
                if round == 0 {
                    self.fleet.touch(link);
                }
                self.fleet.insert_u64s(link, &self.flows[lo..hi]);
            }
            let mut frame = FleetDeltaFrame::new(
                dims.n_max(),
                dims.m(),
                schedule.split().sampling_bits(),
                self.fleet.seed(),
                epoch,
                round as u32,
            );
            for (idx, &link) in self.links.iter().enumerate() {
                let cur = self.fleet.slot_words(link).expect("touched at round 0");
                let prev = &mut self.prev[idx];
                if round == 0 || cur != prev.as_slice() {
                    for (s, (&c, &p)) in scratch.iter_mut().zip(cur.iter().zip(prev.iter())) {
                        *s = c ^ p;
                    }
                    frame.push(link, &scratch);
                    prev.copy_from_slice(cur);
                }
            }
            deltas.push(frame.encode());
        }
        self.next_epoch += 1;
        Some(EpochFrames {
            epoch,
            fulls: Vec::new(),
            deltas,
        })
    }

    /// Build every remaining epoch's round frames at once — the backlog
    /// a node agent loads before dialing the collector.
    pub fn collect_epochs(mut self) -> Vec<EpochFrames> {
        let mut out = Vec::with_capacity(self.cfg.epochs.saturating_sub(self.next_epoch));
        while let Some(f) = self.next_frames() {
            out.push(f);
        }
        out
    }
}

/// One per-link row of the windowed summary.
#[derive(Debug, Clone)]
pub struct WindowedLinkReport {
    /// Link index in the snapshot.
    pub link: usize,
    /// True distinct flows across the final window's epochs (epoch
    /// substreams are disjoint by construction, so the truth is a sum).
    pub truth: u64,
    /// The central ring's sliding-window estimate.
    pub estimate: f64,
}

/// The windowed reference's aggregate output.
#[derive(Debug, Clone)]
pub struct WindowedSummary {
    /// Per-link windowed reports, sorted by link index.
    pub links: Vec<WindowedLinkReport>,
    /// The window span, in epochs.
    pub window: usize,
    /// Epochs simulated.
    pub epochs: usize,
    /// Epochs contributing to the final window (`min(window, epochs)`).
    pub live_epochs: usize,
    /// Mean absolute relative error of the windowed estimates.
    pub mean_abs_rel_err: f64,
    /// Quantiles of the per-link windowed estimates at
    /// [`CollectSummary::QUANTILES`].
    pub estimate_quantiles: Vec<(f64, f64)>,
}

/// The windowed node → collector deployment's codec-free reference.
///
/// Epoch by epoch, the central [`WindowedFleet`] advances to the epoch
/// and every link's epoch substream is inserted straight into it: no
/// frames, codec, channel or threads. Shard key sets are disjoint and a
/// sketch only sets bits within an epoch, so a collector OR-absorbing
/// every shard's [`DeltaFrameSource`] chain lands on exactly this ring,
/// for any shard count and round split. `tests/windowed_fleet.rs` and
/// the daemon suites hold the in-process and networked chain paths to
/// this summary bit for bit.
///
/// # Errors
///
/// Invalid configuration: zero links/shards/window/epochs/rounds, or
/// un-dimensionable sketch parameters.
pub fn run_windowed_pipeline(cfg: &WindowedPipelineConfig) -> Result<WindowedSummary, String> {
    let schedule = cfg.validate()?;
    let snapshot = BackboneSnapshot::with_links(cfg.links, cfg.seed);
    let mut ring: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).map_err(|e| e.to_string())?;
    let mut flows: Vec<u64> = Vec::new();
    for epoch in 0..cfg.epochs as u64 {
        ring.advance_to(epoch).map_err(|e| e.to_string())?;
        for link in 0..cfg.links {
            flows.clear();
            flows.extend(snapshot.link_epoch_stream(
                link,
                epoch,
                cfg.epoch_flows(snapshot.counts()[link]),
            ));
            ring.touch(link as u64);
            ring.insert_u64s(link as u64, &flows);
        }
    }

    // --- the §7.2 summary, now over the sliding window ---
    let live = cfg.live_epochs() as u64;
    let links: Vec<WindowedLinkReport> = ring
        .estimates_sorted()
        .into_iter()
        .map(|(key, estimate)| {
            let link = key as usize;
            WindowedLinkReport {
                link,
                truth: live * cfg.epoch_flows(snapshot.counts()[link]),
                estimate,
            }
        })
        .collect();
    let mean_abs_rel_err = links
        .iter()
        .map(|r| (r.estimate / r.truth as f64 - 1.0).abs())
        .sum::<f64>()
        / links.len() as f64;
    let mut sorted: Vec<f64> = links.iter().map(|r| r.estimate).collect();
    let estimate_quantiles = quantile_summary(&mut sorted);
    Ok(WindowedSummary {
        links,
        window: cfg.window,
        epochs: cfg.epochs,
        live_epochs: cfg.live_epochs(),
        mean_abs_rel_err,
        estimate_quantiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PipelineConfig {
        PipelineConfig {
            links: 24,
            shards: 3,
            n_max: 100_000,
            m_bits: 4_000,
            hll_registers: 1_024,
            seed: 7,
        }
    }

    #[test]
    fn pipeline_covers_every_link_exactly_once() {
        let cfg = small();
        let s = run_pipeline(&cfg).unwrap();
        assert_eq!(s.links.len(), 24);
        for (i, r) in s.links.iter().enumerate() {
            assert_eq!(r.link, i);
            assert_eq!(r.shard, i % 3, "round-robin link assignment");
        }
        // 24 link checkpoints + 3 shard unions.
        assert_eq!(s.checkpoints, 27);
        assert!(s.bytes_shipped > 24 * (cfg.m_bits / 8));
    }

    #[test]
    fn estimates_track_truth_and_union_tracks_total() {
        let s = run_pipeline(&small()).unwrap();
        assert!(
            s.mean_abs_rel_err < 0.12,
            "mean |rel err| {} too large",
            s.mean_abs_rel_err
        );
        // Link flow-id spaces are (almost surely) disjoint, so the merged
        // HLL should sit near the summed truth.
        let rel = s.union_estimate / s.total_flows as f64 - 1.0;
        assert!(rel.abs() < 0.12, "union rel err {rel}");
        // Quantiles are sorted and positive.
        assert!(s.estimate_quantiles.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn shard_count_does_not_change_link_reports() {
        // Sharding is an execution detail: per-link estimates and the
        // merged union must be identical for any shard count.
        let mut cfg = small();
        let a = run_pipeline(&cfg).unwrap();
        cfg.shards = 1;
        let b = run_pipeline(&cfg).unwrap();
        cfg.shards = 24;
        let c = run_pipeline(&cfg).unwrap();
        for ((ra, rb), rc) in a.links.iter().zip(&b.links).zip(&c.links) {
            assert_eq!(ra.estimate, rb.estimate, "link {}", ra.link);
            assert_eq!(ra.estimate, rc.estimate, "link {}", ra.link);
        }
        assert_eq!(a.union_estimate, b.union_estimate);
        assert_eq!(a.union_estimate, c.union_estimate);
    }

    #[test]
    fn arena_node_matches_standalone_sketch_per_link() {
        // The node side now packs its links into a FleetArena; the
        // reported estimates must equal what a standalone sketch with
        // the derived per-link seed produces on the same stream.
        let cfg = small();
        let s = run_pipeline(&cfg).unwrap();
        let snapshot = BackboneSnapshot::with_links(cfg.links, cfg.seed);
        for r in s.links.iter().step_by(5) {
            let mut sketch =
                SBitmap::with_memory(cfg.n_max, cfg.m_bits, link_seed(cfg.seed, r.link)).unwrap();
            let flows: Vec<u64> = snapshot.link_stream(r.link).collect();
            sketch.insert_u64s(&flows);
            assert_eq!(sketch.estimate(), r.estimate, "link {}", r.link);
        }
    }

    #[test]
    fn more_shards_than_links_is_fine() {
        let mut cfg = small();
        cfg.links = 2;
        cfg.shards = 8;
        let s = run_pipeline(&cfg).unwrap();
        assert_eq!(s.links.len(), 2);
        assert_eq!(s.checkpoints, 2 + 8, "idle shards still ship a union");
    }

    fn small_windowed() -> WindowedPipelineConfig {
        WindowedPipelineConfig {
            links: 18,
            shards: 3,
            n_max: 100_000,
            m_bits: 4_000,
            window: 3,
            epochs: 5,
            rounds: 3,
            seed: 7,
        }
    }

    #[test]
    fn windowed_pipeline_covers_every_link_with_window_truth() {
        let cfg = small_windowed();
        let s = run_windowed_pipeline(&cfg).unwrap();
        assert_eq!(s.links.len(), 18);
        assert_eq!(s.live_epochs, 3);
        let snapshot = BackboneSnapshot::with_links(cfg.links, cfg.seed);
        for (i, r) in s.links.iter().enumerate() {
            assert_eq!(r.link, i);
            assert_eq!(r.truth, 3 * cfg.epoch_flows(snapshot.counts()[i]));
        }
        assert!(s.estimate_quantiles.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn windowed_estimates_track_window_truth() {
        let s = run_windowed_pipeline(&small_windowed()).unwrap();
        assert!(
            s.mean_abs_rel_err < 0.15,
            "windowed mean |rel err| {} too large",
            s.mean_abs_rel_err
        );
    }

    #[test]
    fn windowed_window_larger_than_epochs_is_fine() {
        let mut cfg = small_windowed();
        cfg.window = 10;
        cfg.epochs = 2;
        let s = run_windowed_pipeline(&cfg).unwrap();
        assert_eq!(s.live_epochs, 2);
        assert_eq!(s.links.len(), cfg.links);
        assert!(s.mean_abs_rel_err < 0.2, "{}", s.mean_abs_rel_err);
    }

    #[test]
    fn delta_frame_source_is_deterministic_and_labels_its_rounds() {
        let cfg = small_windowed();
        for shard in 0..cfg.shards {
            let epochs = DeltaFrameSource::new(&cfg, shard).unwrap().collect_epochs();
            let again = DeltaFrameSource::new(&cfg, shard).unwrap().collect_epochs();
            assert_eq!(epochs, again, "shard {shard} bytes are reproducible");
            assert_eq!(epochs.len(), cfg.epochs);
            let shard_links = (shard..cfg.links).step_by(cfg.shards).count();
            for (epoch, ef) in epochs.iter().enumerate() {
                assert_eq!(ef.epoch, epoch as u64);
                assert!(ef.fulls.is_empty(), "no full checkpoints are cut");
                assert_eq!(ef.deltas.len(), cfg.rounds);
                // Round 0 is a baseline carrying every shard link.
                let baseline = FleetDeltaFrame::decode(&ef.deltas[0]).unwrap();
                assert!(baseline.is_baseline());
                assert_eq!(baseline.len(), shard_links);
                for (r, delta) in ef.deltas.iter().enumerate() {
                    let frame = FleetDeltaFrame::decode(delta).unwrap();
                    assert_eq!(frame.epoch, ef.epoch);
                    assert_eq!(frame.round, r as u32);
                }
            }
        }
        assert!(DeltaFrameSource::new(&cfg, cfg.shards).is_err());
    }

    #[test]
    fn quantile_summary_never_panics_on_nan() {
        let mut sample = vec![3.0, f64::NAN, 1.0, 2.0];
        let q = quantile_summary(&mut sample);
        assert_eq!(q.len(), CollectSummary::QUANTILES.len());
        assert_eq!(q[0].1, 2.0, "25% of [1, 2, 3, NaN]");
        assert!(q[3].1.is_nan(), "NaN sorts high, never panics");
    }

    #[test]
    fn windowed_rejects_degenerate_configs() {
        for broken in [
            WindowedPipelineConfig {
                links: 0,
                ..small_windowed()
            },
            WindowedPipelineConfig {
                shards: 0,
                ..small_windowed()
            },
            WindowedPipelineConfig {
                window: 0,
                ..small_windowed()
            },
            WindowedPipelineConfig {
                epochs: 0,
                ..small_windowed()
            },
            WindowedPipelineConfig {
                rounds: 0,
                ..small_windowed()
            },
            WindowedPipelineConfig {
                m_bits: 1,
                ..small_windowed()
            },
        ] {
            assert!(run_windowed_pipeline(&broken).is_err());
            assert!(DeltaFrameSource::new(&broken, 0).is_err());
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut cfg = small();
        cfg.links = 0;
        assert!(run_pipeline(&cfg).is_err());
        let mut cfg = small();
        cfg.shards = 0;
        assert!(run_pipeline(&cfg).is_err());
        let mut cfg = small();
        cfg.m_bits = 1; // un-dimensionable
        assert!(run_pipeline(&cfg).is_err());
    }
}
