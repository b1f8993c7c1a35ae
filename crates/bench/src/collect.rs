//! The collector-pipeline benchmark: node→collector throughput as the
//! shard count scales, plus the windowed wire-cost comparison.
//!
//! The shard lanes run [`sbitmap_stream::collector::run_pipeline`]
//! end-to-end — per-link sketch builds, checkpoint encode, channel
//! transfer, checksum verify + decode, and the mergeable-sketch fold —
//! over the same [`sbitmap_stream::BackboneSnapshot`] workload, with
//! 1, 2, 4, … node shards. Items/second counts the *flows ingested*, so
//! the lanes are directly comparable to the ingest bench.
//!
//! The `windowed_delta` lane times the collector's layer of the
//! windowed deployment's wire path: every shard's v3 delta chain
//! ([`DeltaFrameSource`]) is cut once, before timing, and the lane
//! validates each frame in place, decoding its sparse positions on the
//! way as the daemon's session threads do, then ORs it into one
//! central ring: runs from their wire bytes, positions from the
//! decoded ones. Before any timing that ring must be
//! **bit-identical** to the codec-free reference
//! [`run_windowed_pipeline`] — the bench refuses to time an encoding
//! that changes answers. The uncompressed comparator is computed, not
//! shipped: a tag-9 `sketch-fleet` checkpoint's length depends only on
//! its key count and `m`, so a full checkpoint per shard per round
//! costs `epochs × rounds × Σ_shards` one shard checkpoint's length.
//! The byte counts land in the report header (`bytes_on_wire_full` /
//! `bytes_on_wire_v3` / `wire_reduction`); results serialize to
//! `BENCH_collect.json`.

use sbitmap_core::codec::Checkpoint;
use sbitmap_core::{AbsorbOutcome, DeltaView, FleetArena, WindowedFleet};
use sbitmap_stream::collector::{run_pipeline, EpochFrames, PipelineConfig};
use sbitmap_stream::{
    run_windowed_pipeline, BackboneSnapshot, DeltaFrameSource, WindowedPipelineConfig,
};

use crate::harness::{Bench, Measurement};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    /// Backbone links to simulate.
    pub links: usize,
    /// Largest shard count; lanes run 1, 2, 4, … up to this.
    pub max_shards: usize,
    /// Per-case wall-clock budget in milliseconds.
    pub budget_ms: u64,
    /// Workload seed.
    pub seed: u64,
    /// Sliding-window width (epochs) for the wire-cost lanes.
    pub window: usize,
    /// Epochs the windowed lanes run.
    pub epochs: usize,
    /// Wire rounds per epoch for the windowed lanes — both encodings
    /// ship at this cadence, so the comparison is byte-for-byte fair.
    pub rounds: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        Self {
            links: 150,
            max_shards: std::thread::available_parallelism().map_or(4, |p| p.get().min(8)),
            budget_ms: 300,
            seed: 0xc011,
            window: 4,
            epochs: 6,
            rounds: 8,
        }
    }
}

impl CollectConfig {
    /// A cheap configuration for CI smoke runs (~1 s wall clock total).
    pub fn smoke() -> Self {
        Self {
            links: 20,
            max_shards: 2,
            budget_ms: 60,
            epochs: 4,
            ..Self::default()
        }
    }

    fn pipeline(&self, shards: usize) -> PipelineConfig {
        PipelineConfig {
            links: self.links.max(1),
            shards,
            seed: self.seed,
            ..PipelineConfig::default()
        }
    }

    fn windowed(&self) -> WindowedPipelineConfig {
        let defaults = PipelineConfig::default();
        WindowedPipelineConfig {
            links: self.links.max(1),
            shards: 2,
            n_max: defaults.n_max,
            m_bits: defaults.m_bits,
            window: self.window.max(2),
            epochs: self.epochs.max(1),
            rounds: self.rounds.max(1),
            seed: self.seed,
        }
    }
}

/// Wire-cost figures from the windowed full-vs-delta comparison.
#[derive(Debug, Clone)]
pub struct WireStats {
    /// Bytes a full v2 checkpoint per shard per round would ship
    /// (computed from the checkpoint length, which only the key count
    /// and `m` set).
    pub bytes_full: usize,
    /// Bytes the v3 delta chains shipped at the same cadence.
    pub bytes_v3: usize,
    /// Frames on the wire (`shards × epochs × rounds`).
    pub frames: usize,
    /// `bytes_full / bytes_v3`.
    pub reduction: f64,
}

/// Everything one collect-bench invocation produced.
#[derive(Debug, Clone)]
pub struct CollectRun {
    /// Timed lanes: shard scaling plus the windowed delta lane.
    pub results: Vec<Measurement>,
    /// Byte counts from the verified full-vs-delta comparison.
    pub wire: WireStats,
}

/// Cut every shard's v3 delta chain (the agents' sketching and
/// encoding — done once, outside any timed lane).
fn cut_chains(cfg: &WindowedPipelineConfig) -> Vec<Vec<EpochFrames>> {
    (0..cfg.shards)
        .map(|shard| {
            DeltaFrameSource::new(cfg, shard)
                .expect("windowed config")
                .collect_epochs()
        })
        .collect()
}

/// Validate every frame of the cut chains and OR it from its wire bytes
/// into one ring, in `(epoch, shard)` order — the collector's share of
/// the wire path. Returns the ring, the frames and the frame bytes
/// shipped.
fn absorb_chains(
    cfg: &WindowedPipelineConfig,
    chains: &[Vec<EpochFrames>],
) -> (WindowedFleet, usize, usize) {
    let mut ring: WindowedFleet =
        WindowedFleet::new(cfg.n_max, cfg.m_bits, cfg.seed, cfg.window).expect("windowed config");
    let (mut frames, mut bytes) = (0, 0);
    let mut positions = Vec::new();
    for epoch in 0..cfg.epochs {
        ring.advance_to(epoch as u64).expect("epochs ascend");
        for (shard, chain) in chains.iter().enumerate() {
            for delta in &chain[epoch].deltas {
                frames += 1;
                bytes += delta.len();
                let view =
                    DeltaView::validate_into(delta, &mut positions).expect("own frame validates");
                let outcome = ring.absorb_delta_view(shard as u64, &view);
                assert_eq!(
                    outcome.ok(),
                    Some(AbsorbOutcome::Absorbed),
                    "shard {shard} epoch {epoch}"
                );
            }
        }
    }
    (ring, frames, bytes)
}

/// Bytes of one full v2 `sketch-fleet` checkpoint per shard, summed
/// over the shards: what the uncompressed comparator ships per round.
fn full_bytes_per_round(cfg: &WindowedPipelineConfig) -> usize {
    (0..cfg.shards)
        .map(|shard| {
            let mut arena: FleetArena =
                FleetArena::new(cfg.n_max, cfg.m_bits, cfg.seed).expect("windowed config");
            for link in (shard..cfg.links).step_by(cfg.shards) {
                arena.touch(link as u64);
            }
            arena.checkpoint().len()
        })
        .sum()
}

/// Run the shard-scaling comparison and the windowed wire-cost lane.
///
/// # Panics
///
/// If the delta chains' ring diverges from [`run_windowed_pipeline`] in
/// any per-link estimate — the bench refuses to time an encoding that
/// changes answers.
pub fn run(cfg: &CollectConfig) -> CollectRun {
    let bench = Bench::with_budget_ms(cfg.budget_ms);
    // The flow total is a property of (links, seed): read it off the
    // snapshot directly so every lane can convert time to items/sec
    // without paying for a warm-up pipeline run.
    let total_flows: u64 = BackboneSnapshot::with_links(cfg.links.max(1), cfg.seed)
        .counts()
        .iter()
        .sum();
    let mut results = Vec::new();
    let mut shards = 1usize;
    while shards <= cfg.max_shards.max(1) {
        let name = format!("collect_s{shards}");
        let pipeline_cfg = cfg.pipeline(shards);
        results.push(bench.run(&name, total_flows, || {
            run_pipeline(&pipeline_cfg).expect("pipeline").checkpoints
        }));
        shards *= 2;
    }

    // Equivalence gate before timing the wire lane.
    let wcfg = cfg.windowed();
    let reference = run_windowed_pipeline(&wcfg).expect("windowed reference");
    let chains = cut_chains(&wcfg);
    let (ring, frames, bytes_v3) = absorb_chains(&wcfg, &chains);
    let expected: Vec<(u64, f64)> = reference
        .links
        .iter()
        .map(|r| (r.link as u64, r.estimate))
        .collect();
    assert!(
        ring.estimates() == expected,
        "refusing to benchmark: the delta chains' ring diverges from the reference"
    );
    let bytes_full = wcfg.epochs * wcfg.rounds * full_bytes_per_round(&wcfg);
    let wire = WireStats {
        bytes_full,
        bytes_v3,
        frames,
        reduction: bytes_full as f64 / (bytes_v3.max(1)) as f64,
    };

    results.push(bench.run("windowed_delta", frames as u64, || {
        absorb_chains(&wcfg, &chains).1
    }));
    CollectRun { results, wire }
}

/// Render a [`CollectRun`] (plus workload metadata) as the
/// `BENCH_collect.json` document.
pub fn report_json(cfg: &CollectConfig, run: &CollectRun) -> String {
    let results = &run.results;
    let single = results.iter().find(|m| m.name == "collect_s1");
    let best = results
        .iter()
        .filter(|m| m.name.starts_with("collect_s"))
        .max_by(|a, b| a.items_per_sec().total_cmp(&b.items_per_sec()));
    let speedup = match (single, best) {
        (Some(s), Some(b)) if s.items_per_sec() > 0.0 => b.items_per_sec() / s.items_per_sec(),
        _ => 0.0,
    };
    let defaults = PipelineConfig::default();
    crate::harness::to_json(
        "collect",
        &[
            ("generator", "backbone".to_string()),
            ("links", cfg.links.to_string()),
            ("n_max", defaults.n_max.to_string()),
            ("m_bits", defaults.m_bits.to_string()),
            ("hll_registers", defaults.hll_registers.to_string()),
            ("seed", cfg.seed.to_string()),
            ("window", cfg.window.to_string()),
            ("epochs", cfg.epochs.to_string()),
            ("rounds", cfg.rounds.to_string()),
            ("frames_on_wire", run.wire.frames.to_string()),
            ("bytes_on_wire_full", run.wire.bytes_full.to_string()),
            ("bytes_on_wire_v3", run.wire.bytes_v3.to_string()),
            ("wire_reduction", format!("{:.3}", run.wire.reduction)),
            ("multi_shard_vs_single_speedup", format!("{speedup:.3}")),
        ],
        results,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_lanes_and_json() {
        let cfg = CollectConfig {
            links: 8,
            max_shards: 2,
            budget_ms: 5,
            seed: 3,
            window: 3,
            epochs: 3,
            rounds: 2,
        };
        let run = run(&cfg);
        let names: Vec<&str> = run.results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["collect_s1", "collect_s2", "windowed_delta"]);
        assert!(run.results.iter().all(|m| m.items > 0));
        assert!(
            run.wire.bytes_v3 < run.wire.bytes_full,
            "delta lane must ship fewer bytes ({} vs {})",
            run.wire.bytes_v3,
            run.wire.bytes_full
        );
        assert_eq!(run.wire.frames, 2 * cfg.epochs * cfg.rounds);
        let json = report_json(&cfg, &run);
        assert!(json.contains("\"bench\": \"collect\""));
        assert!(json.contains("multi_shard_vs_single_speedup"));
        assert!(json.contains("bytes_on_wire_v3"));
        assert!(json.contains("wire_reduction"));
        assert!(json.contains("windowed_delta"));
    }

    #[test]
    fn full_checkpoint_length_ignores_fill() {
        // The computed comparator rests on this: a tag-9 checkpoint's
        // length is set by its key count and `m`, not by its bits.
        let keys = [2u64, 5, 9];
        let mut arena: FleetArena = FleetArena::new(1_500_000, 8_000, 3).unwrap();
        for key in keys {
            arena.touch(key);
        }
        let empty = arena.checkpoint().len();
        for key in keys {
            let items: Vec<u64> = (0..key * 10_000).collect();
            arena.insert_u64s(key, &items);
        }
        assert!(arena.fill(2).unwrap() > 0);
        assert_eq!(arena.checkpoint().len(), empty);
    }
}
