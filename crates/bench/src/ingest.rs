//! The fleet-scale ingestion benchmark: scalar vs batched vs concurrent.
//!
//! The workload is the paper's §7.2 deployment shape — one shared rate
//! schedule, hundreds of backbone links, a collector draining interleaved
//! `(link, flow)` pairs — generated by
//! [`sbitmap_stream::BackboneSnapshot`], plus a single-sketch lane on the
//! §7.1 worm trace. Three ingestion strategies are timed over identical
//! item sequences:
//!
//! * **scalar** — one [`KeyedSketches::insert_u64`] / `SBitmap::insert_u64`
//!   call per item (one HashMap lookup per pair, one hash-probe chain at
//!   a time);
//! * **batched** — [`KeyedSketches::insert_batch`] /
//!   [`sbitmap_core::SBitmap::insert_u64s`] (group by key, batch-hash,
//!   prefetch-pipelined probes);
//! * **concurrent** — [`ConcurrentSBitmap`] over the atomic bitmap
//!   backend, 1..=T threads over disjoint slices of the same stream.
//!
//! Results serialize to `BENCH_ingest.json` through
//! [`crate::harness::to_json`] so the perf trajectory is tracked from PR
//! to PR.

use std::sync::Arc;

use sbitmap_core::{ConcurrentSBitmap, DistinctCounter, RateSchedule, SBitmap};
use sbitmap_stream::{BackboneSnapshot, WormLink, WormTrace};

use crate::harness::{Bench, Measurement};
use crate::keyed::KeyedSketches;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Backbone links to simulate (600 = the paper's full snapshot;
    /// smaller values keep smoke runs cheap while spanning the same
    /// count distribution, thanks to stratified sampling).
    pub links: usize,
    /// Cap on total `(link, flow)` pairs fed per iteration.
    pub max_pairs: usize,
    /// Per-case wall-clock budget in milliseconds.
    pub budget_ms: u64,
    /// Max worker threads for the concurrent lane.
    pub max_threads: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            links: 150,
            max_pairs: 2_000_000,
            budget_ms: 300,
            max_threads: std::thread::available_parallelism().map_or(4, |p| p.get().min(8)),
            seed: 0xbe9c,
        }
    }
}

impl IngestConfig {
    /// A cheap configuration for CI smoke runs (~1 s wall clock total).
    pub fn smoke() -> Self {
        Self {
            links: 40,
            max_pairs: 200_000,
            budget_ms: 60,
            max_threads: 2,
            ..Self::default()
        }
    }
}

/// The sketch configuration of the §7.2 scenario: counts up to 1.5M
/// flows per five-minute interval.
const N_MAX: u64 = 1_500_000;
/// Per-link bitmap bits (≈3% RRMSE at `N_MAX` by eq. (7)).
const M_BITS: usize = 8_000;

/// A fresh per-key fleet at the §7.2 configuration, schedule included.
fn backbone_fleet(seed: u64) -> KeyedSketches {
    KeyedSketches::new(
        Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).expect("fleet config")),
        seed,
    )
}

/// Build the interleaved `(link, flow)` arrival sequence: links take
/// turns emitting their next flow id, round-robin, until each link's
/// five-minute count is exhausted — the arrival pattern a collector
/// actually sees (no long per-link runs), which is the worst case for
/// per-item HashMap dispatch and the case `insert_batch` regroups.
pub fn backbone_pairs(cfg: &IngestConfig) -> Vec<(u64, u64)> {
    let links = cfg.links.max(1);
    let snap = BackboneSnapshot::with_links(links, cfg.seed);
    let mut streams: Vec<_> = (0..links)
        .map(|l| snap.link_stream(l).take(cfg.max_pairs / links + 1))
        .collect();
    let mut pairs = Vec::with_capacity(cfg.max_pairs);
    let mut live = true;
    while live && pairs.len() < cfg.max_pairs {
        live = false;
        for (link, stream) in streams.iter_mut().enumerate() {
            if let Some(flow) = stream.next() {
                pairs.push((link as u64, flow));
                live = true;
            }
        }
    }
    pairs.truncate(cfg.max_pairs);
    pairs
}

/// The union flow stream of the busier worm-trace link (§7.1), for the
/// single-sketch lanes.
pub fn worm_items(cfg: &IngestConfig) -> Vec<u64> {
    let trace = WormTrace::generate(WormLink::Link0, cfg.seed);
    let mut items = Vec::with_capacity(cfg.max_pairs);
    'outer: for minute in 0..WormTrace::MINUTES {
        for item in trace.minute_stream(minute) {
            if items.len() >= cfg.max_pairs {
                break 'outer;
            }
            items.push(item);
        }
    }
    items
}

/// Run the full comparison; returns one [`Measurement`] per lane.
pub fn run(cfg: &IngestConfig) -> Vec<Measurement> {
    let bench = Bench::with_budget_ms(cfg.budget_ms);
    let pairs = backbone_pairs(cfg);
    let n_pairs = pairs.len() as u64;
    let worm = worm_items(cfg);
    let n_worm = worm.len() as u64;
    let mut results = Vec::new();

    // Fleet lanes: the §7.2 shape. Fresh fleet per iteration so every
    // iteration sees identical (cold-sketch) state.
    results.push(bench.run("backbone_fleet_scalar", n_pairs, || {
        let mut fleet = backbone_fleet(cfg.seed);
        for &(link, flow) in &pairs {
            fleet.insert_u64(link, flow);
        }
        fleet.len()
    }));
    results.push(bench.run("backbone_fleet_batched", n_pairs, || {
        let mut fleet = backbone_fleet(cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    }));

    // Single-sketch lanes on the worm trace: isolates the hash+probe
    // pipeline from fleet dispatch.
    results.push(bench.run("worm_sketch_scalar", n_worm, || {
        let mut s = SBitmap::with_memory(N_MAX, M_BITS, cfg.seed).expect("sketch config");
        for &item in &worm {
            s.insert_u64(item);
        }
        s.fill()
    }));
    results.push(bench.run("worm_sketch_batched", n_worm, || {
        let mut s = SBitmap::with_memory(N_MAX, M_BITS, cfg.seed).expect("sketch config");
        s.insert_u64s(&worm);
        s.fill()
    }));

    // Concurrent lanes: same worm stream split across threads into one
    // shared sketch.
    let mut threads = 1;
    while threads <= cfg.max_threads {
        let name = format!("worm_concurrent_t{threads}");
        results.push(bench.run(&name, n_worm, || {
            let sketch =
                Arc::new(ConcurrentSBitmap::with_memory(N_MAX, M_BITS, cfg.seed).expect("config"));
            let chunk = worm.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for part in worm.chunks(chunk) {
                    let sketch = Arc::clone(&sketch);
                    scope.spawn(move || sketch.insert_u64s(part));
                }
            });
            sketch.fill()
        }));
        threads *= 2;
    }

    results
}

/// Render `results` (plus workload metadata) as the `BENCH_ingest.json`
/// document.
pub fn report_json(cfg: &IngestConfig, results: &[Measurement]) -> String {
    let scalar = results.iter().find(|m| m.name == "backbone_fleet_scalar");
    let batched = results.iter().find(|m| m.name == "backbone_fleet_batched");
    let speedup = match (scalar, batched) {
        (Some(s), Some(b)) if s.items_per_sec() > 0.0 => b.items_per_sec() / s.items_per_sec(),
        _ => 0.0,
    };
    crate::harness::to_json(
        "ingest",
        &[
            ("generator", "backbone+worm".to_string()),
            ("links", cfg.links.to_string()),
            ("n_max", N_MAX.to_string()),
            ("m_bits", M_BITS.to_string()),
            ("seed", cfg.seed.to_string()),
            ("batched_vs_scalar_speedup", format!("{speedup:.3}")),
        ],
        results,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_bounded() {
        let cfg = IngestConfig {
            links: 10,
            max_pairs: 5_000,
            ..IngestConfig::smoke()
        };
        let a = backbone_pairs(&cfg);
        let b = backbone_pairs(&cfg);
        assert_eq!(a, b);
        assert!(a.len() <= 5_000);
        assert!(a.iter().all(|&(k, _)| k < 10));
        // Interleaved: the first 10 pairs cover 10 different links.
        let first: std::collections::HashSet<u64> = a[..10].iter().map(|&(k, _)| k).collect();
        assert_eq!(first.len(), 10);
        let w = worm_items(&cfg);
        assert!(w.len() <= 5_000 && !w.is_empty());
    }

    #[test]
    fn strategies_agree_on_final_state() {
        // The three ingestion strategies must produce identical sketch
        // state (scalar vs batched) or identical fill-vs-popcount
        // consistency (concurrent) on the same workload.
        let cfg = IngestConfig {
            links: 6,
            max_pairs: 20_000,
            ..IngestConfig::smoke()
        };
        let pairs = backbone_pairs(&cfg);
        let mut scalar = backbone_fleet(1);
        let mut batched = backbone_fleet(1);
        for &(k, v) in &pairs {
            scalar.insert_u64(k, v);
        }
        batched.insert_batch(&pairs);
        assert_eq!(scalar.estimates(), batched.estimates());
    }

    #[test]
    fn smoke_run_produces_all_lanes_and_json() {
        let cfg = IngestConfig {
            links: 6,
            max_pairs: 10_000,
            budget_ms: 5,
            max_threads: 2,
            ..IngestConfig::smoke()
        };
        let results = run(&cfg);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        for expect in [
            "backbone_fleet_scalar",
            "backbone_fleet_batched",
            "worm_sketch_scalar",
            "worm_sketch_batched",
            "worm_concurrent_t1",
            "worm_concurrent_t2",
        ] {
            assert!(names.contains(&expect), "missing lane {expect}");
        }
        let json = report_json(&cfg, &results);
        assert!(json.contains("batched_vs_scalar_speedup"));
        assert!(json.contains("worm_concurrent_t2"));
    }
}
