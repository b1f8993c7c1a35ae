//! The fleet-storage benchmark: per-key sketches vs the arena fleet on
//! the §7.2 backbone workload, plus the sparse-vs-dense memory lane on a
//! million-key Zipf per-flow workload.
//!
//! The **backbone** lanes ingest the *same* interleaved `(link, flow)`
//! pair sequence ([`crate::ingest::backbone_pairs`], so results are
//! directly comparable to `BENCH_ingest.json`'s `backbone_fleet_*`
//! lanes):
//!
//! * **scalar** / **batched** — the per-key [`KeyedSketches`] reference,
//!   fed pair by pair or grouped by key;
//! * **arena** — [`FleetArena::insert_batch`]: contiguous arena storage
//!   behind the counting-sort radix router, zero steady-state allocation.
//!
//! The **zipf** lanes model the paper's per-flow scenarios (§7): ≥1M
//! keys drawn Zipf(1.1), most of them cold, fed to the size-classed
//! [`SparseFleet`] and the dense [`FleetArena`]:
//!
//! * **zipf_fleet_sparse** / **zipf_fleet_arena** — identical batched
//!   ingest, sparse slab storage vs full-stride arena;
//! * peak-RSS deltas (`VmHWM`, via [`crate::harness::peak_rss_bytes`])
//!   are taken around one build of each flavor *before* any timing, and
//!   the report gates `rss_ratio` (sparse/dense, expected ≤ 0.25) and
//!   `sparse_vs_arena_slowdown` (ns/item, expected ≤ 1.5).
//!
//! Every iteration re-ingests from an empty fleet (a fresh build over
//! one pre-built shared [`RateSchedule`] — the schedule is configuration
//! shared fleet-wide in the paper's deployment, so its one-time
//! construction cost is kept out of the per-iteration timing), and
//! [`run`] first proves the lanes agree: every storage flavor's
//! estimates must equal its reference exactly, or the bench refuses to
//! report (`strategies_agree`). Results serialize to `BENCH_fleet.json`
//! through [`crate::harness::to_json`].

use std::sync::Arc;

use sbitmap_core::{FleetArena, RateSchedule, SparseFleet};
use sbitmap_stream::{distinct_items, zipf_stream};

use crate::harness::{peak_rss_bytes, Bench, Measurement};
use crate::ingest::{backbone_pairs, IngestConfig};
use crate::keyed::KeyedSketches;

/// Which workload generator(s) a fleet bench invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetGenerator {
    /// The §7.2 backbone lanes only (the historical default).
    Backbone,
    /// The Zipf per-flow sparse-vs-dense lanes only.
    Zipf,
    /// Both: zipf lanes first (their RSS deltas need a clean high-water
    /// mark), then the backbone lanes.
    All,
}

impl FleetGenerator {
    /// The flag spelling (`backbone` / `zipf` / `all`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Backbone => "backbone",
            Self::Zipf => "zipf",
            Self::All => "all",
        }
    }

    /// Parse a `--generator` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "backbone" => Some(Self::Backbone),
            "zipf" => Some(Self::Zipf),
            "all" => Some(Self::All),
            _ => None,
        }
    }

    fn runs_backbone(self) -> bool {
        matches!(self, Self::Backbone | Self::All)
    }

    fn runs_zipf(self) -> bool {
        matches!(self, Self::Zipf | Self::All)
    }
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backbone links to simulate.
    pub links: usize,
    /// Cap on total `(link, flow)` pairs fed per iteration.
    pub max_pairs: usize,
    /// Per-case wall-clock budget in milliseconds.
    pub budget_ms: u64,
    /// Workload seed.
    pub seed: u64,
    /// Which workload generator(s) to run.
    pub generator: FleetGenerator,
    /// Distinct keys in the Zipf lanes (the full report runs ≥ 1M).
    pub zipf_keys: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            links: 150,
            max_pairs: 2_000_000,
            budget_ms: 300,
            seed: 0xbe9c,
            generator: FleetGenerator::Backbone,
            zipf_keys: 1_200_000,
        }
    }
}

impl FleetConfig {
    /// A cheap configuration for CI smoke runs (~1 s wall clock total).
    pub fn smoke() -> Self {
        Self {
            links: 40,
            max_pairs: 200_000,
            budget_ms: 60,
            zipf_keys: 40_000,
            ..Self::default()
        }
    }

    fn ingest_cfg(&self) -> IngestConfig {
        IngestConfig {
            links: self.links,
            max_pairs: self.max_pairs,
            budget_ms: self.budget_ms,
            seed: self.seed,
            ..IngestConfig::default()
        }
    }
}

/// Sketch configuration shared with the ingest bench (§7.2 scenario).
const N_MAX: u64 = 1_500_000;
/// Per-link bitmap bits (≈3% RRMSE at `N_MAX`).
const M_BITS: usize = 8_000;

/// Zipf-lane sketch ceiling: per-flow counts are small, keys are many.
const ZIPF_N_MAX: u64 = 100_000;
/// Zipf-lane bitmap bits (63-word stride — ~504 B/key at full stride).
const ZIPF_M_BITS: usize = 4_000;
/// The Zipf exponent the ISSUE's RSS gate is stated at.
const ZIPF_ALPHA: f64 = 1.1;

/// The benchmark's outcome: per-lane measurements plus the cross-lane
/// equivalence verdict and the Zipf lanes' peak-RSS attribution.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// One measurement per lane.
    pub results: Vec<Measurement>,
    /// `true` when every storage flavor's estimates matched its
    /// reference exactly on this workload (checked before timing).
    pub strategies_agree: bool,
    /// Peak-RSS delta attributed to one sparse-fleet build of the Zipf
    /// workload; 0 when the zipf lanes did not run.
    pub sparse_rss_bytes: u64,
    /// Peak-RSS delta attributed to one dense-arena build of the Zipf
    /// workload; 0 when the zipf lanes did not run.
    pub dense_rss_bytes: u64,
}

/// Run the configured storage-flavor comparison.
///
/// # Panics
///
/// Panics if the fleet flavors disagree on any per-key estimate — a
/// disagreement means a storage layout or router broke bit-identity,
/// and a benchmark of wrong code is worse than no benchmark.
pub fn run(cfg: &FleetConfig) -> FleetRun {
    let mut results = Vec::new();
    let (mut sparse_rss_bytes, mut dense_rss_bytes) = (0u64, 0u64);
    // Zipf first: its RSS deltas difference the VmHWM high-water mark,
    // so nothing larger may have run in this process yet.
    if cfg.generator.runs_zipf() {
        let (lanes, sparse_rss, dense_rss) = run_zipf_lanes(cfg);
        results.extend(lanes);
        sparse_rss_bytes = sparse_rss;
        dense_rss_bytes = dense_rss;
    }
    if cfg.generator.runs_backbone() {
        results.extend(run_backbone_lanes(cfg));
    }
    FleetRun {
        results,
        strategies_agree: true, // every lane group asserts before timing
        sparse_rss_bytes,
        dense_rss_bytes,
    }
}

/// The §7.2 backbone lanes (per-key scalar/batched, arena).
fn run_backbone_lanes(cfg: &FleetConfig) -> Vec<Measurement> {
    let bench = Bench::with_budget_ms(cfg.budget_ms);
    let pairs = backbone_pairs(&cfg.ingest_cfg());
    let n_pairs = pairs.len() as u64;
    let schedule = Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).expect("fleet config"));

    // Cross-flavor equivalence gate: all storage layouts must yield the
    // same per-link estimates before any of them is worth timing.
    assert!(
        verify_equivalence(cfg, &schedule, &pairs),
        "fleet storage flavors disagree — refusing to benchmark broken code"
    );

    let mut results = Vec::new();
    results.push(bench.run("backbone_fleet_scalar", n_pairs, || {
        let mut fleet = KeyedSketches::new(schedule.clone(), cfg.seed);
        for &(link, flow) in &pairs {
            fleet.insert_u64(link, flow);
        }
        fleet.len()
    }));
    results.push(bench.run("backbone_fleet_batched", n_pairs, || {
        let mut fleet = KeyedSketches::new(schedule.clone(), cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    }));
    results.push(bench.run("backbone_fleet_arena", n_pairs, || {
        let mut fleet: FleetArena = FleetArena::with_schedule(schedule.clone(), cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    }));
    // Steady-state lane: the arena is reused across iterations (reset
    // keeps every allocation), so this measures the zero-allocation
    // regime a long-running collector actually sits in.
    {
        let mut fleet: FleetArena = FleetArena::with_schedule(schedule.clone(), cfg.seed);
        results.push(bench.run("backbone_fleet_arena_steady", n_pairs, || {
            fleet.reset_all();
            fleet.insert_batch(&pairs)
        }));
    }
    results
}

/// The Zipf per-flow pair stream: a coverage pass (one pair per key, so
/// both flavors hold exactly `zipf_keys` keys) followed by Zipf(1.1)
/// key draws with a running item counter — hot keys accumulate many
/// distinct items, the tail stays at a handful of bits.
fn zipf_pairs(cfg: &FleetConfig) -> Vec<(u64, u64)> {
    let keys = cfg.zipf_keys.max(1) as u64;
    let extra = keys * 7 / 3;
    let (draws, _) = zipf_stream(cfg.seed, keys, extra, ZIPF_ALPHA);
    let mut pairs = Vec::with_capacity((keys + extra) as usize);
    pairs.extend(distinct_items(cfg.seed, keys).zip(0u64..));
    let mut item = keys;
    pairs.extend(draws.into_iter().map(|key| {
        item += 1;
        (key, item)
    }));
    pairs
}

/// The sparse-vs-dense Zipf lanes, with peak-RSS attribution.
fn run_zipf_lanes(cfg: &FleetConfig) -> (Vec<Measurement>, u64, u64) {
    let bench = Bench::with_budget_ms(cfg.budget_ms);
    let pairs = zipf_pairs(cfg);
    let n_pairs = pairs.len() as u64;
    let schedule =
        Arc::new(RateSchedule::from_memory(ZIPF_N_MAX, ZIPF_M_BITS).expect("zipf fleet config"));

    // Peak-RSS attribution, before anything else builds a fleet at this
    // scale: VmHWM is monotone, so each flavor's delta is only
    // meaningful while its build is the largest thing the process has
    // done. Sparse goes first (it is the smaller peak); the dense delta
    // is measured from the same baseline.
    let h0 = peak_rss_bytes();
    let sparse_len = {
        let mut fleet: SparseFleet = SparseFleet::with_schedule(schedule.clone(), cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    };
    let h1 = peak_rss_bytes();
    let dense_len = {
        let mut fleet: FleetArena = FleetArena::with_schedule(schedule.clone(), cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    };
    let h2 = peak_rss_bytes();
    assert_eq!(sparse_len, cfg.zipf_keys.max(1), "coverage pass holds");
    assert_eq!(sparse_len, dense_len, "flavors saw the same key set");
    let sparse_rss = h1.saturating_sub(h0);
    let dense_rss = h2.saturating_sub(h0);

    // Equivalence gate before timing: sparse and dense estimates must
    // match exactly (bit-identical sketches ⇒ equal `f64` estimates).
    assert!(
        verify_zipf_equivalence(cfg, &schedule, &pairs),
        "sparse and dense fleets disagree — refusing to benchmark broken code"
    );

    let mut results = Vec::new();
    results.push(bench.run("zipf_fleet_sparse", n_pairs, || {
        let mut fleet: SparseFleet = SparseFleet::with_schedule(schedule.clone(), cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    }));
    results.push(bench.run("zipf_fleet_arena", n_pairs, || {
        let mut fleet: FleetArena = FleetArena::with_schedule(schedule.clone(), cfg.seed);
        fleet.insert_batch(&pairs);
        fleet.len()
    }));
    (results, sparse_rss, dense_rss)
}

/// Sparse and dense fed the same Zipf pairs must report identical
/// per-key estimates over identical key sets.
fn verify_zipf_equivalence(
    cfg: &FleetConfig,
    schedule: &Arc<RateSchedule>,
    pairs: &[(u64, u64)],
) -> bool {
    let mut sparse: SparseFleet = SparseFleet::with_schedule(schedule.clone(), cfg.seed);
    let mut dense: FleetArena = FleetArena::with_schedule(schedule.clone(), cfg.seed);
    sparse.insert_batch(pairs);
    dense.insert_batch(pairs);
    sparse.estimates().eq(dense.estimates())
}

/// The arena fed the same pairs as the per-key reference must report
/// identical per-link estimates (bit-identical sketches ⇒ equal `f64`
/// estimates).
fn verify_equivalence(
    cfg: &FleetConfig,
    schedule: &Arc<RateSchedule>,
    pairs: &[(u64, u64)],
) -> bool {
    let mut reference = KeyedSketches::new(schedule.clone(), cfg.seed);
    let mut arena: FleetArena = FleetArena::with_schedule(schedule.clone(), cfg.seed);
    reference.insert_batch(pairs);
    arena.insert_batch(pairs);
    reference.estimates() == arena.estimates().collect::<Vec<_>>()
}

/// Nanoseconds-per-item speedup of lane `num` over lane `den` (how many
/// times faster `num` is), `0.0` when either lane is missing or idle.
fn speedup(results: &[Measurement], num: &str, den: &str) -> f64 {
    let find = |name: &str| results.iter().find(|m| m.name == name);
    match (find(num), find(den)) {
        (Some(n), Some(d)) if n.ns_per_item() > 0.0 => d.ns_per_item() / n.ns_per_item(),
        _ => 0.0,
    }
}

/// The arena-vs-per-key-batched speedup — the headline regression metric
/// (the CI smoke asserts it stays ≥ 0.9).
pub fn arena_speedup(results: &[Measurement]) -> f64 {
    speedup(results, "backbone_fleet_arena", "backbone_fleet_batched")
}

/// The sparse-vs-arena ns/item slowdown on the Zipf lanes (how many
/// times *slower* sparse is; the ISSUE gates ≤ 1.5). `0.0` when either
/// lane is missing or idle.
pub fn zipf_slowdown(results: &[Measurement]) -> f64 {
    let s = speedup(results, "zipf_fleet_sparse", "zipf_fleet_arena");
    if s > 0.0 {
        1.0 / s
    } else {
        0.0
    }
}

/// Sparse peak RSS as a fraction of dense peak RSS on the Zipf workload
/// (the ISSUE gates ≤ 0.25); `0.0` when the zipf lanes did not run.
pub fn rss_ratio(run: &FleetRun) -> f64 {
    if run.dense_rss_bytes == 0 {
        0.0
    } else {
        run.sparse_rss_bytes as f64 / run.dense_rss_bytes as f64
    }
}

/// Render a [`FleetRun`] (plus workload metadata) as the
/// `BENCH_fleet.json` document. Metadata keys appear only for the lane
/// groups that actually ran.
pub fn report_json(cfg: &FleetConfig, run: &FleetRun) -> String {
    let results = &run.results;
    let mut meta: Vec<(&str, String)> = vec![
        ("generator", cfg.generator.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("strategies_agree", run.strategies_agree.to_string()),
    ];
    if cfg.generator.runs_zipf() {
        meta.extend([
            ("zipf_keys", cfg.zipf_keys.to_string()),
            ("zipf_n_max", ZIPF_N_MAX.to_string()),
            ("zipf_m_bits", ZIPF_M_BITS.to_string()),
            ("zipf_alpha", ZIPF_ALPHA.to_string()),
            ("sparse_rss_bytes", run.sparse_rss_bytes.to_string()),
            ("dense_rss_bytes", run.dense_rss_bytes.to_string()),
            ("rss_ratio", format!("{:.4}", rss_ratio(run))),
            (
                "sparse_vs_arena_slowdown",
                format!("{:.3}", zipf_slowdown(results)),
            ),
        ]);
    }
    if cfg.generator.runs_backbone() {
        meta.extend([
            ("links", cfg.links.to_string()),
            ("n_max", N_MAX.to_string()),
            ("m_bits", M_BITS.to_string()),
            (
                "arena_vs_batched_speedup",
                format!("{:.3}", arena_speedup(results)),
            ),
            (
                "arena_vs_scalar_speedup",
                format!(
                    "{:.3}",
                    speedup(results, "backbone_fleet_arena", "backbone_fleet_scalar")
                ),
            ),
        ]);
    }
    crate::harness::to_json("fleet", &meta, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_lanes_and_json() {
        let cfg = FleetConfig {
            links: 6,
            max_pairs: 10_000,
            budget_ms: 5,
            ..FleetConfig::smoke()
        };
        let run = run(&cfg);
        assert!(run.strategies_agree);
        let names: Vec<&str> = run.results.iter().map(|m| m.name.as_str()).collect();
        for expect in [
            "backbone_fleet_scalar",
            "backbone_fleet_batched",
            "backbone_fleet_arena",
            "backbone_fleet_arena_steady",
        ] {
            assert!(names.contains(&expect), "missing lane {expect}");
        }
        let json = report_json(&cfg, &run);
        assert!(json.contains("\"bench\": \"fleet\""));
        assert!(json.contains("arena_vs_batched_speedup"));
        assert!(json.contains("\"strategies_agree\": \"true\""));
        assert!(json.contains("available_parallelism"));
        assert!(json.contains("\"peak_rss_bytes\": "));
        assert!(arena_speedup(&run.results) > 0.0);
        // Backbone-only runs carry no zipf metadata or lanes.
        assert!(!json.contains("rss_ratio"));
        assert!(!names.iter().any(|n| n.starts_with("zipf_")));
    }

    #[test]
    fn zipf_smoke_produces_lanes_gates_and_json() {
        let cfg = FleetConfig {
            generator: FleetGenerator::Zipf,
            zipf_keys: 4_000,
            budget_ms: 5,
            ..FleetConfig::smoke()
        };
        let run = run(&cfg);
        assert!(run.strategies_agree);
        let names: Vec<&str> = run.results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["zipf_fleet_sparse", "zipf_fleet_arena"]);
        assert!(zipf_slowdown(&run.results) > 0.0);
        // VmHWM deltas are only attributable in a fresh process (the
        // test binary's other tests may have raised the mark already),
        // so the ratio is not asserted here — the CI smoke gate runs the
        // bench binary alone and asserts it there.
        let json = report_json(&cfg, &run);
        assert!(json.contains("\"generator\": \"zipf\""));
        assert!(json.contains("\"zipf_alpha\": 1.1"));
        assert!(json.contains("\"sparse_rss_bytes\": "));
        assert!(json.contains("\"dense_rss_bytes\": "));
        assert!(json.contains("\"rss_ratio\": "));
        assert!(json.contains("\"sparse_vs_arena_slowdown\": "));
        assert!(!json.contains("arena_vs_batched_speedup"));
    }

    #[test]
    fn generator_parse_round_trips() {
        for g in [
            FleetGenerator::Backbone,
            FleetGenerator::Zipf,
            FleetGenerator::All,
        ] {
            assert_eq!(FleetGenerator::parse(g.name()), Some(g));
        }
        assert_eq!(FleetGenerator::parse("uniform"), None);
    }
}
