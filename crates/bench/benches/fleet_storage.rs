//! Fleet-storage throughput: per-key sketches vs the arena fleet on the
//! §7.2 backbone workload, written to `BENCH_fleet.json` so the
//! hottest-path perf trajectory is tracked across PRs.
//!
//! Environment knobs: `SBITMAP_BENCH_MS` (per-case budget),
//! `SBITMAP_BENCH_LINKS`, `SBITMAP_BENCH_PAIRS`.

use sbitmap_bench::fleet::{self, FleetConfig};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    if std::env::args().any(|a| a == "--list") {
        println!("fleet_storage: bench");
        return;
    }

    let mut cfg = FleetConfig::default();
    cfg.links = env_usize("SBITMAP_BENCH_LINKS", cfg.links);
    cfg.max_pairs = env_usize("SBITMAP_BENCH_PAIRS", cfg.max_pairs);
    if let Ok(ms) = std::env::var("SBITMAP_BENCH_MS") {
        if let Ok(ms) = ms.parse() {
            cfg.budget_ms = ms;
        }
    }

    println!(
        "=== fleet: storage flavors on the backbone workload ({} links, ≤{} pairs) ===",
        cfg.links, cfg.max_pairs
    );
    let run = fleet::run(&cfg);
    for m in &run.results {
        println!("{}", m.row());
    }
    println!(
        "arena vs legacy batched: {:.2}x",
        fleet::arena_speedup(&run.results)
    );
    let json = fleet::report_json(&cfg, &run);
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
}
