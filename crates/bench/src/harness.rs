//! A dependency-free measurement harness.
//!
//! This workspace builds in offline environments where criterion cannot
//! be fetched, so the benches ship their own tiny harness: warm up,
//! run timed iterations until a wall-clock budget is spent, report the
//! *median* iteration (robust to scheduler noise) with its p10–p90
//! spread, and serialize results as JSON with no serde.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark case's result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Case name (stable key in the JSON output).
    pub name: String,
    /// Timed iterations executed.
    pub iters: usize,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// 10th-percentile wall-clock nanoseconds per iteration.
    pub p10_ns: f64,
    /// 90th-percentile wall-clock nanoseconds per iteration.
    pub p90_ns: f64,
    /// Items processed per iteration (for throughput reporting).
    pub items: u64,
}

impl Measurement {
    /// Nanoseconds per item at the median iteration.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        self.median_ns / self.items as f64
    }

    /// Items per second at the median iteration.
    pub fn items_per_sec(&self) -> f64 {
        if self.median_ns == 0.0 {
            return 0.0;
        }
        self.items as f64 * 1e9 / self.median_ns
    }

    /// One human-readable summary row.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>10.2} ns/item {:>12.2} Mitems/s  ({} iters)",
            self.name,
            self.ns_per_item(),
            self.items_per_sec() / 1e6,
            self.iters
        )
    }
}

/// Wall-clock-budgeted bench runner.
#[derive(Debug, Clone)]
pub struct Bench {
    budget: Duration,
    min_iters: usize,
    max_iters: usize,
}

impl Default for Bench {
    fn default() -> Self {
        Self {
            budget: Duration::from_millis(300),
            min_iters: 3,
            max_iters: 1000,
        }
    }
}

impl Bench {
    /// A runner with an explicit per-case time budget in milliseconds.
    pub fn with_budget_ms(ms: u64) -> Self {
        Self {
            budget: Duration::from_millis(ms.max(1)),
            ..Self::default()
        }
    }

    /// Budget from `SBITMAP_BENCH_MS` (default 300 ms per case) — the CI
    /// smoke run sets a small value to catch perf-path bitrot cheaply.
    pub fn from_env() -> Self {
        let ms = std::env::var("SBITMAP_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        Self::with_budget_ms(ms)
    }

    /// Measure `f`, which processes `items` items per call and returns a
    /// value the optimizer must not discard (folded into `black_box`).
    ///
    /// `f` runs once for warmup, then repeatedly until the budget is
    /// spent (bounded by min/max iteration counts).
    pub fn run<T>(&self, name: &str, items: u64, mut f: impl FnMut() -> T) -> Measurement {
        black_box(f()); // warmup: touch caches, JIT the branch predictors
        let mut samples = Vec::new();
        let started = Instant::now();
        while (samples.len() < self.min_iters
            || (started.elapsed() < self.budget && samples.len() < self.max_iters))
            && samples.len() < self.max_iters
        {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        let rank = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Measurement {
            name: name.to_string(),
            iters: samples.len(),
            median_ns: samples[samples.len() / 2],
            p10_ns: rank(0.1),
            p90_ns: rank(0.9),
            items,
        }
    }
}

/// Peak resident set size of this process in bytes — `VmHWM` from
/// `/proc/self/status` — or 0 where the proc file is unavailable
/// (non-Linux hosts).
///
/// `VmHWM` is a high-water mark: it only ever grows, so a caller that
/// wants to attribute memory to a phase must difference two readings
/// *and* run the phases smallest-first (a later, smaller phase under an
/// already-raised mark reads as a zero delta).
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Serialize measurements as a JSON document (no external JSON crate;
/// the format is flat and the strings are controlled identifiers).
///
/// Every document records the host's `available_parallelism`, the
/// dispatched word-kernel path (`"simd"`) and the process's peak RSS
/// (`"peak_rss_bytes"`, see [`peak_rss_bytes`]) alongside the caller's
/// metadata: flat multi-thread lanes are meaningless without knowing how
/// many cores the run actually had (a 1-CPU CI container *should* show a
/// 1.0x shard speedup), single-thread numbers are meaningless without
/// knowing whether the AVX2 or the scalar kernels ran, and a
/// memory-bound lane is meaningless without knowing what the run
/// actually held resident.
pub fn to_json(bench_name: &str, metadata: &[(&str, String)], results: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench_name)));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    ));
    out.push_str(&format!(
        "  \"simd\": \"{}\",\n",
        sbitmap_bitvec::kernels::active_path()
    ));
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    for (k, v) in metadata {
        out.push_str(&format!("  \"{}\": {},\n", escape(k), json_value(v)));
    }
    out.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"items\": {}, \"median_ns_per_iter\": {:.1}, \"p10_ns_per_iter\": {:.1}, \"p90_ns_per_iter\": {:.1}, \"ns_per_item\": {:.4}, \"items_per_sec\": {:.1}}}{}\n",
            escape(&m.name),
            m.iters,
            m.items,
            m.median_ns,
            m.p10_ns,
            m.p90_ns,
            m.ns_per_item(),
            m.items_per_sec(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Quote a metadata value: strings that are valid *JSON* numbers pass
/// through bare, everything else is a JSON string. Rust's `f64` parser
/// is laxer than JSON (accepts `inf`, `NaN`, `+5`, `.5`), so gate on
/// both a finite parse and JSON-compatible syntax.
fn json_value(v: &str) -> String {
    let unsigned = v.strip_prefix('-').unwrap_or(v);
    let json_number_shape = unsigned.chars().next().is_some_and(|c| c.is_ascii_digit())
        && v.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        // JSON requires a digit after the decimal point ("5." is invalid).
        && !v.split(['e', 'E']).any(|part| part.ends_with('.'));
    match v.parse::<f64>() {
        Ok(n) if n.is_finite() && json_number_shape => v.to_string(),
        _ => format!("\"{}\"", escape(v)),
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_measures_and_reports() {
        let b = Bench::with_budget_ms(10);
        let m = b.run("spin", 1000, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.iters >= 3);
        assert!(m.median_ns > 0.0);
        assert!(m.p10_ns <= m.median_ns && m.median_ns <= m.p90_ns);
        assert!(m.items_per_sec() > 0.0);
        assert!(m.row().contains("spin"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = Measurement {
            name: "case-\"a\"".into(),
            iters: 5,
            median_ns: 123.0,
            p10_ns: 100.0,
            p90_ns: 150.0,
            items: 10,
        };
        let j = to_json(
            "ingest",
            &[("links", "600".into()), ("gen", "backbone".into())],
            &[m],
        );
        assert!(j.contains("\"bench\": \"ingest\""));
        assert!(j.contains("\"available_parallelism\": "));
        assert!(j.contains("\"simd\": \"avx2\"") || j.contains("\"simd\": \"scalar\""));
        assert!(j.contains("\"peak_rss_bytes\": "));
        assert!(j.contains("\"links\": 600"));
        assert!(j.contains("\"gen\": \"backbone\""));
        assert!(j.contains("case-\\\"a\\\""));
        assert!(j.contains("\"p10_ns_per_iter\": 100.0, \"p90_ns_per_iter\": 150.0"));
        assert!(j.trim_end().ends_with('}'));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn non_json_numbers_are_quoted() {
        // Rust's f64 parser accepts these; JSON does not — they must be
        // emitted as strings, not bare tokens.
        for v in ["NaN", "inf", "-inf", "+5", ".5", "5.", "infinity"] {
            let j = to_json("b", &[("k", v.to_string())], &[]);
            assert!(
                j.contains(&format!("\"k\": \"{v}\"")),
                "{v} not quoted: {j}"
            );
        }
        for v in ["5", "-5", "1.798", "1e6", "0.02"] {
            let j = to_json("b", &[("k", v.to_string())], &[]);
            assert!(
                j.contains(&format!("\"k\": {v}")),
                "{v} wrongly quoted: {j}"
            );
        }
    }

    #[test]
    fn peak_rss_is_positive_and_kb_granular_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes();
            assert!(rss > 0, "VmHWM should be readable on Linux");
            assert_eq!(rss % 1024, 0, "VmHWM is reported in kB");
        }
    }

    #[test]
    fn zero_items_does_not_divide_by_zero() {
        let m = Measurement {
            name: "empty".into(),
            iters: 1,
            median_ns: 100.0,
            p10_ns: 100.0,
            p90_ns: 100.0,
            items: 0,
        };
        assert_eq!(m.ns_per_item(), 0.0);
    }
}
