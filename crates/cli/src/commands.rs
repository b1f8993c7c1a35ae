//! Subcommand implementations, written against generic reader/writer so
//! every command is unit-testable without a process.

use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sbitmap_baselines::memory_model;
use sbitmap_baselines::{
    AdaptiveBitmap, AdaptiveSampling, DistinctSampling, ExactCounter, FmSketch, HyperLogLog,
    KMinValues, LinearCounting, LogLog, MrBitmap, VirtualBitmap,
};
use sbitmap_bench::harness::Measurement;
use sbitmap_core::codec::{peek_kind, Checkpoint, CounterKind, FleetDeltaFrame};
use sbitmap_core::journal::{self, JournalConfig};
use sbitmap_core::{
    simulate, Dimensioning, DistinctCounter, MergeableCounter, RateSchedule, SBitmap,
};
use sbitmap_daemon::{query_once, run_agent_rounds_failover, AgentConfig, Daemon, DaemonConfig};
use sbitmap_hash::rng::Xoshiro256StarStar;
use sbitmap_hash::{HashKind, SplitMix64Hasher};
use sbitmap_stream::collector::{
    run_pipeline, run_windowed_pipeline, PipelineConfig, WindowedPipelineConfig,
};
use sbitmap_stream::net::{ConfigEcho, Message, QueryReply, QueryRequest};
use sbitmap_stream::DeltaFrameSource;

use crate::args::{parse, Options};

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage: sbitmap <command> [flags]

commands:
  count      read items from stdin (one per line), print the estimate
             flags: --sketch NAME --n-max N [--error E | --memory-bits M] --seed S
                    --hash splitmix64|xxh64|murmur3|carter-wegman (s-bitmap only)
             sketches: s-bitmap linear-counting virtual-bitmap adaptive-bitmap
                       mr-bitmap fm-pcsa loglog hyperloglog adaptive-sampling
                       distinct-sampling kmv exact
  plan       print the memory each sketch family needs for a target
             flags: --n-max N --error E
  compare    feed stdin to every sketch at the same memory budget
             flags: --n-max N --memory-bits M --seed S
  simulate   Monte-Carlo the S-bitmap error for a configuration (no input)
             flags: --n-max N [--error E | --memory-bits M] --n CARD --reps R
  checkpoint read items from stdin, write a binary checkpoint file
             flags: --sketch NAME --n-max N [--error E | --memory-bits M]
                    --seed S --out PATH (default sketch.ckpt)
             sketches: s-bitmap linear-counting virtual-bitmap mr-bitmap
                       fm-pcsa loglog hyperloglog kmv
  restore    verify a checkpoint file, print its kind and estimate
             usage: restore FILE
  merge      union-merge checkpoints of one mergeable kind
             usage: merge FILE FILE... [--out PATH]
             (s-bitmap checkpoints are not mergeable — the paper's §3
              trade-off; aggregate their estimates with `collect`)
  collect    run the sharded node→collector pipeline on the synthetic
             backbone (paper §7.2) and print the aggregate summary
             flags: --links L --shards K --seed S
  window     run the *windowed* reference: every link's epoch items go
             straight into one central sliding-window ring (the ring a
             collector absorbing the agents' delta chains must hold),
             then print last-W-epochs estimates
             flags: --links L --shards K --window W --epochs E --seed S
  serve      run the collector daemon: a TCP ingest listener and a query
             listener over a central sliding-window ring; type `drain`
             on stdin (or send `query drain`) to stop and checkpoint
             flags: --listen ADDR --query-listen ADDR --window W
                    --seed S --credits C --deadline-ms MS
                    --out CKPT_PATH (final ring checkpoint on drain)
                    --data-dir DIR (write-ahead journal + snapshots; on
                      restart the ring recovers to the last acked frame)
                    --snapshot-every N (frames between snapshots,
                      default 1024; 0 keeps the journal only)
                    --standby-of HOST:PORT (start as a standby: follow
                      that primary's journal stream; promote later with
                      `query promote`)
                    --initial-term T (fencing term to start in;
                      recovery adopts a higher journaled term)
  recover    inspect a `serve --data-dir` directory without starting a
             daemon: snapshot state, journal segments, record counts and
             any torn tail a crash left behind
             usage: recover DIR
  agent      cut one node shard's per-epoch v3 delta chains (their
             absorbed ring equals `window`'s) and deliver them to a
             collector over TCP, reconnecting with backed-off retries
             until every frame is acked
             flags: --connect HOST:PORT --links L --shards K --shard I
                    --window W --epochs E --seed S --deadline-ms MS
                    --agent-id ID (default shard + 1)
                    --peers A:P,B:P (ordered collector list; the agent
                      fails over down the list on refusal or timeout)
  query      ask a running collector one question over its query port
             usage: query estimate|fill|top|summary|status|promote|drain
                    --connect HOST:PORT
             flags: --key K (estimate/fill) --top N --deadline-ms MS
             (`summary` prints the same quantile rows as `window`;
              `status` reports role/term/replication counters;
              `promote` turns a standby into the acting primary)
  bench-ingest
             time scalar vs batched vs concurrent ingestion on the
             backbone/worm generators and write a JSON report
             flags: --links L --pairs P --budget-ms MS --threads T
                    --seed S --out PATH (default BENCH_ingest.json)
  bench-collect
             time the node→collector pipeline at 1..=K shards and write
             a JSON report
             flags: --links L --shards K --budget-ms MS --seed S
                    --out PATH (default BENCH_collect.json)
  bench-fleet
             time fleet storage (per-key sketches vs the arena, plus
             sparse-vs-dense on a Zipf per-flow workload) and write a
             JSON report
             flags: --links L --pairs P --budget-ms MS
                    --seed S --out PATH (default BENCH_fleet.json)
                    --generator backbone|zipf|all (default backbone)
                    --keys N (Zipf distinct keys, default 1.2m)
                    --assert-min-speedup X (fail unless arena ≥ X·legacy)
                    --assert-max-rss-ratio X (fail if sparse peak RSS
                      > X·dense on the zipf lanes)
                    --assert-max-slowdown X (fail if sparse zipf ingest
                      > X·dense per item)
  bench-window
             time sliding-window fleet ingest at W ∈ {2, 8, 32} epochs
             vs the plain arena, plus the fused window query vs its
             naive three-pass reference, and write a JSON report
             flags: --links L --pairs P --budget-ms MS --seed S
                    --out PATH (default BENCH_window.json)
                    --assert-max-overhead X (fail if w8 > X·arena)
                    --assert-min-query-speedup X (fail unless the fused
                      query ≥ X times the naive reference lane)

number flags accept k/m suffixes and scientific notation (64k, 1.5m, 1e6)";

/// Dispatch `argv` (already stripped of the program name).
///
/// # Errors
///
/// Returns a human-readable message for bad arguments, impossible
/// configurations or I/O failures.
pub fn dispatch(
    argv: &[String],
    input: &mut impl BufRead,
    out: &mut impl Write,
) -> Result<(), String> {
    let (command, rest) = argv.split_first().ok_or("missing command")?;
    let opts = parse(rest)?;
    // Only restore/merge/recover (paths) and query (the request kind)
    // take positional arguments; a stray token anywhere else is a usage
    // error, not something to silently ignore.
    if !matches!(command.as_str(), "restore" | "merge" | "query" | "recover") {
        if let Some(stray) = opts.paths.first() {
            return Err(format!("unexpected argument `{stray}` for `{command}`"));
        }
    }
    match command.as_str() {
        "count" => count(&opts, input, out),
        "plan" => plan(&opts, out),
        "compare" => compare(&opts, input, out),
        "simulate" => simulate_cmd(&opts, out),
        "checkpoint" => checkpoint_cmd(&opts, input, out),
        "restore" => restore_cmd(&opts, out),
        "merge" => merge_cmd(&opts, out),
        "collect" => collect_cmd(&opts, out),
        "window" => window_cmd(&opts, out),
        "serve" => serve_cmd(&opts, input, out),
        "recover" => recover_cmd(&opts, out),
        "agent" => agent_cmd(&opts, out),
        "query" => query_cmd(&opts, out),
        "bench-ingest" => bench_ingest(&opts, out),
        "bench-collect" => bench_collect(&opts, out),
        "bench-fleet" => bench_fleet(&opts, out),
        "bench-window" => bench_window(&opts, out),
        other => Err(format!("unknown command `{other}`")),
    }
    .map_err(|e| e.to_string())
}

fn io_err(e: std::io::Error) -> String {
    format!("i/o: {e}")
}

fn hash_kind(name: &str) -> Result<HashKind, String> {
    HashKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown hash `{name}` (see usage)"))
}

fn sbitmap_schedule(opts: &Options) -> Result<RateSchedule, String> {
    match (opts.error, opts.memory_bits) {
        (Some(e), None) => RateSchedule::from_error(opts.n_max, e),
        (None, Some(m)) => RateSchedule::from_memory(opts.n_max, m),
        (None, None) => RateSchedule::from_error(opts.n_max, 0.02),
        (Some(_), Some(_)) => unreachable!("rejected by the parser"),
    }
    .map_err(|e| e.to_string())
}

fn sbitmap_for(opts: &Options) -> Result<SBitmap<Box<dyn sbitmap_hash::Hasher64>>, String> {
    let kind = hash_kind(&opts.hash)?;
    if kind == HashKind::CarterWegman {
        eprintln!(
            "warning: carter-wegman (2-universal) hashing is unreliable on \
             structured keys under adaptive sampling; see EXPERIMENTS.md"
        );
    }
    let schedule = Arc::new(sbitmap_schedule(opts)?);
    Ok(SBitmap::with_shared_schedule(
        schedule,
        kind.build(opts.seed),
    ))
}

fn build_sketch(name: &str, opts: &Options) -> Result<Box<dyn DistinctCounter>, String> {
    if name == "s-bitmap" {
        return Ok(Box::new(sbitmap_for(opts)?));
    }
    // The baselines are sized from an explicit budget; derive one from
    // the error target via the S-bitmap dimensioning when not given.
    let m = match opts.memory_bits {
        Some(m) => m,
        None => Dimensioning::from_error(opts.n_max, opts.error.unwrap_or(0.02))
            .map_err(|e| e.to_string())?
            .m(),
    };
    let seed = opts.seed;
    let n_max = opts.n_max;
    let boxed: Box<dyn DistinctCounter> = match name {
        "linear-counting" => Box::new(LinearCounting::new(m, seed).map_err(|e| e.to_string())?),
        "virtual-bitmap" => {
            Box::new(VirtualBitmap::for_cardinality(m, n_max, seed).map_err(|e| e.to_string())?)
        }
        "adaptive-bitmap" => Box::new(AdaptiveBitmap::new(m, seed).map_err(|e| e.to_string())?),
        "mr-bitmap" => Box::new(MrBitmap::with_memory(m, n_max, seed).map_err(|e| e.to_string())?),
        "fm-pcsa" => Box::new(FmSketch::with_memory(m, seed).map_err(|e| e.to_string())?),
        "loglog" => Box::new(LogLog::with_memory(m, n_max, seed).map_err(|e| e.to_string())?),
        "hyperloglog" => {
            Box::new(HyperLogLog::with_memory(m, n_max, seed).map_err(|e| e.to_string())?)
        }
        "adaptive-sampling" => {
            Box::new(AdaptiveSampling::with_memory(m, seed).map_err(|e| e.to_string())?)
        }
        "distinct-sampling" => {
            Box::new(DistinctSampling::with_memory(m, seed).map_err(|e| e.to_string())?)
        }
        "kmv" => Box::new(KMinValues::with_memory(m, seed).map_err(|e| e.to_string())?),
        "exact" => Box::new(ExactCounter::new(seed)),
        other => return Err(format!("unknown sketch `{other}` (see usage)")),
    };
    Ok(boxed)
}

fn count(opts: &Options, input: &mut impl BufRead, out: &mut impl Write) -> Result<(), String> {
    let mut sketch = build_sketch(&opts.sketch, opts)?;
    let mut lines = 0u64;
    let mut buf = String::new();
    loop {
        buf.clear();
        if input.read_line(&mut buf).map_err(io_err)? == 0 {
            break;
        }
        let item = buf.trim_end_matches(['\n', '\r']);
        sketch.insert_bytes(item.as_bytes());
        lines += 1;
    }
    writeln!(
        out,
        "{:.0} distinct (from {} lines; {} using {} bits)",
        sketch.estimate(),
        lines,
        sketch.name(),
        sketch.memory_bits()
    )
    .map_err(io_err)?;
    Ok(())
}

fn plan(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let eps = opts.error.unwrap_or(0.02);
    let dims = Dimensioning::from_error(opts.n_max, eps).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "target: N = {}, RRMSE = {:.2}%",
        opts.n_max,
        eps * 100.0
    )
    .map_err(io_err)?;
    writeln!(out, "\nmethod        bits      bytes     vs S-bitmap").map_err(io_err)?;
    let sb = dims.m() as f64;
    for (name, bits) in [
        ("S-bitmap", sb),
        (
            "HyperLogLog",
            memory_model::hyperloglog_bits(opts.n_max, eps),
        ),
        ("LogLog", memory_model::loglog_bits(opts.n_max, eps)),
        ("FM/PCSA", memory_model::fm_bits(eps)),
    ] {
        writeln!(
            out,
            "{name:<12} {bits:>8.0}  {:>8.0}  {:>6.2}x",
            bits / 8.0,
            bits / sb
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "\nS-bitmap: C = {:.1}, r = {:.6}, b_max = {} of m = {}",
        dims.c(),
        dims.r(),
        dims.b_max(),
        dims.m()
    )
    .map_err(io_err)?;
    Ok(())
}

fn compare(opts: &Options, input: &mut impl BufRead, out: &mut impl Write) -> Result<(), String> {
    // Buffer the stream once; feed every sketch the same items.
    let mut items: Vec<Vec<u8>> = Vec::new();
    let mut buf = String::new();
    loop {
        buf.clear();
        if input.read_line(&mut buf).map_err(io_err)? == 0 {
            break;
        }
        items.push(buf.trim_end_matches(['\n', '\r']).as_bytes().to_vec());
    }
    let names = [
        "s-bitmap",
        "linear-counting",
        "virtual-bitmap",
        "adaptive-bitmap",
        "mr-bitmap",
        "fm-pcsa",
        "loglog",
        "hyperloglog",
        "adaptive-sampling",
        "distinct-sampling",
        "kmv",
        "exact",
    ];
    writeln!(out, "{} input lines\n", items.len()).map_err(io_err)?;
    writeln!(out, "sketch             estimate       bits").map_err(io_err)?;
    for name in names {
        let mut sketch = build_sketch(name, opts)?;
        for item in &items {
            sketch.insert_bytes(item);
        }
        writeln!(
            out,
            "{:<17} {:>10.0} {:>10}",
            sketch.name(),
            sketch.estimate(),
            sketch.memory_bits()
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn simulate_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let n = opts.n.ok_or("simulate needs --n CARD")?;
    let schedule: Arc<RateSchedule> = Arc::new(sbitmap_schedule(opts)?);
    let dims = *schedule.dims();
    if n > dims.n_max() {
        return Err(format!(
            "--n {n} exceeds the configured range N = {}",
            dims.n_max()
        ));
    }
    let stats = sbitmap_stats::replicate(opts.reps, |r| {
        let mut rng = Xoshiro256StarStar::new(sbitmap_hash::mix64(r ^ 0xc11));
        (
            n as f64,
            simulate::simulate_estimate(&schedule, n, &mut rng),
        )
    });
    writeln!(
        out,
        "config: N = {}, m = {} bits, C = {:.1}, theoretical RRMSE = {:.3}%",
        dims.n_max(),
        dims.m(),
        dims.c(),
        dims.epsilon() * 100.0
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "simulated at n = {n} over {} replicates: RRMSE = {:.3}%, bias = {:+.3}%, |err| q99 = {:.3}%",
        stats.count(),
        stats.rrmse() * 100.0,
        stats.mean_bias() * 100.0,
        stats.quantile_abs(0.99) * 100.0
    )
    .map_err(io_err)?;
    Ok(())
}

/// The memory budget in bits for checkpointable sketches, mirroring
/// `build_sketch`'s derivation.
fn budget_bits(opts: &Options) -> Result<usize, String> {
    match opts.memory_bits {
        Some(m) => Ok(m),
        None => Ok(
            Dimensioning::from_error(opts.n_max, opts.error.unwrap_or(0.02))
                .map_err(|e| e.to_string())?
                .m(),
        ),
    }
}

fn checkpoint_cmd(
    opts: &Options,
    input: &mut impl BufRead,
    out: &mut impl Write,
) -> Result<(), String> {
    /// Stream stdin line by line into the sketch (O(1) memory, like
    /// `count`), then serialize. Returns (bytes, estimate, bits, lines).
    fn ingest<T: DistinctCounter + Checkpoint>(
        mut sketch: T,
        input: &mut impl BufRead,
    ) -> Result<(Vec<u8>, f64, usize, u64), String> {
        let mut lines = 0u64;
        let mut buf = String::new();
        loop {
            buf.clear();
            if input.read_line(&mut buf).map_err(io_err)? == 0 {
                break;
            }
            sketch.insert_bytes(buf.trim_end_matches(['\n', '\r']).as_bytes());
            lines += 1;
        }
        Ok((
            sketch.checkpoint(),
            sketch.estimate(),
            sketch.memory_bits(),
            lines,
        ))
    }

    if opts.hash != "splitmix64" {
        return Err(format!(
            "checkpoints embed only the hash *seed* and restore with the \
             default splitmix64 family; --hash {} cannot be recorded",
            opts.hash
        ));
    }
    let m = budget_bits(opts)?;
    let (seed, n_max) = (opts.seed, opts.n_max);
    let err = |e: sbitmap_core::SBitmapError| e.to_string();
    let (bytes, estimate, bits, lines) = match opts.sketch.as_str() {
        "s-bitmap" => {
            let schedule = Arc::new(sbitmap_schedule(opts)?);
            let sketch: SBitmap =
                SBitmap::with_shared_schedule(schedule, SplitMix64Hasher::new(seed));
            ingest(sketch, input)?
        }
        "linear-counting" => ingest(LinearCounting::new(m, seed).map_err(err)?, input)?,
        "virtual-bitmap" => ingest(
            VirtualBitmap::for_cardinality(m, n_max, seed).map_err(err)?,
            input,
        )?,
        "mr-bitmap" => ingest(MrBitmap::with_memory(m, n_max, seed).map_err(err)?, input)?,
        "fm-pcsa" => ingest(FmSketch::with_memory(m, seed).map_err(err)?, input)?,
        "loglog" => ingest(LogLog::with_memory(m, n_max, seed).map_err(err)?, input)?,
        "hyperloglog" => ingest(
            HyperLogLog::with_memory(m, n_max, seed).map_err(err)?,
            input,
        )?,
        "kmv" => ingest(KMinValues::with_memory(m, seed).map_err(err)?, input)?,
        other => {
            return Err(format!(
                "sketch `{other}` is not checkpointable (see usage)"
            ))
        }
    };
    let path = if opts.out.is_empty() {
        "sketch.ckpt"
    } else {
        &opts.out
    };
    std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
    writeln!(
        out,
        "{} checkpoint: {} items -> estimate {:.0}, {} sketch bits, {} bytes -> {}",
        opts.sketch,
        lines,
        estimate,
        bits,
        bytes.len(),
        path
    )
    .map_err(io_err)?;
    Ok(())
}

fn restore_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    fn describe<T: DistinctCounter + Checkpoint>(bytes: &[u8]) -> Result<(f64, usize), String> {
        let sketch = T::restore(bytes).map_err(|e| e.to_string())?;
        Ok((sketch.estimate(), sketch.memory_bits()))
    }

    let [path] = opts.paths.as_slice() else {
        return Err("restore needs exactly one checkpoint file".into());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let (version, kind) = peek_kind(&bytes).map_err(|e| e.to_string())?;
    let (estimate, bits) = match kind {
        CounterKind::SBitmap => describe::<SBitmap>(&bytes)?,
        CounterKind::LinearCounting => describe::<LinearCounting>(&bytes)?,
        CounterKind::VirtualBitmap => describe::<VirtualBitmap>(&bytes)?,
        CounterKind::MrBitmap => describe::<MrBitmap>(&bytes)?,
        CounterKind::FmSketch => describe::<FmSketch>(&bytes)?,
        CounterKind::LogLog => describe::<LogLog>(&bytes)?,
        CounterKind::HyperLogLog => describe::<HyperLogLog>(&bytes)?,
        CounterKind::KMinValues => describe::<KMinValues>(&bytes)?,
        CounterKind::SketchFleet => {
            let fleet: sbitmap_core::FleetArena =
                Checkpoint::restore(&bytes).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{path}: v{version} sketch-fleet, {} keys, {} sketch bits, {} bytes",
                fleet.len(),
                fleet.memory_bits(),
                bytes.len()
            )
            .map_err(io_err)?;
            return Ok(());
        }
        CounterKind::WindowedFleet => {
            let fleet: sbitmap_core::WindowedFleet =
                Checkpoint::restore(&bytes).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{path}: v{version} windowed-fleet, {} keys over {} live of {} epochs \
                 (open epoch {}), {} sketch bits, {} bytes",
                fleet.len(),
                fleet.live_epochs(),
                fleet.window_epochs(),
                fleet.current_epoch(),
                fleet.memory_bits(),
                bytes.len()
            )
            .map_err(io_err)?;
            return Ok(());
        }
        CounterKind::FleetDelta => {
            let frame = FleetDeltaFrame::decode(&bytes).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{path}: v{version} fleet-delta, epoch {} round {}{}, {} records, {} bytes",
                frame.epoch,
                frame.round,
                if frame.is_baseline() {
                    " (baseline reset)"
                } else {
                    ""
                },
                frame.len(),
                bytes.len()
            )
            .map_err(io_err)?;
            return Ok(());
        }
    };
    writeln!(
        out,
        "{path}: v{version} {kind} ({}), estimate {estimate:.0}, {bits} sketch bits, {} bytes",
        if kind.is_mergeable() {
            "mergeable"
        } else {
            "not mergeable"
        },
        bytes.len()
    )
    .map_err(io_err)?;
    Ok(())
}

fn merge_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    fn merge_files<T: DistinctCounter + MergeableCounter + Checkpoint>(
        opts: &Options,
        files: &[(String, Vec<u8>)],
        out: &mut impl Write,
    ) -> Result<(), String> {
        let mut merged: Option<T> = None;
        for (path, bytes) in files {
            let sketch = T::restore(bytes).map_err(|e| format!("{path}: {e}"))?;
            writeln!(out, "{path}: estimate {:.0}", sketch.estimate()).map_err(io_err)?;
            merged = Some(match merged.take() {
                None => sketch,
                Some(mut acc) => {
                    acc.merge_from(&sketch)
                        .map_err(|e| format!("{path}: {e}"))?;
                    acc
                }
            });
        }
        let merged = merged.expect("at least two files");
        writeln!(
            out,
            "merged ({} checkpoints): estimate {:.0}",
            files.len(),
            merged.estimate()
        )
        .map_err(io_err)?;
        if !opts.out.is_empty() {
            let bytes = merged.checkpoint();
            std::fs::write(&opts.out, &bytes).map_err(|e| format!("write {}: {e}", opts.out))?;
            writeln!(out, "wrote merged checkpoint to {}", opts.out).map_err(io_err)?;
        }
        Ok(())
    }

    if opts.paths.len() < 2 {
        return Err("merge needs at least two checkpoint files".into());
    }
    let mut files = Vec::with_capacity(opts.paths.len());
    for path in &opts.paths {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        files.push((path.clone(), bytes));
    }
    let (_, kind) = peek_kind(&files[0].1).map_err(|e| format!("{}: {e}", files[0].0))?;
    for (path, bytes) in &files[1..] {
        let (_, k) = peek_kind(bytes).map_err(|e| format!("{path}: {e}"))?;
        if k != kind {
            return Err(format!(
                "cannot merge a {k} checkpoint ({path}) into a {kind} merge"
            ));
        }
    }
    match kind {
        CounterKind::LinearCounting => merge_files::<LinearCounting>(opts, &files, out),
        CounterKind::VirtualBitmap => merge_files::<VirtualBitmap>(opts, &files, out),
        CounterKind::MrBitmap => merge_files::<MrBitmap>(opts, &files, out),
        CounterKind::FmSketch => merge_files::<FmSketch>(opts, &files, out),
        CounterKind::LogLog => merge_files::<LogLog>(opts, &files, out),
        CounterKind::HyperLogLog => merge_files::<HyperLogLog>(opts, &files, out),
        CounterKind::KMinValues => merge_files::<KMinValues>(opts, &files, out),
        CounterKind::SBitmap
        | CounterKind::SketchFleet
        | CounterKind::WindowedFleet
        | CounterKind::FleetDelta => Err(format!(
            "{kind} checkpoints are not mergeable (the paper's §3 trade-off): \
             whether an item was sampled depends on the sketch-local fill at \
             arrival time. Aggregate per-link *estimates* instead — see \
             `sbitmap collect`."
        )),
    }
}

fn collect_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let cfg = PipelineConfig {
        links: opts.links.max(1),
        shards: opts.shards.max(1),
        seed: opts.seed,
        ..PipelineConfig::default()
    };
    writeln!(
        out,
        "collect: {} links over {} node shards (N = {}, m = {} bits/link, seed {})",
        cfg.links, cfg.shards, cfg.n_max, cfg.m_bits, cfg.seed
    )
    .map_err(io_err)?;
    let summary = run_pipeline(&cfg)?;
    writeln!(
        out,
        "received {} checkpoints, {} bytes shipped",
        summary.checkpoints, summary.bytes_shipped
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "per-link estimates: mean |rel err| = {:.2}%",
        summary.mean_abs_rel_err * 100.0
    )
    .map_err(io_err)?;
    writeln!(out, "\n  quantile   est. flows/link").map_err(io_err)?;
    for &(p, v) in &summary.estimate_quantiles {
        writeln!(out, "  {:>7.0}%   {v:>15.0}", p * 100.0).map_err(io_err)?;
    }
    writeln!(
        out,
        "\nbackbone union (merged hyperloglog): {:.0} distinct flows (true total {})",
        summary.union_estimate, summary.total_flows
    )
    .map_err(io_err)?;
    Ok(())
}

/// The windowed pipeline shape shared by `window`, `serve` and `agent`:
/// flags override the paper's §7.2 defaults, so a served collector, the
/// agent shards feeding it and the in-process `window` reference all
/// agree on the sketch configuration (and hence on the handshake's
/// config echo) when given the same flags.
fn windowed_cfg(opts: &Options) -> WindowedPipelineConfig {
    WindowedPipelineConfig {
        links: opts.links.max(1),
        shards: opts.shards.max(1),
        window: opts.window.max(1),
        epochs: opts.epochs.max(1),
        rounds: opts.rounds.max(1),
        seed: opts.seed,
        ..WindowedPipelineConfig::default()
    }
}

fn window_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let cfg = windowed_cfg(opts);
    writeln!(
        out,
        "window: {} links over {} node shards, {}-epoch window, {} epochs \
         (N = {}, m = {} bits/link/epoch, seed {})",
        cfg.links, cfg.shards, cfg.window, cfg.epochs, cfg.n_max, cfg.m_bits, cfg.seed
    )
    .map_err(io_err)?;
    let summary = run_windowed_pipeline(&cfg)?;
    writeln!(
        out,
        "sliding window: last {} epochs, per-link estimates: mean |rel err| = {:.2}%",
        summary.live_epochs,
        summary.mean_abs_rel_err * 100.0
    )
    .map_err(io_err)?;
    writeln!(out, "\n  quantile   est. flows/link/window").map_err(io_err)?;
    for &(p, v) in &summary.estimate_quantiles {
        writeln!(out, "  {:>7.0}%   {v:>21.0}", p * 100.0).map_err(io_err)?;
    }
    Ok(())
}

fn serve_cmd(opts: &Options, input: &mut impl BufRead, out: &mut impl Write) -> Result<(), String> {
    let pcfg = windowed_cfg(opts);
    let cfg = DaemonConfig {
        ingest_addr: opts.listen.clone(),
        query_addr: opts.query_listen.clone(),
        n_max: pcfg.n_max,
        m_bits: pcfg.m_bits,
        seed: pcfg.seed,
        window: pcfg.window,
        credits: opts.credits.max(1),
        read_deadline: Duration::from_millis(opts.deadline_ms.max(1)),
        checkpoint_path: (!opts.out.is_empty()).then(|| PathBuf::from(&opts.out)),
        data_dir: (!opts.data_dir.is_empty()).then(|| PathBuf::from(&opts.data_dir)),
        snapshot_every: opts.snapshot_every,
        standby_of: (!opts.standby_of.is_empty()).then(|| opts.standby_of.clone()),
        initial_term: opts.initial_term,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg)?;
    writeln!(
        out,
        "sbitmapd: ingest on {}, query on {} (N = {}, m = {} bits/link/epoch, \
         {}-epoch window, seed {}, {} credits)",
        daemon.ingest_addr(),
        daemon.query_addr(),
        pcfg.n_max,
        pcfg.m_bits,
        pcfg.window,
        pcfg.seed,
        opts.credits.max(1)
    )
    .map_err(io_err)?;
    if opts.standby_of.is_empty() {
        writeln!(out, "role: primary (term {})", daemon.term()).map_err(io_err)?;
    } else {
        writeln!(
            out,
            "role: standby following {} (term {}) — ingest answers NotPrimary \
             until `query promote`",
            opts.standby_of,
            daemon.term()
        )
        .map_err(io_err)?;
    }
    if !opts.data_dir.is_empty() {
        writeln!(
            out,
            "durable: journal + snapshots in {} ({})",
            opts.data_dir,
            if opts.snapshot_every == 0 {
                "journal only, no periodic snapshots".to_string()
            } else {
                format!("snapshot every {} frames", opts.snapshot_every)
            }
        )
        .map_err(io_err)?;
        // Ingest handshakes answer `Recovering` until the replay is
        // done; tell the operator when the ring is actually live.
        if daemon.is_recovering() {
            writeln!(out, "recovering: replaying the journal...").map_err(io_err)?;
            out.flush().map_err(io_err)?;
            while daemon.is_recovering() {
                std::thread::sleep(Duration::from_millis(20));
            }
            writeln!(out, "recovery complete, accepting agents").map_err(io_err)?;
        }
    }
    out.flush().map_err(io_err)?;
    // Operator control: a `drain` line stops the daemon; EOF leaves it
    // serving until a remote `query drain` flips the flag.
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(io_err)? == 0 {
            break;
        }
        if line.trim() == "drain" {
            daemon.drain();
            break;
        }
        writeln!(out, "unknown control line (only `drain` is understood)").map_err(io_err)?;
        out.flush().map_err(io_err)?;
    }
    while !daemon.is_draining() {
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = daemon.join()?;
    writeln!(
        out,
        "drained at epoch {}: {} keys, {} frames absorbed ({} duplicates, {} expired) \
         over {} connections",
        report.final_epoch,
        report.estimates.len(),
        report.frames_absorbed,
        report.duplicates,
        report.expired,
        report.connections
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "{} bad frames, {} desyncs, {} handshake rejects, {} backpressure stalls, \
         {} busy sheds, {} queries",
        report.bad_frames,
        report.desyncs,
        report.handshake_rejects,
        report.backpressure_events,
        report.busy_rejections,
        report.queries
    )
    .map_err(io_err)?;
    if !opts.data_dir.is_empty() {
        writeln!(
            out,
            "journal: {} records appended, {} snapshots; startup recovery replayed \
             {} records ({} skipped)",
            report.journal_records,
            report.snapshots,
            report.replayed_records,
            report.replay_skipped
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "{} sketch bytes on the wire, {} baseline resyncs served",
        report.bytes_on_wire, report.missing_baselines
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "replication: term {}, {} records replicated, {} standby drops, \
         {} NotPrimary refusals, {} handler panics survived",
        report.term,
        report.replicated_frames,
        report.replica_drops,
        report.not_primary_rejects,
        report.handler_panics
    )
    .map_err(io_err)?;
    if !opts.out.is_empty() {
        writeln!(
            out,
            "wrote final ring checkpoint ({} bytes) to {}",
            report.final_checkpoint.len(),
            opts.out
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Read-only inspection of a `serve --data-dir` directory: what a
/// restart would recover, and what a crash left behind. Never starts a
/// daemon and never writes — safe to run against a live collector's
/// directory (it may observe a segment mid-rotation, nothing worse).
fn recover_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let [dir] = opts.paths.as_slice() else {
        return Err("recover needs exactly one data directory".into());
    };
    let dir = std::path::Path::new(dir);
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    writeln!(out, "recover: inspecting {}", dir.display()).map_err(io_err)?;

    let snapshot = journal::read_snapshot(dir).map_err(|e| e.to_string())?;
    match &snapshot {
        Some(bytes) => {
            let ring: sbitmap_core::WindowedFleet =
                Checkpoint::restore(bytes).map_err(|e| format!("snapshot: {e}"))?;
            writeln!(
                out,
                "snapshot: {} bytes, {} keys over {} live of {} epochs (open epoch {})",
                bytes.len(),
                ring.len(),
                ring.live_epochs(),
                ring.window_epochs(),
                ring.current_epoch()
            )
            .map_err(io_err)?;
        }
        None => writeln!(out, "snapshot: none").map_err(io_err)?,
    }

    // Segments oldest first. A torn tail inside a segment ends its
    // replayable prefix; an unreadable header is fatal except on the
    // newest segment, where it is the normal residue of a crash during
    // rotation (recovery skips it the same way).
    let segments = journal::list_segments(dir).map_err(|e| e.to_string())?;
    let mut records = 0usize;
    let mut torn_bytes = 0usize;
    let mut config: Option<JournalConfig> = None;
    let newest = segments.len().saturating_sub(1);
    for (i, (seq, path)) in segments.iter().enumerate() {
        match journal::read_segment(path) {
            Ok(scan) => {
                let span = match (
                    scan.records.iter().map(|r| r.epoch).min(),
                    scan.records.iter().map(|r| r.epoch).max(),
                ) {
                    (Some(lo), Some(hi)) => format!("epochs {lo}..={hi}"),
                    _ => "empty".to_string(),
                };
                let torn = if scan.trailing_discarded > 0 {
                    format!(", torn tail: {} bytes discarded", scan.trailing_discarded)
                } else {
                    String::new()
                };
                writeln!(
                    out,
                    "segment {seq:016x}: {} records ({span}){torn}",
                    scan.records.len()
                )
                .map_err(io_err)?;
                records += scan.records.len();
                torn_bytes += scan.trailing_discarded;
                if let Some(prev) = &config {
                    if *prev != scan.config {
                        return Err(format!(
                            "segment {seq:016x} was written under a different \
                             configuration than its predecessors — recovery would refuse \
                             this directory"
                        ));
                    }
                }
                config = Some(scan.config);
            }
            Err(e) if i == newest => {
                writeln!(
                    out,
                    "segment {seq:016x}: unreadable header ({e}) — crash during \
                     rotation; recovery skips it"
                )
                .map_err(io_err)?;
            }
            Err(e) => return Err(format!("segment {seq:016x}: {e}")),
        }
    }
    if let Some(cfg) = &config {
        writeln!(
            out,
            "journal config: N = {}, m = {} bits, sampling bits {}, seed {}, window {}",
            cfg.n_max, cfg.m, cfg.sampling_bits, cfg.seed, cfg.window
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "total: {} segments, {} replayable records, {} torn bytes{}",
        segments.len(),
        records,
        torn_bytes,
        if snapshot.is_none() && segments.is_empty() {
            " (nothing to recover)"
        } else {
            ""
        }
    )
    .map_err(io_err)?;
    Ok(())
}

fn agent_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    // The failover list is `--connect` first (when given), then every
    // `--peers` entry not already present, in order.
    let mut targets: Vec<String> = Vec::new();
    if !opts.connect.is_empty() {
        targets.push(opts.connect.clone());
    }
    for p in &opts.peers {
        if !targets.contains(p) {
            targets.push(p.clone());
        }
    }
    if targets.is_empty() {
        return Err("agent needs --connect HOST:PORT (and/or --peers A:P,B:P)".into());
    }
    let pcfg = windowed_cfg(opts);
    if opts.shard >= pcfg.shards {
        return Err(format!(
            "--shard {} out of range for --shards {}",
            opts.shard, pcfg.shards
        ));
    }
    let backlog = DeltaFrameSource::new(&pcfg, opts.shard)?.collect_epochs();
    let frame_count: usize = backlog.iter().map(|e| e.deltas.len()).sum();
    let schedule = RateSchedule::from_memory(pcfg.n_max, pcfg.m_bits).map_err(|e| e.to_string())?;
    let echo = ConfigEcho {
        n_max: pcfg.n_max,
        m: pcfg.m_bits as u64,
        sampling_bits: schedule.split().sampling_bits(),
        seed: pcfg.seed,
        window: pcfg.window as u64,
        term: 0,
    };
    let agent_id = opts.agent_id.unwrap_or(opts.shard as u64 + 1);
    let acfg = AgentConfig::new(agent_id, echo);
    let read_deadline = Duration::from_millis(opts.deadline_ms.max(1));
    writeln!(
        out,
        "agent {agent_id}: shard {} of {} shipping {} epochs as {} v3 delta frames to {}",
        opts.shard,
        pcfg.shards,
        backlog.len(),
        frame_count,
        targets.join(" -> ")
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;
    let report = run_agent_rounds_failover(
        &acfg,
        backlog,
        &targets,
        Duration::from_secs(2),
        read_deadline,
    )?;
    writeln!(
        out,
        "acked {} of {} frames sent ({} bytes) over {} connections ({} duplicates, \
         {} retransmits, {} baseline resyncs, {} error frames seen)",
        report.frames_acked,
        report.frames_sent,
        report.bytes_on_wire,
        report.connections,
        report.duplicates,
        report.retransmits,
        report.baseline_resyncs,
        report.error_frames_seen
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "{} failover rotations, {} stale-term acks discarded",
        report.failovers, report.stale_acks
    )
    .map_err(io_err)?;
    Ok(())
}

fn query_cmd(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let [what] = opts.paths.as_slice() else {
        return Err("query needs exactly one request kind: \
             estimate | fill | top | summary | status | promote | drain"
            .into());
    };
    let need_key = || opts.key.ok_or(format!("query {what} needs --key K"));
    let request = match what.as_str() {
        "estimate" => QueryRequest::Estimate(need_key()?),
        "fill" => QueryRequest::Fill(need_key()?),
        "top" => QueryRequest::TopK(opts.top.max(1) as u64),
        "summary" => QueryRequest::Summary,
        "status" => QueryRequest::Status,
        "promote" => QueryRequest::Promote,
        "drain" => QueryRequest::Drain,
        other => {
            return Err(format!(
                "unknown query kind `{other}` \
                 (estimate | fill | top | summary | status | promote | drain)"
            ))
        }
    };
    if opts.connect.is_empty() {
        return Err("query needs --connect HOST:PORT".into());
    }
    let stream =
        TcpStream::connect(&opts.connect).map_err(|e| format!("connect {}: {e}", opts.connect))?;
    stream.set_nodelay(true).map_err(io_err)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(opts.deadline_ms.max(1))))
        .map_err(io_err)?;
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .map_err(io_err)?;
    let reply = query_once(stream, &request, Duration::from_secs(5))?;
    let key = opts.key.unwrap_or_default();
    match reply {
        Message::Reply(QueryReply::Estimate(Some(e))) => {
            writeln!(
                out,
                "key {key}: estimate {e:.0} distinct flows in the window"
            )
            .map_err(io_err)?;
        }
        Message::Reply(QueryReply::Estimate(None) | QueryReply::Fill(None)) => {
            writeln!(out, "key {key}: not tracked").map_err(io_err)?;
        }
        Message::Reply(QueryReply::Fill(Some(f))) => {
            writeln!(out, "key {key}: window fill {f} bits").map_err(io_err)?;
        }
        Message::Reply(QueryReply::TopK(rows)) => {
            writeln!(out, "\n    key   est. flows/window").map_err(io_err)?;
            for (k, e) in rows {
                writeln!(out, "  {k:>5}   {e:>17.0}").map_err(io_err)?;
            }
        }
        Message::Reply(QueryReply::Summary { keys, quantiles }) => {
            writeln!(out, "{keys} tracked keys").map_err(io_err)?;
            // The same rows `sbitmap window` prints, so a loopback
            // deployment can be diffed against the in-process reference.
            writeln!(out, "\n  quantile   est. flows/link/window").map_err(io_err)?;
            for (p, v) in quantiles {
                writeln!(out, "  {:>7.0}%   {v:>21.0}", p * 100.0).map_err(io_err)?;
            }
        }
        Message::Reply(QueryReply::Status {
            role,
            term,
            journal_seq,
            absorbed,
            shed,
            replicated,
            peers,
        }) => {
            writeln!(
                out,
                "role {role:?}, term {term}, journal segment {journal_seq}, \
                 {absorbed} frames absorbed, {shed} shed, \
                 {replicated} records replicated, {peers} standby(s) attached"
            )
            .map_err(io_err)?;
        }
        Message::Reply(QueryReply::Promoted { term }) => {
            writeln!(out, "promoted: now the acting primary in term {term}").map_err(io_err)?;
        }
        Message::Reply(QueryReply::Draining) => {
            writeln!(out, "collector acknowledged the drain").map_err(io_err)?;
        }
        Message::Error { code, detail, .. } => {
            return Err(format!("collector error ({code:?}): {detail}"));
        }
        other => return Err(format!("unexpected reply: {other:?}")),
    }
    Ok(())
}

fn bench_window(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let cfg = sbitmap_bench::window::WindowConfig {
        links: opts.links.max(1),
        max_pairs: opts.pairs.max(1),
        budget_ms: opts.budget_ms.max(1),
        seed: opts.seed,
        ..sbitmap_bench::window::WindowConfig::default()
    };
    writeln!(
        out,
        "window bench: {} links, ≤{} pairs, {} ms/case, {} rotations, W ∈ {:?}",
        cfg.links,
        cfg.max_pairs,
        cfg.budget_ms,
        cfg.rotations,
        sbitmap_bench::window::WINDOW_SPANS
    )
    .map_err(io_err)?;
    let run = sbitmap_bench::window::run(&cfg);
    for m in &run.results {
        writeln!(out, "{}", m.row()).map_err(io_err)?;
    }
    let overhead = sbitmap_bench::window::w8_overhead(&run.results);
    writeln!(out, "w8 ingest vs plain arena: {overhead:.2}x").map_err(io_err)?;
    let speedup = sbitmap_bench::window::query_speedup(&run.results);
    writeln!(out, "fused query vs naive reference: {speedup:.2}x").map_err(io_err)?;
    let json = sbitmap_bench::window::report_json(&cfg, &run);
    let path = if opts.out.is_empty() {
        "BENCH_window.json"
    } else {
        &opts.out
    };
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    writeln!(out, "wrote {path}").map_err(io_err)?;
    if let Some(max) = opts.assert_max_overhead {
        if overhead > max {
            return Err(format!(
                "regression: W=8 windowed ingest costs {overhead:.3}x the plain \
                 arena per item, above the allowed {max}x"
            ));
        }
        writeln!(out, "overhead gate passed: {overhead:.2}x <= {max}x").map_err(io_err)?;
    }
    if let Some(min) = opts.assert_min_query_speedup {
        if speedup < min {
            return Err(format!(
                "regression: the fused W=8 window query is only {speedup:.3}x the \
                 naive three-pass reference, below the required {min}x"
            ));
        }
        writeln!(out, "query gate passed: {speedup:.2}x >= {min}x").map_err(io_err)?;
    }
    Ok(())
}

fn bench_collect(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let cfg = sbitmap_bench::collect::CollectConfig {
        links: opts.links.max(1),
        max_shards: opts.shards.max(1),
        budget_ms: opts.budget_ms.max(1),
        seed: opts.seed,
        window: opts.window.max(2),
        epochs: opts.epochs.max(1),
        rounds: opts.rounds.max(1),
    };
    writeln!(
        out,
        "collect bench: {} links, 1..={} shards, {} ms/case, {} rounds/epoch",
        cfg.links, cfg.max_shards, cfg.budget_ms, cfg.rounds
    )
    .map_err(io_err)?;
    let run = sbitmap_bench::collect::run(&cfg);
    for m in &run.results {
        writeln!(out, "{}", m.row()).map_err(io_err)?;
    }
    let reduction = run.wire.reduction;
    writeln!(
        out,
        "wire: {} frames, {} bytes full vs {} bytes v3 ({reduction:.2}x reduction)",
        run.wire.frames, run.wire.bytes_full, run.wire.bytes_v3
    )
    .map_err(io_err)?;
    let json = sbitmap_bench::collect::report_json(&cfg, &run);
    let path = if opts.out.is_empty() {
        "BENCH_collect.json"
    } else {
        &opts.out
    };
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    writeln!(out, "wrote {path}").map_err(io_err)?;
    if let Some(min) = opts.assert_min_wire_reduction {
        if reduction < min {
            return Err(format!(
                "regression: the v3 delta encoding only shrinks the windowed \
                 wire by {reduction:.3}x, below the required {min}x"
            ));
        }
        writeln!(out, "wire gate passed: {reduction:.2}x >= {min}x").map_err(io_err)?;
    }
    Ok(())
}

fn bench_fleet(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let generator = sbitmap_bench::fleet::FleetGenerator::parse(&opts.generator)
        .ok_or_else(|| format!("unknown generator `{}`", opts.generator))?;
    let cfg = sbitmap_bench::fleet::FleetConfig {
        links: opts.links.max(1),
        max_pairs: opts.pairs.max(1),
        budget_ms: opts.budget_ms.max(1),
        seed: opts.seed,
        generator,
        zipf_keys: opts.keys.max(1),
    };
    writeln!(
        out,
        "fleet bench [{}]: {} links, ≤{} pairs, {} zipf keys, {} ms/case",
        generator.name(),
        cfg.links,
        cfg.max_pairs,
        cfg.zipf_keys,
        cfg.budget_ms
    )
    .map_err(io_err)?;
    let run = sbitmap_bench::fleet::run(&cfg);
    for m in &run.results {
        writeln!(out, "{}", m.row()).map_err(io_err)?;
    }
    let speedup = sbitmap_bench::fleet::arena_speedup(&run.results);
    let rss_ratio = sbitmap_bench::fleet::rss_ratio(&run);
    let slowdown = sbitmap_bench::fleet::zipf_slowdown(&run.results);
    if generator.name() != "zipf" {
        writeln!(out, "arena vs legacy batched: {speedup:.2}x").map_err(io_err)?;
    }
    if generator.name() != "backbone" {
        writeln!(
            out,
            "zipf sparse vs dense: {rss_ratio:.3}x peak RSS ({} vs {} bytes), \
             {slowdown:.2}x ns/item",
            run.sparse_rss_bytes, run.dense_rss_bytes
        )
        .map_err(io_err)?;
    }
    let json = sbitmap_bench::fleet::report_json(&cfg, &run);
    let path = if opts.out.is_empty() {
        "BENCH_fleet.json"
    } else {
        &opts.out
    };
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    writeln!(out, "wrote {path}").map_err(io_err)?;
    if let Some(min) = opts.assert_min_speedup {
        if speedup < min {
            return Err(format!(
                "regression: arena batched ingest is {speedup:.3}x the legacy \
                 batched path, below the required {min}x"
            ));
        }
        writeln!(out, "speedup gate passed: {speedup:.2}x >= {min}x").map_err(io_err)?;
    }
    if let Some(max) = opts.assert_max_rss_ratio {
        if rss_ratio <= 0.0 || rss_ratio > max {
            return Err(format!(
                "regression: sparse fleet peak RSS is {rss_ratio:.4}x the dense \
                 arena's on the zipf workload, outside (0, {max}]"
            ));
        }
        writeln!(out, "rss gate passed: {rss_ratio:.4}x <= {max}x").map_err(io_err)?;
    }
    if let Some(max) = opts.assert_max_slowdown {
        if slowdown <= 0.0 || slowdown > max {
            return Err(format!(
                "regression: sparse zipf ingest costs {slowdown:.3}x the dense \
                 arena per item, outside (0, {max}]"
            ));
        }
        writeln!(out, "slowdown gate passed: {slowdown:.2}x <= {max}x").map_err(io_err)?;
    }
    Ok(())
}

fn bench_ingest(opts: &Options, out: &mut impl Write) -> Result<(), String> {
    let cfg = sbitmap_bench::ingest::IngestConfig {
        links: opts.links.max(1),
        max_pairs: opts.pairs.max(1),
        budget_ms: opts.budget_ms.max(1),
        max_threads: opts.threads.max(1),
        seed: opts.seed,
    };
    writeln!(
        out,
        "ingest bench: {} links, ≤{} pairs, {} ms/case, ≤{} threads",
        cfg.links, cfg.max_pairs, cfg.budget_ms, cfg.max_threads
    )
    .map_err(io_err)?;
    let results = sbitmap_bench::ingest::run(&cfg);
    for m in &results {
        writeln!(out, "{}", m.row()).map_err(io_err)?;
    }
    let json = sbitmap_bench::ingest::report_json(&cfg, &results);
    let out_path = if opts.out.is_empty() {
        "BENCH_ingest.json"
    } else {
        &opts.out
    };
    std::fs::write(out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    let scalar = results
        .iter()
        .find(|m| m.name == "backbone_fleet_scalar")
        .map(Measurement::items_per_sec)
        .unwrap_or(0.0);
    let batched = results
        .iter()
        .find(|m| m.name == "backbone_fleet_batched")
        .map(Measurement::items_per_sec)
        .unwrap_or(0.0);
    if scalar > 0.0 {
        writeln!(
            out,
            "batched vs scalar on backbone: {:.2}x",
            batched / scalar
        )
        .map_err(io_err)?;
    }
    writeln!(out, "wrote {out_path}").map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &str, stdin: &str) -> Result<String, String> {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let mut input = stdin.as_bytes();
        let mut out = Vec::new();
        dispatch(&argv, &mut input, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn count_small_exact_stream() {
        let out = run(
            "count --sketch exact --n-max 1000",
            "alice\nbob\nalice\ncarol\n",
        )
        .unwrap();
        assert!(out.starts_with("3 distinct"), "{out}");
    }

    #[test]
    fn count_with_sbitmap_is_close() {
        let stdin: String = (0..5000).map(|i| format!("user-{i}\nuser-{i}\n")).collect();
        let out = run("count --n-max 100k --error 0.03 --seed 7", &stdin).unwrap();
        let est: f64 = out.split_whitespace().next().unwrap().parse().unwrap();
        assert!((est / 5000.0 - 1.0).abs() < 0.15, "{out}");
    }

    #[test]
    fn plan_prints_all_methods() {
        let out = run("plan --n-max 1e6 --error 0.01", "").unwrap();
        for needle in ["S-bitmap", "HyperLogLog", "LogLog", "FM/PCSA", "b_max"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
    }

    #[test]
    fn compare_runs_every_sketch() {
        let stdin: String = (0..2000).map(|i| format!("flow-{i}\n")).collect();
        let out = run("compare --n-max 100k --memory-bits 4000 --seed 3", &stdin).unwrap();
        for name in ["s-bitmap", "hyperloglog", "mr-bitmap", "exact"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn simulate_reports_near_theory() {
        let out = run(
            "simulate --n-max 1m --memory-bits 8000 --n 100k --reps 600",
            "",
        )
        .unwrap();
        assert!(out.contains("theoretical RRMSE"), "{out}");
        // Parse simulated rrmse and compare loosely with 2.2% theory.
        let line = out.lines().nth(1).unwrap();
        let rrmse: f64 = line
            .split("RRMSE = ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((1.4..3.4).contains(&rrmse), "simulated rrmse {rrmse}");
    }

    #[test]
    fn simulate_rejects_n_beyond_range() {
        assert!(run("simulate --n-max 1000 --memory-bits 500 --n 5000", "").is_err());
    }

    #[test]
    fn unknown_command_and_sketch_error() {
        assert!(run("bogus", "").is_err());
        assert!(run("count --sketch nope", "").is_err());
        assert!(run("count --hash nope", "a\n").is_err());
    }

    #[test]
    fn count_with_alternate_hash() {
        let stdin: String = (0..3000).map(|i| format!("k{i}\n")).collect();
        let out = run(
            "count --hash xxh64 --n-max 100k --error 0.03 --seed 5",
            &stdin,
        )
        .unwrap();
        let est: f64 = out.split_whitespace().next().unwrap().parse().unwrap();
        assert!((est / 3000.0 - 1.0).abs() < 0.2, "{out}");
    }

    #[test]
    fn bench_ingest_writes_report() {
        let path = std::env::temp_dir().join("sbitmap_test_bench_ingest.json");
        let argv = format!(
            "bench-ingest --links 4 --pairs 2k --budget-ms 2 --threads 2 --out {}",
            path.display()
        );
        let out = run(&argv, "").unwrap();
        assert!(out.contains("backbone_fleet_scalar"), "{out}");
        assert!(out.contains("worm_concurrent_t2"), "{out}");
        assert!(out.contains("batched vs scalar"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"ingest\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_fleet_writes_report_and_gates_regressions() {
        let path = std::env::temp_dir().join(format!(
            "sbitmap_test_bench_fleet_{}.json",
            std::process::id()
        ));
        let argv = format!(
            "bench-fleet --links 4 --pairs 2k --budget-ms 2 \
             --assert-min-speedup 0.01 --out {}",
            path.display()
        );
        let out = run(&argv, "").unwrap();
        assert!(out.contains("backbone_fleet_arena"), "{out}");
        assert!(out.contains("arena vs legacy batched"), "{out}");
        assert!(out.contains("speedup gate passed"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"fleet\""));
        assert!(json.contains("available_parallelism"));
        // An impossible gate must fail loudly.
        let argv = format!(
            "bench-fleet --links 4 --pairs 2k --budget-ms 2 \
             --assert-min-speedup 1e9 --out {}",
            path.display()
        );
        let err = run(&argv, "").unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_fleet_zipf_lanes_report_and_gate() {
        let path = std::env::temp_dir().join(format!(
            "sbitmap_test_bench_fleet_zipf_{}.json",
            std::process::id()
        ));
        let argv = format!(
            "bench-fleet --generator zipf --keys 3k --budget-ms 2 \
             --assert-max-slowdown 1e9 --out {}",
            path.display()
        );
        let out = run(&argv, "").unwrap();
        assert!(out.contains("zipf_fleet_sparse"), "{out}");
        assert!(out.contains("zipf_fleet_arena"), "{out}");
        assert!(out.contains("slowdown gate passed"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"generator\": \"zipf\""));
        assert!(json.contains("\"rss_ratio\": "));
        assert!(json.contains("\"peak_rss_bytes\": "));
        // An impossible slowdown gate must fail loudly. (The RSS gate is
        // exercised by the CI smoke run in a fresh process — VmHWM deltas
        // are not attributable inside this shared test binary.)
        let argv = format!(
            "bench-fleet --generator zipf --keys 3k --budget-ms 2 \
             --assert-max-slowdown 1e-9 --out {}",
            path.display()
        );
        let err = run(&argv, "").unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crlf_lines_are_trimmed() {
        let out = run("count --sketch exact", "a\r\nb\r\na\r\n").unwrap();
        assert!(out.starts_with("2 distinct"), "{out}");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sbitmap_cli_test_{name}_{}", std::process::id()))
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let path = tmp("ckpt_roundtrip");
        let stdin: String = (0..4_000).map(|i| format!("flow-{i}\n")).collect();
        let out = run(
            &format!(
                "checkpoint --n-max 100k --memory-bits 4000 --seed 5 --out {}",
                path.display()
            ),
            &stdin,
        )
        .unwrap();
        assert!(out.contains("s-bitmap checkpoint"), "{out}");
        let out = run(&format!("restore {}", path.display()), "").unwrap();
        assert!(out.contains("v2 s-bitmap (not mergeable)"), "{out}");
        let est: f64 = out
            .split("estimate ")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((est / 4_000.0 - 1.0).abs() < 0.2, "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_unions_hll_checkpoints() {
        let a = tmp("merge_a");
        let b = tmp("merge_b");
        let merged = tmp("merge_out");
        let stdin_a: String = (0..3_000).map(|i| format!("u{i}\n")).collect();
        let stdin_b: String = (2_000..6_000).map(|i| format!("u{i}\n")).collect();
        let flags = "--sketch hyperloglog --n-max 100k --memory-bits 20k --seed 9";
        run(
            &format!("checkpoint {flags} --out {}", a.display()),
            &stdin_a,
        )
        .unwrap();
        run(
            &format!("checkpoint {flags} --out {}", b.display()),
            &stdin_b,
        )
        .unwrap();
        let out = run(
            &format!(
                "merge {} {} --out {}",
                a.display(),
                b.display(),
                merged.display()
            ),
            "",
        )
        .unwrap();
        assert!(out.contains("merged (2 checkpoints)"), "{out}");
        let est: f64 = out
            .lines()
            .find(|l| l.starts_with("merged"))
            .unwrap()
            .split("estimate ")
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!((est / 6_000.0 - 1.0).abs() < 0.1, "union estimate {est}");
        // The merged checkpoint restores as a mergeable hyperloglog.
        let out = run(&format!("restore {}", merged.display()), "").unwrap();
        assert!(out.contains("hyperloglog (mergeable)"), "{out}");
        for p in [a, b, merged] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn merge_refuses_sbitmap_checkpoints() {
        let a = tmp("merge_sb_a");
        let b = tmp("merge_sb_b");
        let flags = "--n-max 10k --memory-bits 1200 --seed 2";
        run(&format!("checkpoint {flags} --out {}", a.display()), "x\n").unwrap();
        run(&format!("checkpoint {flags} --out {}", b.display()), "y\n").unwrap();
        let err = run(&format!("merge {} {}", a.display(), b.display()), "").unwrap_err();
        assert!(err.contains("not mergeable"), "{err}");
        assert!(err.contains("collect"), "{err}");
        for p in [a, b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn merge_refuses_mixed_kinds() {
        let a = tmp("merge_mix_a");
        let b = tmp("merge_mix_b");
        run(
            &format!(
                "checkpoint --sketch hyperloglog --memory-bits 20k --out {}",
                a.display()
            ),
            "x\n",
        )
        .unwrap();
        run(
            &format!(
                "checkpoint --sketch kmv --memory-bits 20k --out {}",
                b.display()
            ),
            "x\n",
        )
        .unwrap();
        let err = run(&format!("merge {} {}", a.display(), b.display()), "").unwrap_err();
        assert!(err.contains("cannot merge"), "{err}");
        for p in [a, b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn restore_rejects_corruption_and_missing_args() {
        let path = tmp("restore_bad");
        run(
            &format!(
                "checkpoint --memory-bits 1200 --n-max 10k --out {}",
                path.display()
            ),
            "a\n",
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = run(&format!("restore {}", path.display()), "").unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(run("restore", "").is_err());
        assert!(run("merge", "").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_non_default_hash_and_unknown_sketch() {
        assert!(run("checkpoint --hash xxh64", "a\n").is_err());
        assert!(run("checkpoint --sketch exact", "a\n").is_err());
    }

    #[test]
    fn stray_positional_arguments_are_rejected() {
        // `count data.txt` must not silently ignore the file name and
        // block on stdin.
        let err = run("count data.txt", "a\n").unwrap_err();
        assert!(err.contains("unexpected argument `data.txt`"), "{err}");
        assert!(run("collect 5", "").is_err());
        assert!(run("bench-collect oops --budget-ms 1", "").is_err());
    }

    #[test]
    fn collect_runs_pipeline_and_prints_summary() {
        let out = run("collect --links 12 --shards 3 --seed 4", "").unwrap();
        assert!(out.contains("12 links over 3 node shards"), "{out}");
        assert!(out.contains("received 15 checkpoints"), "{out}");
        assert!(out.contains("backbone union"), "{out}");
        assert!(out.contains("quantile"), "{out}");
    }

    #[test]
    fn window_runs_pipeline_and_prints_summary() {
        let out = run(
            "window --links 9 --shards 3 --window 2 --epochs 4 --seed 4",
            "",
        )
        .unwrap();
        assert!(out.contains("9 links over 3 node shards"), "{out}");
        assert!(out.contains("last 2 epochs"), "{out}");
        assert!(out.contains("quantile"), "{out}");
    }

    #[test]
    fn bench_window_writes_report_and_gates_overhead() {
        let path = tmp("bench_window.json");
        let argv = format!(
            "bench-window --links 4 --pairs 2k --budget-ms 2 \
             --assert-max-overhead 1e9 --out {}",
            path.display()
        );
        let out = run(&argv, "").unwrap();
        assert!(out.contains("backbone_window_w8"), "{out}");
        assert!(out.contains("window_query_w8"), "{out}");
        assert!(out.contains("overhead gate passed"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"window\""));
        assert!(json.contains("w8_vs_arena_overhead"));
        // An impossible gate must fail loudly.
        let argv = format!(
            "bench-window --links 4 --pairs 2k --budget-ms 2 \
             --assert-max-overhead 1e-9 --out {}",
            path.display()
        );
        let err = run(&argv, "").unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_window_gates_query_speedup_against_naive_lane() {
        let path = tmp("bench_window_query.json");
        let argv = format!(
            "bench-window --links 4 --pairs 2k --budget-ms 2 \
             --assert-min-query-speedup 1e-9 --out {}",
            path.display()
        );
        let out = run(&argv, "").unwrap();
        assert!(out.contains("window_query_naive_w8"), "{out}");
        assert!(out.contains("query gate passed"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("query_fused_vs_naive_speedup"));
        assert!(json.contains("\"simd\": "));
        // An impossible gate must fail loudly.
        let argv = format!(
            "bench-window --links 4 --pairs 2k --budget-ms 2 \
             --assert-min-query-speedup 1e9 --out {}",
            path.display()
        );
        let err = run(&argv, "").unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_describes_keyed_fleet_checkpoints_from_either_flavor() {
        use sbitmap_core::{Checkpoint, FleetArena, SparseFleet};
        let mut dense: FleetArena = FleetArena::new(10_000, 1_200, 3).unwrap();
        let mut sparse: SparseFleet = SparseFleet::new(10_000, 4_000, 3).unwrap();
        for key in [5u64, 6, 7] {
            dense.insert_u64(key, key);
            sparse.insert_u64(key, key);
        }
        sparse.insert_u64(8, 1);
        for (name, bytes, keys, bits) in [
            ("arena_fleet_ckpt", dense.checkpoint(), 3, 3_600),
            ("sparse_fleet_ckpt", sparse.checkpoint(), 4, 16_000),
        ] {
            let path = tmp(name);
            std::fs::write(&path, &bytes).unwrap();
            let out = run(&format!("restore {}", path.display()), "").unwrap();
            assert_eq!(
                out,
                format!(
                    "{}: v2 sketch-fleet, {keys} keys, {bits} sketch bits, {} bytes\n",
                    path.display(),
                    bytes.len()
                )
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn restore_describes_windowed_fleet_checkpoints() {
        use sbitmap_core::{Checkpoint, WindowedFleet};
        let path = tmp("windowed_ckpt");
        let mut fleet: WindowedFleet = WindowedFleet::new(10_000, 1_200, 3, 2).unwrap();
        fleet.insert_u64(5, 1);
        fleet.rotate();
        fleet.insert_u64(6, 2);
        std::fs::write(&path, fleet.checkpoint()).unwrap();
        let out = run(&format!("restore {}", path.display()), "").unwrap();
        assert!(out.contains("windowed-fleet"), "{out}");
        assert!(out.contains("2 keys over 2 live of 2 epochs"), "{out}");
        // Two windowed checkpoints refuse to merge (not mergeable).
        let b = tmp("windowed_ckpt_b");
        std::fs::copy(&path, &b).unwrap();
        let err = run(&format!("merge {} {}", path.display(), b.display()), "").unwrap_err();
        assert!(err.contains("not mergeable"), "{err}");
        for p in [path, b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_starts_and_drains_on_stdin_command() {
        let out = run(
            "serve --listen 127.0.0.1:0 --query-listen 127.0.0.1:0 \
             --links 6 --shards 2 --window 2 --epochs 2 --seed 3",
            "drain\n",
        )
        .unwrap();
        assert!(out.contains("sbitmapd: ingest on 127.0.0.1:"), "{out}");
        assert!(out.contains("drained at epoch 0: 0 keys"), "{out}");
    }

    #[test]
    fn agent_and_query_work_against_a_live_daemon() {
        // A daemon shaped exactly as `windowed_cfg` shapes `serve`, so
        // the CLI agent's config echo matches the handshake check.
        let pcfg = WindowedPipelineConfig {
            links: 6,
            shards: 2,
            window: 2,
            epochs: 3,
            seed: 5,
            ..WindowedPipelineConfig::default()
        };
        let daemon = Daemon::start(DaemonConfig {
            n_max: pcfg.n_max,
            m_bits: pcfg.m_bits,
            seed: pcfg.seed,
            window: pcfg.window,
            read_deadline: Duration::from_millis(10),
            ..DaemonConfig::default()
        })
        .unwrap();
        let ingest = daemon.ingest_addr();
        let query = daemon.query_addr();
        let flags = "--links 6 --shards 2 --window 2 --epochs 3 --rounds 2 --seed 5 \
                     --deadline-ms 20";
        for shard in 0..2 {
            let out = run(
                &format!("agent --connect {ingest} {flags} --shard {shard}"),
                "",
            )
            .unwrap();
            assert!(
                out.contains("shipping 3 epochs as 6 v3 delta frames"),
                "{out}"
            );
            assert!(out.contains("acked 6 of 6 frames sent"), "{out}");
        }
        let out = run(
            &format!("query summary --connect {query} --deadline-ms 20"),
            "",
        )
        .unwrap();
        assert!(out.contains("6 tracked keys"), "{out}");
        assert!(out.contains("quantile"), "{out}");
        let out = run(
            &format!("query estimate --connect {query} --key 0 --deadline-ms 20"),
            "",
        )
        .unwrap();
        assert!(out.contains("key 0: estimate"), "{out}");
        let out = run(
            &format!("query estimate --connect {query} --key 999 --deadline-ms 20"),
            "",
        )
        .unwrap();
        assert!(out.contains("key 999: not tracked"), "{out}");
        let out = run(
            &format!("query top --connect {query} --top 3 --deadline-ms 20"),
            "",
        )
        .unwrap();
        assert!(out.contains("est. flows/window"), "{out}");
        let out = run(
            &format!("query drain --connect {query} --deadline-ms 20"),
            "",
        )
        .unwrap();
        assert!(out.contains("acknowledged the drain"), "{out}");
        let report = daemon.join().unwrap();
        // The agents ran *sequentially*: shard 0 advanced the ring to
        // epoch 2 (window 2 keeps epochs {1, 2}), so shard 1's two
        // epoch-0 delta rounds arrived expired — acked, counted, and
        // irrelevant to the final window, exactly as the sliding window
        // defines. The other 10 of the 12 (shard, epoch, round) frames
        // absorbed.
        assert_eq!(report.frames_absorbed, 10);
        assert_eq!(report.expired, 2);
        assert_eq!(report.estimates.len(), 6);
    }

    #[test]
    fn durable_serve_journals_restores_and_recover_inspects() {
        let dir = tmp("durable_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let pcfg = WindowedPipelineConfig {
            links: 6,
            shards: 2,
            window: 2,
            epochs: 3,
            seed: 5,
            ..WindowedPipelineConfig::default()
        };
        let daemon = Daemon::start(DaemonConfig {
            n_max: pcfg.n_max,
            m_bits: pcfg.m_bits,
            seed: pcfg.seed,
            window: pcfg.window,
            data_dir: Some(dir.clone()),
            snapshot_every: 4,
            read_deadline: Duration::from_millis(10),
            ..DaemonConfig::default()
        })
        .unwrap();
        let ingest = daemon.ingest_addr();
        let query = daemon.query_addr();
        let flags = "--links 6 --shards 2 --window 2 --epochs 3 --rounds 2 --seed 5 \
                     --deadline-ms 20";
        for shard in 0..2 {
            run(
                &format!("agent --connect {ingest} {flags} --shard {shard}"),
                "",
            )
            .unwrap();
        }
        run(
            &format!("query drain --connect {query} --deadline-ms 20"),
            "",
        )
        .unwrap();
        let report = daemon.join().unwrap();
        assert!(
            report.journal_records > 0,
            "acked frames must hit the journal"
        );

        // The inspection tool sees the post-drain state: a final
        // snapshot, no segments left to replay.
        let out = run(&format!("recover {}", dir.display()), "").unwrap();
        assert!(out.contains("snapshot: "), "{out}");
        assert!(
            out.contains("total: 0 segments, 0 replayable records"),
            "{out}"
        );

        // A restart on the same directory restores the ring from the
        // snapshot: the drained report still knows all 6 links.
        let out = run(
            &format!(
                "serve --listen 127.0.0.1:0 --query-listen 127.0.0.1:0 \
                 --links 6 --shards 2 --window 2 --seed 5 --data-dir {}",
                dir.display()
            ),
            "drain\n",
        )
        .unwrap();
        assert!(out.contains("durable: journal + snapshots in"), "{out}");
        assert!(out.contains("6 keys"), "{out}");
        assert!(out.contains("journal: 0 records appended"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_reports_segments_and_torn_tails() {
        use sbitmap_core::journal::{JournalRecord, JournalWriter};
        let dir = tmp("recover_torn");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jcfg = JournalConfig {
            n_max: 10_000,
            m: 1_200,
            sampling_bits: 3,
            seed: 2,
            window: 2,
        };
        let rec = |source, epoch| JournalRecord {
            source,
            epoch,
            payload: vec![0xab; 64],
        };
        let mut w = JournalWriter::create(&dir, &jcfg, 0, 1, false).unwrap();
        w.append(&rec(1, 0)).unwrap();
        w.append(&rec(2, 1)).unwrap();
        // Half a record: the torn tail a crash mid-append leaves.
        let torn = journal::encode_record(&rec(3, 1));
        w.append_bytes(&torn[..torn.len() / 2]).unwrap();
        drop(w);
        let out = run(&format!("recover {}", dir.display()), "").unwrap();
        assert!(out.contains("snapshot: none"), "{out}");
        assert!(out.contains("2 records (epochs 0..=1)"), "{out}");
        assert!(out.contains("torn tail: "), "{out}");
        assert!(out.contains("journal config: N = 10000"), "{out}");
        assert!(
            out.contains("total: 1 segments, 2 replayable records"),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
        // Bad usage fires before any filesystem reads.
        assert!(run("recover", "").is_err());
        assert!(run("recover /definitely/not/a/dir", "").is_err());
    }

    #[test]
    fn agent_and_query_reject_bad_usage() {
        // Every rejection here must fire before any network I/O.
        let err = run("agent --links 4 --shards 2", "").unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = run("agent --connect 127.0.0.1:1 --shards 2 --shard 2", "").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = run("query --connect 127.0.0.1:1", "").unwrap_err();
        assert!(err.contains("request kind"), "{err}");
        let err = run("query bogus --connect 127.0.0.1:1", "").unwrap_err();
        assert!(err.contains("unknown query kind"), "{err}");
        let err = run("query estimate --connect 127.0.0.1:1", "").unwrap_err();
        assert!(err.contains("--key"), "{err}");
        let err = run("query summary", "").unwrap_err();
        assert!(err.contains("--connect"), "{err}");
    }

    #[test]
    fn bench_collect_writes_report() {
        let path = tmp("bench_collect.json");
        let argv = format!(
            "bench-collect --links 6 --shards 2 --budget-ms 2 --out {}",
            path.display()
        );
        let out = run(&argv, "").unwrap();
        assert!(out.contains("collect_s1"), "{out}");
        assert!(out.contains("collect_s2"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"collect\""));
        std::fs::remove_file(&path).ok();
    }
}
