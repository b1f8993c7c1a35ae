//! End-to-end loopback harness: a daemon plus one TCP agent per shard,
//! on `127.0.0.1`, each shipping its shard's v3 delta chains.
//!
//! This is the bridge the robustness suites (`tests/faults.rs`,
//! `tests/replication.rs`, `tests/lifecycle.rs`) stand on:
//! [`sbitmap_stream::DeltaFrameSource`] cuts each shard's round chains,
//! and after a drain the daemon's ring must match the codec-free
//! reference [`sbitmap_stream::run_windowed_pipeline`] **bit-for-bit**
//! — estimates, fills and quantile summaries — no matter which
//! [`FaultPlan`] mangled the transport along the way.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use sbitmap_stream::net::{Message, QueryReply, QueryRequest};
use sbitmap_stream::{DeltaFrameSource, FaultPlan, WindowedPipelineConfig};

use crate::agent::{
    query_once, run_agent_rounds, run_agent_rounds_failover, AgentConfig, AgentReport,
};
use crate::server::{Daemon, DaemonConfig, DaemonReport};

/// What [`run_loopback`] returns once the daemon has drained.
#[derive(Debug, Clone)]
pub struct LoopbackOutcome {
    /// The drained daemon's report (estimates + counters + checkpoint).
    pub report: DaemonReport,
    /// One report per shard agent, in shard order.
    pub agents: Vec<AgentReport>,
}

/// Run the full networked pipeline on loopback: start a daemon shaped
/// by `pcfg`'s sketch parameters, ship every shard's epoch frames
/// through a real TCP agent (shard `s` injecting `plans[s]`, clean when
/// `plans` is shorter), then drain and return the collector state.
///
/// The daemon's sketch fields (`n_max`, `m_bits`, `seed`, `window`) are
/// overwritten from `pcfg` so the two sides can never disagree; the
/// remaining knobs of `dcfg` (credits, queue bound, deadlines, paths)
/// are honored as given.
///
/// # Errors
///
/// Daemon start/join failures, an invalid `pcfg`, or an agent
/// exhausting its attempts.
pub fn run_loopback(
    pcfg: &WindowedPipelineConfig,
    dcfg: DaemonConfig,
    plans: &[FaultPlan],
) -> Result<LoopbackOutcome, String> {
    let dcfg = DaemonConfig {
        n_max: pcfg.n_max,
        m_bits: pcfg.m_bits,
        seed: pcfg.seed,
        window: pcfg.window,
        ..dcfg
    };
    let read_deadline = dcfg.read_deadline;
    let write_deadline = dcfg.write_deadline;
    let daemon = Daemon::start(dcfg)?;
    let echo = daemon.config_echo();
    let addr = daemon.ingest_addr();

    // Frame generation can fail (bad shard split) — do it before any
    // thread spawns so errors surface cleanly.
    let mut shard_frames = Vec::with_capacity(pcfg.shards);
    for shard in 0..pcfg.shards {
        shard_frames.push(DeltaFrameSource::new(pcfg, shard)?.collect_epochs());
    }

    let mut workers = Vec::with_capacity(pcfg.shards);
    for (shard, backlog) in shard_frames.into_iter().enumerate() {
        let plan = plans.get(shard).cloned().unwrap_or_default();
        let acfg = AgentConfig {
            plan,
            // Loopback acks arrive in microseconds; a short ack timeout
            // keeps fault-injected runs (lost frame → silent ack gap →
            // reconnect) fast without risking false timeouts.
            ack_timeout: (read_deadline * 10).max(Duration::from_millis(100)),
            ..AgentConfig::new(shard as u64 + 1, echo)
        };
        workers.push(std::thread::spawn(move || {
            run_agent_rounds(&acfg, backlog, |_attempt| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(read_deadline.max(Duration::from_millis(1))))?;
                stream.set_write_timeout(Some(write_deadline))?;
                Ok(stream)
            })
        }));
    }
    let mut agents = Vec::with_capacity(workers.len());
    let mut first_err = None;
    for w in workers {
        match w.join().map_err(|_| "agent thread panicked".to_string())? {
            Ok(r) => agents.push(r),
            Err(e) => first_err = Some(e),
        }
    }
    // Drain regardless, so the daemon's threads never leak; then report
    // the first agent failure if any.
    daemon.drain();
    let report = daemon.join()?;
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(LoopbackOutcome { report, agents })
}

/// What [`run_loopback_replicated`] returns once both collectors have
/// drained.
#[derive(Debug, Clone)]
pub struct ReplicatedOutcome {
    /// The drained primary's report.
    pub primary: DaemonReport,
    /// The drained standby's report — its estimates must be
    /// bit-identical to the primary's (every acked frame was replicated
    /// before its ack left).
    pub standby: DaemonReport,
    /// One report per shard agent, in shard order.
    pub agents: Vec<AgentReport>,
}

/// Run the replicated pipeline on loopback: a primary, one standby
/// following it, and one failover-capable TCP agent per shard
/// configured with the ordered `[primary, standby]` address list.
///
/// The standby is attached (primary `Status` reports one peer) before
/// any agent starts, so every frame takes the full semi-synchronous
/// path, and the standby's final ring must match the primary's bit for
/// bit (`tests/replication.rs`).
///
/// # Errors
///
/// Daemon start/join failures, an invalid `pcfg`, the standby failing
/// to attach within 5 s, or an agent exhausting its attempts.
pub fn run_loopback_replicated(
    pcfg: &WindowedPipelineConfig,
    dcfg: DaemonConfig,
    plans: &[FaultPlan],
) -> Result<ReplicatedOutcome, String> {
    let primary_cfg = DaemonConfig {
        n_max: pcfg.n_max,
        m_bits: pcfg.m_bits,
        seed: pcfg.seed,
        window: pcfg.window,
        ..dcfg.clone()
    };
    let read_deadline = primary_cfg.read_deadline;
    let primary = Daemon::start(primary_cfg)?;
    let echo = primary.config_echo();
    let standby_cfg = DaemonConfig {
        n_max: pcfg.n_max,
        m_bits: pcfg.m_bits,
        seed: pcfg.seed,
        window: pcfg.window,
        standby_of: Some(primary.ingest_addr().to_string()),
        // A standby sharing the primary's data_dir would corrupt both;
        // replicated loopback keeps the standby in memory unless the
        // caller points it elsewhere via this harness growing a knob.
        data_dir: None,
        checkpoint_path: None,
        ..dcfg
    };
    let standby = Daemon::start(standby_cfg)?;
    wait_for_peers(&primary, 1, Duration::from_secs(5))?;

    let mut shard_frames = Vec::with_capacity(pcfg.shards);
    for shard in 0..pcfg.shards {
        shard_frames.push(DeltaFrameSource::new(pcfg, shard)?.collect_epochs());
    }
    let addrs = vec![
        primary.ingest_addr().to_string(),
        standby.ingest_addr().to_string(),
    ];
    let mut workers = Vec::with_capacity(pcfg.shards);
    for (shard, backlog) in shard_frames.into_iter().enumerate() {
        let plan = plans.get(shard).cloned().unwrap_or_default();
        let acfg = AgentConfig {
            plan,
            ack_timeout: (read_deadline * 10).max(Duration::from_millis(100)),
            ..AgentConfig::new(shard as u64 + 1, echo)
        };
        let addrs = addrs.clone();
        workers.push(std::thread::spawn(move || {
            run_agent_rounds_failover(
                &acfg,
                backlog,
                &addrs,
                Duration::from_millis(250),
                read_deadline.max(Duration::from_millis(1)),
            )
        }));
    }
    let mut agents = Vec::with_capacity(workers.len());
    let mut first_err = None;
    for w in workers {
        match w.join().map_err(|_| "agent thread panicked".to_string())? {
            Ok(r) => agents.push(r),
            Err(e) => first_err = Some(e),
        }
    }
    primary.drain();
    let primary_report = primary.join()?;
    standby.drain();
    let standby_report = standby.join()?;
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(ReplicatedOutcome {
        primary: primary_report,
        standby: standby_report,
        agents,
    })
}

/// Poll the primary's query port until its `Status` reports at least
/// `want` attached standbys.
fn wait_for_peers(primary: &Daemon, want: u64, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(stream) = TcpStream::connect(primary.query_addr()) {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
            if let Ok(Message::Reply(QueryReply::Status { peers, .. })) =
                query_once(stream, &QueryRequest::Status, Duration::from_millis(500))
            {
                if peers >= want {
                    return Ok(());
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("standby failed to attach within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
