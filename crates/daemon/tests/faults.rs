//! The headline robustness property: under every seeded [`FaultPlan`] —
//! cut connections, stalls, corrupted bytes, duplicated and reordered
//! frames — the agents reconnect, resume from their last ack, and the
//! drained collector is **bit-identical** to the fault-free run: same
//! per-link window estimates (f64-exact), same ring checkpoint bytes.
//!
//! That in turn is locked against [`run_windowed_pipeline`], which
//! inserts the raw items straight into one ring with no codec, so the
//! networked path — delta codec, framing and TCP — reproduces the
//! paper's §7.2 collector exactly, not approximately.

use std::time::Duration;

use sbitmap_daemon::{run_loopback, DaemonConfig, LoopbackOutcome};
use sbitmap_stream::{quantile_summary, run_windowed_pipeline, FaultPlan, WindowedPipelineConfig};

fn pcfg() -> WindowedPipelineConfig {
    WindowedPipelineConfig {
        links: 12,
        shards: 3,
        n_max: 50_000,
        m_bits: 2_000,
        window: 3,
        epochs: 6,
        rounds: 2,
        seed: 7,
    }
}

fn dcfg() -> DaemonConfig {
    DaemonConfig {
        read_deadline: Duration::from_millis(10),
        write_deadline: Duration::from_millis(500),
        idle_limit: Duration::from_secs(3),
        credits: 3,
        queue_frames: 8,
        ..DaemonConfig::default()
    }
}

fn clean_run(pcfg: &WindowedPipelineConfig) -> LoopbackOutcome {
    run_loopback(pcfg, dcfg(), &[]).expect("clean loopback run")
}

#[test]
fn clean_loopback_reproduces_the_inprocess_pipeline_exactly() {
    let pcfg = pcfg();
    let out = clean_run(&pcfg);
    let reference = run_windowed_pipeline(&pcfg).unwrap();

    let expected: Vec<(u64, f64)> = reference
        .links
        .iter()
        .map(|r| (r.link as u64, r.estimate))
        .collect();
    assert_eq!(out.report.estimates, expected, "per-link estimates");

    let mut sample: Vec<f64> = out.report.estimates.iter().map(|&(_, e)| e).collect();
    assert_eq!(
        quantile_summary(&mut sample),
        reference.estimate_quantiles,
        "quantile summary"
    );
    // v3 shipping: one delta frame per (shard, epoch, round), each
    // acked exactly once. A shard racing ahead may age another shard's
    // oldest epochs out of the window (`Expired`), which cannot affect
    // the final-window estimates asserted above.
    assert_eq!(
        (out.report.frames_absorbed + out.report.expired) as usize,
        pcfg.shards * pcfg.epochs * pcfg.rounds
    );
    assert_eq!(out.report.duplicates, 0);
    assert_eq!(out.report.bad_frames, 0);
    assert_eq!(out.report.missing_baselines, 0);
    assert_eq!(out.report.desyncs, 0);
    let agent_bytes: u64 = out.agents.iter().map(|a| a.bytes_on_wire).sum();
    assert_eq!(
        out.report.bytes_on_wire, agent_bytes,
        "daemon counts the bytes agents sent"
    );
    for a in &out.agents {
        assert_eq!(a.connections, 1, "clean agents connect once");
        assert_eq!(a.dropped, 0);
        assert_eq!(
            a.frames_sent as usize,
            (pcfg.epochs * pcfg.rounds),
            "one send per (epoch, round) on a clean session"
        );
        assert_eq!(a.baseline_resyncs, 0);
    }
}

#[test]
fn every_seeded_fault_plan_converges_to_the_fault_free_state() {
    let pcfg = pcfg();
    let clean = clean_run(&pcfg);

    // Evidence the sweep actually exercised the failure paths (any one
    // seed may roll a mild plan; across the sweep every family fires).
    let mut reconnects = 0u64;
    let mut duplicates = 0u64;
    let mut bad_frames = 0u64;
    let mut desyncs = 0u64;

    for seed in 0..12u64 {
        let plans: Vec<FaultPlan> = (0..pcfg.shards)
            .map(|shard| FaultPlan::seeded(seed * 131 + shard as u64, 6))
            .collect();
        assert!(
            plans.iter().any(|p| !p.is_clean()),
            "seed {seed}: dull sweep"
        );
        let out =
            run_loopback(&pcfg, dcfg(), &plans).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // The property: identical state, not merely close.
        assert_eq!(
            out.report.estimates, clean.report.estimates,
            "seed {seed}: estimates diverged from the fault-free run"
        );
        assert_eq!(
            out.report.final_checkpoint, clean.report.final_checkpoint,
            "seed {seed}: drained ring checkpoint not byte-identical"
        );

        for a in &out.agents {
            reconnects += a.connections.saturating_sub(1);
            duplicates += a.duplicates;
            assert_eq!(a.dropped, 0, "seed {seed}: unbounded buffers must not shed");
        }
        duplicates += out.report.duplicates;
        bad_frames += out.report.bad_frames;
        desyncs += out.report.desyncs;
    }

    assert!(reconnects > 0, "no plan forced a reconnect");
    assert!(duplicates > 0, "no plan exercised the at-least-once guard");
    assert!(
        bad_frames + desyncs > 0,
        "no plan exercised corruption handling"
    );
}

#[test]
fn reordered_chain_heads_force_baseline_resyncs_and_still_converge() {
    let pcfg = pcfg();
    let clean = clean_run(&pcfg);
    // With rounds = 2, swapping every adjacent pair sends each epoch's
    // round 1 ahead of its round-0 baseline: the collector must answer
    // MissingBaseline, and the agent must replay the retained baseline
    // and the orphaned round — the forced-resync path, deterministic.
    let plans = vec![FaultPlan {
        faulty_connections: 1,
        swap_every: Some(2),
        ..FaultPlan::none()
    }];
    let out = run_loopback(&pcfg, dcfg(), &plans).unwrap();
    assert!(
        out.agents[0].baseline_resyncs > 0,
        "the reorder must trip at least one resync"
    );
    assert!(out.report.missing_baselines > 0);
    assert_eq!(out.report.estimates, clean.report.estimates);
    assert_eq!(out.report.final_checkpoint, clean.report.final_checkpoint);
}

#[test]
fn cut_connection_resumes_from_last_ack() {
    let pcfg = pcfg();
    let clean = clean_run(&pcfg);
    // Cut shard 0's first connection after ~1.5 frames; later attempts
    // run clean, so the agent must reconnect and retransmit unacked
    // epochs only (acked ones come back as guard duplicates if resent).
    let plans = vec![FaultPlan {
        faulty_connections: 1,
        cut_after: Some(2_000),
        ..FaultPlan::none()
    }];
    let out = run_loopback(&pcfg, dcfg(), &plans).unwrap();
    assert!(
        out.agents[0].connections >= 2,
        "the cut must force at least one reconnect"
    );
    assert_eq!(out.report.estimates, clean.report.estimates);
    assert_eq!(out.report.final_checkpoint, clean.report.final_checkpoint);
}

#[test]
fn stalled_writes_survive_the_read_deadline() {
    let pcfg = pcfg();
    let clean = clean_run(&pcfg);
    // Stall one write well past the daemon's 10 ms read deadline: the
    // resumable frame reader must carry the partial frame across
    // timeout ticks instead of desyncing.
    let plans = vec![FaultPlan {
        faulty_connections: 1,
        stall: Some((600, Duration::from_millis(60))),
        ..FaultPlan::none()
    }];
    let out = run_loopback(&pcfg, dcfg(), &plans).unwrap();
    assert_eq!(out.report.desyncs, 0, "a stall is not a desync");
    assert_eq!(out.report.estimates, clean.report.estimates);
    assert_eq!(out.report.final_checkpoint, clean.report.final_checkpoint);
}
