//! Replication edges beyond the kill-and-failover headline
//! (`tests/failover.rs`): the clean replicated pipeline is bit-identical
//! on both nodes, a standby fences ingest with `NotPrimary` until
//! promoted, stale-term acks are discarded by agents, a reconnect storm
//! against a freshly promoted standby still converges exactly, and the
//! replication handshake enforces the same config agreement (and term
//! fencing) as ingest, and a standby that stops acknowledging is dropped
//! at either bound — the ack deadline or the ship pipeline — without
//! costing the agents a single frame.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sbitmap_core::RateSchedule;
use std::thread::JoinHandle;

use sbitmap_daemon::{
    query_once, run_agent_rounds, run_agent_rounds_failover, run_loopback_replicated, AgentConfig,
    Backoff, Daemon, DaemonConfig,
};
use sbitmap_stream::net::{
    encode, AckOutcome, ConfigEcho, ErrorCode, FrameReader, Message, QueryReply, QueryRequest,
    ReadEvent, Role, PROTO_VERSION,
};
use sbitmap_stream::{
    quantile_summary, run_windowed_pipeline, DeltaFrameSource, EpochFrames, FaultPlan,
    WindowedPipelineConfig,
};

fn pcfg() -> WindowedPipelineConfig {
    WindowedPipelineConfig {
        links: 12,
        shards: 2,
        n_max: 50_000,
        m_bits: 2_000,
        window: 3,
        epochs: 5,
        rounds: 2,
        seed: 7,
    }
}

fn daemon_cfg(p: &WindowedPipelineConfig) -> DaemonConfig {
    DaemonConfig {
        n_max: p.n_max,
        m_bits: p.m_bits,
        seed: p.seed,
        window: p.window,
        read_deadline: Duration::from_millis(10),
        write_deadline: Duration::from_millis(500),
        idle_limit: Duration::from_secs(3),
        ..DaemonConfig::default()
    }
}

fn echo() -> ConfigEcho {
    let p = pcfg();
    let schedule = RateSchedule::from_memory(p.n_max, p.m_bits).unwrap();
    ConfigEcho {
        n_max: p.n_max,
        m: p.m_bits as u64,
        sampling_bits: schedule.split().sampling_bits(),
        seed: p.seed,
        window: p.window as u64,
        term: 0,
    }
}

fn expected_estimates(p: &WindowedPipelineConfig) -> Vec<(u64, f64)> {
    run_windowed_pipeline(p)
        .unwrap()
        .links
        .iter()
        .map(|r| (r.link as u64, r.estimate))
        .collect()
}

// ---------------------------------------------------------------- raw client

struct Client {
    reader: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        Self {
            reader: FrameReader::new(stream),
        }
    }

    fn hello(&mut self, role: Role, agent: u64, config: ConfigEcho) -> Message {
        self.reader
            .inner_mut()
            .write_all(&encode(&Message::Hello {
                proto: PROTO_VERSION,
                role,
                agent,
                config,
            }))
            .unwrap();
        self.recv(Duration::from_secs(2))
    }

    fn send(&mut self, msg: &Message) {
        self.reader.inner_mut().write_all(&encode(msg)).unwrap();
    }

    /// Next decoded message, waiting up to `limit`.
    fn recv(&mut self, limit: Duration) -> Message {
        let start = Instant::now();
        loop {
            match self.reader.read_event() {
                Ok(ReadEvent::Message(m)) => return m,
                Ok(ReadEvent::TimedOut) => {
                    assert!(start.elapsed() < limit, "no reply in {limit:?}");
                }
                other => panic!("unexpected read event: {other:?}"),
            }
        }
    }
}

/// The standbys attached to the collector behind `query`, per `Status`.
fn attached_peers(query: SocketAddr) -> u64 {
    let stream = TcpStream::connect(query).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    match query_once(stream, &QueryRequest::Status, Duration::from_secs(1)) {
        Ok(Message::Reply(QueryReply::Status { peers, .. })) => peers,
        other => panic!("expected a Status reply, got {other:?}"),
    }
}

fn wait_for_peer(query: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while attached_peers(query) == 0 {
        assert!(Instant::now() < deadline, "standby never attached");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A standby that handshakes, reads its snapshot and every record, and
/// never acknowledges one. The thread returns how many records it was
/// shipped before the primary closed the session.
fn mute_standby(primary: SocketAddr) -> JoinHandle<usize> {
    // Like the real replication client, dial again when the primary
    // closes the session before its snapshot.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c = 'dial: loop {
        assert!(Instant::now() < deadline, "no snapshot in 5 s");
        let mut c = Client::connect(primary);
        assert!(matches!(
            c.hello(Role::Replicate, 0xEDD1, echo()),
            Message::Welcome { .. }
        ));
        loop {
            match c.reader.read_event() {
                Ok(ReadEvent::Message(Message::ReplicateSnapshot { .. })) => break 'dial c,
                Ok(ReadEvent::TimedOut) => assert!(Instant::now() < deadline, "no snapshot in 5 s"),
                Ok(ReadEvent::Closed) | Err(_) => break,
                other => panic!("expected the snapshot first, got {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    std::thread::spawn(move || {
        let start = Instant::now();
        let mut records = 0;
        loop {
            match c.reader.read_event() {
                Ok(ReadEvent::Message(Message::Replicate { seq, .. })) => {
                    records += 1;
                    assert_eq!(seq, records as u64, "wire seqs count up from 1");
                }
                Ok(ReadEvent::TimedOut) => assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "the primary never dropped the mute standby"
                ),
                Ok(ReadEvent::Closed) | Err(_) => return records,
                other => panic!("unexpected read event on the standby: {other:?}"),
            }
        }
    })
}

/// Every v3 frame of `p`'s shard 0, as `agent`'s ingest messages in
/// send order.
fn shard0_batches(p: &WindowedPipelineConfig, agent: u64) -> Vec<Message> {
    DeltaFrameSource::new(p, 0)
        .unwrap()
        .collect_epochs()
        .into_iter()
        .flat_map(|e| {
            let epoch = e.epoch;
            e.deltas
                .into_iter()
                .enumerate()
                .map(move |(round, frame)| Message::BatchDelta {
                    epoch,
                    round: round as u32,
                    agent,
                    frame,
                })
        })
        .collect()
}

/// Send every batch without waiting, then read one `Absorbed` ack per
/// batch. Returns when the first ack arrived and when the last did, both
/// measured from the first send.
fn ship_all(c: &mut Client, batches: &[Message]) -> (Duration, Duration) {
    let start = Instant::now();
    for b in batches {
        c.send(b);
    }
    let mut first = None;
    for _ in batches {
        match c.recv(Duration::from_secs(20)) {
            Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
            other => panic!("expected AckDelta, got {other:?}"),
        }
        first.get_or_insert(start.elapsed());
    }
    (first.unwrap(), start.elapsed())
}

// ------------------------------------------------------------------- tests

#[test]
fn replicated_loopback_is_bit_identical_on_both_nodes() {
    let p = pcfg();
    let out = run_loopback_replicated(&p, daemon_cfg(&p), &[]).unwrap();
    let expected = expected_estimates(&p);

    assert_eq!(out.primary.estimates, expected, "primary estimates");
    assert_eq!(out.standby.estimates, expected, "standby estimates");
    assert_eq!(
        out.primary.final_checkpoint, out.standby.final_checkpoint,
        "drained rings must be byte-identical"
    );
    let mut sample: Vec<f64> = out.primary.estimates.iter().map(|&(_, e)| e).collect();
    assert_eq!(
        quantile_summary(&mut sample),
        run_windowed_pipeline(&p).unwrap().estimate_quantiles,
        "quantile summary"
    );
    // Semi-synchronous shipping: every absorbed frame was replicated
    // (the standby attached before the first agent connected), acked by
    // the standby, and counted on both sides.
    assert!(out.primary.replicated_frames > 0, "nothing replicated");
    assert_eq!(out.primary.replica_drops, 0, "standby was never dropped");
    assert_eq!(
        out.primary.replicated_frames, out.standby.replicated_frames,
        "ship/absorb counts must agree"
    );
}

#[test]
fn standby_refuses_ingest_until_promoted() {
    let p = pcfg();
    // A standby whose primary does not answer: the fence is local state,
    // not something learned from the primary.
    let standby = Daemon::start(DaemonConfig {
        standby_of: Some("127.0.0.1:9".into()),
        ..daemon_cfg(&p)
    })
    .unwrap();

    let mut c = Client::connect(standby.ingest_addr());
    match c.hello(Role::Ingest, 1, echo()) {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::NotPrimary);
            assert_eq!(context, 1, "the refusal carries the standby's term");
        }
        other => panic!("expected NotPrimary, got {other:?}"),
    }

    assert_eq!(standby.promote(), 2, "promotion bumps the term");
    let mut c = Client::connect(standby.ingest_addr());
    match c.hello(Role::Ingest, 1, echo()) {
        Message::Welcome { config, .. } => {
            assert_eq!(config.term, 2, "the welcome announces the new term");
            assert!(config.agrees_with(&echo()));
        }
        other => panic!("expected Welcome after promotion, got {other:?}"),
    }

    drop(c);
    standby.drain();
    let report = standby.join().unwrap();
    assert_eq!(report.not_primary_rejects, 1);
    assert_eq!(report.term, 2);
}

/// An in-memory scripted peer: pre-encoded server messages on the read
/// side, writes discarded; once the script is exhausted reads behave
/// like an idle socket (`WouldBlock`), so the agent's ack timeout takes
/// over.
struct Script {
    data: io::Cursor<Vec<u8>>,
}

impl Script {
    fn new(messages: &[Message]) -> Self {
        let mut data = Vec::new();
        for m in messages {
            data.extend_from_slice(&encode(m));
        }
        Self {
            data: io::Cursor::new(data),
        }
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.data.read(buf)? {
            0 => Err(io::Error::new(io::ErrorKind::WouldBlock, "script idle")),
            n => Ok(n),
        }
    }
}

impl Write for Script {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn stale_term_acks_are_discarded() {
    let welcome = |term: u64| Message::Welcome {
        credits: 4,
        proto: PROTO_VERSION,
        config: echo().with_term(term),
    };
    let cfg = AgentConfig {
        max_attempts: 4,
        ack_timeout: Duration::from_millis(30),
        backoff: Backoff {
            base: Duration::from_micros(10),
            cap: Duration::from_micros(20),
            seed: 1,
        },
        ..AgentConfig::new(1, echo())
    };
    let backlog = vec![EpochFrames {
        epoch: 0,
        fulls: Vec::new(),
        deltas: vec![vec![1, 2, 3]],
    }];
    let report = run_agent_rounds(&cfg, backlog, |attempt| {
        Ok::<Script, io::Error>(if attempt == 0 {
            // A deposed primary: welcomes with the fleet's term (5) but
            // acks with the fenced one it was elected in (3). The agent
            // must not count that ack — the frame stays pending.
            Script::new(&[
                welcome(5),
                Message::AckDelta {
                    epoch: 0,
                    round: 0,
                    outcome: AckOutcome::Absorbed,
                    term: 3,
                },
            ])
        } else {
            Script::new(&[
                welcome(5),
                Message::AckDelta {
                    epoch: 0,
                    round: 0,
                    outcome: AckOutcome::Absorbed,
                    term: 5,
                },
            ])
        })
    })
    .unwrap();
    assert_eq!(report.stale_acks, 1, "the fenced ack must be discarded");
    assert_eq!(report.frames_acked, 1, "the retransmit lands the frame");
    assert_eq!(report.connections, 2, "discard forces a reconnect");
}

#[test]
fn reconnect_storm_against_promoted_standby_is_bit_identical() {
    let p = pcfg();
    let expected = expected_estimates(&p);

    let primary = Daemon::start(daemon_cfg(&p)).unwrap();
    let primary_addr = primary.ingest_addr();
    let standby = Daemon::start(DaemonConfig {
        standby_of: Some(primary_addr.to_string()),
        ..daemon_cfg(&p)
    })
    .unwrap();
    wait_for_peer(primary.query_addr());

    // The primary dies (gracefully here; `tests/failover.rs` does it
    // with an abort) before a single frame lands, and the standby takes
    // over.
    primary.drain();
    primary.join().unwrap();
    assert_eq!(standby.promote(), 2);

    let addrs = vec![primary_addr.to_string(), standby.ingest_addr().to_string()];
    let echo = echo();
    let mut workers = Vec::new();
    for shard in 0..p.shards {
        let backlog = DeltaFrameSource::new(&p, shard).unwrap().collect_epochs();
        let addrs = addrs.clone();
        let acfg = AgentConfig {
            // Cut the first connections mid-stream: every agent storms
            // the promoted standby with reconnect-and-resume sessions.
            plan: FaultPlan {
                faulty_connections: 8,
                cut_after: Some(1500),
                ..FaultPlan::default()
            },
            max_attempts: 600,
            ack_timeout: Duration::from_millis(300),
            backoff: Backoff {
                base: Duration::from_millis(2),
                cap: Duration::from_millis(40),
                seed: shard as u64 + 1,
            },
            ..AgentConfig::new(shard as u64 + 1, echo)
        };
        workers.push(std::thread::spawn(move || {
            run_agent_rounds_failover(
                &acfg,
                backlog,
                &addrs,
                Duration::from_millis(100),
                Duration::from_millis(10),
            )
        }));
    }
    for w in workers {
        let report = w.join().unwrap().expect("agent finished after failover");
        assert!(
            report.failovers >= 1,
            "the dead primary must force a rotation"
        );
        assert!(
            report.connections > 1,
            "the cut plan must force reconnects against the standby"
        );
    }

    standby.drain();
    let report = standby.join().unwrap();
    assert_eq!(report.estimates, expected, "estimates after the storm");
    assert_eq!(report.term, 2);
}

#[test]
fn replication_handshake_enforces_config_and_term_fences() {
    let p = pcfg();
    let primary = Daemon::start(daemon_cfg(&p)).unwrap();

    // A standby built for a different fleet: refused before any record
    // could cross-pollinate the rings.
    let mut wrong = echo();
    wrong.seed ^= 1;
    let mut c = Client::connect(primary.ingest_addr());
    match c.hello(Role::Replicate, 0xEDD1, wrong) {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::ConfigMismatch),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // A peer that has seen a higher term than ours: this node is a
    // deposed primary and must refuse writes rather than accept them
    // into a fenced timeline.
    let mut c = Client::connect(primary.ingest_addr());
    match c.hello(Role::Ingest, 1, echo().with_term(99)) {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::NotPrimary);
            assert_eq!(context, 1, "the refusal carries the local (stale) term");
        }
        other => panic!("expected NotPrimary fence, got {other:?}"),
    }

    drop(c);
    primary.drain();
    primary.join().unwrap();
}

#[test]
fn a_standby_that_never_acks_is_dropped_at_the_replication_deadline() {
    let p = pcfg();
    let timeout = Duration::from_millis(300);
    let primary = Daemon::start(DaemonConfig {
        replication_timeout: timeout,
        ..daemon_cfg(&p)
    })
    .unwrap();
    let standby = mute_standby(primary.ingest_addr());
    wait_for_peer(primary.query_addr());

    let batches = shard0_batches(&p, 1);
    let mut agent = Client::connect(primary.ingest_addr());
    assert!(matches!(
        agent.hello(Role::Ingest, 1, echo()),
        Message::Welcome { .. }
    ));
    let (first, _) = ship_all(&mut agent, &batches);
    // Every ack waited for the standby until the deadline dropped it:
    // none left earlier, and by the time one did the standby was gone.
    assert!(
        first >= timeout,
        "an ack left {first:?} in, before the drop"
    );
    assert_eq!(attached_peers(primary.query_addr()), 0);
    let records = standby.join().unwrap();
    assert!(records >= 1, "the standby was never shipped a record");

    drop(agent);
    primary.drain();
    let report = primary.join().unwrap();
    assert_eq!(report.frames_absorbed, batches.len() as u64);
    assert!(report.replica_drops >= 1, "the deadline never dropped it");
    assert_eq!(report.replicated_frames, 0, "nothing was acknowledged");
}

#[test]
fn a_standby_past_the_ship_pipeline_is_dropped_well_before_the_deadline() {
    // The daemon's `REPL_PIPELINE`: records shipped to one standby and
    // not yet acknowledged.
    const REPL_PIPELINE: usize = 64;
    let p = WindowedPipelineConfig {
        epochs: 20,
        rounds: 4,
        ..pcfg()
    };
    let timeout = Duration::from_secs(30);
    let primary = Daemon::start(DaemonConfig {
        replication_timeout: timeout,
        ..daemon_cfg(&p)
    })
    .unwrap();
    let standby = mute_standby(primary.ingest_addr());
    wait_for_peer(primary.query_addr());

    let batches = shard0_batches(&p, 1);
    assert!(batches.len() > REPL_PIPELINE);
    let mut agent = Client::connect(primary.ingest_addr());
    assert!(matches!(
        agent.hello(Role::Ingest, 1, echo()),
        Message::Welcome { .. }
    ));
    let (_, last) = ship_all(&mut agent, &batches);
    assert!(
        last < timeout / 6,
        "acks took {last:?}: the pipeline bound never dropped the standby"
    );
    assert_eq!(attached_peers(primary.query_addr()), 0);
    assert_eq!(
        standby.join().unwrap(),
        REPL_PIPELINE,
        "the standby is shipped a full pipeline, then dropped"
    );

    drop(agent);
    primary.drain();
    let report = primary.join().unwrap();
    assert_eq!(report.frames_absorbed, batches.len() as u64);
    assert!(report.replica_drops >= 1);
    assert_eq!(report.replicated_frames, 0, "nothing was acknowledged");
}
