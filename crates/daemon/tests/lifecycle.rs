//! Daemon lifecycle edges: handshake rejection, mid-frame death,
//! backpressure, duplicate delivery, graceful drain, and the query port.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbitmap_core::codec::Checkpoint;
use sbitmap_core::{AbsorbOutcome, FleetArena, FleetDeltaFrame, RateSchedule, WindowedFleet};
use sbitmap_daemon::{
    query_once, run_agent_rounds, run_loopback, AgentConfig, AgentReport, Daemon, DaemonConfig,
    DaemonReport,
};
use sbitmap_hash::xxh64;
use sbitmap_stream::net::{
    encode, AckOutcome, ConfigEcho, ErrorCode, FrameReader, Message, QueryReply, QueryRequest,
    ReadEvent, Role, MAX_PAYLOAD, NET_MAGIC, PROTO_VERSION,
};
use sbitmap_stream::{
    quantile_summary, run_windowed_pipeline, DeltaFrameSource, WindowedPipelineConfig,
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

fn dcfg() -> DaemonConfig {
    DaemonConfig {
        n_max: 50_000,
        m_bits: 2_000,
        seed: 7,
        window: 3,
        read_deadline: Duration::from_millis(10),
        write_deadline: Duration::from_millis(500),
        idle_limit: Duration::from_secs(3),
        ..DaemonConfig::default()
    }
}

/// A raw protocol client for poking the daemon directly.
struct Client {
    reader: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        Self {
            reader: FrameReader::new(stream),
        }
    }

    fn send(&mut self, msg: &Message) {
        use std::io::Write;
        self.reader.inner_mut().write_all(&encode(msg)).unwrap();
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.reader.inner_mut().write_all(bytes).unwrap();
    }

    /// Next decoded message, waiting up to 2 s.
    fn recv(&mut self) -> Message {
        let start = Instant::now();
        loop {
            match self.reader.read_event() {
                Ok(ReadEvent::Message(m)) => return m,
                Ok(ReadEvent::TimedOut) => {
                    assert!(start.elapsed() < Duration::from_secs(2), "no reply in 2s");
                }
                other => panic!("unexpected read event: {other:?}"),
            }
        }
    }

    fn hello(&mut self, agent: u64, config: ConfigEcho) -> Message {
        self.send(&Message::Hello {
            proto: PROTO_VERSION,
            role: Role::Ingest,
            agent,
            config,
        });
        self.recv()
    }
}

/// One epoch's fleet over `keys` (ascending), in `dcfg()`'s sketch shape.
fn test_fleet(keys: &[u64]) -> FleetArena {
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut fleet: FleetArena = FleetArena::with_schedule(schedule, cfg.seed);
    for &k in keys {
        fleet.touch(k);
        for item in 0..50u64 {
            fleet.insert_u64(k, k.wrapping_mul(1000) + item);
        }
    }
    fleet
}

/// [`test_fleet`] as an encoded round-0 v3 baseline for `epoch`.
fn test_frame(epoch: u64, keys: &[u64]) -> Vec<u8> {
    let cfg = dcfg();
    let fleet = test_fleet(keys);
    let schedule = fleet.schedule();
    let mut frame = FleetDeltaFrame::new(
        cfg.n_max,
        cfg.m_bits,
        schedule.split().sampling_bits(),
        cfg.seed,
        epoch,
        0,
    );
    for &k in keys {
        frame.push(k, fleet.slot_words(k).unwrap());
    }
    frame.encode()
}

/// `agent`'s round-0 batch of [`test_frame`].
fn baseline(epoch: u64, agent: u64, keys: &[u64]) -> Message {
    Message::BatchDelta {
        epoch,
        round: 0,
        agent,
        frame: test_frame(epoch, keys),
    }
}

/// The agent's backlog of `pcfg`'s shard 0, and its frame count.
fn shard0_backlog(pcfg: &WindowedPipelineConfig) -> (Vec<sbitmap_stream::EpochFrames>, usize) {
    let backlog = DeltaFrameSource::new(pcfg, 0).unwrap().collect_epochs();
    let frames = backlog.iter().map(|e| e.deltas.len()).sum();
    (backlog, frames)
}

#[test]
fn handshake_rejects_wrong_version_with_typed_error() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let mut c = Client::connect(daemon.ingest_addr());
    c.send(&Message::Hello {
        proto: 0,
        role: Role::Ingest,
        agent: 1,
        config: echo,
    });
    match c.recv() {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::VersionMismatch);
            assert_eq!(context, 0, "context carries the peer's version");
        }
        other => panic!("expected VersionMismatch error, got {other:?}"),
    }
    // A peer from the future is fine: the session settles on the
    // highest version the daemon speaks.
    let mut future = Client::connect(daemon.ingest_addr());
    future.send(&Message::Hello {
        proto: 99,
        role: Role::Ingest,
        agent: 2,
        config: echo,
    });
    match future.recv() {
        Message::Welcome { proto, .. } => assert_eq!(proto, PROTO_VERSION),
        other => panic!("expected negotiated Welcome, got {other:?}"),
    }
    drop(future);
    // The daemon survives the rejection: a correct handshake succeeds.
    let mut ok = Client::connect(daemon.ingest_addr());
    match ok.hello(1, echo) {
        Message::Welcome {
            proto,
            credits,
            config,
        } => {
            assert_eq!(proto, PROTO_VERSION);
            assert!(credits >= 1);
            // The welcome's term is the daemon's, not ours — compare
            // everything else.
            assert!(config.agrees_with(&echo));
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    drop((c, ok));
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.handshake_rejects, 1);
}

#[test]
fn handshake_rejects_config_mismatch() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut wrong = daemon.config_echo();
    wrong.seed ^= 1;
    let mut c = Client::connect(daemon.ingest_addr());
    match c.hello(1, wrong) {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::ConfigMismatch),
        other => panic!("expected ConfigMismatch error, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    assert_eq!(daemon.join().unwrap().handshake_rejects, 1);
}

#[test]
fn protocol_1_hello_draws_version_mismatch_naming_the_peers_version() {
    // Protocol 1 (full-frame ingest) is retired: its hello is refused
    // outright, with the peer's own version in `context`.
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    c.send(&Message::Hello {
        proto: 1,
        role: Role::Ingest,
        agent: 1,
        config: daemon.config_echo(),
    });
    match c.recv() {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::VersionMismatch);
            assert_eq!(context, 1, "context carries the peer's version");
        }
        other => panic!("expected VersionMismatch error, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.handshake_rejects, 1);
    assert_eq!(report.frames_absorbed, 0);
}

#[test]
fn retired_full_frame_batch_draws_typed_error_and_leaves_the_ring_untouched() {
    // A type-3 frame (protocol 1's full-frame `Batch`: epoch, agent,
    // tag-9 checkpoint) after a good handshake decodes as an unknown
    // type: a typed `BadFrame` answer, the session survives, and the
    // ring holds exactly what the later baseline put there.
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    let mut legacy = NET_MAGIC.to_vec();
    legacy.push(3);
    let mut payload = 0u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&test_fleet(&[4, 9]).checkpoint());
    legacy.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    legacy.extend_from_slice(&payload);
    let checksum = xxh64(&legacy, 0);
    legacy.extend_from_slice(&checksum.to_le_bytes());
    c.send_raw(&legacy);
    match c.recv() {
        Message::Error { code, detail, .. } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(detail.contains("unknown message type 3"), "{detail}");
        }
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    c.send(&baseline(0, 1, &[5]));
    match c.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.frames_absorbed, 1);

    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut expected: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    assert!(expected.absorb_epoch(0, &test_fleet(&[5])).unwrap());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn delta_without_baseline_draws_typed_error_and_resync_succeeds() {
    // The daemon-side resync contract, poked raw: a round-1 delta whose
    // epoch has no absorbed baseline is answered with a typed
    // `MissingBaseline` error (the connection survives), and replaying
    // the chain from round 0 then lands every frame.
    let one_shard = WindowedPipelineConfig {
        shards: 1,
        epochs: 1,
        ..pcfg()
    };
    let backlog = DeltaFrameSource::new(&one_shard, 0)
        .unwrap()
        .collect_epochs();
    let deltas = &backlog[0].deltas;
    assert!(deltas.len() >= 2, "need a baseline and a follow-up round");

    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let mut c = Client::connect(daemon.ingest_addr());
    match c.hello(1, echo) {
        Message::Welcome { proto, .. } => assert_eq!(proto, PROTO_VERSION),
        other => panic!("expected Welcome, got {other:?}"),
    }
    c.send(&Message::BatchDelta {
        epoch: 0,
        round: 1,
        agent: 1,
        frame: deltas[1].clone(),
    });
    match c.recv() {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::MissingBaseline);
            assert_eq!(context, 0, "context names the epoch to resync");
        }
        other => panic!("expected MissingBaseline error, got {other:?}"),
    }
    // The session survived; replay from the baseline.
    for (round, frame) in deltas.iter().enumerate() {
        c.send(&Message::BatchDelta {
            epoch: 0,
            round: round as u32,
            agent: 1,
            frame: frame.clone(),
        });
        match c.recv() {
            Message::AckDelta {
                epoch,
                round: r,
                outcome,
                ..
            } => {
                assert_eq!((epoch, r), (0, round as u32));
                assert_eq!(outcome, AckOutcome::Absorbed);
            }
            other => panic!("round {round}: expected AckDelta, got {other:?}"),
        }
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.missing_baselines, 1);
    assert_eq!(report.frames_absorbed as usize, deltas.len());
    assert_eq!(report.bad_frames, 0, "a missing baseline is not corruption");
}

#[test]
fn mid_frame_disconnect_leaves_the_daemon_healthy() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    {
        let mut c = Client::connect(daemon.ingest_addr());
        assert!(matches!(c.hello(1, echo), Message::Welcome { .. }));
        let batch = encode(&baseline(0, 1, &[3]));
        // Half a frame, then vanish.
        c.send_raw(&batch[..batch.len() / 2]);
    }
    // A well-behaved session on a fresh connection still works.
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(c.hello(2, echo), Message::Welcome { .. }));
    c.send(&baseline(0, 2, &[3]));
    match c.recv() {
        Message::AckDelta { epoch, outcome, .. } => {
            assert_eq!(epoch, 0);
            assert_eq!(outcome, AckOutcome::Absorbed);
        }
        other => panic!("expected AckDelta, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 1);
    assert_eq!(report.estimates.len(), 1, "the half frame left no state");
}

#[test]
fn corrupt_frame_draws_error_frame_and_connection_survives() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    let mut batch = encode(&baseline(0, 1, &[5]));
    // Flip one payload byte: checksum fails, frame boundary survives.
    let mid = batch.len() / 2;
    batch[mid] ^= 0x40;
    c.send_raw(&batch);
    match c.recv() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    // Same connection, clean retransmit: absorbed.
    c.send(&baseline(0, 1, &[5]));
    match c.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.desyncs, 0, "a payload flip must not desync");
    assert_eq!(report.frames_absorbed, 1);
}

#[test]
fn oversized_frame_before_hello_desyncs_and_welcomed_sessions_ship_full_frames() {
    // Before `Hello` a peer is held to a handshake-sized cap: a header
    // declaring 1 MiB is a desync, answered and closed on the spot
    // rather than buffered.
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    let mut header = NET_MAGIC.to_vec();
    header.push(1);
    header.extend_from_slice(&(1u32 << 20).to_le_bytes());
    c.send_raw(&header);
    match c.recv() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::Desync),
        other => panic!("expected Desync error, got {other:?}"),
    }
    let start = Instant::now();
    loop {
        match c.reader.read_event() {
            Ok(ReadEvent::Closed) | Err(_) => break,
            Ok(ReadEvent::TimedOut) => {
                assert!(start.elapsed() < Duration::from_secs(2), "socket left open");
            }
            other => panic!("expected the socket to close, got {other:?}"),
        }
    }
    // A welcomed session is lifted to the full cap.
    let keys: Vec<u64> = (0..400).collect();
    let big = baseline(0, 2, &keys);
    let Message::BatchDelta { frame, .. } = &big else {
        unreachable!()
    };
    assert!(
        frame.len() > 16 << 10,
        "frame is only {} bytes",
        frame.len()
    );
    let mut ok = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        ok.hello(2, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    ok.send(&big);
    match ok.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta, got {other:?}"),
    }
    drop(ok);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.desyncs, 1);
    assert_eq!(report.frames_absorbed, 1);
    assert_eq!(report.estimates.len(), keys.len());
}

#[test]
fn oversized_frame_after_welcome_desyncs_and_leaves_the_ring_untouched() {
    // A welcomed ingest session is held to `MAX_PAYLOAD`: a header
    // declaring one byte more is a desync, answered and closed before
    // anything is buffered, and the next session is still served.
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let absorbed = |c: &mut Client| match c.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta, got {other:?}"),
    };
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(c.hello(1, echo), Message::Welcome { .. }));
    c.send(&baseline(0, 1, &[4]));
    absorbed(&mut c);
    let mut header = encode(&baseline(0, 1, &[4]))[..NET_MAGIC.len() + 1].to_vec();
    header.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
    c.send_raw(&header);
    match c.recv() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::Desync),
        other => panic!("expected Desync error, got {other:?}"),
    }
    let start = Instant::now();
    loop {
        match c.reader.read_event() {
            Ok(ReadEvent::Closed) | Err(_) => break,
            Ok(ReadEvent::TimedOut) => {
                assert!(start.elapsed() < Duration::from_secs(2), "socket left open");
            }
            other => panic!("expected the socket to close, got {other:?}"),
        }
    }
    // A second session is still served.
    let mut ok = Client::connect(daemon.ingest_addr());
    assert!(matches!(ok.hello(2, echo), Message::Welcome { .. }));
    ok.send(&baseline(0, 2, &[9]));
    absorbed(&mut ok);
    drop(ok);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.desyncs, 1);
    assert_eq!(report.bad_frames, 0);
    assert_eq!(report.frames_absorbed, 2);

    // The ring holds the two absorbed frames and nothing else.
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut expected: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    assert!(expected.absorb_epoch(0, &test_fleet(&[4, 9])).unwrap());
    assert_eq!(report.estimates, expected.estimates());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn duplicate_frames_are_acked_duplicate_and_change_nothing() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let frame = test_frame(0, &[1, 2]);
    let ack = |c: &mut Client| match c.recv() {
        Message::AckDelta { outcome, .. } => outcome,
        other => panic!("expected AckDelta, got {other:?}"),
    };
    let batch = |agent| Message::BatchDelta {
        epoch: 0,
        round: 0,
        agent,
        frame: frame.clone(),
    };

    // Same session, same agent: first absorbed, replay skipped.
    let mut a = Client::connect(daemon.ingest_addr());
    assert!(matches!(a.hello(1, echo), Message::Welcome { .. }));
    a.send(&batch(1));
    assert_eq!(ack(&mut a), AckOutcome::Absorbed);
    a.send(&batch(1));
    assert_eq!(ack(&mut a), AckOutcome::Duplicate);
    drop(a);

    // Reconnect as the same agent: the guard keys on identity, not
    // connection, so the replay is still a duplicate.
    let mut b = Client::connect(daemon.ingest_addr());
    assert!(matches!(b.hello(1, echo), Message::Welcome { .. }));
    b.send(&batch(1));
    assert_eq!(ack(&mut b), AckOutcome::Duplicate);
    drop(b);

    // A different agent is a different source: absorbed (the union is
    // idempotent, so state still cannot change).
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(c.hello(2, echo), Message::Welcome { .. }));
    c.send(&batch(2));
    assert_eq!(ack(&mut c), AckOutcome::Absorbed);
    drop(c);

    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 2);
    assert_eq!(report.duplicates, 2);

    // The drained state equals one clean absorb of the frame.
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut expected: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    assert!(expected.absorb_epoch(0, &test_fleet(&[1, 2])).unwrap());
    assert_eq!(report.estimates, expected.estimates());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn epoch_jump_past_the_bound_is_refused_typed_and_the_ring_is_untouched() {
    // The daemon's `MAX_EPOCH_JUMP`: a frame may run at most 2^20 epochs
    // ahead of the ring's open epoch.
    const MAX_EPOCH_JUMP: u64 = 1 << 20;
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    c.send(&baseline(0, 1, &[5]));
    match c.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta, got {other:?}"),
    }
    let far = MAX_EPOCH_JUMP + 1;
    c.send(&baseline(far, 1, &[6]));
    match c.recv() {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::EpochOutOfRange);
            assert_eq!(context, far, "the refusal names the offending epoch");
        }
        other => panic!("expected EpochOutOfRange, got {other:?}"),
    }
    // The session lives on, and the ring never moved toward `far`: the
    // next epoch still lands as an ordinary one-step advance.
    c.send(&baseline(1, 1, &[7]));
    match c.recv() {
        Message::AckDelta { epoch, outcome, .. } => {
            assert_eq!((epoch, outcome), (1, AckOutcome::Absorbed));
        }
        other => panic!("expected AckDelta, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.final_epoch, 1);
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.frames_absorbed, 2);

    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut expected: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    assert!(expected.absorb_epoch(0, &test_fleet(&[5])).unwrap());
    expected.advance_to(1).unwrap();
    assert!(expected.absorb_epoch(1, &test_fleet(&[7])).unwrap());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn silent_connections_are_closed_at_the_idle_limit() {
    let idle_limit = Duration::from_millis(300);
    let daemon = Daemon::start(DaemonConfig {
        idle_limit,
        ..dcfg()
    })
    .unwrap();
    // How long after `since` the collector closed `c`.
    let closed_after = |c: &mut Client, since: Instant| loop {
        match c.reader.read_event() {
            Ok(ReadEvent::Closed) | Err(_) => return since.elapsed(),
            Ok(ReadEvent::TimedOut) => assert!(
                since.elapsed() < Duration::from_secs(10),
                "a silent session is still open after 10 s"
            ),
            other => panic!("unexpected read event on a silent session: {other:?}"),
        }
    };
    // Each clock starts before the collector can start its own: at the
    // connect for a session that never says `Hello`, at the `Hello` for
    // the welcomed ones.
    let mute_since = Instant::now();
    let mut mute = Client::connect(daemon.ingest_addr());
    let ingest_since = Instant::now();
    let mut ingest = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        ingest.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    let query_since = Instant::now();
    let mut query = Client::connect(daemon.query_addr());
    query.send(&Message::Hello {
        proto: PROTO_VERSION,
        role: Role::Query,
        agent: 0,
        config: daemon.config_echo(),
    });
    assert!(matches!(query.recv(), Message::Welcome { .. }));

    for (name, c, since) in [
        ("ingest session without Hello", &mut mute, mute_since),
        ("welcomed ingest session", &mut ingest, ingest_since),
        ("welcomed query session", &mut query, query_since),
    ] {
        let after = closed_after(c, since);
        assert!(after >= idle_limit, "{name} closed after {after:?}");
    }
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.connections, 3);
    assert_eq!(report.frames_absorbed, 0);
}

#[test]
fn slow_absorber_engages_backpressure_without_losing_frames() {
    let daemon = Daemon::start(DaemonConfig {
        queue_frames: 1,
        credits: 8,
        absorb_stall: Duration::from_millis(25),
        ..dcfg()
    })
    .unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    // Fire a burst far faster than 25 ms/frame; the bounded queue must
    // fill and the handler must block (stop reading) rather than drop.
    for epoch in 0..6u64 {
        c.send(&baseline(epoch, 1, &[epoch + 10]));
    }
    let mut acked = 0;
    while acked < 6 {
        if let Message::AckDelta { outcome, .. } = c.recv() {
            assert_eq!(outcome, AckOutcome::Absorbed);
            acked += 1;
        }
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 6);
    assert!(
        report.backpressure_events > 0,
        "a 1-deep queue under a 6-frame burst must report backpressure"
    );
}

#[test]
fn overload_sheds_typed_busy_and_retransmits_land_every_frame() {
    // Queue of 1, 30 ms per absorb, 10 ms shed deadline: a 6-frame
    // burst must draw at least one typed `Busy` answer (with a
    // retry-after hint) instead of stalling the socket, and patient
    // retransmission must still land all 6 frames exactly once. Like
    // the agent, the client ends the session on `Busy` and resends
    // everything unacked on a fresh one: the collector drops the rest of
    // a shed session's burst unanswered.
    let daemon = Daemon::start(DaemonConfig {
        queue_frames: 1,
        credits: 8,
        absorb_stall: Duration::from_millis(30),
        busy_timeout: Duration::from_millis(10),
        ..dcfg()
    })
    .unwrap();
    let frames: Vec<Vec<u8>> = (0..6u64).map(|e| test_frame(e, &[e + 20])).collect();
    let mut absorbed = std::collections::HashSet::new();
    let mut busy_seen = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while absorbed.len() < 6 {
        assert!(
            Instant::now() < deadline,
            "overloaded collector never converged; absorbed {absorbed:?}"
        );
        let mut c = Client::connect(daemon.ingest_addr());
        assert!(matches!(
            c.hello(1, daemon.config_echo()),
            Message::Welcome { .. }
        ));
        let outstanding: Vec<u64> = (0..6u64).filter(|e| !absorbed.contains(e)).collect();
        for &epoch in &outstanding {
            c.send(&Message::BatchDelta {
                epoch,
                round: 0,
                agent: 1,
                frame: frames[epoch as usize].clone(),
            });
        }
        // One reply per send until the first shed: an AckDelta
        // (absorbed or guard duplicate), or a typed Busy that ends the
        // session.
        for _ in &outstanding {
            match c.recv() {
                Message::AckDelta { epoch, .. } => {
                    absorbed.insert(epoch);
                }
                Message::Error {
                    code: ErrorCode::Busy,
                    context,
                    ..
                } => {
                    busy_seen += 1;
                    assert!(context > 0, "the Busy answer must carry a retry-after hint");
                    // Frames queued ahead of the shed one still draw
                    // their acks; nothing after it is answered.
                    let mut quiet = Instant::now();
                    while quiet.elapsed() < Duration::from_millis(300) {
                        match c.reader.read_event() {
                            Ok(ReadEvent::Message(Message::AckDelta { epoch, .. })) => {
                                absorbed.insert(epoch);
                                quiet = Instant::now();
                            }
                            Ok(ReadEvent::TimedOut) => {}
                            other => panic!("only acks may follow a Busy, got {other:?}"),
                        }
                    }
                    break;
                }
                other => panic!("expected AckDelta or Busy, got {other:?}"),
            }
        }
    }
    assert!(busy_seen > 0, "a 1-deep queue under this burst must shed");
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 6, "every frame lands exactly once");
    assert!(report.busy_rejections > 0);
    assert_eq!(report.busy_rejections, busy_seen);
}

#[test]
fn agent_backs_off_on_busy_and_still_delivers_everything() {
    let daemon = Daemon::start(DaemonConfig {
        queue_frames: 1,
        credits: 8,
        absorb_stall: Duration::from_millis(20),
        busy_timeout: Duration::from_millis(5),
        ..dcfg()
    })
    .unwrap();
    let pcfg = WindowedPipelineConfig {
        shards: 1,
        ..pcfg()
    };
    let (backlog, frames) = shard0_backlog(&pcfg);
    let ingest = daemon.ingest_addr();
    let acfg = AgentConfig {
        max_attempts: 200,
        ack_timeout: Duration::from_millis(300),
        ..AgentConfig::new(1, daemon.config_echo())
    };
    let report = run_agent_rounds(&acfg, backlog, |_| {
        let s = TcpStream::connect(ingest)?;
        s.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(s)
    })
    .unwrap();
    assert!(
        report.busy_backoffs > 0,
        "the overloaded collector must shed at least once"
    );
    assert_eq!(report.frames_acked as usize, frames);
    daemon.drain();
    let dreport = daemon.join().unwrap();
    assert!(dreport.busy_rejections > 0);
    assert_eq!(
        dreport.frames_absorbed as usize, frames,
        "shedding plus at-least-once retransmission loses nothing"
    );
}

/// Ship `pcfg`'s shard-0 backlog through an agent capped at `cap`
/// frames whose first two connection attempts fail, so the cap is
/// enforced before anything is sent. Returns the agent's report and
/// the drained collector's report.
fn ship_capped(pcfg: &WindowedPipelineConfig, cap: usize) -> (AgentReport, DaemonReport) {
    let daemon = Daemon::start(dcfg()).unwrap();
    let ingest = daemon.ingest_addr();
    let (backlog, _) = shard0_backlog(pcfg);
    let acfg = AgentConfig {
        buffer_cap: cap,
        ..AgentConfig::new(1, daemon.config_echo())
    };
    let report = run_agent_rounds(&acfg, backlog, |attempt| {
        if attempt < 2 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "collector away",
            ));
        }
        let s = TcpStream::connect(ingest)?;
        s.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(s)
    })
    .unwrap();
    daemon.drain();
    (report, daemon.join().unwrap())
}

/// A ring that absorbed epochs `from..` of `pcfg`'s shard-0 chains in
/// process.
fn chain_ring(pcfg: &WindowedPipelineConfig, from: u64) -> WindowedFleet {
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut ring: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    for ef in shard0_backlog(pcfg).0.iter().filter(|ef| ef.epoch >= from) {
        ring.advance_to(ef.epoch).unwrap();
        for delta in &ef.deltas {
            let frame = FleetDeltaFrame::decode(delta).unwrap();
            assert_eq!(
                ring.absorb_delta_from(1, &frame).unwrap(),
                AbsorbOutcome::Absorbed
            );
        }
    }
    ring
}

#[test]
fn buffer_cap_on_an_epoch_boundary_keeps_the_newest_epochs() {
    let pcfg = WindowedPipelineConfig {
        shards: 1,
        ..pcfg()
    };
    let (_, total) = shard0_backlog(&pcfg);
    let keep = 2;
    let cap = pcfg.rounds * keep;
    let (report, collector) = ship_capped(&pcfg, cap);
    assert_eq!(report.dropped as usize, total - cap);
    assert_eq!(
        report.frames_acked as usize, cap,
        "every kept frame is acked"
    );
    assert_eq!(report.baseline_resyncs, 0, "no chain was cut");
    assert_eq!(collector.frames_absorbed as usize, cap);
    let expected = chain_ring(&pcfg, (pcfg.epochs - keep) as u64);
    assert_eq!(collector.estimates, expected.estimates());
    assert_eq!(collector.final_checkpoint, expected.checkpoint());
}

#[test]
fn buffer_cap_mid_epoch_resends_the_cut_epoch_from_its_baseline() {
    let pcfg = WindowedPipelineConfig {
        shards: 1,
        ..pcfg()
    };
    let (_, total) = shard0_backlog(&pcfg);
    // One round of the oldest kept epoch survives without its baseline.
    let cap = pcfg.rounds * 2 + 1;
    let (report, collector) = ship_capped(&pcfg, cap);
    assert_eq!(report.dropped as usize, total - cap);
    assert_eq!(report.frames_acked as usize, cap);
    assert!(
        report.baseline_resyncs >= 1,
        "the cut epoch is re-sent from its retained baseline"
    );
    assert!(collector.missing_baselines >= 1);
    // The cut epoch is whole again, so the ring holds the newest three.
    let expected = chain_ring(&pcfg, (pcfg.epochs - 3) as u64);
    assert_eq!(collector.estimates, expected.estimates());
    assert_eq!(collector.final_checkpoint, expected.checkpoint());
}

#[test]
fn graceful_drain_checkpoint_matches_the_uninterrupted_pipeline() {
    let pcfg = pcfg();
    let path = std::env::temp_dir().join(format!("sbitmapd-drain-{}.ckpt", std::process::id()));
    let out = run_loopback(
        &pcfg,
        DaemonConfig {
            checkpoint_path: Some(path.clone()),
            ..dcfg()
        },
        &[],
    )
    .unwrap();

    // The ring the daemon drained equals the codec-free reference.
    let reference = run_windowed_pipeline(&pcfg).unwrap();
    let expected: Vec<(u64, f64)> = reference
        .links
        .iter()
        .map(|r| (r.link as u64, r.estimate))
        .collect();
    assert_eq!(out.report.estimates, expected);

    // And the on-disk checkpoint restores to the same state.
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(bytes, out.report.final_checkpoint);
    let restored: WindowedFleet = Checkpoint::restore(&bytes).unwrap();
    assert_eq!(restored.estimates(), expected);
    assert_eq!(restored.current_epoch(), pcfg.epochs as u64 - 1);
}

#[test]
fn query_port_answers_every_kind_and_drains() {
    let pcfg = WindowedPipelineConfig {
        shards: 1,
        ..pcfg()
    };
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let (backlog, frames) = shard0_backlog(&pcfg);

    // Build the expected ring locally by absorbing the same delta
    // chains in process: what the agent ships over TCP must land on it.
    let expected = chain_ring(&pcfg, 0);

    let ingest = daemon.ingest_addr();
    let report = run_agent_rounds(&AgentConfig::new(1, echo), backlog, |_| {
        let s = TcpStream::connect(ingest)?;
        s.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(s)
    })
    .unwrap();
    assert_eq!(report.frames_acked as usize, frames);

    let qaddr = daemon.query_addr();
    let ask = move |req: &QueryRequest| -> QueryReply {
        let s = TcpStream::connect(qaddr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        match query_once(s, req, Duration::from_secs(2)).unwrap() {
            Message::Reply(r) => r,
            other => panic!("expected Reply, got {other:?}"),
        }
    };

    assert_eq!(
        ask(&QueryRequest::Estimate(0)),
        QueryReply::Estimate(expected.estimate(0))
    );
    assert_eq!(
        ask(&QueryRequest::Estimate(999)),
        QueryReply::Estimate(None)
    );
    assert_eq!(
        ask(&QueryRequest::Fill(3)),
        QueryReply::Fill(expected.window_fill(3).map(|f| f as u64))
    );
    let mut rows = expected.estimates();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(3);
    assert_eq!(ask(&QueryRequest::TopK(3)), QueryReply::TopK(rows));
    let mut sample: Vec<f64> = expected.estimates().iter().map(|&(_, e)| e).collect();
    assert_eq!(
        ask(&QueryRequest::Summary),
        QueryReply::Summary {
            keys: pcfg.links as u64,
            quantiles: quantile_summary(&mut sample),
        }
    );

    // Drain over the wire; join must now complete.
    assert_eq!(ask(&QueryRequest::Drain), QueryReply::Draining);
    let report = daemon.join().unwrap();
    assert_eq!(report.estimates, expected.estimates());
    assert!(report.queries >= 6);
}

#[test]
fn panicked_query_handler_does_not_poison_ingest() {
    // A query handler that panics while holding the ring lock must not
    // take the collector down with it: the lock recovers (the ring is
    // only ever mutated under short, atomic critical sections), later
    // sessions keep working, and the panic is counted, not propagated.
    let daemon = Daemon::start(DaemonConfig {
        panic_on_query: Some(77),
        ..dcfg()
    })
    .unwrap();
    let echo = daemon.config_echo();

    // Ingest one frame before the panic so post-panic queries have
    // something to estimate.
    let mut c = Client::connect(daemon.ingest_addr());
    c.hello(1, echo);
    c.send(&baseline(0, 1, &[5, 6]));
    match c.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta, got {other:?}"),
    }

    // Trip the booby-trapped key: the handler dies mid-lock and the
    // connection drops without a reply.
    let s = TcpStream::connect(daemon.query_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    assert!(
        query_once(s, &QueryRequest::Estimate(77), Duration::from_secs(2)).is_err(),
        "the poisoned query must not produce a reply"
    );

    // The daemon shrugged it off: ingest still absorbs...
    let mut c2 = Client::connect(daemon.ingest_addr());
    c2.hello(2, echo);
    c2.send(&baseline(0, 2, &[8]));
    match c2.recv() {
        Message::AckDelta { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected AckDelta after the panic, got {other:?}"),
    }
    // ...and queries still answer.
    let s = TcpStream::connect(daemon.query_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    match query_once(s, &QueryRequest::Estimate(5), Duration::from_secs(2)).unwrap() {
        Message::Reply(QueryReply::Estimate(Some(_))) => {}
        other => panic!("expected an estimate after the panic, got {other:?}"),
    }

    drop((c, c2));
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.handler_panics, 1, "the panic is counted");
    assert_eq!(report.frames_absorbed, 2);
}
