//! The standby side of collector replication: a client that follows a
//! primary's record stream and folds it into the local ring + journal.
//!
//! The standby dials the primary's *ingest* listener with a
//! `Role::Replicate` hello. The primary answers with a catch-up
//! `ReplicateSnapshot` (a full ring checkpoint), then ships every
//! subsequently journaled record as a `Replicate` frame — the exact
//! `SBJR` bytes it appended to its own segment. Each record's frame is
//! validated on the follow thread (its sparse positions decoded there),
//! routed through the absorber's job queue (the single-writer
//! discipline is preserved: the replication client never touches the
//! ring directly), ORed into the ring, journaled locally, and only then
//! answered by the absorber with a `ReplicateAck` carrying the record's
//! seq — so the primary's "acked ⇒ replicated" guarantee means *durable
//! on the standby*, not just received.
//!
//! Records ride the replay absorb path (`absorb_delta_view_replay`): the
//! primary's journal order already proved every delta chain, and the
//! chain's baseline may live only inside the catch-up snapshot here.
//! Overlap between the snapshot and the stream replays as OR-idempotent
//! duplicates, which is what makes the whole scheme bit-identical.
//!
//! The client runs until promotion fences it (`standby_stop`) or the
//! daemon drains; connection loss reconnects with capped backoff and a
//! fresh snapshot.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sbitmap_core::journal;
use sbitmap_core::CheckedDelta;
use sbitmap_stream::net::{self, FrameReader, Message, ReadEvent, Role, PROTO_VERSION};

use crate::server::{FrameJob, Job, Shared};

/// Ceiling of the reconnect backoff between follow attempts.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// How one follow session ended.
enum FollowEnd {
    /// Promotion or drain: the client must exit for good.
    Stopped,
    /// Connection-level failure: reconnect with backoff.
    Retry,
}

/// Run the replication client until promotion or drain. Spawned by
/// `Daemon::start` when `DaemonConfig::standby_of` is set.
pub(crate) fn run_standby(shared: &Arc<Shared>, job_tx: &mpsc::SyncSender<Job>) {
    let Some(addr) = shared.cfg.standby_of.clone() else {
        return;
    };
    let mut backoff = Duration::from_millis(50);
    while !shared.replica_stopped() {
        match follow_once(shared, &addr, job_tx) {
            FollowEnd::Stopped => return,
            FollowEnd::Retry => {
                sleep_responsive(shared, backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// Sleep `total`, waking early when the client must stop.
fn sleep_responsive(shared: &Shared, total: Duration) {
    let tick = shared.cfg.read_deadline.max(Duration::from_millis(5));
    let mut slept = Duration::ZERO;
    while slept < total && !shared.replica_stopped() {
        let step = tick.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
}

/// One connect → handshake → follow session against the primary.
fn follow_once(shared: &Arc<Shared>, addr: &str, job_tx: &mpsc::SyncSender<Job>) -> FollowEnd {
    let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return FollowEnd::Retry;
    };
    let Ok(stream) = TcpStream::connect_timeout(&sock_addr, shared.cfg.replication_timeout) else {
        return FollowEnd::Retry;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_deadline));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_deadline));
    let mut reader = FrameReader::new(stream);
    let hello = Message::Hello {
        proto: PROTO_VERSION,
        role: Role::Replicate,
        agent: shared.cfg.replica_id,
        config: shared.echo.with_term(shared.term()),
    };
    if send(&mut reader, &hello).is_err() {
        return FollowEnd::Retry;
    }
    // Await the Welcome: adopt the primary's term, verify the sketch
    // configuration (the term field is negotiated, never compared).
    let mut idle = Duration::ZERO;
    loop {
        if shared.replica_stopped() {
            return FollowEnd::Stopped;
        }
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Welcome { config, .. })) => {
                if !config.agrees_with(&shared.echo) {
                    // A foreign primary: absorbing its frames would
                    // corrupt estimates. Back off and retry — the
                    // operator may repoint us.
                    return FollowEnd::Retry;
                }
                if config.term < shared.term() {
                    // Stale primary (our term moved past its own): do
                    // not follow it backwards.
                    return FollowEnd::Retry;
                }
                shared.observe_term(config.term);
                break;
            }
            Ok(ReadEvent::Message(Message::Error { .. })) => return FollowEnd::Retry,
            Ok(ReadEvent::Message(_)) => return FollowEnd::Retry,
            Ok(ReadEvent::TimedOut) => {
                idle += shared.cfg.read_deadline;
                if idle >= shared.cfg.idle_limit {
                    return FollowEnd::Retry;
                }
            }
            Ok(ReadEvent::Corrupt(_)) | Ok(ReadEvent::Closed) | Err(_) => {
                return FollowEnd::Retry;
            }
        }
    }
    follow_stream(shared, &mut reader, job_tx)
}

/// The post-handshake follow loop: snapshot, then records.
///
/// The loop is pipelined and fully event-driven: each validated record is
/// queued to the absorber immediately, its seq riding in the job (the
/// bounded job queue is the only backpressure). The absorber answers
/// every record with its `ReplicateAck`, and a dedicated *ack pump*
/// thread — blocked on that answer channel, writing on a cloned handle
/// of the same socket — sends it the moment it lands, while this loop
/// stays parked in `read_event` pulling the next records off the wire.
/// No polling ticks anywhere: reads wake on bytes, acks wake on absorbs.
fn follow_stream(
    shared: &Arc<Shared>,
    reader: &mut FrameReader<TcpStream>,
    job_tx: &mpsc::SyncSender<Job>,
) -> FollowEnd {
    let (ack_tx, ack_rx) = mpsc::channel::<Message>();
    let failed = Arc::new(AtomicBool::new(false));
    let Ok(write_half) = reader.inner_mut().try_clone() else {
        return FollowEnd::Retry;
    };
    let pump = {
        let shared = shared.clone();
        let failed = failed.clone();
        std::thread::spawn(move || ack_pump(&shared, write_half, &failed, &ack_rx))
    };
    let end = follow_reads(shared, reader, job_tx, &ack_tx, &failed);
    // The pump owns the last word on the socket: drop our completion
    // sender so it drains the in-flight absorbs (the absorber completes
    // everything already queued) and exits, then say goodbye.
    drop(ack_tx);
    let _ = pump.join();
    if matches!(end, FollowEnd::Stopped) {
        let _ = send(reader, &Message::Goodbye);
    }
    end
}

/// The follow loop's read half: validate, fence, and queue each record to
/// the absorber with its seq.
fn follow_reads(
    shared: &Arc<Shared>,
    reader: &mut FrameReader<TcpStream>,
    job_tx: &mpsc::SyncSender<Job>,
    ack_tx: &mpsc::Sender<Message>,
    failed: &AtomicBool,
) -> FollowEnd {
    loop {
        if shared.replica_stopped() {
            return FollowEnd::Stopped;
        }
        if failed.load(Ordering::SeqCst) {
            // The pump hit a write fault or an absorb error: the
            // primary will stop hearing acks either way — resync.
            return FollowEnd::Retry;
        }
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::ReplicateSnapshot { term, frame })) => {
                if term < shared.term() {
                    return FollowEnd::Retry;
                }
                shared.observe_term(term);
                let (done_tx, done_rx) = mpsc::channel();
                if job_tx
                    .send(Job::InstallSnapshot {
                        bytes: frame,
                        done: done_tx,
                    })
                    .is_err()
                {
                    return FollowEnd::Retry;
                }
                match wait_done(shared, &done_rx) {
                    Some(Ok(())) => {}
                    Some(Err(_)) | None => return FollowEnd::Retry,
                }
            }
            Ok(ReadEvent::Message(Message::Replicate { seq, term, record })) => {
                if term < shared.term() {
                    // The stream belongs to a fenced term — ours moved
                    // on (promotion raced this read). Never absorb it.
                    return FollowEnd::Retry;
                }
                shared.observe_term(term);
                let Ok(rec) = journal::decode_record(&record) else {
                    // A record that fails its own checksum is a
                    // transport-level fault; resync from scratch.
                    return FollowEnd::Retry;
                };
                let Ok(frame) = CheckedDelta::new(rec.payload) else {
                    return FollowEnd::Retry;
                };
                if frame.header().epoch != rec.epoch {
                    return FollowEnd::Retry;
                }
                if job_tx
                    .send(Job::Frame(FrameJob {
                        epoch: rec.epoch,
                        agent: rec.source,
                        frame,
                        repl_seq: Some(seq),
                        ack: ack_tx.clone(),
                    }))
                    .is_err()
                {
                    return FollowEnd::Retry;
                }
            }
            Ok(ReadEvent::Message(Message::Goodbye)) | Ok(ReadEvent::Closed) => {
                return FollowEnd::Retry;
            }
            Ok(ReadEvent::Message(Message::Error { .. })) => return FollowEnd::Retry,
            Ok(ReadEvent::Message(_)) => {}
            Ok(ReadEvent::TimedOut) => {}
            Ok(ReadEvent::Corrupt(_)) | Err(_) => return FollowEnd::Retry,
        }
    }
}

/// The standby's ack writer: blocked on the absorber's answer channel,
/// it writes each `ReplicateAck` on its own handle of the follow socket.
/// Any write fault or absorb error raises `failed` and stops the pump —
/// the read half notices and resyncs.
fn ack_pump(
    shared: &Shared,
    mut write_half: TcpStream,
    failed: &AtomicBool,
    ack_rx: &mpsc::Receiver<Message>,
) {
    while let Ok(mut ack) = ack_rx.recv() {
        // Acks are cumulative on the primary: batch every answer already
        // in the channel into one `ReplicateAck` carrying the newest
        // seq — one write per wakeup, not per record.
        loop {
            if !matches!(ack, Message::ReplicateAck { .. }) {
                // A typed absorb error: the record is not durable here.
                // Withhold the ack; the primary times out, drops us, and
                // we resync via snapshot.
                failed.store(true, Ordering::SeqCst);
                return;
            }
            shared.note_replicated();
            match ack_rx.try_recv() {
                Ok(next) => ack = next,
                Err(_) => break,
            }
        }
        if write_half.write_all(&net::encode(&ack)).is_err() {
            failed.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Wait for the absorber to finish a snapshot install; `None` means the
/// client must exit.
fn wait_done(
    shared: &Shared,
    done_rx: &mpsc::Receiver<Result<(), String>>,
) -> Option<Result<(), String>> {
    let tick = shared.cfg.read_deadline.max(Duration::from_millis(5));
    loop {
        match done_rx.recv_timeout(tick) {
            Ok(result) => return Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.replica_stopped() {
                    return None;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Some(Err("absorber gone".into())),
        }
    }
}

/// Write one frame directly on the socket (the client is synchronous:
/// one in-flight record, acks from the same loop).
fn send(reader: &mut FrameReader<TcpStream>, msg: &Message) -> std::io::Result<()> {
    reader.inner_mut().write_all(&net::encode(msg))
}
