//! The `sbitmapd` session protocol: transport-agnostic message framing.
//!
//! This module is the byte-level contract between the collector daemon
//! (`sbitmap-daemon`) and its node agents, specified in prose in
//! `docs/wire-format.md` §"Session protocol". It deliberately knows
//! nothing about sockets: the reader and writer work over any
//! [`Read`]/[`Write`], which is what lets the fault-injection harness
//! ([`crate::fault`]) wrap a real `TcpStream` and an in-memory pipe with
//! the same code.
//!
//! Design points, all load-bearing for the daemon's robustness story:
//!
//! * **Every message is one checksummed frame** — magic, type, length,
//!   payload, trailing XXH64 — so a flipped bit anywhere is detected
//!   before the payload is interpreted.
//! * **Corruption is classified, not fatal.** A frame whose declared
//!   length was read in full but whose checksum or payload fails decodes
//!   as [`ReadEvent::Corrupt`]: the stream is still frame-aligned, the
//!   peer can be answered with a typed [`Message::Error`] and the
//!   connection lives on. Only a bad magic or an absurd declared length
//!   — where the byte stream itself has desynchronized — is a fatal
//!   [`NetError::Desync`].
//! * **The reader is resumable.** [`FrameReader::read_event`] buffers
//!   partial frames across read timeouts ([`ReadEvent::TimedOut`]), so a
//!   connection handler can poll a shutdown flag on its read deadline
//!   without ever tearing a frame.
//! * **Bounded allocation.** The declared payload length is capped
//!   *before* any buffer grows, mirroring the hostile-input rules of the
//!   checkpoint codec: at [`MAX_PAYLOAD`] by default, lower where the
//!   caller knows better ([`FrameReader::set_payload_cap`] — the daemon
//!   holds an unauthenticated peer to [`HELLO_PAYLOAD_LEN`]-sized frames
//!   until its handshake is done).

use std::fmt;
use std::io::{self, Read, Write};

use sbitmap_hash::xxh64;

/// Frame magic: distinguishes session frames from raw v2 checkpoint
/// frames ("SBMP") on the wire.
pub const NET_MAGIC: [u8; 4] = *b"SBND";
/// Protocol version spoken by this build. Version 2 ships sketches only
/// as v3 fleet-delta chains ([`Message::BatchDelta`] /
/// [`Message::AckDelta`]); version 1's full-frame messages (types 3 and
/// 4) are retired and decode as unknown types. The daemon answers a
/// Hello below this version with [`ErrorCode::VersionMismatch`] and
/// welcomes a newer one at this version.
pub const PROTO_VERSION: u16 = 2;
/// Hard cap on a frame's declared payload length, enforced before any
/// allocation. Generous: the largest legitimate payload is an epoch
/// fleet checkpoint (~1 KiB per link at the paper's `m = 8000`).
pub const MAX_PAYLOAD: usize = 1 << 26;
/// Payload bytes of a [`Message::Hello`]: proto (2) + role (1) +
/// agent (8) + the [`ConfigEcho`] (44). What a server may size its
/// pre-handshake frame cap from.
pub const HELLO_PAYLOAD_LEN: usize = 2 + 1 + 8 + ConfigEcho::WIRE_LEN;

/// Frame header: magic (4) + type (1) + payload length (4, LE).
const HEADER_LEN: usize = 9;
/// Trailing XXH64 (seed 0) over header + payload.
const CHECKSUM_LEN: usize = 8;

/// The sketch configuration echoed in both handshake directions. Ingest
/// sessions must agree on every sketch field — absorbing frames built
/// under a different schedule or seed would silently corrupt estimates,
/// so a mismatch is rejected before any batch is accepted. The `term`
/// field is *not* part of that agreement: it carries the replication
/// fencing term of whichever side wrote the echo (see
/// `docs/replication.md`), and handshake validation must use
/// [`ConfigEcho::agrees_with`], never `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigEcho {
    /// Design maximum cardinality `n_max`.
    pub n_max: u64,
    /// Bits per key per epoch `m`.
    pub m: u64,
    /// Sampling word width `d` (derived from the schedule, echoed so a
    /// derivation change cannot slip through unnoticed).
    pub sampling_bits: u32,
    /// Fleet seed (per-key seeds derive from it).
    pub seed: u64,
    /// Window span in epochs.
    pub window: u64,
    /// The sender's replication term: monotonic, bumped on standby
    /// promotion. A daemon advertises its current term in `Welcome`;
    /// clients echo the highest term they have seen in `Hello` (0 if
    /// they have never spoken to a collector).
    pub term: u64,
}

impl ConfigEcho {
    /// Encoded size: five `u64` fields and the `u32` sampling width.
    const WIRE_LEN: usize = 5 * 8 + 4;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.n_max.to_le_bytes());
        out.extend_from_slice(&self.m.to_le_bytes());
        out.extend_from_slice(&self.sampling_bits.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.window.to_le_bytes());
        out.extend_from_slice(&self.term.to_le_bytes());
    }

    fn read(r: &mut SliceReader<'_>) -> Result<Self, String> {
        Ok(Self {
            n_max: r.u64()?,
            m: r.u64()?,
            sampling_bits: r.u32()?,
            seed: r.u64()?,
            window: r.u64()?,
            term: r.u64()?,
        })
    }

    /// Sketch-compatibility check: every field that shapes absorb
    /// semantics must match; the fencing `term` is deliberately ignored
    /// (a standby at term 2 still speaks the same sketch as a primary
    /// that welcomed agents at term 1).
    #[must_use]
    pub fn agrees_with(&self, other: &Self) -> bool {
        self.n_max == other.n_max
            && self.m == other.m
            && self.sampling_bits == other.sampling_bits
            && self.seed == other.seed
            && self.window == other.window
    }

    /// A copy of `self` with its fencing term replaced (handshakes stamp
    /// the live term into a config template this way).
    #[must_use]
    pub fn with_term(mut self, term: u64) -> Self {
        self.term = term;
        self
    }
}

/// What a connecting peer wants from the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Ship epoch batch frames (a node agent).
    Ingest,
    /// Ask estimate/window/top-K questions (a monitoring client).
    Query,
    /// Receive the primary's journal stream (a standby collector).
    Replicate,
}

impl Role {
    fn to_wire(self) -> u8 {
        match self {
            Role::Ingest => 1,
            Role::Query => 2,
            Role::Replicate => 3,
        }
    }

    fn from_wire(b: u8) -> Result<Self, String> {
        match b {
            1 => Ok(Role::Ingest),
            2 => Ok(Role::Query),
            3 => Ok(Role::Replicate),
            other => Err(format!("unknown session role {other}")),
        }
    }
}

/// A collector's replication role, as reported by
/// [`QueryReply::Status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Accepting ingest sessions and serving standbys.
    Primary,
    /// Following a primary's journal stream; refuses ingest with
    /// [`ErrorCode::NotPrimary`] until promoted.
    Standby,
    /// Replaying the local write-ahead journal after a restart.
    Recovering,
}

impl NodeRole {
    fn to_wire(self) -> u8 {
        match self {
            NodeRole::Primary => 1,
            NodeRole::Standby => 2,
            NodeRole::Recovering => 3,
        }
    }

    fn from_wire(b: u8) -> Result<Self, String> {
        match b {
            1 => Ok(NodeRole::Primary),
            2 => Ok(NodeRole::Standby),
            3 => Ok(NodeRole::Recovering),
            other => Err(format!("unknown node role {other}")),
        }
    }
}

impl fmt::Display for NodeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeRole::Primary => "primary",
            NodeRole::Standby => "standby",
            NodeRole::Recovering => "recovering",
        })
    }
}

/// The collector's verdict on one absorbed batch frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// First delivery: folded into the ring.
    Absorbed,
    /// At-least-once replay: already absorbed from this agent, skipped.
    Duplicate,
    /// The epoch had already expired from the window; dropped.
    Expired,
}

impl AckOutcome {
    fn to_wire(self) -> u8 {
        match self {
            AckOutcome::Absorbed => 1,
            AckOutcome::Duplicate => 2,
            AckOutcome::Expired => 3,
        }
    }

    fn from_wire(b: u8) -> Result<Self, String> {
        match b {
            1 => Ok(AckOutcome::Absorbed),
            2 => Ok(AckOutcome::Duplicate),
            3 => Ok(AckOutcome::Expired),
            other => Err(format!("unknown ack outcome {other}")),
        }
    }
}

/// Typed error codes carried by [`Message::Error`] frames. Append-only
/// wire constants, like checkpoint kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer's byte stream desynchronized (bad magic / absurd
    /// length); the connection is being closed.
    Desync,
    /// Handshake protocol version mismatch.
    VersionMismatch,
    /// Handshake sketch-configuration mismatch.
    ConfigMismatch,
    /// One frame failed its checksum or payload validation; the
    /// connection survives and the frame should be retransmitted.
    BadFrame,
    /// A batch epoch the ring cannot accept (e.g. running far ahead).
    EpochOutOfRange,
    /// The daemon is draining; no further batches are accepted.
    Draining,
    /// A message type that is not valid in the current session state.
    Protocol,
    /// An internal collector failure.
    Internal,
    /// A delta frame arrived before its epoch's round-0 baseline (the
    /// chain broke — e.g. the baseline expired between retransmits). The
    /// connection survives; the agent must resend the epoch from its
    /// baseline.
    MissingBaseline,
    /// The collector's absorb queue stayed full past its shed deadline:
    /// the frame was dropped unacked and the peer should back off and
    /// retry. `context` carries a retry-after hint in milliseconds.
    Busy,
    /// The collector is replaying its write-ahead journal after a
    /// restart; no sessions are accepted until recovery completes. Peers
    /// should back off and reconnect — the existing retry path handles
    /// it.
    Recovering,
    /// This collector is a standby (or otherwise not the fleet's
    /// primary): it refuses ingest and replication sessions until
    /// promoted. `context` carries the standby's current term; agents
    /// treat the code as a cue to rotate to the next address in their
    /// failover list.
    NotPrimary,
}

impl ErrorCode {
    fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Desync => 1,
            ErrorCode::VersionMismatch => 2,
            ErrorCode::ConfigMismatch => 3,
            ErrorCode::BadFrame => 4,
            ErrorCode::EpochOutOfRange => 5,
            ErrorCode::Draining => 6,
            ErrorCode::Protocol => 7,
            ErrorCode::Internal => 8,
            ErrorCode::MissingBaseline => 9,
            ErrorCode::Busy => 10,
            ErrorCode::Recovering => 11,
            ErrorCode::NotPrimary => 12,
        }
    }

    fn from_wire(v: u16) -> Result<Self, String> {
        Ok(match v {
            1 => ErrorCode::Desync,
            2 => ErrorCode::VersionMismatch,
            3 => ErrorCode::ConfigMismatch,
            4 => ErrorCode::BadFrame,
            5 => ErrorCode::EpochOutOfRange,
            6 => ErrorCode::Draining,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::Internal,
            9 => ErrorCode::MissingBaseline,
            10 => ErrorCode::Busy,
            11 => ErrorCode::Recovering,
            12 => ErrorCode::NotPrimary,
            other => return Err(format!("unknown error code {other}")),
        })
    }
}

/// A question for the daemon's query listener.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// The sliding-window estimate for one key.
    Estimate(u64),
    /// The union fill (set bits over the live window) for one key.
    Fill(u64),
    /// The `k` keys with the largest windowed estimates.
    TopK(u64),
    /// Key count + the Figure 7 quantile summary of all estimates.
    Summary,
    /// Flip the daemon's drain flag (graceful shutdown).
    Drain,
    /// Replication role, fencing term and frame counters.
    Status,
    /// Promote a standby to primary (bumps the fencing term).
    Promote,
}

impl QueryRequest {
    fn kind(&self) -> u8 {
        match self {
            QueryRequest::Estimate(_) => 1,
            QueryRequest::Fill(_) => 2,
            QueryRequest::TopK(_) => 3,
            QueryRequest::Summary => 4,
            QueryRequest::Drain => 5,
            QueryRequest::Status => 6,
            QueryRequest::Promote => 7,
        }
    }

    fn arg(&self) -> u64 {
        match self {
            QueryRequest::Estimate(k) | QueryRequest::Fill(k) | QueryRequest::TopK(k) => *k,
            QueryRequest::Summary
            | QueryRequest::Drain
            | QueryRequest::Status
            | QueryRequest::Promote => 0,
        }
    }

    fn from_wire(kind: u8, arg: u64) -> Result<Self, String> {
        Ok(match kind {
            1 => QueryRequest::Estimate(arg),
            2 => QueryRequest::Fill(arg),
            3 => QueryRequest::TopK(arg),
            4 => QueryRequest::Summary,
            5 => QueryRequest::Drain,
            6 => QueryRequest::Status,
            7 => QueryRequest::Promote,
            other => return Err(format!("unknown query kind {other}")),
        })
    }
}

/// The daemon's answer to a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// `None` when no live epoch has seen the key.
    Estimate(Option<f64>),
    /// `None` when no live epoch has seen the key.
    Fill(Option<u64>),
    /// `(key, estimate)` pairs, estimate-descending, ties key-ascending.
    TopK(Vec<(u64, f64)>),
    /// Distinct keys live in the window + the quantile summary
    /// (`(probability, estimate)` pairs).
    Summary {
        /// Distinct keys live in the window.
        keys: u64,
        /// `(probability, estimate)` quantile knots.
        quantiles: Vec<(f64, f64)>,
    },
    /// The drain flag is now set.
    Draining,
    /// Answer to [`QueryRequest::Status`]: the collector's replication
    /// state in one frame (what the failover harness and CI smoke poll).
    Status {
        /// Current replication role.
        role: NodeRole,
        /// Current fencing term.
        term: u64,
        /// Sequence number of the live journal segment (0 when the
        /// daemon runs without a data dir).
        journal_seq: u64,
        /// Frames folded into the ring since startup (replay included).
        absorbed: u64,
        /// Frames shed unacked under backpressure.
        shed: u64,
        /// Journal records shipped to (primary) or absorbed from
        /// (standby) the replication stream.
        replicated: u64,
        /// Standby sessions currently attached (primary side).
        peers: u64,
    },
    /// Answer to [`QueryRequest::Promote`]: the term now in force.
    Promoted {
        /// The (possibly just bumped) fencing term.
        term: u64,
    },
}

/// A session message. See `docs/wire-format.md` §"Session protocol" for
/// the exact payload bytes of each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → daemon session opener.
    Hello {
        /// The client's [`PROTO_VERSION`].
        proto: u16,
        /// What the session is for.
        role: Role,
        /// The agent's stable identity (drives the at-least-once absorb
        /// guard); 0 for query sessions.
        agent: u64,
        /// The client's sketch configuration.
        config: ConfigEcho,
    },
    /// Daemon → client handshake acceptance.
    Welcome {
        /// The daemon's [`PROTO_VERSION`].
        proto: u16,
        /// Credit window: batch frames the agent may leave unacked.
        credits: u32,
        /// The daemon's sketch configuration.
        config: ConfigEcho,
    },
    /// A typed error frame; whether the connection survives depends on
    /// the code (see [`ErrorCode`]).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Code-specific context (the offending epoch, the peer's
        /// protocol version, ...).
        context: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// Clean session close.
    Goodbye,
    /// Client → daemon question (query sessions only).
    Query(QueryRequest),
    /// Daemon → client answer.
    Reply(QueryReply),
    /// One round of an epoch's v3 delta chain from a node agent.
    BatchDelta {
        /// Absolute epoch the chain belongs to.
        epoch: u64,
        /// Round within the epoch; 0 is the baseline reset.
        round: u32,
        /// The shipping agent's identity.
        agent: u64,
        /// A complete v3 `fleet-delta` frame (tag 11).
        frame: Vec<u8>,
    },
    /// Daemon → agent delta acknowledgement.
    AckDelta {
        /// The acknowledged epoch.
        epoch: u64,
        /// The acknowledged round.
        round: u32,
        /// What the collector did with the frame.
        outcome: AckOutcome,
        /// The acking collector's fencing term. Agents discard acks
        /// whose term is below the highest they have seen — a deposed
        /// primary cannot retire frames the new primary never absorbed.
        term: u64,
    },
    /// Primary → standby: one write-ahead journal record, shipped
    /// verbatim in the `SBJR` codec (replication sessions only).
    Replicate {
        /// Per-session monotonic sequence number, echoed by the ack.
        seq: u64,
        /// The primary's fencing term when the record was shipped.
        term: u64,
        /// A complete `SBJR` journal record (its own magic + checksum).
        record: Vec<u8>,
    },
    /// Standby → primary: the record with this sequence number is
    /// absorbed and journaled on the standby.
    ReplicateAck {
        /// The acknowledged sequence number.
        seq: u64,
        /// The standby's fencing term.
        term: u64,
    },
    /// Primary → standby catch-up: the primary's full ring state as a
    /// window checkpoint frame, sent once at the head of a replication
    /// session so a late-joining standby starts bit-identical.
    ReplicateSnapshot {
        /// The primary's fencing term.
        term: u64,
        /// A complete window checkpoint frame (tag 10).
        frame: Vec<u8>,
    },
}

/// Internal bounds-checked little-endian slice cursor for payload
/// decoding (the session-frame analogue of the codec's `PayloadReader`).
struct SliceReader<'a> {
    bytes: &'a [u8],
}

impl<'a> SliceReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err(format!(
                "payload truncated: needed {n} bytes, {} left",
                self.bytes.len()
            ));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A count field that will drive a loop over remaining payload bytes
    /// of at least `min_item_bytes` each: bounded by what the payload
    /// can actually back, so a hostile count cannot demand a huge
    /// allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let cap = (self.bytes.len() / min_item_bytes.max(1)) as u64;
        if n > cap {
            return Err(format!("count {n} exceeds what the payload backs ({cap})"));
        }
        Ok(n as usize)
    }

    /// Everything left in the payload (variable-length tail fields).
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }

    fn finish(self) -> Result<(), String> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing payload bytes", self.bytes.len()))
        }
    }
}

fn message_tag(msg: &Message) -> u8 {
    match msg {
        Message::Hello { .. } => 1,
        Message::Welcome { .. } => 2,
        Message::Error { .. } => 5,
        Message::Goodbye => 6,
        Message::Query(_) => 7,
        Message::Reply(_) => 8,
        Message::BatchDelta { .. } => 9,
        Message::AckDelta { .. } => 10,
        Message::Replicate { .. } => 11,
        Message::ReplicateAck { .. } => 12,
        Message::ReplicateSnapshot { .. } => 13,
    }
}

fn write_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Hello {
            proto,
            role,
            agent,
            config,
        } => {
            out.extend_from_slice(&proto.to_le_bytes());
            out.push(role.to_wire());
            out.extend_from_slice(&agent.to_le_bytes());
            config.write(out);
        }
        Message::Welcome {
            proto,
            credits,
            config,
        } => {
            out.extend_from_slice(&proto.to_le_bytes());
            out.extend_from_slice(&credits.to_le_bytes());
            config.write(out);
        }
        Message::Error {
            code,
            context,
            detail,
        } => {
            out.extend_from_slice(&code.to_wire().to_le_bytes());
            out.extend_from_slice(&context.to_le_bytes());
            out.extend_from_slice(detail.as_bytes());
        }
        Message::Goodbye => {}
        Message::Query(q) => {
            out.push(q.kind());
            out.extend_from_slice(&q.arg().to_le_bytes());
        }
        Message::Reply(reply) => match reply {
            QueryReply::Estimate(v) => {
                out.push(1);
                out.push(u8::from(v.is_some()));
                out.extend_from_slice(&v.unwrap_or(0.0).to_le_bytes());
            }
            QueryReply::Fill(v) => {
                out.push(2);
                out.push(u8::from(v.is_some()));
                out.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
            }
            QueryReply::TopK(rows) => {
                out.push(3);
                out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for (key, est) in rows {
                    out.extend_from_slice(&key.to_le_bytes());
                    out.extend_from_slice(&est.to_le_bytes());
                }
            }
            QueryReply::Summary { keys, quantiles } => {
                out.push(4);
                out.extend_from_slice(&keys.to_le_bytes());
                out.extend_from_slice(&(quantiles.len() as u64).to_le_bytes());
                for (p, v) in quantiles {
                    out.extend_from_slice(&p.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            QueryReply::Draining => out.push(5),
            QueryReply::Status {
                role,
                term,
                journal_seq,
                absorbed,
                shed,
                replicated,
                peers,
            } => {
                out.push(6);
                out.push(role.to_wire());
                out.extend_from_slice(&term.to_le_bytes());
                out.extend_from_slice(&journal_seq.to_le_bytes());
                out.extend_from_slice(&absorbed.to_le_bytes());
                out.extend_from_slice(&shed.to_le_bytes());
                out.extend_from_slice(&replicated.to_le_bytes());
                out.extend_from_slice(&peers.to_le_bytes());
            }
            QueryReply::Promoted { term } => {
                out.push(7);
                out.extend_from_slice(&term.to_le_bytes());
            }
        },
        Message::BatchDelta {
            epoch,
            round,
            agent,
            frame,
        } => {
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&round.to_le_bytes());
            out.extend_from_slice(&agent.to_le_bytes());
            out.extend_from_slice(frame);
        }
        Message::AckDelta {
            epoch,
            round,
            outcome,
            term,
        } => {
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&round.to_le_bytes());
            out.push(outcome.to_wire());
            out.extend_from_slice(&term.to_le_bytes());
        }
        Message::Replicate { seq, term, record } => {
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&term.to_le_bytes());
            out.extend_from_slice(record);
        }
        Message::ReplicateAck { seq, term } => {
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&term.to_le_bytes());
        }
        Message::ReplicateSnapshot { term, frame } => {
            out.extend_from_slice(&term.to_le_bytes());
            out.extend_from_slice(frame);
        }
    }
}

fn read_payload(tag: u8, payload: &[u8]) -> Result<Message, String> {
    let mut r = SliceReader::new(payload);
    let msg = match tag {
        1 => Message::Hello {
            proto: r.u16()?,
            role: Role::from_wire(r.u8()?)?,
            agent: r.u64()?,
            config: ConfigEcho::read(&mut r)?,
        },
        2 => Message::Welcome {
            proto: r.u16()?,
            credits: r.u32()?,
            config: ConfigEcho::read(&mut r)?,
        },
        5 => {
            let code = ErrorCode::from_wire(r.u16()?)?;
            let context = r.u64()?;
            let detail = String::from_utf8_lossy(r.rest()).into_owned();
            Message::Error {
                code,
                context,
                detail,
            }
        }
        6 => Message::Goodbye,
        7 => {
            let kind = r.u8()?;
            let arg = r.u64()?;
            Message::Query(QueryRequest::from_wire(kind, arg)?)
        }
        8 => {
            let kind = r.u8()?;
            let reply = match kind {
                1 => {
                    let some = r.u8()? != 0;
                    let v = r.f64()?;
                    QueryReply::Estimate(some.then_some(v))
                }
                2 => {
                    let some = r.u8()? != 0;
                    let v = r.u64()?;
                    QueryReply::Fill(some.then_some(v))
                }
                3 => {
                    let n = r.count(16)?;
                    let mut rows = Vec::with_capacity(n);
                    for _ in 0..n {
                        rows.push((r.u64()?, r.f64()?));
                    }
                    QueryReply::TopK(rows)
                }
                4 => {
                    let keys = r.u64()?;
                    let n = r.count(16)?;
                    let mut quantiles = Vec::with_capacity(n);
                    for _ in 0..n {
                        quantiles.push((r.f64()?, r.f64()?));
                    }
                    QueryReply::Summary { keys, quantiles }
                }
                5 => QueryReply::Draining,
                6 => QueryReply::Status {
                    role: NodeRole::from_wire(r.u8()?)?,
                    term: r.u64()?,
                    journal_seq: r.u64()?,
                    absorbed: r.u64()?,
                    shed: r.u64()?,
                    replicated: r.u64()?,
                    peers: r.u64()?,
                },
                7 => QueryReply::Promoted { term: r.u64()? },
                other => return Err(format!("unknown reply kind {other}")),
            };
            Message::Reply(reply)
        }
        9 => {
            let epoch = r.u64()?;
            let round = r.u32()?;
            let agent = r.u64()?;
            let frame = r.rest().to_vec();
            Message::BatchDelta {
                epoch,
                round,
                agent,
                frame,
            }
        }
        10 => Message::AckDelta {
            epoch: r.u64()?,
            round: r.u32()?,
            outcome: AckOutcome::from_wire(r.u8()?)?,
            term: r.u64()?,
        },
        11 => {
            let seq = r.u64()?;
            let term = r.u64()?;
            let record = r.rest().to_vec();
            Message::Replicate { seq, term, record }
        }
        12 => Message::ReplicateAck {
            seq: r.u64()?,
            term: r.u64()?,
        },
        13 => {
            let term = r.u64()?;
            let frame = r.rest().to_vec();
            Message::ReplicateSnapshot { term, frame }
        }
        other => return Err(format!("unknown message type {other}")),
    };
    r.finish()?;
    Ok(msg)
}

/// Encode one message as a complete session frame (header + payload +
/// checksum).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    write_payload(msg, &mut payload);
    debug_assert!(payload.len() <= MAX_PAYLOAD, "oversized session payload");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&NET_MAGIC);
    out.push(message_tag(msg));
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = xxh64(&out, 0);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A fatal transport failure: the connection must be closed.
#[derive(Debug)]
pub enum NetError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The byte stream desynchronized (bad magic, absurd declared
    /// length, or EOF mid-frame) — frame boundaries are lost, so no
    /// error frame can safely be exchanged.
    Desync(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Desync(msg) => write!(f, "stream desynchronized: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One observation from [`FrameReader::read_event`].
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete, checksum-verified, decoded message.
    Message(Message),
    /// A complete frame that failed its checksum or payload decode. The
    /// stream is still frame-aligned: answer with a typed
    /// [`Message::Error`] and keep reading.
    Corrupt(String),
    /// The transport hit its read timeout mid-wait. Partial frame bytes
    /// (if any) are retained; call again to resume.
    TimedOut,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// An incremental session-frame reader over any [`Read`].
///
/// Tolerates read timeouts (partial frames are buffered and resumed) so
/// connection handlers can use `set_read_timeout` as a poll interval for
/// shutdown flags without corrupting the stream position.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// Bytes of the in-flight frame accumulated so far.
    buf: Vec<u8>,
    /// Total bytes `buf` must reach before the next parse step: the
    /// header first, then the full frame once the length is known.
    need: usize,
    /// Largest declared payload length accepted (at most
    /// [`MAX_PAYLOAD`]).
    cap: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a transport.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            need: HEADER_LEN,
            cap: MAX_PAYLOAD,
        }
    }

    /// Cap the declared payload length of the frames read from now on
    /// (clamped to [`MAX_PAYLOAD`]); a header declaring more is a
    /// [`NetError::Desync`]. A server lowers it for a peer that has not
    /// completed its handshake, so an unauthenticated socket cannot make
    /// it buffer a 64 MiB frame, and raises it once the peer is welcomed.
    pub fn set_payload_cap(&mut self, cap: usize) {
        self.cap = cap.min(MAX_PAYLOAD);
    }

    /// The wrapped transport, for interleaved writes between reads
    /// (single-threaded clients write requests and read replies on one
    /// duplex stream).
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Consume the reader, returning the transport.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Current capacity of the persistent frame buffer (test hook for
    /// the no-per-frame-reallocation property).
    #[cfg(test)]
    fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Read until one complete frame is buffered, then verify and decode
    /// it. See [`ReadEvent`] for the non-fatal outcomes and [`NetError`]
    /// for the fatal ones.
    pub fn read_event(&mut self) -> Result<ReadEvent, NetError> {
        loop {
            // Fill towards the current target, tolerating timeouts.
            while self.buf.len() < self.need {
                let mut chunk = [0u8; 4096];
                let want = (self.need - self.buf.len()).min(chunk.len());
                match self.inner.read(&mut chunk[..want]) {
                    Ok(0) => {
                        return if self.buf.is_empty() {
                            Ok(ReadEvent::Closed)
                        } else {
                            Err(NetError::Desync("connection closed mid-frame".into()))
                        };
                    }
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                        ) =>
                    {
                        return Ok(ReadEvent::TimedOut);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(NetError::Io(e)),
                }
            }
            if self.need == HEADER_LEN {
                // Header complete: validate before trusting the length.
                if self.buf[..4] != NET_MAGIC {
                    return Err(NetError::Desync("bad frame magic".into()));
                }
                let len = u32::from_le_bytes(self.buf[5..9].try_into().unwrap()) as usize;
                if len > self.cap {
                    return Err(NetError::Desync(format!(
                        "declared payload length {len} exceeds the cap of {}",
                        self.cap
                    )));
                }
                self.need = HEADER_LEN + len + CHECKSUM_LEN;
                continue; // fall through to read the remainder
            }
            // Full frame buffered: verify, decode, reset for the next.
            // The buffer is cleared in place, not replaced, so a
            // long-lived session reuses one allocation frame after frame
            // (its capacity is bounded by the cap check above).
            self.need = HEADER_LEN;
            let (body, sum) = self.buf.split_at(self.buf.len() - CHECKSUM_LEN);
            let expect = u64::from_le_bytes(sum.try_into().unwrap());
            let event = if xxh64(body, 0) != expect {
                ReadEvent::Corrupt("frame checksum mismatch".into())
            } else {
                match read_payload(body[4], &body[HEADER_LEN..]) {
                    Ok(msg) => ReadEvent::Message(msg),
                    Err(e) => ReadEvent::Corrupt(e),
                }
            };
            self.buf.clear();
            return Ok(event);
        }
    }
}

/// A session-frame writer over any [`Write`].
#[derive(Debug)]
pub struct FrameWriter<W> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a transport.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// Encode, write and flush one message.
    ///
    /// # Errors
    ///
    /// Any transport write/flush failure.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.inner.write_all(&encode(msg))?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let config = ConfigEcho {
            n_max: 1_500_000,
            m: 8_000,
            sampling_bits: 32,
            seed: 0xc011,
            window: 8,
            term: 1,
        };
        vec![
            Message::Hello {
                proto: PROTO_VERSION,
                role: Role::Ingest,
                agent: 7,
                config,
            },
            Message::Welcome {
                proto: PROTO_VERSION,
                credits: 4,
                config,
            },
            Message::Error {
                code: ErrorCode::BadFrame,
                context: 3,
                detail: "checksum mismatch".into(),
            },
            Message::Error {
                code: ErrorCode::MissingBaseline,
                context: 3,
                detail: "delta round 2 before its baseline".into(),
            },
            Message::Error {
                code: ErrorCode::Busy,
                context: 40,
                detail: "absorb queue full; retry in 40 ms".into(),
            },
            Message::Error {
                code: ErrorCode::Recovering,
                context: 0,
                detail: "collector is replaying its journal".into(),
            },
            Message::Error {
                code: ErrorCode::NotPrimary,
                context: 2,
                detail: "standby at term 2; promote or route elsewhere".into(),
            },
            Message::BatchDelta {
                epoch: 3,
                round: 2,
                agent: 7,
                frame: vec![0xca, 0xfe],
            },
            Message::AckDelta {
                epoch: 3,
                round: 2,
                outcome: AckOutcome::Absorbed,
                term: 1,
            },
            Message::Replicate {
                seq: 12,
                term: 1,
                record: vec![0x53, 0x42, 0x4a, 0x52],
            },
            Message::ReplicateAck { seq: 12, term: 1 },
            Message::ReplicateSnapshot {
                term: 2,
                frame: vec![0x53, 0x42, 0x4d, 0x50],
            },
            Message::Goodbye,
            Message::Query(QueryRequest::TopK(5)),
            Message::Query(QueryRequest::Summary),
            Message::Query(QueryRequest::Status),
            Message::Query(QueryRequest::Promote),
            Message::Reply(QueryReply::Estimate(Some(1234.5))),
            Message::Reply(QueryReply::Estimate(None)),
            Message::Reply(QueryReply::Fill(Some(99))),
            Message::Reply(QueryReply::TopK(vec![(4, 100.0), (2, 50.0)])),
            Message::Reply(QueryReply::Summary {
                keys: 150,
                quantiles: vec![(0.25, 10.0), (0.99, 90.0)],
            }),
            Message::Reply(QueryReply::Draining),
            Message::Reply(QueryReply::Status {
                role: NodeRole::Standby,
                term: 2,
                journal_seq: 5,
                absorbed: 120,
                shed: 1,
                replicated: 119,
                peers: 0,
            }),
            Message::Reply(QueryReply::Promoted { term: 3 }),
        ]
    }

    #[test]
    fn config_agreement_ignores_the_fencing_term() {
        let base = ConfigEcho {
            n_max: 1000,
            m: 64,
            sampling_bits: 16,
            seed: 9,
            window: 4,
            term: 1,
        };
        assert!(base.agrees_with(&base.with_term(7)));
        assert_ne!(base, base.with_term(7), "== must still see the term");
        let mut other = base;
        other.seed = 10;
        assert!(!base.agrees_with(&other));
    }

    #[test]
    fn every_message_round_trips_through_one_stream() {
        let msgs = sample_messages();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode(m));
        }
        let mut reader = FrameReader::new(wire.as_slice());
        for expect in &msgs {
            match reader.read_event().unwrap() {
                ReadEvent::Message(got) => assert_eq!(&got, expect),
                other => panic!("expected {expect:?}, got {other:?}"),
            }
        }
        assert!(matches!(reader.read_event().unwrap(), ReadEvent::Closed));
    }

    #[test]
    fn corrupt_payload_is_survivable_but_bad_magic_is_fatal() {
        let good = encode(&Message::Goodbye);
        // Flip a payload-region bit... Goodbye has no payload, so use an
        // AckDelta and corrupt its epoch byte: checksum now fails, but
        // the header (hence frame alignment) is intact.
        let mut wire = encode(&Message::AckDelta {
            epoch: 1,
            round: 0,
            outcome: AckOutcome::Absorbed,
            term: 0,
        });
        wire[HEADER_LEN] ^= 0x40;
        wire.extend_from_slice(&good);
        let mut reader = FrameReader::new(wire.as_slice());
        assert!(matches!(
            reader.read_event().unwrap(),
            ReadEvent::Corrupt(_)
        ));
        assert!(matches!(
            reader.read_event().unwrap(),
            ReadEvent::Message(Message::Goodbye)
        ));
        // Bad magic: the stream position itself is untrustworthy.
        let mut wire = encode(&Message::Goodbye);
        wire[0] = b'X';
        let mut reader = FrameReader::new(wire.as_slice());
        assert!(matches!(reader.read_event(), Err(NetError::Desync(_))));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut wire = encode(&Message::Goodbye);
        wire[5..9].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = FrameReader::new(wire.as_slice());
        match reader.read_event() {
            Err(NetError::Desync(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected desync, got {other:?}"),
        }
    }

    #[test]
    fn a_hello_fits_its_layout_and_a_lowered_cap_desyncs_anything_larger() {
        let hello = sample_messages().swap_remove(0);
        assert!(matches!(hello, Message::Hello { .. }));
        let wire = encode(&hello);
        assert_eq!(wire.len(), HEADER_LEN + HELLO_PAYLOAD_LEN + CHECKSUM_LEN);
        let mut reader = FrameReader::new(wire.as_slice());
        reader.set_payload_cap(HELLO_PAYLOAD_LEN);
        assert!(matches!(reader.read_event(), Ok(ReadEvent::Message(m)) if m == hello));
        let mut reader = FrameReader::new(wire.as_slice());
        reader.set_payload_cap(HELLO_PAYLOAD_LEN - 1);
        match reader.read_event() {
            Err(NetError::Desync(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected desync, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_a_desync_not_a_hang() {
        let wire = encode(&Message::AckDelta {
            epoch: 9,
            round: 1,
            outcome: AckOutcome::Expired,
            term: 0,
        });
        for cut in 1..wire.len() {
            let mut reader = FrameReader::new(&wire[..cut]);
            match reader.read_event() {
                Err(NetError::Desync(_)) => {}
                Ok(ReadEvent::Corrupt(_)) => panic!("truncation must not decode"),
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reader_resumes_across_timeouts_without_tearing_frames() {
        /// A transport that times out after every few bytes.
        struct Trickle<'a> {
            bytes: &'a [u8],
            pos: usize,
            served_since_timeout: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.served_since_timeout {
                    self.served_since_timeout = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "poll tick"));
                }
                if self.pos >= self.bytes.len() {
                    return Ok(0);
                }
                let n = buf.len().min(3).min(self.bytes.len() - self.pos);
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                self.served_since_timeout = true;
                Ok(n)
            }
        }
        let msgs = sample_messages();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode(m));
        }
        let mut reader = FrameReader::new(Trickle {
            bytes: &wire,
            pos: 0,
            served_since_timeout: false,
        });
        let mut got = Vec::new();
        loop {
            match reader.read_event().unwrap() {
                ReadEvent::Message(m) => got.push(m),
                ReadEvent::TimedOut => {}
                ReadEvent::Closed => break,
                ReadEvent::Corrupt(e) => panic!("corrupt: {e}"),
            }
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn hostile_bit_flips_never_panic_and_are_always_detected() {
        // Any single-bit flip anywhere in a frame must surface as a
        // typed outcome (Corrupt / Desync), never a panic and never a
        // silently different message.
        let wire = encode(&Message::BatchDelta {
            epoch: 5,
            round: 0,
            agent: 3,
            frame: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        for pos in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[pos] ^= 1 << bit;
                let mut reader = FrameReader::new(bad.as_slice());
                match reader.read_event() {
                    Ok(ReadEvent::Corrupt(_)) | Err(NetError::Desync(_)) => {}
                    Ok(ReadEvent::Message(m)) => {
                        panic!("flip at {pos}.{bit} decoded as {m:?}")
                    }
                    other => panic!("flip at {pos}.{bit}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn frame_buffer_is_reused_across_frames() {
        // After the first (largest) frame sizes the buffer, later frames
        // of at most that size must not grow it — one allocation serves
        // the whole session.
        let big = Message::BatchDelta {
            epoch: 1,
            round: 0,
            agent: 2,
            frame: vec![0xab; 4096],
        };
        let mut wire = encode(&big);
        for epoch in 0..50u64 {
            wire.extend_from_slice(&encode(&Message::AckDelta {
                epoch,
                round: 0,
                outcome: AckOutcome::Absorbed,
                term: 0,
            }));
        }
        let mut reader = FrameReader::new(wire.as_slice());
        assert!(matches!(
            reader.read_event().unwrap(),
            ReadEvent::Message(Message::BatchDelta { .. })
        ));
        let cap = reader.buffer_capacity();
        let mut acks = 0;
        while let ReadEvent::Message(_) = reader.read_event().unwrap() {
            acks += 1;
            assert_eq!(reader.buffer_capacity(), cap, "no per-frame growth");
        }
        assert_eq!(acks, 50);
    }

    #[test]
    fn retired_full_frame_types_decode_as_unknown() {
        // Types 3 and 4 (protocol 1's full-frame batch and its ack) are
        // gone: a well-formed frame carrying either is a typed
        // corruption, and the stream stays aligned behind it.
        for tag in [3u8, 4] {
            let mut wire = NET_MAGIC.to_vec();
            wire.push(tag);
            wire.extend_from_slice(&17u32.to_le_bytes());
            wire.extend_from_slice(&[0u8; 17]);
            let checksum = xxh64(&wire, 0);
            wire.extend_from_slice(&checksum.to_le_bytes());
            wire.extend_from_slice(&encode(&Message::Goodbye));
            let mut reader = FrameReader::new(wire.as_slice());
            match reader.read_event().unwrap() {
                ReadEvent::Corrupt(e) => assert!(e.contains("unknown message type"), "{e}"),
                other => panic!("type {tag}: expected Corrupt, got {other:?}"),
            }
            assert!(matches!(
                reader.read_event().unwrap(),
                ReadEvent::Message(Message::Goodbye)
            ));
        }
    }

    #[test]
    fn reply_counts_are_bounded_by_their_payload() {
        // A TopK reply declaring 2^60 rows over a short payload must be
        // rejected without allocating.
        let mut payload = vec![3u8];
        payload.extend_from_slice(&(1u64 << 60).to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        let err = read_payload(8, &payload).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }
}
