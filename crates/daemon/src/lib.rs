//! # sbitmap-daemon — `sbitmapd`, the networked §7.2 collector
//!
//! Everything below `sbitmap_stream::collector` moves sketch checkpoints
//! over in-process channels; this crate is the deployment story the
//! paper's §7.2 describes: **node agents on routers ship per-link epoch
//! sketches over TCP to a central collector daemon**, and the transport
//! is allowed to fail.
//!
//! The crate is std-only (no async runtime): the daemon is a small
//! accept loop plus one thread per concurrent session over
//! [`std::net`] (a finished session's thread parks for the next
//! connection), which is both dependency-free and exactly as much
//! concurrency as a collector for hundreds of links needs.
//!
//! * [`server`] — the daemon: handshake with protocol + config echo,
//!   framed batch ingest into a central
//!   [`sbitmap_core::WindowedFleet`], per-connection read/write
//!   deadlines, a bounded absorb queue that exerts backpressure on fast
//!   producers (and sheds with a typed `Busy` answer past a deadline),
//!   typed error frames instead of connection death, a query listener
//!   on a second port, and graceful drain with a final ring checkpoint
//!   to disk. With a data directory configured it is **crash-safe**:
//!   every absorbed frame is write-ahead journaled before its ack,
//!   periodic atomic snapshots truncate the journal, and a restart
//!   recovers the ring (snapshot restore + journal replay) — see
//!   `docs/recovery.md` and the kill-and-recover suite in
//!   `tests/crash.rs`.
//! * [`agent`] — the node agent: ships a shard's epoch frames as v3
//!   delta round chains with a credit window,
//!   reconnects with capped exponential backoff and deterministic
//!   seeded jitter, resumes from the last acked frame (at-least-once —
//!   the collector's absorb guard makes replays no-ops), retains each
//!   epoch's round-0 baseline so a `MissingBaseline` answer triggers a
//!   resync, and bounds its local backlog while the collector is away.
//! * [`loopback`] — the end-to-end harness: daemon + one agent per
//!   shard on loopback TCP, used by the robustness property suites
//!   (`tests/faults.rs`, `tests/replication.rs`) to lock the networked
//!   pipeline — delta codec, framing and TCP — **bit-identical** to the
//!   codec-free reference ring of
//!   [`sbitmap_stream::run_windowed_pipeline`].
//!
//! Fault injection lives in [`sbitmap_stream::fault`]: agents accept a
//! [`sbitmap_stream::FaultPlan`] and wrap their own transport, so every
//! failure mode (cut, stall, corrupt, duplicate, reorder) is exercised
//! through the exact production code path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod loopback;
mod replica;
pub mod server;

pub use agent::{
    query_once, run_agent_rounds, run_agent_rounds_failover, AgentConfig, AgentReport, Backoff,
};
pub use loopback::{run_loopback, run_loopback_replicated, LoopbackOutcome, ReplicatedOutcome};
pub use server::{CrashPoint, CrashSite, Daemon, DaemonConfig, DaemonReport};
