//! The collection service layer: `collectd`, a long-running TCP
//! ingestion daemon over the `LDNW` wire protocol, and `loadgen`, its
//! deterministic client-side traffic driver.
//!
//! Everything below the socket reuses the workspace's existing
//! collection machinery — [`ldp_runtime::Shard`] folds and
//! [`ldp_runtime::ShardedAggregator`] estimates for aggregation, the
//! shard checkpoint codec for durability, [`ldp_client::ClientPool`] as
//! the traffic source — so the network path is a *transport*, not a second
//! implementation: a loadgen → collectd round over loopback produces
//! estimates byte-identical to the in-process collect path, including
//! across a daemon kill + resume mid-round (`tests/drill.rs` pins this
//! for every method).
//!
//! Module map:
//!
//! * [`proto`] — framing, the frame vocabulary, encode/decode
//!   (normative spec: `docs/WIRE_FORMAT.md`).
//! * [`error`] — the typed [`NetError`] taxonomy and wire
//!   [`ErrorCode`]s; hostile bytes select variants, never panics.
//! * [`conn`] — one framed, instrumented connection (both endpoints).
//! * [`daemon`] — [`Collectd`]: accept loop, session dedup,
//!   checkpointing, graceful drain, crash resume.
//! * `rowcache` — the daemon's bounded per-shard cache that expands
//!   LOLOHA ⟨hash, cell⟩ reports into their preimage rows (its byte
//!   cap is [`ROW_CACHE_BYTES`]).
//! * [`loadgen`] — [`run_loadgen`] / [`NetSink`]: deterministic
//!   replayable traffic over [`ldp_client::ReportSink`].
//! * [`store`] — the `LDNS` daemon checkpoint container (nests the
//!   existing `LDPS` shard container).
//! * [`deadline`], [`signal`] — injectable timeouts and the SIGTERM
//!   latch.
//!
//! This crate is collector-side infrastructure: it never sees true
//! values, client seeds, or memoized protocol state — only sanitized
//! reports in transit, like `ldp_ingest` below it. A LOLOHA report may
//! travel as the user's hash and reported cell, which is the paper's
//! own report and no more than its preimage row reveals.

#![warn(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod deadline;
pub mod error;
pub mod loadgen;
pub mod proto;
mod rowcache;
pub mod signal;
pub mod store;

pub use conn::{Conn, Polled};
pub use daemon::{Collectd, DaemonConfig, DaemonReport};
pub use deadline::Deadline;
pub use error::{ErrorCode, NetError};
pub use loadgen::{
    round_values, run_loadgen, LoadgenConfig, LoadgenReport, NetSink, RoundOutcome,
    DEFAULT_FRAME_REPORTS,
};
pub use proto::{
    config_fingerprint, decode_frame, encode_frame, read_frame, write_frame, Frame, HashedBatch,
    CONTROL_WORKER, MAX_FRAME_LEN, MAX_WIRE_DIM, MAX_WIRE_INDICES, MAX_WIRE_REPORTS, WIRE_MAGIC,
    WIRE_VERSION,
};
pub use rowcache::ROW_CACHE_BYTES;
pub use signal::{install_term_handler, request_term, reset_term, term_requested};
pub use store::{decode_net_checkpoint, encode_net_checkpoint, NetCheckpoint, NetStore};
