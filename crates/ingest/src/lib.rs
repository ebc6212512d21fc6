//! Concurrent shard-parallel ingestion with durable shard-state
//! checkpoints.
//!
//! `ldp_runtime` gives the workspace *sharded* aggregation — independent
//! partial histograms with a deterministic, order-independent merge — but
//! filling those shards was still the caller's job, on the caller's
//! thread. This crate adds the missing collector half for population-scale
//! deployments:
//!
//! * [`IngestPipeline`] — a worker-per-shard thread pool over bounded
//!   `mpsc` channels: packed report batches are routed to a worker,
//!   drained into its own [`ldp_runtime::Shard`], and merged at round
//!   close. Bounded channels give backpressure instead of unbounded
//!   buffering.
//! * [`BatchSubmitter`] / [`ReportBatch`] — the one report transport,
//!   zero-alloc in steady state: reports pack into recycled per-shard
//!   buffers — `u32` index lists, or bit rows for dense supports — and
//!   cross the channel one envelope per [`DEFAULT_BATCH_REPORTS`]
//!   reports (see the [`batch`] module).
//! * [`Router`] — deterministic report → shard placement (a stable hash
//!   of the report's key), so replays fill the same shards.
//! * [`ShardStore`] / [`ShardCheckpoint`] — a versioned, length-prefixed,
//!   checksummed binary snapshot of per-shard counts + report totals with
//!   atomic file replacement, so a collection round can resume *mid-fill*
//!   after a restart. Decoding failures are typed [`ShardStoreError`]s,
//!   never panics.
//!
//! # Determinism contract
//!
//! Concurrent runs are bit-identical to single-threaded replay for any
//! worker count: shard accumulation and the cross-shard merge are both
//! order-independent sums, and report routing is a pure function of the
//! report key. See the [`pipeline`] module docs for the
//! precise argument, and `tests/` for the property suite that pins it
//! across every [`Method`](ldp_runtime::Method) and worker counts
//! {1, 2, 4, 8}.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod pipeline;
pub mod router;
pub mod store;

pub use batch::{Report, ReportBatch, DEFAULT_BATCH_REPORTS};
pub use pipeline::{
    BatchSubmitter, IngestError, IngestHandle, IngestPipeline, ShardState, DEFAULT_CHANNEL_CAPACITY,
};
pub use router::Router;
pub use store::{
    decode_checkpoint, encode_checkpoint, ShardCheckpoint, ShardStore, ShardStoreError,
};
