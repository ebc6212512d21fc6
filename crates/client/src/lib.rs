//! Unified client-side protocol state with parallel sanitization and
//! durable client checkpoints.
//!
//! Every longitudinal protocol in this workspace — the L-UE chains, L-GRR,
//! LOLOHA, dBitFlipPM — is "memoized client state + per-round report", yet
//! each crate historically exposed a slightly different surface and every
//! front end re-implemented its own per-method dispatch. This crate is the
//! client-side counterpart of `ldp_runtime` (aggregation) and `ldp_ingest`
//! (collection):
//!
//! * [`ClientState`] — the object-safe per-user abstraction:
//!   buffer-reusing [`ClientState::report_into`] sanitization, privacy
//!   accounting, and serde-style [`ClientState::save_state`] /
//!   [`ClientState::load_state`] hooks.
//! * [`ClientConfig`] — the registry: one resolved parameterization per
//!   [`Method`](ldp_runtime::Method) (or a custom LOLOHA `g`), with the
//!   single [`ClientConfig::build_state`] constructor every front end
//!   dispatches through.
//! * [`ClientPool`] — the owner of all per-user state in a dense layout
//!   with `(seed, user)`-derived SplitMix/Xoshiro RNG streams, and one
//!   N-way parallel sanitize driver behind every round method: it feeds
//!   each worker's reports into a [`ReportSink`] — a batching submitter
//!   onto an `ldp_ingest::IngestPipeline` ([`ClientPool::sanitize_round`]),
//!   a caller's sink such as a network client
//!   ([`ClientPool::sanitize_round_sinks`]), or an aggregator shard
//!   ([`ClientPool::sanitize_round_into_shards`]) — bit-identical to a
//!   single-threaded pass for any worker count.
//! * [`ClientStore`] / [`ClientCheckpoint`] — durable client-state
//!   checkpoints in the workspace's unified container codec
//!   ([`ldp_primitives::codec`]; on-disk spec in
//!   `docs/CHECKPOINT_FORMAT.md`), so `collect --checkpoint
//!   --client-checkpoint` resumes *both* shard and client state mid-round
//!   byte-identically. A chunked store ([`ClientStore::chunked`] +
//!   [`ClientStore::save_pool`]) snapshots incrementally: only segments
//!   whose users reported since the last save are rewritten, O(changed
//!   users) per round. Decoding failures are typed [`ClientStoreError`]s,
//!   never panics.
//! * [`DetectionTrack`] — the dBitFlipPM change-detection tracker, which
//!   is client state (it checkpoints with the memo so resumed runs
//!   reproduce the Table 2 metrics exactly).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detect;
pub mod pool;
pub mod state;
pub mod store;

pub use config::ClientConfig;
pub use detect::DetectionTrack;
pub use pool::{ClientPool, ReportSink, USER_STREAM_TAG};
pub use state::{ClientState, DBitState, HashedReport, LolohaState, ReportBuf};
pub use store::{
    decode_client_checkpoint, encode_client_checkpoint, CheckpointMeta, ClientCheckpoint,
    ClientRecord, ClientStore, ClientStoreError, SaveStats,
};
