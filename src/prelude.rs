//! Curated re-exports of the suite's stable surface.
//!
//! The facade's crate-level re-exports (`loloha_suite::primitives`, …)
//! expose *every* internal item of every subsystem. Downstream code that
//! just wants to run a collection should not need to know which crate each
//! type lives in, so this module gathers the pieces a typical deployment
//! touches: parameterization, clients, servers/estimators, the sharded
//! aggregation runtime, datasets, and the RNG substrate.
//!
//! ```
//! use loloha_suite::prelude::*;
//!
//! let params = LolohaParams::bi(1.0, 0.5).unwrap();
//! let obs = MetricsRegistry::disabled();
//! let agg = ShardedAggregator::for_loloha_obs(100, params, 4, &obs).unwrap();
//! assert_eq!(agg.shard_count(), 4);
//! ```

// Parameterization and closed-form theory.
pub use ldp_primitives::{ParamError, PerturbParams};

// The unified checkpoint codec every durable format encodes through
// (`ShardStoreError`, `ClientStoreError`, and `loloha::PersistError` are
// aliases of `CodecError`).
pub use ldp_primitives::{CodecError, CodecReader, CodecWriter};
pub use loloha::{optimal_g, LolohaParams};

// Client-side protocol state.
pub use ldp_longitudinal::{DBitFlipClient, LgrrClient, LongitudinalUeClient, UeChain};
pub use loloha::LolohaClient;

// Server-side estimation and monitoring.
pub use ldp_longitudinal::{DBitFlipServer, LgrrServer, LueServer};
pub use loloha::{FrequencyMonitor, LolohaServer, RoundEstimate};

// One-shot primitives (GRR and unary encoding) and the estimator toolbox.
pub use ldp_primitives::estimator::{
    chained_frequency_estimates, chained_variance, chained_variance_approx, frequency_estimates,
    single_variance_approx,
};
pub use ldp_primitives::{BitVec, Grr, UeClient, UeServer};

// The sharded streaming aggregation runtime.
pub use ldp_runtime::{dbit_buckets, AggregateSnapshot, Method, Shard, ShardedAggregator};

// Concurrent ingestion and durable shard-state checkpoints.
pub use ldp_ingest::{
    decode_checkpoint, encode_checkpoint, BatchSubmitter, IngestError, IngestHandle,
    IngestPipeline, ReportBatch, ShardCheckpoint, ShardState, ShardStore, ShardStoreError,
    DEFAULT_BATCH_REPORTS,
};

// The unified client side: per-user state behind one trait, pooled with
// parallel sanitization and durable client checkpoints.
pub use ldp_client::{
    ClientCheckpoint, ClientConfig, ClientPool, ClientState, ClientStore, ClientStoreError,
    ReportBuf, SaveStats,
};

// Hashing substrate (LOLOHA's domain reduction needs these at the edges).
pub use ldp_hash::{CarterWegman, CwHash, Preimages, SeededHash};

// Deterministic randomness.
pub use ldp_rand::{derive_rng, derive_rng2, uniform_f64, uniform_u64, LdpRng};

// Workloads and the experiment driver.
pub use ldp_datasets::{
    empirical_histogram, paper_datasets, scaled_datasets, AdultLikeDataset, DatasetSpec,
    FolkLikeDataset, SynDataset,
};
pub use ldp_sim::{run_experiment, ExperimentConfig, RunMetrics};

// The resumable experiment harness (accuracy sweeps, checkpoints).
pub use ldp_harness::{cell_seed, CellResult, ExperimentRunner, RunnerConfig};

// Privacy-safe telemetry: the registry the collection pipeline records
// into, the handle types instrumented components hold, and the
// deterministic snapshot exporter.
pub use ldp_obs::{
    validate_snapshot_str, Counter, Gauge, Histogram, MetricsRegistry, ObsSnapshot, Span,
};

// The network collection service: daemon, traffic driver, and the typed
// wire-error taxonomy a deployment handles.
pub use ldp_netd::{
    run_loadgen, Collectd, DaemonConfig, DaemonReport, ErrorCode, LoadgenConfig, LoadgenReport,
    NetError,
};
