//! Facade crate for the LOLOHA reproduction workspace.
//!
//! Re-exports every member crate under one roof so the repository-level
//! examples and integration tests — and downstream users who just want
//! "the whole system" — need a single dependency:
//!
//! * [`loloha`] — the LOLOHA protocol family (the paper's contribution).
//! * [`longitudinal`] — the RAPPOR / L-OSUE / L-GRR / dBitFlipPM baselines.
//! * [`primitives`] — one-shot LDP oracles (GRR, BLH/OLH, SUE/OUE) and the
//!   estimator/variance toolbox.
//! * [`hash`] — universal hash families and bucketing.
//! * [`rand`] — deterministic RNG streams and samplers.
//! * [`datasets`] — the Syn / Adult-like / folktables-like workloads.
//! * [`sim`] — the longitudinal collection simulator and metrics.
//! * [`analysis`] — closed-form Fig. 1 / Fig. 2 / Table 1 reproduction.
//! * [`shuffle`] — the shuffle-model extension (the paper's future work).
//! * [`postprocess`] — consistency repair and temporal smoothing of
//!   estimates (free under LDP post-processing).
//! * [`attack`] — adversarial analysis: Bayesian ASR, averaging attacks,
//!   linkability, change-detection exposure.
//! * [`multidim`] — multi-attribute collection (SPL / SMP / RS+FD), the
//!   paper's `multi-freq-ldpy` future-work integration.
//! * [`heavyhitters`] — top-k with confidence, PEM over huge domains, and
//!   longitudinal heavy-hitter tracking.
//! * [`runtime`] — the sharded streaming aggregation engine every front
//!   end (simulator, CLI, examples) collects reports through.
//! * [`ingest`] — the concurrent worker-per-shard ingestion pipeline over
//!   the runtime, with durable shard-state checkpoints for restart-safe
//!   collection rounds.
//! * [`client`] — the unified client side: the object-safe `ClientState`
//!   trait, the registry-driven `ClientPool` with parallel sanitization
//!   into the ingest pipeline, and durable client-state checkpoints for
//!   full-collector resume.
//! * [`harness`] — the resumable experiment runner: per-cell seeded
//!   accuracy sweeps with `LDHS` checkpoints and a validated
//!   `<name>.sweep.json` results document.
//! * [`obs`] — the privacy-safe telemetry layer: atomic counters, gauges,
//!   and histograms behind no-op-able handles, `Span` timers, and the
//!   deterministic `OBS_FORMAT.md` snapshot exporter the collection
//!   pipeline reports through.
//! * [`netd`] — the collection service layer: `collectd`, a TCP
//!   ingestion daemon over the `LDNW` wire protocol with durable
//!   exactly-once resume, and `loadgen`, its deterministic replayable
//!   traffic driver.
//!
//! Downstream users who only need the stable surface should prefer
//! [`prelude`], which curates the commonly used items instead of exposing
//! every internal of every crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prelude;

pub use ldp_analysis as analysis;
pub use ldp_attack as attack;
pub use ldp_client as client;
pub use ldp_datasets as datasets;
pub use ldp_harness as harness;
pub use ldp_hash as hash;
pub use ldp_heavyhitters as heavyhitters;
pub use ldp_ingest as ingest;
pub use ldp_longitudinal as longitudinal;
pub use ldp_multidim as multidim;
pub use ldp_netd as netd;
pub use ldp_obs as obs;
pub use ldp_postprocess as postprocess;
pub use ldp_primitives as primitives;
pub use ldp_rand as rand;
pub use ldp_runtime as runtime;
pub use ldp_shuffle as shuffle;
pub use ldp_sim as sim;
pub use loloha;
