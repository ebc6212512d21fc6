//! `ldp_harness` — the resumable experiment harness.
//!
//! Drives the sweep grid (dataset × method × ε∞ × α × runs) over the
//! `ldp_sim` engine with **per-cell seeds derived from the full cell
//! coordinates** ([`cell_seed`]), checkpoints progress after every cell
//! through the `LDHS` codec container (`docs/CHECKPOINT_FORMAT.md` §8),
//! and writes the machine-readable `<name>.sweep.json` results document
//! (`docs/SWEEP_FORMAT.md`). Throughput is measured elsewhere, by the
//! repository benchmark (`perfbench/`).
//!
//! Entry point: [`ExperimentRunner::run`] over a validated
//! [`RunnerConfig`]. A killed run resumes at the next incomplete cell
//! with byte-identical results; a finished run re-invoked is a no-op.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod grid;
pub mod json;
pub mod runner;
pub mod seed;

pub use checkpoint::{load_progress, save_progress, CellMetrics, SweepProgress};
pub use config::{parse_method, RunnerConfig};
pub use grid::{run_cell, CellResult};
pub use json::Json;
pub use runner::{validate_sweep, ExperimentRunner, RunOutcome, SweepOutcome, SWEEP_SCHEMA};
pub use seed::cell_seed;

use ldp_primitives::codec::CodecError;

/// Everything that can go wrong driving a harness run.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// Invalid configuration (spec file, flag value, or combination).
    Config(String),
    /// Checkpoint codec failure (corrupt file, foreign config, I/O).
    Codec(CodecError),
    /// Filesystem failure outside the codec (results document write).
    Io(String),
    /// Results document failed schema validation.
    Json(String),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "config error: {msg}"),
            Self::Codec(e) => write!(f, "checkpoint error: {e}"),
            Self::Io(msg) => write!(f, "io error: {msg}"),
            Self::Json(msg) => write!(f, "sweep document schema error: {msg}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for HarnessError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}
