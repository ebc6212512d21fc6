//! Multi-threaded longitudinal LDP collection simulator (§5 of the paper).
//!
//! Drives `n` stateful clients through `τ` collection rounds of an evolving
//! dataset, aggregates their reports server-side, and computes the paper's
//! evaluation metrics:
//!
//! * [`metrics`] — `MSE_avg` (Eq. (7)) against per-step ground truth, and
//!   the averaged longitudinal privacy loss `ε̌_avg` (Eq. (8)).
//! * [`engine`] — the runner: user chunks are processed on worker threads
//!   (per-user RNG streams make results independent of the thread count),
//!   support counts are merged, and the matching server estimator is
//!   applied each round.
//! * [`detection`] — the Table 2 attack on dBitFlipPM: a report change
//!   implies a bucket change (memoized responses are deterministic), so the
//!   attacker flags exactly the rounds whose report differs from the
//!   previous one.
//! * [`attack`] — the averaging attack that motivates memoization
//!   (§2.4): repeated fresh-noise reports expose the true value, memoized
//!   reports do not.
//! * [`table`] — minimal CSV/markdown emitters for the bench harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod detection;
pub mod engine;
pub mod metrics;
pub mod table;

pub use config::{ExperimentConfig, Method};
pub use engine::{run_experiment, RunMetrics};
pub use metrics::{mean, mse, std_dev, Summary};
