//! `loloha-cli` — the command-line front end for the LOLOHA toolkit.
//!
//! Seven subcommands, each a thin shell over the library crates:
//!
//! * `params` — resolve a LOLOHA parameterization (g, ε_IRR, the
//!   perturbation pairs, V*, the budget cap) from `(ε∞, α)`.
//! * `simulate` — run one simulator cell (dataset × method × ε∞ × α) and
//!   print the paper's metrics (MSE_avg, ε̌_avg, detection where
//!   applicable).
//! * `collect` — sanitize *your own* longitudinal data: read
//!   `round,user,value` CSV lines from stdin, run BiLOLOHA (or OLOLOHA)
//!   over them, and print the per-round estimated histogram.
//! * `asr` — print the Bayesian MAP attack-success table for a
//!   configuration (the `ldp-attack` closed forms).
//! * `bench` — run (or resume) a resumable accuracy sweep and write its
//!   `<name>.sweep.json` results document (`ldp_harness`).
//! * `collectd` — run the long-running TCP ingestion daemon (`ldp_netd`):
//!   remote workers stream sanitized reports over the `LDNW` wire
//!   protocol; drains on SIGTERM with a durable checkpoint and resumes
//!   mid-round exactly once.
//! * `loadgen` — drive deterministic, replayable traffic at a `collectd`
//!   and report acked throughput.
//!
//! The crate is a library so the argument parser and command
//! implementations are unit-testable; `main.rs` is a two-line shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cmd_asr;
pub mod cmd_bench;
pub mod cmd_collect;
pub mod cmd_collectd;
pub mod cmd_loadgen;
pub mod cmd_params;
pub mod cmd_simulate;

use std::fmt;

/// A CLI-level error: message plus the exit code to use.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Human-readable description, printed to stderr.
    pub message: String,
}

impl CliError {
    /// Builds an error from anything printable.
    pub fn new(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
pub const USAGE: &str = "\
loloha-cli — longitudinal LDP frequency estimation (LOLOHA, EDBT 2023)

USAGE:
  loloha-cli params   --eps-inf E --alpha A [--g G | --optimal]
  loloha-cli simulate --method M --dataset D --eps-inf E --alpha A
                      [--runs R] [--n-frac F] [--tau-frac F] [--seed S]
  loloha-cli collect  --k K --eps-inf E --alpha A [--optimal] [--seed S]
                      [--shards N] [--workers N] [--checkpoint PATH]
                      (reads `round,user,value` CSV lines from stdin;
                       --workers collects through the concurrent ingest
                       pipeline, --checkpoint persists + restores the
                       shard state mid-round)
  loloha-cli asr      --k K --eps-inf E --alpha A [--seed S]
  loloha-cli bench    [--config SPEC] [--name N] [--out-dir DIR]
                      [--dataset D] [--methods M,..] [--eps E,..]
                      [--alphas A,..] [--runs R] [--n-frac F]
                      [--tau-frac F] [--seed S] [--threads T]
                      [--pair-methods]
                      (resumable accuracy sweep; writes N.sweep.json
                       next to its per-cell checkpoint N.sweep.ckpt)
  loloha-cli collectd --method M --k K --eps-inf E [--alpha A]
                      [--addr HOST:PORT] [--addr-file PATH] [--workers N]
                      [--channel-capacity N] [--batch-reports N]
                      [--idle-timeout-ms MS] [--checkpoint-every N]
                      [--dir DIR] [--metrics PATH]
                      (TCP ingestion daemon; announces its bound address
                       eagerly, drains on SIGTERM or an in-band shutdown,
                       resumes exactly-once from --dir)
  loloha-cli loadgen  --addr HOST:PORT --method M --k K --eps-inf E
                      [--alpha A] [--users N] [--rounds R] [--workers N]
                      [--frame-reports N] [--seed S]
                      [--retry-timeout-ms MS] [--metrics PATH] [--shutdown]
                      (deterministic replayable traffic driver; reports
                       acked reports/s)

METHODS:   rappor | l-osue | l-oue | l-soue | l-grr | biloloha | ololoha |
           1bitflip | bbitflip
DATASETS:  syn | adult | db_mt | db_de
";

/// Dispatches a full argument vector (excluding `argv[0]`); returns the
/// textual output to print on success.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::new(USAGE));
    };
    match cmd.as_str() {
        "params" => cmd_params::run(rest),
        "simulate" => cmd_simulate::run(rest),
        "collect" => cmd_collect::run(rest, &mut std::io::stdin().lock()),
        "asr" => cmd_asr::run(rest),
        "bench" => cmd_bench::run(rest),
        "collectd" => cmd_collectd::run(rest),
        "loadgen" => cmd_loadgen::run(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::new(format!(
            "unknown subcommand `{other}`\n\n{USAGE}"
        ))),
    }
}
