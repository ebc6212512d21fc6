//! Input generators. They run in the benchmark, take the seed as an
//! argument, and the values they produce are the only input the program
//! is handed.

use ldp_datasets::{empirical_histogram, AdultLikeDataset, DatasetSpec, FolkLikeDataset};
use std::fmt::Write as _;

/// A seed never used while the benchmark was written or tuned (that used
/// seeds 1 to 20). A claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 90_210;

/// Longitudinal budget ε∞ of every workload.
pub const EPS_INF: f64 = 2.0;
/// First-report fraction α (ε1 = α·ε∞) of every workload.
pub const ALPHA: f64 = 0.5;
/// Client threads, connections, ingest workers and concurrent jobs: one
/// per hardware thread of the two-vCPU host the benchmark was tuned on.
pub const WORKERS: usize = 2;

/// First-report budget ε1.
pub fn eps_first() -> f64 {
    ALPHA * EPS_INF
}

/// The population sizes a run uses: the paper's, or a tiny one for the
/// self-test.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// DB_MT-shaped evolving values (both DB_MT workloads).
    pub folk: FolkLikeDataset,
    /// Adult-shaped values (`collect-adult`).
    pub adult: AdultLikeDataset,
}

impl Shape {
    /// The paper's DB_MT (k = 1412, n = 10 336, τ = 80) and Adult
    /// (k = 96, n = 45 222) shapes.
    pub fn paper() -> Self {
        Self {
            folk: FolkLikeDataset::montana(),
            adult: AdultLikeDataset::paper(),
        }
    }

    /// A few hundred users, for the self-test.
    pub fn tiny() -> Self {
        Self {
            folk: FolkLikeDataset::montana().scaled(0.03, 0.1),
            adult: AdultLikeDataset::paper().scaled(0.01, 0.01),
        }
    }
}

/// Generated evolving values: `values[t][u]` is user `u`'s value in round
/// `t`, `truth[t]` the true normalized histogram of round `t`.
pub struct Rounds {
    /// Domain size.
    pub k: u64,
    /// Users per round.
    pub n: usize,
    /// Per-round values.
    pub values: Vec<Vec<u64>>,
    /// Per-round true frequencies.
    pub truth: Vec<Vec<f64>>,
}

/// Draws `rounds` rounds of `spec` under `seed`.
pub fn rounds(spec: &dyn DatasetSpec, rounds: usize, seed: u64) -> Rounds {
    let mut data = spec.instantiate(seed);
    let values: Vec<Vec<u64>> = (0..rounds).map(|_| data.step().to_vec()).collect();
    let truth = values
        .iter()
        .map(|v| empirical_histogram(v, spec.k()))
        .collect();
    Rounds {
        k: spec.k(),
        n: spec.n(),
        values,
        truth,
    }
}

/// The `round,user,value` CSV that `loloha-cli collect` reads.
pub fn csv(r: &Rounds) -> String {
    let mut out = String::with_capacity(r.n * r.values.len() * 12 + 20);
    out.push_str("round,user,value\n");
    for (t, vals) in r.values.iter().enumerate() {
        for (u, v) in vals.iter().enumerate() {
            writeln!(out, "{t},{u},{v}").expect("writing to a String cannot fail");
        }
    }
    out
}

/// Seed of the per-user client RNG streams for collection epoch `epoch`,
/// kept apart from the data seed.
pub fn pool_seed(seed: u64, epoch: u64) -> u64 {
    let mut z = seed ^ 0x504F_4F4C_0000_0000 ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
