//! The longitudinal collection runner.
//!
//! One call to [`run_experiment`] simulates a full (dataset, method, ε∞, α)
//! cell: `n` stateful clients over `τ` rounds, server-side estimation each
//! round, and the paper's metrics at the end.
//!
//! The engine is a thin driver: all per-user client state lives in an
//! [`ldp_client::ClientPool`] (constructed through the method registry, so
//! there is no per-method dispatch here at all) and all aggregation in
//! [`ldp_runtime::ShardedAggregator`]. The pool's users are partitioned
//! into chunks, each worker thread sanitizing one chunk straight into its
//! own aggregator shard, and the aggregator merges and estimates at the
//! end of every round. No snapshot of a sweep's telemetry is ever read,
//! so the pool and the aggregator record into a disabled registry.
//!
//! Each user owns an independent RNG stream derived from `(seed, user)`
//! and the shard merge is an order-independent sum, so results are
//! bit-identical regardless of the thread/shard count.

use crate::config::{ExperimentConfig, Method};
use crate::detection::DetectionSummary;
use crate::metrics::mse;
use ldp_client::{ClientConfig, ClientPool};
use ldp_datasets::{empirical_histogram, DatasetSpec};
use ldp_obs::MetricsRegistry;
use ldp_primitives::error::ParamError;
use ldp_runtime::ShardedAggregator;

/// Outcome of one experiment cell.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Eq. (7): MSE averaged over the τ rounds. `NaN` when the method's
    /// output histogram is not k-binned (dBitFlipPM with b < k), mirroring
    /// the paper's exclusion in Figs. 3c/3d.
    pub mse_avg: f64,
    /// Eq. (8): longitudinal privacy loss ε̌ averaged over users.
    pub eps_avg: f64,
    /// The worst user's ε̌.
    pub eps_max: f64,
    /// Average number of distinct memoized input classes per user.
    pub distinct_avg: f64,
    /// Table 2 detection outcome (dBitFlipPM only).
    pub detection: Option<DetectionSummary>,
    /// The resolved reduced domain size: g for LOLOHA, b for dBitFlipPM.
    pub reduced_domain: Option<u32>,
    /// Whether `mse_avg` is a comparable k-bin MSE.
    pub comparable_mse: bool,
}

/// Builds the population behind the method registry: every user's state
/// and RNG stream comes from `ldp_client`, with no per-method dispatch in
/// the engine.
fn build_pool(cfg: &ExperimentConfig, k: u64, n: usize) -> Result<ClientPool, ParamError> {
    let client_cfg = ClientConfig::for_method(cfg.method, k, cfg.eps_inf, cfg.eps_first())?;
    ClientPool::with_obs(client_cfg, cfg.seed, n, &MetricsRegistry::disabled())
}

/// Final per-user metrics, read in fixed user order (independent of the
/// threading layout during collection).
fn finalize_metrics(
    pool: &ClientPool,
    cfg: &ExperimentConfig,
    n: usize,
    mse_sum: f64,
    mse_rounds: usize,
    agg: &ShardedAggregator,
) -> RunMetrics {
    let mut eps_sum = 0.0;
    let mut eps_max = 0.0f64;
    let mut distinct_sum = 0.0;
    for state in pool.states() {
        let spent = state.privacy_spent();
        eps_sum += spent;
        eps_max = eps_max.max(spent);
        distinct_sum += state.distinct_classes() as f64;
    }
    let detection = if matches!(cfg.method, Method::OneBitFlip | Method::BBitFlip) {
        Some(DetectionSummary::from_tracks(
            pool.states().filter_map(|s| s.detection()),
        ))
    } else {
        None
    };
    RunMetrics {
        mse_avg: if mse_rounds > 0 {
            mse_sum / mse_rounds as f64
        } else {
            f64::NAN
        },
        eps_avg: eps_sum / n as f64,
        eps_max,
        distinct_avg: distinct_sum / n as f64,
        detection,
        reduced_domain: agg.reduced_domain(),
        comparable_mse: agg.k_binned(),
    }
}

/// Runs one experiment cell and returns its metrics.
pub fn run_experiment(
    dataset: &dyn DatasetSpec,
    cfg: &ExperimentConfig,
) -> Result<RunMetrics, ParamError> {
    let k = dataset.k();
    let n = dataset.n();
    let tau = dataset.tau();

    // One aggregator shard per worker thread.
    let threads = cfg.effective_threads().clamp(1, n.max(1));
    let mut agg = ShardedAggregator::for_method_obs(
        cfg.method,
        k,
        cfg.eps_inf,
        cfg.eps_first(),
        threads,
        &MetricsRegistry::disabled(),
    )?;
    let mut pool = build_pool(cfg, k, n)?;

    let mut data = dataset.instantiate(cfg.seed);
    let mut mse_sum = 0.0;
    let mut mse_rounds = 0usize;

    for _t in 0..tau {
        let values = data.step();
        assert_eq!(values.len(), n, "dataset produced wrong population size");
        // The aggregator starts zeroed and finish_round resets the shards,
        // so each iteration begins on a clean round.
        pool.sanitize_round_into_shards(values, agg.shards_mut());
        let round = agg.finish_round();
        debug_assert_eq!(round.reports, n as u64, "every user reports every round");
        if agg.k_binned() {
            let truth = empirical_histogram(values, k);
            mse_sum += mse(&round.estimate, &truth);
            mse_rounds += 1;
        }
    }

    Ok(finalize_metrics(&pool, cfg, n, mse_sum, mse_rounds, &agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_datasets::SynDataset;

    fn small_syn() -> SynDataset {
        SynDataset::new(24, 3_000, 6, 0.25)
    }

    fn run(method: Method, eps_inf: f64, alpha: f64) -> RunMetrics {
        let cfg = ExperimentConfig::new(method, eps_inf, alpha, 77).unwrap();
        run_experiment(&small_syn(), &cfg).unwrap()
    }

    #[test]
    fn all_methods_produce_finite_metrics() {
        for method in Method::paper_set() {
            let m = run(method, 2.0, 0.5);
            assert!(m.eps_avg.is_finite(), "{method:?}");
            assert!(m.eps_avg > 0.0, "{method:?}");
            assert!(m.comparable_mse, "{method:?} (b = k here)");
            assert!(m.mse_avg.is_finite(), "{method:?}");
            assert!(m.mse_avg >= 0.0, "{method:?}");
        }
    }

    #[test]
    fn results_are_shard_count_invariant_for_every_method() {
        // The aggregator merge is an order-independent sum and every user
        // owns a (seed, user)-derived RNG stream, so 1, 3, and 8 worker
        // shards must agree bit-for-bit — for all nine protocol variants.
        let ds = SynDataset::new(16, 240, 3, 0.3);
        for method in Method::all() {
            let base = ExperimentConfig::new(method, 2.0, 0.5, 5).unwrap();
            let reference = run_experiment(&ds, &base.with_threads(1)).unwrap();
            for threads in [3usize, 8] {
                let m = run_experiment(&ds, &base.with_threads(threads)).unwrap();
                assert_eq!(
                    reference.mse_avg.to_bits(),
                    m.mse_avg.to_bits(),
                    "{method:?} mse at {threads} threads"
                );
                assert_eq!(
                    reference.eps_avg.to_bits(),
                    m.eps_avg.to_bits(),
                    "{method:?} eps at {threads} threads"
                );
                assert_eq!(
                    reference.distinct_avg.to_bits(),
                    m.distinct_avg.to_bits(),
                    "{method:?} distinct at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn loloha_budget_beats_baselines_under_churn() {
        // The headline claim: under frequent changes, BiLOLOHA's ε̌_avg is
        // far below RAPPOR's, and capped at 2ε∞ while RAPPOR keeps growing
        // with every distinct value (≈ 1 + 0.25·(τ−1) of them here).
        let ds = SynDataset::new(24, 2_000, 20, 0.25);
        let rappor = run_experiment(
            &ds,
            &ExperimentConfig::new(Method::Rappor, 1.0, 0.5, 77).unwrap(),
        )
        .unwrap();
        let bi = run_experiment(
            &ds,
            &ExperimentConfig::new(Method::BiLoloha, 1.0, 0.5, 77).unwrap(),
        )
        .unwrap();
        assert!(
            bi.eps_avg < rappor.eps_avg / 2.0,
            "BiLOLOHA {} vs RAPPOR {}",
            bi.eps_avg,
            rappor.eps_avg
        );
        assert!(bi.eps_max <= 2.0 + 1e-9, "BiLOLOHA cap 2ε∞");
        assert!(rappor.eps_max > 2.0, "RAPPOR should exceed the LOLOHA cap");
    }

    #[test]
    fn one_bitflip_detection_is_rare_and_b_bitflip_near_total() {
        let one = run(Method::OneBitFlip, 1.0, 0.5);
        let full = run(Method::BBitFlip, 1.0, 0.5);
        let one_rate = one.detection.unwrap().rate();
        let full_rate = full.detection.unwrap().rate();
        assert!(one_rate < 0.05, "1BitFlipPM rate {one_rate}");
        assert!(full_rate > 0.95, "bBitFlipPM rate {full_rate}");
    }

    #[test]
    fn ololoha_mse_not_worse_than_biloloha_low_privacy() {
        // In low-privacy regimes OLOLOHA's larger g buys utility.
        let bi = run(Method::BiLoloha, 5.0, 0.6);
        let o = run(Method::OLoloha, 5.0, 0.6);
        assert!(o.reduced_domain.unwrap() > 2);
        assert!(
            o.mse_avg <= bi.mse_avg * 1.5,
            "O {} vs Bi {}",
            o.mse_avg,
            bi.mse_avg
        );
    }

    #[test]
    fn large_domain_dbitflip_mse_is_flagged_incomparable() {
        let ds = ldp_datasets::FolkLikeDataset::new("T", 800, 500, 3, 0.004);
        let cfg = ExperimentConfig::new(Method::BBitFlip, 1.0, 0.5, 3).unwrap();
        let m = run_experiment(&ds, &cfg).unwrap();
        assert!(!m.comparable_mse);
        assert!(m.mse_avg.is_nan());
        assert_eq!(m.reduced_domain, Some(200));
    }
}
