//! System-level property tests: random small configurations through the
//! full pipeline must respect the protocol invariants.

use loloha_suite::client::{ClientConfig, ClientPool};
use loloha_suite::datasets::{DatasetSpec, SynDataset};
use loloha_suite::ingest::IngestPipeline;
use loloha_suite::obs::MetricsRegistry;
use loloha_suite::runtime::{AggregateSnapshot, ShardedAggregator};
use loloha_suite::sim::{run_experiment, ExperimentConfig, Method};
use proptest::prelude::*;

/// A telemetry registry that records nothing.
fn off() -> MetricsRegistry {
    MetricsRegistry::disabled()
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Rappor),
        Just(Method::LOsue),
        Just(Method::LOue),
        Just(Method::LSoue),
        Just(Method::LGrr),
        Just(Method::BiLoloha),
        Just(Method::OLoloha),
        Just(Method::OneBitFlip),
        Just(Method::BBitFlip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (method, ε∞, α, k) cell runs to completion with finite,
    /// invariant-respecting metrics.
    #[test]
    fn pipeline_never_panics_and_respects_caps(
        method in arb_method(),
        eps_inf in 0.3f64..5.0,
        alpha in 0.15f64..0.85,
        k in 4u64..40,
        seed in any::<u64>(),
    ) {
        let ds = SynDataset::new(k, 300, 4, 0.3);
        let cfg = ExperimentConfig::new(method, eps_inf, alpha, seed).expect("valid");
        // The OUE-style IRR (p2 pinned at 1/2) cannot realize first-report
        // budgets close to eps_inf: its composed leakage is bounded away
        // from eps_inf even with zero upward noise. Those cells must be
        // *rejected as errors* (never silently under-delivered); everything
        // else must run.
        let m = match run_experiment(&ds, &cfg) {
            Ok(m) => m,
            Err(e) => {
                prop_assert!(
                    matches!(method, Method::LOue | Method::LSoue),
                    "{method:?} unexpectedly failed: {e}"
                );
                return Ok(());
            }
        };

        prop_assert!(m.eps_avg.is_finite());
        prop_assert!(m.eps_avg > 0.0);
        prop_assert!(m.eps_max >= m.eps_avg - 1e-12);
        prop_assert!(m.distinct_avg >= 1.0);

        // Budget caps per protocol family.
        match method {
            Method::BiLoloha => prop_assert!(m.eps_max <= 2.0 * eps_inf + 1e-9),
            Method::OLoloha => {
                let g = m.reduced_domain.expect("g resolved") as f64;
                prop_assert!(m.eps_max <= g * eps_inf + 1e-9);
            }
            Method::OneBitFlip => prop_assert!(m.eps_max <= 2.0 * eps_inf + 1e-9),
            Method::BBitFlip => {
                let b = m.reduced_domain.expect("b resolved") as f64;
                prop_assert!(m.eps_max <= b * eps_inf + 1e-9);
            }
            _ => prop_assert!(m.eps_max <= k as f64 * eps_inf + 1e-9),
        }

        // MSE is comparable on these small domains and non-negative.
        prop_assert!(m.comparable_mse);
        prop_assert!(m.mse_avg >= 0.0);
    }

    /// `run_experiment` is a pure function of the cell: spreading the same
    /// users over 1, 3, or 8 worker shards yields bit-identical metrics
    /// (per-user RNG streams + the aggregator's order-independent merge).
    #[test]
    fn run_experiment_is_shard_count_invariant(
        method in arb_method(),
        eps_inf in 0.4f64..4.0,
        k in 4u64..24,
        seed in any::<u64>(),
    ) {
        let ds = SynDataset::new(k, 180, 3, 0.3);
        let base = ExperimentConfig::new(method, eps_inf, 0.3, seed).expect("valid");
        // Infeasible (method, budget) cells are covered by the validation
        // suites; here only runnable cells are compared across shard counts.
        let reference = match run_experiment(&ds, &base.with_threads(1)) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        for threads in [3usize, 8] {
            let m = run_experiment(&ds, &base.with_threads(threads)).expect("runnable");
            prop_assert_eq!(
                reference.mse_avg.to_bits(), m.mse_avg.to_bits(),
                "{:?} mse differs at {} threads", method, threads
            );
            prop_assert_eq!(
                reference.eps_avg.to_bits(), m.eps_avg.to_bits(),
                "{:?} eps_avg differs at {} threads", method, threads
            );
            prop_assert_eq!(
                reference.eps_max.to_bits(), m.eps_max.to_bits(),
                "{:?} eps_max differs at {} threads", method, threads
            );
            prop_assert_eq!(
                reference.distinct_avg.to_bits(), m.distinct_avg.to_bits(),
                "{:?} distinct_avg differs at {} threads", method, threads
            );
        }
    }

    /// Collecting through the concurrent `ldp_ingest` pipeline is
    /// bit-identical to the direct shard-filling path, for every method
    /// and worker count (the subsystem's determinism contract at the
    /// whole-system level): the same round counts and estimates, and the
    /// same per-user privacy spend, memoized classes and detection state.
    #[test]
    fn piped_collection_is_bit_identical_to_direct(
        method in arb_method(),
        eps_inf in 0.4f64..4.0,
        k in 4u64..24,
        seed in any::<u64>(),
    ) {
        let ds = SynDataset::new(k, 180, 3, 0.3);
        let base = ExperimentConfig::new(method, eps_inf, 0.3, seed).expect("valid");
        let eps_first = base.eps_first();
        let Ok(cfg) = ClientConfig::for_method(method, k, eps_inf, eps_first) else {
            return Ok(()); // infeasible cells covered elsewhere
        };
        let n = ds.n();
        let rounds: Vec<Vec<u64>> = {
            let mut data = ds.instantiate(seed);
            (0..ds.tau()).map(|_| data.step().to_vec()).collect()
        };
        let mut direct = ClientPool::with_obs(cfg, seed, n, &off()).expect("valid");
        let mut agg = ShardedAggregator::for_method_obs(method, k, eps_inf, eps_first, 1, &off())
            .expect("valid");
        let want: Vec<AggregateSnapshot> = rounds
            .iter()
            .map(|values| {
                direct.sanitize_round_into_shards(values, agg.shards_mut());
                agg.finish_round()
            })
            .collect();
        // {1, 4} are pinned per-method in the client pool's suite; the
        // remaining counts keep tier-1 wall time in budget here.
        for workers in [2usize, 8] {
            let mut piped = ClientPool::with_obs(cfg, seed, n, &off()).expect("valid");
            let mut pipe =
                IngestPipeline::for_method_obs(method, k, eps_inf, eps_first, workers, &off())
                    .expect("valid");
            for (t, values) in rounds.iter().enumerate() {
                piped.sanitize_round(values, workers, &pipe.handle()).expect("ingest worker lost");
                let got = pipe.finish_round().expect("ingest worker lost");
                prop_assert_eq!(
                    &want[t].counts, &got.counts,
                    "{:?} piped counts differ at {} workers, round {}", method, workers, t
                );
                let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(&want[t].estimate), bits(&got.estimate),
                    "{:?} piped estimate differs at {} workers, round {}", method, workers, t
                );
            }
            for (u, (a, b)) in direct.states().zip(piped.states()).enumerate() {
                prop_assert_eq!(
                    a.privacy_spent().to_bits(), b.privacy_spent().to_bits(),
                    "{:?} user {} privacy_spent differs at {} workers", method, u, workers
                );
                prop_assert_eq!(
                    a.distinct_classes(), b.distinct_classes(),
                    "{:?} user {} distinct_classes differs at {} workers", method, u, workers
                );
                prop_assert_eq!(
                    a.detection(), b.detection(),
                    "{:?} user {} detection differs at {} workers", method, u, workers
                );
            }
        }
    }

    /// The privacy loss never decreases when the stream runs longer.
    #[test]
    fn privacy_loss_is_monotone_in_tau(
        method in arb_method(),
        seed in any::<u64>(),
    ) {
        let short = SynDataset::new(16, 200, 2, 0.4);
        let long = SynDataset::new(16, 200, 10, 0.4);
        // α = 0.3 keeps every chain (including the OUE-IRR extensions)
        // feasible at ε∞ = 1.
        let cfg = ExperimentConfig::new(method, 1.0, 0.3, seed).expect("valid");
        let a = run_experiment(&short, &cfg).expect("runnable");
        let b = run_experiment(&long, &cfg).expect("runnable");
        prop_assert!(
            b.eps_avg >= a.eps_avg - 1e-9,
            "{method:?}: tau=10 spent {} < tau=2 spent {}",
            b.eps_avg, a.eps_avg
        );
    }
}

/// The full-collector resume drill through the facade surface: client
/// pool and shard pipeline both checkpoint to real files mid-round, both
/// rebuild from the files, and the finished rounds are bit-identical to
/// an uninterrupted run — for every method.
#[test]
fn dual_checkpoint_resume_is_bit_identical_at_system_level() {
    use loloha_suite::prelude::*;

    let (k, n, seed) = (12u64, 30usize, 21u64);
    let dir = std::env::temp_dir();
    let client_path = dir.join(format!("loloha_sys_client_{}.ckpt", std::process::id()));
    let shard_path = dir.join(format!("loloha_sys_shard_{}.ckpt", std::process::id()));

    for method in Method::all() {
        let values: Vec<u64> = (0..n as u64).map(|u| (u * 5 + 1) % k).collect();
        let assigns: Vec<(usize, u64)> = values.iter().copied().enumerate().collect();
        let mid = n / 2;

        let cfg = ClientConfig::for_method(method, k, 2.0, 1.0).unwrap();
        let mut ref_pool = ClientPool::with_obs(cfg, seed, n, &off()).unwrap();
        let mut ref_pipe = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 2, &off()).unwrap();
        let h = ref_pipe.handle();
        ref_pool.sanitize_round(&values, 2, &h).unwrap();
        drop(h);
        let want = ref_pipe.finish_round().unwrap();

        // Interrupted: half the round, dual save, crash, dual restore.
        let mut pool = ClientPool::with_obs(cfg, seed, n, &off()).unwrap();
        let pipe = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 3, &off()).unwrap();
        let h = pipe.handle();
        pool.sanitize_assignments(&assigns[..mid], 3, &h).unwrap();
        drop(h);
        ClientStore::new(&client_path, &off())
            .save(&pool.checkpoint())
            .unwrap();
        ShardStore::with_obs(&shard_path, &off())
            .save(&pipe.checkpoint().unwrap())
            .unwrap();
        drop(pool);
        drop(pipe);

        let mut pool = ClientPool::with_obs(cfg, seed, n, &off()).unwrap();
        pool.restore(&ClientStore::new(&client_path, &off()).load().unwrap())
            .unwrap();
        let mut pipe = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 4, &off()).unwrap();
        pipe.restore(&ShardStore::with_obs(&shard_path, &off()).load().unwrap())
            .unwrap();
        let h = pipe.handle();
        pool.sanitize_assignments(&assigns[mid..], 4, &h).unwrap();
        drop(h);
        let got = pipe.finish_round().unwrap();

        assert_eq!(want.counts, got.counts, "{method:?}");
        assert_eq!(want.reports, got.reports, "{method:?}");
        for (a, b) in want.estimate.iter().zip(&got.estimate) {
            assert_eq!(a.to_bits(), b.to_bits(), "{method:?}");
        }
        for (a, b) in ref_pool.states().zip(pool.states()) {
            assert_eq!(a.privacy_spent().to_bits(), b.privacy_spent().to_bits());
            assert_eq!(a.distinct_classes(), b.distinct_classes());
        }
    }
    std::fs::remove_file(&client_path).ok();
    std::fs::remove_file(&shard_path).ok();
}
