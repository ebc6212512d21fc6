//! The pipeline's determinism contract, property-tested: for every
//! `Method`, worker count ∈ {1, 2, 4, 8} and batch size, concurrent
//! ingestion through the batched transport is bit-identical to a
//! single-threaded `ShardedAggregator` replay.

use ldp_ingest::{IngestPipeline, ShardCheckpoint, ShardState, DEFAULT_BATCH_REPORTS};
use ldp_obs::MetricsRegistry;
use ldp_rand::{derive_rng, uniform_u64};
use ldp_runtime::{AggregateSnapshot, Method, ShardedAggregator};
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

/// Deterministic pseudo-random report supports over `[0, dim)`.
fn synth_reports(dim: usize, n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = derive_rng(seed, 0x1A6E);
    (0..n)
        .map(|_| {
            let len = 1 + uniform_u64(&mut rng, 4) as usize;
            (0..len)
                .map(|_| uniform_u64(&mut rng, dim as u64) as usize)
                .collect()
        })
        .collect()
}

fn assert_bit_identical(a: &AggregateSnapshot, b: &AggregateSnapshot, ctx: &str) {
    assert_eq!(a.counts, b.counts, "{ctx}: merged counts");
    assert_eq!(a.reports, b.reports, "{ctx}: report totals");
    assert_eq!(a.estimate.len(), b.estimate.len(), "{ctx}: estimate length");
    for (i, (x, y)) in a.estimate.iter().zip(&b.estimate).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: estimate bin {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipeline rounds are bit-identical to the single-threaded aggregator
    /// for every method and worker count, over two consecutive rounds (the
    /// second round also proves workers reset cleanly).
    #[test]
    fn pipeline_equals_single_thread_for_all_methods(
        method in arb_method(),
        k in 6u64..20,
        n in 0usize..50,
        seed in any::<u64>(),
    ) {
        let mut single = ShardedAggregator::for_method_obs(method, k, 2.0, 1.0, 1, &off()).expect("valid");
        let dim = single.dim();
        for workers in [1usize, 2, 4, 8] {
            let mut pipe = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, workers, &off())
                .expect("valid");
            for round in 0..2u64 {
                let reports = synth_reports(dim, n, seed ^ round);
                let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
                for (i, support) in reports.iter().enumerate() {
                    single.push_report(0, support.iter().copied());
                    sub.submit(i as u64, support.iter().copied()).expect("submit");
                }
                sub.finish().expect("workers alive");
                let want = single.finish_round();
                let got = pipe.finish_round().expect("workers alive");
                assert_bit_identical(
                    &want,
                    &got,
                    &format!("{method:?}, {workers} workers, round {round}"),
                );
            }
        }
    }

    /// The batched transport is bit-identical to the single-threaded
    /// replay for every method, worker count, and batch size — including
    /// 1 (every submit flushes) and sizes that do not divide the round (a
    /// partial final batch rides the finish flush).
    #[test]
    fn batched_transport_equals_per_report_for_all_methods(
        method in arb_method(),
        k in 6u64..20,
        n in 0usize..50,
        batch in 1usize..70,
        seed in any::<u64>(),
    ) {
        let mut single = ShardedAggregator::for_method_obs(method, k, 2.0, 1.0, 1, &off()).expect("valid");
        let dim = single.dim();
        for workers in [1usize, 2, 4] {
            let mut pipe = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, workers, &off())
                .expect("valid");
            let reports = synth_reports(dim, n, seed);
            let mut sub = pipe.handle().batching(batch);
            for (i, support) in reports.iter().enumerate() {
                single.push_report(0, support.iter().copied());
                sub.submit(i as u64, support.iter().copied()).expect("submit");
            }
            sub.finish().expect("workers alive");
            let want = single.finish_round();
            let got = pipe.finish_round().expect("workers alive");
            assert_bit_identical(
                &want,
                &got,
                &format!("{method:?}, {workers} workers, batch {batch}"),
            );
        }
    }

    /// Mid-round snapshots agree with a single-threaded replay of the same
    /// submission prefix.
    #[test]
    fn mid_round_snapshot_equals_single_thread_prefix(
        method in arb_method(),
        k in 6u64..16,
        seed in any::<u64>(),
    ) {
        let mut single = ShardedAggregator::for_method_obs(method, k, 2.0, 1.0, 1, &off()).expect("valid");
        let dim = single.dim();
        let reports = synth_reports(dim, 30, seed);
        let mut pipe = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 4, &off()).expect("valid");
        let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
        for (i, support) in reports.iter().take(15).enumerate() {
            single.push_report(0, support.iter().copied());
            sub.submit(i as u64, support.iter().copied()).expect("submit");
        }
        // The barrier sees only what the submitter has flushed.
        sub.flush().expect("workers alive");
        let want = single.snapshot();
        let got = pipe.snapshot().expect("workers alive");
        assert_bit_identical(&want, &got, &format!("{method:?} mid-round"));
        // Ingestion continues unharmed after the snapshot.
        for (i, support) in reports.iter().enumerate().skip(15) {
            single.push_report(0, support.iter().copied());
            sub.submit(i as u64, support.iter().copied()).expect("submit");
        }
        sub.finish().expect("workers alive");
        let want = single.finish_round();
        let got = pipe.finish_round().expect("workers alive");
        assert_bit_identical(&want, &got, &format!("{method:?} full round"));
    }

    /// A pre-aggregated histogram restored into a pipeline is
    /// bit-identical to submitting its reports one by one, keyed — only
    /// shard placement differs.
    #[test]
    fn restored_histogram_matches_keyed_submission(
        k in 6u64..16,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let method = Method::BiLoloha;
        let mut by_key = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 3, &off()).expect("valid");
        let mut by_batch = IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 2, &off()).expect("valid");
        let dim = by_key.dim();
        let reports = synth_reports(dim, n, seed);
        let mut batch = vec![0u64; dim];
        let mut sub = by_key.handle().batching(DEFAULT_BATCH_REPORTS);
        for (i, support) in reports.iter().enumerate() {
            sub.submit(i as u64, support.iter().copied()).expect("submit");
            for &idx in support {
                batch[idx] += 1;
            }
        }
        sub.finish().expect("workers alive");
        by_batch
            .restore(&ShardCheckpoint {
                dim,
                shards: vec![ShardState {
                    counts: batch,
                    reports: n as u64,
                }],
            })
            .expect("restore");
        let a = by_key.finish_round().expect("workers alive");
        let c = by_batch.finish_round().expect("workers alive");
        assert_bit_identical(&a, &c, "key vs restored histogram");
    }
}
