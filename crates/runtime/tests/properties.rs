//! Property-based tests for the sharded aggregator: the same report stream
//! must produce bit-identical merged counts and estimates no matter how
//! many shards it is spread over, for every protocol the runtime serves.

use ldp_obs::MetricsRegistry;
use ldp_rand::{derive_rng, uniform_u64};
use ldp_runtime::{Method, Shard, ShardedAggregator};
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

/// Builds a deterministic synthetic report stream: each report supports a
/// random subset of the aggregation dimension.
fn report_stream(dim: usize, reports: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = derive_rng(seed, 0xA66);
    (0..reports)
        .map(|_| {
            let width = uniform_u64(&mut rng, dim as u64 / 2 + 1) as usize;
            (0..width)
                .map(|_| uniform_u64(&mut rng, dim as u64) as usize)
                .collect()
        })
        .collect()
}

/// Runs one stream through an aggregator with the given shard count,
/// spreading reports round-robin, and returns the closing snapshot.
fn run_stream(
    method: Method,
    k: u64,
    eps_inf: f64,
    eps_first: f64,
    shards: usize,
    stream: &[Vec<usize>],
) -> ldp_runtime::AggregateSnapshot {
    let mut agg = ShardedAggregator::for_method_obs(method, k, eps_inf, eps_first, shards, &off())
        .expect("caller pre-validated the cell");
    for (i, support) in stream.iter().enumerate() {
        agg.push_report(i % agg.shard_count(), support.iter().copied());
    }
    agg.finish_round()
}

proptest! {
    /// 1, 3, and 8 shards agree bit-for-bit on counts, report totals, and
    /// estimates across all protocol variants.
    #[test]
    fn aggregation_is_shard_count_invariant(
        method in arb_method(),
        k in 4u64..48,
        eps_inf in 0.4f64..4.0,
        alpha in 0.2f64..0.8,
        n_reports in 1usize..120,
        seed in any::<u64>(),
    ) {
        let eps_first = alpha * eps_inf;
        // Some cells are invalid by construction (e.g. OUE-style IRR cannot
        // realize eps_first close to eps_inf); skip those, they are covered
        // by the parameter-validation suites.
        let probe = ShardedAggregator::for_method_obs(method, k, eps_inf, eps_first, 1, &off());
        prop_assume!(probe.is_ok());
        let dim = probe.unwrap().dim();

        let stream = report_stream(dim, n_reports, seed);
        let reference = run_stream(method, k, eps_inf, eps_first, 1, &stream);
        prop_assert_eq!(reference.reports, n_reports as u64);
        for shards in [3usize, 8] {
            let got = run_stream(method, k, eps_inf, eps_first, shards, &stream);
            prop_assert_eq!(&reference.counts, &got.counts, "{:?} {} shards", method, shards);
            prop_assert_eq!(reference.reports, got.reports);
            prop_assert_eq!(reference.estimate.len(), got.estimate.len());
            for (a, b) in reference.estimate.iter().zip(&got.estimate) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} {} shards", method, shards);
            }
        }
    }

    /// A mid-stream snapshot equals a fully finished round over the same
    /// prefix: streaming reads are consistent with one-shot aggregation.
    #[test]
    fn snapshot_is_consistent_with_one_shot(
        method in arb_method(),
        k in 4u64..32,
        eps_inf in 0.5f64..3.0,
        n_reports in 2usize..80,
        seed in any::<u64>(),
    ) {
        let eps_first = 0.5 * eps_inf;
        let probe = ShardedAggregator::for_method_obs(method, k, eps_inf, eps_first, 1, &off());
        prop_assume!(probe.is_ok());
        let dim = probe.unwrap().dim();

        let stream = report_stream(dim, n_reports, seed);
        let prefix = n_reports / 2;

        let mut streaming = ShardedAggregator::for_method_obs(method, k, eps_inf, eps_first, 4, &off())
            .expect("validated above");
        for (i, support) in stream[..prefix].iter().enumerate() {
            streaming.push_report(i % 4, support.iter().copied());
        }
        let snap = streaming.snapshot();
        let one_shot = run_stream(method, k, eps_inf, eps_first, 2, &stream[..prefix]);
        prop_assert_eq!(&snap.counts, &one_shot.counts);
        prop_assert_eq!(snap.reports, one_shot.reports);
        for (a, b) in snap.estimate.iter().zip(&one_shot.estimate) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // The snapshot did not disturb the stream: pushing the remainder
        // and finishing matches the full one-shot run.
        for (i, support) in stream[prefix..].iter().enumerate() {
            streaming.push_report(i % 4, support.iter().copied());
        }
        let full = streaming.finish_round();
        let expected = run_stream(method, k, eps_inf, eps_first, 1, &stream);
        prop_assert_eq!(&full.counts, &expected.counts);
        prop_assert_eq!(full.reports, expected.reports);
        for (a, b) in full.estimate.iter().zip(&expected.estimate) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The bit-plane row fold gives exactly the counts of folding every
    /// set bit as an index: widths with and without a partial last word,
    /// batch sizes on each side of the plane-count steps (2^P − 1, 2^P,
    /// 2^P + 1), of the eight-row adder tree's octets (a remainder of 0,
    /// 1 or 7 rows, 31 octets in a spill) and past the 255-row spill,
    /// rows of any density, folded on top of counts already in the shard.
    #[test]
    fn row_fold_equals_index_fold(
        width in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(1412)],
        rows in prop_oneof![
            Just(1usize), Just(2), Just(3), Just(4), Just(7), Just(8), Just(9),
            Just(15), Just(16), Just(17), Just(127), Just(128), Just(129),
            Just(247), Just(248), Just(249), Just(255), Just(256), Just(257),
            Just(600),
        ],
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let words = width.div_ceil(64);
        let mut rng = derive_rng(seed, 0xB175);
        // A quarter of the cases fold all-ones rows: every counter then
        // reaches the row count, the most a spill must hold.
        let threshold = if seed % 4 == 0 { u64::MAX } else { (density * u64::MAX as f64) as u64 };
        let mut cells = vec![0u64; rows * words];
        for row in cells.chunks_exact_mut(words) {
            for i in 0..width {
                if uniform_u64(&mut rng, u64::MAX) < threshold {
                    row[i / 64] |= 1 << (i % 64);
                }
            }
        }
        let indices: Vec<u32> = cells
            .chunks_exact(words)
            .flat_map(|row| (0..width).filter(move |&i| row[i / 64] >> (i % 64) & 1 == 1))
            .map(|i| i as u32)
            .collect();
        let prior: Vec<usize> = (0..width).filter(|i| i % 3 == 0).collect();

        let mut by_index = Shard::with_dim(width);
        by_index.add_report(prior.iter().copied());
        by_index.add_report_batch(&indices, rows as u64);
        let mut by_row = Shard::with_dim(width);
        by_row.add_report(prior.iter().copied());
        by_row.add_rows(&cells, words);
        prop_assert_eq!(&by_row, &by_index);
        prop_assert_eq!(by_row.reports(), rows as u64 + 1);

        // The same rows one at a time, and split at an arbitrary row.
        let mut single = Shard::with_dim(width);
        single.add_report(prior.iter().copied());
        for row in cells.chunks_exact(words) {
            single.add_row(row);
        }
        prop_assert_eq!(&single, &by_index);
        let cut = uniform_u64(&mut rng, rows as u64 + 1) as usize * words;
        let mut split = Shard::with_dim(width);
        split.add_report(prior.iter().copied());
        if cut > 0 {
            split.add_rows(&cells[..cut], words);
        }
        if cut < cells.len() {
            split.add_rows(&cells[cut..], words);
        }
        prop_assert_eq!(&split, &by_index);
    }
}
