//! Criterion micro-benchmark: server-side ingestion of one collection
//! round at paper scale (Syn: k = 360, n = 10 000 reports), comparing the
//! pre-runtime fixed-chunk merge loop against the sharded streaming
//! aggregator that replaced it, at several shard counts — plus the cost of
//! a mid-stream snapshot, a client pool sanitizing into the `ldp_ingest`
//! concurrent worker pipeline (1/2/4/8 workers) against a single-threaded
//! sanitize-into-shard of the same round, and the cost of running that
//! round with `ldp_obs` telemetry enabled versus hard-disabled — and the
//! shard's bit-row fold kernel on its own, at the DB_MT row width.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_ingest::IngestPipeline;
use ldp_obs::MetricsRegistry;
use ldp_rand::{derive_rng, uniform_u64};
use ldp_runtime::{Method, Shard, ShardedAggregator};
use loloha::{LolohaParams, LolohaServer};
use std::hint::black_box;

/// A telemetry registry that records nothing.
fn off() -> MetricsRegistry {
    MetricsRegistry::disabled()
}

/// Paper-scale Syn round: k = 360, n = 10 000.
const K: u64 = 360;
const N_REPORTS: u64 = 10_000;

/// Builds `parts` pre-aggregated partial histograms that together hold one
/// round's worth of support counts (as the old engine's worker threads
/// produced them).
fn partials(parts: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = derive_rng(seed, 0xBE7C);
    let per_part = N_REPORTS / parts as u64;
    (0..parts)
        .map(|_| {
            let mut counts = vec![0u64; K as usize];
            // LOLOHA at g = 2 supports ~k/2 values per report.
            for _ in 0..per_part * (K / 2) {
                counts[uniform_u64(&mut rng, K) as usize] += 1;
            }
            counts
        })
        .collect()
}

/// The pre-runtime aggregation path: a hand-rolled merge loop over the
/// fixed per-thread chunks, then one estimator call.
fn fixed_chunk_merge(server: &mut LolohaServer, parts: &[Vec<u64>]) -> Vec<f64> {
    let mut merged = vec![0u64; K as usize];
    for p in parts {
        for (m, &c) in merged.iter_mut().zip(p) {
            *m += c;
        }
    }
    server.ingest_counts(&merged, N_REPORTS);
    server.estimate_and_reset()
}

fn bench_ingestion(c: &mut Criterion) {
    let params = LolohaParams::bi(1.0, 0.5).expect("valid budgets");
    let parts = partials(8, 99);
    let batch_refs: Vec<(&[u64], u64)> = parts
        .iter()
        .map(|p| (p.as_slice(), N_REPORTS / parts.len() as u64))
        .collect();

    let mut group = c.benchmark_group("round_ingestion_syn_paper_scale");
    group.sample_size(30);

    group.bench_function("old_fixed_chunk_merge", |b| {
        let mut server = LolohaServer::new(K, params).expect("valid");
        b.iter(|| black_box(fixed_chunk_merge(&mut server, black_box(&parts))));
    });

    for shards in [1usize, 4, 8] {
        group.bench_function(format!("sharded_one_shot_{shards}_shards"), |b| {
            let mut agg =
                ShardedAggregator::for_method_obs(Method::BiLoloha, K, 1.0, 0.5, shards, &off())
                    .expect("valid");
            b.iter(|| black_box(agg.one_shot(black_box(&batch_refs))));
        });
    }

    group.bench_function("streaming_snapshot_mid_round", |b| {
        let mut agg = ShardedAggregator::for_method_obs(Method::BiLoloha, K, 1.0, 0.5, 8, &off())
            .expect("valid");
        agg.begin_round();
        for (i, &(counts, reports)) in batch_refs.iter().enumerate() {
            agg.push_batch(i % 8, counts, reports);
        }
        b.iter(|| black_box(agg.snapshot()));
    });

    group.finish();
}

/// End-to-end client-side sanitize + concurrent ingest of one collection
/// round at paper scale: an `ldp_client::ClientPool` of 10 000 memoizing
/// BiLOLOHA users sanitizes on 1/2/4/8 worker threads, feeding report
/// envelopes straight into the pipeline's shard workers — the full
/// production collector topology, against a single-threaded
/// sanitize-into-shard baseline. (On a 1-CPU host the numbers measure
/// pipeline + pool overhead, not speedup; see the printed parallelism.)
fn bench_sanitize_and_ingest(c: &mut Criterion) {
    use ldp_client::{ClientConfig, ClientPool};

    let params = LolohaParams::bi(1.0, 0.5).expect("valid budgets");
    let cfg = ClientConfig::for_loloha(K, params);
    let n = N_REPORTS as usize;
    let mut rng = derive_rng(11, 0x5A11);
    let values: Vec<u64> = (0..n).map(|_| uniform_u64(&mut rng, K)).collect();

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("sanitize_and_ingest host parallelism: {cores} hardware thread(s)");

    let mut group = c.benchmark_group("sanitize_and_ingest_syn_paper_scale");
    group.sample_size(10);

    group.bench_function("single_thread_baseline", |b| {
        let mut pool = ClientPool::with_obs(cfg, 11, n, &off()).expect("valid");
        let mut agg = ShardedAggregator::for_loloha_obs(K, params, 1, &off()).expect("valid");
        b.iter(|| {
            pool.sanitize_round_into_shards(black_box(&values), agg.shards_mut());
            black_box(agg.finish_round())
        });
    });

    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("pool_pipeline_{workers}_workers"), |b| {
            let mut pool = ClientPool::with_obs(cfg, 11, n, &off()).expect("valid");
            let mut pipe =
                IngestPipeline::for_loloha_obs(K, params, workers, &off()).expect("valid");
            b.iter(|| {
                let handle = pipe.handle();
                pool.sanitize_round(black_box(&values), workers, &handle)
                    .expect("workers alive");
                drop(handle);
                black_box(pipe.finish_round().expect("workers alive"))
            });
        });
    }

    group.finish();
}

/// Telemetry overhead: the identical pool + pipeline round (2 workers),
/// once recording into a live `ldp_obs` registry — counters on every
/// envelope, histograms around merge/estimate, exactly what
/// `collect --metrics` enables — and once with telemetry hard-disabled
/// (every handle a no-op that never reads the clock). The delta is the
/// whole cost of leaving instrumentation compiled in and switched on.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use ldp_client::{ClientConfig, ClientPool};

    const WORKERS: usize = 2;
    let params = LolohaParams::bi(1.0, 0.5).expect("valid budgets");
    let cfg = ClientConfig::for_loloha(K, params);
    let n = N_REPORTS as usize;
    let mut rng = derive_rng(11, 0x5A11);
    let values: Vec<u64> = (0..n).map(|_| uniform_u64(&mut rng, K)).collect();

    let mut group = c.benchmark_group("telemetry_overhead_syn_paper_scale");
    group.sample_size(10);

    for (label, reg) in [
        ("obs_enabled", MetricsRegistry::new()),
        ("obs_disabled", MetricsRegistry::disabled()),
    ] {
        group.bench_function(label, |b| {
            let mut pool = ClientPool::with_obs(cfg, 11, n, &reg).expect("valid");
            let mut pipe = IngestPipeline::for_loloha_obs(K, params, WORKERS, &reg).expect("valid");
            b.iter(|| {
                let handle = pipe.handle();
                pool.sanitize_round(black_box(&values), WORKERS, &handle)
                    .expect("workers alive");
                drop(handle);
                black_box(pipe.finish_round().expect("workers alive"))
            });
        });
    }

    group.finish();
}

/// The bit-row fold kernel alone: `Shard::add_rows` over 128 rows (one
/// wire frame's batch) and 255 rows (one full spill) of 23 words, the
/// DB_MT width (k = 1412), each bit set with probability 0.5 as in a
/// BiLOLOHA preimage row.
fn bench_row_fold(c: &mut Criterion) {
    const K_DBMT: usize = 1412;
    let words = K_DBMT.div_ceil(64);
    let mut rng = derive_rng(23, 0xF01D);
    let mut group = c.benchmark_group("row_fold");
    for rows in [128usize, 255] {
        let mut cells = vec![0u64; rows * words];
        for row in cells.chunks_exact_mut(words) {
            for i in 0..K_DBMT {
                row[i / 64] |= uniform_u64(&mut rng, 2) << (i % 64);
            }
        }
        group.bench_function(format!("add_rows_{rows}x{words}_density_0.5"), |b| {
            let mut shard = Shard::with_dim(K_DBMT);
            b.iter(|| shard.add_rows(black_box(&cells), words));
            black_box(shard.counts());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingestion,
    bench_sanitize_and_ingest,
    bench_telemetry_overhead,
    bench_row_fold
);
criterion_main!(benches);
