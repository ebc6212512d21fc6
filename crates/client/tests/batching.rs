//! Batched-transport invariance at the collector level.
//!
//! The batched ingest transport (`ldp_ingest::BatchSubmitter`) must be a
//! pure wire-shape optimization: for every method, worker count, and
//! batch size — including 1 and sizes that do not divide the round — a
//! pooled sanitize round submitted in batches is **bit-identical** to a
//! single-threaded pass that folds each `sanitize_one` report straight
//! into a one-shard aggregator, with no transport at all; and a
//! full-collector checkpoint/resume taken while batches were in flight
//! loses and duplicates nothing.

use ldp_client::{ClientConfig, ClientPool, ReportBuf};
use ldp_ingest::IngestPipeline;
use ldp_obs::MetricsRegistry;
use ldp_runtime::{AggregateSnapshot, Method, ShardedAggregator};

/// A telemetry registry that records nothing.
fn off() -> MetricsRegistry {
    MetricsRegistry::disabled()
}

const K: u64 = 16;
const EPS_INF: f64 = 2.0;
const EPS_FIRST: f64 = 1.0;
const SEED: u64 = 5;
const USERS: usize = 60;

fn pool(method: Method) -> ClientPool {
    let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
    ClientPool::with_obs(cfg, SEED, USERS, &off()).unwrap()
}

fn values() -> Vec<u64> {
    (0..USERS as u64).map(|i| (i * 7) % K).collect()
}

/// The reference round: `(user, value)` pairs sanitized one at a time, in
/// order, on a fresh pool, each report folded into a one-shard
/// aggregator.
fn single_threaded(method: Method, assignments: &[(usize, u64)]) -> AggregateSnapshot {
    let mut p = pool(method);
    let mut agg =
        ShardedAggregator::for_method_obs(method, K, EPS_INF, EPS_FIRST, 1, &off()).unwrap();
    let mut buf = ReportBuf::new();
    for &(u, v) in assignments {
        p.sanitize_one(u, v, &mut buf);
        agg.push_report(0, buf.support().iter().copied());
    }
    agg.finish_round()
}

fn dense(vals: &[u64]) -> Vec<(usize, u64)> {
    vals.iter().copied().enumerate().collect()
}

fn assert_bit_identical(a: &AggregateSnapshot, b: &AggregateSnapshot, ctx: &str) {
    assert_eq!(a.counts, b.counts, "{ctx}: merged counts");
    assert_eq!(a.reports, b.reports, "{ctx}: report totals");
    assert_eq!(a.estimate.len(), b.estimate.len(), "{ctx}: estimate length");
    for (i, (x, y)) in a.estimate.iter().zip(&b.estimate).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: estimate bin {i}");
    }
}

/// All 9 methods × workers {1, 2, 4} × batch sizes {1, 7, 64, full
/// round}, plus the default-batch `sanitize_round`: batched estimates
/// byte-identical to the single-threaded reference.
#[test]
fn batched_round_equals_per_report_round_for_every_method() {
    for method in Method::all() {
        let vals = values();
        let want = single_threaded(method, &dense(&vals));

        for workers in [1usize, 2, 4] {
            // Batch sizes: degenerate (1), non-divisor (7), mid (64, also
            // a non-divisor of the 60-report round), and full-round.
            for batch in [1usize, 7, 64, USERS] {
                let mut p = pool(method);
                let mut pipe =
                    IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, workers, &off())
                        .unwrap();
                let handle = pipe.handle();
                let mut sinks: Vec<_> = (0..workers).map(|_| handle.batching(batch)).collect();
                p.sanitize_round_sinks(&vals, &mut sinks).unwrap();
                drop(sinks);
                let got = pipe.finish_round().unwrap();
                assert_bit_identical(
                    &want,
                    &got,
                    &format!("{method:?}, {workers} workers, batch {batch}"),
                );
            }
            let mut p = pool(method);
            let mut pipe =
                IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, workers, &off())
                    .unwrap();
            p.sanitize_round(&vals, workers, &pipe.handle()).unwrap();
            let got = pipe.finish_round().unwrap();
            assert_bit_identical(
                &want,
                &got,
                &format!("{method:?}, {workers} workers, default batch"),
            );
        }
    }
}

/// Sparse assignment rounds through the batched transport (default batch
/// size) match the single-threaded reference, for the full population
/// and for a strict subset of it.
#[test]
fn batched_assignments_equal_per_report_round() {
    let vals = values();
    let full = dense(&vals);
    let every_third: Vec<(usize, u64)> = full.iter().copied().step_by(3).collect();
    for (assignments, ctx) in [
        (&full, "full population"),
        (&every_third, "every third user"),
    ] {
        let want = single_threaded(Method::LOsue, assignments);
        for workers in [1usize, 4] {
            let mut b = pool(Method::LOsue);
            let mut pipe =
                IngestPipeline::for_method_obs(Method::LOsue, K, EPS_INF, EPS_FIRST, 3, &off())
                    .unwrap();
            b.sanitize_assignments(assignments, workers, &pipe.handle())
                .unwrap();
            let got = pipe.finish_round().unwrap();
            assert_bit_identical(&want, &got, &format!("{ctx}, {workers} workers"));
        }
    }
}

/// Full-collector mid-round resume with batches in flight: both halves
/// (client pool + shard state) checkpoint at a submitter flush boundary,
/// the "crash" discards the live collector, and the resumed collector
/// finishes the round byte-identical to an uninterrupted one — no
/// buffered report lost, none double-counted.
#[test]
fn mid_batch_collector_resume_is_lossless() {
    let method = Method::BiLoloha;
    let vals = values();

    let mut uninterrupted = pool(method);
    let mut upipe =
        IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, 1, &off()).unwrap();
    let mut usinks = [upipe.handle().batching(16)];
    uninterrupted
        .sanitize_round_sinks(&vals, &mut usinks)
        .unwrap();
    let want = upipe.finish_round().unwrap();

    // Interrupted collector: 40 of 60 users sanitized through a batch-16
    // submitter (two full batches flushed, 8 reports still buffered),
    // then both checkpoints taken after an explicit flush — the ordering
    // the quiescence contract requires.
    let mut live = pool(method);
    let pipe = IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, 1, &off()).unwrap();
    let mut sub = pipe.handle().batching(16);
    let mut buf = ReportBuf::new();
    for (u, &v) in vals.iter().enumerate().take(40) {
        live.sanitize_one(u, v, &mut buf);
        sub.submit(u as u64, buf.support().iter().copied()).unwrap();
    }
    sub.flush().unwrap();
    let shard_cp = pipe.checkpoint().unwrap();
    let client_cp = live.checkpoint();
    assert_eq!(
        shard_cp.shards.iter().map(|s| s.reports).sum::<u64>(),
        40,
        "flush before the barrier makes every buffered report visible"
    );
    drop(sub);
    drop(pipe);
    drop(live);

    // Resume on a different worker count and finish the round.
    let mut resumed = pool(method);
    resumed.restore(&client_cp).unwrap();
    let mut pipe =
        IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, 3, &off()).unwrap();
    pipe.restore(&shard_cp).unwrap();
    let mut sub = pipe.handle().batching(16);
    for (u, &v) in vals.iter().enumerate().skip(40) {
        resumed.sanitize_one(u, v, &mut buf);
        sub.submit(u as u64, buf.support().iter().copied()).unwrap();
    }
    sub.finish().unwrap();
    let got = pipe.finish_round().unwrap();
    assert_bit_identical(&want, &got, "mid-batch collector resume");
}
