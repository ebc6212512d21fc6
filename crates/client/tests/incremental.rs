//! Properties of the incremental (chunked) client checkpoint mode.
//!
//! * A chunked store and a single-file store fed the same pool must
//!   decode to the **same** [`ClientCheckpoint`], and resuming from a
//!   chunked store must be byte-identical to resuming from a full one —
//!   for every method × chunk size.
//! * A round that dirties users in `k` of `N` segments rewrites exactly
//!   `k` segment files (the O(changed users) contract).
//! * Dirty tracking is conservative and precise: sparse rounds mark only
//!   the reporting users; restores mark everything until the caller
//!   declares the pool clean.

use ldp_client::{ClientConfig, ClientPool, ClientStore};
use ldp_obs::MetricsRegistry;
use ldp_rand::{derive_rng, uniform_u64};
use ldp_runtime::{Method, ShardedAggregator};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A telemetry registry that records nothing.
fn off() -> MetricsRegistry {
    MetricsRegistry::disabled()
}

const K: u64 = 12;
const EPS_INF: f64 = 2.0;
const EPS_FIRST: f64 = 1.0;

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

/// A unique scratch location per call so parallel test threads never
/// collide.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ldp_client_inc_{tag}_{}_{id}", std::process::id()))
}

fn pool(method: Method, seed: u64, n: usize) -> ClientPool {
    let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
    ClientPool::with_obs(cfg, seed, n, &off()).unwrap()
}

fn values(n: usize, round: u64, seed: u64) -> Vec<u64> {
    let mut rng = derive_rng(seed, 0x1234 + round);
    (0..n).map(|_| uniform_u64(&mut rng, K)).collect()
}

fn run_round(p: &mut ClientPool, vals: &[u64]) -> Vec<u64> {
    let mut agg = ShardedAggregator::for_method_obs(
        p.config().method().unwrap(),
        K,
        EPS_INF,
        EPS_FIRST,
        1,
        &off(),
    )
    .unwrap();
    p.sanitize_round_into_shards(vals, agg.shards_mut());
    agg.finish_round().counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline acceptance property: run some rounds with per-round
    /// incremental saves, crash, reload from the segment files, and the
    /// resumed pool is byte-identical — same checkpoint, same continued
    /// rounds — to one resumed from a single-file full checkpoint of the
    /// same moment. For every method × chunk sizes spanning "one user per
    /// segment" to "everything in one segment".
    #[test]
    fn chunked_resume_is_byte_identical_to_full_resume(
        method in arb_method(),
        n in 3usize..24,
        chunk in 1usize..30,
        seed in 0u64..1_000,
        rounds in 1u64..3,
    ) {
        let dir = scratch("equiv_dir");
        let file = scratch("equiv_file");
        let chunked = ClientStore::chunked(&dir, chunk, &off());
        let full = ClientStore::new(&file, &off());

        let mut p = pool(method, seed, n);
        for t in 0..rounds {
            let vals = values(n, t, seed);
            run_round(&mut p, &vals);
            chunked.save_pool(&mut p).expect("incremental save");
        }
        full.save(&p.checkpoint()).expect("full save");

        // Both stores hold the same logical checkpoint.
        let from_chunks = chunked.load().expect("chunked load");
        let from_file = full.load().expect("full load");
        prop_assert_eq!(&from_chunks, &from_file);

        // And both resume to bit-identical futures.
        let mut a = pool(method, seed, n);
        a.restore(&from_chunks).expect("restore chunked");
        let mut b = pool(method, seed, n);
        b.restore(&from_file).expect("restore full");
        let next = values(n, 99, seed);
        prop_assert_eq!(run_round(&mut a, &next), run_round(&mut b, &next));
        for (x, y) in a.states().zip(b.states()) {
            prop_assert_eq!(x.privacy_spent().to_bits(), y.privacy_spent().to_bits());
            prop_assert_eq!(x.distinct_classes(), y.distinct_classes());
            prop_assert_eq!(x.detection(), y.detection());
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&file).ok();
    }

    /// A sparse round that dirties users in exactly `k` of the segments
    /// rewrites exactly `k` segment files — never the whole pool.
    #[test]
    fn sparse_rounds_write_only_their_segments(
        method in arb_method(),
        seed in 0u64..1_000,
        touch_seg in 0usize..6,
    ) {
        const N: usize = 24;
        const CHUNK: usize = 4; // 6 segments
        let dir = scratch("sparse");
        let store = ClientStore::chunked(&dir, CHUNK, &off());
        let mut p = pool(method, seed, N);

        // Baseline: first save writes every segment (everything dirty).
        let stats = store.save_pool(&mut p).expect("initial save");
        prop_assert_eq!(stats.total, 6);
        prop_assert_eq!(stats.written, 6);

        // One user in one segment reports; only that segment rewrites.
        let user = touch_seg * CHUNK + (seed as usize % CHUNK);
        let mut agg = ShardedAggregator::for_method_obs(method, K, EPS_INF, EPS_FIRST, 1, &off()).unwrap();
        let mut buf = ldp_client::ReportBuf::new();
        p.sanitize_one(user, seed % K, &mut buf);
        agg.shards_mut()[0].add_report(buf.support().iter().copied());
        prop_assert_eq!(p.dirty().iter().filter(|&&d| d).count(), 1);
        let stats = store.save_pool(&mut p).expect("sparse save");
        prop_assert_eq!(stats.written, 1, "one dirty segment must cost one file");
        prop_assert_eq!(stats.total, 6);

        // A save with nothing dirty writes nothing at all.
        let stats = store.save_pool(&mut p).expect("no-op save");
        prop_assert_eq!(stats.written, 0);

        // Users in two segments → two files.
        p.sanitize_one(0, 1, &mut buf);
        p.sanitize_one(N - 1, 1, &mut buf);
        let stats = store.save_pool(&mut p).expect("two-segment save");
        prop_assert_eq!(stats.written, 2);

        // Every generation of the store still loads to the live pool.
        prop_assert_eq!(store.load().expect("load"), p.checkpoint());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn dirty_flags_track_reports_restores_and_mark_clean() {
    let mut p = pool(Method::LOsue, 5, 8);
    // A new pool has never been saved: everything is dirty.
    assert!(p.dirty().iter().all(|&d| d));
    p.mark_clean();
    assert!(p.dirty().iter().all(|&d| !d));

    // Sparse sanitization marks exactly the reporting users.
    let mut buf = ldp_client::ReportBuf::new();
    p.sanitize_one(3, 1, &mut buf);
    let dirty: Vec<usize> = (0..8).filter(|&u| p.dirty()[u]).collect();
    assert_eq!(dirty, vec![3]);

    // A dense round marks everyone …
    let mut agg =
        ShardedAggregator::for_method_obs(Method::LOsue, K, EPS_INF, EPS_FIRST, 1, &off()).unwrap();
    p.sanitize_round_into_shards(&[1; 8], agg.shards_mut());
    assert!(p.dirty().iter().all(|&d| d));

    // … and a restore is conservative: the pool cannot know the target
    // store, so everything stays dirty until the caller marks it clean.
    let cp = p.checkpoint();
    p.mark_clean();
    p.restore(&cp).unwrap();
    assert!(p.dirty().iter().all(|&d| d));
}

#[test]
fn garbage_collection_leaves_exactly_the_referenced_segments() {
    let dir = scratch("gc");
    let store = ClientStore::chunked(&dir, 2, &off());
    let mut p = pool(Method::LGrr, 9, 6); // 3 segments
    store.save_pool(&mut p).unwrap();
    let count_segs = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .count()
    };
    assert_eq!(count_segs(), 3);

    // Rounds keep superseding segments; old generations must not pile up.
    for t in 0..4 {
        let vals = values(6, t, 9);
        run_round(&mut p, &vals);
        store.save_pool(&mut p).unwrap();
        assert_eq!(count_segs(), 3, "after round {t}");
        assert_eq!(store.load().unwrap(), p.checkpoint());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_pool_is_the_read_side_mirror_of_save_pool() {
    let dir = scratch("load_pool");
    let store = ClientStore::chunked(&dir, 3, &off());
    let mut p = pool(Method::BiLoloha, 41, 8);
    let vals = values(8, 0, 41);
    let reported = run_round(&mut p, &vals);
    store.save_pool(&mut p).unwrap();

    // A fresh pool folded from disk carries the same state and produces
    // the same continued round as the original.
    let mut resumed = pool(Method::BiLoloha, 41, 8);
    store.load_pool(&mut resumed).unwrap();
    assert_eq!(resumed.checkpoint(), p.checkpoint());
    assert_ne!(reported.len(), 0);
    let next = values(8, 1, 41);
    assert_eq!(run_round(&mut resumed, &next), run_round(&mut p, &next));
    std::fs::remove_dir_all(&dir).ok();
}
