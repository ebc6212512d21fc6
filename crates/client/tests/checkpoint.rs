//! Durability properties of the client-state checkpoint layer.
//!
//! * A collection interrupted mid-round by a **dual** `save → restore`
//!   (client pool through `ClientStore`, shard state through
//!   `ldp_ingest::ShardStore`, both via the real file stores) must finish
//!   bit-identically to an uninterrupted run — for every method.
//! * Checkpoints round-trip through the codec for every method.
//! * Truncated, corrupt, foreign, and future-version files are rejected
//!   with typed errors; a checkpoint can never be folded into a pool
//!   built with a different seed, method, or population.

use ldp_client::{ClientConfig, ClientPool, ClientStore, ClientStoreError};
use ldp_ingest::{IngestPipeline, ShardStore};
use ldp_obs::MetricsRegistry;
use ldp_rand::{derive_rng, uniform_u64};
use ldp_runtime::Method;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A telemetry registry that records nothing.
fn off() -> MetricsRegistry {
    MetricsRegistry::disabled()
}

const K: u64 = 14;
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

/// A unique scratch file per call so parallel test threads never collide.
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ldp_client_{tag}_{}_{id}.bin", std::process::id()))
}

fn pool(method: Method, seed: u64, n: usize) -> ClientPool {
    let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
    ClientPool::with_obs(cfg, seed, n, &off()).unwrap()
}

fn values(n: usize, round: u64, seed: u64) -> Vec<u64> {
    let mut rng = derive_rng(seed, 0xC0DE + round);
    (0..n).map(|_| uniform_u64(&mut rng, K)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full-collector resume drill: run some rounds, crash mid-round
    /// (after the first half of the population reported), persist client
    /// *and* shard state to real files, rebuild everything from the
    /// files, finish the round and one more — byte-identical to the
    /// uninterrupted run, across sanitize worker counts.
    #[test]
    fn dual_file_checkpoint_resume_is_bit_identical(
        method in arb_method(),
        n in 4usize..32,
        seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let vals0 = values(n, 0, seed);
        let vals1 = values(n, 1, seed);
        let mid = n / 2;

        // Uninterrupted reference.
        let mut ref_pool = pool(method, seed, n);
        let mut ref_pipe =
            IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, 2, &off()).expect("valid");
        let assigns0: Vec<(usize, u64)> = vals0.iter().copied().enumerate().collect();
        let h = ref_pipe.handle();
        ref_pool.sanitize_assignments(&assigns0, 2, &h).expect("sanitize");
        drop(h);
        let want_round0 = ref_pipe.finish_round().expect("alive");
        let h = ref_pipe.handle();
        ref_pool.sanitize_round(&vals1, 2, &h).expect("sanitize");
        drop(h);
        let want_round1 = ref_pipe.finish_round().expect("alive");

        // Interrupted run: first half of round 0, then a dual checkpoint
        // and a simulated crash.
        let mut crash_pool = pool(method, seed, n);
        let crash_pipe =
            IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, workers, &off()).expect("valid");
        let h = crash_pipe.handle();
        crash_pool
            .sanitize_assignments(&assigns0[..mid], workers, &h)
            .expect("sanitize");
        drop(h);
        let client_path = scratch_path("dual_client");
        let shard_path = scratch_path("dual_shard");
        let client_store = ClientStore::new(&client_path, &off());
        let shard_store = ShardStore::with_obs(&shard_path, &off());
        client_store.save(&crash_pool.checkpoint()).expect("save client");
        shard_store
            .save(&crash_pipe.checkpoint().expect("quiesce"))
            .expect("save shards");
        drop(crash_pool);
        drop(crash_pipe); // the "crash"

        // Rebuild both halves from the files and finish.
        let mut resumed_pool = pool(method, seed, n);
        resumed_pool
            .restore(&client_store.load().expect("load client"))
            .expect("restore client");
        let mut resumed_pipe =
            IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, workers, &off()).expect("valid");
        resumed_pipe
            .restore(&shard_store.load().expect("load shards"))
            .expect("restore shards");
        std::fs::remove_file(&client_path).ok();
        std::fs::remove_file(&shard_path).ok();

        let h = resumed_pipe.handle();
        resumed_pool
            .sanitize_assignments(&assigns0[mid..], workers, &h)
            .expect("sanitize");
        drop(h);
        let got_round0 = resumed_pipe.finish_round().expect("alive");
        let h = resumed_pipe.handle();
        resumed_pool.sanitize_round(&vals1, workers, &h).expect("sanitize");
        drop(h);
        let got_round1 = resumed_pipe.finish_round().expect("alive");

        for (want, got) in [(&want_round0, &got_round0), (&want_round1, &got_round1)] {
            prop_assert_eq!(&want.counts, &got.counts);
            prop_assert_eq!(want.reports, got.reports);
            for (x, y) in want.estimate.iter().zip(&got.estimate) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (a, b) in ref_pool.states().zip(resumed_pool.states()) {
            prop_assert_eq!(a.privacy_spent().to_bits(), b.privacy_spent().to_bits());
            prop_assert_eq!(a.distinct_classes(), b.distinct_classes());
            prop_assert_eq!(a.detection(), b.detection());
        }
    }

    /// Codec round-trip through the real file store for every method.
    #[test]
    fn file_roundtrip_is_identity_for_every_method(
        method in arb_method(),
        n in 1usize..24,
        rounds in 0u64..3,
        seed in 0u64..1_000,
    ) {
        let mut p = pool(method, seed, n);
        for t in 0..rounds {
            let vals = values(n, t, seed);
            let mut pipe =
                IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, 2, &off()).expect("valid");
            let h = pipe.handle();
            p.sanitize_round(&vals, 2, &h).expect("sanitize");
            drop(h);
            let _ = pipe.finish_round().expect("alive");
        }
        let cp = p.checkpoint();
        let path = scratch_path("roundtrip");
        let store = ClientStore::new(&path, &off());
        store.save(&cp).expect("save");
        let loaded = store.load().expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&loaded, &cp);
        // And the loaded checkpoint restores into a working pool.
        let mut restored = pool(method, seed, n);
        restored.restore(&loaded).expect("restore");
        prop_assert_eq!(restored.checkpoint(), cp);
    }

    /// Every truncation of a real checkpoint file is rejected with a
    /// typed error, never a panic.
    #[test]
    fn every_truncation_is_rejected(
        method in arb_method(),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut p = pool(method, 3, 6);
        let vals = values(6, 0, 3);
        let mut pipe = IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, 1, &off()).expect("valid");
        let h = pipe.handle();
        p.sanitize_round(&vals, 1, &h).expect("sanitize");
        drop(h);
        let _ = pipe.finish_round().expect("alive");

        let path = scratch_path("trunc");
        let store = ClientStore::new(&path, &off());
        store.save(&p.checkpoint()).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len() - 1)]).expect("write");
        let err = store.load().expect_err("truncated file must not load");
        prop_assert!(matches!(
            err,
            ClientStoreError::Truncated | ClientStoreError::ChecksumMismatch
        ));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn corrupt_foreign_and_future_files_are_rejected_with_typed_errors() {
    let mut p = pool(Method::BiLoloha, 9, 10);
    let vals = values(10, 0, 9);
    let mut pipe =
        IngestPipeline::for_method_obs(Method::BiLoloha, K, EPS_INF, EPS_FIRST, 2, &off()).unwrap();
    let h = pipe.handle();
    p.sanitize_round(&vals, 2, &h).unwrap();
    drop(h);
    let _ = pipe.finish_round().unwrap();

    let path = scratch_path("reject");
    let store = ClientStore::new(&path, &off());
    store.save(&p.checkpoint()).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Bit rot in the middle: the checksum catches it.
    let mut bytes = good.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(store.load().err(), Some(ClientStoreError::ChecksumMismatch));

    // A foreign file (wrong magic) — an actual *shard* checkpoint fed to
    // the client store.
    let shard_bytes = ldp_ingest::encode_checkpoint(&ldp_ingest::ShardCheckpoint {
        dim: K as usize,
        shards: vec![
            ldp_ingest::ShardState {
                counts: vec![1; K as usize],
                reports: 5,
            };
            3
        ],
    });
    std::fs::write(&path, &shard_bytes).unwrap();
    assert_eq!(store.load().err(), Some(ClientStoreError::BadMagic));

    // A future format version.
    let mut bytes = good.clone();
    bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        store.load().err(),
        Some(ClientStoreError::UnsupportedVersion(9))
    );

    // Truncation below the fixed header.
    std::fs::write(&path, &good[..10]).unwrap();
    assert_eq!(store.load().err(), Some(ClientStoreError::Truncated));

    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoints_are_rejected_by_mismatched_pools() {
    let p = pool(Method::LOsue, 11, 8);
    let path = scratch_path("foreign_pool");
    let store = ClientStore::new(&path, &off());
    store.save(&p.checkpoint()).unwrap();
    let cp = store.load().unwrap();
    std::fs::remove_file(&path).ok();

    // Wrong seed.
    let mut wrong_seed = pool(Method::LOsue, 12, 8);
    assert!(matches!(
        wrong_seed.restore(&cp),
        Err(ClientStoreError::Mismatch("seed differs"))
    ));
    // Wrong method.
    let mut wrong_method = pool(Method::Rappor, 11, 8);
    assert!(matches!(
        wrong_method.restore(&cp),
        Err(ClientStoreError::Mismatch(_))
    ));
    // Wrong population size.
    let mut wrong_n = pool(Method::LOsue, 11, 9);
    assert!(matches!(
        wrong_n.restore(&cp),
        Err(ClientStoreError::Mismatch("population size differs"))
    ));
}
