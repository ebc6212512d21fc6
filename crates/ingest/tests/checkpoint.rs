//! Durability properties: a round interrupted by `save → restore` must
//! finish bit-identically to an uninterrupted run, through the real file
//! store; corrupt and foreign files must be rejected with typed errors.

use ldp_ingest::{IngestPipeline, ShardStore, ShardStoreError, DEFAULT_BATCH_REPORTS};
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

fn synth_reports(dim: usize, n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = derive_rng(seed, 0xC4EC);
    (0..n)
        .map(|_| {
            let len = 1 + uniform_u64(&mut rng, 3) as usize;
            (0..len)
                .map(|_| uniform_u64(&mut rng, dim as u64) as usize)
                .collect()
        })
        .collect()
}

/// A unique scratch file per call so parallel test threads never collide.
fn scratch_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ldp_ingest_ckpt_{}_{id}.bin", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// save → (new pipeline, possibly different worker count) → restore →
    /// finish_round ≡ an uninterrupted run, for every method.
    #[test]
    fn file_checkpoint_resume_matches_uninterrupted_run(
        method in arb_method(),
        k in 6u64..16,
        n in 2usize..40,
        cut_frac in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut uninterrupted =
            IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 3, &off()).expect("valid");
        let before_crash =
            IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 3, &off()).expect("valid");
        let dim = uninterrupted.dim();
        let reports = synth_reports(dim, n, seed);
        let cut = ((n as f64 * cut_frac) as usize).clamp(1, n - 1);

        let mut whole = uninterrupted.handle().batching(DEFAULT_BATCH_REPORTS);
        let mut sub = before_crash.handle().batching(DEFAULT_BATCH_REPORTS);
        for (i, support) in reports.iter().take(cut).enumerate() {
            whole.submit(i as u64, support.iter().copied()).expect("submit");
            sub.submit(i as u64, support.iter().copied()).expect("submit");
        }
        sub.finish().expect("workers alive");
        let path = scratch_path();
        let store = ShardStore::with_obs(&path, &off());
        store.save(&before_crash.checkpoint().expect("quiesce")).expect("save");
        drop(before_crash); // the "crash"

        let mut resumed =
            IngestPipeline::for_method_obs(method, k, 2.0, 1.0, 5, &off()).expect("valid");
        resumed.restore(&store.load().expect("load")).expect("restore");
        std::fs::remove_file(&path).ok();

        let mut sub = resumed.handle().batching(DEFAULT_BATCH_REPORTS);
        for (i, support) in reports.iter().enumerate().skip(cut) {
            whole.submit(i as u64, support.iter().copied()).expect("submit");
            sub.submit(i as u64, support.iter().copied()).expect("submit");
        }
        whole.finish().expect("workers alive");
        sub.finish().expect("workers alive");
        let want = uninterrupted.finish_round().expect("workers alive");
        let got = resumed.finish_round().expect("workers alive");
        prop_assert_eq!(&want.counts, &got.counts);
        prop_assert_eq!(want.reports, got.reports);
        for (x, y) in want.estimate.iter().zip(&got.estimate) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn corrupt_file_is_rejected_with_a_typed_error() {
    let pipe = IngestPipeline::for_method_obs(Method::BiLoloha, 10, 2.0, 1.0, 2, &off()).unwrap();
    let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
    for i in 0..20u64 {
        sub.submit(i, [(i % 10) as usize]).unwrap();
    }
    sub.finish().unwrap();
    let path = scratch_path();
    let store = ShardStore::with_obs(&path, &off());
    store.save(&pipe.checkpoint().unwrap()).unwrap();

    // Flip a byte in the middle of the file: checksum must catch it.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(store.load().err(), Some(ShardStoreError::ChecksumMismatch));

    std::fs::remove_file(&path).ok();
}

#[test]
fn old_or_foreign_files_are_rejected_not_panicked() {
    let path = scratch_path();
    let store = ShardStore::with_obs(&path, &off());

    // A foreign file (wrong magic).
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    assert_eq!(store.load().err(), Some(ShardStoreError::BadMagic));

    // A future format version with an otherwise plausible layout.
    let pipe = IngestPipeline::for_method_obs(Method::LGrr, 6, 2.0, 1.0, 2, &off()).unwrap();
    let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
    sub.submit(0, [1usize]).unwrap();
    sub.finish().unwrap();
    store.save(&pipe.checkpoint().unwrap()).unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut bytes = good.clone();
    bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        store.load().err(),
        Some(ShardStoreError::UnsupportedVersion(9))
    );

    // Truncation below the fixed header.
    std::fs::write(&path, &good[..10]).unwrap();
    assert_eq!(store.load().err(), Some(ShardStoreError::Truncated));

    std::fs::remove_file(&path).ok();
}
