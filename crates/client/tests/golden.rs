//! Golden-fixture pins for the client-pool checkpoint format.
//!
//! `tests/fixtures/` holds known-good checkpoint files: the version-1
//! bytes written by PR 4's private codec and the current version-2
//! unified container. The v1 file must keep loading through the
//! migration shim, fold back into a live pool, and agree with the v2
//! decode; the v2 file must re-encode byte-for-byte.
//! `clients_v2_draws2.ckpt` is the same capture recipe replayed under
//! the second RNG draw contract (bit-sliced `bernoulli_block` UE
//! blocks): same format, different memoized bits and RNG states.

use ldp_client::{decode_client_checkpoint, encode_client_checkpoint, ClientConfig, ClientPool};
use ldp_obs::MetricsRegistry;
use ldp_runtime::Method;

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}

/// The exact pool configuration the fixtures were captured under:
/// L-OSUE over k = 10 at (ε∞, ε1) = (2, 1), seed 42, 4 users.
fn fixture_pool() -> ClientPool {
    let cfg = ClientConfig::for_method(Method::LOsue, 10, 2.0, 1.0).unwrap();
    ClientPool::with_obs(cfg, 42, 4, &MetricsRegistry::disabled()).unwrap()
}

#[test]
fn v1_fixture_still_loads_and_restores_into_a_pool() {
    let cp =
        decode_client_checkpoint(&fixture("clients_v1.ckpt")).expect("v1 file must keep loading");
    assert_eq!(cp.users.len(), 4);
    assert_eq!(cp.meta.k, 10);
    assert_eq!(cp.meta.seed, 42);
    // The migrated checkpoint is not just parseable — it still folds into
    // a pool built with the fixture's configuration.
    let mut pool = fixture_pool();
    pool.restore(&cp).expect("v1 checkpoint must restore");
    assert!(pool.states().all(|s| s.privacy_spent() > 0.0));
}

#[test]
fn v2_fixture_reencodes_byte_stably() {
    let bytes = fixture("clients_v2.ckpt");
    let cp = decode_client_checkpoint(&bytes).expect("current-version fixture must load");
    assert_eq!(
        encode_client_checkpoint(&cp),
        bytes,
        "re-encode drifted: the format changed without a version bump"
    );
}

#[test]
fn v1_and_v2_fixtures_decode_identically() {
    let old = decode_client_checkpoint(&fixture("clients_v1.ckpt")).unwrap();
    let new = decode_client_checkpoint(&fixture("clients_v2.ckpt")).unwrap();
    assert_eq!(old, new);
    // Migrating the old file yields exactly the new file.
    assert_eq!(encode_client_checkpoint(&old), fixture("clients_v2.ckpt"));
}

/// Pins the draw contract's second revision: UE blocks drawn by
/// `ldp_rand::bernoulli_block` (bit-sliced, most significant bit first)
/// with `SPARSE_Q_THRESHOLD` = 0.035. `clients_v2.ckpt` was captured
/// under the first (one `next_u64` per bit) and still pins the codec.
#[test]
fn checkpointing_the_fixture_pool_reproduces_the_fixture_bytes() {
    // The fixture is not an opaque blob: replaying the capture recipe
    // (4 users sanitizing values [1, 7, 3, 9] once) reproduces it
    // byte-for-byte, pinning the whole pipeline — per-user RNG streams,
    // state encoders, and container codec — in one assertion.
    let mut pool = fixture_pool();
    let mut buf = ldp_client::ReportBuf::new();
    for (u, v) in [1u64, 7, 3, 9].iter().enumerate() {
        pool.sanitize_one(u, *v, &mut buf);
    }
    assert_eq!(
        encode_client_checkpoint(&pool.checkpoint()),
        fixture("clients_v2_draws2.ckpt")
    );
}
