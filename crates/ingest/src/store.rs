//! Durable shard-state checkpoints.
//!
//! A long-running collection round loses everything on a crash unless the
//! per-shard partial counts survive restarts. This module persists a
//! pipeline's shard states as one instance of the workspace's unified
//! checkpoint container ([`ldp_primitives::codec`]; byte-level spec in
//! `docs/CHECKPOINT_FORMAT.md`), via a file-backed [`ShardStore`] that
//! writes atomically (temp file + rename) so a crash mid-checkpoint never
//! corrupts the previous checkpoint.
//!
//! Container payload (little-endian), under the shared
//! `magic "LDPS" | version | fingerprint` header and FNV-1a trailer:
//!
//! ```text
//! dim u64 | shard_count u32
//! | per shard: reports u64 | len u64 | len × u64 counts
//! ```
//!
//! The fingerprint is FNV-1a over the little-endian `dim`, so a checkpoint
//! can be identified as belonging to a differently-sized aggregation
//! before its body is even parsed. Version-1 files (PR 3's pre-container
//! format, without the fingerprint field) still load through a migration
//! shim; saving always writes the current version.
//!
//! Every failure mode returns a typed [`ShardStoreError`], never a panic:
//! truncation, foreign files, future format versions, bit-flips (caught by
//! the checksum), and structurally valid but inconsistent layouts.

use crate::pipeline::ShardState;
use ldp_obs::{Counter, Histogram, MetricsRegistry, Span};
use ldp_primitives::codec::{self, CodecReader, CodecWriter};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"LDPS";
const VERSION: u16 = 2;

/// A point-in-time capture of a pipeline's shard states, produced by
/// [`crate::IngestPipeline::checkpoint`] and consumed by
/// [`crate::IngestPipeline::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// The aggregation dimension every shard's counts share.
    pub dim: usize,
    /// One state per shard worker, in worker-index order.
    pub shards: Vec<ShardState>,
}

impl ShardCheckpoint {
    /// Total reports captured across all shards.
    pub fn reports(&self) -> u64 {
        self.shards.iter().map(|s| s.reports).sum()
    }
}

/// Why a checkpoint failed to decode or a file operation failed — the
/// workspace-wide checkpoint error type
/// (see [`ldp_primitives::codec::CodecError`]).
pub type ShardStoreError = codec::CodecError;

/// The header fingerprint of a shard checkpoint: FNV-1a over the
/// little-endian aggregation dimension.
fn fingerprint(dim: u64) -> u64 {
    codec::fnv1a(&dim.to_le_bytes())
}

/// Serializes a checkpoint into a fresh byte buffer.
pub fn encode_checkpoint(cp: &ShardCheckpoint) -> Vec<u8> {
    let per_shard: usize = cp.shards.iter().map(|s| 16 + 8 * s.counts.len()).sum();
    let mut w = CodecWriter::with_capacity(
        MAGIC,
        VERSION,
        fingerprint(cp.dim as u64),
        8 + 4 + per_shard,
    );
    w.put_u64(cp.dim as u64);
    w.put_u32(u32::try_from(cp.shards.len()).expect("shard count fits u32"));
    for shard in &cp.shards {
        w.put_u64(shard.reports);
        w.put_u64(shard.counts.len() as u64);
        for &c in &shard.counts {
            w.put_u64(c);
        }
    }
    w.finish()
}

/// Restores a checkpoint from a buffer produced by [`encode_checkpoint`]
/// (current or any older supported format version).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<ShardCheckpoint, ShardStoreError> {
    match codec::sniff_version(bytes, MAGIC)? {
        1 => {
            // Migration shim: the PR 3 layout had no fingerprint field —
            // `magic | version | payload | checksum`.
            let body = codec::split_checksummed(bytes)?;
            let mut r = CodecReader::raw(body);
            let _ = r.take(6)?; // magic + version, already sniffed
            decode_body(&mut r, None)
        }
        VERSION => {
            let mut r = CodecReader::open(bytes, MAGIC, VERSION)?;
            let fp = r.fingerprint();
            decode_body(&mut r, Some(fp))
        }
        v => Err(ShardStoreError::UnsupportedVersion(v)),
    }
}

/// The version-independent payload: `dim | shard_count | shards`, with the
/// declared layout proven against the buffer size before any allocation.
fn decode_body(
    r: &mut CodecReader<'_>,
    fingerprint_to_check: Option<u64>,
) -> Result<ShardCheckpoint, ShardStoreError> {
    let dim64 = r.get_u64()?;
    let dim = usize::try_from(dim64).map_err(|_| ShardStoreError::Corrupt("dim overflow"))?;
    if let Some(fp) = fingerprint_to_check {
        if fp != fingerprint(dim64) {
            return Err(ShardStoreError::Mismatch(
                "fingerprint disagrees with the checkpoint dimension",
            ));
        }
    }
    let shard_count = r.get_u32()?;
    // The checksum is forgeable (FNV, not cryptographic), so the declared
    // layout must be proven against the actual buffer size *before* any
    // allocation sized from it — a crafted dim/shard_count must yield a
    // typed error, never an OOM or capacity-overflow panic.
    let payload = r.remaining() as u64;
    let per_shard = 8u64
        .checked_add(8)
        .and_then(|fixed| dim64.checked_mul(8).and_then(|c| fixed.checked_add(c)))
        .ok_or(ShardStoreError::Corrupt("shard size overflow"))?;
    if u64::from(shard_count)
        .checked_mul(per_shard)
        .is_none_or(|total| total != payload)
    {
        return Err(ShardStoreError::Corrupt("layout disagrees with file size"));
    }
    let mut shards = Vec::with_capacity(shard_count as usize);
    for _ in 0..shard_count {
        let reports = r.get_u64()?;
        let len = r.get_u64()?;
        if len != dim64 {
            return Err(ShardStoreError::Corrupt("shard length differs from dim"));
        }
        let mut counts = Vec::with_capacity(dim);
        for _ in 0..dim {
            counts.push(r.get_u64()?);
        }
        shards.push(ShardState { counts, reports });
    }
    r.finish()?;
    Ok(ShardCheckpoint { dim, shards })
}

/// A file-backed checkpoint location with atomic writes.
#[derive(Debug, Clone)]
pub struct ShardStore {
    path: PathBuf,
    save_ns: Histogram,
    load_ns: Histogram,
    bytes_written: Counter,
}

impl ShardStore {
    /// Creates a store writing to / reading from `path`, reporting
    /// checkpoint telemetry (`ldp.ingest.store.*`) to `obs`.
    pub fn with_obs(path: impl Into<PathBuf>, obs: &MetricsRegistry) -> Self {
        Self {
            path: path.into(),
            save_ns: obs.histogram("ldp.ingest.store.save_ns"),
            load_ns: obs.histogram("ldp.ingest.store.load_ns"),
            bytes_written: obs.counter("ldp.ingest.store.bytes_written"),
        }
    }

    /// The checkpoint file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a checkpoint file currently exists at the store's path.
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Durably writes `cp`, replacing any previous checkpoint atomically
    /// (via [`codec::write_atomic`]), so a crash mid-write never leaves a
    /// half checkpoint.
    pub fn save(&self, cp: &ShardCheckpoint) -> Result<(), ShardStoreError> {
        let _timed = Span::enter(&self.save_ns);
        let bytes = encode_checkpoint(cp);
        codec::write_atomic(&self.path, &bytes)?;
        self.bytes_written.inc_by(bytes.len() as u64);
        Ok(())
    }

    /// Reads and decodes the checkpoint at the store's path.
    pub fn load(&self) -> Result<ShardCheckpoint, ShardStoreError> {
        let _timed = Span::enter(&self.load_ns);
        decode_checkpoint(&codec::read_file(&self.path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardCheckpoint {
        ShardCheckpoint {
            dim: 5,
            shards: vec![
                ShardState {
                    counts: vec![1, 0, 3, 0, 7],
                    reports: 4,
                },
                ShardState {
                    counts: vec![0, 2, 0, 9, 1],
                    reports: 6,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let cp = sample();
        let restored = decode_checkpoint(&encode_checkpoint(&cp)).unwrap();
        assert_eq!(restored, cp);
        assert_eq!(restored.reports(), 10);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let cp = ShardCheckpoint {
            dim: 3,
            shards: vec![],
        };
        assert_eq!(decode_checkpoint(&encode_checkpoint(&cp)).unwrap(), cp);
    }

    #[test]
    fn rejects_shard_length_disagreeing_with_dim() {
        // Hand-craft a size-consistent checkpoint (one shard, three counts)
        // whose shard nonetheless declares len ≠ dim, with a valid
        // checksum, so the structural check itself is exercised.
        let mut w = CodecWriter::new(MAGIC, VERSION, fingerprint(3));
        w.put_u64(3); // dim = 3
        w.put_u32(1); // one shard
        w.put_u64(5); // reports
        w.put_u64(2); // len = 2 ≠ dim
        w.put_u64(1);
        w.put_u64(2);
        w.put_u64(3);
        assert_eq!(
            decode_checkpoint(&w.finish()).err(),
            Some(ShardStoreError::Corrupt("shard length differs from dim"))
        );
    }

    #[test]
    fn rejects_trailing_garbage_with_valid_checksum() {
        let mut body = encode_checkpoint(&sample());
        body.truncate(body.len() - 8); // strip checksum
        body.extend_from_slice(&[0u8; 4]); // garbage
        let sum = codec::fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&body).err(),
            Some(ShardStoreError::Corrupt("layout disagrees with file size"))
        );
    }

    #[test]
    fn rejects_a_fingerprint_for_a_different_dimension() {
        let mut w = CodecWriter::new(MAGIC, VERSION, fingerprint(7)); // claims dim 7
        w.put_u64(3); // actual dim 3
        w.put_u32(0);
        assert!(matches!(
            decode_checkpoint(&w.finish()),
            Err(ShardStoreError::Mismatch(_))
        ));
    }

    #[test]
    fn huge_declared_sizes_with_forged_checksum_never_panic_or_allocate() {
        // FNV is forgeable, so an attacker-controlled file can carry any
        // dim/shard_count with a valid trailer; decoding must reject it
        // with a typed error before sizing any allocation from it.
        for (dim, shard_count) in [
            (1u64 << 61, 1u32),
            (u64::MAX, 1),
            (4, u32::MAX),
            (u64::MAX / 8, u32::MAX),
        ] {
            let mut w = CodecWriter::new(MAGIC, VERSION, fingerprint(dim));
            w.put_u64(dim);
            w.put_u32(shard_count);
            w.put_u64(0); // a little payload
            assert!(
                matches!(
                    decode_checkpoint(&w.finish()),
                    Err(ShardStoreError::Corrupt(_))
                ),
                "dim {dim}, shards {shard_count}"
            );
        }
    }

    #[test]
    fn file_store_roundtrips_and_replaces_atomically() {
        let path =
            std::env::temp_dir().join(format!("ldp_ingest_store_test_{}.ckpt", std::process::id()));
        let store = ShardStore::with_obs(&path, &MetricsRegistry::disabled());
        assert!(!store.exists());
        store.save(&sample()).unwrap();
        assert!(store.exists());
        assert_eq!(store.load().unwrap(), sample());
        // Overwrite with a different checkpoint; the new content wins.
        let other = ShardCheckpoint {
            dim: 5,
            shards: vec![ShardState {
                counts: vec![9; 5],
                reports: 1,
            }],
        };
        store.save(&other).unwrap();
        assert_eq!(store.load().unwrap(), other);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let store =
            ShardStore::with_obs("/nonexistent/dir/never.ckpt", &MetricsRegistry::disabled());
        assert!(matches!(store.load(), Err(ShardStoreError::Io(_))));
    }

    #[test]
    fn store_telemetry_counts_operations_and_bytes() {
        let path = std::env::temp_dir().join(format!(
            "ldp_ingest_store_obs_test_{}.ckpt",
            std::process::id()
        ));
        let reg = MetricsRegistry::new();
        let store = ShardStore::with_obs(&path, &reg);
        store.save(&sample()).unwrap();
        store.save(&sample()).unwrap();
        store.load().unwrap();
        std::fs::remove_file(&path).ok();

        let snap = reg.snapshot();
        assert_eq!(snap.hist_count("ldp.ingest.store.save_ns"), 2);
        assert_eq!(snap.hist_count("ldp.ingest.store.load_ns"), 1);
        assert_eq!(
            snap.counter_total("ldp.ingest.store.bytes_written"),
            2 * encode_checkpoint(&sample()).len() as u64
        );
    }
}
