//! Durable client-state checkpoints, full and incremental.
//!
//! A collection round that loses its *client* state on a crash cannot
//! resume: the memoized PRRs would be re-randomized (silently degrading
//! into the fresh-noise regime the averaging attack breaks) and the
//! per-user RNG streams would restart, so the resumed run would diverge
//! from an uninterrupted one. This module persists everything the
//! [`ClientPool`] owns — per-user protocol state and
//! the exact RNG stream positions — as instances of the workspace's
//! unified checkpoint container ([`ldp_primitives::codec`]; byte-level
//! spec in `docs/CHECKPOINT_FORMAT.md`).
//!
//! Two on-disk shapes share one logical format:
//!
//! * **Single-file** ([`ClientStore::new`]): one `"LDCC"` container
//!   holding the configuration header and every user record. Payload,
//!   under the shared `magic | version | fingerprint` header and FNV-1a
//!   trailer:
//!
//!   ```text
//!   meta: method_tag u8 | k u64 | g u32 | b u32 | d u32
//!       | eps_inf f64 | eps_first f64 | seed u64
//!   | user_count u64
//!   | per user: rng 4 × u64 | state frame (u32 len + bytes)
//!   ```
//!
//! * **Chunked** ([`ClientStore::chunked`]): the pool is split into
//!   fixed-size user segments, each written as its own `"LDCG"` container
//!   (content-addressed by its checksum), bound together by a `"LDCM"`
//!   manifest. [`ClientStore::save_pool`] rewrites **only the segments
//!   containing users that reported since the last save** — checkpoint
//!   cost O(changed users), not O(users) — and a manifest swap commits
//!   the round atomically. [`ClientStore::load`] reassembles the identical
//!   [`ClientCheckpoint`] either way, so resume is byte-identical across
//!   modes.
//!
//! The per-user state payload is the protocol's own encoding (memo tables
//! and, for dBitFlipPM, the detection tracker); hash functions and sampled
//! bucket positions are *not* stored — they are re-derived from the
//! pool's `(seed, user)` construction streams. The container fingerprint
//! is FNV-1a over the encoded meta block, so a checkpoint can never be
//! folded into a pool built with different parameters. Version-1 files
//! (PR 4's pre-container format, without the fingerprint field) still
//! load through a migration shim; saving always writes the current
//! version.

use crate::pool::ClientPool;
use ldp_obs::{Counter, Histogram, MetricsRegistry, Span};
use ldp_primitives::codec::{self, CodecReader, CodecWriter};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"LDCC";
const VERSION: u16 = 2;

/// Chunked-mode manifest container magic.
const MANIFEST_MAGIC: &[u8; 4] = b"LDCM";
const MANIFEST_VERSION: u16 = 1;

/// Chunked-mode segment container magic.
const SEGMENT_MAGIC: &[u8; 4] = b"LDCG";
const SEGMENT_VERSION: u16 = 1;

/// The manifest's file name inside a chunked store directory.
const MANIFEST_NAME: &str = "manifest.ckpt";

/// The pool configuration a checkpoint was captured under. Every field is
/// verified on restore; a disagreement is a foreign checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Protocol registry tag (index in `Method::all()`, 255 for a custom
    /// LOLOHA parameterization).
    pub method_tag: u8,
    /// Input domain size.
    pub k: u64,
    /// LOLOHA hash range `g` (0 when the method is not LOLOHA-backed).
    pub g: u32,
    /// dBitFlipPM bucket count `b` (0 when the method is not dBitFlipPM).
    pub b: u32,
    /// dBitFlipPM sampled-bit count `d` (0 when not dBitFlipPM).
    pub d: u32,
    /// Longitudinal budget ε∞.
    pub eps_inf: f64,
    /// First-report budget ε1.
    pub eps_first: f64,
    /// The pool's master seed (per-user streams derive from it).
    pub seed: u64,
}

impl CheckpointMeta {
    /// The little-endian encoding of the meta block (the byte string the
    /// configuration fingerprint hashes).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(45);
        out.push(self.method_tag);
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.g.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.d.to_le_bytes());
        out.extend_from_slice(&self.eps_inf.to_le_bytes());
        out.extend_from_slice(&self.eps_first.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// The configuration fingerprint carried in every client-checkpoint
    /// container header: FNV-1a over the encoded meta block.
    pub fn fingerprint(&self) -> u64 {
        codec::fnv1a(&self.encode())
    }

    /// Reads the meta block back — the field-for-field mirror of
    /// [`CheckpointMeta::encode`].
    fn decode(r: &mut CodecReader<'_>) -> Result<CheckpointMeta, ClientStoreError> {
        Ok(CheckpointMeta {
            method_tag: r.get_u8()?,
            k: r.get_u64()?,
            g: r.get_u32()?,
            b: r.get_u32()?,
            d: r.get_u32()?,
            eps_inf: r.get_f64()?,
            eps_first: r.get_f64()?,
            seed: r.get_u64()?,
        })
    }
}

/// One user's captured state: the RNG stream position plus the protocol's
/// own state payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRecord {
    /// The user's Xoshiro256++ state at capture time.
    pub rng: [u64; 4],
    /// Protocol-specific state bytes (see the `state` module encoders).
    pub state: Vec<u8>,
}

/// A point-in-time capture of a whole [`ClientPool`], produced by
/// [`ClientPool::checkpoint`] and consumed by [`ClientPool::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClientCheckpoint {
    /// The configuration fingerprint the checkpoint is only valid for.
    pub meta: CheckpointMeta,
    /// One record per user, in user-index order.
    pub users: Vec<ClientRecord>,
}

/// Why a client checkpoint failed to decode, validate, or hit disk — the
/// workspace-wide checkpoint error type
/// (see [`ldp_primitives::codec::CodecError`]).
pub type ClientStoreError = codec::CodecError;

fn put_record(w: &mut CodecWriter, record: &ClientRecord) {
    for word in record.rng {
        w.put_u64(word);
    }
    w.put_frame(&record.state);
}

fn read_record(r: &mut CodecReader<'_>) -> Result<ClientRecord, ClientStoreError> {
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.get_u64()?;
    }
    let state = r.get_frame()?.to_vec();
    Ok(ClientRecord { rng, state })
}

/// Reads `count` user records, proving the declared count against the
/// buffer size *before* sizing any allocation from it (each record
/// occupies at least 36 bytes: RNG state + length prefix) — the checksum
/// is forgeable, so a crafted count must yield a typed error, never an
/// OOM.
fn read_records(
    r: &mut CodecReader<'_>,
    count: u64,
) -> Result<Vec<ClientRecord>, ClientStoreError> {
    if count
        .checked_mul(36)
        .is_none_or(|min| min > r.remaining() as u64)
    {
        return Err(ClientStoreError::Corrupt("user count exceeds file size"));
    }
    let mut users = Vec::with_capacity(count as usize);
    for _ in 0..count {
        users.push(read_record(r)?);
    }
    Ok(users)
}

/// Serializes a checkpoint into a fresh byte buffer (single-file shape).
pub fn encode_client_checkpoint(cp: &ClientCheckpoint) -> Vec<u8> {
    let per_user: usize = cp.users.iter().map(|u| 32 + 4 + u.state.len()).sum();
    let mut w =
        CodecWriter::with_capacity(MAGIC, VERSION, cp.meta.fingerprint(), 45 + 8 + per_user);
    w.put_bytes(&cp.meta.encode());
    w.put_u64(cp.users.len() as u64);
    for user in &cp.users {
        put_record(&mut w, user);
    }
    w.finish()
}

/// Restores a checkpoint from a buffer produced by
/// [`encode_client_checkpoint`] (current or any older supported format
/// version).
pub fn decode_client_checkpoint(bytes: &[u8]) -> Result<ClientCheckpoint, ClientStoreError> {
    match codec::sniff_version(bytes, MAGIC)? {
        1 => {
            // Migration shim: the PR 4 layout had no fingerprint field —
            // `magic | version | meta | users | checksum`.
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
        v => Err(ClientStoreError::UnsupportedVersion(v)),
    }
}

/// The version-independent payload: `meta | user_count | users`.
fn decode_body(
    r: &mut CodecReader<'_>,
    fingerprint_to_check: Option<u64>,
) -> Result<ClientCheckpoint, ClientStoreError> {
    let meta = CheckpointMeta::decode(r)?;
    if let Some(fp) = fingerprint_to_check {
        if fp != meta.fingerprint() {
            return Err(ClientStoreError::Mismatch(
                "fingerprint disagrees with the checkpoint configuration",
            ));
        }
    }
    let user_count = r.get_u64()?;
    let users = read_records(r, user_count)?;
    r.finish()?;
    Ok(ClientCheckpoint { meta, users })
}

/// What an incremental save wrote: `written` of `total` segments hit disk
/// (single-file mode reports `1 of 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveStats {
    /// Segment files actually (re)written this save.
    pub written: usize,
    /// Total segments the checkpoint spans.
    pub total: usize,
}

/// The decoded chunked-mode manifest: configuration, population shape,
/// and the content address (container checksum) of every segment.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    meta: CheckpointMeta,
    user_count: u64,
    chunk: u64,
    segments: Vec<u64>,
}

/// Client-store telemetry handles (`ldp.client.store.*`). Durations, byte
/// totals and segment counts only — never checkpoint payloads.
#[derive(Debug, Clone)]
struct StoreObs {
    save_ns: Histogram,
    load_ns: Histogram,
    bytes_written: Counter,
    segments_written: Counter,
    segments_total: Counter,
}

impl StoreObs {
    fn new(obs: &MetricsRegistry) -> Self {
        Self {
            save_ns: obs.histogram("ldp.client.store.save_ns"),
            load_ns: obs.histogram("ldp.client.store.load_ns"),
            bytes_written: obs.counter("ldp.client.store.bytes_written"),
            segments_written: obs.counter("ldp.client.store.segments_written"),
            segments_total: obs.counter("ldp.client.store.segments_total"),
        }
    }
}

/// A file-backed client-checkpoint location with atomic writes: one file
/// (default) or a directory of per-segment files plus a manifest
/// ([`ClientStore::chunked`]).
#[derive(Debug, Clone)]
pub struct ClientStore {
    path: PathBuf,
    chunk: Option<usize>,
    obs: StoreObs,
}

impl ClientStore {
    /// Creates a single-file store writing to / reading from `path`,
    /// reporting checkpoint telemetry (`ldp.client.store.*`) to `obs`.
    pub fn new(path: impl Into<PathBuf>, obs: &MetricsRegistry) -> Self {
        Self {
            path: path.into(),
            chunk: None,
            obs: StoreObs::new(obs),
        }
    }

    /// Creates a chunked store under directory `dir`, splitting the user
    /// pool into segments of `chunk` users each. [`ClientStore::save_pool`]
    /// then rewrites only dirty segments per round.
    ///
    /// # Panics
    /// Panics if `chunk` is zero — a segment must hold at least one user.
    pub fn chunked(dir: impl Into<PathBuf>, chunk: usize, obs: &MetricsRegistry) -> Self {
        assert!(chunk >= 1, "segment size must be at least 1 user");
        Self {
            path: dir.into(),
            chunk: Some(chunk),
            obs: StoreObs::new(obs),
        }
    }

    /// The checkpoint location: the file (single-file mode) or the
    /// directory holding the manifest and segments (chunked mode).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The segment size, when the store is chunked.
    pub fn chunk(&self) -> Option<usize> {
        self.chunk
    }

    /// Whether a loadable checkpoint currently exists at the store's
    /// location (in chunked mode: whether the manifest does).
    pub fn exists(&self) -> bool {
        match self.chunk {
            None => self.path.exists(),
            Some(_) => self.manifest_path().exists(),
        }
    }

    fn manifest_path(&self) -> PathBuf {
        self.path.join(MANIFEST_NAME)
    }

    fn segment_path(&self, index: usize, checksum: u64) -> PathBuf {
        self.path
            .join(format!("seg-{index:05}-{checksum:016x}.seg"))
    }

    /// Durably writes `cp` in full, replacing any previous checkpoint
    /// atomically; in chunked mode every segment is rewritten. Prefer
    /// [`ClientStore::save_pool`] for per-round saves — it skips clean
    /// segments.
    pub fn save(&self, cp: &ClientCheckpoint) -> Result<(), ClientStoreError> {
        let _timed = Span::enter(&self.obs.save_ns);
        match self.chunk {
            None => self.save_single(cp),
            Some(chunk) => self
                .save_segments(&cp.meta, cp.users.len(), chunk, None, &|u| {
                    cp.users[u].clone()
                })
                .map(|_| ()),
        }
    }

    /// The single-file write path, shared by [`Self::save`] and
    /// [`Self::save_pool`], accounting one written "segment" of one.
    // ldp_lint::allow(C002): the single-file read path is the un-chunked branch of load()
    fn save_single(&self, cp: &ClientCheckpoint) -> Result<(), ClientStoreError> {
        let bytes = encode_client_checkpoint(cp);
        codec::write_atomic(&self.path, &bytes)?;
        self.obs.bytes_written.inc_by(bytes.len() as u64);
        self.obs.segments_written.inc();
        self.obs.segments_total.inc();
        Ok(())
    }

    /// Durably saves the pool's current state and marks the pool clean.
    /// In chunked mode only segments containing users that reported (or
    /// were restored) since the last [`ClientStore::save_pool`] /
    /// [`ClientPool::mark_clean`](crate::ClientPool::mark_clean) are
    /// rewritten — O(changed users), not O(users) — and the returned
    /// [`SaveStats`] says how many hit disk.
    pub fn save_pool(&self, pool: &mut ClientPool) -> Result<SaveStats, ClientStoreError> {
        let _timed = Span::enter(&self.obs.save_ns);
        let stats = match self.chunk {
            None => {
                self.save_single(&pool.checkpoint())?;
                SaveStats {
                    written: 1,
                    total: 1,
                }
            }
            Some(chunk) => {
                let meta = pool.config().meta(pool.seed());
                self.save_segments(&meta, pool.len(), chunk, Some(pool.dirty()), &|u| {
                    pool.record(u)
                })?
            }
        };
        pool.mark_clean();
        Ok(stats)
    }

    /// Loads the checkpoint and folds it into `pool` — the read-side
    /// counterpart of [`ClientStore::save_pool`]. Equivalent to
    /// [`ClientStore::load`] followed by
    /// [`ClientPool::restore`](crate::ClientPool::restore).
    pub fn load_pool(&self, pool: &mut ClientPool) -> Result<(), ClientStoreError> {
        pool.restore(&self.load()?)
    }

    /// The chunked-mode write path: encodes dirty segments to
    /// content-addressed files, reuses the previous manifest's entries for
    /// clean ones, swaps the manifest in atomically, then garbage-collects
    /// unreferenced segment files. A crash at any point leaves the
    /// previous manifest and its segments fully intact.
    /// `record` is only invoked for users inside segments that actually
    /// get rewritten, which is what keeps an incremental save's encode
    /// cost O(changed users), not O(users).
    // ldp_lint::allow(C002): read path is split across load_manifest/load_segment
    fn save_segments(
        &self,
        meta: &CheckpointMeta,
        n: usize,
        chunk: usize,
        dirty: Option<&[bool]>,
        record: &dyn Fn(usize) -> ClientRecord,
    ) -> Result<SaveStats, ClientStoreError> {
        std::fs::create_dir_all(&self.path).map_err(|e| ClientStoreError::Io(e.to_string()))?;
        let total = n.div_ceil(chunk);
        let fp = meta.fingerprint();
        // Clean segments reuse the previous manifest's content addresses —
        // but only when that manifest describes the same configuration and
        // population shape.
        let prev = self.load_manifest().ok().filter(|m| {
            m.meta.fingerprint() == fp
                && m.user_count == n as u64
                && m.chunk == chunk as u64
                && m.segments.len() == total
        });
        let mut checksums = Vec::with_capacity(total);
        let mut written = 0usize;
        for i in 0..total {
            let range = i * chunk..((i + 1) * chunk).min(n);
            let is_clean = dirty
                .map(|d| !d[range.clone()].iter().any(|&x| x))
                .unwrap_or(false);
            if is_clean {
                if let Some(m) = &prev {
                    let sum = m.segments[i];
                    if self.segment_path(i, sum).exists() {
                        checksums.push(sum);
                        continue;
                    }
                    // Segment file vanished out from under the manifest:
                    // fall through and rewrite it from the live records.
                }
            }
            let mut w = CodecWriter::new(SEGMENT_MAGIC, SEGMENT_VERSION, fp);
            w.put_u32(u32::try_from(i).expect("segment index fits u32"));
            w.put_u64((i * chunk) as u64);
            w.put_u32(u32::try_from(range.len()).expect("segment size fits u32"));
            for u in range {
                put_record(&mut w, &record(u));
            }
            let bytes = w.finish();
            let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("trailer"));
            codec::write_atomic(&self.segment_path(i, sum), &bytes)?;
            self.obs.bytes_written.inc_by(bytes.len() as u64);
            checksums.push(sum);
            written += 1;
        }
        // Commit: the manifest swap makes the new segment set current.
        let mut w = CodecWriter::new(MANIFEST_MAGIC, MANIFEST_VERSION, fp);
        w.put_bytes(&meta.encode());
        w.put_u64(n as u64);
        w.put_u64(chunk as u64);
        w.put_u32(u32::try_from(total).expect("segment count fits u32"));
        for &sum in &checksums {
            w.put_u64(sum);
        }
        let manifest_bytes = w.finish();
        codec::write_atomic(&self.manifest_path(), &manifest_bytes)?;
        self.obs.bytes_written.inc_by(manifest_bytes.len() as u64);
        // Garbage-collect segment files the new manifest no longer
        // references (previous generations, orphans from crashed saves)
        // and `.tmp` files left by a `write_atomic` that died between
        // write and rename — the commit just completed, so any temp file
        // still present is garbage.
        let referenced: std::collections::HashSet<PathBuf> = checksums
            .iter()
            .enumerate()
            .map(|(i, &sum)| self.segment_path(i, sum))
            .collect();
        if let Ok(entries) = std::fs::read_dir(&self.path) {
            for entry in entries.flatten() {
                let p = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let stale_seg =
                    name.starts_with("seg-") && name.ends_with(".seg") && !referenced.contains(&p);
                if stale_seg || name.ends_with(".tmp") {
                    std::fs::remove_file(&p).ok();
                }
            }
        }
        self.obs.segments_written.inc_by(written as u64);
        self.obs.segments_total.inc_by(total as u64);
        Ok(SaveStats { written, total })
    }

    fn load_manifest(&self) -> Result<Manifest, ClientStoreError> {
        let bytes = codec::read_file(&self.manifest_path())?;
        let mut r = CodecReader::open(&bytes, MANIFEST_MAGIC, MANIFEST_VERSION)?;
        let meta = CheckpointMeta::decode(&mut r)?;
        r.expect_fingerprint(
            meta.fingerprint(),
            "manifest fingerprint disagrees with its configuration",
        )?;
        let user_count = r.get_u64()?;
        let chunk = r.get_u64()?;
        if chunk == 0 {
            return Err(ClientStoreError::Corrupt("manifest declares zero chunk"));
        }
        let seg_count = r.get_u32()? as u64;
        if seg_count != user_count.div_ceil(chunk) {
            return Err(ClientStoreError::Corrupt(
                "segment count disagrees with population and chunk",
            ));
        }
        if (seg_count * 8) as usize != r.remaining() {
            return Err(ClientStoreError::Corrupt("layout disagrees with file size"));
        }
        let mut segments = Vec::with_capacity(seg_count as usize);
        for _ in 0..seg_count {
            segments.push(r.get_u64()?);
        }
        r.finish()?;
        Ok(Manifest {
            meta,
            user_count,
            chunk,
            segments,
        })
    }

    /// Reads one segment file and appends its records to `users`,
    /// verifying identity (index, base, count) and integrity (container
    /// checksum must equal the manifest's content address).
    fn load_segment(
        &self,
        manifest: &Manifest,
        index: usize,
        users: &mut Vec<ClientRecord>,
    ) -> Result<(), ClientStoreError> {
        let sum = manifest.segments[index];
        let bytes = codec::read_file(&self.segment_path(index, sum))?;
        let actual = u64::from_le_bytes(
            bytes[bytes.len().saturating_sub(8)..]
                .try_into()
                .map_err(|_| ClientStoreError::Truncated)?,
        );
        if actual != sum {
            return Err(ClientStoreError::Corrupt(
                "segment content differs from its manifest entry",
            ));
        }
        let mut r = CodecReader::open(&bytes, SEGMENT_MAGIC, SEGMENT_VERSION)?;
        r.expect_fingerprint(
            manifest.meta.fingerprint(),
            "segment belongs to a different configuration",
        )?;
        let base = index as u64 * manifest.chunk;
        let expect = manifest.chunk.min(manifest.user_count - base);
        if u64::from(r.get_u32()?) != index as u64 {
            return Err(ClientStoreError::Corrupt("segment index out of place"));
        }
        if r.get_u64()? != base {
            return Err(ClientStoreError::Corrupt("segment user base out of place"));
        }
        let count = u64::from(r.get_u32()?);
        if count != expect {
            return Err(ClientStoreError::Corrupt(
                "segment user count disagrees with the manifest",
            ));
        }
        users.extend(read_records(&mut r, count)?);
        r.finish()
    }

    /// Reads and decodes the checkpoint at the store's location. In
    /// chunked mode the manifest and every segment are reassembled into
    /// the same [`ClientCheckpoint`] a single-file load would produce.
    pub fn load(&self) -> Result<ClientCheckpoint, ClientStoreError> {
        let _timed = Span::enter(&self.obs.load_ns);
        match self.chunk {
            None => decode_client_checkpoint(&codec::read_file(&self.path)?),
            Some(_) => {
                let manifest = self.load_manifest()?;
                // The manifest's user_count is as forgeable as any other
                // field, so no allocation is sized from it: the vector
                // grows only as each segment's own record count is proven
                // against that file's real bytes (`read_records`).
                let mut users = Vec::new();
                for index in 0..manifest.segments.len() {
                    self.load_segment(&manifest, index, &mut users)?;
                }
                Ok(ClientCheckpoint {
                    meta: manifest.meta,
                    users,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A telemetry registry that records nothing.
    fn off() -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    fn sample() -> ClientCheckpoint {
        ClientCheckpoint {
            meta: CheckpointMeta {
                method_tag: 3,
                k: 24,
                g: 0,
                b: 0,
                d: 0,
                eps_inf: 2.0,
                eps_first: 1.0,
                seed: 77,
            },
            users: vec![
                ClientRecord {
                    rng: [1, 2, 3, 4],
                    state: vec![9, 8, 7],
                },
                ClientRecord {
                    rng: [5, 6, 7, 8],
                    state: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let cp = sample();
        assert_eq!(
            decode_client_checkpoint(&encode_client_checkpoint(&cp)).unwrap(),
            cp
        );
    }

    #[test]
    fn empty_population_roundtrips() {
        let mut cp = sample();
        cp.users.clear();
        assert_eq!(
            decode_client_checkpoint(&encode_client_checkpoint(&cp)).unwrap(),
            cp
        );
    }

    #[test]
    fn huge_forged_user_count_never_allocates() {
        // Forge a valid checksum over a tiny body declaring 2^60 users:
        // decoding must reject before sizing any allocation.
        let mut cp = sample();
        cp.users.clear();
        let mut body = encode_client_checkpoint(&cp);
        body.truncate(body.len() - 8); // strip checksum
        let count_at = body.len() - 8;
        body[count_at..].copy_from_slice(&(1u64 << 60).to_le_bytes());
        body.extend_from_slice(&codec::fnv1a(&body).to_le_bytes());
        assert_eq!(
            decode_client_checkpoint(&body).err(),
            Some(ClientStoreError::Corrupt("user count exceeds file size"))
        );
    }

    #[test]
    fn trailing_garbage_with_valid_checksum_is_rejected() {
        let mut body = encode_client_checkpoint(&sample());
        body.truncate(body.len() - 8);
        body.extend_from_slice(&[0u8; 3]);
        body.extend_from_slice(&codec::fnv1a(&body).to_le_bytes());
        assert!(matches!(
            decode_client_checkpoint(&body),
            Err(ClientStoreError::Truncated | ClientStoreError::Corrupt(_))
        ));
    }

    #[test]
    fn forged_fingerprint_is_a_mismatch() {
        let mut body = encode_client_checkpoint(&sample());
        body.truncate(body.len() - 8);
        body[6..14].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        body.extend_from_slice(&codec::fnv1a(&body).to_le_bytes());
        assert!(matches!(
            decode_client_checkpoint(&body),
            Err(ClientStoreError::Mismatch(_))
        ));
    }

    #[test]
    fn file_store_roundtrips_and_replaces_atomically() {
        let path =
            std::env::temp_dir().join(format!("ldp_client_store_test_{}.ckpt", std::process::id()));
        let store = ClientStore::new(&path, &off());
        assert!(!store.exists());
        store.save(&sample()).unwrap();
        assert!(store.exists());
        assert_eq!(store.load().unwrap(), sample());
        let mut other = sample();
        other.users.pop();
        store.save(&other).unwrap();
        assert_eq!(store.load().unwrap(), other);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let store = ClientStore::new("/nonexistent/dir/never.ckpt", &off());
        assert!(matches!(store.load(), Err(ClientStoreError::Io(_))));
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ldp_client_store_{tag}_{}_{:p}",
            std::process::id(),
            &tag
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn chunked_full_save_load_matches_single_file() {
        let dir = scratch_dir("chunked_roundtrip");
        let store = ClientStore::chunked(&dir, 1, &off());
        assert!(!store.exists());
        let cp = sample();
        store.save(&cp).unwrap();
        assert!(store.exists());
        assert_eq!(store.load().unwrap(), cp);
        // Two users at chunk 1 → two segment files plus the manifest.
        let segs = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .count();
        assert_eq!(segs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_empty_population_roundtrips() {
        let dir = scratch_dir("chunked_empty");
        let store = ClientStore::chunked(&dir, 4, &off());
        let mut cp = sample();
        cp.users.clear();
        store.save(&cp).unwrap();
        assert_eq!(store.load().unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_segment_content_is_rejected() {
        let dir = scratch_dir("chunked_stale");
        let store = ClientStore::chunked(&dir, 1, &off());
        let cp = sample();
        store.save(&cp).unwrap();
        // Swap one segment's bytes for a *valid* segment sealed under a
        // different content: the manifest's address no longer matches.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("seg-00001")
            })
            .unwrap();
        let mut w = CodecWriter::new(SEGMENT_MAGIC, SEGMENT_VERSION, cp.meta.fingerprint());
        w.put_u32(1);
        w.put_u64(1);
        w.put_u32(1);
        put_record(
            &mut w,
            &ClientRecord {
                rng: [9, 9, 9, 9],
                state: vec![1],
            },
        );
        std::fs::write(&seg, w.finish()).unwrap();
        assert!(matches!(
            store.load(),
            Err(ClientStoreError::Corrupt(
                "segment content differs from its manifest entry"
            ))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_segment_is_an_io_error() {
        let dir = scratch_dir("chunked_missing");
        let store = ClientStore::chunked(&dir, 2, &off());
        store.save(&sample()).unwrap();
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"))
            .unwrap();
        std::fs::remove_file(&seg).unwrap();
        assert!(matches!(store.load(), Err(ClientStoreError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "segment size must be at least 1 user")]
    fn zero_chunk_panics() {
        let _ = ClientStore::chunked("/tmp/never", 0, &off());
    }

    #[test]
    fn forged_huge_manifest_user_count_never_allocates_or_panics() {
        // A manifest declaring 2^60 users (with a matching chunk so the
        // seg_count consistency check passes, and a valid checksum) must
        // produce a typed error — never a capacity-overflow panic or an
        // OOM sized from the forged count.
        let dir = scratch_dir("forged_manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = sample().meta;
        let mut w = CodecWriter::new(MANIFEST_MAGIC, MANIFEST_VERSION, meta.fingerprint());
        w.put_bytes(&meta.encode());
        w.put_u64(1 << 60); // user_count
        w.put_u64(1 << 60); // chunk → seg_count 1 is self-consistent
        w.put_u32(1);
        w.put_u64(0xABCD); // segment content address
        std::fs::write(dir.join(MANIFEST_NAME), w.finish()).unwrap();
        // Also plant the referenced segment so the load reaches the
        // per-segment validation rather than stopping at a missing file.
        let mut s = CodecWriter::new(SEGMENT_MAGIC, SEGMENT_VERSION, meta.fingerprint());
        s.put_u32(0);
        s.put_u64(0);
        s.put_u32(1);
        let seg = s.finish();
        let sum = u64::from_le_bytes(seg[seg.len() - 8..].try_into().unwrap());
        let mut fixed = CodecWriter::new(MANIFEST_MAGIC, MANIFEST_VERSION, meta.fingerprint());
        fixed.put_bytes(&meta.encode());
        fixed.put_u64(1 << 60);
        fixed.put_u64(1 << 60);
        fixed.put_u32(1);
        fixed.put_u64(sum);
        std::fs::write(dir.join(MANIFEST_NAME), fixed.finish()).unwrap();
        std::fs::write(dir.join(format!("seg-00000-{sum:016x}.seg")), &seg).unwrap();
        let store = ClientStore::chunked(&dir, 4, &off());
        assert!(matches!(
            store.load(),
            Err(ClientStoreError::Corrupt(_) | ClientStoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_segments_never_serialize_their_users() {
        // The O(changed users) contract covers encoding, not just disk
        // writes: a save with k dirty segments must call the record
        // provider only for users inside those k segments.
        use std::cell::Cell;
        let dir = scratch_dir("lazy_records");
        let store = ClientStore::chunked(&dir, 2, &off());
        let cp = sample(); // 2 users → 1 segment at chunk 2
        let meta = cp.meta;
        let calls = Cell::new(0usize);
        let provider = |u: usize| {
            calls.set(calls.get() + 1);
            cp.users[u].clone()
        };
        // First save: no previous manifest, every segment encodes.
        store
            .save_segments(&meta, 2, 2, Some(&[false, false]), &provider)
            .unwrap();
        assert_eq!(calls.get(), 2);
        // Clean re-save: the manifest entry is reused, nobody serializes.
        calls.set(0);
        let stats = store
            .save_segments(&meta, 2, 2, Some(&[false, false]), &provider)
            .unwrap();
        assert_eq!(stats.written, 0);
        assert_eq!(calls.get(), 0, "clean segment must not touch its users");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_telemetry_agrees_with_save_stats() {
        let dir = scratch_dir("obs_counters");
        let reg = MetricsRegistry::new();
        let store = ClientStore::chunked(&dir, 1, &reg);
        let cp = sample(); // 2 users → 2 segments at chunk 1

        store.save(&cp).unwrap(); // full save: both segments hit disk
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ldp.client.store.segments_written"), 2);
        assert_eq!(snap.counter_total("ldp.client.store.segments_total"), 2);
        assert_eq!(snap.hist_count("ldp.client.store.save_ns"), 1);
        assert!(snap.counter_total("ldp.client.store.bytes_written") > 0);

        // Incremental save with one dirty user: exactly the stats delta
        // lands on the cumulative counters.
        let stats = store
            .save_segments(&cp.meta, 2, 1, Some(&[true, false]), &|u| {
                cp.users[u].clone()
            })
            .unwrap();
        assert_eq!(
            stats,
            SaveStats {
                written: 1,
                total: 2
            }
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ldp.client.store.segments_written"), 3);
        assert_eq!(snap.counter_total("ldp.client.store.segments_total"), 4);

        store.load().unwrap();
        assert_eq!(reg.snapshot().hist_count("ldp.client.store.load_ns"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_sweeps_tmp_orphans_from_crashed_writes() {
        let dir = scratch_dir("tmp_gc");
        let store = ClientStore::chunked(&dir, 2, &off());
        store.save(&sample()).unwrap();
        // Simulate write_atomic crashes: orphaned temp files for a
        // segment and for the manifest itself.
        std::fs::write(dir.join("seg-00099-00000000deadbeef.seg.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("manifest.ckpt.tmp"), b"junk").unwrap();
        store.save(&sample()).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp orphans survived GC: {leftovers:?}"
        );
        assert_eq!(store.load().unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }
}
