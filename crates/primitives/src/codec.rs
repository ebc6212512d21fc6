//! The one container format every checkpoint and wire frame in this
//! workspace is built on.
//!
//! Six stores persist state across restarts — the standalone LOLOHA
//! client snapshots (`loloha::persist`), the shard-state checkpoints
//! (`ldp_ingest::store`), the client-pool checkpoints, single-file and
//! chunked (`ldp_client::store`), the sweep progress of
//! `ldp_harness::checkpoint` and the `collectd` daemon checkpoints
//! (`ldp_netd::store`) — and `ldp_netd`'s wire frames travel in the
//! same container. It is implemented here exactly once. The normative
//! specification lives in `docs/CHECKPOINT_FORMAT.md` (the wire
//! container in `docs/WIRE_FORMAT.md`); this module is its reference
//! implementation.
//!
//! Container layout (little-endian throughout):
//!
//! ```text
//! magic [u8; 4] | version u16 | fingerprint u64
//! | payload (store-specific, length-prefixed frames for variable parts)
//! | checksum u64 (over every preceding byte; see below for which hash)
//! ```
//!
//! * The **magic** names the store; a file with a different magic is
//!   foreign ([`CodecError::BadMagic`]).
//! * The **version** is the store's format version. Decoders sniff it
//!   first ([`sniff_version`]) so they can route legacy versions to
//!   migration shims; versions newer than the build are rejected as
//!   [`CodecError::UnsupportedVersion`], never guessed at.
//! * The **fingerprint** pins the configuration the payload is only valid
//!   for (each store documents what it hashes); folding a checkpoint into
//!   a differently-configured consumer is a [`CodecError::Mismatch`].
//! * The **checksum** is picked by the header: [`XXH64_TRAILERS`] lists
//!   the (magic, first version) pairs whose trailer is XXH64 ([`xxh64`],
//!   seed 0), and every other container's trailer is FNV-1a ([`fnv1a`]).
//!   Today that is `LDNW` from version 3 on, where a ~24 KB submit frame
//!   is checksummed once per side per frame. Either hash is corruption
//!   detection, *not* a cryptographic integrity guarantee: decoders must
//!   still prove every declared length against the actual buffer before
//!   sizing an allocation from it.
//!
//! [`CodecWriter`] builds a container (header up front, checksum appended
//! by [`CodecWriter::finish`]); [`CodecReader::open`] verifies magic,
//! version, and checksum before exposing a single payload byte, then
//! hands out bounds-checked reads. [`CodecReader::raw`] runs the same
//! bounds-checked reads over a bare sub-payload (no header, no trailer) —
//! the per-protocol state blobs nested inside client checkpoints use it.
//! [`write_atomic`] is the shared durable-write path: temp file + rename,
//! so a crash mid-write never clobbers the previous checkpoint.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Bytes of the fixed container header: magic + version + fingerprint.
pub const HEADER_LEN: usize = 4 + 2 + 8;
/// Bytes of the checksum trailer (FNV-1a or XXH64; both are 64-bit).
pub const CHECKSUM_LEN: usize = 8;

/// The (magic, first version) pairs whose containers carry an XXH64
/// trailer. Every other container, and every earlier version of these,
/// carries FNV-1a. `docs/CHECKPOINT_FORMAT.md` §3 names each magic's
/// trailer, and a tier-1 test holds the two together.
pub const XXH64_TRAILERS: &[(&[u8; 4], u16)] = &[(b"LDNW", 3)];

/// The hash in a container's checksum trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trailer {
    /// 64-bit FNV-1a ([`fnv1a`]).
    Fnv1a,
    /// XXH64 with seed 0 ([`xxh64`]).
    Xxh64,
}

impl Trailer {
    /// The trailer a container of `magic` at `version` carries.
    pub fn of(magic: &[u8; 4], version: u16) -> Trailer {
        let xxh = XXH64_TRAILERS
            .iter()
            .any(|&(m, from)| m == magic && version >= from);
        if xxh {
            Trailer::Xxh64
        } else {
            Trailer::Fnv1a
        }
    }

    /// The trailer named by a container header (its magic and version);
    /// FNV-1a when `header` is too short to hold them.
    fn of_header(header: &[u8]) -> Trailer {
        match *header {
            [a, b, c, d, v0, v1, ..] => Trailer::of(&[a, b, c, d], u16::from_le_bytes([v0, v1])),
            _ => Trailer::Fnv1a,
        }
    }

    /// The hash's name as `docs/CHECKPOINT_FORMAT.md` §3 writes it.
    pub fn name(self) -> &'static str {
        match self {
            Trailer::Fnv1a => "FNV-1a",
            Trailer::Xxh64 => "XXH64",
        }
    }

    /// The checksum of `bytes` under this hash.
    pub fn sum(self, bytes: &[u8]) -> u64 {
        match self {
            Trailer::Fnv1a => fnv1a(bytes),
            Trailer::Xxh64 => xxh64(bytes),
        }
    }
}

/// Why a checkpoint failed to decode, validate, or hit disk. The single
/// error type shared by every durable format in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the declared layout.
    Truncated,
    /// The magic bytes do not match (a foreign file).
    BadMagic,
    /// The version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The trailing checksum does not match the content (bit rot or a
    /// partial overwrite).
    ChecksumMismatch,
    /// A decoded field is outside its domain (corrupt checkpoint).
    Corrupt(&'static str),
    /// The checkpoint was captured under a different configuration than
    /// the consumer it is being folded into.
    Mismatch(&'static str),
    /// An underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "checkpoint is truncated"),
            CodecError::BadMagic => write!(f, "checkpoint has wrong magic bytes (foreign file)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "checkpoint version {v} is not supported by this build")
            }
            CodecError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupt file)")
            }
            CodecError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
            CodecError::Mismatch(what) => {
                write!(f, "checkpoint does not match this configuration: {what}")
            }
            CodecError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
        }
    }
}

impl Error for CodecError {}

/// FNV-1a, 64-bit: the workspace's fingerprint hash, and the checksum of
/// every container [`XXH64_TRAILERS`] does not list. Tiny and
/// dependency-free; forgeable by construction, so it detects accidents,
/// not adversaries.
///
/// An all-zero 8-byte word leaves each xor step as it is, so it folds as
/// one multiply by the prime's eighth power: the zero runs that fill most
/// fresh shard checkpoints cost a multiply per word, not per byte.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(FNV_OFFSET, |h, word| {
        if *word == [0; 8] {
            h.wrapping_mul(FNV_PRIME_POW8)
        } else {
            fnv1a_bytes(h, word)
        }
    });
    fnv1a_bytes(h, tail)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_PRIME_POW8: u64 = {
    let p2 = FNV_PRIME.wrapping_mul(FNV_PRIME);
    let p4 = p2.wrapping_mul(p2);
    p4.wrapping_mul(p4)
};

/// FNV-1a's byte-serial steps over `bytes`, from state `h`.
fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: fold the 8-byte word `input` into `acc`.
fn xxh64_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// XXH64 with seed 0, the xxHash 64-bit function as published in its
/// specification. Four independent lanes take one 8-byte word each per
/// 32-byte stripe, so it runs at several bytes per cycle where FNV-1a's
/// one dependent multiply per byte cannot. Like FNV-1a it detects
/// accidents, not adversaries.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        PRIME64_5
    } else {
        let mut lanes = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in stripes {
            let (words, _) = stripe.as_chunks::<8>();
            for (lane, word) in lanes.iter_mut().zip(words) {
                *lane = xxh64_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for lane in lanes {
            h = (h ^ xxh64_round(0, lane))
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        h ^= xxh64_round(0, u64::from_le_bytes(*word));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let (halves, tail) = tail.as_chunks::<4>();
    for half in halves {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Reads the magic and version of a container without touching the rest,
/// so decoders can route legacy versions to migration shims before the
/// full (checksummed) open.
pub fn sniff_version(bytes: &[u8], magic: &[u8; 4]) -> Result<u16, CodecError> {
    if bytes.len() >= 4 && &bytes[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    if bytes.len() < 6 {
        return Err(CodecError::Truncated);
    }
    Ok(u16::from_le_bytes([bytes[4], bytes[5]]))
}

/// Verifies the FNV-1a trailer of a checksummed buffer and returns the
/// body (everything before the trailer). Legacy (pre-unified-header)
/// decoders use this to share the trailer check without the fingerprint
/// field.
pub fn split_checksummed(bytes: &[u8]) -> Result<&[u8], CodecError> {
    split_trailer(bytes, Trailer::Fnv1a)
}

/// Verifies a `trailer` checksum over everything before it and returns
/// that body.
fn split_trailer(bytes: &[u8], trailer: Trailer) -> Result<&[u8], CodecError> {
    if bytes.len() < CHECKSUM_LEN {
        return Err(CodecError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    // ldp_lint::allow(L001): split_at(len - 8) makes the trailer exactly 8 bytes
    let declared = u64::from_le_bytes(tail.try_into().expect("8-byte trailer"));
    if trailer.sum(body) != declared {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(body)
}

/// Builds one container: header eagerly, payload via the `put_*` methods,
/// checksum appended by [`CodecWriter::finish`].
#[derive(Debug)]
pub struct CodecWriter {
    buf: Vec<u8>,
}

impl CodecWriter {
    /// Starts a container with the given magic, format version, and
    /// configuration fingerprint.
    pub fn new(magic: &[u8; 4], version: u16, fingerprint: u64) -> Self {
        Self::with_capacity(magic, version, fingerprint, 0)
    }

    /// Like [`CodecWriter::new`], pre-reserving `payload` bytes beyond the
    /// header and trailer.
    pub fn with_capacity(magic: &[u8; 4], version: u16, fingerprint: u64, payload: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload + CHECKSUM_LEN);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        Self { buf }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends little-endian `u64`s back to back: the buffer grows once,
    /// then each word lands in its own 8-byte slot. The same bytes as one
    /// [`Self::put_u64`] per word.
    #[inline]
    pub fn put_u64s(&mut self, words: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * words.len(), 0);
        for (slot, word) in self.buf[start..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Appends a little-endian IEEE-754 `f64` (bit pattern, so NaN
    /// payloads and signed zeros round-trip exactly).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no framing (fixed-width fields).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed frame: `len u32 | len bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds `u32::MAX` — frames are for per-record
    /// payloads, which are orders of magnitude smaller.
    pub fn put_frame(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("frame exceeds u32::MAX");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far (header included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written (never true: the header is eager).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends the checksum trailer the header names ([`Trailer::of`])
    /// over everything written and returns the finished container.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = Trailer::of_header(&self.buf).sum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Bounds-checked little-endian reads over a container payload (via
/// [`CodecReader::open`]) or a bare sub-payload (via [`CodecReader::raw`]).
/// Every failure mode is a typed [`CodecError`], never a panic.
#[derive(Debug)]
pub struct CodecReader<'a> {
    /// The readable region: container payload (header consumed, trailer
    /// excluded) or the raw slice.
    bytes: &'a [u8],
    pos: usize,
    fingerprint: u64,
}

impl<'a> CodecReader<'a> {
    /// Opens a container: verifies the magic, requires exactly `version`
    /// (legacy versions must be routed to shims via [`sniff_version`]
    /// *before* calling this), and verifies the checksum trailer the
    /// header names ([`Trailer::of`]) before exposing any payload byte.
    pub fn open(bytes: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Self, CodecError> {
        let got = sniff_version(bytes, magic)?;
        if got != version {
            return Err(CodecError::UnsupportedVersion(got));
        }
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(CodecError::Truncated);
        }
        let body = split_trailer(bytes, Trailer::of(magic, version))?;
        // ldp_lint::allow(L001): the length floor above proves 8 header bytes exist
        let fingerprint = u64::from_le_bytes(body[6..HEADER_LEN].try_into().expect("header"));
        Ok(Self {
            bytes: &body[HEADER_LEN..],
            pos: 0,
            fingerprint,
        })
    }

    /// Wraps a bare sub-payload (no header, no checksum) in the same
    /// bounds-checked reads — for state blobs nested inside a container.
    pub fn raw(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            fingerprint: 0,
        }
    }

    /// The container's configuration fingerprint (0 for raw readers).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Requires the container's fingerprint to equal `want`; anything else
    /// is a foreign checkpoint.
    pub fn expect_fingerprint(&self, want: u64, what: &'static str) -> Result<(), CodecError> {
        if self.fingerprint != want {
            return Err(CodecError::Mismatch(what));
        }
        Ok(())
    }

    /// Unread payload bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Takes an exact-width array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        // ldp_lint::allow(L001): take(N) returns exactly N bytes or errors first
        Ok(self.take(N)?.try_into().expect("exact length"))
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f64` bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a length-prefixed frame written by [`CodecWriter::put_frame`].
    pub fn get_frame(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Requires the payload to be fully consumed — trailing bytes mean a
    /// forged length field or a hand-edited file.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.pos != self.bytes.len() {
            return Err(CodecError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Durably writes `bytes` to `path`: the content lands in a sibling
/// `.tmp` file first and is renamed over the destination, so a crash
/// mid-write never leaves a half-written checkpoint where a valid one
/// stood.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CodecError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes).map_err(|e| CodecError::Io(e.to_string()))?;
    fs::rename(&tmp, path).map_err(|e| CodecError::Io(e.to_string()))
}

/// Reads a whole checkpoint file, mapping filesystem failures to
/// [`CodecError::Io`].
pub fn read_file(path: &Path) -> Result<Vec<u8>, CodecError> {
    fs::read(path).map_err(|e| CodecError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TEST";

    fn sample() -> Vec<u8> {
        let mut w = CodecWriter::new(MAGIC, 3, 0xF00D);
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(-0.0);
        w.put_frame(b"abc");
        w.finish()
    }

    #[test]
    fn fnv1a_equals_the_byte_serial_definition() {
        let serial = |bytes: &[u8]| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // SplitMix64 bytes, then a zero run over every [start, end) of
        // every length 0..=64, so zero words land at every offset.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_byte = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) as u8
        };
        for len in 0..=64 {
            let random: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            for start in 0..=len {
                for end in start..=len {
                    let mut bytes = random.clone();
                    bytes[start..end].fill(0);
                    assert_eq!(fnv1a(&bytes), serial(&bytes), "{bytes:?}");
                }
            }
        }
    }

    #[test]
    fn bulk_words_are_the_bytes_of_one_put_per_word() {
        let words = [0, 1, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63];
        let mut bulk = CodecWriter::new(MAGIC, 3, 0);
        bulk.put_u8(9);
        bulk.put_u64s(&words);
        bulk.put_u64s(&[]);
        let mut single = CodecWriter::new(MAGIC, 3, 0);
        single.put_u8(9);
        for &word in &words {
            single.put_u64(word);
        }
        assert_eq!(bulk.len(), HEADER_LEN + 1 + 8 * words.len());
        assert_eq!(bulk.finish(), single.finish());
    }

    #[test]
    fn writer_reader_roundtrip() {
        let bytes = sample();
        let mut r = CodecReader::open(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.fingerprint(), 0xF00D);
        r.expect_fingerprint(0xF00D, "cfg").unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_frame().unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn open_rejects_foreign_magic_and_versions() {
        let bytes = sample();
        assert_eq!(
            CodecReader::open(&bytes, b"ELSE", 3).err(),
            Some(CodecError::BadMagic)
        );
        assert_eq!(
            CodecReader::open(&bytes, MAGIC, 2).err(),
            Some(CodecError::UnsupportedVersion(3))
        );
        assert_eq!(sniff_version(&bytes, MAGIC).unwrap(), 3);
    }

    #[test]
    fn open_rejects_every_truncation_with_a_typed_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = CodecReader::open(&bytes[..cut], MAGIC, 3).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::ChecksumMismatch),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn checksum_catches_payload_bit_flips() {
        let bytes = sample();
        for i in HEADER_LEN..bytes.len() - CHECKSUM_LEN {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert_eq!(
                CodecReader::open(&bad, MAGIC, 3).err(),
                Some(CodecError::ChecksumMismatch),
                "byte {i}"
            );
        }
    }

    #[test]
    fn wrong_fingerprint_is_a_mismatch() {
        let bytes = sample();
        let r = CodecReader::open(&bytes, MAGIC, 3).unwrap();
        assert_eq!(
            r.expect_fingerprint(0xBEEF, "seed differs").err(),
            Some(CodecError::Mismatch("seed differs"))
        );
    }

    #[test]
    fn forged_frame_lengths_never_read_out_of_bounds() {
        let mut w = CodecWriter::new(MAGIC, 1, 0);
        w.put_u32(u32::MAX); // frame claiming 4 GiB
        let bytes = w.finish();
        let mut r = CodecReader::open(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.get_frame().err(), Some(CodecError::Truncated));
    }

    #[test]
    fn raw_reader_finish_rejects_trailing_bytes() {
        let mut r = CodecReader::raw(&[1, 2, 3]);
        assert_eq!(r.get_u16().unwrap(), 0x0201);
        assert_eq!(
            r.finish().err(),
            Some(CodecError::Corrupt("trailing bytes after payload"))
        );
        assert_eq!(r.get_u8().unwrap(), 3);
        r.finish().unwrap();
        assert_eq!(r.get_u8().err(), Some(CodecError::Truncated));
    }

    #[test]
    fn atomic_write_replaces_previous_content() {
        let path = std::env::temp_dir().join(format!("ldp_codec_test_{}.bin", std::process::id()));
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second");
        std::fs::remove_file(&path).ok();
        assert!(matches!(read_file(&path), Err(CodecError::Io(_))));
    }
}
