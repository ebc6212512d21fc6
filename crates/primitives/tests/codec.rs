//! Corruption properties of the shared checkpoint codec.
//!
//! Every durable format in the workspace (`loloha::persist`,
//! `ldp_ingest::store`, `ldp_client::store`) is one instance of this
//! container, so the hostile-input guarantees are proven here **once**,
//! against arbitrary payloads, instead of ad-hoc per store:
//!
//! * truncation at *every* byte boundary → typed error, never a panic;
//! * any single bit-flip anywhere in the container → typed error;
//! * foreign magic → [`CodecError::BadMagic`];
//! * any version other than the writer's → [`CodecError::UnsupportedVersion`];
//! * forged frame lengths → bounds-checked [`CodecError::Truncated`].
//!
//! It also pins the two trailer hashes: XXH64 against the xxHash
//! reference values, and which containers carry which hash against the
//! `docs/CHECKPOINT_FORMAT.md` §3 registry.

use ldp_primitives::codec::{
    self, CodecError, CodecReader, CodecWriter, Trailer, CHECKSUM_LEN, HEADER_LEN, XXH64_TRAILERS,
};
use proptest::prelude::*;

const MAGIC: &[u8; 4] = b"PROP";
const VERSION: u16 = 4;

/// Builds a container around an arbitrary payload, with a mix of raw
/// bytes and framed chunks so both write paths are exercised.
fn container(payload: &[u8], framed: bool, fingerprint: u64) -> Vec<u8> {
    let mut w = CodecWriter::with_capacity(MAGIC, VERSION, fingerprint, payload.len());
    if framed {
        for chunk in payload.chunks(5) {
            w.put_frame(chunk);
        }
    } else {
        w.put_bytes(payload);
    }
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A container round-trips: open verifies header + checksum, the
    /// payload reads back identically, and `finish` accepts exactly the
    /// written length.
    #[test]
    fn roundtrip_is_identity(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        fingerprint in any::<u64>(),
    ) {
        let bytes = container(&payload, false, fingerprint);
        let mut r = CodecReader::open(&bytes, MAGIC, VERSION).expect("opens");
        prop_assert_eq!(r.fingerprint(), fingerprint);
        prop_assert_eq!(r.take(payload.len()).expect("payload"), &payload[..]);
        r.finish().expect("fully consumed");
    }

    /// Framed payloads round-trip chunk by chunk.
    #[test]
    fn frames_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let bytes = container(&payload, true, 7);
        let mut r = CodecReader::open(&bytes, MAGIC, VERSION).expect("opens");
        let mut got = Vec::new();
        for _ in 0..payload.chunks(5).count() {
            got.extend_from_slice(r.get_frame().expect("frame"));
        }
        r.finish().expect("fully consumed");
        prop_assert_eq!(got, payload);
    }

    /// Truncating a container at ANY byte is rejected with a typed error
    /// (`Truncated` below the minimum layout, `ChecksumMismatch` once a
    /// plausible trailer exists) — and never panics.
    #[test]
    fn truncation_at_every_byte_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        framed in any::<bool>(),
    ) {
        let bytes = container(&payload, framed, 3);
        for cut in 0..bytes.len() {
            let err = CodecReader::open(&bytes[..cut], MAGIC, VERSION).unwrap_err();
            prop_assert!(
                matches!(err, CodecError::Truncated | CodecError::ChecksumMismatch),
                "cut {}: {:?}", cut, err
            );
        }
    }

    /// Flipping any single bit anywhere in the container is caught: in
    /// the magic (BadMagic), the version (UnsupportedVersion), or any
    /// later byte (the checksum trailer covers header and payload; a flip
    /// inside the trailer itself no longer matches the body).
    #[test]
    fn any_single_bit_flip_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = container(&payload, false, 11);
        let i = ((bytes.len() as f64 * byte_frac) as usize).min(bytes.len() - 1);
        let mut bad = bytes.clone();
        bad[i] ^= 1 << bit;
        let err = CodecReader::open(&bad, MAGIC, VERSION)
            .expect_err("corrupted container must not open");
        match i {
            0..=3 => prop_assert_eq!(err, CodecError::BadMagic),
            4..=5 => prop_assert!(matches!(err, CodecError::UnsupportedVersion(_))),
            _ => prop_assert_eq!(err, CodecError::ChecksumMismatch),
        }
    }

    /// Foreign magic is always BadMagic, whatever the rest looks like.
    #[test]
    fn foreign_magic_is_rejected(
        other_bits in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let other = other_bits.to_le_bytes();
        prop_assume!(&other != MAGIC);
        let bytes = container(&payload, false, 0);
        let mut foreign = bytes.clone();
        foreign[..4].copy_from_slice(&other);
        prop_assert_eq!(
            CodecReader::open(&foreign, MAGIC, VERSION).err(),
            Some(CodecError::BadMagic)
        );
        prop_assert_eq!(
            codec::sniff_version(&foreign, MAGIC).err(),
            Some(CodecError::BadMagic)
        );
    }

    /// Every version other than the expected one — past or future — is
    /// UnsupportedVersion(v), and the sniffer reports it faithfully so
    /// migration shims can dispatch on it.
    #[test]
    fn other_versions_are_rejected_with_their_number(
        version in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(version != VERSION);
        let mut bytes = container(&payload, false, 0);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            CodecReader::open(&bytes, MAGIC, VERSION).err(),
            Some(CodecError::UnsupportedVersion(version))
        );
        prop_assert_eq!(codec::sniff_version(&bytes, MAGIC).unwrap(), version);
    }

    /// A forged frame length never reads out of bounds — even when the
    /// checksum has been fixed up to cover the forgery.
    #[test]
    fn forged_frame_lengths_are_bounds_checked(claim in 1u32..u32::MAX) {
        let mut w = CodecWriter::new(MAGIC, VERSION, 0);
        w.put_u32(claim); // frame header claiming `claim` bytes ...
        let bytes = w.finish(); // ... over an empty body
        let mut r = CodecReader::open(&bytes, MAGIC, VERSION).expect("opens");
        prop_assert_eq!(r.get_frame().err(), Some(CodecError::Truncated));
    }
}

#[test]
fn min_sized_container_is_header_plus_trailer() {
    let bytes = CodecWriter::new(MAGIC, VERSION, 9).finish();
    assert_eq!(bytes.len(), HEADER_LEN + CHECKSUM_LEN);
    let r = CodecReader::open(&bytes, MAGIC, VERSION).unwrap();
    assert_eq!(r.fingerprint(), 9);
    assert_eq!(r.remaining(), 0);
    r.finish().unwrap();
}

#[test]
fn xxh64_matches_the_reference_values() {
    assert_eq!(codec::xxh64(b""), 0xEF46_DB37_51D8_E999);
    assert_eq!(codec::xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    // 39 bytes: one 32-byte stripe, then a 4-byte and a 3-byte tail.
    assert_eq!(
        codec::xxh64(b"Nobody inspects the spammish repetition"),
        0xFBCE_A83C_8A37_8BF1
    );
}

/// The 8-byte little-endian trailer of a container.
fn trailer_of(bytes: &[u8]) -> u64 {
    let tail: [u8; CHECKSUM_LEN] = bytes[bytes.len() - CHECKSUM_LEN..].try_into().unwrap();
    u64::from_le_bytes(tail)
}

#[test]
fn the_header_picks_the_trailer() {
    let payload: Vec<u8> = (0..100u8).collect();
    let build = |magic: &[u8; 4], version: u16| {
        let mut w = CodecWriter::new(magic, version, 0xFEED);
        w.put_bytes(&payload);
        w.finish()
    };
    // LDNW from version 3 on: XXH64 over every byte before the trailer,
    // and the reader checks that hash.
    for version in [3, 4] {
        let bytes = build(b"LDNW", version);
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        assert_eq!(trailer_of(&bytes), codec::xxh64(body), "LDNW v{version}");
        let mut r = CodecReader::open(&bytes, b"LDNW", version).unwrap();
        assert_eq!(r.take(payload.len()).unwrap(), &payload[..]);
        let mut forged = body.to_vec();
        forged.extend_from_slice(&codec::fnv1a(body).to_le_bytes());
        assert_eq!(
            CodecReader::open(&forged, b"LDNW", version).err(),
            Some(CodecError::ChecksumMismatch)
        );
    }
    // Earlier LDNW versions and every other magic: FNV-1a, as before.
    let mut others: Vec<([u8; 4], u16)> = vec![(*b"LDNW", 2), (*b"LDNW", 1), (*b"PROP", 3)];
    others.extend(registry().into_iter().filter_map(|row| {
        let magic: [u8; 4] = row.magic.as_bytes().try_into().unwrap();
        (&magic != b"LDNW").then_some((magic, row.version))
    }));
    for (magic, version) in others {
        let bytes = build(&magic, version);
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        assert_eq!(
            trailer_of(&bytes),
            codec::fnv1a(body),
            "{} v{version}",
            String::from_utf8_lossy(&magic)
        );
        CodecReader::open(&bytes, &magic, version).unwrap();
    }
}

/// One row of the `docs/CHECKPOINT_FORMAT.md` §3 magic registry.
#[derive(Debug)]
struct RegistryRow {
    magic: String,
    version: u16,
    trailer: String,
}

/// Parses the §3 registry table: rows `| \`XXXX\` | store | version |
/// legacy | trailer |`, the trailer in the last cell.
fn registry() -> Vec<RegistryRow> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/CHECKPOINT_FORMAT.md"
    );
    let doc = std::fs::read_to_string(path).expect("the checkpoint format doc exists");
    let rows: Vec<RegistryRow> = doc
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.trim().strip_prefix('|')?.split('|').collect();
            let magic = cells.first()?.trim().strip_prefix('`')?.strip_suffix('`')?;
            if magic.len() != 4 || cells.len() < 3 {
                return None;
            }
            let version = cells[2].trim().parse().ok()?;
            let trailer = cells
                .iter()
                .rev()
                .map(|c| c.trim())
                .find(|c| !c.is_empty())?;
            Some(RegistryRow {
                magic: magic.to_string(),
                version,
                trailer: trailer.to_string(),
            })
        })
        .collect();
    assert!(rows.len() >= 8, "registry rows not found: {rows:?}");
    rows
}

#[test]
fn registry_trailers_match_the_codec_rule() {
    let rows = registry();
    // Doc → code: every row names the trailer its current version gets.
    for row in &rows {
        let magic: [u8; 4] = row.magic.as_bytes().try_into().unwrap();
        assert_eq!(
            row.trailer,
            Trailer::of(&magic, row.version).name(),
            "`{}` v{} in docs/CHECKPOINT_FORMAT.md §3",
            row.magic,
            row.version
        );
    }
    // Code → doc: every XXH64 entry is a registered magic whose current
    // version has reached it.
    for &(magic, from) in XXH64_TRAILERS {
        let magic = std::str::from_utf8(magic).unwrap();
        let row = rows
            .iter()
            .find(|row| row.magic == magic)
            .unwrap_or_else(|| panic!("`{magic}` is not in the §3 registry"));
        assert!(
            row.version >= from,
            "`{magic}` uses XXH64 from v{from}, but the registry is at v{}",
            row.version
        );
        assert_eq!(row.trailer, "XXH64", "`{magic}`");
    }
}
