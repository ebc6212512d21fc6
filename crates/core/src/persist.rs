//! Client-state persistence.
//!
//! Memoization is only a privacy mechanism if the memoized PRR state
//! *survives restarts*: a client that forgets its memo table re-randomizes
//! on the next report and silently degrades into the fresh-noise regime the
//! averaging attack breaks (§2.4). A real deployment therefore must persist
//! the client across sessions. This module provides a compact, versioned,
//! dependency-free binary encoding of [`LolohaClient`] state — hash
//! coefficients, budgets, memo table and accountant — with checked decoding
//! (every failure mode returns [`PersistError`], never a panic).
//!
//! Since format version 2 the snapshot is one instance of the workspace's
//! unified checkpoint container ([`ldp_primitives::codec`]; the normative
//! byte-level spec is `docs/CHECKPOINT_FORMAT.md`), so it carries the
//! shared `magic | version | fingerprint` header and FNV-1a checksum
//! trailer. The payload is:
//!
//! ```text
//! g u32 | k u64 | eps_inf f64 | eps_first f64
//! | hash a u64 | hash b u64 | memo: g × u16 (u16::MAX = empty)
//! ```
//!
//! and the fingerprint pins the parameterization (`g`, `k`, both
//! budgets). Version-1 snapshots — written before the container existed,
//! without a checksum — still load through a migration shim; saving
//! always writes the current version.
//!
//! The accountant is reconstructed from the memo table (a cell is charged
//! iff it is memoized), so the two can never disagree.

use crate::client::LolohaClient;
use crate::params::LolohaParams;
use ldp_hash::CwHash;
use ldp_primitives::codec::{self, CodecReader, CodecWriter};

const MAGIC: &[u8; 4] = b"LLHA";
const VERSION: u16 = 2;

/// Why a snapshot failed to decode — the workspace-wide checkpoint error
/// type (see [`ldp_primitives::codec::CodecError`]).
pub type PersistError = codec::CodecError;

/// The configuration fingerprint a snapshot's header carries: FNV-1a over
/// the little-endian `g | k | eps_inf | eps_first` prefix.
fn fingerprint(g: u32, k: u64, eps_inf: f64, eps_first: f64) -> u64 {
    let mut cfg = Vec::with_capacity(4 + 8 + 8 + 8);
    cfg.extend_from_slice(&g.to_le_bytes());
    cfg.extend_from_slice(&k.to_le_bytes());
    cfg.extend_from_slice(&eps_inf.to_le_bytes());
    cfg.extend_from_slice(&eps_first.to_le_bytes());
    codec::fnv1a(&cfg)
}

/// Serializes a client into a fresh byte buffer.
pub fn save_client(client: &LolohaClient<CwHash>) -> Vec<u8> {
    let params = client.params();
    let g = params.g();
    let (a, b) = client.hash_fn().parts();
    let fp = fingerprint(g, client.k(), params.eps_inf(), params.eps_first());
    let mut w =
        CodecWriter::with_capacity(MAGIC, VERSION, fp, 4 + 8 + 8 + 8 + 8 + 8 + 2 * g as usize);
    w.put_u32(g);
    w.put_u64(client.k());
    w.put_f64(params.eps_inf());
    w.put_f64(params.eps_first());
    w.put_u64(a);
    w.put_u64(b);
    for cell in 0..g {
        w.put_u16(client.memoized_symbol(cell).unwrap_or(u16::MAX));
    }
    w.finish()
}

/// Restores a client from a snapshot produced by [`save_client`] (current
/// or any older supported format version).
pub fn load_client(bytes: &[u8]) -> Result<LolohaClient<CwHash>, PersistError> {
    match codec::sniff_version(bytes, MAGIC)? {
        1 => load_v1(bytes),
        VERSION => {
            let mut r = CodecReader::open(bytes, MAGIC, VERSION)?;
            let g = r.get_u32()?;
            let k = r.get_u64()?;
            let eps_inf = r.get_f64()?;
            let eps_first = r.get_f64()?;
            r.expect_fingerprint(
                fingerprint(g, k, eps_inf, eps_first),
                "fingerprint disagrees with the snapshot parameters",
            )?;
            let client = decode_body(&mut r, g, k, eps_inf, eps_first)?;
            r.finish()?;
            Ok(client)
        }
        v => Err(PersistError::UnsupportedVersion(v)),
    }
}

/// Migration shim for version-1 snapshots (PR-era format: same payload,
/// no fingerprint, no checksum trailer).
fn load_v1(bytes: &[u8]) -> Result<LolohaClient<CwHash>, PersistError> {
    let mut r = CodecReader::raw(bytes);
    let _ = r.take(6)?; // magic + version, already sniffed
    let g = r.get_u32()?;
    let k = r.get_u64()?;
    let eps_inf = r.get_f64()?;
    let eps_first = r.get_f64()?;
    let client = decode_body(&mut r, g, k, eps_inf, eps_first)?;
    r.finish()?;
    Ok(client)
}

/// The version-independent payload tail: hash coefficients plus the dense
/// memo table.
fn decode_body(
    r: &mut CodecReader<'_>,
    g: u32,
    k: u64,
    eps_inf: f64,
    eps_first: f64,
) -> Result<LolohaClient<CwHash>, PersistError> {
    let a = r.get_u64()?;
    let b = r.get_u64()?;
    let params = LolohaParams::with_g(g, eps_inf, eps_first)
        .map_err(|_| PersistError::Corrupt("invalid budgets"))?;
    let hash =
        CwHash::from_parts(a, b, g).ok_or(PersistError::Corrupt("invalid hash coefficients"))?;
    let mut client = LolohaClient::with_hash(hash, k, params)
        .map_err(|_| PersistError::Corrupt("invalid domain"))?;
    for cell in 0..g {
        let sym = r.get_u16()?;
        if sym != u16::MAX {
            if sym as u32 >= g {
                return Err(PersistError::Corrupt("memoized symbol out of range"));
            }
            client.restore_memo(cell, sym);
        }
    }
    Ok(client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_hash::CarterWegman;
    use ldp_rand::derive_rng;

    fn make_client(seed: u64) -> LolohaClient<CwHash> {
        let params = LolohaParams::with_g(4, 2.0, 1.0).unwrap();
        let family = CarterWegman::new(4).unwrap();
        let mut rng = derive_rng(seed, 0);
        let mut c = LolohaClient::new(&family, 50, params, &mut rng).unwrap();
        // Populate some memo state.
        for v in [0u64, 7, 13, 49] {
            let _ = c.report(v, &mut rng);
        }
        c
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let client = make_client(1000);
        let bytes = save_client(&client);
        let restored = load_client(&bytes).unwrap();
        assert_eq!(restored.k(), client.k());
        assert_eq!(restored.params(), client.params());
        assert_eq!(restored.privacy_spent(), client.privacy_spent());
        assert_eq!(restored.distinct_cells(), client.distinct_cells());
        for cell in 0..4u32 {
            assert_eq!(restored.memoized_symbol(cell), client.memoized_symbol(cell));
        }
        // The hash function is identical.
        for v in 0..50u64 {
            assert_eq!(
                ldp_hash::SeededHash::hash(restored.hash_fn(), v),
                ldp_hash::SeededHash::hash(client.hash_fn(), v)
            );
        }
    }

    #[test]
    fn restored_client_reports_consistently() {
        // After restore, repeated values still reuse the memoized PRR —
        // i.e. no extra budget is spent (the attack-resistance property).
        let client = make_client(1001);
        let spent = client.privacy_spent();
        let mut restored = load_client(&save_client(&client)).unwrap();
        let mut rng = derive_rng(1002, 0);
        for v in [0u64, 7, 13, 49] {
            let _ = restored.report(v, &mut rng);
        }
        assert_eq!(restored.privacy_spent(), spent, "restart must not re-spend");
    }

    #[test]
    fn rejects_truncated() {
        let bytes = save_client(&make_client(1003));
        for cut in [0usize, 3, 5, 20, bytes.len() - 1] {
            let err = load_client(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated | PersistError::ChecksumMismatch
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = save_client(&make_client(1004));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(load_client(&bad).err(), Some(PersistError::BadMagic));
        bytes[4] = 9; // version 9
        assert!(matches!(
            load_client(&bytes),
            Err(PersistError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn any_single_bit_flip_in_the_body_is_detected() {
        // Since v2 the container checksum catches arbitrary body
        // corruption, not just the structurally-checked fields.
        let bytes = save_client(&make_client(1005));
        for i in 6..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(load_client(&bad).is_err(), "byte {i} flip accepted");
        }
    }

    #[test]
    fn rejects_corrupt_memo_symbol_with_a_fixed_checksum() {
        // Re-seal the trailer after the edit so the *structural* check is
        // exercised, not the checksum.
        let client = make_client(1005);
        let bytes = save_client(&client);
        let mut body = bytes[..bytes.len() - 8].to_vec();
        // Overwrite the first memo entry with an out-of-range symbol (g=4).
        let memo_start = body.len() - 2 * 4;
        body[memo_start] = 200;
        body[memo_start + 1] = 0;
        let sum = codec::fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            load_client(&body).err(),
            Some(PersistError::Corrupt("memoized symbol out of range"))
        );
    }

    #[test]
    fn rejects_corrupt_budgets_with_a_fixed_checksum() {
        // NaN budgets must be rejected structurally. The fingerprint is
        // recomputed over the corrupted prefix so the budget check itself
        // (not the fingerprint comparison) fires.
        let client = make_client(1006);
        let bytes = save_client(&client);
        let mut body = bytes[..bytes.len() - 8].to_vec();
        // Payload starts at 14 (header); eps_inf sits after g u32 + k u64.
        let eps_at = 14 + 4 + 8;
        body[eps_at..eps_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let fp = super::fingerprint(4, 50, f64::NAN, 1.0);
        body[6..14].copy_from_slice(&fp.to_le_bytes());
        let sum = codec::fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            load_client(&body).err(),
            Some(PersistError::Corrupt("invalid budgets"))
        );
    }

    #[test]
    fn rejects_a_forged_fingerprint() {
        let bytes = save_client(&make_client(1007));
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body[6..14].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        let sum = codec::fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(load_client(&body), Err(PersistError::Mismatch(_))));
    }
}
