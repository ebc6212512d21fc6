//! The object-safe client abstraction every longitudinal protocol
//! implements.
//!
//! All of the paper's protocols are "memoized client state + per-round
//! report": the differences are only *what* is memoized (unary PRR
//! vectors, symbols, hash cells, sampled-bucket bits) and *how* a report
//! expands into aggregation support indices. [`ClientState`] captures that
//! contract once, so the pool, the simulator engine, the CLI, and the
//! bench harness can drive any protocol through one dispatch point:
//!
//! * [`ClientState::report_into`] sanitizes one value into a reusable
//!   [`ReportBuf`] with the user's own [`LdpRng`] — no per-user
//!   per-round allocation on the hot path, and no indirect call per RNG
//!   word (the protocol kernels are instantiated on the concrete
//!   generator; the trait stays object-safe);
//! * [`ClientState::save_state`] / [`ClientState::load_state`] encode the
//!   memoized state for the durable checkpoint layer ([`crate::store`]);
//!   hash functions and sampled positions are *not* encoded — they are
//!   re-derived from the pool's deterministic construction streams;
//! * [`ClientState::detection`] exposes the dBitFlipPM change-detection
//!   tracker, which is client state (it must survive a checkpoint for the
//!   Table 2 metrics to resume bit-identically).

use crate::detect::DetectionTrack;
use crate::store::ClientStoreError;
use ldp_hash::{CwHash, Preimages};
use ldp_longitudinal::{DBitFlipClient, LgrrClient, LongitudinalUeClient};
use ldp_primitives::codec::CodecReader;
use ldp_primitives::BitVec;
use ldp_rand::LdpRng;
use loloha::LolohaClient;

/// A reusable sanitization buffer: the report's support in one of two
/// shapes — an index list, or a bit row for dense supports (UE vectors,
/// LOLOHA preimage rows) — plus the scratch bit vector the row lives in.
/// A LOLOHA row also keeps the report it expands: the user's hash and
/// the reported cell ([`ReportBuf::hashed`]).
///
/// One buffer per worker thread serves any number of users and any
/// protocol mix — the scratch resizes lazily to the protocol's report
/// width and the support vector keeps its allocation across rounds.
#[derive(Debug, Clone)]
pub struct ReportBuf {
    pub(crate) scratch: BitVec,
    pub(crate) support: Vec<usize>,
    /// Whether `scratch` holds the report as a bit row.
    dense: bool,
    /// Whether `support` holds the report's indices (always for a list
    /// report; for a row, once [`ReportBuf::support`] expanded it).
    listed: bool,
    /// The hash and cell a LOLOHA row is the preimage of.
    hashed: Option<HashedReport>,
}

/// A LOLOHA report in the paper's own shape: the user's Carter–Wegman
/// hash `H(v) = ((a·v + b) mod p) mod g` and the reported cell `y`. Its
/// support is the preimage row `{v ∈ [0, k) : H(v) = y}`, so a collector
/// that knows `k` can count it without the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedReport {
    /// The user's hash (its `g` cells: [`ldp_hash::SeededHash::g`]).
    pub hash: CwHash,
    /// The reported cell, below `g`.
    pub cell: u8,
    /// Whether this is the first report the user's state has made:
    /// no collector can hold the user's rows yet, so a sink that sends
    /// hashes should send this report's row along.
    pub fresh: bool,
}

impl Default for ReportBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportBuf {
    /// Creates an empty buffer (allocations grow on first use).
    pub fn new() -> Self {
        Self {
            scratch: BitVec::zeros(0),
            support: Vec::new(),
            dense: false,
            listed: true,
            hashed: None,
        }
    }

    /// The sanitized report's support indices, as written by the last
    /// [`ClientState::report_into`] call, in ascending order for a row.
    /// A row is expanded on the first call after the report and the list
    /// is kept until the next one; the pool's own sinks take the row
    /// ([`ReportBuf::row`]) and never pay the expansion.
    pub fn support(&mut self) -> &[usize] {
        if !self.listed {
            self.support.clear();
            self.scratch.for_each_one(|i| self.support.push(i));
            self.listed = true;
        }
        &self.support
    }

    /// The sanitized report as a bit row (bit `i % 64` of word `i / 64`
    /// set ⇔ index `i` in the support), when the protocol's support is
    /// dense; `None` for a list-shaped report.
    pub fn row(&self) -> Option<&[u64]> {
        self.dense.then(|| self.scratch.blocks())
    }

    /// The hash and cell behind the report's row, for a LOLOHA report
    /// whose row is its cell's preimage ([`ReportBuf::row`] is then
    /// `Some`); `None` for every other report.
    pub fn hashed(&self) -> Option<HashedReport> {
        self.hashed
    }

    /// Clears the support and hands out a scratch vector of exactly
    /// `bits` bits (reallocating only when the width changes), for a
    /// protocol that writes its report as an index list.
    pub(crate) fn reset(&mut self, bits: usize) -> &mut BitVec {
        self.reset_list();
        if self.scratch.len() != bits {
            self.scratch = BitVec::zeros(bits);
        }
        &mut self.scratch
    }

    /// Clears the support and hands it out, for a protocol that writes
    /// its index list without scratch.
    pub(crate) fn reset_list(&mut self) -> &mut Vec<usize> {
        self.support.clear();
        self.dense = false;
        self.listed = true;
        self.hashed = None;
        &mut self.support
    }

    /// [`ReportBuf::reset`] for a protocol whose report is the bit row
    /// it writes into the returned vector.
    pub(crate) fn reset_row(&mut self, bits: usize) -> &mut BitVec {
        self.reset(bits);
        self.dense = true;
        self.listed = false;
        &mut self.scratch
    }
}

/// One user's memoized protocol state behind an object-safe interface.
///
/// Implementations must keep the RNG draw sequence of `report_into`
/// identical to the protocol's native `report` path — the equivalence
/// suites pin the pool bit-for-bit against hand-driven clients.
///
/// The trait is object-safe: only the state is dispatched dynamically,
/// once per report, while the RNG is the concrete [`LdpRng`].
pub trait ClientState: Send {
    /// Sanitizes `value` into `out`: after the call, `out.support()` holds
    /// the aggregation indices this report supports. `rng` is the user's
    /// own stream (the pool pairs each state with one), so every draw of
    /// the report is a direct call on the concrete generator.
    fn report_into(&mut self, value: u64, rng: &mut LdpRng, out: &mut ReportBuf);

    /// The user's accumulated longitudinal privacy loss ε̌ (Eq. (8)).
    fn privacy_spent(&self) -> f64;

    /// Number of distinct memoized input classes so far.
    fn distinct_classes(&self) -> u32;

    /// Appends the protocol's memoized state to `out` (the checkpoint
    /// payload; see the module docs for what is deliberately excluded).
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores state previously written by [`ClientState::save_state`]
    /// into a freshly constructed client. Malformed payloads return a
    /// typed error, never panic.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), ClientStoreError>;

    /// The change-detection tracker, for protocols that carry one
    /// (dBitFlipPM only).
    fn detection(&self) -> Option<&DetectionTrack> {
        None
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `count | (class, …)*` header, enforcing strictly increasing
/// class ids `< cap` — which both rejects duplicates (the memo tables are
/// write-once) and pins the canonical encoding order.
fn read_class(
    r: &mut CodecReader<'_>,
    prev: &mut Option<u32>,
    cap: u32,
) -> Result<u32, ClientStoreError> {
    let class = u32::from_le_bytes(r.array()?);
    if class >= cap {
        return Err(ClientStoreError::Corrupt("memo class out of range"));
    }
    if prev.is_some_and(|p| class <= p) {
        return Err(ClientStoreError::Corrupt("memo classes out of order"));
    }
    *prev = Some(class);
    Ok(class)
}

// ---------------------------------------------------------------------------
// UE chains (RAPPOR / L-OSUE / L-OUE / L-SOUE)
// ---------------------------------------------------------------------------

impl ClientState for LongitudinalUeClient {
    fn report_into(&mut self, value: u64, rng: &mut LdpRng, out: &mut ReportBuf) {
        // UE supports are dense (~k/2 set bits): the k-bit report is the
        // row the sinks take.
        let k = self.k() as usize;
        LongitudinalUeClient::report_into(self, value, rng, out.reset_row(k));
    }

    fn privacy_spent(&self) -> f64 {
        LongitudinalUeClient::privacy_spent(self)
    }

    fn distinct_classes(&self) -> u32 {
        self.distinct_values()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.distinct_values());
        for (class, blocks) in self.memo_entries() {
            put_u32(out, class);
            for &b in blocks {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), ClientStoreError> {
        let mut r = CodecReader::raw(bytes);
        let count = u32::from_le_bytes(r.array()?);
        let blocks_per_entry = (self.k() as usize).div_ceil(64);
        // ldp_lint::allow(D002): min-clamped to u32::MAX first, so the cast is lossless
        let cap = self.k().min(u32::MAX as u64) as u32;
        if count > cap {
            return Err(ClientStoreError::Corrupt("memo entry count exceeds domain"));
        }
        let mut prev = None;
        let mut blocks = vec![0u64; blocks_per_entry];
        for _ in 0..count {
            let class = read_class(&mut r, &mut prev, cap)?;
            for b in &mut blocks {
                *b = u64::from_le_bytes(r.array()?);
            }
            self.restore_memo(class, &blocks);
        }
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// L-GRR
// ---------------------------------------------------------------------------

impl ClientState for LgrrClient {
    fn report_into(&mut self, value: u64, rng: &mut LdpRng, out: &mut ReportBuf) {
        let symbol = self.report(value, rng) as usize;
        out.reset_list().push(symbol);
    }

    fn privacy_spent(&self) -> f64 {
        LgrrClient::privacy_spent(self)
    }

    fn distinct_classes(&self) -> u32 {
        self.distinct_values()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.distinct_values());
        for (class, sym) in self.memo_entries() {
            put_u32(out, class);
            out.extend_from_slice(&sym.to_le_bytes());
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), ClientStoreError> {
        let mut r = CodecReader::raw(bytes);
        let count = u32::from_le_bytes(r.array()?);
        // ldp_lint::allow(D002): min-clamped to u32::MAX first, so the cast is lossless
        let cap = self.k().min(u32::MAX as u64) as u32;
        if count > cap {
            return Err(ClientStoreError::Corrupt("memo entry count exceeds domain"));
        }
        let mut prev = None;
        for _ in 0..count {
            let class = read_class(&mut r, &mut prev, cap)?;
            let sym = u16::from_le_bytes(r.array()?);
            if (sym as u64) >= self.k() {
                return Err(ClientStoreError::Corrupt("memo symbol out of range"));
            }
            self.restore_memo(class, sym);
        }
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// LOLOHA (Bi / Optimal / custom g)
// ---------------------------------------------------------------------------

/// LOLOHA client state: the protocol client plus what expands a
/// reported hash cell into its domain support.
pub struct LolohaState {
    pub(crate) client: LolohaClient<CwHash>,
    cells: CellSupports,
}

/// The supports of the `g` hash cells over `[0, k)`: one `k`-bit row per
/// cell when `g` rows take no more bytes than the preimage table
/// (`g · ⌈k/64⌉ · 8 ≤ 4·k + 4·(g+1)`, always so for `g ≤ 32`), else the
/// table, whose reports go out as index lists.
enum CellSupports {
    /// Words `x·words ..` hold the row of the values hashing to cell `x`.
    Rows {
        words: usize,
        rows: Vec<u64>,
    },
    Table(Preimages),
}

impl LolohaState {
    /// Wraps a client, building its cell supports over `[0, k)`.
    pub fn new(client: LolohaClient<CwHash>) -> Self {
        let (g, k) = (client.params().g() as usize, client.k());
        let words = (k as usize).div_ceil(64);
        let cells = if g * words * 8 <= 4 * k as usize + 4 * (g + 1) {
            let mut rows = vec![0u64; g * words];
            client.hash_fn().preimage_rows(k, 0..g as u32, &mut rows);
            CellSupports::Rows { words, rows }
        } else {
            CellSupports::Table(Preimages::build(client.hash_fn(), k))
        };
        Self { client, cells }
    }
}

impl ClientState for LolohaState {
    fn report_into(&mut self, value: u64, rng: &mut LdpRng, out: &mut ReportBuf) {
        let fresh = self.client.distinct_cells() == 0;
        let cell = self.client.report(value, rng);
        match &self.cells {
            CellSupports::Rows { words, rows } => {
                let row = &rows[cell as usize * words..][..*words];
                let k = self.client.k() as usize;
                out.reset_row(k).copy_from_blocks(row);
                // Rows are kept for at most 65 cells (see `CellSupports`),
                // so every cell fits a byte.
                out.hashed = u8::try_from(cell).ok().map(|cell| HashedReport {
                    hash: *self.client.hash_fn(),
                    cell,
                    fresh,
                });
            }
            CellSupports::Table(table) => out
                .reset_list()
                .extend(table.cell(cell).iter().map(|&v| v as usize)),
        }
    }

    fn privacy_spent(&self) -> f64 {
        self.client.privacy_spent()
    }

    fn distinct_classes(&self) -> u32 {
        self.client.distinct_cells()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        let g = self.client.params().g();
        put_u32(out, self.client.distinct_cells());
        for cell in 0..g {
            if let Some(sym) = self.client.memoized_symbol(cell) {
                put_u32(out, cell);
                out.extend_from_slice(&sym.to_le_bytes());
            }
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), ClientStoreError> {
        let mut r = CodecReader::raw(bytes);
        let count = u32::from_le_bytes(r.array()?);
        let g = self.client.params().g();
        if count > g {
            return Err(ClientStoreError::Corrupt("memo entry count exceeds g"));
        }
        let mut prev = None;
        for _ in 0..count {
            let cell = read_class(&mut r, &mut prev, g)?;
            let sym = u16::from_le_bytes(r.array()?);
            if (sym as u32) >= g {
                return Err(ClientStoreError::Corrupt("memo symbol out of range"));
            }
            self.client.restore_memo(cell, sym);
        }
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// dBitFlipPM (1BitFlip / bBitFlip)
// ---------------------------------------------------------------------------

/// dBitFlipPM client state: the protocol client plus the change-detection
/// tracker the Table 2 analysis reads.
pub struct DBitState {
    pub(crate) client: DBitFlipClient,
    track: DetectionTrack,
}

impl DBitState {
    /// Wraps a client with a fresh tracker.
    pub fn new(client: DBitFlipClient) -> Self {
        Self {
            client,
            track: DetectionTrack::new(),
        }
    }
}

impl ClientState for DBitState {
    fn report_into(&mut self, value: u64, rng: &mut LdpRng, out: &mut ReportBuf) {
        let d = self.client.d();
        let scratch = out.reset(d);
        self.client.report_into(value, rng, scratch);
        let sampled = self.client.sampled();
        out.scratch
            .for_each_one(|l| out.support.push(sampled[l] as usize));
        self.track
            .observe(self.client.bucket_of(value), &out.scratch);
    }

    fn privacy_spent(&self) -> f64 {
        self.client.privacy_spent()
    }

    fn distinct_classes(&self) -> u32 {
        self.client.distinct_classes()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.client.distinct_classes());
        for (class, bits) in self.client.memo_entries() {
            put_u32(out, class);
            for &b in bits.blocks() {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        // The detection tracker rides along: without it a resumed run
        // would lose already-observed change points.
        match self.track.prev() {
            Some((bucket, bits)) => {
                out.push(1);
                put_u32(out, bucket);
                for &b in bits.blocks() {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            None => out.push(0),
        }
        let (any_change, missed) = self.track.flags();
        out.push(u8::from(any_change));
        out.push(u8::from(missed));
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), ClientStoreError> {
        let mut r = CodecReader::raw(bytes);
        let d = self.client.d();
        let blocks_per_entry = d.div_ceil(64);
        let count = u32::from_le_bytes(r.array()?);
        // Classes 0..d are sampled positions; class d is "none of my
        // sampled buckets" — which is only reachable when d < b (with
        // every bucket sampled no value can miss them all), so a legal
        // file can never carry it then.
        // ldp_lint::allow(D002): d ≤ b ≤ u32::MAX by construction, the cast is lossless
        let cap = (d as u32 + 1).min(self.client.b());
        if count > cap {
            return Err(ClientStoreError::Corrupt(
                "memo entry count exceeds the class space",
            ));
        }
        let mut prev = None;
        let mut blocks = vec![0u64; blocks_per_entry];
        let mut bits = BitVec::zeros(d);
        for _ in 0..count {
            let class = read_class(&mut r, &mut prev, cap)?;
            for b in &mut blocks {
                *b = u64::from_le_bytes(r.array()?);
            }
            bits.copy_from_blocks(&blocks);
            self.client.restore_memo(class, &bits);
        }
        let has_prev = match r.array::<1>()?[0] {
            0 => false,
            1 => true,
            _ => return Err(ClientStoreError::Corrupt("invalid tracker flag")),
        };
        let prev = if has_prev {
            let bucket = u32::from_le_bytes(r.array()?);
            if bucket >= self.client.b() {
                return Err(ClientStoreError::Corrupt("tracker bucket out of range"));
            }
            for b in &mut blocks {
                *b = u64::from_le_bytes(r.array()?);
            }
            let mut prev_bits = BitVec::zeros(d);
            prev_bits.copy_from_blocks(&blocks);
            // A previous observation implies a report was sent, which
            // memoized the bucket's class — and reports are deterministic
            // per class, so the tracker's bits must equal that memo entry.
            // Anything else is a forged or hand-edited file; accepting it
            // would skew (or, in debug builds, panic) the detection
            // tracking on the next report.
            let class = self
                .client
                .sampled()
                .binary_search(&bucket)
                .map(|l| l as u32) // ldp_lint::allow(D002): index into d ≤ u32::MAX entries
                .unwrap_or(d as u32); // ldp_lint::allow(D002): d ≤ b ≤ u32::MAX by construction
            match self.client.memo_entries().find(|&(c, _)| c == class) {
                Some((_, memo_bits)) if *memo_bits == prev_bits => {}
                _ => {
                    return Err(ClientStoreError::Corrupt(
                        "tracker disagrees with the memoized report",
                    ))
                }
            }
            Some((bucket, prev_bits))
        } else {
            None
        };
        let any_change = match r.array::<1>()?[0] {
            0 => false,
            1 => true,
            _ => return Err(ClientStoreError::Corrupt("invalid tracker flag")),
        };
        let missed = match r.array::<1>()?[0] {
            0 => false,
            1 => true,
            _ => return Err(ClientStoreError::Corrupt("invalid tracker flag")),
        };
        if missed && !any_change {
            return Err(ClientStoreError::Corrupt("tracker flags inconsistent"));
        }
        self.track = DetectionTrack::from_parts(prev, any_change, missed);
        r.finish()
    }

    fn detection(&self) -> Option<&DetectionTrack> {
        Some(&self.track)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_hash::CarterWegman;
    use ldp_longitudinal::UeChain;
    use ldp_rand::derive_rng;
    use loloha::LolohaParams;

    fn roundtrip(state: &dyn ClientState, fresh: &mut dyn ClientState) {
        let mut bytes = Vec::new();
        state.save_state(&mut bytes);
        fresh.load_state(&bytes).expect("roundtrip decodes");
        let mut again = Vec::new();
        fresh.save_state(&mut again);
        assert_eq!(bytes, again, "re-encode differs");
        assert_eq!(state.privacy_spent(), fresh.privacy_spent());
        assert_eq!(state.distinct_classes(), fresh.distinct_classes());
    }

    #[test]
    fn ue_state_roundtrips() {
        let mut c = LongitudinalUeClient::new(UeChain::OueSue, 10, 2.0, 1.0).unwrap();
        let mut rng = derive_rng(700, 0);
        let mut buf = ReportBuf::new();
        for v in [1u64, 7, 1, 9] {
            ClientState::report_into(&mut c, v, &mut rng, &mut buf);
            assert!(buf.support().iter().all(|&i| i < 10));
        }
        let mut fresh = LongitudinalUeClient::new(UeChain::OueSue, 10, 2.0, 1.0).unwrap();
        roundtrip(&c, &mut fresh);
    }

    #[test]
    fn lgrr_state_roundtrips() {
        let mut c = LgrrClient::new(12, 2.0, 1.0).unwrap();
        let mut rng = derive_rng(701, 0);
        let mut buf = ReportBuf::new();
        for v in [0u64, 11, 5, 0] {
            ClientState::report_into(&mut c, v, &mut rng, &mut buf);
            assert_eq!(buf.support().len(), 1);
            assert!(buf.support()[0] < 12);
        }
        let mut fresh = LgrrClient::new(12, 2.0, 1.0).unwrap();
        roundtrip(&c, &mut fresh);
    }

    #[test]
    fn loloha_state_roundtrips() {
        let params = LolohaParams::bi(2.0, 1.0).unwrap();
        let family = CarterWegman::new(params.g()).unwrap();
        let mut rng = derive_rng(702, 0);
        let client = LolohaClient::new(&family, 20, params, &mut rng).unwrap();
        let mut state = LolohaState::new(client);
        let mut buf = ReportBuf::new();
        for v in [0u64, 7, 13] {
            state.report_into(v, &mut rng, &mut buf);
            assert!(buf.support().iter().all(|&i| i < 20));
        }
        let mut rng2 = derive_rng(702, 0);
        let fresh_client = LolohaClient::new(&family, 20, params, &mut rng2).unwrap();
        let mut fresh = LolohaState::new(fresh_client);
        roundtrip(&state, &mut fresh);
    }

    #[test]
    fn dbit_state_roundtrips_with_tracker() {
        let mut rng = derive_rng(703, 0);
        let client = DBitFlipClient::new(60, 12, 4, 1.5, &mut rng).unwrap();
        let mut state = DBitState::new(client);
        let mut buf = ReportBuf::new();
        for v in [0u64, 30, 59, 0] {
            state.report_into(v, &mut rng, &mut buf);
        }
        assert!(state.detection().is_some());
        let mut rng2 = derive_rng(703, 0);
        let fresh_client = DBitFlipClient::new(60, 12, 4, 1.5, &mut rng2).unwrap();
        let mut fresh = DBitState::new(fresh_client);
        roundtrip(&state, &mut fresh);
        assert_eq!(state.detection().unwrap(), fresh.detection().unwrap());
    }

    #[test]
    fn dbit_rejects_the_unreachable_none_class_when_every_bucket_is_sampled() {
        // With d == b the "none of my sampled buckets" class can never be
        // reported, so a payload carrying it is corrupt — it must yield a
        // typed error, not silently inflate the privacy accounting.
        let mut rng = derive_rng(705, 0);
        let client = DBitFlipClient::new(16, 4, 4, 1.5, &mut rng).unwrap();
        let mut fresh = DBitState::new(client);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one memo entry
        bytes.extend_from_slice(&4u32.to_le_bytes()); // class d == 4: unreachable
        bytes.extend_from_slice(&0u64.to_le_bytes()); // 4-bit vector blocks
        bytes.push(0); // no tracker prev
        bytes.push(0); // any_change
        bytes.push(0); // missed
        assert!(matches!(
            fresh.load_state(&bytes),
            Err(ClientStoreError::Corrupt("memo class out of range"))
        ));
        // The same class is legal when d < b (the shared "none" class).
        let mut rng = derive_rng(706, 0);
        let client = DBitFlipClient::new(16, 8, 4, 1.5, &mut rng).unwrap();
        let mut fresh = DBitState::new(client);
        fresh.load_state(&bytes).unwrap();
        assert_eq!(fresh.distinct_classes(), 1);
    }

    #[test]
    fn dbit_rejects_a_tracker_that_disagrees_with_the_memo() {
        // Save a real client state, then flip one bit of the tracker's
        // prev_bits: reports are deterministic per class, so a tracker
        // that disagrees with the memoized report is a forged file and
        // must be rejected — not left to skew detection later.
        let mut rng = derive_rng(707, 0);
        let client = DBitFlipClient::new(40, 8, 8, 1.5, &mut rng).unwrap();
        let mut state = DBitState::new(client);
        let mut buf = ReportBuf::new();
        state.report_into(0, &mut rng, &mut buf);
        let mut bytes = Vec::new();
        state.save_state(&mut bytes);
        // Layout: count u32 | (class u32 + 1 block) | prev flag u8 |
        // bucket u32 | 1 block | flags. Flip a prev_bits bit (the block
        // right after the bucket).
        let prev_block_at = bytes.len() - 2 - 8;
        bytes[prev_block_at] ^= 1;
        let mut rng2 = derive_rng(707, 0);
        let fresh_client = DBitFlipClient::new(40, 8, 8, 1.5, &mut rng2).unwrap();
        let mut fresh = DBitState::new(fresh_client);
        assert!(matches!(
            fresh.load_state(&bytes),
            Err(ClientStoreError::Corrupt(
                "tracker disagrees with the memoized report"
            ))
        ));
        // An out-of-range tracker bucket is rejected too.
        let mut bytes2 = Vec::new();
        state.save_state(&mut bytes2);
        let bucket_at = bytes2.len() - 2 - 8 - 4;
        bytes2[bucket_at..bucket_at + 4].copy_from_slice(&99u32.to_le_bytes());
        let mut rng3 = derive_rng(707, 0);
        let mut fresh = DBitState::new(DBitFlipClient::new(40, 8, 8, 1.5, &mut rng3).unwrap());
        assert!(matches!(
            fresh.load_state(&bytes2),
            Err(ClientStoreError::Corrupt("tracker bucket out of range"))
        ));
    }

    #[test]
    fn corrupt_payloads_are_rejected_with_typed_errors() {
        let mut c = LgrrClient::new(12, 2.0, 1.0).unwrap();
        let mut rng = derive_rng(704, 0);
        let _ = c.report(3, &mut rng);
        let mut bytes = Vec::new();
        ClientState::save_state(&c, &mut bytes);
        // Truncation.
        let mut fresh = LgrrClient::new(12, 2.0, 1.0).unwrap();
        assert!(matches!(
            fresh.load_state(&bytes[..bytes.len() - 1]),
            Err(ClientStoreError::Truncated)
        ));
        // Out-of-range class.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        let mut fresh = LgrrClient::new(12, 2.0, 1.0).unwrap();
        assert!(matches!(
            fresh.load_state(&bad),
            Err(ClientStoreError::Corrupt(_))
        ));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        let mut fresh = LgrrClient::new(12, 2.0, 1.0).unwrap();
        assert!(matches!(
            fresh.load_state(&bad),
            Err(ClientStoreError::Corrupt(_))
        ));
    }

    #[test]
    fn report_buf_scratch_resizes_across_protocols() {
        let mut buf = ReportBuf::new();
        assert_eq!(buf.reset(16).len(), 16);
        buf.support.push(3);
        assert_eq!(buf.reset(4).len(), 4);
        assert!(buf.support().is_empty());
        // Same width keeps the allocation and clears bits lazily via the
        // protocol's own writer; reset only guarantees the support vector.
        buf.reset(4).set(1, true);
        assert!(buf.scratch.get(1));
    }
}
