//! The daemon's per-shard cache of LOLOHA preimage rows.
//!
//! A [`Frame::SubmitHashed`](crate::proto::Frame::SubmitHashed) report
//! is the user's Carter–Wegman hash `H` and one cell `y`; it supports
//! every `v ∈ [0, k)` with `H(v) = y`. A user keeps `H` for the whole
//! collection, so the daemon expands it once into the rows of cells
//! `1..g` over `[0, k)`, in one pass of [`CwHash::preimage_rows`], and
//! keeps them under the report's routing key. Since every report of a
//! frame may miss, the daemon caps the passes one frame may cost before
//! it folds any (WIRE_FORMAT §1.1, hashed build).
//! Cell 0's row is the complement of the others' union within `k`, so
//! BiLOLOHA (g = 2) keeps one row per user. Every later report of that
//! user copies its cell's row into a gather buffer, and the buffer folds
//! into the shard with one [`Shard::add_rows`], like a rows frame. A
//! user's first report carries its row as well: the batch folds as rows,
//! and at g = 2 the row becomes the user's entry without being computed,
//! so a whole population that re-keys at once costs what rows did.
//!
//! The cache is bounded: each shard's share of [`ROW_CACHE_BYTES`] caps
//! its entries, and a new key that finds the cache full empties it
//! first. An entry whose key comes back with another hash is rebuilt in
//! place. A user whose entry alone exceeds the cap is expanded straight
//! into the gather buffer at every report. The cache holds nothing the
//! shard's counts depend on, so it is not checkpointed: a resumed daemon
//! rebuilds each row the first time the user reports again.

use crate::proto::HashedBatch;
use ldp_hash::{CwHash, SeededHash};
use ldp_runtime::Shard;
use std::collections::HashMap;

/// Bytes all of a daemon's row caches may hold together; each of its
/// shards gets an equal share. About 2 MB caches every BiLOLOHA user of
/// the paper's DB_MT shape (n = 10 336, k = 1412).
pub const ROW_CACHE_BYTES: usize = 8 << 20;

/// Bytes an entry costs beyond its rows: its key and hash, and its slot
/// in the key map (a key, an index and a control byte), at the map's
/// lowest load of 7/16.
const ENTRY_OVERHEAD: usize = 32 + (16 + 1) * 16 / 7;

/// Most rows one gather holds before it folds: one full spill of the
/// shard's bit planes.
const GATHER_ROWS: usize = 255;

/// Most bytes one gather holds before it folds, for wide domains.
const GATHER_BYTES: usize = 1 << 16;

/// One shard's row cache and gather buffer (see the module docs).
#[derive(Debug)]
pub struct RowCache {
    /// The domain `[0, k)` a row covers.
    k: u64,
    /// `u64` words per row.
    words: usize,
    /// Words per entry: the rows of cells `1..g`, one after another.
    stride: usize,
    /// Most entries the byte cap admits (0 when one entry exceeds it).
    max_entries: usize,
    /// Routing key → entry index.
    slots: HashMap<u64, usize>,
    /// Entry `e`'s key and hash.
    entries: Vec<Entry>,
    /// Entry `e`'s rows at `rows[e · stride ..][.. stride]`.
    rows: Vec<u64>,
    /// The rows of the reports being folded.
    gather: Vec<u64>,
}

/// Whose rows a cache entry holds.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    hash: CwHash,
}

impl RowCache {
    /// An empty cache for reports over `g` cells of the domain `[0, k)`,
    /// holding at most `cap` bytes of entries.
    pub fn new(k: u64, g: u32, cap: usize) -> Self {
        let words = usize::try_from(k.div_ceil(64)).expect("the domain fits in memory");
        let stride = (g as usize - 1).saturating_mul(words);
        Self {
            k,
            words,
            stride,
            max_entries: cap / entry_bytes(stride),
            slots: HashMap::new(),
            entries: Vec::new(),
            rows: Vec::new(),
            gather: Vec::new(),
        }
    }

    /// Bytes the cache's entries hold now, counted like the cap.
    pub fn bytes(&self) -> usize {
        self.entries.len() * entry_bytes(self.stride)
    }

    /// Folds `batch`, report `i` keyed `key_base + i`, into `shard`: each
    /// report's row comes from the cache (built on a miss) into the
    /// gather buffer, which folds whenever it is full and at the end.
    /// Returns the reports whose rows had to be built.
    ///
    /// A frame's keys run on from one another, and so do the entries a
    /// run of keys filled, so each report first tries the entry after
    /// the previous report's and looks its key up only when that entry
    /// holds another key: in steady state a frame hashes no key at all.
    ///
    /// The batch must be valid for this cache: its `g` is the cache's
    /// (every cell below it), as [`crate::proto::decode_frame`] and the
    /// daemon's configuration check leave it.
    pub fn fold(&mut self, shard: &mut Shard, key_base: u64, batch: &HashedBatch) -> u64 {
        if batch.row_words() > 0 {
            shard.add_rows(batch.rows(), batch.row_words());
            self.register(key_base, batch);
            return 0;
        }
        let per_fold = (GATHER_BYTES / (8 * self.words)).clamp(1, GATHER_ROWS);
        let (mut misses, mut next) = (0, usize::MAX);
        let reports = batch.hashes().iter().zip(batch.cells());
        for (i, (hash, &cell)) in reports.enumerate() {
            let key = key_base.wrapping_add(i as u64);
            let cell = u32::from(cell);
            match self.entry(key, hash, next) {
                Some((e, missed)) => {
                    misses += u64::from(missed);
                    self.gather_entry(e, missed, cell);
                    next = e + 1;
                }
                None => {
                    misses += 1;
                    self.gather_uncached(hash, cell);
                }
            }
            if self.gather.len() == per_fold * self.words {
                shard.add_rows(&self.gather, self.words);
                self.gather.clear();
            }
        }
        if !self.gather.is_empty() {
            shard.add_rows(&self.gather, self.words);
            self.gather.clear();
        }
        misses
    }

    /// The entry holding `key`'s rows under `hash` and whether they must
    /// be built: `key`'s entry (entry `next` when it is `key`'s, else
    /// the map's), rebuilt in place for another hash, or a new one
    /// (emptying a full cache first). `None` when no entry fits the cap.
    fn entry(&mut self, key: u64, hash: &CwHash, next: usize) -> Option<(usize, bool)> {
        let found = match self.entries.get(next) {
            Some(entry) if entry.key == key => Some(next),
            _ => self.slots.get(&key).copied(),
        };
        match found {
            Some(e) if self.entries[e].hash == *hash => Some((e, false)),
            Some(e) => {
                self.entries[e].hash = *hash;
                Some((e, true))
            }
            None if self.max_entries == 0 => None,
            None => {
                if self.entries.len() == self.max_entries {
                    self.slots.clear();
                    self.entries.clear();
                    self.rows.clear();
                }
                self.reserve_entry();
                let e = self.entries.len();
                self.slots.insert(key, e);
                self.entries.push(Entry { key, hash: *hash });
                self.rows.resize(self.rows.len() + self.stride, 0);
                Some((e, true))
            }
        }
    }

    /// Keeps the rows a batch carries as its keys' entries, so their next
    /// reports find them built: at g = 2 a cell-1 row is the entry's row
    /// and a cell-0 row its complement within `[0, k)`. A wider `g`
    /// would need every cell's row, so those entries wait for a miss.
    /// The rows are trusted as a rows frame's are: they are the client's
    /// supports.
    fn register(&mut self, key_base: u64, batch: &HashedBatch) {
        if self.stride != self.words || batch.row_words() != self.words {
            return;
        }
        let mut next = usize::MAX;
        let rows = batch.rows().chunks_exact(self.words);
        let reports = batch.hashes().iter().zip(batch.cells()).zip(rows);
        for (i, ((hash, &cell), row)) in reports.enumerate() {
            let key = key_base.wrapping_add(i as u64);
            let Some((e, _)) = self.entry(key, hash, next) else {
                return;
            };
            let entry = &mut self.rows[e * self.stride..][..self.stride];
            if cell == 1 {
                entry.copy_from_slice(row);
            } else {
                for (word, &claimed) in entry.iter_mut().zip(row) {
                    *word = !claimed;
                }
                mask_tail(entry, self.k);
            }
            next = e + 1;
        }
    }

    /// Appends the row of `cell` to the gather buffer from entry `e`,
    /// building the entry's rows from its hash first when `build`.
    fn gather_entry(&mut self, e: usize, build: bool, cell: u32) {
        let rows = &mut self.rows[e * self.stride..][..self.stride];
        if build {
            let hash = self.entries[e].hash;
            hash.preimage_rows(self.k, 1..hash.g(), rows);
        }
        if let Some(c) = cell.checked_sub(1) {
            let row = &rows[c as usize * self.words..][..self.words];
            self.gather.extend_from_slice(row);
            return;
        }
        // Cell 0 is what no other cell claims, within [0, k).
        let at = self.gather.len();
        if self.stride == self.words {
            self.gather.extend(rows.iter().map(|&claimed| !claimed));
        } else {
            self.gather.resize(at + self.words, u64::MAX);
            for row in rows.chunks_exact(self.words) {
                for (word, &claimed) in self.gather[at..].iter_mut().zip(row) {
                    *word &= !claimed;
                }
            }
        }
        mask_tail(&mut self.gather[at..], self.k);
    }

    /// Appends the row of `cell` under `hash` to the gather buffer
    /// straight from the hash, for a cache whose entries pass its cap.
    fn gather_uncached(&mut self, hash: &CwHash, cell: u32) {
        let at = self.gather.len();
        self.gather.resize(at + self.words, 0);
        hash.preimage_rows(self.k, cell..cell + 1, &mut self.gather[at..]);
    }

    /// Grows the entry buffers for one more entry without letting their
    /// capacity pass `max_entries` entries: doubling, clamped to it.
    fn reserve_entry(&mut self) {
        let len = self.entries.len();
        if len < self.entries.capacity() {
            return;
        }
        let room = (2 * len).max(16).min(self.max_entries) - len;
        self.entries.reserve_exact(room);
        self.rows.reserve_exact(room * self.stride);
    }
}

/// Clears the bits of `row` from `k` on.
fn mask_tail(row: &mut [u64], k: u64) {
    if !k.is_multiple_of(64) {
        if let Some(last) = row.last_mut() {
            *last &= (1 << (k % 64)) - 1;
        }
    }
}

/// Bytes an entry of `stride` row words costs, counted against the cap.
fn entry_bytes(stride: usize) -> usize {
    stride.saturating_mul(8).saturating_add(ENTRY_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_hash::MERSENNE_P;

    /// The row of `cell` under `hash` over `[0, k)`, hashing each value.
    fn hashed_row(hash: &CwHash, k: u64, cell: u32) -> Vec<u64> {
        let mut row = vec![0u64; k.div_ceil(64) as usize];
        for v in 0..k {
            if hash.hash(v) == cell {
                row[v as usize / 64] |= 1 << (v % 64);
            }
        }
        row
    }

    /// Gathers `cell`'s row under `hash` for `key`, returning whether it
    /// missed.
    fn gather_row(cache: &mut RowCache, key: u64, hash: &CwHash, cell: u32) -> bool {
        match cache.entry(key, hash, usize::MAX) {
            Some((e, missed)) => {
                cache.gather_entry(e, missed, cell);
                missed
            }
            None => {
                cache.gather_uncached(hash, cell);
                true
            }
        }
    }

    /// The rows `cache` gathers for one report per cell of `hash`.
    fn gathered(cache: &mut RowCache, key: u64, hash: &CwHash) -> Vec<Vec<u64>> {
        (0..hash.g())
            .map(|cell| {
                cache.gather.clear();
                gather_row(cache, key, hash, cell);
                cache.gather.clone()
            })
            .collect()
    }

    #[test]
    fn gathered_rows_equal_the_hash_over_the_domain() {
        let p = MERSENNE_P;
        let mut seed = 0x5EEDu64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 3
        };
        let mut parts = vec![(1, 0), (p - 1, p - 1), (p - 1, 0), (1, p - 1)];
        parts.extend((0..12).map(|_| (1 + next() % (p - 1), next() % p)));
        for k in [1u64, 2, 63, 64, 65, 1412] {
            for g in [2u32, 3, 5, 32] {
                let mut cache = RowCache::new(k, g, ROW_CACHE_BYTES);
                let mut uncached = RowCache::new(k, g, 0);
                for (key, &(a, b)) in parts.iter().enumerate() {
                    let hash = CwHash::from_parts(a, b, g).unwrap();
                    let want: Vec<_> = (0..g).map(|c| hashed_row(&hash, k, c)).collect();
                    let what = format!("k = {k}, g = {g}, a = {a}, b = {b}");
                    assert_eq!(gathered(&mut cache, key as u64, &hash), want, "{what}");
                    assert_eq!(gathered(&mut uncached, 0, &hash), want, "{what} uncached");
                }
            }
        }
    }

    #[test]
    fn gathered_rows_equal_the_clients_cell_rows() {
        use ldp_client::{ClientConfig, ClientPool, ReportBuf};
        use ldp_runtime::Method;
        let custom = loloha::LolohaParams::with_g(7, 2.0, 1.0).unwrap();
        for k in [2u64, 63, 64, 65, 1412] {
            let configs = [
                ClientConfig::for_method(Method::BiLoloha, k, 2.0, 1.0).unwrap(),
                ClientConfig::for_method(Method::OLoloha, k, 2.0, 1.0).unwrap(),
                ClientConfig::for_loloha(k, custom),
            ];
            for (c, cfg) in configs.into_iter().enumerate() {
                let off = ldp_obs::MetricsRegistry::disabled();
                let mut pool = ClientPool::with_obs(cfg, 11, 40, &off).unwrap();
                let mut buf = ReportBuf::new();
                let mut checked = std::collections::BTreeSet::new();
                for user in 0..40u64 {
                    for value in 0..40 {
                        pool.sanitize_one(user as usize, value % k, &mut buf);
                        let Some(hashed) = buf.hashed() else {
                            // Too many cells for rows at this k: a list.
                            assert!(buf.row().is_none() && k < 63, "k = {k}, config {c}");
                            continue;
                        };
                        let (hash, cell) = (hashed.hash, u32::from(hashed.cell));
                        let mut cache = RowCache::new(k, hash.g(), ROW_CACHE_BYTES);
                        gather_row(&mut cache, user, &hash, cell);
                        assert_eq!(buf.row(), Some(&cache.gather[..]), "k = {k}, config {c}");
                        checked.insert(hashed.cell);
                    }
                }
                assert!(
                    checked.len() > 1 || k < 63,
                    "k = {k}, config {c}: cells {checked:?}"
                );
            }
        }
    }

    #[test]
    fn a_key_with_a_new_hash_is_rebuilt_in_place() {
        let (k, g) = (100u64, 2u32);
        let mut cache = RowCache::new(k, g, ROW_CACHE_BYTES);
        let first = CwHash::from_parts(3, 7, g).unwrap();
        let second = CwHash::from_parts(11, 5, g).unwrap();
        assert!(gather_row(&mut cache, 9, &first, 1));
        assert!(!gather_row(&mut cache, 9, &first, 0));
        assert!(gather_row(&mut cache, 9, &second, 1));
        assert_eq!(cache.entries.len(), 1, "rebuilt, not added");
        cache.gather.clear();
        assert!(!gather_row(&mut cache, 9, &second, 1));
        assert_eq!(cache.gather, hashed_row(&second, k, 1));
    }

    #[test]
    fn a_flood_of_distinct_keys_stays_under_the_cap() {
        let (k, g) = (1412u64, 2u32);
        let cap = 64 * 1024;
        let mut cache = RowCache::new(k, g, cap);
        let hash = CwHash::from_parts(12345, 678, g).unwrap();
        let mut most = 0;
        for key in 0..10_000u64 {
            cache.gather.clear();
            gather_row(&mut cache, key * 7919, &hash, (key % 2) as u32);
            assert!(
                cache.bytes() <= cap,
                "{} bytes after key {key}",
                cache.bytes()
            );
            let held = 8 * cache.rows.capacity() + 32 * cache.entries.capacity();
            assert!(held <= cap, "{held} bytes reserved after key {key}");
            most = most.max(cache.entries.len());
        }
        assert_eq!(most, cache.max_entries, "the cache fills before it empties");
        assert!(cache.slots.len() <= cache.max_entries);
    }

    #[test]
    fn frames_whose_keys_cross_other_entries_still_find_their_own() {
        let (k, g) = (200u64, 2u32);
        let hash = |key: u64| CwHash::from_parts(1 + key * 7919, key, g).unwrap();
        let frame = |keys: std::ops::Range<u64>| {
            let mut batch = HashedBatch::new(g, 0);
            for key in keys.clone() {
                batch.push(hash(key), (key % 2) as u8, &[]);
            }
            (keys.start, batch)
        };
        let mut cache = RowCache::new(k, g, ROW_CACHE_BYTES);
        let mut shard = Shard::with_dim(k as usize);
        let mut want = Shard::with_dim(k as usize);
        // Two sessions' frames interleave, so entries of keys 10.. follow
        // those of keys 1000..; the later frames' keys run across them.
        let first = [frame(0..10), frame(1000..1010), frame(10..20)];
        let second = [frame(0..20), frame(5..15), frame(1005..1025)];
        for (i, (base, batch)) in first.iter().chain(&second).enumerate() {
            let misses = cache.fold(&mut shard, *base, batch);
            let fresh = [10, 10, 10, 0, 0, 15][i];
            assert_eq!(misses, fresh, "frame {i}");
            for (key, &cell) in (*base..).zip(batch.cells()) {
                want.add_row(&hashed_row(&hash(key), k, u32::from(cell)));
            }
        }
        assert_eq!(shard.counts(), want.counts());
    }

    #[test]
    fn carried_rows_fold_as_rows_and_become_entries_at_g_2() {
        for (k, g) in [(130u64, 2u32), (130, 3)] {
            let users: Vec<(CwHash, u8)> = (0..40u64)
                .map(|i| {
                    (
                        CwHash::from_parts(3 + i * 101, i, g).unwrap(),
                        (i % 2) as u8,
                    )
                })
                .collect();
            let words = k.div_ceil(64) as usize;
            let (mut fresh, mut later) = (HashedBatch::new(g, words), HashedBatch::new(g, 0));
            let mut want = Shard::with_dim(k as usize);
            for &(hash, cell) in &users {
                let row = hashed_row(&hash, k, u32::from(cell));
                want.add_row(&row);
                want.add_row(&row);
                fresh.push(hash, cell, &row);
                later.push(hash, cell, &[]);
            }
            let mut cache = RowCache::new(k, g, ROW_CACHE_BYTES);
            let mut shard = Shard::with_dim(k as usize);
            assert_eq!(cache.fold(&mut shard, 7, &fresh), 0, "g = {g}");
            let misses = cache.fold(&mut shard, 7, &later);
            // At g = 2 a carried row is the whole entry; a wider g's
            // entries are built at the next report.
            assert_eq!(misses, if g == 2 { 0 } else { 40 }, "g = {g}");
            assert_eq!(shard.counts(), want.counts(), "g = {g}");
        }
    }

    #[test]
    fn fold_equals_folding_each_users_row() {
        let (k, g) = (130u64, 3u32);
        let mut batch = HashedBatch::new(g, 0);
        let mut want = Shard::with_dim(k as usize);
        for i in 0..600u64 {
            let hash = CwHash::from_parts(1 + i * 977 % 5000, i * 31, g).unwrap();
            let cell = (i % 3) as u8;
            want.add_row(&hashed_row(&hash, k, u32::from(cell)));
            batch.push(hash, cell, &[]);
        }
        for cap in [ROW_CACHE_BYTES, 0] {
            let mut cache = RowCache::new(k, g, cap);
            let mut shard = Shard::with_dim(k as usize);
            assert_eq!(cache.fold(&mut shard, 40, &batch), 600);
            assert_eq!(shard.counts(), want.counts());
            assert_eq!(shard.reports(), 600);
            let misses = cache.fold(&mut shard, 40, &batch);
            assert_eq!(misses, if cap == 0 { 600 } else { 0 });
            let doubled: Vec<u64> = want.counts().iter().map(|c| 2 * c).collect();
            assert_eq!(shard.counts(), doubled);
        }
    }
}
