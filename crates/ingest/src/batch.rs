//! The zero-alloc batched report transport — the only way reports reach
//! the pipeline's shard workers.
//!
//! One envelope per report would pay one heap allocation and one channel
//! message per report — at population scale the transport constant
//! factors, not the protocol math, would dominate ingest cost. This
//! module amortizes both: a [`ReportBatch`] packs many whole reports
//! into one flat buffer, a [`BatchSubmitter`](crate::BatchSubmitter)
//! accumulates one batch per shard and flushes a single envelope when
//! the batch fills, and a free-list (`BufferPool`) recycles the drained
//! buffers back to submitters so steady-state ingestion allocates
//! nothing.
//!
//! A batch holds its reports in one of two layouts, the same two an
//! `LDNW` submit frame carries (`docs/WIRE_FORMAT.md` §4):
//!
//! * **lists** — the concatenation of every report's `u32` support
//!   indices plus one end offset per report (any support: GRR's single
//!   index, dBitFlipPM's sampled buckets, unsorted or repeated lists);
//! * **rows** — one fixed-width bit row per report, bit `i % 64` of word
//!   `i / 64` set for each index `i` (dense supports: UE vectors and
//!   LOLOHA preimage rows). The shard fold adds whole rows
//!   ([`ldp_runtime::Shard::add_rows`]), so a row is never expanded.
//!
//! # Index width invariant
//!
//! Transport indices are `u32` — half the copy bandwidth of `usize` on
//! 64-bit hosts. Every index is validated against the aggregation
//! dimension before it is narrowed, and the narrowing itself is a checked
//! `u32::try_from` (never a silent `as` cast): a dimension beyond
//! `u32::MAX` — far past any domain in the paper or the roadmap — fails
//! loudly instead of corrupting counts. Batch end offsets stay in `u32`
//! range because a batch flushes long before it can accumulate
//! `MAX_BATCH_INDICES` indices.
//!
//! # Row invariant
//!
//! A row submitted to the pipeline is `⌈dim/64⌉` words wide (at least
//! one) and every bit at or beyond `dim` is zero: the submitter checks
//! each set bit against the dimension before the row is copied in, so
//! the fold can add whole words without a range check.

use ldp_obs::{Counter, MetricsRegistry};
use ldp_primitives::for_each_set_bit;
use std::sync::{Arc, Mutex};

/// Default number of reports a [`BatchSubmitter`](crate::BatchSubmitter)
/// packs per shard before
/// flushing an envelope. Deep enough to amortize the channel send and the
/// buffer hand-off ~1/256 per report, shallow enough that a batch stays
/// well inside a cache-friendly footprint at paper-scale support sizes.
pub const DEFAULT_BATCH_REPORTS: usize = 256;

/// A full accumulator additionally flushes once its flat index buffer
/// reaches this many entries, so `u32` end offsets cannot overflow even
/// with enormous per-report supports (documented invariant: offsets are
/// only pushed while `indices.len() < MAX_BATCH_INDICES + dim ≪ u32::MAX`).
pub(crate) const MAX_BATCH_INDICES: usize = 1 << 20;

/// Buffers the free-list keeps for reuse; returns beyond the cap are
/// dropped so an ingestion burst cannot pin its peak memory forever.
const POOL_CAP: usize = 64;

/// A packed batch of whole reports, in the lists or the rows layout
/// (see the [module docs](self)).
///
/// Equality compares the reports' supports, not the layout: a batch
/// built from ascending index lists equals the same reports as rows.
#[derive(Debug, Clone, Default)]
pub struct ReportBatch {
    /// Lists layout: every report's indices, concatenated.
    indices: Vec<u32>,
    /// Lists layout: per-report end offsets into `indices`.
    ends: Vec<u32>,
    /// Rows layout: words per row; 0 while the batch is in the lists
    /// layout.
    words: usize,
    /// Rows layout: `words` words per report.
    cells: Vec<u64>,
}

/// One report of a [`ReportBatch`], in the batch's layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report<'a> {
    /// The report's support indices.
    List(&'a [u32]),
    /// The report's bit row.
    Row(&'a [u64]),
}

impl Report<'_> {
    /// The support indices in the report's order (ascending for a row).
    fn indices(&self) -> Vec<usize> {
        match *self {
            Report::List(list) => list.iter().map(|&i| i as usize).collect(),
            Report::Row(row) => {
                let mut out = Vec::new();
                for_each_set_bit(row, |i| out.push(i));
                out
            }
        }
    }

    /// The first support index at or beyond `dim`, in the report's
    /// order, if any.
    fn first_out_of_range(&self, dim: usize) -> Option<usize> {
        match *self {
            Report::List(list) => list.iter().map(|&i| i as usize).find(|&i| i >= dim),
            Report::Row(row) => first_bit_at_or_above(row, dim),
        }
    }
}

/// The lowest set bit of `row` at or beyond `dim`, if any.
pub(crate) fn first_bit_at_or_above(row: &[u64], dim: usize) -> Option<usize> {
    let (w, b) = (dim / 64, dim % 64);
    let tail = row.get(w).map_or(0, |&word| word & (u64::MAX << b));
    let rest = row.iter().enumerate().skip(w + 1);
    std::iter::once((w, tail))
        .chain(rest.map(|(i, &word)| (i, word)))
        .find(|&(_, word)| word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
}

impl PartialEq for ReportBatch {
    fn eq(&self, other: &Self) -> bool {
        self.report_count() == other.report_count()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a == b || a.indices() == b.indices())
    }
}

impl Eq for ReportBatch {}

impl ReportBatch {
    /// An empty batch with no capacity (submitters normally take
    /// recycled, pre-grown buffers from the pipeline's free list
    /// instead).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of whole reports packed in this batch.
    #[inline]
    pub fn report_count(&self) -> usize {
        match self.words {
            0 => self.ends.len(),
            words => self.cells.len() / words,
        }
    }

    /// Total support indices across all packed reports (for rows, the
    /// total popcount — one pass over the words).
    pub fn index_count(&self) -> usize {
        match self.words {
            0 => self.indices.len(),
            _ => self.cells.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether the batch holds no reports.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty() && self.cells.is_empty()
    }

    /// The row width in words when the batch is in the rows layout,
    /// `None` for lists.
    #[inline]
    pub fn row_words(&self) -> Option<usize> {
        (self.words > 0).then_some(self.words)
    }

    /// Whether a report of this shape (`Some(words)` for a row of that
    /// width, `None` for a list) can join the batch without a flush:
    /// the batch is empty or already holds that shape.
    #[inline]
    pub fn takes(&self, row_words: Option<usize>) -> bool {
        self.is_empty() || self.row_words() == row_words
    }

    /// Report `i` in the batch's layout (`i < report_count()`).
    fn report(&self, i: usize) -> Report<'_> {
        match self.words {
            0 => {
                let start = i.checked_sub(1).map_or(0, |j| self.ends[j] as usize);
                Report::List(&self.indices[start..self.ends[i] as usize])
            }
            words => Report::Row(&self.cells[i * words..(i + 1) * words]),
        }
    }

    /// Iterates the packed reports in submission order.
    pub fn iter(&self) -> impl Iterator<Item = Report<'_>> {
        (0..self.report_count()).map(|i| self.report(i))
    }

    /// The rows layout's words, `row_words` per report (empty for
    /// lists).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// The lists layout's flat indices and per-report end offsets
    /// (report `i` spans `ends[i-1]..ends[i]`, `ends[-1]` read as 0);
    /// both empty for rows.
    pub fn lists(&self) -> (&[u32], &[u32]) {
        (&self.indices, &self.ends)
    }

    /// The first support index at or beyond `dim`, in report order, if
    /// any.
    pub fn first_out_of_range(&self, dim: usize) -> Option<usize> {
        self.iter().find_map(|r| r.first_out_of_range(dim))
    }

    /// Empties the batch, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.ends.clear();
        self.cells.clear();
        self.words = 0;
    }

    /// Reassembles a lists-layout batch from its flat parts (the wire
    /// shape `ldp_netd` ships: indices plus per-report end offsets).
    /// Rejects structurally inconsistent inputs — offsets must be
    /// nondecreasing and the last offset must delimit exactly the index
    /// buffer — so a decoded batch upholds the same invariants a locally
    /// packed one does.
    pub fn from_parts(indices: Vec<u32>, ends: Vec<u32>) -> Result<Self, &'static str> {
        let mut prev = 0u32;
        for &end in &ends {
            if end < prev {
                return Err("batch end offsets must be nondecreasing");
            }
            prev = end;
        }
        if prev as usize != indices.len() {
            return Err("last end offset must equal the index count");
        }
        Ok(Self {
            indices,
            ends,
            ..Self::default()
        })
    }

    /// A rows-layout batch of `cells.len() / words` rows (the wire's
    /// rows body). Rejects a zero width or a partial last row.
    pub fn from_rows(words: usize, cells: Vec<u64>) -> Result<Self, &'static str> {
        if words == 0 {
            return Err("row width must be at least one word");
        }
        if !cells.len().is_multiple_of(words) {
            return Err("row cells must be whole rows");
        }
        Ok(Self {
            words,
            cells,
            ..Self::default()
        })
    }

    /// Packs one whole report of transport-width indices. The caller has
    /// already validated every index against the aggregation dimension
    /// and bounds the batch size (the wire layer flushes long before the
    /// `u32` offset invariant could be threatened).
    ///
    /// # Panics
    /// Panics if the batch holds rows (see [`Self::takes`]).
    pub fn push_report<I: IntoIterator<Item = u32>>(&mut self, support: I) {
        assert!(self.takes(None), "a list report cannot join a rows batch");
        self.words = 0;
        self.indices.extend(support);
        self.seal_report();
    }

    /// Packs one whole report as a bit row of `row.len()` words. The
    /// caller has already checked every set bit against the aggregation
    /// dimension.
    ///
    /// # Panics
    /// Panics if `row` is empty, or the batch holds lists or rows of
    /// another width (see [`Self::takes`]).
    pub fn push_row(&mut self, row: &[u64]) {
        assert!(!row.is_empty(), "a row is at least one word");
        assert!(
            self.takes(Some(row.len())),
            "a row report must match the batch's layout"
        );
        self.push_row_padded(row, row.len());
    }

    /// Appends one validated index to the report currently being packed.
    /// The caller ([`crate::pipeline::BatchSubmitter`]) has already
    /// range-checked `index < dim`; the width narrowing is still a typed
    /// conversion so a `> u32::MAX` dimension fails loudly (see the
    /// module docs) instead of silently truncating.
    #[inline]
    pub(crate) fn push_index(&mut self, index: usize) {
        self.indices
            .push(u32::try_from(index).expect("transport invariant: dim fits u32"));
    }

    /// Rolls back a partially packed report (validation failed mid-way).
    #[inline]
    pub(crate) fn truncate_indices(&mut self, len: usize) {
        self.indices.truncate(len);
    }

    /// Seals the report packed since the previous seal. The offset fits
    /// `u32` by the [`MAX_BATCH_INDICES`] flush invariant.
    #[inline]
    pub(crate) fn seal_report(&mut self) {
        self.ends.push(
            u32::try_from(self.indices.len()).expect("transport invariant: batch offsets fit u32"),
        );
    }

    /// Appends a validated row, zero-padded or truncated to `words`
    /// words (the submitter has checked that no set bit lies beyond its
    /// dimension, so truncation only drops zero words).
    pub(crate) fn push_row_padded(&mut self, row: &[u64], words: usize) {
        self.words = words;
        let keep = row.len().min(words);
        self.cells.extend_from_slice(&row[..keep]);
        self.cells.resize(self.cells.len() + words - keep, 0);
    }
}

/// The shared free-list recycling drained [`ReportBatch`] buffers from
/// shard workers back to submitters. Cloning shares the same pool.
#[derive(Debug, Clone)]
pub(crate) struct BufferPool {
    slots: Arc<Mutex<Vec<ReportBatch>>>,
    hits: Counter,
    misses: Counter,
}

impl BufferPool {
    pub(crate) fn new(obs: &MetricsRegistry) -> Self {
        const BUFPOOL: &str = "ldp.ingest.pipeline.bufpool";
        Self {
            slots: Arc::new(Mutex::new(Vec::new())),
            hits: obs.counter_labeled(BUFPOOL, "hit"),
            misses: obs.counter_labeled(BUFPOOL, "miss"),
        }
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, Vec<ReportBatch>> {
        // A poisoned lock only means another thread panicked mid-push;
        // the Vec itself is always in a valid state.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pops a recycled buffer, or allocates a fresh empty one (a miss —
    /// steady state after warm-up should be all hits).
    pub(crate) fn take(&self) -> ReportBatch {
        match self.slots().pop() {
            Some(batch) => {
                self.hits.inc();
                batch
            }
            None => {
                self.misses.inc();
                ReportBatch::new()
            }
        }
    }

    /// Returns an emptied buffer for reuse (dropped beyond the cap).
    pub(crate) fn give(&self, batch: ReportBatch) {
        debug_assert!(batch.is_empty(), "recycled buffers must be cleared");
        let mut slots = self.slots();
        if slots.len() < POOL_CAP {
            slots.push(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(b: &ReportBatch) -> Vec<Vec<usize>> {
        b.iter().map(|r| r.indices()).collect()
    }

    #[test]
    fn packs_reports_as_flat_indices_with_end_offsets() {
        let mut b = ReportBatch::new();
        for report in [&[0usize, 3, 5][..], &[1][..], &[][..]] {
            let start = b.index_count();
            for &i in report {
                b.push_index(i);
            }
            assert!(start <= b.index_count());
            b.seal_report();
        }
        assert_eq!(b.report_count(), 3);
        assert_eq!(b.index_count(), 4);
        assert_eq!(b.lists(), (&[0, 3, 5, 1][..], &[3, 4, 4][..]));
        assert_eq!(b.row_words(), None);
        assert_eq!(lists(&b), vec![vec![0, 3, 5], vec![1], vec![]]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.index_count(), 0);
    }

    #[test]
    fn truncate_rolls_back_a_partial_report() {
        let mut b = ReportBatch::new();
        b.push_index(7);
        b.seal_report();
        let start = b.index_count();
        b.push_index(1);
        b.push_index(2);
        b.truncate_indices(start);
        assert_eq!(b.report_count(), 1);
        assert_eq!(b.lists().0, &[7]);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_inconsistency() {
        let mut packed = ReportBatch::new();
        packed.push_report([0u32, 3, 5]);
        packed.push_report([1u32]);
        packed.push_report(std::iter::empty());
        let (indices, ends) = packed.lists();
        let rebuilt = ReportBatch::from_parts(indices.to_vec(), ends.to_vec()).unwrap();
        assert_eq!(rebuilt, packed);

        assert!(ReportBatch::from_parts(vec![1, 2], vec![2, 1]).is_err());
        assert!(ReportBatch::from_parts(vec![1, 2], vec![1]).is_err());
        assert!(ReportBatch::from_parts(vec![], vec![]).unwrap().is_empty());
    }

    #[test]
    fn rows_hold_whole_reports_and_equal_their_ascending_lists() {
        let mut rows = ReportBatch::new();
        rows.push_row(&[0b101001, 1 << 6]);
        rows.push_row(&[0, 0]);
        assert_eq!(rows.row_words(), Some(2));
        assert_eq!(rows.report_count(), 2);
        assert_eq!(rows.index_count(), 4);
        assert_eq!(rows.report(1), Report::Row(&[0, 0]));
        assert_eq!(lists(&rows), vec![vec![0, 3, 5, 70], vec![]]);

        let mut same = ReportBatch::new();
        same.push_report([0u32, 3, 5, 70]);
        same.push_report([]);
        assert_eq!(rows, same);
        // A narrower row of the same bits is the same report.
        let narrow = ReportBatch::from_rows(1, vec![0b101001, 0]).unwrap();
        assert_ne!(narrow, rows);
        let wide = ReportBatch::from_rows(3, vec![0b101001, 1 << 6, 0, 0, 0, 0]).unwrap();
        assert_eq!(wide, rows);
        // Order and multiplicity count: a list is not a set.
        let mut unsorted = ReportBatch::new();
        unsorted.push_report([3u32, 0, 5, 70]);
        unsorted.push_report([]);
        assert_ne!(unsorted, rows);

        assert!(rows.takes(Some(2)) && !rows.takes(Some(3)) && !rows.takes(None));
        assert!(!same.takes(Some(2)) && same.takes(None));
        rows.clear();
        assert!(rows.takes(None) && rows.row_words().is_none());

        assert!(ReportBatch::from_rows(0, vec![]).is_err());
        assert!(ReportBatch::from_rows(2, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn the_first_out_of_range_index_is_found_in_report_order() {
        let rows = ReportBatch::from_rows(2, vec![1, 0, 1 << 63 | 1, 1 << 3]).unwrap();
        assert_eq!(rows.first_out_of_range(128), None);
        assert_eq!(rows.first_out_of_range(68), None);
        assert_eq!(rows.first_out_of_range(67), Some(67));
        assert_eq!(rows.first_out_of_range(64), Some(67));
        assert_eq!(rows.first_out_of_range(63), Some(63));
        assert_eq!(rows.first_out_of_range(1), Some(63));
        let mut lists = ReportBatch::new();
        lists.push_report([2u32, 9, 4]);
        assert_eq!(lists.first_out_of_range(5), Some(9));
        assert_eq!(lists.first_out_of_range(10), None);
    }

    #[test]
    fn padded_rows_take_the_submitters_width() {
        let mut b = ReportBatch::new();
        b.push_row_padded(&[7], 3);
        b.push_row_padded(&[1, 2, 0, 0], 3);
        assert_eq!(b.cells(), &[7, 0, 0, 1, 2, 0]);
        assert_eq!(b.report_count(), 2);
    }

    #[test]
    fn pool_recycles_and_counts_hits_and_misses() {
        let reg = MetricsRegistry::new();
        let pool = BufferPool::new(&reg);
        let mut a = pool.take(); // miss: pool starts empty
        a.push_row(&[3]);
        a.clear();
        pool.give(a);
        let _b = pool.take(); // hit: the recycled buffer
        let _c = pool.take(); // miss again
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.bufpool"), 3);
    }
}
