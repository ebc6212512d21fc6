//! The zero-alloc batched report transport — the only way reports reach
//! the pipeline's shard workers.
//!
//! One envelope per report would pay one heap allocation and one channel
//! message per report — at population scale the transport constant
//! factors, not the protocol math, would dominate ingest cost. This
//! module amortizes both: a [`ReportBatch`] packs many whole reports into one flat `u32` index
//! buffer (plus per-report end offsets), a
//! [`BatchSubmitter`](crate::BatchSubmitter) accumulates one batch per
//! shard and flushes a single envelope when the batch fills, and a
//! free-list (`BufferPool`) recycles the drained buffers back to
//! submitters so steady-state ingestion allocates nothing.
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

use ldp_obs::{Counter, MetricsRegistry};
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

/// A packed batch of whole reports: the concatenation of each report's
/// validated support indices in transport width (`u32`), plus one end
/// offset per report delimiting its slice of the flat buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportBatch {
    indices: Vec<u32>,
    ends: Vec<u32>,
}

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
        self.ends.len()
    }

    /// Total support indices across all packed reports.
    #[inline]
    pub fn index_count(&self) -> usize {
        self.indices.len()
    }

    /// Whether the batch holds no reports.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The flat validated support indices, all reports concatenated.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Per-report end offsets into [`Self::indices`] (report `i` spans
    /// `ends[i-1]..ends[i]`, with `ends[-1]` read as 0).
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// Iterates the packed reports as index slices, in submission order.
    pub fn reports(&self) -> impl Iterator<Item = &[u32]> {
        self.ends.iter().scan(0usize, |start, &end| {
            let slice = &self.indices[*start..end as usize];
            *start = end as usize;
            Some(slice)
        })
    }

    /// Empties the batch, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.ends.clear();
    }

    /// Reassembles a batch from its flat parts (the wire shape `ldp_netd`
    /// ships: indices plus per-report end offsets). Rejects structurally
    /// inconsistent inputs — offsets must be nondecreasing and the last
    /// offset must delimit exactly the index buffer — so a decoded batch
    /// upholds the same invariants a locally packed one does.
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
        Ok(Self { indices, ends })
    }

    /// Disassembles the batch into its flat parts (`indices`, `ends`),
    /// the inverse of [`Self::from_parts`].
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.indices, self.ends)
    }

    /// Packs one whole report of transport-width indices. The caller has
    /// already validated every index against the aggregation dimension
    /// and bounds the batch size (the wire layer flushes long before the
    /// `u32` offset invariant could be threatened).
    pub fn push_report<I: IntoIterator<Item = u32>>(&mut self, support: I) {
        self.indices.extend(support);
        self.seal_report();
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
        assert_eq!(b.indices(), &[0, 3, 5, 1]);
        assert_eq!(b.ends(), &[3, 4, 4]);
        let unpacked: Vec<Vec<u32>> = b.reports().map(<[u32]>::to_vec).collect();
        assert_eq!(unpacked, vec![vec![0, 3, 5], vec![1], vec![]]);
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
        assert_eq!(b.indices(), &[7]);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_inconsistency() {
        let mut packed = ReportBatch::new();
        packed.push_report([0u32, 3, 5]);
        packed.push_report([1u32]);
        packed.push_report(std::iter::empty());
        let (indices, ends) = packed.clone().into_parts();
        let rebuilt = ReportBatch::from_parts(indices, ends).unwrap();
        assert_eq!(rebuilt, packed);

        assert!(ReportBatch::from_parts(vec![1, 2], vec![2, 1]).is_err());
        assert!(ReportBatch::from_parts(vec![1, 2], vec![1]).is_err());
        assert!(ReportBatch::from_parts(vec![], vec![]).unwrap().is_empty());
    }

    #[test]
    fn pool_recycles_and_counts_hits_and_misses() {
        let reg = MetricsRegistry::new();
        let pool = BufferPool::new(&reg);
        let mut a = pool.take(); // miss: pool starts empty
        a.push_index(3);
        a.seal_report();
        a.clear();
        pool.give(a);
        let _b = pool.take(); // hit: the recycled buffer
        let _c = pool.take(); // miss again
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.bufpool"), 3);
    }
}
