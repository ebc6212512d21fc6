//! The worker-per-shard concurrent ingestion pipeline.
//!
//! An [`IngestPipeline`] owns N OS threads, each draining a bounded
//! `mpsc` channel of report envelopes into its own [`Shard`]. Submission
//! (routing + channel send) is cheap; accumulation happens on the worker.
//! Backpressure is the channel bound: when a worker falls
//! behind, submitters block instead of buffering without limit.
//!
//! # Determinism contract
//!
//! Every result the pipeline produces is **bit-identical to a
//! single-threaded replay of the same reports**, for any worker count and
//! any thread interleaving, because both halves of the path are
//! order-independent sums:
//!
//! 1. a shard's state is `(Σ support counts, Σ reports)` over the
//!    envelopes routed to it — addition commutes, so arrival order within
//!    a worker's queue is irrelevant;
//! 2. the merge is an index-wise sum over shards
//!    ([`ShardedAggregator::merged_counts`]), so *which* worker held a
//!    report is irrelevant too.
//!
//! The [`Router`] adds a stronger, orthogonal guarantee for
//! durability: keyed submission always fills the *same* shard for the same
//! key, so a checkpoint taken at a given submission prefix is reproducible.
//!
//! # Quiescence points
//!
//! [`IngestPipeline::snapshot`], [`IngestPipeline::checkpoint`] and
//! [`IngestPipeline::finish_round`] are barriers: each worker answers only
//! after draining everything enqueued before the barrier message (channel
//! FIFO order). Reports cross the channel only as packed batches: a
//! [`BatchSubmitter`] buffers reports *submitter-side* until its batch
//! fills, and those buffered reports belong to the submitter, not the
//! pipeline, until [`BatchSubmitter::flush`] sends them — so a barrier
//! observes every report iff its submitter flushed (or finished, or
//! dropped — drop flushes best-effort) before the barrier, on whichever
//! thread the submitter lives. Scoped submitter threads enforce this
//! shape structurally.

use crate::batch::{first_bit_at_or_above, BufferPool, ReportBatch, MAX_BATCH_INDICES};
use crate::router::Router;
use crate::store::ShardCheckpoint;
use ldp_obs::{Counter, Histogram, MetricsRegistry, Span};
use ldp_primitives::error::ParamError;
use ldp_runtime::{AggregateSnapshot, Method, Shard, ShardedAggregator};
use loloha::LolohaParams;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

/// Default bound of each worker's envelope channel. Deep enough to absorb
/// submission bursts, shallow enough that a stalled worker exerts
/// backpressure within ~a thousand envelopes.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// One shard's accumulated state, as captured at a quiescence point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardState {
    /// Partial support counts (length = aggregation dimension).
    pub counts: Vec<u64>,
    /// Reports folded into these counts.
    pub reports: u64,
}

impl ShardState {
    fn of(shard: &Shard) -> Self {
        Self {
            counts: shard.counts().to_vec(),
            reports: shard.reports(),
        }
    }
}

/// Why a pipeline operation was rejected.
#[derive(Debug)]
pub enum IngestError {
    /// A report's support set names an index outside the aggregation
    /// dimension.
    SupportOutOfRange {
        /// The offending index.
        index: usize,
        /// The pipeline's aggregation dimension.
        dim: usize,
    },
    /// A restored shard's length differs from the aggregation dimension.
    BatchLenMismatch {
        /// The shard's length.
        got: usize,
        /// The pipeline's aggregation dimension.
        dim: usize,
    },
    /// A checkpoint's dimension differs from the pipeline's.
    CheckpointDimMismatch {
        /// The checkpoint's dimension.
        got: usize,
        /// The pipeline's aggregation dimension.
        dim: usize,
    },
    /// A worker thread is gone (it panicked or was shut down); the
    /// pipeline can no longer guarantee complete rounds.
    WorkerLost,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::SupportOutOfRange { index, dim } => {
                write!(
                    f,
                    "support index {index} outside aggregation dimension {dim}"
                )
            }
            IngestError::BatchLenMismatch { got, dim } => {
                write!(
                    f,
                    "batch length {got} differs from aggregation dimension {dim}"
                )
            }
            IngestError::CheckpointDimMismatch { got, dim } => {
                write!(
                    f,
                    "checkpoint dimension {got} differs from pipeline dimension {dim}"
                )
            }
            IngestError::WorkerLost => write!(f, "a shard worker thread terminated unexpectedly"),
        }
    }
}

impl Error for IngestError {}

/// What travels to a shard worker.
enum Envelope {
    /// A flushed [`BatchSubmitter`] accumulator: many whole reports packed
    /// as flat `u32` indices + per-report end offsets, or as bit rows.
    /// The worker drains it in one pass (a slice walk, or the bit-plane
    /// row fold) and recycles the buffer through the free-list.
    Reports(ReportBatch),
    /// A saved shard state folded back in by [`IngestPipeline::restore`].
    Restore(ShardState),
    /// Barrier: reply with the current state, keep accumulating.
    Flush(SyncSender<ShardState>),
    /// Barrier: reply with the current state, then reset for a new round.
    EndRound(SyncSender<ShardState>),
    /// Terminate the worker after draining everything enqueued before
    /// this message, even while cloned [`IngestHandle`] senders are still
    /// alive (a plain channel-closed exit would wait on them forever).
    Shutdown,
}

/// The pipeline's instrument handles (see `docs/OBS_FORMAT.md`). Shared
/// between the pipeline and every cloned [`IngestHandle`], so submissions
/// are accounted identically regardless of which side sends.
#[derive(Clone)]
struct PipelineObs {
    /// Per-shard reports routed (`index` = shard); a flushed report batch
    /// adds its whole report count, so the total is envelope-shape
    /// independent.
    routed: Vec<Counter>,
    /// Flushed [`BatchSubmitter`] envelopes.
    batches_flushed: Counter,
    /// Reports per flushed batch (count = batches, sum = reports).
    batch_fill: Histogram,
    send_blocked: Counter,
    send_blocked_ns: Histogram,
    env_reports: Counter,
    env_flush: Counter,
    env_end_round: Counter,
}

impl PipelineObs {
    fn new(obs: &MetricsRegistry, workers: usize) -> Self {
        const ENVELOPES: &str = "ldp.ingest.pipeline.envelopes";
        Self {
            routed: (0..workers)
                .map(|w| obs.counter_indexed("ldp.ingest.pipeline.reports_routed", w as u32))
                .collect(),
            batches_flushed: obs.counter("ldp.ingest.pipeline.batches_flushed"),
            batch_fill: obs.histogram("ldp.ingest.pipeline.batch_fill"),
            send_blocked: obs.counter("ldp.ingest.pipeline.send_blocked"),
            send_blocked_ns: obs.histogram("ldp.ingest.pipeline.send_blocked_ns"),
            env_reports: obs.counter_labeled(ENVELOPES, "report_batch"),
            env_flush: obs.counter_labeled(ENVELOPES, "flush"),
            env_end_round: obs.counter_labeled(ENVELOPES, "end_round"),
        }
    }
}

/// The single send funnel: accounts the envelope, then tries a
/// non-blocking send first so the send-block counter and the blocked-time
/// histogram capture exactly the submissions that hit backpressure. The
/// blocking fallback preserves per-sender FIFO order (same channel, same
/// thread), so the quiescence contract is unchanged.
fn send_tracked(
    obs: &PipelineObs,
    worker: usize,
    tx: &SyncSender<Envelope>,
    envelope: Envelope,
) -> Result<(), IngestError> {
    match &envelope {
        Envelope::Reports(batch) => {
            let reports = batch.report_count() as u64;
            obs.env_reports.inc();
            obs.batches_flushed.inc();
            obs.batch_fill.record(reports);
            obs.routed[worker].inc_by(reports);
        }
        Envelope::Flush(_) => obs.env_flush.inc(),
        Envelope::EndRound(_) => obs.env_end_round.inc(),
        Envelope::Restore(_) | Envelope::Shutdown => {}
    }
    match tx.try_send(envelope) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(envelope)) => {
            obs.send_blocked.inc();
            let _blocked = Span::enter(&obs.send_blocked_ns);
            tx.send(envelope).map_err(|_| IngestError::WorkerLost)
        }
        Err(TrySendError::Disconnected(_)) => Err(IngestError::WorkerLost),
    }
}

fn worker_loop(dim: usize, rx: Receiver<Envelope>, pool: BufferPool) {
    let mut shard = Shard::with_dim(dim);
    while let Ok(msg) = rx.recv() {
        match msg {
            Envelope::Reports(mut batch) => {
                match batch.row_words() {
                    Some(words) => shard.add_rows(batch.cells(), words),
                    None => shard.add_report_batch(batch.lists().0, batch.report_count() as u64),
                }
                batch.clear();
                pool.give(batch);
            }
            Envelope::Restore(state) => shard.add_batch(&state.counts, state.reports),
            Envelope::Flush(reply) => {
                let _ = reply.send(ShardState::of(&shard));
            }
            Envelope::EndRound(reply) => {
                let state = ShardState::of(&shard);
                shard.reset();
                let _ = reply.send(state);
            }
            Envelope::Shutdown => break,
        }
    }
}

/// A cloneable, thread-safe handle onto a pipeline's workers, from which
/// each submitting thread makes its own [`BatchSubmitter`].
///
/// Submitters route **by key only** (stable hashing): round-robin from
/// multiple threads would make shard contents depend on thread timing,
/// which the checkpoint layer forbids. Finish every submitter before
/// calling [`IngestPipeline::finish_round`] if the round must include
/// everything the submitting threads produced.
///
/// A handle may safely outlive its pipeline: dropping the pipeline shuts
/// the workers down regardless of live handles, and a later flush from
/// one of their submitters fails with [`IngestError::WorkerLost`].
#[derive(Clone)]
pub struct IngestHandle {
    txs: Vec<SyncSender<Envelope>>,
    router: Router,
    dim: usize,
    obs: PipelineObs,
    pool: BufferPool,
}

impl IngestHandle {
    /// Wraps this handle in batching mode: reports accumulate in one
    /// recycled per-shard [`ReportBatch`] and cross the channel as a
    /// single envelope every `batch_reports` reports (clamped to ≥ 1),
    /// amortizing allocation and channel traffic ~`1/batch_reports`.
    /// Routing is a stable hash of the key ([`Router::route_key`]), and
    /// the shard fold is an order-independent sum, so results are
    /// bit-identical to a single-threaded replay for every batch size.
    ///
    /// Buffered reports are invisible to pipeline barriers until flushed;
    /// call [`BatchSubmitter::finish`] (or rely on the drop flush) before
    /// a snapshot/checkpoint/`finish_round` that must include them.
    pub fn batching(&self, batch_reports: usize) -> BatchSubmitter {
        BatchSubmitter {
            acc: self.txs.iter().map(|_| None).collect(),
            handle: self.clone(),
            capacity: batch_reports.max(1),
        }
    }
}

/// A batching submitter over an [`IngestHandle`] (see
/// [`IngestHandle::batching`]). Not `Clone`: each submitter owns its
/// accumulators; clone the underlying handle for more submitter threads.
pub struct BatchSubmitter {
    handle: IngestHandle,
    capacity: usize,
    /// One lazily pool-acquired accumulator per shard.
    acc: Vec<Option<ReportBatch>>,
}

impl BatchSubmitter {
    /// Packs one report's support set into the target shard's
    /// accumulator, flushing that accumulator first if full or in the
    /// rows layout. Only a flush touches the channel, so this usually
    /// neither blocks nor allocates. Rejecting an out-of-range index
    /// leaves the accumulator exactly as it was (the partial report is
    /// rolled back).
    pub fn submit<I>(&mut self, key: u64, support: I) -> Result<(), IngestError>
    where
        I: IntoIterator<Item = usize>,
    {
        let worker = self.handle.router.route_key(key);
        let dim = self.handle.dim;
        let batch = self.accumulator(worker, None)?;
        let start = batch.index_count();
        for index in support {
            if index >= dim {
                batch.truncate_indices(start);
                return Err(IngestError::SupportOutOfRange { index, dim });
            }
            batch.push_index(index);
        }
        batch.seal_report();
        Ok(())
    }

    /// Packs one report given as a bit row (bit `i % 64` of `row[i / 64]`
    /// set ⇔ index `i` in the support) into the target shard's
    /// accumulator, flushing it first if full or in the lists layout.
    /// Every set bit is checked against the dimension before anything
    /// is copied; the first one out of range is rejected and the
    /// accumulator is left as it was. The row is stored `⌈dim/64⌉`
    /// words wide, whatever its own length.
    pub fn submit_row(&mut self, key: u64, row: &[u64]) -> Result<(), IngestError> {
        let dim = self.handle.dim;
        if let Some(index) = first_bit_at_or_above(row, dim) {
            return Err(IngestError::SupportOutOfRange { index, dim });
        }
        let worker = self.handle.router.route_key(key);
        let words = dim.div_ceil(64).max(1);
        self.accumulator(worker, Some(words))?
            .push_row_padded(row, words);
        Ok(())
    }

    /// The accumulator of `worker`, ready to take one report of the given
    /// shape (`Some(words)` for a row): flushed first when it is full or
    /// holds the other shape, taken from the free-list when absent.
    fn accumulator(
        &mut self,
        worker: usize,
        row_words: Option<usize>,
    ) -> Result<&mut ReportBatch, IngestError> {
        let flush = self.acc[worker].as_ref().is_some_and(|b| {
            b.report_count() >= self.capacity
                || !b.takes(row_words)
                || (row_words.is_none() && b.index_count() >= MAX_BATCH_INDICES)
        });
        if flush {
            self.flush_shard(worker)?;
        }
        Ok(self.acc[worker].get_or_insert_with(|| self.handle.pool.take()))
    }

    /// Sends every non-empty accumulator as a batch envelope, in shard
    /// order. After a flush the pipeline's barriers observe everything
    /// submitted so far.
    pub fn flush(&mut self) -> Result<(), IngestError> {
        for worker in 0..self.acc.len() {
            self.flush_shard(worker)?;
        }
        Ok(())
    }

    /// Flushes and consumes the submitter, surfacing any send failure the
    /// drop flush would swallow.
    pub fn finish(mut self) -> Result<(), IngestError> {
        self.flush()
    }

    fn flush_shard(&mut self, worker: usize) -> Result<(), IngestError> {
        let Some(batch) = self.acc[worker].take() else {
            return Ok(());
        };
        if batch.is_empty() {
            self.handle.pool.give(batch);
            return Ok(());
        }
        send_tracked(
            &self.handle.obs,
            worker,
            &self.handle.txs[worker],
            Envelope::Reports(batch),
        )
    }
}

impl Drop for BatchSubmitter {
    fn drop(&mut self) {
        // Best-effort: never lose buffered reports silently on the happy
        // path. A dead worker is unreportable here; `finish` exists for
        // callers that need the error.
        let _ = self.flush();
    }
}

/// The concurrent shard-parallel ingestion pipeline.
///
/// See the [module docs](self) for the threading model and the determinism
/// contract. Workers persist across rounds: [`IngestPipeline::finish_round`]
/// resets their shards without tearing the threads down.
pub struct IngestPipeline {
    agg: ShardedAggregator,
    router: Router,
    txs: Vec<SyncSender<Envelope>>,
    joins: Vec<JoinHandle<()>>,
    obs: PipelineObs,
    pool: BufferPool,
}

impl fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("workers", &self.txs.len())
            .field("dim", &self.agg.dim())
            .field("k", &self.agg.k())
            .finish()
    }
}

impl IngestPipeline {
    /// Creates a pipeline for `method` (same parameter resolution as
    /// [`ShardedAggregator::for_method_obs`]) with `workers` shard workers
    /// (clamped to ≥ 1) and the default channel capacity. The pipeline
    /// and its aggregator record telemetry into `obs`.
    pub fn for_method_obs(
        method: Method,
        k: u64,
        eps_inf: f64,
        eps_first: f64,
        workers: usize,
        obs: &MetricsRegistry,
    ) -> Result<Self, ParamError> {
        let agg = ShardedAggregator::for_method_obs(method, k, eps_inf, eps_first, workers, obs)?;
        Ok(Self::from_aggregator_obs(
            agg,
            DEFAULT_CHANNEL_CAPACITY,
            obs,
        ))
    }

    /// Creates a LOLOHA pipeline from explicit parameters, recording
    /// telemetry into `obs`.
    pub fn for_loloha_obs(
        k: u64,
        params: LolohaParams,
        workers: usize,
        obs: &MetricsRegistry,
    ) -> Result<Self, ParamError> {
        let agg = ShardedAggregator::for_loloha_obs(k, params, workers, obs)?;
        Ok(Self::from_aggregator_obs(
            agg,
            DEFAULT_CHANNEL_CAPACITY,
            obs,
        ))
    }

    /// Wraps an existing aggregator: one worker per aggregator shard, each
    /// envelope channel bounded at `capacity` (clamped to ≥ 1). The
    /// aggregator should be freshly reset; its shards hold merged round
    /// state between [`Self::finish_round`] calls. `obs` receives the
    /// *pipeline* instruments; the aggregator keeps the registry it was
    /// constructed with.
    pub fn from_aggregator_obs(
        mut agg: ShardedAggregator,
        capacity: usize,
        obs: &MetricsRegistry,
    ) -> Self {
        agg.begin_round();
        let workers = agg.shard_count();
        let dim = agg.dim();
        let capacity = capacity.max(1);
        let pool = BufferPool::new(obs);
        let mut txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel(capacity);
            txs.push(tx);
            let worker_pool = pool.clone();
            joins.push(std::thread::spawn(move || {
                worker_loop(dim, rx, worker_pool)
            }));
        }
        Self {
            agg,
            router: Router::new(workers),
            txs,
            joins,
            obs: PipelineObs::new(obs, workers),
            pool,
        }
    }

    /// The aggregation dimension (`k`, or `b` for bucketized dBitFlipPM).
    pub fn dim(&self) -> usize {
        self.agg.dim()
    }

    /// The input domain size the pipeline was built for.
    pub fn k(&self) -> u64 {
        self.agg.k()
    }

    /// Number of shard workers.
    pub fn worker_count(&self) -> usize {
        self.txs.len()
    }

    /// The underlying aggregator's method metadata (reduced domain,
    /// k-binnedness, LOLOHA params, dBitFlip config).
    pub fn aggregator(&self) -> &ShardedAggregator {
        &self.agg
    }

    /// A cloneable submission handle for concurrent producers.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            txs: self.txs.clone(),
            router: self.router.clone(),
            dim: self.agg.dim(),
            obs: self.obs.clone(),
            pool: self.pool.clone(),
        }
    }

    fn send(&self, worker: usize, envelope: Envelope) -> Result<(), IngestError> {
        send_tracked(&self.obs, worker, &self.txs[worker], envelope)
    }

    /// Collects one reply per worker after a barrier envelope.
    fn barrier<B>(&self, make: B) -> Result<Vec<ShardState>, IngestError>
    where
        B: Fn(SyncSender<ShardState>) -> Envelope,
    {
        let mut replies = Vec::with_capacity(self.txs.len());
        for worker in 0..self.txs.len() {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            self.send(worker, make(reply_tx))?;
            replies.push(reply_rx);
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| IngestError::WorkerLost))
            .collect()
    }

    /// Non-destructive streaming view: merges and estimates everything
    /// enqueued before the call, leaving worker state untouched.
    pub fn snapshot(&self) -> Result<AggregateSnapshot, IngestError> {
        let states = self.barrier(Envelope::Flush)?;
        let mut agg = self.agg.clone();
        agg.begin_round();
        for (i, s) in states.iter().enumerate() {
            agg.push_batch(i, &s.counts, s.reports);
        }
        Ok(agg.snapshot())
    }

    /// Captures the current per-shard states for durable persistence (see
    /// [`crate::ShardStore`]). Non-destructive; ingestion continues after.
    pub fn checkpoint(&self) -> Result<ShardCheckpoint, IngestError> {
        let states = self.barrier(Envelope::Flush)?;
        Ok(ShardCheckpoint {
            dim: self.agg.dim(),
            shards: states,
        })
    }

    /// Folds a previously captured checkpoint back in, resuming its round
    /// mid-fill. The checkpoint may come from a run with a *different*
    /// worker count: saved shard `j` is folded into worker
    /// `j % workers`, and the order-independent merge makes the final
    /// round bit-identical either way. A rejected checkpoint folds in
    /// nothing.
    pub fn restore(&mut self, cp: &ShardCheckpoint) -> Result<(), IngestError> {
        if cp.dim != self.agg.dim() {
            return Err(IngestError::CheckpointDimMismatch {
                got: cp.dim,
                dim: self.agg.dim(),
            });
        }
        if let Some(bad) = cp.shards.iter().find(|s| s.counts.len() != cp.dim) {
            return Err(IngestError::BatchLenMismatch {
                got: bad.counts.len(),
                dim: cp.dim,
            });
        }
        for (j, state) in cp.shards.iter().enumerate() {
            self.send(j % self.txs.len(), Envelope::Restore(state.clone()))?;
        }
        Ok(())
    }

    /// Closes the round: drains every worker, merges, estimates, and
    /// resets the workers' shards for the next round. The worker threads
    /// stay alive.
    pub fn finish_round(&mut self) -> Result<AggregateSnapshot, IngestError> {
        let states = self.barrier(Envelope::EndRound)?;
        self.agg.begin_round();
        for (i, s) in states.iter().enumerate() {
            self.agg.push_batch(i, &s.counts, s.reports);
        }
        Ok(self.agg.finish_round())
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        // An explicit shutdown envelope (not just closing our senders)
        // ends each worker loop even when cloned `IngestHandle`s are still
        // alive somewhere — otherwise this join would wait on them
        // forever. Failed sends mean the worker is already gone.
        for tx in &self.txs {
            let _ = tx.send(Envelope::Shutdown);
        }
        self.txs.clear();
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_BATCH_REPORTS;

    /// A telemetry registry that records nothing.
    fn off() -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    fn reference(dim_reports: &[(Vec<usize>, u64)], method: Method, k: u64) -> AggregateSnapshot {
        let mut agg = ShardedAggregator::for_method_obs(method, k, 2.0, 1.0, 1, &off()).unwrap();
        for (support, _) in dim_reports {
            agg.push_report(0, support.iter().copied());
        }
        agg.finish_round()
    }

    fn assert_snap_eq(a: &AggregateSnapshot, b: &AggregateSnapshot, ctx: &str) {
        assert_eq!(a.counts, b.counts, "{ctx}: counts");
        assert_eq!(a.reports, b.reports, "{ctx}: reports");
        assert_eq!(a.estimate.len(), b.estimate.len(), "{ctx}: estimate len");
        for (i, (x, y)) in a.estimate.iter().zip(&b.estimate).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: estimate[{i}]");
        }
    }

    #[test]
    fn pipeline_matches_single_thread_for_every_worker_count() {
        let reports: Vec<(Vec<usize>, u64)> = (0..60u64)
            .map(|i| (vec![(i % 8) as usize, ((i * 3) % 8) as usize], i))
            .collect();
        let want = reference(&reports, Method::LGrr, 8);
        for workers in [1usize, 2, 4, 8] {
            let mut pipe =
                IngestPipeline::for_method_obs(Method::LGrr, 8, 2.0, 1.0, workers, &off()).unwrap();
            let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
            for (support, key) in &reports {
                sub.submit(*key, support.iter().copied()).unwrap();
            }
            sub.finish().unwrap();
            let got = pipe.finish_round().unwrap();
            assert_snap_eq(&want, &got, &format!("{workers} workers"));
        }
    }

    #[test]
    fn workers_persist_across_rounds() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::Rappor, 6, 2.0, 1.0, 3, &off()).unwrap();
        for round in 0..3u64 {
            let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
            for i in 0..20u64 {
                sub.submit(i, [((i + round) % 6) as usize]).unwrap();
            }
            sub.finish().unwrap();
            let snap = pipe.finish_round().unwrap();
            assert_eq!(snap.reports, 20, "round {round}");
        }
    }

    #[test]
    fn snapshot_is_non_destructive_and_ordered() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LGrr, 5, 2.0, 1.0, 2, &off()).unwrap();
        let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
        sub.submit(1, [2usize]).unwrap();
        sub.submit(2, [4usize]).unwrap();
        sub.flush().unwrap();
        let snap = pipe.snapshot().unwrap();
        assert_eq!(snap.reports, 2);
        assert_eq!(snap.counts[2], 1);
        assert_eq!(snap.counts[4], 1);
        sub.submit(3, [2usize]).unwrap();
        sub.finish().unwrap();
        let fin = pipe.finish_round().unwrap();
        assert_eq!(fin.reports, 3);
        assert_eq!(fin.counts[2], 2);
    }

    #[test]
    fn handle_submission_from_many_threads_matches_single_thread() {
        let reports: Vec<Vec<usize>> = (0..200u64)
            .map(|i| vec![(i % 10) as usize, ((i * 7) % 10) as usize])
            .collect();
        let as_pairs: Vec<(Vec<usize>, u64)> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| (r.clone(), i as u64))
            .collect();
        let want = reference(&as_pairs, Method::Rappor, 10);
        let mut pipe =
            IngestPipeline::for_method_obs(Method::Rappor, 10, 2.0, 1.0, 4, &off()).unwrap();
        let handle = pipe.handle();
        std::thread::scope(|s| {
            for (t, chunk) in reports.chunks(50).enumerate() {
                let h = handle.clone();
                s.spawn(move || {
                    let mut sub = h.batching(16);
                    for (j, support) in chunk.iter().enumerate() {
                        let key = (t * 50 + j) as u64;
                        sub.submit(key, support.iter().copied()).unwrap();
                    }
                    sub.finish().unwrap();
                });
            }
        });
        drop(handle);
        let got = pipe.finish_round().unwrap();
        assert_snap_eq(&want, &got, "4 submitter threads");
    }

    #[test]
    fn backpressure_capacity_one_still_completes() {
        let agg = ShardedAggregator::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 2, &off()).unwrap();
        let mut pipe = IngestPipeline::from_aggregator_obs(agg, 1, &off());
        let mut sub = pipe.handle().batching(1);
        for i in 0..500u64 {
            sub.submit(i, [(i % 4) as usize]).unwrap();
        }
        sub.finish().unwrap();
        let snap = pipe.finish_round().unwrap();
        assert_eq!(snap.reports, 500);
    }

    #[test]
    fn batch_length_mismatch_is_rejected() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 2, &off()).unwrap();
        let cp = ShardCheckpoint {
            dim: 4,
            shards: vec![
                ShardState {
                    counts: vec![1, 1, 0, 0],
                    reports: 2,
                },
                ShardState {
                    counts: vec![0; 3],
                    reports: 1,
                },
            ],
        };
        let err = pipe.restore(&cp).unwrap_err();
        assert!(matches!(
            err,
            IngestError::BatchLenMismatch { got: 3, dim: 4 }
        ));
        // The valid shard ahead of the short one was not folded in.
        assert_eq!(pipe.finish_round().unwrap().reports, 0);
    }

    #[test]
    fn restore_places_saved_shard_j_on_worker_j_mod_workers() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LGrr, 3, 2.0, 1.0, 2, &off()).unwrap();
        let saved = |i: usize, reports: u64| ShardState {
            counts: (0..3).map(|v| u64::from(v == i) * reports).collect(),
            reports,
        };
        let cp = ShardCheckpoint {
            dim: 3,
            shards: vec![saved(0, 1), saved(1, 2), saved(2, 4)],
        };
        pipe.restore(&cp).unwrap();
        let placed = pipe.checkpoint().unwrap().shards;
        assert_eq!(
            placed,
            vec![
                ShardState {
                    counts: vec![1, 0, 4],
                    reports: 5,
                },
                saved(1, 2),
            ]
        );
    }

    #[test]
    fn restore_rejects_dim_mismatch() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 2, &off()).unwrap();
        let cp = ShardCheckpoint {
            dim: 9,
            shards: vec![],
        };
        assert!(matches!(
            pipe.restore(&cp).unwrap_err(),
            IngestError::CheckpointDimMismatch { got: 9, dim: 4 }
        ));
    }

    #[test]
    fn checkpoint_restore_resumes_mid_round() {
        let mut uninterrupted =
            IngestPipeline::for_method_obs(Method::BiLoloha, 12, 2.0, 1.0, 3, &off()).unwrap();
        let first =
            IngestPipeline::for_method_obs(Method::BiLoloha, 12, 2.0, 1.0, 3, &off()).unwrap();
        let mut whole = uninterrupted.handle().batching(DEFAULT_BATCH_REPORTS);
        let mut sub = first.handle().batching(DEFAULT_BATCH_REPORTS);
        for i in 0..40u64 {
            whole.submit(i, [(i % 12) as usize]).unwrap();
            sub.submit(i, [(i % 12) as usize]).unwrap();
        }
        // "Crash" after 40 flushed reports; resume on a pipeline with a
        // different worker count.
        sub.finish().unwrap();
        let cp = first.checkpoint().unwrap();
        drop(first);
        let mut resumed =
            IngestPipeline::for_method_obs(Method::BiLoloha, 12, 2.0, 1.0, 5, &off()).unwrap();
        resumed.restore(&cp).unwrap();
        let mut sub = resumed.handle().batching(DEFAULT_BATCH_REPORTS);
        for i in 40..90u64 {
            whole.submit(i, [(i % 12) as usize]).unwrap();
            sub.submit(i, [(i % 12) as usize]).unwrap();
        }
        whole.finish().unwrap();
        sub.finish().unwrap();
        let want = uninterrupted.finish_round().unwrap();
        let got = resumed.finish_round().unwrap();
        assert_snap_eq(&want, &got, "checkpoint resume");
    }

    #[test]
    fn dropping_the_pipeline_with_a_live_handle_does_not_hang() {
        let pipe = IngestPipeline::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 2, &off()).unwrap();
        let mut sub = pipe.handle().batching(1);
        sub.submit(0, [1usize]).unwrap();
        sub.flush().unwrap();
        drop(pipe); // must join the workers despite the live handle
        sub.submit(1, [2usize]).unwrap(); // buffered submitter-side
        let err = sub.finish().unwrap_err();
        assert!(matches!(err, IngestError::WorkerLost));
    }

    #[test]
    fn worker_count_clamps_to_one() {
        let pipe = IngestPipeline::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 0, &off()).unwrap();
        assert_eq!(pipe.worker_count(), 1);
    }

    #[test]
    fn telemetry_accounts_every_submission_and_stays_unblocked_when_unconstrained() {
        let reg = MetricsRegistry::new();
        let agg = ShardedAggregator::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 2, &reg).unwrap();
        let mut pipe = IngestPipeline::from_aggregator_obs(agg, DEFAULT_CHANNEL_CAPACITY, &reg);
        // Batches of one: every report crosses the channel in its own
        // report-batch envelope.
        let mut sub = pipe.handle().batching(1);
        for i in 0..100u64 {
            sub.submit(i, [(i % 4) as usize]).unwrap();
        }
        sub.finish().unwrap();
        pipe.restore(&ShardCheckpoint {
            dim: 4,
            shards: vec![ShardState {
                counts: vec![1, 0, 0, 0],
                reports: 5,
            }],
        })
        .unwrap();
        assert_eq!(pipe.finish_round().unwrap().reports, 105);

        let snap = reg.snapshot();
        // Routed counts sum exactly to the submitted reports.
        assert_eq!(
            snap.counter_total("ldp.ingest.pipeline.reports_routed"),
            100
        );
        // Envelope counts by kind: 100 report batches and 2 end_round
        // barriers (one per worker); the restore envelope is not counted.
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.envelopes"), 102);
        // A ~1k-deep channel never fills at this scale: the backpressure
        // signal must stay exactly zero in the unconstrained case.
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.send_blocked"), 0);
        assert_eq!(snap.hist_count("ldp.ingest.pipeline.send_blocked_ns"), 0);
    }

    #[test]
    fn batched_submission_matches_per_report_for_every_batch_size() {
        let reports: Vec<(Vec<usize>, u64)> = (0..60u64)
            .map(|i| (vec![(i % 8) as usize, ((i * 3) % 8) as usize], i))
            .collect();
        let want = reference(&reports, Method::LGrr, 8);
        // Batch sizes spanning degenerate (1), non-divisor (7), and
        // larger-than-round (full buffering until the finish flush).
        for batch in [1usize, 7, 64, 4096] {
            for workers in [1usize, 3] {
                let mut pipe =
                    IngestPipeline::for_method_obs(Method::LGrr, 8, 2.0, 1.0, workers, &off())
                        .unwrap();
                let mut sub = pipe.handle().batching(batch);
                for (support, key) in &reports {
                    sub.submit(*key, support.iter().copied()).unwrap();
                }
                sub.finish().unwrap();
                let got = pipe.finish_round().unwrap();
                assert_snap_eq(&want, &got, &format!("batch {batch}, {workers} workers"));
            }
        }
    }

    #[test]
    fn unflushed_batches_drain_on_drop() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 2, &off()).unwrap();
        let mut sub = pipe.handle().batching(1024);
        for i in 0..10u64 {
            sub.submit(i, [(i % 4) as usize]).unwrap();
        }
        drop(sub); // never filled, never explicitly flushed
        assert_eq!(pipe.finish_round().unwrap().reports, 10);
    }

    #[test]
    fn batched_out_of_range_support_rolls_back_the_partial_report() {
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 1, &off()).unwrap();
        let mut sub = pipe.handle().batching(16);
        sub.submit(0, [1usize]).unwrap();
        let err = sub.submit(0, [2usize, 9]).unwrap_err();
        assert!(matches!(
            err,
            IngestError::SupportOutOfRange { index: 9, dim: 4 }
        ));
        // The rejected report left no trace; the submitter still works.
        sub.submit(0, [3usize]).unwrap();
        sub.finish().unwrap();
        let snap = pipe.finish_round().unwrap();
        assert_eq!(snap.reports, 2);
        assert_eq!(snap.counts, vec![0, 1, 0, 1]);
    }

    #[test]
    fn row_submission_matches_lists_and_rejects_bits_past_dim() {
        // dim 70: two-word rows whose last word is partial.
        let dim = 70usize;
        let supports: Vec<Vec<usize>> = (0..300usize)
            .map(|r| (0..dim).filter(|i| (i * 7 + r * 3) % 5 < 2).collect())
            .collect();
        let row = |s: &[usize]| {
            let mut row = vec![0u64; 2];
            s.iter().for_each(|&i| row[i / 64] |= 1 << (i % 64));
            row
        };
        let each: Vec<(Vec<usize>, u64)> = supports.iter().map(|s| (s.clone(), 1)).collect();
        let reference = reference(&each, Method::LOsue, dim as u64);
        for (batch_reports, workers) in [(1usize, 1usize), (7, 2), (256, 3)] {
            let mut pipe = IngestPipeline::for_method_obs(
                Method::LOsue,
                dim as u64,
                2.0,
                1.0,
                workers,
                &off(),
            )
            .unwrap();
            let mut sub = pipe.handle().batching(batch_reports);
            for (key, s) in supports.iter().enumerate() {
                // Alternate shapes, so accumulators switch layout.
                match key % 3 {
                    0 => sub.submit(key as u64, s.iter().copied()).unwrap(),
                    1 => sub.submit_row(key as u64, &row(s)).unwrap(),
                    _ => sub
                        .submit_row(
                            key as u64,
                            &row(s)[..1 + s.iter().any(|&i| i >= 64) as usize],
                        )
                        .unwrap(),
                }
            }
            sub.finish().unwrap();
            assert_snap_eq(&reference, &pipe.finish_round().unwrap(), "rows");
        }

        let mut pipe =
            IngestPipeline::for_method_obs(Method::LOsue, dim as u64, 2.0, 1.0, 1, &off()).unwrap();
        let mut sub = pipe.handle().batching(16);
        sub.submit_row(0, &[1, 0]).unwrap();
        for (bad, index) in [(vec![1u64, 1 << 6], 70usize), (vec![0, 0, 1 << 2], 130)] {
            assert!(matches!(
                sub.submit_row(1, &bad).unwrap_err(),
                IngestError::SupportOutOfRange { index: i, dim: 70 } if i == index
            ));
        }
        sub.submit_row(2, &[0, 1 << 5, 0]).unwrap();
        sub.finish().unwrap();
        let snap = pipe.finish_round().unwrap();
        assert_eq!(snap.reports, 2);
        assert_eq!(snap.counts.iter().sum::<u64>(), 2);
        assert_eq!((snap.counts[0], snap.counts[69]), (1, 1));
    }

    #[test]
    fn batched_telemetry_accounts_reports_batches_and_recycling() {
        let reg = MetricsRegistry::new();
        let agg = ShardedAggregator::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 1, &reg).unwrap();
        let mut pipe = IngestPipeline::from_aggregator_obs(agg, DEFAULT_CHANNEL_CAPACITY, &reg);
        let mut sub = pipe.handle().batching(10);
        for i in 0..25u64 {
            sub.submit(i, [(i % 4) as usize]).unwrap();
        }
        sub.finish().unwrap();
        assert_eq!(pipe.finish_round().unwrap().reports, 25);

        let snap = reg.snapshot();
        // Every report is visible in the routed counters regardless of
        // envelope shape: 25 reports over 3 flushes (10 + 10 + 5).
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.reports_routed"), 25);
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.batches_flushed"), 3);
        assert_eq!(snap.hist_count("ldp.ingest.pipeline.batch_fill"), 3);
        assert_eq!(snap.hist_sum("ldp.ingest.pipeline.batch_fill"), 25);
        // 3 report_batch envelopes + 1 end_round barrier.
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.envelopes"), 4);
        // One shard: first take is a miss, the two refills hit the
        // free-list once the worker recycles a drained buffer.
        assert!(snap.counter_total("ldp.ingest.pipeline.bufpool") >= 3);
    }

    #[test]
    fn mid_batch_checkpoint_loses_and_duplicates_nothing() {
        // 40 reports at batch 16: flushes land at 16 and 32, leaving 8
        // buffered submitter-side. A checkpoint taken there must see
        // exactly the flushed prefix; resuming from it and resubmitting
        // the unacknowledged suffix reproduces the uninterrupted round —
        // no buffered report lost, none double-counted.
        let mut uninterrupted =
            IngestPipeline::for_method_obs(Method::BiLoloha, 12, 2.0, 1.0, 3, &off()).unwrap();
        let mut sub = uninterrupted.handle().batching(DEFAULT_BATCH_REPORTS);
        for i in 0..90u64 {
            sub.submit(i, [(i % 12) as usize]).unwrap();
        }
        sub.finish().unwrap();
        let want = uninterrupted.finish_round().unwrap();

        // One worker on the crashing side: every report routes to the
        // same accumulator, so the flushed prefix is exactly 32 (flushes
        // at submits 17 and 33, leaving reports 32..40 buffered).
        let first =
            IngestPipeline::for_method_obs(Method::BiLoloha, 12, 2.0, 1.0, 1, &off()).unwrap();
        let mut sub = first.handle().batching(16);
        for i in 0..40u64 {
            sub.submit(i, [(i % 12) as usize]).unwrap();
        }
        let cp = first.checkpoint().unwrap();
        let acknowledged: u64 = cp.shards.iter().map(|s| s.reports).sum();
        assert_eq!(acknowledged, 32, "checkpoint sees only flushed batches");
        drop(sub); // the 8 buffered reports die with the "crash"
        drop(first);

        let mut resumed =
            IngestPipeline::for_method_obs(Method::BiLoloha, 12, 2.0, 1.0, 5, &off()).unwrap();
        resumed.restore(&cp).unwrap();
        let mut sub = resumed.handle().batching(16);
        // The client resubmits everything past the acknowledged prefix.
        for i in acknowledged..90u64 {
            sub.submit(i, [(i % 12) as usize]).unwrap();
        }
        sub.finish().unwrap();
        let got = resumed.finish_round().unwrap();
        assert_snap_eq(&want, &got, "mid-batch checkpoint resume");
    }

    /// Parks the only worker of `pipe`: it takes a flush barrier whose
    /// reply channel has no buffer, so it blocks answering until the
    /// returned releaser thread receives the reply 40 ms from now.
    fn park_worker(pipe: &IngestPipeline) -> JoinHandle<()> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(0);
        pipe.send(0, Envelope::Flush(reply_tx)).unwrap();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            let _ = reply_rx.recv();
        })
    }

    #[test]
    fn batched_submission_trips_the_backpressure_instruments() {
        // One parked worker behind a capacity-1 channel, so the second
        // flushed batch deterministically finds the queue full.
        let reg = MetricsRegistry::new();
        let agg = ShardedAggregator::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 1, &reg).unwrap();
        let mut pipe = IngestPipeline::from_aggregator_obs(agg, 1, &reg);
        let releaser = park_worker(&pipe);
        let mut sub = pipe.handle().batching(1);
        sub.submit(1, [0usize]).unwrap();
        sub.submit(2, [1usize]).unwrap();
        sub.submit(3, [2usize]).unwrap();
        sub.finish().unwrap();
        releaser.join().unwrap();
        assert_eq!(pipe.finish_round().unwrap().reports, 3);

        let snap = reg.snapshot();
        let blocked = snap.counter_total("ldp.ingest.pipeline.send_blocked");
        assert!(blocked >= 1, "blocked {blocked} sends, expected at least 1");
        assert_eq!(
            snap.hist_count("ldp.ingest.pipeline.send_blocked_ns"),
            blocked
        );
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.reports_routed"), 3);
    }

    #[test]
    fn tiny_channel_bound_trips_the_backpressure_instruments() {
        // One worker, capacity-1 channel, fed one report batch per flush.
        // The worker is parked answering a barrier; with it parked, at
        // most one more envelope fits in the channel, so by the second
        // flush `try_send` deterministically observes a full queue.
        let reg = MetricsRegistry::new();
        let agg = ShardedAggregator::for_method_obs(Method::LGrr, 4, 2.0, 1.0, 1, &reg).unwrap();
        let mut pipe = IngestPipeline::from_aggregator_obs(agg, 1, &reg);
        let releaser = park_worker(&pipe);
        let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
        sub.submit(1, [0usize]).unwrap();
        sub.flush().unwrap();
        sub.submit(2, [1usize]).unwrap();
        sub.finish().unwrap();
        releaser.join().unwrap();
        assert_eq!(pipe.finish_round().unwrap().reports, 2);

        let snap = reg.snapshot();
        let blocked = snap.counter_total("ldp.ingest.pipeline.send_blocked");
        assert!(blocked >= 1, "blocked {blocked} sends, expected at least 1");
        assert_eq!(
            snap.hist_count("ldp.ingest.pipeline.send_blocked_ns"),
            blocked
        );
        assert!(snap.hist_sum("ldp.ingest.pipeline.send_blocked_ns") > 0);
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.batches_flushed"), 2);
    }
}
