//! The owner of all per-user memoized client state.
//!
//! A [`ClientPool`] holds the population's [`ClientState`]s in a dense
//! user-index-ordered layout, each paired with an independent RNG stream
//! derived from `(seed, user)` through SplitMix64 diffusion
//! ([`ldp_rand::derive_rng2`]). Because every user owns their stream and
//! the downstream shard merge is an order-independent sum, sanitization
//! partitions users across any number of worker threads and the collected
//! round is **bit-identical to a single-threaded pass** — the property
//! suites pin this for every method × worker counts {1, 2, 4, 8}.
//!
//! The pool is also the unit of durability: [`ClientPool::checkpoint`]
//! captures every user's memoized state *and* RNG position, and
//! [`ClientPool::restore`] folds a checkpoint back into a pool built with
//! the same configuration and seed (anything else is rejected as foreign),
//! so a collector can resume mid-round with both halves — shard state via
//! `ldp_ingest::ShardStore`, client state via [`crate::ClientStore`] —
//! and produce output byte-identical to an uninterrupted run.
//!
//! The pool also tracks which users changed since the last durable save
//! ([`ClientPool::dirty`] / [`ClientPool::mark_clean`]): a chunked
//! [`crate::ClientStore`] uses those flags to rewrite only the segments
//! whose users actually reported, so per-round checkpoint cost scales
//! with the *changed* population, not the whole pool.

use crate::config::ClientConfig;
use crate::state::{ClientState, HashedReport, ReportBuf};
use crate::store::{ClientCheckpoint, ClientRecord, ClientStoreError};
use ldp_ingest::{BatchSubmitter, IngestError, IngestHandle, DEFAULT_BATCH_REPORTS};
use ldp_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span};
use ldp_primitives::error::ParamError;
use ldp_primitives::for_each_set_bit;
use ldp_rand::{derive_rng2, LdpRng, Xoshiro256pp};
use ldp_runtime::Shard;
use std::convert::Infallible;

/// The stream tag under which per-user RNGs derive from the master seed.
/// Pinned: changing it would re-randomize every reproduction seed.
pub const USER_STREAM_TAG: u64 = 0x00C1_1E47;

struct UserSlot {
    state: Box<dyn ClientState>,
    rng: LdpRng,
}

/// A destination for sanitized reports: the seam that lets one sanitize
/// pass feed either the in-process ingest transport or a remote
/// collector over the wire (`ldp_netd`'s loadgen sinks) without the
/// pool knowing the difference. Implementations receive validated
/// support sets keyed by absolute user index — routing-compatible with
/// [`ldp_ingest::BatchSubmitter::submit`] — and flush any buffering in
/// [`ReportSink::finish`] before the round closes.
///
/// A support arrives in one of two shapes: an index list
/// ([`ReportSink::submit`]: GRR, dBitFlipPM) or a bit row
/// ([`ReportSink::submit_row`]: UE vectors, LOLOHA preimage rows). A
/// LOLOHA row comes through [`ReportSink::submit_hashed`] with the hash
/// and cell it expands; by default that forwards the row.
pub trait ReportSink {
    /// Why a submission (or flush) failed.
    type Error: Send;

    /// Accepts one sanitized report's support set for `user`.
    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), Self::Error>;

    /// Accepts one sanitized report for `user` as a bit row: bit `i % 64`
    /// of `row[i / 64]` is set for each index `i` in the support.
    ///
    /// The default expands the row into its ascending index list and
    /// calls [`ReportSink::submit`] — the one place a dense support turns
    /// into indices. Sinks that can carry the row itself override it.
    fn submit_row(&mut self, user: u64, row: &[u64]) -> Result<(), Self::Error> {
        let mut support = Vec::new();
        for_each_set_bit(row, |i| support.push(i));
        self.submit(user, &support)
    }

    /// Accepts one LOLOHA report for `user` as its hash and cell, with
    /// `row` the cell's preimage row over `[0, k)` (the support
    /// [`ReportSink::submit_row`] would receive).
    ///
    /// The default forwards the row to [`ReportSink::submit_row`]. A
    /// sink whose collector expands hashes itself (`ldp_netd`'s
    /// `NetSink`) overrides it and sends the hash and the cell, with the
    /// row only for a [`HashedReport::fresh`] report.
    fn submit_hashed(
        &mut self,
        user: u64,
        _report: HashedReport,
        row: &[u64],
    ) -> Result<(), Self::Error> {
        self.submit_row(user, row)
    }

    /// Flushes anything buffered; called once per sink after its share
    /// of the round is submitted.
    fn finish(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The in-process reference sink: the batched ingest transport itself.
/// `finish` flushes without consuming (the pool calls it through a
/// mutable borrow); callers still own the submitter afterwards.
impl ReportSink for BatchSubmitter {
    type Error = IngestError;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), IngestError> {
        BatchSubmitter::submit(self, user, support.iter().copied())
    }

    fn submit_row(&mut self, user: u64, row: &[u64]) -> Result<(), IngestError> {
        BatchSubmitter::submit_row(self, user, row)
    }

    fn finish(&mut self) -> Result<(), IngestError> {
        self.flush()
    }
}

/// Most rows a [`ShardSink`] buffers before folding them: one full
/// spill of [`Shard::add_rows`]'s bit planes.
const SHARD_SINK_ROWS: usize = 255;

/// The untransported sink behind
/// [`ClientPool::sanitize_round_into_shards`]: buffers up to
/// [`SHARD_SINK_ROWS`] rows and folds them into its shard with one
/// [`Shard::add_rows`] call, and on [`ReportSink::finish`]. A list folds
/// into the shard at once.
struct ShardSink<'a> {
    shard: &'a mut Shard,
    rows: Vec<u64>,
    words: usize,
}

impl ShardSink<'_> {
    /// Folds the buffered rows into the shard.
    fn fold_rows(&mut self) {
        if !self.rows.is_empty() {
            self.shard.add_rows(&self.rows, self.words);
            self.rows.clear();
        }
    }
}

impl ReportSink for ShardSink<'_> {
    type Error = Infallible;

    fn submit(&mut self, _user: u64, support: &[usize]) -> Result<(), Infallible> {
        self.shard.add_report(support.iter().copied());
        Ok(())
    }

    fn submit_row(&mut self, user: u64, row: &[u64]) -> Result<(), Infallible> {
        if row.is_empty() {
            return self.submit(user, &[]);
        }
        if row.len() != self.words {
            self.fold_rows();
            self.words = row.len();
        }
        self.rows.extend_from_slice(row);
        if self.rows.len() == SHARD_SINK_ROWS * self.words {
            self.fold_rows();
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), Infallible> {
        self.fold_rows();
        Ok(())
    }
}

/// Pool-side telemetry handles (`ldp.client.pool.*`). Only operational
/// quantities flow through these — sanitize-pass durations, report
/// *counts*, dirty-flag counts — never report payloads or memoized
/// protocol state (`ldp_lint` rule P004 enforces the latter).
struct PoolObs {
    sanitize_ns: Histogram,
    reports: Counter,
    dirty_users: Gauge,
}

impl PoolObs {
    fn new(obs: &MetricsRegistry, cfg: &ClientConfig) -> Self {
        Self {
            sanitize_ns: obs.histogram_labeled("ldp.client.pool.sanitize_ns", cfg.method_label()),
            reports: obs.counter("ldp.client.pool.reports"),
            dirty_users: obs.gauge("ldp.client.pool.dirty_users"),
        }
    }
}

/// All per-user client state for one collection population.
pub struct ClientPool {
    cfg: ClientConfig,
    seed: u64,
    users: Vec<UserSlot>,
    /// `dirty[u]` is set when user `u`'s state or RNG position changed
    /// since the last [`ClientPool::mark_clean`] — the incremental
    /// checkpoint layer ([`crate::ClientStore::save_pool`]) uses it to
    /// rewrite only the segments that actually changed.
    dirty: Vec<bool>,
    /// Number of `true` flags in `dirty`, kept in step with every flag
    /// change so no report pays an O(n) recount.
    dirty_count: usize,
    obs: PoolObs,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("users", &self.users.len())
            .field("cfg", &self.cfg)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ClientPool {
    /// Builds `n` users in index order, each constructed from the registry
    /// with its own `(seed, user)`-derived RNG stream. Telemetry records
    /// into `obs` (pass [`MetricsRegistry::disabled`] to make every
    /// instrument a no-op).
    pub fn with_obs(
        cfg: ClientConfig,
        seed: u64,
        n: usize,
        obs: &MetricsRegistry,
    ) -> Result<Self, ParamError> {
        let mut users = Vec::with_capacity(n);
        for u in 0..n {
            let mut rng = derive_rng2(seed, USER_STREAM_TAG, u as u64);
            let state = cfg.build_state(&mut rng)?;
            users.push(UserSlot { state, rng });
        }
        let dirty = vec![true; n];
        let obs = PoolObs::new(obs, &cfg);
        Ok(Self {
            cfg,
            seed,
            users,
            dirty,
            dirty_count: n,
            obs,
        })
    }

    /// Flags user `u` dirty, counting a clean → dirty transition.
    fn mark_dirty(&mut self, u: usize) {
        if !std::mem::replace(&mut self.dirty[u], true) {
            self.dirty_count += 1;
        }
    }

    /// Flags every user dirty (a full round touches them all).
    fn mark_all_dirty(&mut self) {
        self.dirty.fill(true);
        self.dirty_count = self.dirty.len();
        self.publish_dirty();
    }

    /// Pushes the dirty count to the `ldp.client.pool.dirty_users` gauge.
    fn publish_dirty(&self) {
        self.obs.dirty_users.set(self.dirty_count as u64);
    }

    /// Number of users in the pool.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the pool holds no users.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The resolved configuration the pool was built from.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// The master seed the per-user streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterates the users' states in index order (for privacy accounting
    /// and detection summaries).
    pub fn states(&self) -> impl Iterator<Item = &dyn ClientState> {
        self.users.iter().map(|u| u.state.as_ref())
    }

    /// Sanitizes one user's value into `buf` (tests, per-report benches).
    /// Adds no `sanitize_ns` sample: that histogram holds one per pass.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn sanitize_one(&mut self, user: usize, value: u64, buf: &mut ReportBuf) {
        let slot = &mut self.users[user];
        slot.state.report_into(value, &mut slot.rng, buf);
        self.mark_dirty(user);
        self.obs.reports.inc();
        self.publish_dirty();
    }

    /// Sanitizes a full round — `values[u]` is user `u`'s value — across
    /// `workers` threads, submitting to the ingest pipeline keyed by user
    /// index through the batched transport
    /// ([`ldp_ingest::DEFAULT_BATCH_REPORTS`] reports per envelope).
    /// Bit-identical to a single-threaded pass for any worker count.
    /// Every worker finishes its [`ldp_ingest::BatchSubmitter`] before
    /// joining, so the pipeline's next barrier observes the whole round.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the population size.
    pub fn sanitize_round(
        &mut self,
        values: &[u64],
        workers: usize,
        handle: &IngestHandle,
    ) -> Result<(), IngestError> {
        self.drive(Round::Dense(values), &mut batching_sinks(handle, workers))
    }

    /// Sanitizes a full round into caller-provided [`ReportSink`]s, one
    /// sink per worker thread: users split into `sinks.len()` contiguous
    /// chunks exactly as [`Self::sanitize_round`] splits them over
    /// workers, chunk `i` reporting through `sinks[i]`. With in-process
    /// batching sinks this *is* the batched path; with `ldp_netd`'s
    /// network sinks the same pass drives a remote collector — per-user
    /// sanitization, routing keys, and RNG consumption are identical
    /// either way, which is what makes the network path's output
    /// byte-identical to the local one.
    ///
    /// Each sink with a chunk is finished exactly once, after its last
    /// report. Trailing sinks beyond the number of chunks (more sinks
    /// than users) receive no reports and are not finished. A failed
    /// submit ends its own chunk unfinished; the other chunks still run
    /// and finish, and the round returns the first error in chunk order.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the population size or
    /// `sinks` is empty.
    pub fn sanitize_round_sinks<S>(
        &mut self,
        values: &[u64],
        sinks: &mut [S],
    ) -> Result<(), S::Error>
    where
        S: ReportSink + Send,
    {
        self.drive(Round::Dense(values), sinks)
    }

    /// Sanitizes a full round directly into aggregator shards: users are
    /// split into `shards.len()` contiguous chunks, chunk `i` filling
    /// `shards[i]` on its own thread (the non-pipelined engine path).
    /// Rows fold up to 255 at a time through [`Shard::add_rows`], lists
    /// one report at a time. Bit-identical to
    /// [`ClientPool::sanitize_round`] — the shard merge is
    /// order-independent.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the population size or
    /// `shards` is empty.
    pub fn sanitize_round_into_shards(&mut self, values: &[u64], shards: &mut [Shard]) {
        let mut sinks: Vec<ShardSink<'_>> = shards
            .iter_mut()
            .map(|shard| ShardSink {
                shard,
                rows: Vec::new(),
                words: 0,
            })
            .collect();
        let Ok(()) = self.drive(Round::Dense(values), &mut sinks);
    }

    /// Sanitizes a sparse round — `(user, value)` assignments for the
    /// users reporting this round — across `workers` threads, submitting
    /// to the pipeline keyed by user index through the batched transport
    /// ([`ldp_ingest::DEFAULT_BATCH_REPORTS`] reports per envelope). Each
    /// worker owns a contiguous user-index range and handles the
    /// assignments falling in it, in their original order, so the result
    /// is bit-identical for any worker count. Only the assigned users
    /// are flagged dirty.
    ///
    /// # Panics
    /// Panics if an assignment names an out-of-range user. A user assigned
    /// twice in one call sanitizes twice (the protocols allow it, but the
    /// CLI rejects duplicate user/round pairs upstream).
    pub fn sanitize_assignments(
        &mut self,
        assignments: &[(usize, u64)],
        workers: usize,
        handle: &IngestHandle,
    ) -> Result<(), IngestError> {
        self.drive(
            Round::Sparse(assignments),
            &mut batching_sinks(handle, workers),
        )
    }

    /// The one sanitize loop behind every round method. Users split into
    /// `sinks.len()` contiguous chunks; chunk `i` sanitizes its share of
    /// `round` on its own scoped thread into `sinks[i]` (see
    /// [`Self::sanitize_round_sinks`] for the sink contract).
    fn drive<S>(&mut self, round: Round<'_>, sinks: &mut [S]) -> Result<(), S::Error>
    where
        S: ReportSink + Send,
    {
        let n = self.users.len();
        assert!(!sinks.is_empty(), "at least one sink");
        let _timed = Span::enter(&self.obs.sanitize_ns);
        let chunk_len = n.div_ceil(sinks.len()).max(1);
        let shares: Vec<Share<'_>> = match round {
            Round::Dense(values) => {
                assert_eq!(values.len(), n, "one value per user");
                self.obs.reports.inc_by(n as u64);
                self.mark_all_dirty();
                values.chunks(chunk_len).map(Share::Dense).collect()
            }
            Round::Sparse(assignments) => {
                self.obs.reports.inc_by(assignments.len() as u64);
                // One O(assignments) bucketing pass: each worker receives
                // only its own entries, in their original order.
                let mut buckets = vec![Vec::new(); n.div_ceil(chunk_len)];
                for &(u, value) in assignments {
                    assert!(u < n, "assignment names user {u}");
                    self.mark_dirty(u);
                    buckets[u / chunk_len].push((u, value));
                }
                self.publish_dirty();
                buckets.into_iter().map(Share::Sparse).collect()
            }
        };
        let results: Vec<Result<(), S::Error>> = std::thread::scope(|s| {
            let joins: Vec<_> = self
                .users
                .chunks_mut(chunk_len)
                .zip(shares)
                .zip(sinks.iter_mut())
                .enumerate()
                .map(|(ci, ((chunk, share), sink))| {
                    s.spawn(move || sanitize_chunk(chunk, ci * chunk_len, share, sink))
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("sanitize worker panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Captures one user's memoized state and RNG position — the unit the
    /// incremental checkpoint layer encodes per dirty segment.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn record(&self, user: usize) -> ClientRecord {
        let slot = &self.users[user];
        let mut state = Vec::new();
        slot.state.save_state(&mut state);
        ClientRecord {
            rng: slot.rng.state(),
            state,
        }
    }

    /// Which users changed since the last [`ClientPool::mark_clean`]
    /// (one flag per user, in index order).
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// Declares the pool's current state durably persisted: clears every
    /// dirty flag. [`crate::ClientStore::save_pool`] calls this after a
    /// successful save; call it manually only when the pool's state is
    /// known to match the checkpoint on disk (e.g. right after restoring
    /// from that same store).
    pub fn mark_clean(&mut self) {
        self.dirty.fill(false);
        self.dirty_count = 0;
        self.publish_dirty();
    }

    /// Captures every user's memoized state and RNG position for durable
    /// persistence (see [`crate::ClientStore`]). Non-destructive.
    pub fn checkpoint(&self) -> ClientCheckpoint {
        ClientCheckpoint {
            meta: self.cfg.meta(self.seed),
            users: (0..self.users.len()).map(|u| self.record(u)).collect(),
        }
    }

    /// Folds a previously captured checkpoint back in, rebuilding every
    /// user from the registry (re-deriving the construction draws from the
    /// same `(seed, user)` streams), loading the memoized state, and
    /// resuming the saved RNG positions. Rejects checkpoints captured
    /// under a different configuration, seed, or population size.
    pub fn restore(&mut self, cp: &ClientCheckpoint) -> Result<(), ClientStoreError> {
        self.cfg.verify_meta(&cp.meta, self.seed)?;
        if cp.users.len() != self.users.len() {
            return Err(ClientStoreError::Mismatch("population size differs"));
        }
        let mut rebuilt = Vec::with_capacity(self.users.len());
        for (u, record) in cp.users.iter().enumerate() {
            let mut rng = derive_rng2(self.seed, USER_STREAM_TAG, u as u64);
            let mut state = self
                .cfg
                .build_state(&mut rng)
                .map_err(|_| ClientStoreError::Corrupt("configuration no longer constructs"))?;
            state.load_state(&record.state)?;
            let rng = Xoshiro256pp::from_state(record.rng)
                .ok_or(ClientStoreError::Corrupt("all-zero RNG state"))?;
            rebuilt.push(UserSlot { state, rng });
        }
        self.users = rebuilt;
        // Conservative: the pool cannot know whether `cp` came from the
        // store the next incremental save will target, so everything is
        // dirty until the caller says otherwise (see `mark_clean`).
        self.mark_all_dirty();
        Ok(())
    }
}

/// One round's input: `Dense(values)` gives every user a value
/// (`values[u]` is user `u`'s); `Sparse` lists `(user, value)` pairs for
/// only the users reporting this round.
#[derive(Clone, Copy)]
enum Round<'a> {
    Dense(&'a [u64]),
    Sparse(&'a [(usize, u64)]),
}

/// One chunk's share of a [`Round`]: its slice of a dense round, or the
/// sparse assignments whose users fall in the chunk.
enum Share<'a> {
    Dense(&'a [u64]),
    Sparse(Vec<(usize, u64)>),
}

/// Sanitizes one chunk's share into its sink — each report keyed by
/// absolute user index, `base` being the chunk's first user — then
/// finishes the sink.
fn sanitize_chunk<S: ReportSink>(
    chunk: &mut [UserSlot],
    base: usize,
    share: Share<'_>,
    sink: &mut S,
) -> Result<(), S::Error> {
    let mut buf = ReportBuf::new();
    let mut report = |u: usize, value: u64| {
        let slot = &mut chunk[u - base];
        slot.state.report_into(value, &mut slot.rng, &mut buf);
        match (buf.row(), buf.hashed()) {
            (Some(row), Some(hashed)) => sink.submit_hashed(u as u64, hashed, row),
            (Some(row), None) => sink.submit_row(u as u64, row),
            (None, _) => sink.submit(u as u64, buf.support()),
        }
    };
    match share {
        Share::Dense(values) => {
            for (j, &value) in values.iter().enumerate() {
                report(base + j, value)?;
            }
        }
        Share::Sparse(assignments) => {
            for (u, value) in assignments {
                report(u, value)?;
            }
        }
    }
    sink.finish()
}

/// One default-size batching submitter per worker (`workers` clamps to
/// ≥ 1).
fn batching_sinks(handle: &IngestHandle, workers: usize) -> Vec<BatchSubmitter> {
    (0..workers.max(1))
        .map(|_| handle.batching(DEFAULT_BATCH_REPORTS))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_ingest::IngestPipeline;
    use ldp_runtime::{Method, ShardedAggregator};

    /// A telemetry registry that records nothing.
    fn off() -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    fn pool(method: Method, n: usize) -> ClientPool {
        let cfg = ClientConfig::for_method(method, 16, 2.0, 1.0).unwrap();
        ClientPool::with_obs(cfg, 5, n, &off()).unwrap()
    }

    fn values(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 7) % 16).collect()
    }

    #[test]
    fn piped_round_is_worker_count_invariant_for_every_method() {
        for method in Method::all() {
            let vals = values(60);
            let mut reference = None;
            for workers in [1usize, 2, 4, 8] {
                let mut p = pool(method, 60);
                let mut pipe =
                    IngestPipeline::for_method_obs(method, 16, 2.0, 1.0, workers, &off()).unwrap();
                let handle = pipe.handle();
                p.sanitize_round(&vals, workers, &handle).unwrap();
                drop(handle);
                let snap = pipe.finish_round().unwrap();
                match &reference {
                    None => reference = Some(snap),
                    Some(want) => {
                        assert_eq!(want.counts, snap.counts, "{method:?} at {workers} workers");
                        assert_eq!(want.reports, snap.reports, "{method:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn direct_and_piped_rounds_agree() {
        // 800 users over 3 shards put 267 rows in a shard's sink: one
        // fold of 255 rows mid-chunk, then the rest at `finish`.
        for (method, n) in Method::all().into_iter().flat_map(|m| [(m, 40), (m, 800)]) {
            let vals = values(n);
            let mut agg =
                ShardedAggregator::for_method_obs(method, 16, 2.0, 1.0, 3, &off()).unwrap();
            let mut direct = pool(method, n);
            direct.sanitize_round_into_shards(&vals, agg.shards_mut());
            let want = agg.finish_round();

            let mut piped = pool(method, n);
            let mut pipe = IngestPipeline::for_method_obs(method, 16, 2.0, 1.0, 4, &off()).unwrap();
            let handle = pipe.handle();
            piped.sanitize_round(&vals, 4, &handle).unwrap();
            drop(handle);
            let got = pipe.finish_round().unwrap();
            assert_eq!(want.counts, got.counts, "{method:?} over {n} users");
            assert_eq!(want.reports, got.reports, "{method:?} over {n} users");
        }
    }

    #[test]
    fn assignments_match_dense_round_for_full_population() {
        let vals = values(30);
        let dense_assign: Vec<(usize, u64)> = vals.iter().copied().enumerate().collect();
        let mut a = pool(Method::LOsue, 30);
        let mut pipe_a =
            IngestPipeline::for_method_obs(Method::LOsue, 16, 2.0, 1.0, 2, &off()).unwrap();
        let ha = pipe_a.handle();
        a.sanitize_round(&vals, 2, &ha).unwrap();
        drop(ha);
        let want = pipe_a.finish_round().unwrap();

        let mut b = pool(Method::LOsue, 30);
        let mut pipe_b =
            IngestPipeline::for_method_obs(Method::LOsue, 16, 2.0, 1.0, 3, &off()).unwrap();
        let hb = pipe_b.handle();
        b.sanitize_assignments(&dense_assign, 4, &hb).unwrap();
        drop(hb);
        let got = pipe_b.finish_round().unwrap();
        assert_eq!(want.counts, got.counts);
        assert_eq!(want.reports, got.reports);
    }

    #[test]
    fn sink_rounds_match_the_batched_transport_exactly() {
        for method in Method::all() {
            let vals = values(50);
            let mut reference = pool(method, 50);
            let mut pipe_a =
                IngestPipeline::for_method_obs(method, 16, 2.0, 1.0, 3, &off()).unwrap();
            let ha = pipe_a.handle();
            reference.sanitize_round(&vals, 3, &ha).unwrap();
            drop(ha);
            let want = pipe_a.finish_round().unwrap();

            let mut sunk = pool(method, 50);
            let mut pipe_b =
                IngestPipeline::for_method_obs(method, 16, 2.0, 1.0, 3, &off()).unwrap();
            let hb = pipe_b.handle();
            let mut sinks: Vec<_> = (0..3).map(|_| hb.batching(8)).collect();
            sunk.sanitize_round_sinks(&vals, &mut sinks).unwrap();
            drop(sinks);
            drop(hb);
            let got = pipe_b.finish_round().unwrap();
            assert_eq!(want.counts, got.counts, "{method:?}");
            assert_eq!(want.reports, got.reports, "{method:?}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_restores_exact_streams() {
        for method in Method::all() {
            let vals = values(20);
            let mut original = pool(method, 20);
            let mut agg =
                ShardedAggregator::for_method_obs(method, 16, 2.0, 1.0, 1, &off()).unwrap();
            original.sanitize_round_into_shards(&vals, agg.shards_mut());
            let _ = agg.finish_round();

            let cp = original.checkpoint();
            let mut restored = pool(method, 20);
            restored.restore(&cp).unwrap();

            // Continuing both pools produces identical rounds.
            let vals2 = values(20).iter().map(|v| (v + 3) % 16).collect::<Vec<_>>();
            let mut agg_a =
                ShardedAggregator::for_method_obs(method, 16, 2.0, 1.0, 1, &off()).unwrap();
            let mut agg_b =
                ShardedAggregator::for_method_obs(method, 16, 2.0, 1.0, 1, &off()).unwrap();
            original.sanitize_round_into_shards(&vals2, agg_a.shards_mut());
            restored.sanitize_round_into_shards(&vals2, agg_b.shards_mut());
            let a = agg_a.finish_round();
            let b = agg_b.finish_round();
            assert_eq!(a.counts, b.counts, "{method:?}");
            for (x, y) in original.states().zip(restored.states()) {
                assert_eq!(x.privacy_spent(), y.privacy_spent(), "{method:?}");
                assert_eq!(x.distinct_classes(), y.distinct_classes(), "{method:?}");
                assert_eq!(x.detection(), y.detection(), "{method:?}");
            }
        }
    }

    #[test]
    fn restore_rejects_foreign_checkpoints() {
        let mut p = pool(Method::Rappor, 10);
        let cp = p.checkpoint();
        // Different seed.
        let cfg = ClientConfig::for_method(Method::Rappor, 16, 2.0, 1.0).unwrap();
        let mut other_seed = ClientPool::with_obs(cfg, 6, 10, &off()).unwrap();
        assert!(matches!(
            other_seed.restore(&cp),
            Err(ClientStoreError::Mismatch("seed differs"))
        ));
        // Different population.
        let mut other_n = ClientPool::with_obs(cfg, 5, 11, &off()).unwrap();
        assert!(matches!(
            other_n.restore(&cp),
            Err(ClientStoreError::Mismatch("population size differs"))
        ));
        // Different method.
        let mut other_m = pool(Method::LGrr, 10);
        assert!(matches!(
            other_m.restore(&cp),
            Err(ClientStoreError::Mismatch(_))
        ));
        // The original still accepts its own checkpoint.
        p.restore(&cp).unwrap();
    }

    #[test]
    fn dirty_users_gauge_tracks_the_flags() {
        let reg = MetricsRegistry::new();
        let cfg = ClientConfig::for_method(Method::LOsue, 16, 2.0, 1.0).unwrap();
        let mut p = ClientPool::with_obs(cfg, 5, 12, &reg).unwrap();
        let cp = p.checkpoint();
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LOsue, 16, 2.0, 1.0, 2, &off()).unwrap();
        let handle = pipe.handle();
        let mut buf = ReportBuf::new();
        let check = |p: &ClientPool, want: usize| {
            let flags = p.dirty().iter().filter(|d| **d).count();
            assert_eq!(flags, want);
            let gauge = reg.snapshot().gauge("ldp.client.pool.dirty_users");
            assert_eq!(gauge, Some(want as u64));
        };
        p.mark_clean();
        check(&p, 0);
        p.sanitize_one(3, 1, &mut buf);
        p.sanitize_one(3, 2, &mut buf); // already dirty: no double count
        p.sanitize_one(7, 2, &mut buf);
        check(&p, 2);
        p.sanitize_assignments(&[(1, 4), (7, 5), (9, 6)], 2, &handle)
            .unwrap();
        check(&p, 4);
        p.mark_clean();
        p.sanitize_one(0, 0, &mut buf);
        check(&p, 1);
        p.sanitize_round(&values(12), 2, &handle).unwrap();
        check(&p, 12);
        p.mark_clean();
        p.sanitize_assignments(&[(11, 1)], 3, &handle).unwrap();
        check(&p, 1);
        p.restore(&cp).unwrap();
        check(&p, 12);
        p.mark_clean();
        let mut agg =
            ShardedAggregator::for_method_obs(Method::LOsue, 16, 2.0, 1.0, 2, &off()).unwrap();
        p.sanitize_round_into_shards(&values(12), agg.shards_mut());
        check(&p, 12);
        drop(handle);
        pipe.finish_round().unwrap();
    }

    /// Records what the driver hands one sink; the `fail_at`-th submit
    /// (0-based) fails.
    #[derive(Default)]
    struct CountingSink {
        users: Vec<u64>,
        finishes: usize,
        fail_at: Option<usize>,
    }

    impl ReportSink for CountingSink {
        type Error = String;

        fn submit(&mut self, user: u64, _support: &[usize]) -> Result<(), String> {
            if self.fail_at == Some(self.users.len()) {
                return Err(format!("sink refused user {user}"));
            }
            self.users.push(user);
            Ok(())
        }

        fn finish(&mut self) -> Result<(), String> {
            self.finishes += 1;
            Ok(())
        }
    }

    fn counting_sinks(n: usize) -> Vec<CountingSink> {
        (0..n).map(|_| CountingSink::default()).collect()
    }

    #[test]
    fn sinks_past_the_last_chunk_get_no_report_and_no_finish() {
        let mut p = pool(Method::LOsue, 3);
        let mut sinks = counting_sinks(5);
        p.sanitize_round_sinks(&values(3), &mut sinks).unwrap();
        for (i, sink) in sinks.iter().enumerate() {
            if i < 3 {
                assert_eq!(sink.users, [i as u64], "sink {i}");
                assert_eq!(sink.finishes, 1, "sink {i}");
            } else {
                assert!(sink.users.is_empty(), "sink {i}");
                assert_eq!(sink.finishes, 0, "sink {i}");
            }
        }
    }

    #[test]
    fn a_failed_submit_fails_the_round_while_other_chunks_finish() {
        let mut p = pool(Method::LOsue, 9);
        let mut sinks = counting_sinks(3);
        sinks[1].fail_at = Some(1);
        sinks[2].fail_at = Some(3); // fails nothing: its chunk has 3 users
        let err = p.sanitize_round_sinks(&values(9), &mut sinks).unwrap_err();
        assert_eq!(err, "sink refused user 4");
        assert_eq!(sinks[0].users, [0, 1, 2]);
        assert_eq!(sinks[1].users, [3]);
        assert_eq!(sinks[2].users, [6, 7, 8]);
        let finishes: Vec<usize> = sinks.iter().map(|s| s.finishes).collect();
        assert_eq!(finishes, [1, 0, 1]);

        // With two failing chunks the round reports the first in chunk
        // order.
        let mut sinks = counting_sinks(3);
        sinks[1].fail_at = Some(0);
        sinks[2].fail_at = Some(0);
        let err = p.sanitize_round_sinks(&values(9), &mut sinks).unwrap_err();
        assert_eq!(err, "sink refused user 3");
        assert_eq!(sinks[0].finishes, 1);
    }

    #[test]
    fn empty_assignments_submit_nothing_and_keep_the_dirty_flags() {
        let reg = MetricsRegistry::new();
        let mut p = pool(Method::LOsue, 6);
        p.mark_clean();
        p.sanitize_one(2, 1, &mut ReportBuf::new());
        let dirty = p.dirty().to_vec();
        let cp = p.checkpoint();
        let mut pipe =
            IngestPipeline::for_method_obs(Method::LOsue, 16, 2.0, 1.0, 2, &reg).unwrap();
        let handle = pipe.handle();
        p.sanitize_assignments(&[], 3, &handle).unwrap();
        drop(handle);
        assert_eq!(p.dirty(), dirty);
        assert_eq!(p.checkpoint(), cp, "no RNG stream moved");
        assert_eq!(pipe.finish_round().unwrap().reports, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.reports_routed"), 0);
        // Only the two end_round barriers crossed the channels.
        assert_eq!(snap.counter_total("ldp.ingest.pipeline.envelopes"), 2);
    }

    /// A sink that implements only `submit`: every report reaches it
    /// through the default chain as an ascending index list.
    #[derive(Default)]
    struct SubmitOnly(Vec<u8>);

    impl ReportSink for SubmitOnly {
        type Error = Infallible;

        fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), Infallible> {
            self.0.extend_from_slice(&user.to_le_bytes());
            self.0
                .extend_from_slice(&(support.len() as u64).to_le_bytes());
            for &i in support {
                self.0.extend_from_slice(&(i as u64).to_le_bytes());
            }
            Ok(())
        }
    }

    #[test]
    fn a_submit_only_sink_gets_every_loloha_support_as_pinned() {
        // Digests of the supports pinned before LOLOHA reports carried
        // their hash: the default chain must hand a plain sink the same
        // lists it always did.
        let k = 300;
        let custom = loloha::LolohaParams::with_g(5, 2.0, 1.0).unwrap();
        let cases = [
            (
                "BiLOLOHA",
                ClientConfig::for_method(Method::BiLoloha, k, 2.0, 1.0).unwrap(),
                0x22df_a342_c8ba_f8f8,
            ),
            (
                "OLOLOHA",
                ClientConfig::for_method(Method::OLoloha, k, 2.0, 1.0).unwrap(),
                0x047f_514e_d07b_5f5c,
            ),
            (
                "g = 5",
                ClientConfig::for_loloha(k, custom),
                0x42cb_c9eb_2eaf_4b42,
            ),
        ];
        for (what, cfg, want) in cases {
            let mut p = ClientPool::with_obs(cfg, 9, 90, &off()).unwrap();
            let mut sinks: Vec<SubmitOnly> = (0..3).map(|_| SubmitOnly::default()).collect();
            for round in 0..3u64 {
                let vals: Vec<u64> = (0..90).map(|u| (u * 7 + round * 31) % k).collect();
                p.sanitize_round_sinks(&vals, &mut sinks).unwrap();
            }
            let bytes: Vec<u8> = sinks.into_iter().flat_map(|s| s.0).collect();
            let got = ldp_primitives::codec::fnv1a(&bytes);
            assert_eq!(got, want, "{what}: {got:#018x}");
        }
    }

    /// Records each hashed report and checks its row against its hash.
    struct HashedCheck {
        k: u64,
        cells: Vec<u32>,
    }

    impl ReportSink for HashedCheck {
        type Error = String;

        fn submit(&mut self, user: u64, _support: &[usize]) -> Result<(), String> {
            Err(format!("user {user} came as a list"))
        }

        fn submit_hashed(
            &mut self,
            user: u64,
            report: HashedReport,
            row: &[u64],
        ) -> Result<(), String> {
            use ldp_hash::SeededHash;
            let mut want = vec![0u64; self.k.div_ceil(64) as usize];
            let cell = u32::from(report.cell);
            for v in (0..self.k).filter(|&v| report.hash.hash(v) == cell) {
                want[v as usize / 64] |= 1 << (v % 64);
            }
            if row != want {
                return Err(format!("user {user}: the row is not its cell's preimage"));
            }
            self.cells.push(cell);
            Ok(())
        }
    }

    #[test]
    fn loloha_rows_reach_the_sink_with_their_hash_and_cell() {
        for (method, params) in [
            (Method::BiLoloha, loloha::LolohaParams::bi(2.0, 1.0)),
            (Method::OLoloha, loloha::LolohaParams::optimal(2.0, 1.0)),
        ] {
            let k = 100;
            let cfg = ClientConfig::for_method(method, k, 2.0, 1.0).unwrap();
            let g = params.unwrap().g();
            let mut p = ClientPool::with_obs(cfg, 3, 200, &off()).unwrap();
            let mut sinks = [HashedCheck {
                k,
                cells: Vec::new(),
            }];
            let vals: Vec<u64> = (0..200).map(|u| u % k).collect();
            p.sanitize_round_sinks(&vals, &mut sinks).unwrap();
            let [sink] = sinks;
            assert_eq!(sink.cells.len(), 200, "{method:?}");
            for cell in 0..g {
                assert!(
                    sink.cells.contains(&cell),
                    "{method:?}: no report in cell {cell}"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_zero_rng_state() {
        let mut p = pool(Method::Rappor, 2);
        let mut cp = p.checkpoint();
        cp.users[1].rng = [0; 4];
        assert!(matches!(
            p.restore(&cp),
            Err(ClientStoreError::Corrupt("all-zero RNG state"))
        ));
    }
}
