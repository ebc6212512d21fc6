//! `collectd`: the long-running TCP ingestion daemon.
//!
//! One daemon aggregates under one resolved protocol configuration.
//! Remote loadgen workers connect over TCP, handshake with a
//! [`Frame::Hello`] pinning the configuration fingerprint, and stream
//! [`Frame::Submit`] batches — or, for LOLOHA, [`Frame::SubmitHashed`]
//! batches of ⟨hash, cell⟩ reports. The connection thread folds each
//! accepted frame straight from its decoded batch into shard
//! `worker_id % shards` (rows through the carry-save [`Shard::add_rows`],
//! index lists through [`Shard::add_report_batch`], hashed reports
//! through the shard's row cache, which expands each into its
//! preimage row) and only then acks it, exactly once. There are no
//! ingest worker threads: a running daemon has its accept thread, the
//! latch watcher, and one thread per connection. A [`ShardedAggregator`] holds the method's metadata and
//! turns the merged shards into each round's estimate.
//!
//! # Durability and exactly-once
//!
//! The daemon periodically persists one atomic [`NetCheckpoint`] (shard
//! states + per-session applied sequence high-waters + round counter +
//! previous round's cached result). Sequence dedup makes application
//! idempotent: a client that never saw its ack resends, and the daemon
//! re-acks without re-applying. A restarted daemon resumes from the
//! checkpoint and hands each reconnecting session its `resume_seq`, so
//! a deterministic client replays only the suffix the checkpoint missed
//! — the net effect is byte-identical to an uninterrupted run (see
//! `tests/drill.rs`).
//!
//! Consistency between shard state and the session table is enforced by
//! a checkpoint gate (`RwLock`): connection threads hold the read side
//! across [dedup check → fold → high-water advance], the checkpointer
//! holds the write side across [shard read → session snapshot → atomic
//! save], so a checkpoint can never capture a frame's reports without
//! its sequence advance or vice versa. A session always folds into the
//! same shard, and its frame holds that shard's lock across the same
//! three steps, so two connections claiming one session cannot both
//! apply one sequence number.
//!
//! # Drain
//!
//! A [`Frame::Shutdown`], SIGTERM ([`crate::signal`]), or
//! [`Collectd::trigger_drain`] flips the drain latch: connections answer
//! their next frame with a `Draining` error and close, the accept loop
//! stops accepting, joins the connection threads, takes one final
//! checkpoint, and exits. [`Collectd::kill_hard`] is the test hook for
//! the other drill arm: threads stop where they stand and *no* final
//! checkpoint is taken, simulating `kill -9` up to process boundaries.
//!
//! The accept loop blocks in `accept`, so a handshake never waits on a
//! timer. One watcher thread polls every latch (SIGTERM can only raise
//! an atomic) and turns the first raised one into a single connection
//! to the daemon's own address; the loop sees the latch when that
//! connection returns from `accept`, and neither counts nor serves it.

use crate::conn::{Conn, Polled};
use crate::deadline::Deadline;
use crate::error::{ErrorCode, NetError};
use crate::proto::{config_fingerprint, Frame, HashedBatch, MAX_WIRE_DIM};
use crate::rowcache::{RowCache, ROW_CACHE_BYTES};
use crate::signal;
use crate::store::{NetCheckpoint, NetStore};
use ldp_ingest::{ReportBatch, ShardCheckpoint, ShardState};
use ldp_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span};
use ldp_primitives::codec::CodecError;
use ldp_runtime::{Method, Shard, ShardedAggregator};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll granularity for per-connection reads, the latch watcher and the
/// accept loop's error back-off: the latency bound on noticing
/// drain/kill/signal latches.
const TICK: Duration = Duration::from_millis(10);

/// Checkpoint file name inside [`DaemonConfig::dir`].
const CHECKPOINT_FILE: &str = "collectd.ckpt";

/// Daemon configuration. Construct with [`DaemonConfig::new`] and
/// override fields as needed.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` by default — the kernel picks a free
    /// port, read it back with [`Collectd::local_addr`]).
    pub addr: SocketAddr,
    /// Frequency protocol to aggregate under.
    pub method: Method,
    /// Input domain size.
    pub k: u64,
    /// Longitudinal privacy budget (`ε_∞`).
    pub eps_inf: f64,
    /// First-report budget (`ε_1`).
    pub eps_first: f64,
    /// Aggregation shards (clamped to ≥ 1). Session `worker_id` folds
    /// into shard `worker_id % workers` on its own connection thread, so
    /// this bounds how many sessions fold at once; it starts no threads.
    pub workers: usize,
    /// Close a connection that stays silent this long (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Take a durable checkpoint every this many applied submit frames
    /// (0 disables periodic checkpoints; round ends and drains always
    /// checkpoint).
    pub checkpoint_every: u64,
    /// Durable state directory. `None` runs the daemon memory-only —
    /// still drains cleanly, but cannot resume after a kill.
    pub dir: Option<PathBuf>,
    /// Drill hook: hard-kill the daemon (as if `kill -9`, no final
    /// checkpoint) after this many applied submit frames.
    pub kill_after_frames: Option<u64>,
}

impl DaemonConfig {
    /// A loopback daemon for `method` with library defaults.
    pub fn new(method: Method, k: u64, eps_inf: f64, eps_first: f64) -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            method,
            k,
            eps_inf,
            eps_first,
            workers: 2,
            idle_timeout: None,
            checkpoint_every: 64,
            dir: None,
            kill_after_frames: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by
/// [`Collectd::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonReport {
    /// Rounds finished (the round counter at exit).
    pub rounds_finished: u64,
    /// Submit frames applied (duplicates excluded).
    pub frames_applied: u64,
    /// Connections accepted over the lifetime.
    pub connections_served: u64,
    /// Whether the daemon exited through the hard-kill hook (no final
    /// checkpoint) rather than a drain.
    pub hard_killed: bool,
    /// Whether the daemon resumed from an existing checkpoint at start.
    pub resumed: bool,
}

/// Session bookkeeping: applied high-waters (live) and their state as of
/// the last durable checkpoint.
#[derive(Debug, Default)]
struct SessionTable {
    applied: BTreeMap<u32, u64>,
    durable: BTreeMap<u32, u64>,
}

struct Shared {
    /// Method metadata and the estimator; its shards hold counts only
    /// while a round end merges [`Shared::shards`] into them.
    agg: Mutex<ShardedAggregator>,
    /// The round's partial counts: session `w` folds into shard
    /// `w % shards.len()`.
    shards: Vec<Mutex<ShardSlot>>,
    /// A LOLOHA daemon's hash-cell count `g`; `None` refuses hashed
    /// submits.
    hashed_g: Option<u32>,
    /// Bytes held by all row caches, mirrored into `row_cache_bytes`.
    row_cache_total: AtomicUsize,
    row_cache_bytes: Gauge,
    row_cache_misses: Counter,
    /// The checkpoint-consistency gate (see module docs).
    gate: RwLock<()>,
    sessions: Mutex<SessionTable>,
    round: AtomicU64,
    last_result: Mutex<Option<(u64, Vec<f64>)>>,
    draining: AtomicBool,
    kill: AtomicBool,
    frames_applied: AtomicU64,
    frames_since_ckpt: AtomicU64,
    connections_served: AtomicU64,
    live_conns: AtomicU64,
    conn_gauge: Gauge,
    /// Time of each submit frame's validation, dedup check and fold.
    apply_ns: Histogram,
    store: Option<NetStore>,
    fingerprint: u64,
    method: Method,
    k: u64,
    dim: usize,
    idle_timeout: Option<Duration>,
    checkpoint_every: u64,
    kill_after_frames: Option<u64>,
    obs: MetricsRegistry,
}

/// One aggregation shard and, on a LOLOHA daemon, the row cache that
/// expands the hashed reports folded into it; one lock guards both.
struct ShardSlot {
    shard: Shard,
    rows: Option<RowCache>,
}

/// Locks a mutex, shrugging off poisoning: every guarded structure here
/// stays valid across a panicked holder, and the daemon must keep
/// serving other connections.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Takes one durable checkpoint under the write gate: shard read,
    /// session snapshot, atomic save. Memory-only daemons just refresh
    /// the durable session view.
    fn checkpoint_now(&self) -> Result<NetCheckpoint, NetError> {
        let _gate = self.gate.write().unwrap_or_else(|e| e.into_inner());
        let shards = ShardCheckpoint {
            dim: self.dim,
            shards: self
                .shards
                .iter()
                .map(|slot| {
                    let shard = &lock(slot).shard;
                    ShardState {
                        counts: shard.counts().to_vec(),
                        reports: shard.reports(),
                    }
                })
                .collect(),
        };
        let mut sessions = lock(&self.sessions);
        let cp = NetCheckpoint {
            round: self.round.load(Ordering::SeqCst),
            last_result: lock(&self.last_result).clone(),
            sessions: sessions.applied.clone(),
            shards,
        };
        if let Some(store) = &self.store {
            store.save(&cp)?;
        }
        sessions.durable = sessions.applied.clone();
        self.frames_since_ckpt.store(0, Ordering::SeqCst);
        self.obs.counter("ldp.netd.checkpoints").inc();
        Ok(cp)
    }

    fn stopping(&self) -> bool {
        self.kill.load(Ordering::SeqCst)
            || self.draining.load(Ordering::SeqCst)
            || signal::term_requested()
    }
}

/// A running `collectd` instance. Dropping without [`Collectd::join`]
/// drains in the background; join to observe the [`DaemonReport`].
pub struct Collectd {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<DaemonReport>>,
    local_addr: SocketAddr,
    resumed: bool,
}

impl Collectd {
    /// Builds the aggregator and its shards (resuming from a checkpoint
    /// in [`DaemonConfig::dir`] if one exists), binds the listener, and
    /// spawns the accept loop.
    pub fn start(cfg: DaemonConfig, obs: &MetricsRegistry) -> Result<Self, NetError> {
        let agg = ShardedAggregator::for_method_obs(
            cfg.method,
            cfg.k,
            cfg.eps_inf,
            cfg.eps_first,
            cfg.workers.max(1),
            obs,
        )
        .map_err(|e| NetError::Pipeline(e.to_string()))?;
        let dim = agg.dim();
        let hashed_g = agg.loloha_params().map(|params| params.g());
        let cache_share = ROW_CACHE_BYTES / agg.shard_count();
        let shards = (0..agg.shard_count())
            .map(|_| {
                Mutex::new(ShardSlot {
                    shard: Shard::with_dim(dim),
                    rows: hashed_g.map(|g| RowCache::new(cfg.k, g, cache_share)),
                })
            })
            .collect();
        let fingerprint =
            config_fingerprint(cfg.method, cfg.k, dim as u64, cfg.eps_inf, cfg.eps_first);
        let store = match &cfg.dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| NetError::Io(e.to_string()))?;
                Some(NetStore::new(dir.join(CHECKPOINT_FILE), fingerprint))
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            agg: Mutex::new(agg),
            shards,
            hashed_g,
            row_cache_total: AtomicUsize::new(0),
            row_cache_bytes: obs.gauge("ldp.netd.row_cache_bytes"),
            row_cache_misses: obs.counter("ldp.netd.row_cache_misses"),
            gate: RwLock::new(()),
            sessions: Mutex::new(SessionTable::default()),
            round: AtomicU64::new(0),
            last_result: Mutex::new(None),
            draining: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            frames_applied: AtomicU64::new(0),
            frames_since_ckpt: AtomicU64::new(0),
            connections_served: AtomicU64::new(0),
            live_conns: AtomicU64::new(0),
            conn_gauge: obs.gauge("ldp.netd.connections"),
            apply_ns: obs.histogram("ldp.netd.apply_ns"),
            store,
            fingerprint,
            method: cfg.method,
            k: cfg.k,
            dim,
            idle_timeout: cfg.idle_timeout,
            checkpoint_every: cfg.checkpoint_every,
            kill_after_frames: cfg.kill_after_frames,
            obs: obs.clone(),
        });

        let mut resumed = false;
        if let Some(store) = &shared.store {
            if store.exists() {
                let cp = store.load()?;
                restore_shards(&shared.shards, shared.dim, &cp.shards)?;
                let mut sessions = lock(&shared.sessions);
                sessions.applied = cp.sessions.clone();
                sessions.durable = cp.sessions;
                shared.round.store(cp.round, Ordering::SeqCst);
                *lock(&shared.last_result) = cp.last_result;
                resumed = true;
                shared.obs.counter("ldp.netd.resumes").inc();
            }
        }

        let listener = TcpListener::bind(cfg.addr).map_err(|e| NetError::Io(e.to_string()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?;

        let loop_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("collectd-accept".into())
            .spawn(move || {
                // Scoped, so the watcher ends while the listener is still
                // bound: a late wake never reaches a socket reusing the port.
                std::thread::scope(|s| {
                    s.spawn(|| wake_on_stop(&loop_shared, local_addr));
                    accept_loop(&loop_shared, &listener, resumed)
                })
            })
            .map_err(|e| NetError::Io(e.to_string()))?;

        Ok(Self {
            shared,
            accept: Some(accept),
            local_addr,
            resumed,
        })
    }

    /// The bound listen address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The configuration fingerprint this daemon pins in every frame.
    pub fn fingerprint(&self) -> u64 {
        self.shared.fingerprint
    }

    /// Whether the daemon resumed from an existing checkpoint.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Requests a graceful drain (the programmatic SIGTERM): stop
    /// accepting, close connections, take a final checkpoint, exit.
    pub fn trigger_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Drill hook: stop everything where it stands, skipping the final
    /// checkpoint — the closest an in-process daemon gets to `kill -9`.
    pub fn kill_hard(&self) {
        self.shared.kill.store(true, Ordering::SeqCst);
    }

    /// Waits for the daemon to exit (after a drain/kill trigger) and
    /// returns its lifetime report.
    pub fn join(mut self) -> Result<DaemonReport, NetError> {
        match self.accept.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| NetError::Pipeline("accept loop panicked".into())),
            None => Err(NetError::Pipeline("daemon already joined".into())),
        }
    }
}

impl Drop for Collectd {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.shared.draining.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}

/// Folds a saved shard checkpoint into `shards`, resuming its round
/// mid-fill. The checkpoint may come from a daemon with a different
/// shard count: saved shard `j` folds into shard `j % shards.len()`, and
/// the order-independent merge makes the round bit-identical either
/// way. A checkpoint whose dimension or any shard's length differs from
/// `dim` is rejected before any shard is folded.
fn restore_shards(
    shards: &[Mutex<ShardSlot>],
    dim: usize,
    cp: &ShardCheckpoint,
) -> Result<(), NetError> {
    if cp.dim != dim {
        return Err(NetError::Codec(CodecError::Corrupt(
            "checkpoint dimension differs from the daemon's",
        )));
    }
    if cp.shards.iter().any(|s| s.counts.len() != dim) {
        return Err(NetError::Codec(CodecError::Corrupt(
            "checkpoint shard length differs from the daemon's dimension",
        )));
    }
    for (j, state) in cp.shards.iter().enumerate() {
        lock(&shards[j % shards.len()])
            .shard
            .add_batch(&state.counts, state.reports);
    }
    Ok(())
}

/// Folds a validated submit batch into `shard` in one pass: the bit-plane
/// row fold for rows, a flat index walk for lists.
fn fold(shard: &mut Shard, batch: &ReportBatch) {
    match batch.row_words() {
        Some(words) => shard.add_rows(batch.cells(), words),
        None => shard.add_report_batch(batch.lists().0, batch.report_count() as u64),
    }
}

/// The latch watcher: waits for any stop latch, then wakes the accept
/// loop out of its blocking `accept` with one connection to `addr`.
fn wake_on_stop(shared: &Shared, addr: SocketAddr) {
    while !shared.stopping() {
        std::thread::sleep(TICK);
    }
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // A full backlog means `accept` has work and will see the latch anyway.
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, resumed: bool) -> DaemonReport {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked before counting: the watcher's wake connection (or a
        // peer racing the drain) is neither counted nor served.
        if shared.stopping() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                conns.retain(|j| !j.is_finished());
                shared.connections_served.fetch_add(1, Ordering::SeqCst);
                let n = shared.live_conns.fetch_add(1, Ordering::SeqCst) + 1;
                shared.conn_gauge.set(n);
                let conn_shared = Arc::clone(shared);
                if let Ok(join) = std::thread::Builder::new()
                    .name("collectd-conn".into())
                    .spawn(move || {
                        serve_conn(&conn_shared, stream);
                        let n = conn_shared.live_conns.fetch_sub(1, Ordering::SeqCst) - 1;
                        conn_shared.conn_gauge.set(n);
                    })
                {
                    conns.push(join);
                }
            }
            Err(_) => std::thread::sleep(TICK),
        }
    }
    let hard_killed = shared.kill.load(Ordering::SeqCst);
    // Drain: connections observe the latch on their next tick and
    // return; a hard kill abandons them mid-flight on purpose.
    if !hard_killed {
        shared.draining.store(true, Ordering::SeqCst);
    }
    for join in conns {
        let _ = join.join();
    }
    if !hard_killed {
        let _ = shared.checkpoint_now();
    }
    DaemonReport {
        rounds_finished: shared.round.load(Ordering::SeqCst),
        frames_applied: shared.frames_applied.load(Ordering::SeqCst),
        connections_served: shared.connections_served.load(Ordering::SeqCst),
        hard_killed,
        resumed,
    }
}

fn serve_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let mut conn = Conn::wrap(stream, shared.fingerprint, &shared.obs);
    let mut session: Option<u32> = None;
    let mut idle = idle_deadline(shared);
    loop {
        if shared.kill.load(Ordering::SeqCst) {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) || signal::term_requested() {
            let _ = conn.send(&Frame::Error {
                code: ErrorCode::Draining,
                detail: "daemon is draining".into(),
            });
            return;
        }
        match conn.poll(TICK) {
            Ok(Polled::Idle) => {
                if idle.is_expired() {
                    let _ = conn.send(&Frame::Error {
                        code: ErrorCode::IdleTimeout,
                        detail: "connection idle past the daemon's timeout".into(),
                    });
                    return;
                }
            }
            Ok(Polled::Closed) => return,
            Ok(Polled::Frame(fp, frame)) => {
                idle = idle_deadline(shared);
                if fp != shared.fingerprint {
                    let _ = conn.send(&Frame::Error {
                        code: ErrorCode::ConfigMismatch,
                        detail: "frame fingerprint does not match this daemon's configuration"
                            .into(),
                    });
                    return;
                }
                match handle_frame(shared, &mut session, frame) {
                    Ok(Reply::Send(reply)) => {
                        if conn.send(&reply).is_err() {
                            return;
                        }
                    }
                    Ok(Reply::SendThenClose(reply)) => {
                        let _ = conn.send(&reply);
                        return;
                    }
                    Err(e) => {
                        // An application-level rejection: answer typed,
                        // keep the connection for well-formed retries.
                        if conn
                            .send(&Frame::Error {
                                code: e.code(),
                                detail: e.to_string(),
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            }
            Err(e) => {
                // A malformed frame (or transport failure): answer typed
                // and close — the stream can no longer be trusted.
                let _ = conn.send(&Frame::Error {
                    code: e.code(),
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
}

fn idle_deadline(shared: &Shared) -> Deadline {
    match shared.idle_timeout {
        Some(t) => Deadline::after(t),
        None => Deadline::never(),
    }
}

enum Reply {
    Send(Frame),
    SendThenClose(Frame),
}

fn handle_frame(
    shared: &Arc<Shared>,
    session: &mut Option<u32>,
    frame: Frame,
) -> Result<Reply, NetError> {
    match frame {
        Frame::Hello {
            worker_id,
            k,
            dim,
            method,
        } => {
            if k != shared.k || dim != shared.dim as u64 || method != shared.method.name() {
                return Err(NetError::Protocol(
                    "hello parameters disagree with the daemon's configuration",
                ));
            }
            *session = Some(worker_id);
            let resume_seq = lock(&shared.sessions)
                .applied
                .get(&worker_id)
                .copied()
                .unwrap_or(0);
            Ok(Reply::Send(Frame::HelloAck {
                worker_id,
                resume_seq,
                round: shared.round.load(Ordering::SeqCst),
            }))
        }
        Frame::Submit { seq, batch, .. } => {
            let worker = session.ok_or(NetError::Protocol("submit before hello"))?;
            let _timed = Span::enter(&shared.apply_ns);
            // Validate the whole frame before applying any of it, so a
            // rejected frame leaves no partial reports behind and the
            // session high-water stays honest.
            if let Some(index) = batch.first_out_of_range(shared.dim) {
                return Err(NetError::SupportOutOfRange {
                    index,
                    dim: shared.dim,
                });
            }
            apply_submit(shared, worker, seq, batch.report_count(), |slot| {
                fold(&mut slot.shard, &batch)
            })
        }
        Frame::SubmitHashed {
            seq,
            key_base,
            batch,
        } => {
            let worker = session.ok_or(NetError::Protocol("submit before hello"))?;
            let _timed = Span::enter(&shared.apply_ns);
            // The decoder checked every hash and cell against the frame's
            // g; the frame's g must be this daemon's.
            match shared.hashed_g {
                None => return Err(NetError::Protocol("hashed submit to a non-LOLOHA daemon")),
                Some(g) if g != batch.g() => {
                    return Err(NetError::Protocol(
                        "hashed submit's g differs from the daemon's",
                    ))
                }
                Some(_) => {}
            }
            check_hashed_rows(&batch, shared.dim)?;
            // A report without its row costs the daemon a pass over the
            // domain when it misses the cache; a frame may ask for at
            // most one widest row's worth of such passes.
            let expansion = if batch.row_words() == 0 {
                (batch.len() as u64).saturating_mul(shared.k)
            } else {
                0
            };
            if expansion > u64::from(MAX_WIRE_DIM) {
                return Err(NetError::OversizedBatch {
                    reports: u32::try_from(batch.len()).unwrap_or(u32::MAX),
                    indices: u32::try_from(expansion).unwrap_or(u32::MAX),
                });
            }
            apply_submit(shared, worker, seq, batch.len(), |slot| {
                let cache = slot
                    .rows
                    .as_mut()
                    .expect("a LOLOHA daemon's shards have row caches");
                let before = cache.bytes();
                let misses = cache.fold(&mut slot.shard, key_base, &batch);
                shared.row_cache_misses.inc_by(misses);
                let after = cache.bytes();
                let total = &shared.row_cache_total;
                let total = if after >= before {
                    total.fetch_add(after - before, Ordering::Relaxed) + (after - before)
                } else {
                    total.fetch_sub(before - after, Ordering::Relaxed) - (before - after)
                };
                shared.row_cache_bytes.set(total as u64);
            })
        }
        Frame::EndRound { round } => {
            let current = shared.round.load(Ordering::SeqCst);
            if round + 1 == current {
                // A retry across a crash: replay the cached result.
                let cached = lock(&shared.last_result).clone();
                let (reports, estimate) =
                    cached.ok_or(NetError::Protocol("no cached result for previous round"))?;
                return Ok(Reply::Send(Frame::RoundResult {
                    round,
                    reports,
                    estimate,
                }));
            }
            if round != current {
                return Err(NetError::Protocol("round out of step"));
            }
            let snapshot;
            {
                let _gate = shared.gate.write().unwrap_or_else(|e| e.into_inner());
                let mut agg = lock(&shared.agg);
                for (i, slot) in shared.shards.iter().enumerate() {
                    let shard = &mut lock(slot).shard;
                    agg.push_batch(i, shard.counts(), shard.reports());
                    shard.reset();
                }
                snapshot = agg.finish_round();
                *lock(&shared.last_result) = Some((snapshot.reports, snapshot.estimate.clone()));
                let mut sessions = lock(&shared.sessions);
                sessions.applied.clear();
                shared.round.store(current + 1, Ordering::SeqCst);
            }
            shared.checkpoint_now()?;
            shared.obs.counter("ldp.netd.rounds").inc();
            Ok(Reply::Send(Frame::RoundResult {
                round,
                reports: snapshot.reports,
                estimate: snapshot.estimate,
            }))
        }
        Frame::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            let cp = shared.checkpoint_now()?;
            let reports = cp.shards.shards.iter().map(|s| s.reports).sum();
            Ok(Reply::SendThenClose(Frame::ShutdownAck { reports }))
        }
        Frame::Error { .. } => Ok(Reply::SendThenClose(Frame::Error {
            code: ErrorCode::Protocol,
            detail: "peer reported an error; closing".into(),
        })),
        Frame::HelloAck { .. }
        | Frame::Ack { .. }
        | Frame::RoundResult { .. }
        | Frame::ShutdownAck { .. } => {
            Err(NetError::Protocol("daemon received a client-bound frame"))
        }
    }
}

/// Checks the rows a hashed batch carries, if any, against the daemon's
/// dimension: exactly `⌈dim/64⌉` words each, and no bit from `dim` on
/// (the first such index is the typed answer).
fn check_hashed_rows(batch: &HashedBatch, dim: usize) -> Result<(), NetError> {
    let words = batch.row_words();
    if words == 0 {
        return Ok(());
    }
    if words != dim.div_ceil(64) {
        return Err(NetError::Protocol(
            "hashed rows' width differs from the daemon's dimension",
        ));
    }
    let tail = dim % 64;
    if tail == 0 {
        return Ok(());
    }
    let last_words = batch.rows().chunks_exact(words).map(|row| row[words - 1]);
    match last_words.map(|last| last >> tail).find(|&past| past != 0) {
        Some(past) => Err(NetError::SupportOutOfRange {
            index: dim + past.trailing_zeros() as usize,
            dim,
        }),
        None => Ok(()),
    }
}

/// Applies one validated submit of `reports` reports for session
/// `worker`: under the gate's read side and the session's shard lock,
/// checks `seq` against the session's high-water, folds the frame into
/// the shard with `fold` when it is the next one, and advances the
/// high-water; then takes any periodic checkpoint and answers the ack.
/// A duplicate is re-acked without folding.
fn apply_submit(
    shared: &Arc<Shared>,
    worker: u32,
    seq: u64,
    reports: usize,
    fold: impl FnOnce(&mut ShardSlot),
) -> Result<Reply, NetError> {
    let reports =
        u32::try_from(reports).map_err(|_| NetError::BadBatch("report count beyond u32"))?;
    let applied;
    {
        let _gate = shared.gate.read().unwrap_or_else(|e| e.into_inner());
        let mut slot = lock(&shared.shards[worker as usize % shared.shards.len()]);
        let high = lock(&shared.sessions)
            .applied
            .get(&worker)
            .copied()
            .unwrap_or(0);
        if seq <= high {
            applied = false; // duplicate of an applied frame: re-ack only
        } else if seq != high + 1 {
            return Err(NetError::Protocol("submit sequence gap"));
        } else {
            fold(&mut slot);
            lock(&shared.sessions).applied.insert(worker, seq);
            applied = true;
        }
    }
    if applied {
        let total = shared.frames_applied.fetch_add(1, Ordering::SeqCst) + 1;
        let since = shared.frames_since_ckpt.fetch_add(1, Ordering::SeqCst) + 1;
        if shared.checkpoint_every > 0 && since >= shared.checkpoint_every {
            shared.checkpoint_now()?;
        }
        if shared.kill_after_frames.is_some_and(|n| total >= n) {
            shared.kill.store(true, Ordering::SeqCst);
        }
    }
    let durable_seq = lock(&shared.sessions)
        .durable
        .get(&worker)
        .copied()
        .unwrap_or(0);
    Ok(Reply::Send(Frame::Ack {
        seq,
        reports,
        durable_seq,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::NetSink;
    use ldp_ingest::ReportBatch;
    use std::sync::mpsc;
    use std::time::Instant;

    /// Runs `f` on a helper thread and returns its result, failing the
    /// test if it takes longer than 5 s (a daemon that misses its wake).
    fn within_5s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the daemon did not exit within 5 s")
    }

    fn client(daemon: &Collectd, obs: &MetricsRegistry) -> Conn {
        Conn::connect(
            daemon.local_addr(),
            daemon.fingerprint(),
            obs,
            Deadline::after(Duration::from_secs(5)),
        )
        .unwrap()
    }

    fn shards(n: usize, dim: usize) -> Vec<Mutex<ShardSlot>> {
        let slot = || ShardSlot {
            shard: Shard::with_dim(dim),
            rows: None,
        };
        (0..n).map(|_| Mutex::new(slot())).collect()
    }

    #[test]
    fn restore_rejects_a_disagreeing_checkpoint_before_folding_any_shard() {
        let live = shards(2, 4);
        let wrong_dim = ShardCheckpoint {
            dim: 9,
            shards: vec![],
        };
        let short_shard = ShardCheckpoint {
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
        for cp in [wrong_dim, short_shard] {
            assert!(matches!(
                restore_shards(&live, 4, &cp),
                Err(NetError::Codec(CodecError::Corrupt(_)))
            ));
        }
        // The valid shard ahead of the short one was not folded in.
        assert!(live.iter().all(|s| lock(s).shard.reports() == 0));
    }

    #[test]
    fn restore_folds_saved_shard_j_into_shard_j_mod_shards() {
        let live = shards(2, 3);
        let saved = |i: usize, reports: u64| ShardState {
            counts: (0..3).map(|v| u64::from(v == i) * reports).collect(),
            reports,
        };
        let cp = ShardCheckpoint {
            dim: 3,
            shards: vec![saved(0, 1), saved(1, 2), saved(2, 4)],
        };
        restore_shards(&live, 3, &cp).unwrap();
        let (a, b) = (&lock(&live[0]).shard, &lock(&live[1]).shard);
        assert_eq!((a.counts(), a.reports()), (&[1, 0, 4][..], 5));
        assert_eq!((b.counts(), b.reports()), (&[0, 2, 0][..], 2));
    }

    #[test]
    fn hello_submit_endround_round_trips_over_loopback() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 8, 2.0, 1.0), &obs).unwrap();
        let mut c = client(&daemon, &obs);
        c.send(&Frame::Hello {
            worker_id: 0,
            k: 8,
            dim: 8,
            method: Method::LGrr.name().into(),
        })
        .unwrap();
        let (_, ack) = c.recv().unwrap().unwrap();
        assert_eq!(
            ack,
            Frame::HelloAck {
                worker_id: 0,
                resume_seq: 0,
                round: 0
            }
        );

        let mut batch = ReportBatch::new();
        batch.push_report([3u32]);
        batch.push_report([5u32]);
        c.send(&Frame::Submit {
            seq: 1,
            key_base: 0,
            batch: batch.clone(),
        })
        .unwrap();
        let (_, ack) = c.recv().unwrap().unwrap();
        assert!(
            matches!(
                ack,
                Frame::Ack {
                    seq: 1,
                    reports: 2,
                    ..
                }
            ),
            "{ack:?}"
        );

        // A duplicate is re-acked without double-counting.
        c.send(&Frame::Submit {
            seq: 1,
            key_base: 0,
            batch,
        })
        .unwrap();
        let (_, dup) = c.recv().unwrap().unwrap();
        assert!(matches!(dup, Frame::Ack { seq: 1, .. }));

        c.send(&Frame::EndRound { round: 0 }).unwrap();
        let (_, result) = c.recv().unwrap().unwrap();
        match result {
            Frame::RoundResult {
                round,
                reports,
                estimate,
            } => {
                assert_eq!(round, 0);
                assert_eq!(reports, 2, "duplicate frame must not double-count");
                assert_eq!(estimate.len(), 8);
            }
            other => panic!("expected a round result, got {other:?}"),
        }

        daemon.trigger_drain();
        let report = daemon.join().unwrap();
        assert_eq!(report.rounds_finished, 1);
        assert_eq!(report.frames_applied, 1);
        assert!(!report.hard_killed);
    }

    #[test]
    fn submit_before_hello_is_a_typed_protocol_error() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LOue, 4, 1.0, 0.5), &obs).unwrap();
        let mut c = client(&daemon, &obs);
        let mut batch = ReportBatch::new();
        batch.push_report([0u32]);
        c.send(&Frame::Submit {
            seq: 1,
            key_base: 0,
            batch,
        })
        .unwrap();
        let (_, reply) = c.recv().unwrap().unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::Protocol,
                    ..
                }
            ),
            "{reply:?}"
        );
        daemon.trigger_drain();
        daemon.join().unwrap();
    }

    #[test]
    fn foreign_fingerprint_is_rejected_with_a_config_mismatch() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LOsue, 4, 1.0, 0.5), &obs).unwrap();
        let mut c = Conn::connect(
            daemon.local_addr(),
            daemon.fingerprint() ^ 1,
            &obs,
            Deadline::after(Duration::from_secs(5)),
        )
        .unwrap();
        c.send(&Frame::EndRound { round: 0 }).unwrap();
        let (_, reply) = c.recv().unwrap().unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::ConfigMismatch,
                    ..
                }
            ),
            "{reply:?}"
        );
        daemon.trigger_drain();
        daemon.join().unwrap();
    }

    #[test]
    fn a_previous_version_frame_is_malformed_and_closes_the_connection() {
        use crate::proto::{decode_frame, read_frame, write_frame, WIRE_MAGIC};
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 8, 2.0, 1.0), &obs).unwrap();
        let mut s = TcpStream::connect(daemon.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut w = ldp_primitives::codec::CodecWriter::new(WIRE_MAGIC, 2, daemon.fingerprint());
        w.put_u8(4); // an EndRound, as version 2 wrote it
        w.put_u64(0);
        write_frame(&mut s, &w.finish()).unwrap();
        let mut buf = Vec::new();
        assert!(read_frame(&mut s, &mut buf).unwrap(), "the daemon answers");
        let (_, reply) = decode_frame(&buf).unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::Malformed,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert!(!read_frame(&mut s, &mut buf).unwrap(), "then closes");
        daemon.trigger_drain();
        assert_eq!(daemon.join().unwrap().rounds_finished, 0);
    }

    #[test]
    fn idle_daemon_on_an_unspecified_address_drains_without_a_client() {
        let obs = MetricsRegistry::new();
        let mut cfg = DaemonConfig::new(Method::LGrr, 8, 2.0, 1.0);
        cfg.addr = SocketAddr::from(([0, 0, 0, 0], 0));
        let daemon = Collectd::start(cfg, &obs).unwrap();
        daemon.trigger_drain();
        let report = within_5s(move || daemon.join()).unwrap();
        assert!(!report.hard_killed);
        assert_eq!(report.connections_served, 0, "the wake is never served");
    }

    #[test]
    fn dropping_an_idle_daemon_returns() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 8, 2.0, 1.0), &obs).unwrap();
        within_5s(move || drop(daemon));
    }

    #[test]
    fn sequential_handshakes_do_not_wait_a_tick() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 8, 2.0, 1.0), &obs).unwrap();
        let t0 = Instant::now();
        for worker in 0..40 {
            let sink = NetSink::connect(
                daemon.local_addr(),
                worker,
                Method::LGrr,
                8,
                8,
                daemon.fingerprint(),
                64,
                &obs,
                Deadline::after(Duration::from_secs(5)),
            )
            .unwrap();
            drop(sink);
        }
        let took = t0.elapsed();
        // One TICK per handshake would be 400 ms; none may wait on a timer.
        assert!(
            took < Duration::from_millis(200),
            "40 handshakes took {took:?}"
        );
        daemon.trigger_drain();
        assert_eq!(daemon.join().unwrap().connections_served, 40);
    }
}
