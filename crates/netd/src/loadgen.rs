//! `loadgen`: the deterministic traffic driver for `collectd`.
//!
//! Loadgen owns a real [`ClientPool`] — the same per-user memoized
//! state and `(seed, user)`-derived RNG streams the in-process collect
//! path uses — and drives full sanitize rounds through N network sinks,
//! one TCP connection per worker. Because sanitization is a pure
//! function of (config, seed, round values) and the pool snapshots its
//! state at each round start, a round interrupted by a daemon crash is
//! *replayed*: the pool restores the round-start snapshot, reconnects,
//! and regenerates byte-identical frames with byte-identical sequence
//! numbers, which the daemon's session dedup then applies exactly once.
//! No client-side frame log is ever kept.
//!
//! A [`NetSink`] sends LOLOHA reports as ⟨hash, cell⟩
//! ([`Frame::SubmitHashed`], 17 bytes a report; a user's first report
//! also carries its row, so `collectd` never computes the rows of a
//! whole population that re-keys at once) and every other report as its
//! support ([`Frame::Submit`]); both kinds share one sequence.
//!
//! Each [`NetSink`] keeps up to eight submit frames in flight: it sends
//! a frame without waiting for the previous one's ack, and waits for the
//! oldest ack only when the window is full, and for all of them at the
//! end of its part of the round. The daemon acks in `seq` order, its
//! per-session dedup floor makes a resent frame harmless, and a `seq`
//! gap is an error, so every frame is still applied once and in order;
//! an error reply to any frame in the window surfaces at the next ack
//! wait.
//!
//! The round input itself comes from [`round_values`], a seeded FNV-1a
//! mix — tests and the CI smoke drill call the same function to know
//! exactly what traffic a given (seed, round) produced.

use crate::conn::Conn;
use crate::deadline::Deadline;
use crate::error::NetError;
use crate::proto::{
    config_fingerprint, hashed_payload_len, submit_len_bound, Frame, HashedBatch, MAX_FRAME_LEN,
    MAX_WIRE_DIM, MAX_WIRE_INDICES, MAX_WIRE_REPORTS,
};
use ldp_client::{ClientConfig, ClientPool, HashedReport, ReportSink};
use ldp_hash::SeededHash;
use ldp_ingest::ReportBatch;
use ldp_obs::{Histogram, MetricsRegistry, Span};
use ldp_primitives::codec::{fnv1a, CHECKSUM_LEN, HEADER_LEN};
use ldp_runtime::Method;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Most reports per submit frame when the caller does not override it.
/// Hashed LOLOHA reports fill frames this large (1024 of them make a
/// 17 KiB frame); a frame of supports stops at 128 reports.
pub const DEFAULT_FRAME_REPORTS: usize = 1024;

/// Most reports in a frame of supports (rows or index lists), whatever
/// the caller's `frame_reports`: a support spans up to `k` bits, so 128
/// of them already make a 23.6 KB frame of BiLOLOHA rows at the DB_MT
/// domain.
const SUPPORT_FRAME_REPORTS: usize = 128;

/// Body bytes past which a [`NetSink`] cuts a frame of two or more
/// hashed reports. Each frame costs a write, a read and an ack on both
/// sides, so hashed frames are sized in bytes: about what 128 BiLOLOHA
/// rows made at the DB_MT domain (23.6 KB).
const HASHED_FRAME_BYTES: usize = 32 << 10;

/// Submit frames a [`NetSink`] keeps sent but unacked before it waits
/// for the oldest one's ack.
const WINDOW: usize = 8;

/// Loadgen configuration. Construct with [`LoadgenConfig::new`] and
/// override fields as needed.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The daemon to drive.
    pub addr: SocketAddr,
    /// Frequency protocol (must match the daemon's).
    pub method: Method,
    /// Input domain size (must match the daemon's).
    pub k: u64,
    /// Longitudinal privacy budget (`ε_∞`).
    pub eps_inf: f64,
    /// First-report budget (`ε_1`).
    pub eps_first: f64,
    /// Population size.
    pub users: usize,
    /// Collection rounds to run.
    pub rounds: u64,
    /// Connection workers (one TCP connection each; clamped to ≥ 1).
    pub workers: usize,
    /// Most reports packed per submit frame (clamped to
    /// `[1, MAX_WIRE_REPORTS]`); a frame of supports, rather than hashed
    /// LOLOHA reports, holds at most 128.
    pub frame_reports: usize,
    /// Master seed for the pool's per-user streams and [`round_values`].
    pub seed: u64,
    /// Budget for replaying a round through daemon restarts (`None`
    /// fails fast on the first transport error).
    pub retry_timeout: Option<Duration>,
    /// Send an in-band `Shutdown` (drain + final checkpoint) after the
    /// last round.
    pub shutdown: bool,
}

impl LoadgenConfig {
    /// A loopback loadgen for `method` with library defaults.
    pub fn new(addr: SocketAddr, method: Method, k: u64, eps_inf: f64, eps_first: f64) -> Self {
        Self {
            addr,
            method,
            k,
            eps_inf,
            eps_first,
            users: 100,
            rounds: 1,
            workers: 2,
            frame_reports: DEFAULT_FRAME_REPORTS,
            seed: 42,
            retry_timeout: None,
            shutdown: false,
        }
    }
}

/// One finished round as reported by the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// The round index.
    pub round: u64,
    /// Reports the daemon folded into the round.
    pub reports: u64,
    /// The daemon's frequency estimate for the round.
    pub estimate: Vec<f64>,
}

/// What a loadgen run did, returned by [`run_loadgen`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Every finished round, in order.
    pub rounds: Vec<RoundOutcome>,
    /// Reports submitted and acked (replay-skipped frames excluded).
    pub reports: u64,
    /// Submit frames sent and acked.
    pub frames: u64,
    /// Round replays forced by retryable failures.
    pub retries: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Acked reports per wall-clock second.
    pub reports_per_sec: f64,
}

/// The deterministic round input: user `u`'s value for `round` under
/// `seed`, an FNV-1a mix reduced mod `k`. Exported so tests and the CI
/// drill can reconstruct exactly the traffic a loadgen run produced.
pub fn round_values(seed: u64, round: u64, users: usize, k: u64) -> Vec<u64> {
    let k = k.max(1);
    (0..users as u64)
        .map(|u| {
            let mut bytes = [0u8; 24];
            bytes[..8].copy_from_slice(&seed.to_le_bytes());
            bytes[8..16].copy_from_slice(&round.to_le_bytes());
            bytes[16..].copy_from_slice(&u.to_le_bytes());
            fnv1a(&bytes) % k
        })
        .collect()
}

/// One worker's connection to the daemon, packing contiguously keyed
/// reports into submit frames and keeping up to eight of them in flight
/// (see the [module docs](self)). Implements [`ReportSink`], so
/// [`ClientPool::sanitize_round_sinks`] can drive it directly.
pub struct NetSink {
    conn: Conn,
    worker_id: u32,
    /// Last sequence number assigned (acked or replay-skipped).
    seq: u64,
    /// The daemon's applied high-water from the handshake: frames with
    /// `seq <= resume_seq` are regenerated but not resent.
    resume_seq: u64,
    /// The daemon's round at handshake time.
    server_round: u64,
    /// The domain size: a report without its row costs the daemon a
    /// pass over `[0, k)`.
    k: u64,
    frame_reports: usize,
    batch: ReportBatch,
    /// Indices (set bits, for rows) in `batch`.
    indices: usize,
    /// The open frame's hashed reports; at most one of `batch` and
    /// `hashed` holds reports.
    hashed: HashedBatch,
    key_base: u64,
    next_key: u64,
    /// Sent, unacked frames as (seq, reports), oldest first.
    unacked: VecDeque<(u64, u32)>,
    ack_wait_ns: Histogram,
    frames_acked: u64,
    reports_acked: u64,
}

impl NetSink {
    /// Dials the daemon and completes the hello handshake for
    /// `worker_id`.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        addr: SocketAddr,
        worker_id: u32,
        method: Method,
        k: u64,
        dim: u64,
        fingerprint: u64,
        frame_reports: usize,
        obs: &MetricsRegistry,
        deadline: Deadline,
    ) -> Result<Self, NetError> {
        let mut conn = Conn::connect(addr, fingerprint, obs, deadline)?;
        conn.send(&Frame::Hello {
            worker_id,
            k,
            dim,
            method: method.name().into(),
        })?;
        let (resume_seq, server_round) = match conn.recv()? {
            Some((
                _,
                Frame::HelloAck {
                    worker_id: echoed,
                    resume_seq,
                    round,
                },
            )) if echoed == worker_id => (resume_seq, round),
            Some((_, Frame::Error { code, detail })) => {
                return Err(NetError::Remote { code, detail })
            }
            Some(_) => return Err(NetError::Protocol("unexpected reply to hello")),
            None => return Err(NetError::Io("daemon closed during handshake".into())),
        };
        Ok(Self {
            conn,
            worker_id,
            seq: 0,
            resume_seq,
            server_round,
            k,
            frame_reports: frame_reports.clamp(1, MAX_WIRE_REPORTS as usize),
            batch: ReportBatch::new(),
            indices: 0,
            hashed: HashedBatch::new(2, 0),
            key_base: 0,
            next_key: 0,
            unacked: VecDeque::with_capacity(WINDOW),
            ack_wait_ns: obs.histogram("ldp.netd.loadgen.ack_wait_ns"),
            frames_acked: 0,
            reports_acked: 0,
        })
    }

    /// The session id this sink handshook with.
    pub fn worker_id(&self) -> u32 {
        self.worker_id
    }

    /// The daemon's round at handshake time.
    pub fn server_round(&self) -> u64 {
        self.server_round
    }

    /// Frames sent and acked through this sink (replay-skips excluded).
    pub fn frames_acked(&self) -> u64 {
        self.frames_acked
    }

    /// Reports sent and acked through this sink.
    pub fn reports_acked(&self) -> u64 {
        self.reports_acked
    }

    /// Reports in the open frame.
    fn open_reports(&self) -> usize {
        self.batch.report_count() + self.hashed.len()
    }

    fn flush_frame(&mut self) -> Result<(), NetError> {
        let reports = self.open_reports();
        if reports == 0 {
            return Ok(());
        }
        self.seq += 1;
        if self.seq <= self.resume_seq {
            // The daemon already applied this frame before it restarted;
            // regeneration keeps the RNG streams and sequence numbers
            // aligned, but resending would only earn a duplicate-ack.
            self.batch.clear();
            self.hashed.reset(self.hashed.g(), self.hashed.row_words());
            return Ok(());
        }
        let reports =
            u32::try_from(reports).map_err(|_| NetError::BadBatch("report count beyond u32"))?;
        if self.unacked.len() == WINDOW {
            self.await_ack()?;
        }
        let (seq, key_base) = (self.seq, self.key_base);
        let frame = if self.hashed.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            Frame::Submit {
                seq,
                key_base,
                batch,
            }
        } else {
            let batch = std::mem::replace(&mut self.hashed, HashedBatch::new(2, 0));
            Frame::SubmitHashed {
                seq,
                key_base,
                batch,
            }
        };
        let sent = self.conn.send(&frame);
        // The next frame reuses the batch's buffers.
        match frame {
            Frame::Submit { mut batch, .. } => {
                batch.clear();
                self.batch = batch;
            }
            Frame::SubmitHashed { mut batch, .. } => {
                batch.reset(batch.g(), batch.row_words());
                self.hashed = batch;
            }
            _ => {}
        }
        sent?;
        self.unacked.push_back((self.seq, reports));
        Ok(())
    }

    /// Waits for the oldest unacked frame's reply: its ack, or the error
    /// the daemon answered it with.
    fn await_ack(&mut self) -> Result<(), NetError> {
        let Some(&(want, reports)) = self.unacked.front() else {
            return Ok(());
        };
        let _timed = Span::enter(&self.ack_wait_ns);
        match self.conn.recv()? {
            Some((_, Frame::Ack { seq, .. })) if seq == want => {
                self.unacked.pop_front();
                self.frames_acked += 1;
                self.reports_acked += u64::from(reports);
                Ok(())
            }
            Some((_, Frame::Error { code, detail })) => Err(NetError::Remote { code, detail }),
            Some(_) => Err(NetError::Protocol("unexpected reply to submit")),
            None => Err(NetError::Io("daemon closed awaiting ack".into())),
        }
    }

    /// Sends any buffered reports and waits for every frame's ack.
    fn flush_all(&mut self) -> Result<(), NetError> {
        self.flush_frame()?;
        while !self.unacked.is_empty() {
            self.await_ack()?;
        }
        Ok(())
    }

    /// Barriers the round on the daemon and returns its merged outcome.
    /// Flushes any buffered reports and waits for every ack first.
    pub fn end_round(&mut self, round: u64) -> Result<RoundOutcome, NetError> {
        self.flush_all()?;
        self.conn.send(&Frame::EndRound { round })?;
        match self.conn.recv()? {
            Some((
                _,
                Frame::RoundResult {
                    round: got,
                    reports,
                    estimate,
                },
            )) if got == round => Ok(RoundOutcome {
                round,
                reports,
                estimate,
            }),
            Some((_, Frame::Error { code, detail })) => Err(NetError::Remote { code, detail }),
            Some(_) => Err(NetError::Protocol("unexpected reply to end-round")),
            None => Err(NetError::Io("daemon closed awaiting round result".into())),
        }
    }

    /// Opens room in the frame for `user`'s report of `shape`: the open
    /// frame is flushed first when the key does not follow on, the
    /// report's shape differs, or the frame is full with it. A frame of
    /// supports is full past `frame_reports` (at most
    /// [`SUPPORT_FRAME_REPORTS`]) reports, [`MAX_WIRE_INDICES`] indices or
    /// [`MAX_FRAME_LEN`] bytes; a hashed frame past `frame_reports`
    /// reports, [`HASHED_FRAME_BYTES`] bytes or, without rows, `k`-value
    /// passes over [`MAX_WIRE_DIM`] values (the daemon's build cap). A
    /// single report may fill a frame up to [`MAX_FRAME_LEN`].
    fn make_room(&mut self, user: u64, shape: Shape) -> Result<(), NetError> {
        let reports = self.open_reports();
        if reports > 0 {
            let n = reports + 1;
            let fits = match shape {
                Shape::Hashed { g, words } => {
                    let body = HEADER_LEN + 1 + hashed_payload_len(n, words) + CHECKSUM_LEN;
                    let passes = if words == 0 { n as u64 } else { 0 };
                    !self.hashed.is_empty()
                        && (self.hashed.g(), self.hashed.row_words()) == (g, words)
                        && n <= self.frame_reports
                        && body <= HASHED_FRAME_BYTES
                        && passes.saturating_mul(self.k) <= u64::from(MAX_WIRE_DIM)
                }
                Shape::Support { row_words, indices } => {
                    let total = self.indices + indices;
                    self.hashed.is_empty()
                        && self.batch.takes(row_words)
                        && n <= self.frame_reports.min(SUPPORT_FRAME_REPORTS)
                        && total <= MAX_WIRE_INDICES as usize
                        && submit_len_bound(n, total, row_words) <= MAX_FRAME_LEN as usize
                }
            };
            if user != self.next_key || !fits {
                self.flush_frame()?;
            }
        }
        if self.open_reports() == 0 {
            self.key_base = user;
            self.indices = 0;
            if let Shape::Hashed { g, words } = shape {
                self.hashed.reset(g, words);
            }
        }
        if let Shape::Support { indices, .. } = shape {
            self.indices += indices;
        }
        self.next_key = user + 1;
        Ok(())
    }
}

/// What a report needs of the frame it joins.
#[derive(Clone, Copy)]
enum Shape {
    /// A support of `indices` indices: a row of `row_words` words, or
    /// (`None`) a list.
    Support {
        row_words: Option<usize>,
        indices: usize,
    },
    /// A hashed report over `g` cells, carrying a row of `words` words
    /// (none when 0).
    Hashed { g: u32, words: usize },
}

impl ReportSink for NetSink {
    type Error = NetError;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), NetError> {
        if support.iter().any(|&index| u32::try_from(index).is_err()) {
            return Err(NetError::BadBatch("index beyond u32"));
        }
        self.make_room(
            user,
            Shape::Support {
                row_words: None,
                indices: support.len(),
            },
        )?;
        // Every index fits u32 (checked just above), so the cast is lossless.
        self.batch
            .push_report(support.iter().map(|&index| index as u32));
        Ok(())
    }

    fn submit_row(&mut self, user: u64, row: &[u64]) -> Result<(), NetError> {
        if row.is_empty() {
            return self.submit(user, &[]);
        }
        let indices = row.iter().map(|w| w.count_ones() as usize).sum();
        self.make_room(
            user,
            Shape::Support {
                row_words: Some(row.len()),
                indices,
            },
        )?;
        self.batch.push_row(row);
        Ok(())
    }

    fn submit_hashed(
        &mut self,
        user: u64,
        report: HashedReport,
        row: &[u64],
    ) -> Result<(), NetError> {
        // A first report's row spares the daemon computing it.
        let row = if report.fresh { row } else { &[] };
        let (g, words) = (report.hash.g(), row.len());
        self.make_room(user, Shape::Hashed { g, words })?;
        self.hashed.push(report.hash, report.cell, row);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), NetError> {
        self.flush_all()
    }
}

/// Runs the whole traffic schedule against a daemon and returns the
/// per-round outcomes plus throughput accounting. Retryable failures
/// (daemon draining, transport faults) replay the interrupted round
/// from its in-memory pool snapshot until [`LoadgenConfig::retry_timeout`]
/// runs out.
pub fn run_loadgen(cfg: &LoadgenConfig, obs: &MetricsRegistry) -> Result<LoadgenReport, NetError> {
    let client_cfg = ClientConfig::for_method(cfg.method, cfg.k, cfg.eps_inf, cfg.eps_first)
        .map_err(|e| NetError::Pipeline(e.to_string()))?;
    // The aggregation dimension by the daemon's own rule (for bucketized
    // dBitFlipPM it is `b`, not `k`).
    let dim = cfg.method.dim(cfg.k);
    let fingerprint = config_fingerprint(cfg.method, cfg.k, dim as u64, cfg.eps_inf, cfg.eps_first);
    let mut pool = ClientPool::with_obs(client_cfg, cfg.seed, cfg.users, obs)
        .map_err(|e| NetError::Pipeline(e.to_string()))?;

    let started = Instant::now();
    let mut report = LoadgenReport {
        rounds: Vec::new(),
        reports: 0,
        frames: 0,
        retries: 0,
        elapsed: Duration::ZERO,
        reports_per_sec: 0.0,
    };

    for round in 0..cfg.rounds {
        let values = round_values(cfg.seed, round, cfg.users, cfg.k);
        let snapshot = pool.checkpoint();
        let budget = match cfg.retry_timeout {
            Some(t) => Deadline::after(t),
            None => Deadline::expired(),
        };
        loop {
            match run_round(
                cfg,
                fingerprint,
                dim,
                &mut pool,
                &values,
                round,
                obs,
                &mut report,
            ) {
                Ok(outcome) => {
                    report.rounds.push(outcome);
                    break;
                }
                Err(e) if e.retryable() && !budget.is_expired() => {
                    report.retries += 1;
                    obs.counter("ldp.netd.loadgen.retries").inc();
                    pool.restore(&snapshot)
                        .map_err(|e| NetError::Pipeline(e.to_string()))?;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        }
    }

    if cfg.shutdown {
        let mut conn = Conn::connect(
            cfg.addr,
            fingerprint,
            obs,
            Deadline::after(Duration::from_secs(30)),
        )?;
        conn.send(&Frame::Shutdown)?;
        match conn.recv()? {
            Some((_, Frame::ShutdownAck { .. })) | None => {}
            Some((_, Frame::Error { code, detail })) => {
                return Err(NetError::Remote { code, detail })
            }
            Some(_) => return Err(NetError::Protocol("unexpected reply to shutdown")),
        }
    }

    report.elapsed = started.elapsed();
    report.reports_per_sec = if report.elapsed.as_secs_f64() > 0.0 {
        report.reports as f64 / report.elapsed.as_secs_f64()
    } else {
        0.0
    };
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn run_round(
    cfg: &LoadgenConfig,
    fingerprint: u64,
    dim: usize,
    pool: &mut ClientPool,
    values: &[u64],
    round: u64,
    obs: &MetricsRegistry,
    report: &mut LoadgenReport,
) -> Result<RoundOutcome, NetError> {
    let workers = cfg.workers.clamp(1, cfg.users.max(1));
    let deadline = Deadline::after(Duration::from_secs(30));
    let mut sinks = Vec::with_capacity(workers);
    for w in 0..workers {
        sinks.push(NetSink::connect(
            cfg.addr,
            u32::try_from(w).map_err(|_| NetError::Protocol("worker id beyond u32"))?,
            cfg.method,
            cfg.k,
            dim as u64,
            fingerprint,
            cfg.frame_reports,
            obs,
            deadline,
        )?);
    }
    // A daemon that already folded this round (it crashed after the
    // round checkpoint but before our result arrived) must not receive
    // the traffic again — replaying into the next round would
    // double-count. Fetch the cached result instead.
    if sinks[0].server_round() == round + 1 {
        return sinks[0].end_round(round);
    }
    if sinks[0].server_round() != round {
        return Err(NetError::Protocol("daemon round out of step with schedule"));
    }
    pool.sanitize_round_sinks(values, &mut sinks)?;
    let outcome = sinks[0].end_round(round)?;
    for sink in &sinks {
        report.frames += sink.frames_acked();
        report.reports += sink.reports_acked();
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Collectd, DaemonConfig};
    use crate::error::ErrorCode;

    /// A one-report-per-frame sink on session `worker` of `daemon`.
    fn sink(daemon: &Collectd, worker: u32, obs: &MetricsRegistry) -> NetSink {
        NetSink::connect(
            daemon.local_addr(),
            worker,
            Method::LGrr,
            8,
            8,
            daemon.fingerprint(),
            1,
            obs,
            Deadline::after(Duration::from_secs(5)),
        )
        .unwrap()
    }

    fn out_of_range<T>(result: Result<T, NetError>) -> bool {
        matches!(
            result,
            Err(NetError::Remote {
                code: ErrorCode::SupportOutOfRange,
                ..
            })
        )
    }

    #[test]
    fn an_error_reply_inside_the_window_is_never_skipped() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 8, 2.0, 1.0), &obs).unwrap();

        // Frame 1 is out of range. Frames 2..=8 go out behind it, and
        // sending frame 9 waits for frame 1's reply: the error.
        let mut s = sink(&daemon, 0, &obs);
        s.submit(0, &[9]).unwrap();
        for user in 1..=WINDOW as u64 {
            s.submit(user, &[1]).unwrap();
        }
        assert!(out_of_range(s.submit(WINDOW as u64 + 1, &[1])));
        assert_eq!(s.frames_acked(), 0);

        // An error behind acked frames surfaces at the end of the part.
        let mut s = sink(&daemon, 1, &obs);
        for (user, index) in [(0u64, 1usize), (1, 2), (2, 8), (3, 3)] {
            s.submit(user, &[index]).unwrap();
        }
        assert!(out_of_range(s.finish()));
        assert_eq!(s.frames_acked(), 2);

        // And at the round end.
        let mut s = sink(&daemon, 2, &obs);
        s.submit(0, &[8]).unwrap();
        assert!(out_of_range(s.end_round(0)));

        daemon.trigger_drain();
        assert_eq!(daemon.join().unwrap().frames_applied, 2);
    }

    #[test]
    fn round_values_are_deterministic_and_in_domain() {
        let a = round_values(7, 3, 100, 16);
        let b = round_values(7, 3, 100, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v < 16));
        assert_ne!(a, round_values(7, 4, 100, 16), "rounds differ");
        assert_ne!(a, round_values(8, 3, 100, 16), "seeds differ");
        // The mix actually spreads over the domain.
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 4);
    }
}
