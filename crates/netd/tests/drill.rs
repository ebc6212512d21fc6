//! Crash/drain drill: the network path must be a transparent transport.
//!
//! Three arms, each comparing the daemon's round estimates against an
//! uninterrupted in-process reference (`ClientPool` sanitizing straight
//! into an `IngestPipeline`) bit-for-bit via `f64::to_bits`:
//!
//! 1. **Equivalence** — a clean loadgen → collectd run over loopback,
//!    every method, plus a multi-round schedule.
//! 2. **Drain** — a daemon absorbs a prefix of the round, drains
//!    gracefully (final checkpoint), a fresh daemon resumes from disk,
//!    and a full loadgen replay dedups the prefix via `resume_seq`.
//! 3. **Hard kill** — the daemon dies mid-round with *no* final
//!    checkpoint; loadgen retries against a restarted daemon on the
//!    same address until the round lands.
//!
//! Determinism rests on two properties pinned elsewhere: per-user RNG
//! streams are independent of worker chunking (client crate), and
//! estimate computation is a pure function of merged counts (runtime
//! crate). Here we pin that the wire, checkpoint, and dedup layers
//! preserve those counts exactly.

use ldp_client::{ClientConfig, ClientPool, ReportBuf, ReportSink};
use ldp_ingest::IngestPipeline;
use ldp_netd::{
    config_fingerprint, round_values, run_loadgen, Collectd, DaemonConfig, Deadline, LoadgenConfig,
    NetSink,
};
use ldp_obs::MetricsRegistry;
use ldp_runtime::{Method, ShardedAggregator};
use std::path::PathBuf;
use std::time::Duration;

/// A telemetry registry that records nothing.
fn off() -> MetricsRegistry {
    MetricsRegistry::disabled()
}

const K: u64 = 8;
const EPS_INF: f64 = 2.0;
const EPS_FIRST: f64 = 1.0;
const SEED: u64 = 0xD1A1;

/// A per-test scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ldp_netd_drill_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The uninterrupted in-process reference: same seed, same population,
/// same per-round values, straight into the ingest pipeline.
fn reference_rounds(
    method: Method,
    users: usize,
    rounds: u64,
    workers: usize,
) -> Vec<(u64, Vec<f64>)> {
    let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
    let mut pool = ClientPool::with_obs(cfg, SEED, users, &off()).unwrap();
    let mut pipeline =
        IngestPipeline::for_method_obs(method, K, EPS_INF, EPS_FIRST, workers, &off()).unwrap();
    let mut out = Vec::new();
    for round in 0..rounds {
        let values = round_values(SEED, round, users, K);
        pool.sanitize_round(&values, workers, &pipeline.handle())
            .unwrap();
        let snap = pipeline.finish_round().unwrap();
        out.push((snap.reports, snap.estimate));
    }
    out
}

fn assert_bit_identical(method: Method, reference: &[(u64, Vec<f64>)], got: &[(u64, Vec<f64>)]) {
    assert_eq!(reference.len(), got.len(), "{}: round count", method.name());
    for (round, (r, g)) in reference.iter().zip(got).enumerate() {
        assert_eq!(r.0, g.0, "{} round {round}: reports", method.name());
        assert_eq!(
            r.1.len(),
            g.1.len(),
            "{} round {round}: estimate dim",
            method.name()
        );
        for (i, (a, b)) in r.1.iter().zip(&g.1).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} round {round} bin {i}: {a} vs {b}",
                method.name()
            );
        }
    }
}

fn daemon_config(method: Method) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(method, K, EPS_INF, EPS_FIRST);
    cfg.workers = 2;
    cfg
}

fn loadgen_config(
    addr: std::net::SocketAddr,
    method: Method,
    users: usize,
    rounds: u64,
    workers: usize,
) -> LoadgenConfig {
    let mut cfg = LoadgenConfig::new(addr, method, K, EPS_INF, EPS_FIRST);
    cfg.users = users;
    cfg.rounds = rounds;
    cfg.workers = workers;
    cfg.frame_reports = 5; // several frames per round even at test scale
    cfg.seed = SEED;
    cfg
}

#[test]
fn loopback_collection_is_bit_identical_to_in_process_for_every_method() {
    let users = 24;
    for method in Method::all() {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(daemon_config(method), &obs).unwrap();
        let cfg = loadgen_config(daemon.local_addr(), method, users, 1, 2);
        let report = run_loadgen(&cfg, &obs).unwrap();
        daemon.trigger_drain();
        let dreport = daemon.join().unwrap();

        assert_eq!(report.retries, 0, "{}: clean run", method.name());
        assert_eq!(
            report.reports,
            users as u64,
            "{}: every report acked exactly once",
            method.name()
        );
        assert_eq!(dreport.frames_applied, report.frames, "{}", method.name());
        let got: Vec<_> = report
            .rounds
            .iter()
            .map(|r| (r.reports, r.estimate.clone()))
            .collect();
        assert_bit_identical(method, &reference_rounds(method, users, 1, 2), &got);
    }
}

#[test]
fn multi_round_schedules_cycle_end_round_correctly() {
    let users = 18;
    let rounds = 3;
    for method in [Method::BiLoloha, Method::BBitFlip] {
        let obs = MetricsRegistry::new();
        let daemon = Collectd::start(daemon_config(method), &obs).unwrap();
        let cfg = loadgen_config(daemon.local_addr(), method, users, rounds, 2);
        let report = run_loadgen(&cfg, &obs).unwrap();
        daemon.trigger_drain();
        let dreport = daemon.join().unwrap();

        assert_eq!(dreport.rounds_finished, rounds, "{}", method.name());
        let got: Vec<_> = report
            .rounds
            .iter()
            .map(|r| (r.reports, r.estimate.clone()))
            .collect();
        assert_bit_identical(method, &reference_rounds(method, users, rounds, 2), &got);
    }
}

/// Replays the first full frame of each loadgen worker's chunk by hand:
/// a fresh pool (identical to the one `run_loadgen` will build) walks
/// each worker's user range in order, exactly as
/// `sanitize_round_sinks` would, and stops after one wire frame. The
/// daemon applies and checkpoints this prefix; the later full replay
/// must skip it via `resume_seq`.
fn send_prefix(
    daemon: &Collectd,
    method: Method,
    users: usize,
    workers: usize,
    frame_reports: usize,
    obs: &MetricsRegistry,
) -> u64 {
    let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
    let mut pool = ClientPool::with_obs(cfg, SEED, users, &off()).unwrap();
    let dim = ShardedAggregator::for_method_obs(method, K, EPS_INF, EPS_FIRST, 1, &off())
        .unwrap()
        .dim();
    let fingerprint = config_fingerprint(method, K, dim as u64, EPS_INF, EPS_FIRST);
    let values = round_values(SEED, 0, users, K);
    let chunk = users.div_ceil(workers).max(1);
    let mut buf = ReportBuf::new();
    let mut sent = 0u64;
    for w in 0..workers {
        let start = w * chunk;
        let end = users.min(start + chunk);
        if start >= end {
            break;
        }
        let prefix_end = end.min(start + frame_reports);
        let mut sink = NetSink::connect(
            daemon.local_addr(),
            u32::try_from(w).unwrap(),
            method,
            K,
            dim as u64,
            fingerprint,
            frame_reports,
            obs,
            Deadline::after(Duration::from_secs(10)),
        )
        .unwrap();
        assert_eq!(sink.server_round(), 0);
        for (user, &value) in values.iter().enumerate().take(prefix_end).skip(start) {
            pool.sanitize_one(user, value, &mut buf);
            sink.submit(user as u64, buf.support()).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(sink.frames_acked(), 1, "one aligned prefix frame");
        sent += sink.reports_acked();
    }
    sent
}

#[test]
fn graceful_drain_and_resume_is_bit_identical_for_every_method_and_worker_count() {
    let users = 12;
    let frame_reports = 2;
    for method in Method::all() {
        for workers in [1usize, 3] {
            let tag = format!("drain_{}_{workers}", method.name().replace('-', "_"));
            let dir = TempDir::new(&tag);
            let obs = MetricsRegistry::new();

            // Phase 1: daemon A absorbs an aligned prefix, checkpointing
            // after every frame, then drains gracefully.
            let mut dcfg = daemon_config(method);
            dcfg.dir = Some(dir.0.clone());
            dcfg.checkpoint_every = 1;
            let daemon_a = Collectd::start(dcfg.clone(), &obs).unwrap();
            assert!(!daemon_a.resumed());
            let prefix = send_prefix(&daemon_a, method, users, workers, frame_reports, &obs);
            assert!(prefix > 0, "{}: prefix reached the daemon", method.name());
            daemon_a.trigger_drain();
            let report_a = daemon_a.join().unwrap();
            assert!(!report_a.hard_killed);
            assert_eq!(report_a.frames_applied, workers.min(users) as u64);

            // Phase 2: daemon B resumes from A's checkpoint; a full
            // loadgen replay regenerates the round and skips the prefix.
            let daemon_b = Collectd::start(dcfg, &obs).unwrap();
            assert!(daemon_b.resumed(), "{}: daemon B resumed", method.name());
            let mut lcfg = loadgen_config(daemon_b.local_addr(), method, users, 1, workers);
            lcfg.frame_reports = frame_reports;
            let report = run_loadgen(&lcfg, &obs).unwrap();
            daemon_b.trigger_drain();
            daemon_b.join().unwrap();

            assert_eq!(
                report.reports + prefix,
                users as u64,
                "{} x{workers}: replay resent only the unapplied suffix",
                method.name()
            );
            let got: Vec<_> = report
                .rounds
                .iter()
                .map(|r| (r.reports, r.estimate.clone()))
                .collect();
            assert_bit_identical(method, &reference_rounds(method, users, 1, workers), &got);
        }
    }
}

#[test]
fn hard_kill_mid_round_resumes_bit_identical_for_every_method() {
    let users = 16;
    for method in Method::all() {
        let tag = format!("kill_{}", method.name().replace('-', "_"));
        let dir = TempDir::new(&tag);
        let obs = MetricsRegistry::new();

        // Daemon A dies (no final checkpoint) after 3 applied frames;
        // its last periodic checkpoint covers at most the first 2.
        let mut dcfg = daemon_config(method);
        dcfg.dir = Some(dir.0.clone());
        dcfg.checkpoint_every = 2;
        dcfg.kill_after_frames = Some(3);
        let daemon_a = Collectd::start(dcfg.clone(), &obs).unwrap();
        let addr = daemon_a.local_addr();

        // The "operator": waits out the crash, then restarts on the same
        // address so the retrying loadgen can find the daemon again.
        let mut restart_cfg = dcfg;
        restart_cfg.addr = addr;
        restart_cfg.kill_after_frames = None;
        let restart_obs = obs.clone();
        let operator = std::thread::spawn(move || {
            let report_a = daemon_a.join().unwrap();
            let daemon_b = Collectd::start(restart_cfg, &restart_obs).unwrap();
            (report_a, daemon_b)
        });

        let mut lcfg = loadgen_config(addr, method, users, 1, 2);
        lcfg.frame_reports = 2; // 4 frames per worker: the kill lands mid-round
        lcfg.retry_timeout = Some(Duration::from_secs(60));
        let report = run_loadgen(&lcfg, &obs).unwrap();

        let (report_a, daemon_b) = operator.join().unwrap();
        daemon_b.trigger_drain();
        daemon_b.join().unwrap();

        assert!(report_a.hard_killed, "{}: A died hard", method.name());
        assert!(
            report.retries > 0,
            "{}: the round was replayed",
            method.name()
        );
        let got: Vec<_> = report
            .rounds
            .iter()
            .map(|r| (r.reports, r.estimate.clone()))
            .collect();
        assert_bit_identical(method, &reference_rounds(method, users, 1, 2), &got);
    }
}

/// A loadgen sink's ack window: it sends this many frames before it
/// reads the first ack.
const WINDOW: u64 = 8;

#[test]
fn hard_kill_with_a_full_window_in_flight_applies_every_frame_once() {
    let (users, workers) = (24usize, 2usize);
    for method in Method::all() {
        let tag = format!("window_{}", method.name().replace('-', "_"));
        let dir = TempDir::new(&tag);
        let obs = MetricsRegistry::new();

        // Daemon A checkpoints after frame 5 and dies right after it
        // applies frame 8, the last of one full window.
        let mut dcfg = daemon_config(method);
        dcfg.dir = Some(dir.0.clone());
        dcfg.checkpoint_every = 5;
        dcfg.kill_after_frames = Some(WINDOW);
        let daemon_a = Collectd::start(dcfg.clone(), &obs).unwrap();

        // Worker 0 sends its first 8 one-report frames, exactly as the
        // loadgen below will, and reads no ack: the daemon can only die
        // once it applied all 8, so it dies with the whole window in
        // flight.
        let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
        let mut pool = ClientPool::with_obs(cfg, SEED, users, &off()).unwrap();
        let dim = method.dim(K);
        let fingerprint = config_fingerprint(method, K, dim as u64, EPS_INF, EPS_FIRST);
        let values = round_values(SEED, 0, users, K);
        let mut sink = NetSink::connect(
            daemon_a.local_addr(),
            0,
            method,
            K,
            dim as u64,
            fingerprint,
            1,
            &obs,
            Deadline::after(Duration::from_secs(10)),
        )
        .unwrap();
        let mut buf = ReportBuf::new();
        for (user, &value) in values.iter().enumerate().take(WINDOW as usize + 1) {
            pool.sanitize_one(user, value, &mut buf);
            sink.submit(user as u64, buf.support()).unwrap();
        }
        assert_eq!(
            sink.frames_acked(),
            0,
            "{}: 8 frames unacked",
            method.name()
        );
        let report_a = daemon_a.join().unwrap();
        assert!(report_a.hard_killed, "{}: A died hard", method.name());
        assert_eq!(report_a.frames_applied, WINDOW, "{}", method.name());
        assert!(
            sink.finish().is_err(),
            "{}: frame 9 finds no daemon",
            method.name()
        );
        drop(sink);

        // Daemon B resumes from the checkpoint after frame 5: frames 6-8,
        // applied by A and lost with it, are resent once.
        dcfg.kill_after_frames = None;
        let daemon_b = Collectd::start(dcfg, &obs).unwrap();
        assert!(daemon_b.resumed(), "{}: daemon B resumed", method.name());
        let mut lcfg = loadgen_config(daemon_b.local_addr(), method, users, 1, workers);
        lcfg.frame_reports = 1;
        let report = run_loadgen(&lcfg, &obs).unwrap();
        daemon_b.trigger_drain();
        let report_b = daemon_b.join().unwrap();

        assert_eq!(
            report.reports + 5,
            users as u64,
            "{}: the replay resent everything past the checkpoint",
            method.name()
        );
        assert_eq!(
            report_b.frames_applied,
            report.frames,
            "{}: every acked frame applied once",
            method.name()
        );
        let got: Vec<_> = report
            .rounds
            .iter()
            .map(|r| (r.reports, r.estimate.clone()))
            .collect();
        assert_bit_identical(method, &reference_rounds(method, users, 1, workers), &got);
    }
}

#[test]
fn loadgen_retries_through_a_kill_with_windows_in_flight_bit_identical() {
    let (users, workers) = (48usize, 2usize);
    for method in Method::all() {
        let tag = format!("window_retry_{}", method.name().replace('-', "_"));
        let dir = TempDir::new(&tag);
        let obs = MetricsRegistry::new();

        // 24 one-report frames per session; A dies after 12 applied
        // frames, with both sessions' windows open.
        let mut dcfg = daemon_config(method);
        dcfg.dir = Some(dir.0.clone());
        dcfg.checkpoint_every = 5;
        dcfg.kill_after_frames = Some(12);
        let daemon_a = Collectd::start(dcfg.clone(), &obs).unwrap();
        let addr = daemon_a.local_addr();

        let mut restart_cfg = dcfg;
        restart_cfg.addr = addr;
        restart_cfg.kill_after_frames = None;
        let restart_obs = obs.clone();
        let operator = std::thread::spawn(move || {
            let report_a = daemon_a.join().unwrap();
            let daemon_b = Collectd::start(restart_cfg, &restart_obs).unwrap();
            (report_a, daemon_b)
        });

        let mut lcfg = loadgen_config(addr, method, users, 1, workers);
        lcfg.frame_reports = 1;
        lcfg.retry_timeout = Some(Duration::from_secs(60));
        let report = run_loadgen(&lcfg, &obs).unwrap();

        let (report_a, daemon_b) = operator.join().unwrap();
        daemon_b.trigger_drain();
        let report_b = daemon_b.join().unwrap();

        assert!(report_a.hard_killed, "{}: A died hard", method.name());
        assert!(report_a.frames_applied >= 12, "{}", method.name());
        assert!(
            report.retries > 0,
            "{}: the round was replayed",
            method.name()
        );
        assert_eq!(
            report_b.frames_applied,
            report.frames,
            "{}: every acked frame applied once",
            method.name()
        );
        let got: Vec<_> = report
            .rounds
            .iter()
            .map(|r| (r.reports, r.estimate.clone()))
            .collect();
        assert_bit_identical(method, &reference_rounds(method, users, 1, workers), &got);
    }
}

#[test]
fn a_kill_with_hashed_frames_in_flight_resumes_bit_identical_with_an_empty_row_cache() {
    let (users, workers) = (48usize, 2usize);
    for method in [Method::BiLoloha, Method::OLoloha] {
        let tag = format!("hashed_{}", method.name());
        let dir = TempDir::new(&tag);
        let (obs_a, obs_b, obs_client) = (
            MetricsRegistry::new(),
            MetricsRegistry::new(),
            MetricsRegistry::new(),
        );

        // LOLOHA reports cross as ⟨hash, cell⟩ (kind 9), one report a
        // frame; round 0's first reports carry their rows too. A dies 12
        // frames into round 1, with both sessions' windows of hashed-only
        // frames open, and B restarts with an empty row cache.
        let mut dcfg = daemon_config(method);
        dcfg.dir = Some(dir.0.clone());
        dcfg.checkpoint_every = 5;
        dcfg.kill_after_frames = Some(users as u64 + 12);
        let daemon_a = Collectd::start(dcfg.clone(), &obs_a).unwrap();
        let addr = daemon_a.local_addr();

        let mut restart_cfg = dcfg;
        restart_cfg.addr = addr;
        restart_cfg.kill_after_frames = None;
        let restart_obs = obs_b.clone();
        let operator = std::thread::spawn(move || {
            let report_a = daemon_a.join().unwrap();
            let daemon_b = Collectd::start(restart_cfg, &restart_obs).unwrap();
            (report_a, daemon_b)
        });

        let mut lcfg = loadgen_config(addr, method, users, 2, workers);
        lcfg.frame_reports = 1;
        lcfg.retry_timeout = Some(Duration::from_secs(60));
        let report = run_loadgen(&lcfg, &obs_client).unwrap();

        let (report_a, daemon_b) = operator.join().unwrap();
        daemon_b.trigger_drain();
        let report_b = daemon_b.join().unwrap();

        let name = method.name();
        assert!(report_a.hard_killed, "{name}: A died hard");
        assert!(report.retries > 0, "{name}: round 1 was replayed");
        let (a, b) = (obs_a.snapshot(), obs_b.snapshot());
        let hashed_rx = |snap: &ldp_obs::ObsSnapshot| {
            snap.counter_labeled_total("ldp.netd.frames_rx", "submit_hashed")
        };
        assert!(
            hashed_rx(&a) >= users as u64 + 12,
            "{name}: A took hashed frames"
        );
        assert_eq!(
            a.counter_labeled_total("ldp.netd.frames_rx", "submit"),
            0,
            "{name}: no support frames"
        );
        assert!(hashed_rx(&b) > 0, "{name}: B took hashed frames");
        // B's cache started empty and B saw only round 1's rowless
        // frames: each user B folded missed once.
        let misses = b.counter_total("ldp.netd.row_cache_misses");
        assert!(misses > 0, "{name}: B rebuilt rows");
        assert_eq!(report_b.frames_applied, misses, "{name}");
        let got: Vec<_> = report
            .rounds
            .iter()
            .map(|r| (r.reports, r.estimate.clone()))
            .collect();
        assert_bit_identical(method, &reference_rounds(method, users, 2, workers), &got);
    }
}
