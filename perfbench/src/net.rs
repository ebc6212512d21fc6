//! `net-dbmt-loloha`: a `loloha-cli collectd` subprocess is the system
//! under test. The benchmark drives it over two loopback connections per
//! round with `NetSink` + `ClientPool::sanitize_round_sinks` + `end_round`,
//! exactly as `run_loadgen` does, with BiLOLOHA over DB_MT-shaped values.

use crate::check::{digest, Accuracy};
use crate::gen::{self, eps_first, pool_seed, ALPHA, EPS_INF, WORKERS};
use crate::layers::{self, Proto};
use crate::rounds::{client_note, finish_trace, set_client, set_round_metrics, MIN_ROUNDS};
use crate::stats::{median, tail};
use crate::sys::{cli_path, status_kb, ChildGuard, WorkDir};
use crate::trace::{Capture, Ledger, Timed};
use crate::{ms, Outcome, RunCfg};
use ldp_client::{ClientConfig, ClientPool};
use ldp_datasets::DatasetSpec;
use ldp_ingest::ReportBatch;
use ldp_netd::{
    config_fingerprint, decode_frame, encode_frame, Conn, Deadline, Frame, NetSink, NetStore,
    DEFAULT_FRAME_REPORTS,
};
use ldp_obs::{MetricsRegistry, ObsSnapshot};
use ldp_runtime::{Method, ShardedAggregator};
use loloha::LolohaParams;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const METHOD: Method = Method::BiLoloha;
/// Set-ups per run (each starts a daemon); `setup_s` is their median.
const SETUPS: usize = 11;
/// Users of the client mirror (over every round of an epoch).
const MIRROR_USERS: usize = 1000;
/// Name of the checkpoint file `collectd` keeps in its `--dir`.
const CHECKPOINT_FILE: &str = "collectd.ckpt";

/// A running `collectd` subprocess.
struct Daemon {
    child: ChildGuard,
    addr: SocketAddr,
    state: PathBuf,
    metrics: Option<PathBuf>,
}

impl Daemon {
    /// Starts `collectd` with state under `dir` and waits for it to
    /// announce its address.
    fn start(dir: &Path, k: u64, metrics: bool) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let addr_file = dir.join("addr");
        let state = dir.join("state");
        let metrics = metrics.then(|| dir.join("metrics.json"));
        let mut cmd = Command::new(cli_path()?);
        cmd.arg("collectd")
            .args(["--method", "biloloha", "--k", &k.to_string()])
            .args([
                "--eps-inf",
                &EPS_INF.to_string(),
                "--alpha",
                &ALPHA.to_string(),
            ])
            .args(["--workers", &WORKERS.to_string(), "--addr", "127.0.0.1:0"])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--dir")
            .arg(&state);
        if let Some(p) = &metrics {
            cmd.arg("--metrics").arg(p);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning collectd: {e}"))?;
        let child = ChildGuard::new(child);
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            if Instant::now() > deadline {
                return Err("collectd never announced its address".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        Ok(Self {
            child,
            addr,
            state,
            metrics,
        })
    }

    /// Drains the daemon in band and waits for it to exit.
    fn shutdown(self, fingerprint: u64) -> Result<Option<PathBuf>, String> {
        let off = MetricsRegistry::disabled();
        let mut conn = Conn::connect(
            self.addr,
            fingerprint,
            &off,
            Deadline::after(Duration::from_secs(10)),
        )
        .map_err(|e| e.to_string())?;
        conn.send(&Frame::Shutdown).map_err(|e| e.to_string())?;
        match conn.recv().map_err(|e| e.to_string())? {
            Some((_, Frame::ShutdownAck { .. })) | None => {}
            Some((_, other)) => return Err(format!("unexpected reply to shutdown: {other:?}")),
        }
        drop(conn);
        if !self.child.wait(Duration::from_secs(60))? {
            return Err("collectd did not exit cleanly after shutdown".into());
        }
        Ok(self.metrics)
    }
}

fn connect(
    addr: SocketAddr,
    k: u64,
    fingerprint: u64,
    obs: &MetricsRegistry,
) -> Result<Vec<NetSink>, String> {
    let deadline = Deadline::after(Duration::from_secs(30));
    (0..WORKERS)
        .map(|w| {
            NetSink::connect(
                addr,
                w as u32,
                METHOD,
                k,
                k,
                fingerprint,
                DEFAULT_FRAME_REPORTS,
                obs,
                deadline,
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let spec = cfg.shape.folk;
    let data = gen::rounds(&spec, spec.tau(), cfg.seed);
    let (k, n, tau) = (data.k, data.n, data.values.len());
    let ccfg =
        ClientConfig::for_method(METHOD, k, EPS_INF, eps_first()).map_err(|e| e.to_string())?;
    let params = LolohaParams::bi(EPS_INF, eps_first()).map_err(|e| e.to_string())?;
    let fp = config_fingerprint(METHOD, k, k, EPS_INF, eps_first());
    let off = MetricsRegistry::disabled();
    let build = |epoch: u64, users: usize| {
        ClientPool::with_obs(ccfg, pool_seed(cfg.seed, epoch), users, &off)
            .map_err(|e| e.to_string())
    };
    let work = WorkDir::new(&format!("net-{}", cfg.seed)).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    // Set-up: daemon start, population build (with every user's LOLOHA
    // preimage table), first handshake.
    let (mut setup, mut pool_build) = (Vec::new(), Vec::new());
    let mut rss_per_user = 0.0;
    let mut ready = None;
    for i in 0..SETUPS {
        if let Some((daemon, pool)) = ready.take() {
            drop(pool);
            Daemon::shutdown(daemon, fp)?;
        }
        let t0 = Instant::now();
        let daemon = Daemon::start(&work.path().join(format!("d{i}")), k, cfg.trace)?;
        let rss0 = status_kb(None, "VmRSS").unwrap_or(0);
        let t1 = Instant::now();
        let pool = build(0, n)?;
        let t2 = Instant::now();
        if i == 0 {
            let grown = status_kb(None, "VmRSS").unwrap_or(0).saturating_sub(rss0);
            rss_per_user = (grown * 1024) as f64 / n as f64;
        }
        drop(connect(daemon.addr, k, fp, &off)?);
        setup.push(t0.elapsed().as_secs_f64());
        pool_build.push((t2 - t1).as_secs_f64());
        ready = Some((daemon, pool));
    }
    let (daemon, mut pool) = ready.ok_or("no set-up ran")?;

    let treg = MetricsRegistry::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut ledger = Ledger::default();
    let (mut connect_ms, mut end_ms, mut ack_ns, mut pack_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_frames, mut traced_reports) = (0u64, 0u64);
    let mut gap_ns = Vec::new();
    let mut frame: Option<(ReportBatch, u64)> = None;
    let mut captured: Vec<(Vec<u32>, u64)> = Vec::new();
    // Per round: epoch, round of the epoch, digest of the estimate. Only
    // the digest is kept, so the client's memory does not grow with the
    // number of rounds a run fits in.
    let mut results: Vec<(u64, usize, u64)> = Vec::new();
    let (mut round, mut epoch, mut t) = (0u64, 0u64, 0usize);
    let (mut folded, mut attempted) = (0u64, 0u64);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    while started.elapsed() < budget || (round as usize) < MIN_ROUNDS {
        if t == tau {
            // A new epoch's population, built once the old one is gone.
            epoch += 1;
            t = 0;
            drop(std::mem::replace(&mut pool, build(epoch, 0)?));
            pool = build(epoch, n)?;
        }
        let values = &data.values[t];
        attempted += n as u64;
        let traced = cfg.trace && round % 2 == 1;
        let outcome = if traced {
            let first = round == 1;
            let t0 = Instant::now();
            let plain = connect(daemon.addr, k, fp, &treg)?;
            let t_connected = Instant::now();
            let mut sinks: Vec<Timed<NetSink>> = plain
                .into_iter()
                .map(|s| Timed::new(s, first.then(|| Capture::new(DEFAULT_FRAME_REPORTS))))
                .collect();
            check_round(sinks[0].inner.server_round(), round)?;
            let t_phase = Instant::now();
            sinks.iter_mut().for_each(|s| s.arm(t_phase));
            pool.sanitize_round_sinks(values, &mut sinks)
                .map_err(|e| e.to_string())?;
            let t_sanitized = Instant::now();
            let outcome = sinks[0].inner.end_round(round).map_err(|e| e.to_string())?;
            let t_end = Instant::now();
            if first {
                for s in &mut sinks {
                    if let Some(c) = s.capture.take() {
                        frame.get_or_insert((c.frame, c.frame_key));
                        captured.push((c.indices, c.reports));
                    }
                }
            } else {
                let total = t_end - t0;
                traced_ms.push(ms(total));
                ledger.push(round, "round", "", total.as_nanos() as u64, 1);
                ledger.push(
                    round,
                    "netd.connect",
                    "round",
                    (t_connected - t0).as_nanos() as u64,
                    2,
                );
                ledger.push(
                    round,
                    "sanitize",
                    "round",
                    (t_sanitized - t_phase).as_nanos() as u64,
                    1,
                );
                gap_ns.push(ledger.push_workers(round, &sinks, ("netd.pack", "netd.ack")));
                ledger.push(
                    round,
                    "netd.end_round",
                    "round",
                    (t_end - t_sanitized).as_nanos() as u64,
                    1,
                );
                connect_ms.push(ms(t_connected - t0));
                end_ms.push(ms(t_end - t_sanitized));
                for s in &sinks {
                    pack_ns.extend(s.pack_ns.iter().map(|&d| f64::from(d)));
                    ack_ns.extend(s.flush_ns.iter().map(|&d| d as f64));
                    traced_frames += s.inner.frames_acked();
                    traced_reports += s.inner.reports_acked();
                }
            }
            outcome
        } else {
            let t0 = Instant::now();
            let mut sinks = connect(daemon.addr, k, fp, &off)?;
            check_round(sinks[0].server_round(), round)?;
            pool.sanitize_round_sinks(values, &mut sinks)
                .map_err(|e| e.to_string())?;
            let outcome = sinks[0].end_round(round).map_err(|e| e.to_string())?;
            plain_ms.push(ms(t0.elapsed()));
            outcome
        };
        folded += outcome.reports;
        if outcome.reports != n as u64 {
            out.failures.push(format!(
                "round {round}: daemon folded {} of {n} reports",
                outcome.reports
            ));
        }
        let mut estimate = outcome.estimate;
        if cfg.corrupt && round == 0 {
            estimate[0] += 1e-9;
        }
        results.push((epoch, t, digest(&estimate)));
        round += 1;
        t += 1;
    }
    let client_hwm = status_kb(None, "VmHWM").unwrap_or(0);
    let daemon_hwm = status_kb(Some(daemon.child.id()), "VmHWM").unwrap_or(0);
    let state = daemon.state.clone();
    let metrics_file = daemon.shutdown(fp)?;
    out.attempted = attempted;
    out.failed = attempted - folded.min(attempted);

    // Reference: the same seed through ClientPool + ShardedAggregator.
    let variance = params.variance_approx(n as f64);
    let mut acc = Accuracy::new(variance);
    let mut ref_epoch = u64::MAX;
    let mut rpool = None;
    let mut agg = ShardedAggregator::for_method_obs(METHOD, k, EPS_INF, eps_first(), 1, &off)
        .map_err(|e| e.to_string())?;
    let mut last_counts = (Vec::new(), 0u64);
    for (r, &(ep, t, got)) in results.iter().enumerate() {
        if ep != ref_epoch {
            ref_epoch = ep;
            drop(rpool.take());
            rpool = Some(build(ep, n)?);
        }
        let p = rpool.as_mut().ok_or("reference pool missing")?;
        p.sanitize_round_into_shards(&data.values[t], agg.shards_mut());
        let want = agg.finish_round();
        if got != digest(&want.estimate) && out.failures.len() < 5 {
            out.failures.push(format!(
                "round {r}: daemon estimate differs from the in-process reference"
            ));
        }
        acc.round(r as u64, &want.estimate, &data.truth[t]);
        last_counts = (want.counts, want.reports);
    }
    out.notes.push(acc.note());
    if let Some(f) = acc.failure.take() {
        out.failures.push(f);
    }
    out.notes.push(format!(
        "rounds: {round} ({epoch} epoch wrap(s)), n = {n}, k = {k}, estimates bit-identical to the in-process reference: {}",
        out.failures.is_empty()
    ));

    if !cfg.trace {
        set_round_metrics(&mut out, n, &plain_ms);
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mb", (client_hwm + daemon_hwm) as f64 / 1024.0);
        out.notes.push(format!(
            "peak_rss_mb = client process {:.1} MB + collectd {:.1} MB",
            client_hwm as f64 / 1024.0,
            daemon_hwm as f64 / 1024.0
        ));
        return Ok(out);
    }

    // Traced run: the layers around the rounds just timed.
    let traced_rounds = traced_ms.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("netd.connect_ms", median(&connect_ms));
    m.set("netd.pack_ns", median(&pack_ns));
    let ack_us: Vec<f64> = ack_ns.iter().map(|d| d / 1e3).collect();
    m.set("netd.ack_us_p50", median(&ack_us));
    m.set("netd.ack_us_tail", tail(&ack_us).0);
    m.set("netd.end_round_ms", median(&end_ms));
    m.set("netd.frames", traced_frames as f64 / traced_rounds);
    let wire = treg.snapshot().counter_total("ldp.netd.bytes");
    // The capture round's bytes are in the counter too.
    m.set(
        "netd.wire_bytes_per_report",
        wire as f64 / (traced_reports + n as u64).max(1) as f64,
    );
    if let Some((batch, key_base)) = frame {
        let (enc, dec) = codec_us(batch, key_base, fp)?;
        m.set("netd.encode_us", enc);
        m.set("netd.decode_us", dec);
    }
    let daemon_rounds = round.max(1) as f64;
    if let Some(path) = metrics_file {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("collectd metrics: {e}"))?;
        let (_, snap) = ObsSnapshot::parse_json_str(&text)?;
        m.set(
            "netd.checkpoints",
            snap.counter_total("ldp.netd.checkpoints") as f64 / daemon_rounds,
        );
        let batches = snap.counter_total("ldp.ingest.pipeline.batches_flushed") as f64;
        m.set("ingest.batches", batches / daemon_rounds);
        let fills = snap.hist_count("ldp.ingest.pipeline.batch_fill").max(1) as f64;
        m.set(
            "ingest.batch_fill",
            snap.hist_sum("ldp.ingest.pipeline.batch_fill") as f64 / fills,
        );
        m.set(
            "ingest.send_blocked_frac",
            snap.counter_total("ldp.ingest.pipeline.send_blocked") as f64 / batches.max(1.0),
        );
    }
    let (save, load, bytes) = store_ms(&state.join(CHECKPOINT_FILE), fp)?;
    m.set("store.net_save_ms", save);
    m.set("store.net_load_ms", load);
    m.set("store.net_bytes", bytes);

    let mut agg = ShardedAggregator::for_method_obs(METHOD, k, EPS_INF, eps_first(), WORKERS, &off)
        .map_err(|e| e.to_string())?;
    let (merge_us, estimate_us) =
        layers::merge_estimate_us(&mut agg, &last_counts.0, last_counts.1);
    m.set("runtime.merge_us", merge_us);
    m.set("runtime.estimate_us", estimate_us);
    let batches: Vec<(&[u32], u64)> = captured.iter().map(|(i, r)| (i.as_slice(), *r)).collect();
    m.set(
        "runtime.fold_ns_per_index",
        layers::fold_ns_per_index(k as usize, &batches),
    );
    let client = layers::client_mirror(
        ccfg,
        Proto::Loloha(params),
        pool_seed(cfg.seed, 0),
        &data.values[..tau],
        MIRROR_USERS,
    )?;
    set_client(m, &client, median(&pool_build), rss_per_user);
    if !client.parts_match {
        out.notes
            .push("client mirror: part-timed clients diverged from the pool".into());
    }
    ledger.book_client("client.report", client.report_ns);
    out.notes
        .push(client_note(median(&gap_ns), client.report_ns));
    // Off the rounds' path: `loloha-cli collect`'s front end, whose own
    // workload is run by hand only.
    crate::collect::set_cli_layer(cfg, m)?;
    finish_trace(&mut out, ledger, &traced_ms, &plain_ms);
    Ok(out)
}

fn check_round(server: u64, round: u64) -> Result<(), String> {
    if server == round {
        Ok(())
    } else {
        Err(format!("daemon is at round {server}, expected {round}"))
    }
}

/// Median µs of `encode_frame` and `decode_frame` on one captured
/// frame-sized submit; the decode must give the frame back.
fn codec_us(batch: ReportBatch, key_base: u64, fp: u64) -> Result<(f64, f64), String> {
    let frame = Frame::Submit {
        seq: 1,
        key_base,
        batch,
    };
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut body = Vec::new();
    for _ in 0..25 {
        let t0 = Instant::now();
        body = encode_frame(std::hint::black_box(&frame), fp);
        let t1 = Instant::now();
        let back = decode_frame(std::hint::black_box(&body)).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        if back != (fp, frame.clone()) {
            return Err("decode_frame did not return the encoded frame".into());
        }
        enc.push((t1 - t0).as_nanos() as f64 / 1e3);
        dec.push((t2 - t1).as_nanos() as f64 / 1e3);
    }
    std::hint::black_box(body);
    Ok((median(&enc), median(&dec)))
}

/// Median ms of `NetStore::load` of the daemon's final checkpoint and of
/// `NetStore::save` of it to a copy, and the checkpoint's size in bytes.
fn store_ms(path: &Path, fp: u64) -> Result<(f64, f64, f64), String> {
    let store = NetStore::new(path, fp);
    let copy = NetStore::new(path.with_extension("copy"), fp);
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let t0 = Instant::now();
        let cp = store.load().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        copy.save(&cp).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        load.push(ms(t1 - t0));
        save.push(ms(t2 - t1));
    }
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
    Ok((median(&save), median(&load), bytes))
}
