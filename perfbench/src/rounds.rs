//! `rounds-dbmt-osue`: the in-process collection path. `ClientPool`
//! sanitizes each round of L-OSUE over DB_MT-shaped values into an
//! `IngestPipeline` of two workers, and `finish_round` returns the
//! estimate. There is no wire and no disk.

use crate::check::Accuracy;
use crate::gen::{self, eps_first, pool_seed, EPS_INF, WORKERS};
use crate::layers::{self, Proto};
use crate::stats::{block_median, blocks, mean, median, tail};
use crate::sys::status_kb;
use crate::trace::{Capture, Ledger, MirroredSubmitter, Timed};
use crate::{ms, Outcome, RunCfg};
use ldp_client::{ClientConfig, ClientPool};
use ldp_datasets::DatasetSpec;
use ldp_ingest::{IngestPipeline, DEFAULT_BATCH_REPORTS};
use ldp_longitudinal::chain::ue_chain_params;
use ldp_longitudinal::UeChain;
use ldp_obs::MetricsRegistry;
use ldp_runtime::{AggregateSnapshot, Method, ShardedAggregator};
use std::time::{Duration, Instant};

const METHOD: Method = Method::LOsue;
/// Untimed set-ups before the timed ones. A set-up takes a few ms, and on
/// a two-vCPU virtual machine the first twenty or so of a process took up
/// to 5x as long as the ones after them, each a little less than the one
/// before, so a median over them depended on how fast they settled.
const SETUP_WARMUPS: usize = 25;
/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 75;
/// Rounds a run measures at least, so the tail has ten rounds beyond it.
pub const MIN_ROUNDS: usize = 20;
/// Users of the client mirror (over every round of an epoch).
const MIRROR_USERS: usize = 400;

fn build(
    cfg: ClientConfig,
    seed: u64,
    epoch: u64,
    n: usize,
    off: &MetricsRegistry,
) -> Result<ClientPool, String> {
    ClientPool::with_obs(cfg, pool_seed(seed, epoch), n, off).map_err(|e| e.to_string())
}

fn pipeline(k: u64, obs: &MetricsRegistry) -> Result<IngestPipeline, String> {
    IngestPipeline::for_method_obs(METHOD, k, EPS_INF, eps_first(), WORKERS, obs)
        .map_err(|e| e.to_string())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let spec = cfg.shape.folk;
    let data = gen::rounds(&spec, spec.tau(), cfg.seed);
    let (k, n, tau) = (data.k, data.n, data.values.len());
    let ccfg =
        ClientConfig::for_method(METHOD, k, EPS_INF, eps_first()).map_err(|e| e.to_string())?;
    let off = MetricsRegistry::disabled();
    let variance = ue_chain_params(UeChain::OueSue, EPS_INF, eps_first())
        .map_err(|e| e.to_string())?
        .variance_approx(n as f64);
    let mut out = Outcome::default();

    // Set-up: population build and pipeline start, several times.
    let (mut setup, mut pool_build) = (Vec::new(), Vec::new());
    let mut rss_per_user = 0.0;
    let mut ready = None;
    for i in 0..SETUP_WARMUPS + SETUPS {
        drop(ready.take());
        let rss0 = status_kb(None, "VmRSS").unwrap_or(0);
        let t0 = Instant::now();
        let pool = build(ccfg, cfg.seed, 0, n, &off)?;
        let t1 = Instant::now();
        let pipe = pipeline(k, &off)?;
        if i >= SETUP_WARMUPS {
            setup.push((Instant::now() - t0).as_secs_f64());
            pool_build.push((t1 - t0).as_secs_f64());
        }
        if i == 0 {
            let grown = status_kb(None, "VmRSS").unwrap_or(0).saturating_sub(rss0);
            rss_per_user = (grown * 1024) as f64 / n as f64;
        }
        ready = Some((pool, pipe));
    }
    let (mut pool, mut pipe) = ready.ok_or("no set-up ran")?;
    let handle = pipe.handle();
    let treg = MetricsRegistry::new();
    let mut tpipe = if cfg.trace {
        Some(pipeline(k, &treg)?)
    } else {
        None
    };

    let mut acc = Accuracy::new(variance);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut ledger = Ledger::default();
    let (mut pack_ns, mut flush_ns, mut finish_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut gap_ns = Vec::new();
    let mut captured: Vec<(Vec<u32>, u64)> = Vec::new();
    let mut last_snap: Option<AggregateSnapshot> = None;
    let (mut round, mut epoch, mut t) = (0u64, 0u64, 0usize);
    let (mut folded, mut attempted) = (0u64, 0u64);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    while started.elapsed() < budget || (round as usize) < MIN_ROUNDS {
        if t == tau {
            // A new collection epoch: a fresh population, built outside
            // any timed round once the old one is gone (the two never
            // coexist, so the peak RSS stays one population's).
            epoch += 1;
            t = 0;
            drop(std::mem::replace(
                &mut pool,
                build(ccfg, cfg.seed, epoch, 0, &off)?,
            ));
            pool = build(ccfg, cfg.seed, epoch, n, &off)?;
        }
        let values = &data.values[t];
        attempted += n as u64;
        let traced = cfg.trace && round % 2 == 1;
        let snap = match (&mut tpipe, traced) {
            (Some(tp), true) => {
                let capture = round == 1;
                let t0 = Instant::now();
                let h = tp.handle();
                let mut sinks: Vec<Timed<MirroredSubmitter>> = (0..WORKERS)
                    .map(|_| {
                        Timed::new(
                            MirroredSubmitter::new(
                                h.batching(DEFAULT_BATCH_REPORTS),
                                WORKERS,
                                DEFAULT_BATCH_REPORTS,
                            ),
                            capture.then(|| Capture::new(0)),
                        )
                    })
                    .collect();
                let t_phase = Instant::now();
                sinks.iter_mut().for_each(|s| s.arm(t_phase));
                pool.sanitize_round_sinks(values, &mut sinks)
                    .map_err(|e| e.to_string())?;
                let t_sanitized = Instant::now();
                let snap = tp.finish_round().map_err(|e| e.to_string())?;
                let t_end = Instant::now();
                let total = t_end - t0;
                if capture {
                    for s in &mut sinks {
                        if let Some(c) = s.capture.take() {
                            captured.push((c.indices, c.reports));
                        }
                    }
                } else {
                    traced_ms.push(ms(total));
                    ledger.push(round, "round", "", total.as_nanos() as u64, 1);
                    ledger.push(
                        round,
                        "sanitize",
                        "round",
                        (t_sanitized - t_phase).as_nanos() as u64,
                        1,
                    );
                    gap_ns.push(ledger.push_workers(
                        round,
                        &sinks,
                        ("ingest.submit", "ingest.flush"),
                    ));
                    ledger.push(
                        round,
                        "ingest.finish_round",
                        "round",
                        (t_end - t_sanitized).as_nanos() as u64,
                        1,
                    );
                    finish_ms.push(ms(t_end - t_sanitized));
                    for s in &sinks {
                        pack_ns.extend(s.pack_ns.iter().map(|&d| f64::from(d)));
                        flush_ns.extend(s.flush_ns.iter().map(|&d| d as f64));
                    }
                }
                snap
            }
            _ => {
                let t0 = Instant::now();
                pool.sanitize_round(values, WORKERS, &handle)
                    .map_err(|e| e.to_string())?;
                let snap = pipe.finish_round().map_err(|e| e.to_string())?;
                plain_ms.push(ms(t0.elapsed()));
                snap
            }
        };
        folded += snap.reports;
        if snap.reports != n as u64 {
            out.failures.push(format!(
                "round {round}: folded {} of {n} reports",
                snap.reports
            ));
        }
        let mut estimate = snap.estimate.clone();
        if cfg.corrupt && round == 0 {
            estimate.iter_mut().for_each(|e| *e = 0.0);
        }
        acc.round(round, &estimate, &data.truth[t]);
        last_snap = Some(snap);
        round += 1;
        t += 1;
    }
    let hwm_kb = status_kb(None, "VmHWM").unwrap_or(0);
    drop(handle);
    out.attempted = attempted;
    out.failed = attempted - folded.min(attempted);
    out.notes.push(acc.note());
    if let Some(f) = acc.failure.take() {
        out.failures.push(f);
    }
    out.notes.push(format!(
        "rounds: {round} ({epoch} epoch wrap(s)), n = {n}, k = {k}"
    ));

    if !cfg.trace {
        set_round_metrics(&mut out, n, &plain_ms);
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mb", hwm_kb as f64 / 1024.0);
        return Ok(out);
    }

    // Traced run: the layers around the rounds just timed.
    let snap = treg.snapshot();
    let traced_rounds = (traced_ms.len() + 1) as f64;
    let batches = snap.counter_total("ldp.ingest.pipeline.batches_flushed") as f64;
    let m = &mut out.metrics;
    m.set("ingest.batches", batches / traced_rounds);
    let fills = snap.hist_count("ldp.ingest.pipeline.batch_fill").max(1) as f64;
    m.set(
        "ingest.batch_fill",
        snap.hist_sum("ldp.ingest.pipeline.batch_fill") as f64 / fills,
    );
    m.set(
        "ingest.send_blocked_frac",
        snap.counter_total("ldp.ingest.pipeline.send_blocked") as f64 / batches.max(1.0),
    );
    m.set("ingest.submit_ns", median(&pack_ns));
    m.set("ingest.flush_us", mean(&flush_ns) / 1e3);
    let finish = median(&finish_ms);
    m.set("ingest.finish_round_ms", finish);

    let last = last_snap.ok_or("no round ran")?;
    let mut agg = ShardedAggregator::for_method_obs(METHOD, k, EPS_INF, eps_first(), WORKERS, &off)
        .map_err(|e| e.to_string())?;
    let (merge_us, estimate_us) = layers::merge_estimate_us(&mut agg, &last.counts, last.reports);
    m.set("runtime.merge_us", merge_us);
    m.set("runtime.estimate_us", estimate_us);
    m.set(
        "ingest.drain_wait_ms",
        (finish - (merge_us + estimate_us) / 1e3).max(0.0),
    );
    let batches: Vec<(&[u32], u64)> = captured.iter().map(|(i, r)| (i.as_slice(), *r)).collect();
    m.set(
        "runtime.fold_ns_per_index",
        layers::fold_ns_per_index(k as usize, &batches),
    );

    let mirror_rounds = &data.values[..tau];
    let client = layers::client_mirror(
        ccfg,
        Proto::Ue(UeChain::OueSue),
        pool_seed(cfg.seed, 0),
        mirror_rounds,
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

    // Merge and estimate run inside finish_round; their replayed times
    // split it, and the rest of it is the drain wait.
    let rounds_in_ledger: Vec<u64> = ledger
        .spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.round)
        .collect();
    for r in rounds_in_ledger {
        ledger.push(
            r,
            "runtime.merge",
            "ingest.finish_round",
            (merge_us * 1e3) as u64,
            1,
        );
        ledger.push(
            r,
            "runtime.estimate",
            "ingest.finish_round",
            (estimate_us * 1e3) as u64,
            1,
        );
    }
    finish_trace(&mut out, ledger, &traced_ms, &plain_ms);
    Ok(out)
}

/// Reports per second over the timed rounds: `per_round` reports in each
/// round of `round_ms`, over their summed wall time.
fn throughput(per_round: usize, round_ms: &[f64]) -> f64 {
    let total_s = round_ms.iter().sum::<f64>() / 1e3;
    if total_s > 0.0 {
        (per_round * round_ms.len()) as f64 / total_s
    } else {
        0.0
    }
}

/// Sets `reports_per_s`, `round_ms_p50` and `round_ms_tail` from the
/// untimed run's round times, in the order measured, each the median over
/// the run's blocks of consecutive rounds (`stats::block_median`).
pub fn set_round_metrics(out: &mut Outcome, per_round: usize, round_ms: &[f64]) {
    let m = &mut out.metrics;
    m.set(
        "reports_per_s",
        block_median(round_ms, |b| throughput(per_round, b)),
    );
    m.set("round_ms_p50", block_median(round_ms, median));
    m.set("round_ms_tail", block_median(round_ms, |b| tail(b).0));
    let blocks = blocks(round_ms);
    out.notes.push(format!(
        "round_ms_tail is the median of the p{:.1} of {} block(s) of {} rounds",
        tail(blocks[0]).1,
        blocks.len(),
        blocks[0].len()
    ));
}

/// The traced rounds' gap between sink calls beside the mirror's client
/// time, both per report.
pub fn client_note(gap_ns: f64, mirror_ns: f64) -> String {
    format!(
        "client per report: {gap_ns:.0} ns between sink calls on the blocking worker, \
         {mirror_ns:.0} ns on the mirror (booked as client.report; the rest is unattributed)"
    )
}

/// Records the client layer's metrics.
pub fn set_client(
    m: &mut crate::metrics::Metrics,
    c: &layers::ClientLayer,
    build_s: f64,
    rss: f64,
) {
    m.set("client.report_ns", c.report_ns);
    m.set("client.perturb_ns", c.perturb_ns);
    m.set("client.support_ns", c.support_ns);
    m.set("client.support_indices", c.support_indices);
    m.set("client.memo_miss_frac", c.memo_miss_frac);
    m.set("client.pool_build_s", build_s);
    m.set("client.rss_bytes_per_user", rss);
}

/// Records the trace metrics shared by the round-based workloads and
/// hands the ledger to the outcome.
pub fn finish_trace(out: &mut Outcome, ledger: Ledger, traced_ms: &[f64], plain_ms: &[f64]) {
    let traced = median(traced_ms);
    let plain = median(plain_ms);
    let m = &mut out.metrics;
    m.set("trace.round_ms", traced);
    m.set(
        "trace.overhead_frac",
        if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        },
    );
    m.set("trace.unattributed_frac", ledger.unattributed_frac());
    m.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.ledger = ledger;
}
