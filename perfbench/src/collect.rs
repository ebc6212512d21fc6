//! `collect-adult`: `loloha-cli collect --k 96` on its default direct
//! path, reading one round of an Adult-shaped CSV (n = 45 222 users) on
//! stdin.
//!
//! Each round runs two such jobs side by side, one per hardware thread,
//! and ends when both have printed their estimate, as the other workloads'
//! rounds end with their slower worker. On a shared two-vCPU virtual
//! machine a lone single-threaded job ran up to 1.6x slower or faster
//! depending on which vCPU it landed on, so a run's median swung by a
//! fifth; with both vCPUs busy it repeated within a few percent over a
//! minute or so.
//!
//! The workload is run by hand and is not one of `BENCHMARK.json`'s: its
//! time goes to a quadratic scan over a vector of about 0.7 MB, and on
//! that host such a scan ran at a speed that wandered by up to 2x over
//! minutes with the load of the machine's other tenants (one job's CPU
//! time, 0.86 to 1.73 s), two to three times as far as the DB_MT
//! workloads' rounds did at the same moments. Two sets of its runs
//! differed by 31%, past any bound the benchmark may set. The `cli` layer
//! it exercises is still measured in every traced run of
//! `net-dbmt-loloha`, through [`set_cli_layer`].

use crate::check::Accuracy;
use crate::gen::{self, eps_first, pool_seed, ALPHA, EPS_INF, WORKERS};
use crate::layers::{self, Proto};
use crate::metrics::Metrics;
use crate::rounds::{set_client, set_round_metrics};
use crate::stats::median;
use crate::sys::{children_max_rss_kb, cli_path, status_kb, ChildGuard, WorkDir};
use crate::trace::Ledger;
use crate::{ms, Outcome, RunCfg};
use ldp_client::{ClientConfig, ClientPool, ReportBuf};
use ldp_obs::MetricsRegistry;
use ldp_runtime::ShardedAggregator;
use loloha::LolohaParams;
use std::io::{Cursor, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Rounds a run measures at least.
const MIN_ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// One-record `collect` invocations per traced run; their median is the
/// ledger's process start-up.
const STARTUPS: usize = 9;
/// Every `STRIDE`-th user is timed for `cli.sanitize_one_ns`.
const STRIDE: usize = 8;
/// Probe rounds per input size for `cli.run_ms` and `cli.growth`.
const PROBES: usize = 3;

fn args(k: u64, seed: u64) -> Vec<String> {
    [
        "collect",
        "--k",
        &k.to_string(),
        "--eps-inf",
        &EPS_INF.to_string(),
        "--alpha",
        &ALPHA.to_string(),
        "--seed",
        &seed.to_string(),
        "--top",
        &k.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Runs `jobs` copies of `program args` side by side, each with `input`
/// on stdin: the wall time until the last one exits, and their stdouts.
fn run_jobs(
    program: &Path,
    args: &[String],
    input: &Path,
    jobs: usize,
) -> Result<(Duration, Vec<String>), String> {
    let stdins = (0..jobs)
        .map(|_| std::fs::File::open(input).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    let mut children = Vec::with_capacity(jobs);
    for stdin in stdins {
        let child = Command::new(program)
            .args(args)
            .stdin(stdin)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", program.display()))?;
        children.push(ChildGuard::new(child));
    }
    let mut stdouts = Vec::with_capacity(jobs);
    for mut child in children {
        // A job's stdout closes when it exits; later jobs' output waits
        // in their pipes (an estimate is far below a pipe's capacity).
        let mut stdout = String::new();
        child
            .stdout()
            .ok_or("child has no stdout")?
            .read_to_string(&mut stdout)
            .map_err(|e| e.to_string())?;
        if !child.wait(Duration::from_secs(120))? {
            return Err(format!("{} failed", program.display()));
        }
        stdouts.push(stdout);
    }
    Ok((t0.elapsed(), stdouts))
}

/// One traced round: `loloha-cli collect` as two probe processes (this
/// binary's `--probe-collect` mode, `csv` on stdin), which call the same
/// `ldp_cli::run` entry point the binary calls and time it inside. Returns
/// the round's wall time and the slower probe's in-process time, in ms.
fn probe_round(argv: &[String], csv: &Path) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let args: Vec<String> = std::iter::once("--probe-collect".to_string())
        .chain(argv.iter().cloned())
        .collect();
    let (wall, outs) = run_jobs(&exe, &args, csv, WORKERS)?;
    let mut slowest = 0.0f64;
    for out in outs {
        let ns: f64 = out
            .trim()
            .parse()
            .map_err(|_| format!("probe printed `{out}`"))?;
        slowest = slowest.max(ns / 1e6);
    }
    Ok((ms(wall), slowest))
}

/// The `--probe-collect <loloha-cli args>` mode: prints the ns that
/// `ldp_cli::run` takes, reading stdin as the binary would.
pub fn probe_main(argv: &[String]) -> Result<(), String> {
    let t0 = Instant::now();
    let out = ldp_cli::run(argv).map_err(|e| e.to_string())?;
    let ns = t0.elapsed().as_nanos();
    std::hint::black_box(out);
    println!("{ns}");
    Ok(())
}

/// The `--probe-setup <k> <n> <seed>` mode: builds the `n`-user pool
/// that `collect` builds before its first round (every user's LOLOHA
/// preimage table), then exits.
pub fn probe_setup_main(argv: &[String]) -> Result<(), String> {
    let arg = |i: usize| -> Result<u64, String> {
        argv.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected <k> <n> <seed>, got {argv:?}"))
    };
    let (k, n, seed) = (arg(0)?, arg(1)?, arg(2)?);
    let params = LolohaParams::bi(EPS_INF, eps_first()).map_err(|e| e.to_string())?;
    let off = MetricsRegistry::disabled();
    let pool = ClientPool::with_obs(ClientConfig::for_loloha(k, params), seed, n as usize, &off)
        .map_err(|e| e.to_string())?;
    std::hint::black_box(pool);
    Ok(())
}

/// The `round ...` line `collect` prints for round 0's estimate.
pub fn round_line(estimate: &[f64], n: usize, top: usize) -> String {
    let mut ranked: Vec<(usize, f64)> = estimate.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let shown: Vec<String> = ranked
        .iter()
        .take(top)
        .map(|(v, f)| format!("{v}:{f:.3}"))
        .collect();
    format!("round 0: n = {n}, top-{top} = [{}]", shown.join(", "))
}

/// The workload's input: one Adult-shaped round generated from the seed,
/// written as CSV into a work directory.
struct Input {
    data: gen::Rounds,
    k: u64,
    n: usize,
    /// The `collect` pool's seed.
    seed: u64,
    /// `loloha-cli` arguments.
    argv: Vec<String>,
    csv_text: String,
    csv: PathBuf,
    work: WorkDir,
}

impl Input {
    fn new(cfg: &RunCfg) -> Result<Self, String> {
        let data = gen::rounds(&cfg.shape.adult, 1, cfg.seed);
        let (k, n) = (data.k, data.n);
        let seed = pool_seed(cfg.seed, 0);
        let work = WorkDir::new(&format!("collect-{}", cfg.seed)).map_err(|e| e.to_string())?;
        let csv_text = gen::csv(&data);
        let csv = work.path().join("adult.csv");
        std::fs::write(&csv, &csv_text).map_err(|e| e.to_string())?;
        Ok(Self {
            data,
            k,
            n,
            seed,
            argv: args(k, seed),
            csv_text,
            csv,
            work,
        })
    }
}

/// What the `cli` layer measured besides its metrics.
struct CliLayer {
    parse_ms: f64,
    sanitize_one_ns: f64,
    /// Build time of `sanitize_one`'s n-user pool.
    build_s: f64,
    /// Resident bytes that pool added, per user.
    rss_per_user: f64,
}

/// In-process times of `PROBES` probe rounds on `csv`, in ms.
fn probes(argv: &[String], csv: &Path) -> Result<Vec<f64>, String> {
    (0..PROBES)
        .map(|_| probe_round(argv, csv).map(|(_, run)| run))
        .collect()
}

/// The `cli` layer on `inp`, through `loloha-cli collect`'s public
/// functions: `parse_records`; `ldp_cli::run` inside probe processes at n
/// and at n/4; `sanitize_one` at n. Sets the `cli.*` metrics.
fn cli_layer(inp: &Input, m: &mut Metrics) -> Result<CliLayer, String> {
    let (k, n) = (inp.k, inp.n);
    let mut parse = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let recs = ldp_cli::cmd_collect::parse_records(&mut Cursor::new(inp.csv_text.as_bytes()))
            .map_err(|e| e.to_string())?;
        parse.push(ms(t0.elapsed()));
        std::hint::black_box(recs);
    }
    let parse_ms = median(&parse);
    m.set("cli.parse_ms", parse_ms);

    let full_ms = median(&probes(&inp.argv, &inp.csv)?);
    m.set("cli.run_ms", full_ms);
    let quarter = gen::Rounds {
        k,
        n: n / 4,
        values: vec![inp.data.values[0][..n / 4].to_vec()],
        truth: Vec::new(),
    };
    let quarter_csv = inp.work.path().join("adult-quarter.csv");
    std::fs::write(&quarter_csv, gen::csv(&quarter)).map_err(|e| e.to_string())?;
    let quarter_ms = median(&probes(&inp.argv, &quarter_csv)?);
    m.set(
        "cli.growth",
        (full_ms / n as f64) / (quarter_ms / (n / 4) as f64),
    );

    // sanitize_one at the workload's n, as the direct path calls it, on a
    // population of its own, whose pages show in the RSS as it is built.
    let params = LolohaParams::bi(EPS_INF, eps_first()).map_err(|e| e.to_string())?;
    let off = MetricsRegistry::disabled();
    let rss0 = status_kb(None, "VmRSS").unwrap_or(0);
    let build0 = Instant::now();
    let mut pool = ClientPool::with_obs(ClientConfig::for_loloha(k, params), inp.seed, n, &off)
        .map_err(|e| e.to_string())?;
    let build_s = build0.elapsed().as_secs_f64();
    let grown = status_kb(None, "VmRSS").unwrap_or(0).saturating_sub(rss0);
    let mut buf = ReportBuf::new();
    let (mut one_ns, mut calls) = (0u128, 0u64);
    for (u, &v) in inp.data.values[0].iter().enumerate().step_by(STRIDE) {
        let t0 = Instant::now();
        pool.sanitize_one(u, v, &mut buf);
        one_ns += t0.elapsed().as_nanos();
        calls += 1;
    }
    let sanitize_one_ns = one_ns as f64 / calls.max(1) as f64;
    m.set("cli.sanitize_one_ns", sanitize_one_ns);
    Ok(CliLayer {
        parse_ms,
        sanitize_one_ns,
        build_s,
        rss_per_user: (grown * 1024) as f64 / n as f64,
    })
}

/// Sets the `cli` layer's metrics on this workload's input, for the
/// traced run of a listed workload (see the module docs).
pub fn set_cli_layer(cfg: &RunCfg, m: &mut Metrics) -> Result<(), String> {
    cli_layer(&Input::new(cfg)?, m).map(|_| ())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let cli = cli_path()?;
    let inp = Input::new(cfg)?;
    let (data, k, n, seed, argv, csv) = (&inp.data, inp.k, inp.n, inp.seed, &inp.argv, &inp.csv);
    let tiny = inp.work.path().join("one-record.csv");
    std::fs::write(&tiny, "round,user,value\n0,0,1\n").map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    let (mut plain_ms, mut traced_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_stdout: Option<String> = None;
    let mut rounds = 0usize;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    while started.elapsed() < budget || rounds < MIN_ROUNDS {
        if cfg.trace && rounds % 2 == 1 {
            let (wall, run) = probe_round(argv, csv)?;
            traced_ms.push(wall);
            run_ms.push(run);
            rounds += 1;
            continue;
        }
        let (wall, stdouts) = run_jobs(&cli, argv, csv, WORKERS)?;
        plain_ms.push(ms(wall));
        for stdout in stdouts {
            match &first_stdout {
                None => first_stdout = Some(stdout),
                Some(first) if *first != stdout => {
                    out.failures.push(format!(
                        "round {rounds}: a job's output differs from the first"
                    ));
                }
                Some(_) => {}
            }
        }
        rounds += 1;
    }
    // Read before the set-ups, whose processes are not `collect`.
    let peak_kb = children_max_rss_kb().unwrap_or(0);
    let reports_per_round = n * WORKERS;
    out.attempted = (reports_per_round * rounds) as u64;
    let stdout = first_stdout.ok_or("no round ran")?;

    // Reference: the same seed through ClientPool + ShardedAggregator.
    let params = LolohaParams::bi(EPS_INF, eps_first()).map_err(|e| e.to_string())?;
    let ccfg = ClientConfig::for_loloha(k, params);
    let off = MetricsRegistry::disabled();
    let mut pool = ClientPool::with_obs(ccfg, seed, n, &off).map_err(|e| e.to_string())?;
    let mut agg =
        ShardedAggregator::for_loloha_obs(k, params, 1, &off).map_err(|e| e.to_string())?;
    pool.sanitize_round_into_shards(&data.values[0], agg.shards_mut());
    let snap = agg.finish_round();
    let mut estimate = snap.estimate;
    if cfg.corrupt {
        estimate[0] += 0.01;
    }
    let mut acc = Accuracy::new(params.variance_approx(n as f64));
    acc.round(0, &estimate, &data.truth[0]);
    let want = round_line(&estimate, n, k as usize);
    if !stdout.lines().any(|l| l == want) {
        out.failures
            .push("collect's printed estimates differ from the in-process reference".into());
        out.failed = out.attempted;
    }
    out.notes.push(acc.note());
    if let Some(f) = acc.failure.take() {
        out.failures.push(f);
    }
    out.notes.push(format!(
        "rounds: {rounds} of {WORKERS} concurrent jobs x {n} users, k = {k}"
    ));

    if !cfg.trace {
        // Set-up: fresh processes side by side, one per job of a round,
        // each building the n-user pool `collect` builds before its first
        // round.
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let setup_args: Vec<String> = ["--probe-setup".to_string(), k.to_string()]
            .into_iter()
            .chain([n.to_string(), seed.to_string()])
            .collect();
        let mut setup = Vec::new();
        for _ in 0..SETUPS {
            setup.push(run_jobs(&exe, &setup_args, &tiny, WORKERS)?.0.as_secs_f64());
        }
        set_round_metrics(&mut out, reports_per_round, &plain_ms);
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mb", peak_kb as f64 / 1024.0);
        return Ok(out);
    }

    // Traced run: the CLI's layers through its public functions on the
    // same input.
    let m = &mut out.metrics;
    let CliLayer {
        parse_ms,
        sanitize_one_ns,
        build_s,
        rss_per_user,
    } = cli_layer(&inp, m)?;
    let client = layers::client_mirror(ccfg, Proto::Loloha(params), seed, &data.values, n)?;
    set_client(m, &client, build_s, rss_per_user);
    let fold = layers::fold_ns_per_index(
        k as usize,
        &[(client.first_round.as_slice(), client.first_round_reports)],
    );
    m.set("runtime.fold_ns_per_index", fold);
    let mut ragg =
        ShardedAggregator::for_loloha_obs(k, params, 1, &off).map_err(|e| e.to_string())?;
    let (merge_us, estimate_us) = layers::merge_estimate_us(&mut ragg, &snap.counts, snap.reports);
    m.set("runtime.merge_us", merge_us);
    m.set("runtime.estimate_us", estimate_us);

    // A traced round's blocking path: process start-up (a one-record
    // invocation), then the run the slower probe timed inside, split into
    // the layers above. What they leave of the run (the per-record
    // duplicate scan and the user index, which have no public entry
    // point) is unattributed.
    let mut startup = Vec::new();
    for _ in 0..STARTUPS {
        startup.push(run_jobs(&cli, argv, &tiny, 1)?.0.as_secs_f64());
    }
    let mut ledger = Ledger::default();
    let startup_ns = (median(&startup) * 1e9) as u64;
    let fold_ns = fold * client.support_indices * n as f64;
    for (r, (&wall, &run)) in traced_ms.iter().zip(&run_ms).enumerate() {
        let r = r as u64;
        ledger.push(r, "round", "", (wall * 1e6) as u64, 1);
        ledger.push(r, "process.startup", "round", startup_ns, 1);
        ledger.push(r, "cli.run", "round", (run * 1e6) as u64, 1);
        ledger.push(r, "cli.parse", "cli.run", (parse_ms * 1e6) as u64, 1);
        let sanitize_ns = (sanitize_one_ns * n as f64) as u64;
        ledger.push(r, "client.sanitize_one", "cli.run", sanitize_ns, n as u64);
        ledger.push(r, "runtime.fold", "cli.run", fold_ns as u64, n as u64);
    }
    crate::rounds::finish_trace(&mut out, ledger, &traced_ms, &plain_ms);
    Ok(out)
}
