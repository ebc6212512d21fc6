//! `loloha-cli collectd` — run the long-running TCP ingestion daemon.
//!
//! Binds the `LDNW` wire endpoint (`docs/WIRE_FORMAT.md`), serves
//! loadgen workers until drained, and exits with a lifetime summary.
//! The bound address is announced *eagerly* — printed to stdout and,
//! with `--addr-file`, written atomically to a file — so orchestration
//! (the CI smoke drill, supervisors binding port 0) can discover the
//! port before any traffic exists.
//!
//! `--workers N` sets the daemon's aggregation shard count (default 2).
//! Each connection folds its frames into shard `worker_id % N` on its
//! own thread; the daemon runs no ingest worker threads.
//!
//! Drain triggers, all equivalent: SIGTERM/SIGINT (the daemon installs
//! the `ldp_netd::signal` latch), or an in-band `Shutdown` frame from a
//! client (`loadgen --shutdown`). Every drain takes a final checkpoint
//! when `--dir` is set; a daemon restarted on the same `--dir` resumes
//! mid-round exactly once (see `crates/netd/tests/drill.rs`).

use crate::args::Flags;
use crate::cmd_simulate::parse_method;
use crate::CliError;
use ldp_netd::{install_term_handler, Collectd, DaemonConfig};
use ldp_obs::MetricsRegistry;
use ldp_primitives::codec;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Runs the subcommand; blocks until the daemon drains, then returns
/// the lifetime summary text.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(argv, &[])?;
    flags.ensure_known(&[
        "addr",
        "addr-file",
        "method",
        "k",
        "eps-inf",
        "alpha",
        "workers",
        "idle-timeout-ms",
        "checkpoint-every",
        "dir",
        "metrics",
    ])?;
    let method = parse_method(flags.required("method")?)?;
    let k = flags.required_u64("k")?;
    let eps_inf = flags.required_f64("eps-inf")?;
    let alpha = flags.f64_or("alpha", 0.5)?;

    let mut cfg = DaemonConfig::new(method, k, eps_inf, alpha * eps_inf);
    if let Some(addr) = flags.optional("addr") {
        cfg.addr = addr
            .parse::<SocketAddr>()
            .map_err(|_| CliError::new(format!("--addr: `{addr}` is not a socket address")))?;
    }
    if let Some(workers) = flags.optional_u64("workers")? {
        if workers == 0 {
            return Err(CliError::new("--workers must be at least 1"));
        }
        cfg.workers = workers as usize;
    }
    if let Some(ms) = flags.optional_u64("idle-timeout-ms")? {
        cfg.idle_timeout = Some(Duration::from_millis(ms));
    }
    if let Some(every) = flags.optional_u64("checkpoint-every")? {
        cfg.checkpoint_every = every;
    }
    cfg.dir = flags.optional("dir").map(PathBuf::from);

    let metrics_path = flags.optional("metrics").map(PathBuf::from);
    let reg = match &metrics_path {
        Some(_) => MetricsRegistry::new(),
        None => MetricsRegistry::disabled(),
    };

    install_term_handler();
    let daemon = Collectd::start(cfg, &reg).map_err(CliError::new)?;
    let addr = daemon.local_addr();
    let resumed = daemon.resumed();

    // Announce the endpoint before serving: stdout line first, then the
    // atomic address file orchestration polls for.
    println!("collectd: listening on {addr} ({})", method.name());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Some(path) = flags.optional("addr-file") {
        codec::write_atomic(&PathBuf::from(path), addr.to_string().as_bytes())
            .map_err(CliError::new)?;
    }

    let report = daemon.join().map_err(CliError::new)?;

    if let Some(mp) = &metrics_path {
        let json = reg.snapshot().to_json_string(&[("source", "collectd")]);
        codec::write_atomic(mp, json.as_bytes()).map_err(CliError::new)?;
    }

    let mut out = format!(
        "collectd on {addr}: drained after {} round(s), {} submit frame(s), {} connection(s)\n",
        report.rounds_finished, report.frames_applied, report.connections_served
    );
    if resumed {
        out.push_str("resumed: continued from an existing checkpoint\n");
    }
    if let Some(mp) = &metrics_path {
        out.push_str(&format!(
            "metrics: telemetry snapshot written to {}\n",
            mp.display()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;

    #[test]
    fn rejects_bad_flags() {
        assert!(
            run(&argv("--method biloloha --k 8")).is_err(),
            "missing eps"
        );
        assert!(
            run(&argv("--method nope --k 8 --eps-inf 1.0")).is_err(),
            "unknown method"
        );
        assert!(
            run(&argv(
                "--method biloloha --k 8 --eps-inf 1.0 --addr not-an-addr"
            ))
            .is_err(),
            "bad addr"
        );
        assert!(
            run(&argv("--method biloloha --k 8 --eps-inf 1.0 --workers 0")).is_err(),
            "zero workers"
        );
        assert!(
            run(&argv("--method biloloha --k 8 --eps-inf 1.0 --nope 1")).is_err(),
            "unknown flag"
        );
        for removed in ["channel-capacity", "batch-reports"] {
            let err = run(&argv(&format!(
                "--method biloloha --k 8 --eps-inf 1.0 --{removed} 4"
            )))
            .unwrap_err();
            assert!(err.message.contains("unknown flag"), "--{removed}: {err}");
        }
    }

    #[test]
    fn daemon_serves_until_an_in_band_shutdown() {
        let dir = std::env::temp_dir().join(format!("ldp_cli_collectd_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("collectd.addr");
        let metrics = dir.join("collectd.metrics.json");
        let args = format!(
            "--method l-grr --k 8 --eps-inf 2.0 --addr 127.0.0.1:0 \
             --addr-file {} --dir {} --checkpoint-every 1 --metrics {}",
            addr_file.display(),
            dir.display(),
            metrics.display()
        );
        let daemon = std::thread::spawn(move || run(&argv(&args)));

        // Discover the announced endpoint.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let addr: SocketAddr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                break s.trim().parse().unwrap();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "address never appeared"
            );
            std::thread::sleep(Duration::from_millis(10));
        };

        // Drive one round and drain in-band.
        let obs = MetricsRegistry::new();
        let mut lcfg = ldp_netd::LoadgenConfig::new(addr, ldp_runtime::Method::LGrr, 8, 2.0, 1.0);
        lcfg.users = 10;
        lcfg.workers = 2;
        lcfg.shutdown = true;
        let report = ldp_netd::run_loadgen(&lcfg, &obs).unwrap();
        assert_eq!(report.reports, 10);

        let out = daemon.join().unwrap().unwrap();
        assert!(out.contains("drained after 1 round(s)"), "{out}");
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        ldp_obs::validate_snapshot_str(&snapshot).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
