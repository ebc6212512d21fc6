//! End-to-end and per-layer benchmark of the LOLOHA collection stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds this binary and
//! `loloha-cli` from source first. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. A failed correctness check exits with code 1 after
//! printing it. See README.md for the workloads and metrics.

mod check;
mod collect;
mod gen;
mod layers;
mod metrics;
mod net;
mod rounds;
mod stats;
mod sys;
mod trace;

use metrics::Metrics;
use std::time::Duration;
use trace::Ledger;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["rounds-dbmt-osue", "net-dbmt-loloha"];
/// Workloads run by hand only, outside `BENCHMARK.json` (see `collect.rs`).
const BY_HAND: &[&str] = &["collect-adult"];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Population sizes.
    pub shape: gen::Shape,
    /// Corrupt one estimate before checking it (self-test only).
    pub corrupt: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by catalog name.
    pub metrics: Metrics,
    /// Reports (or CSV records) handed to the program.
    pub attempted: u64,
    /// Attempted reports that were not folded into a finished round.
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub ledger: Ledger,
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "rounds-dbmt-osue" => rounds::run(cfg),
        "net-dbmt-loloha" => net::run(cfg),
        "collect-adult" => collect::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of {WORKLOADS:?} or {BY_HAND:?})"
        )),
    }
}

fn result_line(out: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json(trace)
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let probe = match argv.first().map(String::as_str) {
        Some("--probe-collect") => Some(collect::probe_main as fn(&[String]) -> _),
        Some("--probe-setup") => Some(collect::probe_setup_main as fn(&[String]) -> _),
        _ => None,
    };
    if let Some(probe) = probe {
        if let Err(e) = probe(&argv[1..]) {
            eprintln!("probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("--selftest") {
        match selftest() {
            Ok(()) => println!("selftest: ok"),
            Err(e) => {
                eprintln!("selftest: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        shape: gen::Shape::paper(),
        corrupt: false,
    };
    let out = match run_workload(&args.workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let provenance = sys::provenance();
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
    }
    if args.trace {
        for (layer, t) in out.ledger.rollup() {
            println!("# self time per round: {layer:<13} {:>10.3} ms", t / 1e6);
        }
    }
    println!("# provenance: {provenance}");
    let line = result_line(&out, args.trace);
    if let Err(e) = save(&args, &out, &provenance, &line) {
        eprintln!("warning: could not write the result record: {e}");
    }
    println!("{line}");
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Writes the result with its provenance, and a traced run's spans, to
/// `perfbench/.work/results/`.
fn save(args: &Args, out: &Outcome, provenance: &str, line: &str) -> std::io::Result<()> {
    let dir = sys::work_root().join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n"),
    )?;
    if args.trace {
        std::fs::write(
            dir.join(format!("{stem}-spans.json")),
            out.ledger.to_json(&args.workload, args.seed, provenance),
        )?;
    }
    Ok(())
}

/// Tiny-scale smoke test: every workload emits exactly the catalog, in
/// both modes, with the units `BENCHMARK.json` declares, and a corrupted
/// estimate fails each workload's correctness check.
fn selftest() -> Result<(), String> {
    let bench =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = bench.matches("\"unit\":").count();
    let catalog = metrics::END_TO_END.len() + metrics::PER_LAYER.len();
    if declared != catalog {
        return Err(format!(
            "BENCHMARK.json declares {declared} metrics, the catalog has {catalog}"
        ));
    }
    for (name, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        if !bench.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")) {
            return Err(format!("BENCHMARK.json does not declare {name} in {unit}"));
        }
    }
    for w in WORKLOADS {
        if !bench.contains(&format!("\"name\": \"{w}\"")) {
            return Err(format!("BENCHMARK.json does not declare workload {w}"));
        }
    }
    for &workload in WORKLOADS.iter().chain(BY_HAND) {
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 3,
                seconds: 0.2,
                trace,
                shape: gen::Shape::tiny(),
                corrupt: false,
            };
            let out = run_workload(workload, &cfg)?;
            if !out.failures.is_empty() {
                return Err(format!("{workload} (trace {trace}): {:?}", out.failures));
            }
            // The result line always carries the whole catalog with its
            // units; what a workload must do is measure inside it, and
            // measure every end-to-end metric as a positive number.
            let catalog = metrics::catalog(trace);
            if let Some(name) = out
                .metrics
                .0
                .keys()
                .find(|k| !catalog.iter().any(|(n, _)| n == *k))
            {
                return Err(format!(
                    "{workload}: {name} is outside the trace={trace} catalog"
                ));
            }
            if !trace {
                if let Some((name, _)) = catalog
                    .iter()
                    .find(|(n, _)| out.metrics.0.get(n).is_none_or(|&v| v <= 0.0))
                {
                    return Err(format!(
                        "{workload}: end-to-end metric {name} is not measured"
                    ));
                }
            }
            println!(
                "selftest: {workload} trace={} measures within its {} metrics",
                u8::from(trace),
                catalog.len()
            );
        }
        let cfg = RunCfg {
            seed: 3,
            seconds: 0.1,
            trace: false,
            shape: gen::Shape::tiny(),
            corrupt: true,
        };
        let out = run_workload(workload, &cfg)?;
        if out.failures.is_empty() {
            return Err(format!(
                "{workload}: a corrupted estimate passed the correctness check"
            ));
        }
        println!(
            "selftest: {workload} rejects a corrupted estimate: {}",
            out.failures[0]
        );
    }
    Ok(())
}
