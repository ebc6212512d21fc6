//! The resumable experiment runner.
//!
//! [`ExperimentRunner::run`] executes a [`RunnerConfig`]'s accuracy
//! sweep (checkpointed per cell through the `LDHS` store) and writes the
//! `<name>.sweep.json` results document described normatively in
//! `docs/SWEEP_FORMAT.md`, next to the `<name>.sweep.ckpt` checkpoint.
//!
//! Resume semantics (asserted by `tests/resume.rs`):
//!
//! * a killed sweep resumes at the next incomplete cell and produces
//!   results **byte-identical** to an uninterrupted run (cells are
//!   deterministic in the config, never in the interruption pattern);
//! * re-invoking a finished run is a no-op: every cell restores from
//!   the checkpoint, and an existing valid results document is left
//!   untouched;
//! * a checkpoint written under a different sweep configuration is a
//!   typed `Mismatch`, never silently recomputed or misread.

use crate::checkpoint::{load_progress, save_progress, CellMetrics, SweepProgress};
use crate::config::RunnerConfig;
use crate::grid::{run_cell, CellResult};
use crate::json::{parse, Json};
use crate::HarnessError;
use ldp_sim::{Method, Summary};
use std::path::PathBuf;

/// Current results-document schema version (`"schema"` field).
pub const SWEEP_SCHEMA: u32 = 2;

/// The document's top-level keys, in emission order; no others are valid.
const TOP_LEVEL_KEYS: [&str; 4] = ["schema", "suite", "config", "accuracy"];

/// Outcome of the sweep stage.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Every grid cell, in grid order.
    pub cells: Vec<CellResult>,
    /// Cells computed by this invocation.
    pub executed: usize,
    /// Cells restored from the checkpoint.
    pub restored: usize,
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The sweep result.
    pub sweep: SweepOutcome,
    /// Where the results document lives.
    pub doc_path: PathBuf,
    /// Whether this invocation (re)wrote the results document. `false`
    /// means the run was a complete no-op: sweep restored, file valid.
    pub wrote_doc: bool,
}

/// Drives one [`RunnerConfig`] end to end.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    cfg: RunnerConfig,
}

impl ExperimentRunner {
    /// Validates the config and builds a runner for it.
    pub fn new(cfg: RunnerConfig) -> Result<Self, HarnessError> {
        Ok(Self {
            cfg: cfg.validated()?,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    /// Runs (or resumes) the accuracy sweep to completion.
    pub fn run_sweep(&self) -> Result<SweepOutcome, HarnessError> {
        self.sweep_up_to(usize::MAX)
    }

    /// Runs (or resumes) the sweep, computing at most `limit` new cells
    /// this invocation. The kill-and-resume drill in `tests/resume.rs`
    /// and operational splitting of long sweeps both use this; the
    /// checkpoint is saved after every cell either way.
    pub fn sweep_up_to(&self, limit: usize) -> Result<SweepOutcome, HarnessError> {
        let datasets = self.cfg.datasets()?;
        let fingerprint = self.cfg.fingerprint();
        let ckpt_path = self.cfg.checkpoint_path();

        // Grid identity, in the fixed sweep order.
        let mut identity: Vec<(usize, Method, f64, f64)> = Vec::new();
        for (di, _) in datasets.iter().enumerate() {
            for &method in &self.cfg.methods {
                for &eps_inf in &self.cfg.eps_grid {
                    for &alpha in &self.cfg.alphas {
                        identity.push((di, method, eps_inf, alpha));
                    }
                }
            }
        }
        let total = u32::try_from(identity.len())
            .map_err(|_| HarnessError::Config("grid exceeds u32 cells".to_string()))?;

        let mut progress = match load_progress(&ckpt_path, fingerprint)? {
            Some(p) => {
                if p.total != total {
                    // The fingerprint pins the grid, so this is
                    // unreachable without a hand-edited file; keep it a
                    // typed error rather than an assert.
                    return Err(HarnessError::Config(format!(
                        "checkpoint grid size {} does not match configured grid {total}",
                        p.total
                    )));
                }
                p
            }
            None => SweepProgress {
                total,
                cells: Vec::new(),
            },
        };

        let restored = progress.cells.len();
        let mut executed = 0usize;
        while progress.cells.len() < identity.len() && executed < limit {
            let (di, method, eps_inf, alpha) = identity[progress.cells.len()];
            let cell = run_cell(
                datasets[di].as_ref(),
                method,
                eps_inf,
                alpha,
                self.cfg.runs,
                self.cfg.threads,
                self.cfg.seed,
                self.cfg.pair_methods,
            );
            progress.cells.push(CellMetrics::of(&cell));
            save_progress(&ckpt_path, fingerprint, &progress)?;
            executed += 1;
        }

        // Reattach identity to the (restored + fresh) metric prefix.
        let cells = identity
            .iter()
            .zip(&progress.cells)
            .map(|(&(di, method, eps_inf, alpha), m)| CellResult {
                dataset: datasets[di].name().to_string(),
                method,
                eps_inf,
                alpha,
                mse: m.mse,
                eps_avg: m.eps_avg,
                detection: m.detection,
                reduced_domain: m.reduced_domain,
            })
            .collect();
        Ok(SweepOutcome {
            cells,
            executed,
            restored,
        })
    }

    /// Full run: sweep (resumable), then the results document. A rerun
    /// over a finished sweep with a valid document on disk is a no-op.
    pub fn run(&self) -> Result<RunOutcome, HarnessError> {
        let sweep = self.run_sweep()?;
        let doc_path = self.cfg.sweep_doc_path();

        if sweep.executed == 0 {
            if let Ok(text) = std::fs::read_to_string(&doc_path) {
                if parse(&text).as_ref().map(validate_sweep) == Ok(Ok(())) {
                    return Ok(RunOutcome {
                        sweep,
                        doc_path,
                        wrote_doc: false,
                    });
                }
            }
        }

        let doc = self.sweep_json(&sweep.cells);
        validate_sweep(&doc).map_err(HarnessError::Json)?;
        let text = doc.to_pretty();
        ldp_primitives::codec::write_atomic(&doc_path, text.as_bytes())
            .map_err(|e| HarnessError::Io(format!("{}: {e}", doc_path.display())))?;
        Ok(RunOutcome {
            sweep,
            doc_path,
            wrote_doc: true,
        })
    }

    /// Builds the results document (`docs/SWEEP_FORMAT.md`).
    fn sweep_json(&self, cells: &[CellResult]) -> Json {
        let cfg = &self.cfg;
        let config = Json::Obj(vec![
            ("name".into(), Json::Str(cfg.name.clone())),
            (
                "dataset".into(),
                cfg.dataset.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "methods".into(),
                Json::Arr(
                    cfg.methods
                        .iter()
                        .map(|m| Json::Str(m.name().to_string()))
                        .collect(),
                ),
            ),
            (
                "eps_grid".into(),
                Json::Arr(cfg.eps_grid.iter().map(|&e| Json::Num(e)).collect()),
            ),
            (
                "alphas".into(),
                Json::Arr(cfg.alphas.iter().map(|&a| Json::Num(a)).collect()),
            ),
            ("runs".into(), Json::Num(cfg.runs as f64)),
            ("n_frac".into(), Json::Num(cfg.n_frac)),
            ("tau_frac".into(), Json::Num(cfg.tau_frac)),
            // u64 seeds can exceed f64's integer range; a decimal string
            // is lossless.
            ("seed".into(), Json::Str(cfg.seed.to_string())),
            ("pair_methods".into(), Json::Bool(cfg.pair_methods)),
        ]);
        let accuracy = Json::Arr(cells.iter().map(cell_json).collect());
        Json::Obj(vec![
            ("schema".into(), Json::Num(f64::from(SWEEP_SCHEMA))),
            ("suite".into(), Json::Str("loloha".into())),
            ("config".into(), config),
            ("accuracy".into(), accuracy),
        ])
    }
}

fn summary_json(s: &Summary) -> (Json, Json) {
    // NaN means "not comparable" (dBitFlipPM with b < k); Json::Num
    // emits non-finite values as null, which is exactly the schema's
    // convention — no special-casing needed here.
    (Json::Num(s.mean), Json::Num(s.std))
}

fn cell_json(c: &CellResult) -> Json {
    let (mse_mean, mse_std) = summary_json(&c.mse);
    let (eps_mean, eps_std) = summary_json(&c.eps_avg);
    let (det_mean, det_std) = match &c.detection {
        None => (Json::Null, Json::Null),
        Some(d) => summary_json(d),
    };
    Json::Obj(vec![
        ("dataset".into(), Json::Str(c.dataset.clone())),
        ("method".into(), Json::Str(c.method.name().to_string())),
        ("eps_inf".into(), Json::Num(c.eps_inf)),
        ("alpha".into(), Json::Num(c.alpha)),
        ("runs".into(), Json::Num(c.mse.runs as f64)),
        ("mse_mean".into(), mse_mean),
        ("mse_std".into(), mse_std),
        ("eps_avg_mean".into(), eps_mean),
        ("eps_avg_std".into(), eps_std),
        ("detection_mean".into(), det_mean),
        ("detection_std".into(), det_std),
        (
            "reduced_domain".into(),
            c.reduced_domain
                .map_or(Json::Null, |rd| Json::Num(f64::from(rd))),
        ),
    ])
}

/// Validates a parsed results document against the normative schema
/// (`docs/SWEEP_FORMAT.md`). Returns the first violation found.
pub fn validate_sweep(doc: &Json) -> Result<(), String> {
    let need = |obj: &Json, key: &str| -> Result<Json, String> {
        obj.get(key)
            .cloned()
            .ok_or_else(|| format!("missing key `{key}`"))
    };
    let need_num = |obj: &Json, key: &str| -> Result<f64, String> {
        need(obj, key)?
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number"))
    };
    let need_str = |obj: &Json, key: &str| -> Result<(), String> {
        need(obj, key)?
            .as_str()
            .map(|_| ())
            .ok_or_else(|| format!("`{key}` must be a string"))
    };
    let num_or_null = |obj: &Json, key: &str| -> Result<(), String> {
        match need(obj, key)? {
            Json::Num(_) | Json::Null => Ok(()),
            _ => Err(format!("`{key}` must be a number or null")),
        }
    };

    let keys: Vec<&str> = match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => return Err("document must be an object".to_string()),
    };
    if let Some(extra) = keys.iter().find(|k| !TOP_LEVEL_KEYS.contains(k)) {
        return Err(format!("unknown key `{extra}`"));
    }
    if need_num(doc, "schema")? != f64::from(SWEEP_SCHEMA) {
        return Err(format!("schema must be {SWEEP_SCHEMA}"));
    }
    if need(doc, "suite")?.as_str() != Some("loloha") {
        return Err("suite must be \"loloha\"".to_string());
    }

    let config = need(doc, "config")?;
    need_str(&config, "name")?;
    need_str(&config, "seed")?;
    for key in ["runs", "n_frac", "tau_frac"] {
        need_num(&config, key)?;
    }
    for key in ["methods", "eps_grid", "alphas"] {
        if need(&config, key)?.as_arr().is_none_or(<[Json]>::is_empty) {
            return Err(format!("config.{key} must be a non-empty array"));
        }
    }

    let accuracy = need(doc, "accuracy")?;
    let cells = accuracy.as_arr().ok_or("`accuracy` must be an array")?;
    if cells.is_empty() {
        return Err("`accuracy` must be non-empty".to_string());
    }
    for cell in cells {
        need_str(cell, "dataset")?;
        need_str(cell, "method")?;
        for key in ["eps_inf", "alpha", "runs", "eps_avg_mean", "eps_avg_std"] {
            need_num(cell, key)?;
        }
        for key in [
            "mse_mean",
            "mse_std",
            "detection_mean",
            "detection_std",
            "reduced_domain",
        ] {
            num_or_null(cell, key)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": 2,
  "suite": "loloha",
  "config": {"name": "t", "seed": "1", "runs": 1, "n_frac": 0.1,
             "tau_frac": 0.1, "methods": ["BiLOLOHA"], "eps_grid": [1],
             "alphas": [0.5]},
  "accuracy": [{"dataset": "Syn", "method": "BiLOLOHA", "eps_inf": 1,
                "alpha": 0.5, "runs": 1, "mse_mean": null, "mse_std": null,
                "eps_avg_mean": 0.5, "eps_avg_std": 0, "detection_mean": null,
                "detection_std": null, "reduced_domain": 2}]
}"#;

    #[test]
    fn validator_accepts_exactly_the_schema_2_document() {
        validate_sweep(&parse(DOC).unwrap()).unwrap();
        for (from, to, why) in [
            ("\"schema\": 2", "\"schema\": 1", "schema must be 2"),
            (
                "\"suite\"",
                "\"host\": \"ci\", \"suite\"",
                "unknown key `host`",
            ),
            (
                "\"accuracy\": [{",
                "\"throughput\": [], \"accuracy\": [{",
                "unknown key `throughput`",
            ),
            ("\"alphas\": [0.5]", "\"alphas\": []", "config.alphas"),
            ("\"eps_avg_std\": 0", "\"eps_avg_std\": null", "eps_avg_std"),
        ] {
            let bad = DOC.replacen(from, to, 1);
            let err = validate_sweep(&parse(&bad).unwrap()).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }
}
