//! Named runner configurations.
//!
//! A [`RunnerConfig`] pins everything a sweep depends on — dataset
//! filter, method set, ε∞/α grids, runs, scale fractions, master seed —
//! plus the output identity (`name`, `out_dir`). It loads from a small
//! `key = value` spec file (`#` comments, comma-separated lists) and/or
//! `--flag value` overrides; both funnel through [`RunnerConfig::apply`],
//! so the CLI and the spec format can never drift apart.
//!
//! The sweep-relevant subset of the config is fingerprinted
//! ([`RunnerConfig::fingerprint`]) into the `LDHS` checkpoint header:
//! resuming under a different grid is a typed `Mismatch`, never a
//! silently misattributed cell. `threads` is deliberately outside the
//! fingerprint — results are bit-identical across thread counts (an
//! engine invariant).

use crate::HarnessError;
use ldp_datasets::{scaled_datasets, DatasetSpec};
use ldp_primitives::codec::fnv1a;
use ldp_sim::Method;
use std::path::PathBuf;

/// Everything one harness invocation depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerConfig {
    /// Experiment name; names the checkpoint (`<name>.sweep.ckpt`) and
    /// the results document (`<name>.sweep.json`).
    pub name: String,
    /// Results directory (checkpoint + results document).
    pub out_dir: PathBuf,
    /// Restrict to one dataset by name (case-insensitive), or all four.
    pub dataset: Option<String>,
    /// Protocols under test.
    pub methods: Vec<Method>,
    /// Longitudinal budgets ε∞.
    pub eps_grid: Vec<f64>,
    /// First-report fractions α.
    pub alphas: Vec<f64>,
    /// Repetitions per grid cell.
    pub runs: usize,
    /// Fraction of each dataset's n, in (0, 1].
    pub n_frac: f64,
    /// Fraction of each dataset's τ, in (0, 1].
    pub tau_frac: f64,
    /// Master seed; per-cell seeds derive from it via [`crate::cell_seed`].
    pub seed: u64,
    /// Worker threads (0 = all cores). Outside the fingerprint: results
    /// are bit-identical for every thread count.
    pub threads: usize,
    /// Common-random-numbers pairing across methods (see [`crate::cell_seed`]).
    pub pair_methods: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            name: "default".to_string(),
            out_dir: PathBuf::from("."),
            dataset: None,
            methods: Method::paper_set().to_vec(),
            eps_grid: vec![0.5, 2.0, 5.0],
            alphas: vec![0.5],
            runs: 3,
            n_frac: 0.05,
            tau_frac: 0.10,
            seed: 0x1010,
            threads: 0,
            pair_methods: false,
        }
    }
}

/// Parses a method name: either the paper's display name
/// (`BiLOLOHA`, `L-OSUE`, …) or the CLI's lowercase alias.
pub fn parse_method(name: &str) -> Result<Method, HarnessError> {
    let lower = name.trim().to_ascii_lowercase();
    let method = match lower.as_str() {
        "rappor" | "l-sue" => Method::Rappor,
        "l-osue" => Method::LOsue,
        "l-oue" => Method::LOue,
        "l-soue" => Method::LSoue,
        "l-grr" => Method::LGrr,
        "biloloha" => Method::BiLoloha,
        "ololoha" => Method::OLoloha,
        "1bitflip" | "1bitflippm" => Method::OneBitFlip,
        "bbitflip" | "bbitflippm" => Method::BBitFlip,
        _ => {
            return Err(HarnessError::Config(format!(
                "unknown method `{name}` (rappor, l-osue, l-oue, l-soue, l-grr, biloloha, \
                 ololoha, 1bitflip, bbitflip)"
            )))
        }
    };
    Ok(method)
}

fn parse_list<T>(
    key: &str,
    value: &str,
    mut one: impl FnMut(&str) -> Result<T, HarnessError>,
) -> Result<Vec<T>, HarnessError> {
    let items: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(HarnessError::Config(format!("{key}: empty list")));
    }
    items.into_iter().map(&mut one).collect()
}

fn parse_scalar<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, HarnessError> {
    value
        .trim()
        .parse()
        .map_err(|_| HarnessError::Config(format!("{key}: invalid value `{value}`")))
}

impl RunnerConfig {
    /// Applies one `key = value` assignment (spec-file line or CLI flag).
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), HarnessError> {
        match key {
            "name" => self.name = value.trim().to_string(),
            "out_dir" => self.out_dir = PathBuf::from(value.trim()),
            "dataset" => {
                self.dataset = match value.trim() {
                    "" | "all" => None,
                    name => Some(name.to_string()),
                }
            }
            "methods" => self.methods = parse_list(key, value, parse_method)?,
            "eps" => self.eps_grid = parse_list(key, value, |s| parse_scalar("eps", s))?,
            "alphas" => self.alphas = parse_list(key, value, |s| parse_scalar("alphas", s))?,
            "runs" => self.runs = parse_scalar(key, value)?,
            "n_frac" => self.n_frac = parse_scalar(key, value)?,
            "tau_frac" => self.tau_frac = parse_scalar(key, value)?,
            "seed" => self.seed = parse_scalar(key, value)?,
            "threads" => self.threads = parse_scalar(key, value)?,
            "pair_methods" => self.pair_methods = parse_scalar(key, value)?,
            _ => return Err(HarnessError::Config(format!("unknown config key `{key}`"))),
        }
        Ok(())
    }

    /// Parses a spec file: `key = value` lines, `#` comments, blank
    /// lines ignored. Unset keys keep their defaults.
    pub fn from_spec(text: &str) -> Result<Self, HarnessError> {
        let mut cfg = Self::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(HarnessError::Config(format!(
                    "spec line {}: expected `key = value`, got `{line}`",
                    idx + 1
                )));
            };
            cfg.apply(key.trim(), value)
                .map_err(|e| HarnessError::Config(format!("spec line {}: {e}", idx + 1)))?;
        }
        Ok(cfg)
    }

    /// Validates every field; returns `self` for chaining.
    pub fn validated(self) -> Result<Self, HarnessError> {
        let frac_ok = |v: f64| v.is_finite() && v > 0.0 && v <= 1.0;
        let err = |msg: String| Err(HarnessError::Config(msg));
        if self.name.is_empty() || !filename_safe(&self.name) {
            return err(format!(
                "name `{}` must be non-empty [A-Za-z0-9._-]",
                self.name
            ));
        }
        if self.runs == 0 {
            return err("runs must be positive".to_string());
        }
        if !frac_ok(self.n_frac) {
            return err(format!("n_frac {} must be in (0, 1]", self.n_frac));
        }
        if !frac_ok(self.tau_frac) {
            return err(format!("tau_frac {} must be in (0, 1]", self.tau_frac));
        }
        if self.methods.is_empty() {
            return err("methods must be non-empty".to_string());
        }
        if self.eps_grid.is_empty() || self.eps_grid.iter().any(|e| !e.is_finite() || *e <= 0.0) {
            return err("eps grid must be non-empty, finite, positive".to_string());
        }
        if self.alphas.is_empty()
            || self
                .alphas
                .iter()
                .any(|a| !a.is_finite() || *a <= 0.0 || *a >= 1.0)
        {
            return err("alphas must be non-empty, each in (0, 1)".to_string());
        }
        // A repeated grid value (`0.5,0.50`, or two aliases of one
        // method) would compute the same cell twice under the same seed.
        let twice = |key: &str, value: String| -> Result<Self, HarnessError> {
            err(format!("{key}: `{value}` is listed twice"))
        };
        if let Some(m) = first_repeat(&self.methods, |a, b| a == b) {
            return twice("methods", m.name().to_string());
        }
        if let Some(e) = first_repeat(&self.eps_grid, |a, b| a.to_bits() == b.to_bits()) {
            return twice("eps", e.to_string());
        }
        if let Some(a) = first_repeat(&self.alphas, |a, b| a.to_bits() == b.to_bits()) {
            return twice("alphas", a.to_string());
        }
        // The dataset filter is resolved (and rejected if unknown) here
        // rather than at sweep time, so a typo fails before any work.
        self.datasets()?;
        Ok(self)
    }

    /// The datasets selected by the filter, at the configured scale.
    pub fn datasets(&self) -> Result<Vec<Box<dyn DatasetSpec>>, HarnessError> {
        let all = scaled_datasets(self.n_frac, self.tau_frac);
        match &self.dataset {
            None => Ok(all),
            Some(name) => {
                let matched: Vec<_> = all
                    .into_iter()
                    .filter(|d| d.name().eq_ignore_ascii_case(name))
                    .collect();
                if matched.is_empty() {
                    return Err(HarnessError::Config(format!(
                        "unknown dataset `{name}` (Syn, Adult, DB_MT, DB_DE)"
                    )));
                }
                Ok(matched)
            }
        }
    }

    /// Number of grid cells (datasets × methods × ε × α).
    pub fn grid_len(&self) -> Result<usize, HarnessError> {
        Ok(self.datasets()?.len() * self.methods.len() * self.eps_grid.len() * self.alphas.len())
    }

    /// FNV-1a fingerprint over the sweep-relevant configuration (grid,
    /// runs, scale, seed, pairing): the `LDHS` checkpoint header value.
    pub fn fingerprint(&self) -> u64 {
        let mut buf: Vec<u8> = Vec::new();
        let put_str = |buf: &mut Vec<u8>, s: &str| {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        };
        put_str(&mut buf, self.dataset.as_deref().unwrap_or(""));
        buf.extend_from_slice(&(self.methods.len() as u64).to_le_bytes());
        for m in &self.methods {
            put_str(&mut buf, m.name());
        }
        buf.extend_from_slice(&(self.eps_grid.len() as u64).to_le_bytes());
        for e in &self.eps_grid {
            buf.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&(self.alphas.len() as u64).to_le_bytes());
        for a in &self.alphas {
            buf.extend_from_slice(&a.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&(self.runs as u64).to_le_bytes());
        buf.extend_from_slice(&self.n_frac.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.tau_frac.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.push(u8::from(self.pair_methods));
        fnv1a(&buf)
    }

    /// Path of the sweep checkpoint this config reads/writes.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.sweep.ckpt", self.name))
    }

    /// Path of the results document this config writes.
    pub fn sweep_doc_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.sweep.json", self.name))
    }
}

/// The first element equal (under `eq`) to an earlier one.
fn first_repeat<T>(items: &[T], eq: impl Fn(&T, &T) -> bool) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find(|(i, x)| items[..*i].iter().any(|y| eq(x, y)))
        .map(|(_, x)| x)
}

fn filename_safe(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let cfg = RunnerConfig::default().validated().unwrap();
        assert_eq!(cfg.methods.len(), 7);
        assert_eq!(cfg.grid_len().unwrap(), 4 * 7 * 3);
    }

    #[test]
    fn spec_file_overrides_defaults() {
        let cfg = RunnerConfig::from_spec(
            "# smoke spec\n\
             name = smoke\n\
             dataset = syn   # just the synthetic workload\n\
             methods = biloloha, rappor\n\
             eps = 0.5, 2.0\n\
             alphas = 0.5\n\
             runs = 1\n\
             n_frac = 0.02\n\
             tau_frac = 0.05\n\
             pair_methods = true\n",
        )
        .unwrap()
        .validated()
        .unwrap();
        assert_eq!(cfg.name, "smoke");
        assert_eq!(cfg.methods, vec![Method::BiLoloha, Method::Rappor]);
        assert_eq!(cfg.eps_grid, vec![0.5, 2.0]);
        assert!(cfg.pair_methods);
        assert_eq!(
            cfg.grid_len().unwrap(),
            4,
            "1 dataset × 2 methods × 2 ε × 1 α"
        );
        assert_eq!(
            cfg.sweep_doc_path(),
            PathBuf::from("./smoke.sweep.json"),
            "results document sits next to the checkpoint"
        );
    }

    #[test]
    fn spec_errors_name_the_line() {
        let err = RunnerConfig::from_spec("name = ok\nbogus line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = RunnerConfig::from_spec("eps = 1.0, zap\n").unwrap_err();
        assert!(err.to_string().contains("eps"), "{err}");
        let err = RunnerConfig::from_spec("volume = 11\n").unwrap_err();
        assert!(err.to_string().contains("unknown config key"), "{err}");
    }

    #[test]
    fn validation_rejects_out_of_range_fractions_and_grids() {
        for (key, value) in [
            ("n_frac", "0"),
            ("n_frac", "-0.5"),
            ("n_frac", "1.5"),
            ("n_frac", "nan"),
            ("tau_frac", "0.0"),
            ("runs", "0"),
            ("eps", "0.0"),
            ("eps", "-1"),
            ("alphas", "1.0"),
            ("alphas", "0"),
            ("dataset", "nosuch"),
            ("name", "a b"),
            ("methods", "rappor,l-sue"),
            ("methods", "1bitflip,1bitflippm"),
            ("methods", "biloloha,rappor,BiLOLOHA"),
            ("eps", "0.5,0.50"),
            ("eps", "0.5,2.0,5e-1"),
            ("alphas", "0.5,0.5"),
        ] {
            let mut cfg = RunnerConfig::default();
            cfg.apply(key, value).unwrap();
            match cfg.validated() {
                Err(HarnessError::Config(msg)) => {
                    // Range errors name the field in prose; repeats name
                    // the key they came from.
                    if value.contains(',') {
                        assert!(msg.starts_with(&format!("{key}: ")), "{msg}");
                    }
                }
                other => panic!("{key} = {value} should fail validation, got {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_tracks_sweep_coordinates_only() {
        let base = RunnerConfig::default();
        let fp = base.fingerprint();
        // Sweep-relevant edits move the fingerprint…
        for (key, value) in [
            ("seed", "9"),
            ("runs", "4"),
            ("eps", "0.5, 2.0"),
            ("alphas", "0.4"),
            ("n_frac", "0.04"),
            ("tau_frac", "0.2"),
            ("dataset", "syn"),
            ("methods", "rappor"),
            ("pair_methods", "true"),
        ] {
            let mut cfg = base.clone();
            cfg.apply(key, value).unwrap();
            assert_ne!(cfg.fingerprint(), fp, "{key} should move the fingerprint");
        }
        // …output identity and machine knobs do not.
        for (key, value) in [
            ("threads", "8"),
            ("name", "other"),
            ("out_dir", "/tmp/elsewhere"),
        ] {
            let mut cfg = base.clone();
            cfg.apply(key, value).unwrap();
            assert_eq!(
                cfg.fingerprint(),
                fp,
                "{key} should not move the fingerprint"
            );
        }
    }

    #[test]
    fn method_names_parse_in_both_spellings() {
        assert_eq!(parse_method("BiLOLOHA").unwrap(), Method::BiLoloha);
        assert_eq!(parse_method("l-grr").unwrap(), Method::LGrr);
        assert_eq!(parse_method("bBitFlipPM").unwrap(), Method::BBitFlip);
        assert!(parse_method("quantum").is_err());
    }
}
