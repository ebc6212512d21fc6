//! `ldp_lint` — the workspace privacy-invariant static analyzer.
//!
//! A self-contained pass over the workspace sources (hand-rolled lexer,
//! no external parser crates) that machine-checks the invariants the
//! LDP guarantee and the checkpoint compat story rest on. The rule
//! catalog lives in `docs/LINTS.md`; run it as
//! `cargo run -p ldp_lint --release -- check`.
//!
//! Findings can be suppressed inline with a reasoned annotation,
//! `// ldp_lint::allow(RULE_ID): reason`, placed on (or directly above)
//! the offending line. Reasonless or stale annotations are themselves
//! findings (`A001`/`A002`), so the allowlist can only drift loudly.

pub mod report;
pub mod rules;
pub mod scan;
pub mod tokenize;

pub use report::{AppliedAllow, Finding, Report, Severity};

use scan::SourceFile;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// An engine-level failure (I/O, bad root) — distinct from findings.
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

/// Runs the full check over the workspace rooted at `root` and returns
/// the (sorted) report. The scan set is `src/**/*.rs` plus
/// `crates/*/src/**/*.rs`; tests, benches, examples, vendored crates,
/// and anything under a `fixtures` directory are out of scope.
pub fn run_check(root: &Path) -> Result<Report, LintError> {
    let registered = rules::suppressible_ids();
    let sources = collect_sources(root)?;
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, text)| scan::scan_source(rel, text, &registered))
        .collect();

    let mut findings: Vec<Finding> = Vec::new();
    for f in &files {
        rules::privacy::p001(f, &mut findings);
        rules::privacy::p002(f, &mut findings);
        rules::privacy::p003(f, &mut findings);
        rules::privacy::p004(f, &mut findings);
        rules::determinism::d001(f, &mut findings);
        rules::determinism::d002(f, &mut findings);
        rules::compat::c002(f, &mut findings);
        rules::panics::l001(f, &mut findings);
    }

    let registry_doc = fs::read_to_string(root.join(rules::compat::REGISTRY_DOC)).ok();
    rules::compat::c001(&files, registry_doc.as_deref(), &mut findings);

    let prelude = files.iter().find(|f| f.rel == rules::compat::PRELUDE_SRC);
    let snapshot = fs::read_to_string(root.join(rules::compat::PRELUDE_SNAPSHOT)).ok();
    rules::compat::c003(prelude, snapshot.as_deref(), &mut findings);

    let catalog = fs::read_to_string(root.join(rules::compat::METRIC_CATALOG)).ok();
    rules::compat::c004(&files, catalog.as_deref(), &mut findings);

    let mut report = apply_allows(&files, findings, &registered);
    report.files_scanned = files.len();
    report.sort();
    Ok(report)
}

/// Applies inline suppressions to the raw findings and emits the
/// A-series meta-findings (`A001` reasonless/unknown, `A002` stale).
fn apply_allows(files: &[SourceFile], findings: Vec<Finding>, registered: &[&str]) -> Report {
    let mut kept: Vec<Finding> = Vec::new();
    let mut applied: Vec<AppliedAllow> = Vec::new();
    let mut meta: Vec<Finding> = Vec::new();

    // Per-file: resolve each allow to its target line, then partition
    // findings into suppressed / kept.
    for file in files {
        // (rule, target line, allow line, reason, suppressed count)
        let mut slots: Vec<(String, Option<u32>, u32, String, usize)> = Vec::new();
        for a in &file.allows {
            if !registered.contains(&a.rule.as_str()) {
                meta.push(Finding {
                    rule: "A001",
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: a.line,
                    message: format!(
                        "suppression names unknown rule `{}`; see docs/LINTS.md for the catalog",
                        a.rule
                    ),
                });
                continue;
            }
            if a.reason.is_empty() {
                meta.push(Finding {
                    rule: "A001",
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: a.line,
                    message: format!(
                        "suppression of `{}` has no reason; write `: <why this is sound>`",
                        a.rule
                    ),
                });
            }
            slots.push((
                a.rule.clone(),
                file.allow_target(a.line),
                a.line,
                a.reason.clone(),
                0,
            ));
        }
        for f in findings.iter().filter(|f| f.file == file.rel) {
            let slot = slots.iter_mut().find(|(rule, target, aline, _, _)| {
                rule == f.rule && (*target == Some(f.line) || *aline == f.line)
            });
            match slot {
                Some(s) => s.4 += 1,
                None => kept.push(f.clone()),
            }
        }
        for (rule, _, line, reason, suppressed) in slots {
            if suppressed == 0 && !reason.is_empty() {
                meta.push(Finding {
                    rule: "A002",
                    severity: Severity::Warn,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "stale suppression: `{rule}` no longer fires here — remove the annotation"
                    ),
                });
            }
            applied.push(AppliedAllow {
                rule,
                file: file.rel.clone(),
                line,
                reason,
                suppressed,
            });
        }
    }
    // Findings in files the scanner never saw (the registry doc) cannot
    // be suppressed; keep them as-is.
    let scanned: std::collections::BTreeSet<&str> = files.iter().map(|f| f.rel.as_str()).collect();
    for f in findings {
        if !scanned.contains(f.file.as_str()) {
            kept.push(f);
        }
    }
    kept.extend(meta);
    Report {
        findings: kept,
        allows: applied,
        files_scanned: 0,
    }
}

/// Collects `(relative path, contents)` for every in-scope source file,
/// sorted by path for deterministic output.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, LintError> {
    if !root.is_dir() {
        return Err(LintError(format!("not a directory: {}", root.display())));
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        walk_rs(&facade, &mut paths)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| LintError(format!("{}: {e}", crates_dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut paths)?;
            }
        }
    }
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.split('/').any(|c| c == "fixtures") {
            continue;
        }
        let text =
            fs::read_to_string(&p).map_err(|e| LintError(format!("{}: {e}", p.display())))?;
        out.push((rel, text));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Recursively gathers `.rs` files under `dir` (sorted traversal).
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| LintError(format!("{}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Computes the prelude surface of the workspace at `root` (for the
/// `snapshot-prelude` subcommand and the tier-1 drift test). Returns the
/// sorted leaf names, or an empty list when the workspace has no
/// `src/prelude.rs`.
pub fn prelude_surface_of(root: &Path) -> Result<Vec<String>, LintError> {
    let path = root.join(rules::compat::PRELUDE_SRC);
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text =
        fs::read_to_string(&path).map_err(|e| LintError(format!("{}: {e}", path.display())))?;
    let file = scan::scan_source(
        rules::compat::PRELUDE_SRC,
        &text,
        &rules::suppressible_ids(),
    );
    Ok(rules::compat::prelude_surface(&file)
        .into_iter()
        .map(|(n, _)| n)
        .collect())
}

/// Walks upward from `start` to the nearest directory containing a
/// `Cargo.toml` that declares `[workspace]` — the default scan root.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a throwaway tree under the target dir, runs the check, and
    /// cleans up. Integration-grade fixtures live in `tests/fixtures/`;
    /// these unit tests only cover the engine plumbing (allow
    /// application, A-series, scan-set boundaries).
    fn with_tree(name: &str, files: &[(&str, &str)], f: impl FnOnce(&Path)) {
        let dir = std::env::temp_dir().join(format!("ldp_lint_unit_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for (rel, text) in files {
            let p = dir.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, text).unwrap();
        }
        f(&dir);
        let _ = fs::remove_dir_all(&dir);
    }

    const ALLOW: &str = concat!("ldp_lint::", "allow");

    #[test]
    fn allow_suppresses_and_is_counted() {
        let src = format!(
            "// {ALLOW}(P001): fixture exercising suppression accounting\nfn f() {{ let r = thread_rng(); }}\n"
        );
        with_tree("allow", &[("crates/core/src/lib.rs", &src)], |root| {
            let r = run_check(root).unwrap();
            assert!(r.findings.is_empty(), "{:?}", r.findings);
            assert_eq!(r.allows.len(), 1);
            assert_eq!(r.allows[0].suppressed, 1);
            assert!(!r.failed());
        });
    }

    #[test]
    fn reasonless_allow_is_a001_and_stale_allow_is_a002() {
        let reasonless = format!("// {ALLOW}(P001)\nfn f() {{ let r = thread_rng(); }}\n");
        with_tree("a001", &[("crates/core/src/lib.rs", &reasonless)], |root| {
            let r = run_check(root).unwrap();
            assert!(r.findings.iter().any(|f| f.rule == "A001"));
            assert!(r.failed());
        });
        let stale = format!("// {ALLOW}(P001): nothing actually fires below\nfn f() {{}}\n");
        with_tree("a002", &[("crates/core/src/lib.rs", &stale)], |root| {
            let r = run_check(root).unwrap();
            assert!(r.findings.iter().any(|f| f.rule == "A002"));
            assert!(!r.failed(), "stale allows warn, not fail");
        });
    }

    #[test]
    fn tests_and_fixture_dirs_are_out_of_scope() {
        with_tree(
            "scope",
            &[
                ("crates/core/src/lib.rs", "fn ok() {}\n"),
                ("crates/core/tests/it.rs", "fn t() { thread_rng(); }\n"),
                (
                    "crates/core/src/fixtures/bad.rs",
                    "fn t() { thread_rng(); }\n",
                ),
            ],
            |root| {
                let r = run_check(root).unwrap();
                assert!(r.findings.is_empty(), "{:?}", r.findings);
                assert_eq!(r.files_scanned, 1);
            },
        );
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = format!("// {ALLOW}(Z999): no such rule\nfn f() {{}}\n");
        with_tree("unknown", &[("crates/core/src/lib.rs", &src)], |root| {
            let r = run_check(root).unwrap();
            assert_eq!(r.findings.len(), 1);
            assert_eq!(r.findings[0].rule, "A001");
            assert!(r.findings[0].message.contains("Z999"));
        });
    }

    #[test]
    fn discover_root_finds_workspace_manifest() {
        with_tree(
            "root",
            &[
                ("Cargo.toml", "[workspace]\nmembers = []\n"),
                ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"),
                ("crates/x/src/lib.rs", "fn f() {}\n"),
            ],
            |root| {
                let found = discover_root(&root.join("crates/x/src")).unwrap();
                assert_eq!(found.canonicalize().unwrap(), root.canonicalize().unwrap());
            },
        );
    }
}
