//! C-series: compatibility-contract rules.
//!
//! The dual-resume story survives only if three contracts hold: every
//! on-disk magic is registered (with its current version) in
//! `docs/CHECKPOINT_FORMAT.md`; every writer sequence has a symmetric
//! reader; and the `prelude` surface downstream code compiles against
//! changes only deliberately, via the checked-in snapshot. A fourth
//! keeps the telemetry contract honest: every metric name the code
//! registers or reads is cataloged in `docs/OBS_FORMAT.md`, and every
//! cataloged name exists.

use crate::report::{Finding, Severity};
use crate::scan::SourceFile;
use crate::tokenize::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Path of the magic registry, relative to the scan root.
pub const REGISTRY_DOC: &str = "docs/CHECKPOINT_FORMAT.md";
/// Path of the prelude-surface snapshot, relative to the scan root.
pub const PRELUDE_SNAPSHOT: &str = "docs/PRELUDE_SURFACE.txt";
/// Path of the prelude module, relative to the scan root.
pub const PRELUDE_SRC: &str = "src/prelude.rs";
/// Path of the metric catalog, relative to the scan root.
pub const METRIC_CATALOG: &str = "docs/OBS_FORMAT.md";

/// One row of the registry table in `docs/CHECKPOINT_FORMAT.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    pub magic: String,
    pub version: u16,
    pub line: u32,
}

/// Parses the `§3 Magic registry` table: rows shaped
/// `| \`XXXX\` | store | N | … |` with a 4-character backticked magic in
/// the first column and the current version in the third.
pub fn registry_entries(doc: &str) -> Vec<RegistryEntry> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 3 {
            continue;
        }
        let first = cells[0].trim();
        let magic = first.trim_matches('`');
        if first.len() != 6 || !first.starts_with('`') || !first.ends_with('`') || magic.len() != 4
        {
            continue;
        }
        let Ok(version) = cells[2].trim().parse::<u16>() else {
            continue;
        };
        out.push(RegistryEntry {
            magic: magic.to_string(),
            version,
            line: idx as u32 + 1,
        });
    }
    out
}

/// An in-code magic with its resolved version constant, for C001 and the
/// tier-1 doc-drift test.
#[derive(Debug, Clone)]
pub struct CodeMagic {
    pub file: String,
    pub line: u32,
    pub const_name: String,
    pub magic: String,
    /// Value of the paired `*VERSION` constant, if one exists in-file.
    pub version: Option<u16>,
}

/// Collects every non-test 4-byte magic constant with its paired
/// version constant (`MAGIC`→`VERSION`, `MANIFEST_MAGIC`→
/// `MANIFEST_VERSION`, …).
pub fn code_magics(files: &[SourceFile]) -> Vec<CodeMagic> {
    let mut out = Vec::new();
    for f in files {
        for m in &f.magics {
            let version_name = m.name.replace("MAGIC", "VERSION");
            let version = f
                .versions
                .iter()
                .find(|v| v.name == version_name)
                .map(|v| v.value);
            out.push(CodeMagic {
                file: f.rel.clone(),
                line: m.line,
                const_name: m.name.clone(),
                magic: m.value.clone(),
                version,
            });
        }
    }
    out
}

/// C001: cross-checks in-code magics against the registry document.
/// `doc` is `None` when the registry file does not exist.
pub fn c001(files: &[SourceFile], doc: Option<&str>, out: &mut Vec<Finding>) {
    let magics = code_magics(files);
    if magics.is_empty() {
        return; // nothing durable in this tree — rule does not apply
    }
    let Some(doc) = doc else {
        for m in &magics {
            out.push(Finding {
                rule: "C001",
                severity: Severity::Error,
                file: m.file.clone(),
                line: m.line,
                message: format!(
                    "magic `{}` has no registry: {REGISTRY_DOC} is missing",
                    m.magic
                ),
            });
        }
        return;
    };
    let registry = registry_entries(doc);
    let by_magic: BTreeMap<&str, &RegistryEntry> =
        registry.iter().map(|e| (e.magic.as_str(), e)).collect();
    for m in &magics {
        match by_magic.get(m.magic.as_str()) {
            None => out.push(Finding {
                rule: "C001",
                severity: Severity::Error,
                file: m.file.clone(),
                line: m.line,
                message: format!(
                    "magic `{}` ({}) is not in the {REGISTRY_DOC} §3 registry",
                    m.magic, m.const_name
                ),
            }),
            Some(entry) => match m.version {
                None => out.push(Finding {
                    rule: "C001",
                    severity: Severity::Error,
                    file: m.file.clone(),
                    line: m.line,
                    message: format!(
                        "magic `{}` has no paired `{}` constant in this file",
                        m.magic,
                        m.const_name.replace("MAGIC", "VERSION")
                    ),
                }),
                Some(v) if v != entry.version => out.push(Finding {
                    rule: "C001",
                    severity: Severity::Error,
                    file: m.file.clone(),
                    line: m.line,
                    message: format!(
                        "magic `{}` is version {} in code but {} in the registry",
                        m.magic, v, entry.version
                    ),
                }),
                Some(_) => {}
            },
        }
    }
    let in_code: BTreeSet<&str> = magics.iter().map(|m| m.magic.as_str()).collect();
    for e in &registry {
        if !in_code.contains(e.magic.as_str()) {
            out.push(Finding {
                rule: "C001",
                severity: Severity::Error,
                file: REGISTRY_DOC.to_string(),
                line: e.line,
                message: format!(
                    "registry lists magic `{}` but no scanned source defines it",
                    e.magic
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// C002: writer/reader symmetry.
// ---------------------------------------------------------------------------

/// One codec operation, reduced to what symmetry needs: a byte width, a
/// length-prefixed frame, or a wildcard that disables width comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Width(u8),
    Frame,
    Wild,
}

impl Op {
    fn describe(self) -> String {
        match self {
            Op::Width(w) => format!("a {w}-byte field"),
            Op::Frame => "a length-prefixed frame".to_string(),
            Op::Wild => "raw bytes".to_string(),
        }
    }
}

fn writer_op(name: &str) -> Option<Op> {
    Some(match name {
        "put_u8" => Op::Width(1),
        "put_u16" => Op::Width(2),
        "put_u32" => Op::Width(4),
        "put_u64" | "put_u64s" | "put_f64" => Op::Width(8),
        "put_frame" => Op::Frame,
        "put_bytes" | "extend_from_slice" | "push" | "extend" => Op::Wild,
        _ => return None,
    })
}

fn reader_op(name: &str) -> Option<Op> {
    Some(match name {
        "get_u8" => Op::Width(1),
        "get_u16" => Op::Width(2),
        "get_u32" => Op::Width(4),
        "get_u64" | "get_f64" => Op::Width(8),
        "get_frame" => Op::Frame,
        "take" | "array" => Op::Wild,
        _ => return None,
    })
}

/// Per-fn op summary plus the same-file calls it makes.
struct FnOps {
    writes: BTreeSet<Op>,
    reads: BTreeSet<Op>,
    calls: BTreeSet<String>,
}

fn fn_ops(body: &[Token], local_fns: &BTreeSet<&str>) -> FnOps {
    let mut ops = FnOps {
        writes: BTreeSet::new(),
        reads: BTreeSet::new(),
        calls: BTreeSet::new(),
    };
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident || !body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let method = body.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
        if method {
            if let Some(op) = writer_op(&t.text) {
                ops.writes.insert(op);
            }
            if let Some(op) = reader_op(&t.text) {
                ops.reads.insert(op);
            }
        }
        if local_fns.contains(t.text.as_str()) {
            ops.calls.insert(t.text.clone());
        }
    }
    ops
}

/// Transitive closure of a fn's ops over its same-file callees.
fn closed_ops<'a>(
    name: &'a str,
    all: &'a BTreeMap<&str, FnOps>,
    visited: &mut BTreeSet<&'a str>,
) -> (BTreeSet<Op>, BTreeSet<Op>) {
    if !visited.insert(name) {
        return (BTreeSet::new(), BTreeSet::new());
    }
    let Some(ops) = all.get(name) else {
        return (BTreeSet::new(), BTreeSet::new());
    };
    let mut writes = ops.writes.clone();
    let mut reads = ops.reads.clone();
    for callee in &ops.calls {
        let (w, r) = closed_ops(callee.as_str(), all, visited);
        writes.extend(w);
        reads.extend(r);
    }
    (writes, reads)
}

/// The partner name of a save/encode fn (`save_x`→`load_x`,
/// `encode_x`→`decode_x`), or `None` if the name is not in C002 scope.
fn partner_name(name: &str) -> Option<String> {
    if let Some(rest) = name.strip_prefix("save") {
        Some(format!("load{rest}"))
    } else {
        name.strip_prefix("encode")
            .map(|rest| format!("decode{rest}"))
    }
}

/// C002: every save/encode writer sequence needs a symmetric reader in
/// its paired load/decode fn.
pub fn c002(file: &SourceFile, out: &mut Vec<Finding>) {
    let local_fns: BTreeSet<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
    // NOTE: duplicate fn names across impl blocks (save_state on four
    // state types) collapse here; ops union across the duplicates, which
    // is conservative in the right direction — a width written by any
    // impl must be readable by some load impl in the file.
    let mut ops_by_fn: BTreeMap<&str, FnOps> = BTreeMap::new();
    for f in &file.fns {
        let ops = fn_ops(&file.tokens[f.body.0..f.body.1], &local_fns);
        match ops_by_fn.get_mut(f.name.as_str()) {
            Some(existing) => {
                existing.writes.extend(ops.writes.iter().copied());
                existing.reads.extend(ops.reads.iter().copied());
                existing.calls.extend(ops.calls.iter().cloned());
            }
            None => {
                ops_by_fn.insert(f.name.as_str(), ops);
            }
        }
    }
    let mut checked: BTreeSet<&str> = BTreeSet::new();
    for f in &file.fns {
        let Some(partner) = partner_name(&f.name) else {
            continue;
        };
        if !checked.insert(f.name.as_str()) {
            continue; // duplicates across impl blocks: check the pair once
        }
        let (writes, _) = closed_ops(&f.name, &ops_by_fn, &mut BTreeSet::new());
        if writes.is_empty() {
            continue; // not a codec writer (e.g. save to a struct)
        }
        if !local_fns.contains(partner.as_str()) {
            out.push(Finding {
                rule: "C002",
                severity: Severity::Error,
                file: file.rel.clone(),
                line: f.line,
                message: format!(
                    "`{}` writes checkpoint fields but has no paired `{}` in this file",
                    f.name, partner
                ),
            });
            continue;
        }
        let (_, reads) = closed_ops(partner.as_str(), &ops_by_fn, &mut BTreeSet::new());
        if writes.contains(&Op::Wild) || reads.contains(&Op::Wild) || reads.is_empty() {
            continue; // raw-byte traffic on either side: widths not comparable
        }
        let partner_line = file
            .fns
            .iter()
            .find(|g| g.name == partner)
            .map_or(f.line, |g| g.line);
        for op in writes.difference(&reads) {
            out.push(Finding {
                rule: "C002",
                severity: Severity::Error,
                file: file.rel.clone(),
                line: f.line,
                message: format!(
                    "`{}` writes {} that `{}` never reads",
                    f.name,
                    op.describe(),
                    partner
                ),
            });
        }
        for op in reads.difference(&writes) {
            out.push(Finding {
                rule: "C002",
                severity: Severity::Error,
                file: file.rel.clone(),
                line: partner_line,
                message: format!(
                    "`{}` reads {} that `{}` never writes",
                    partner,
                    op.describe(),
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// C003: prelude surface snapshot.
// ---------------------------------------------------------------------------

/// Extracts the sorted, deduplicated leaf names re-exported by a
/// `prelude.rs` (`pub use path::{A, B as C};` yields `A`, `C`).
pub fn prelude_surface(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.tokens;
    let mut leaves: BTreeMap<String, u32> = BTreeMap::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("pub") && toks[i + 1].is_ident("use") {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(';') {
                let t = &toks[j];
                if t.kind == TokKind::Ident
                    && !matches!(
                        t.text.as_str(),
                        "pub" | "use" | "as" | "self" | "crate" | "super"
                    )
                {
                    let next_sep = toks.get(j + 1).is_some_and(|n| n.is_punct(':'));
                    let renamed = toks.get(j + 1).is_some_and(|n| n.is_ident("as"));
                    if !next_sep && !renamed {
                        leaves.entry(t.text.clone()).or_insert(t.line);
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    leaves.into_iter().collect()
}

/// Parses the snapshot file: one name per line, `#` comments and blank
/// lines ignored.
pub fn snapshot_names(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// C003: the prelude surface must match the checked-in snapshot.
/// `prelude` is the scanned `src/prelude.rs` (rule skipped when absent);
/// `snapshot` is the snapshot file's text (`None` when missing).
pub fn c003(prelude: Option<&SourceFile>, snapshot: Option<&str>, out: &mut Vec<Finding>) {
    let Some(prelude) = prelude else {
        return;
    };
    let surface = prelude_surface(prelude);
    let Some(snapshot) = snapshot else {
        out.push(Finding {
            rule: "C003",
            severity: Severity::Error,
            file: prelude.rel.clone(),
            line: 1,
            message: format!(
                "prelude snapshot {PRELUDE_SNAPSHOT} is missing; run `ldp_lint snapshot-prelude` \
                 and commit it"
            ),
        });
        return;
    };
    let pinned = snapshot_names(snapshot);
    for (name, line) in &surface {
        if !pinned.contains(name) {
            out.push(Finding {
                rule: "C003",
                severity: Severity::Error,
                file: prelude.rel.clone(),
                line: *line,
                message: format!(
                    "`{name}` is exported by the prelude but absent from {PRELUDE_SNAPSHOT}; \
                     if the addition is deliberate, re-run `ldp_lint snapshot-prelude`"
                ),
            });
        }
    }
    let exported: BTreeSet<&str> = surface.iter().map(|(n, _)| n.as_str()).collect();
    for name in &pinned {
        if !exported.contains(name.as_str()) {
            out.push(Finding {
                rule: "C003",
                severity: Severity::Error,
                file: prelude.rel.clone(),
                line: 1,
                message: format!(
                    "`{name}` is pinned in {PRELUDE_SNAPSHOT} but no longer exported by the \
                     prelude — this breaks downstream users; restore it or re-snapshot \
                     deliberately"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// C004: metric catalog.
// ---------------------------------------------------------------------------

/// A metric name with its `{label}` / `[index]` suffix stripped, if the
/// text is one: `ldp.` plus at least two more dot-separated segments of
/// `[a-z0-9_]`. The bare prefix `"ldp."` (a namespace check) is not.
fn metric_name(text: &str) -> Option<&str> {
    let name = text.split(['{', '[']).next().unwrap_or("");
    let segments: Vec<&str> = name.strip_prefix("ldp.")?.split('.').collect();
    let valid = |seg: &&str| {
        !seg.is_empty()
            && seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    (segments.len() >= 2 && segments.iter().all(valid)).then_some(name)
}

/// Parses the catalog rows of `docs/OBS_FORMAT.md`: table rows whose
/// first cell holds backticked metric names. A shorthand name after a
/// ` / ` (`` `ldp.x.store.save_ns` / `load_ns` ``) replaces the last
/// segment of the row's first name. Returns `(name, line)` pairs.
pub fn catalog_entries(doc: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let Some(row) = line.trim().strip_prefix('|') else {
            continue;
        };
        let first_cell = row.split('|').next().unwrap_or("");
        let mut names = first_cell.split('/').map(|n| n.trim().trim_matches('`'));
        let Some(head) = names.next().and_then(metric_name) else {
            continue;
        };
        let prefix = &head[..=head.rfind('.').unwrap_or(0)];
        let line = idx as u32 + 1;
        out.push((head.to_string(), line));
        for short in names {
            let short = short.split(['{', '[']).next().unwrap_or("");
            out.push((format!("{prefix}{short}"), line));
        }
    }
    out
}

/// Every non-test `"ldp.…"` metric-name string literal: `(name, file,
/// line)`. `#[cfg(test)]` modules are already stripped by the scanner.
fn code_metrics(files: &[SourceFile]) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    for f in files {
        for t in &f.tokens {
            if t.kind != TokKind::Literal {
                continue;
            }
            let Some(text) = t.text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
                continue;
            };
            if let Some(name) = metric_name(text) {
                out.push((name.to_string(), f.rel.clone(), t.line));
            }
        }
    }
    out
}

/// C004: cross-checks metric-name literals against the catalog
/// document. `doc` is `None` when the catalog file does not exist.
pub fn c004(files: &[SourceFile], doc: Option<&str>, out: &mut Vec<Finding>) {
    let metrics = code_metrics(files);
    if metrics.is_empty() {
        return; // no telemetry in this tree — rule does not apply
    }
    let catalog = doc.map(catalog_entries).unwrap_or_default();
    let cataloged: BTreeSet<&str> = catalog.iter().map(|(n, _)| n.as_str()).collect();
    for (name, file, line) in &metrics {
        if !cataloged.contains(name.as_str()) {
            out.push(Finding {
                rule: "C004",
                severity: Severity::Error,
                file: file.clone(),
                line: *line,
                message: format!("metric `{name}` is not in the {METRIC_CATALOG} §5 catalog"),
            });
        }
    }
    let in_code: BTreeSet<&str> = metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    for (name, line) in &catalog {
        if !in_code.contains(name.as_str()) {
            out.push(Finding {
                rule: "C004",
                severity: Severity::Error,
                file: METRIC_CATALOG.to_string(),
                line: *line,
                message: format!("catalog lists metric `{name}` but no scanned source names it"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    const RULES: &[&str] = &["C001", "C002", "C003", "C004"];

    #[test]
    fn registry_table_parses() {
        let doc = "\
# Spec\n\n| Magic | Store | Current version | Legacy |\n|---|---|---|---|\n\
| `LLHA` | `loloha::persist` | 2 | 1 |\n| `LDCM` | manifest | 1 | — |\n";
        let entries = registry_entries(doc);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].magic, "LLHA");
        assert_eq!(entries[0].version, 2);
        assert_eq!(entries[1].version, 1);
    }

    #[test]
    fn c001_cross_checks_both_directions() {
        let src = "const MAGIC: &[u8; 4] = b\"AAAA\";\nconst VERSION: u16 = 2;\n";
        let files = vec![scan_source("crates/x/src/lib.rs", src, RULES)];
        let doc = "| `AAAA` | x | 2 |\n| `GONE` | y | 1 |\n";
        let mut out = Vec::new();
        c001(&files, Some(doc), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("GONE"));

        let mut out = Vec::new();
        c001(&files, Some("| `AAAA` | x | 3 |\n"), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("version 2 in code but 3"));

        let mut out = Vec::new();
        c001(&files, None, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn c002_flags_missing_partner_and_width_asymmetry() {
        let no_partner = "
            impl S {
                fn save_thing(&self, w: &mut CodecWriter) { w.put_u32(self.n); }
            }
        ";
        let asym = "
            fn save_x(w: &mut W) { w.put_u32(1); w.put_u64(2); }
            fn load_x(r: &mut R) { let a = r.get_u32()?; }
        ";
        let ok = "
            fn save_x(w: &mut W) { w.put_u32(1); write_body(w); }
            fn write_body(w: &mut W) { w.put_u64(2); }
            fn load_x(r: &mut R) { let a = r.get_u32()?; body(r); }
            fn body(r: &mut R) { let b = r.get_u64()?; }
        ";
        let mut out = Vec::new();
        c002(&scan_source("a.rs", no_partner, RULES), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no paired `load_thing`"));

        let mut out = Vec::new();
        c002(&scan_source("a.rs", asym, RULES), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("8-byte field"));

        let mut out = Vec::new();
        c002(&scan_source("a.rs", ok, RULES), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // A bulk word write is 8-byte fields like `put_u64`.
        let bulk = "
            fn save_x(w: &mut W) { w.put_u32(1); w.put_u64s(&self.words); }
            fn load_x(r: &mut R) { let a = r.get_u32()?; }
        ";
        let mut out = Vec::new();
        c002(&scan_source("a.rs", bulk, RULES), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("8-byte field"));
    }

    #[test]
    fn c002_wildcard_disables_width_comparison_only() {
        let src = "
            fn save_x(w: &mut W) { w.put_u32(1); w.put_bytes(&self.blob); }
            fn load_x(r: &mut R) { let b = r.take(n)?; }
        ";
        let mut out = Vec::new();
        c002(&scan_source("a.rs", src, RULES), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn c003_detects_drift_in_both_directions() {
        let src = "pub use a::{Foo, Bar};\npub use b::c::Baz;\npub use d::{E as Renamed};\n";
        let prelude = scan_source("src/prelude.rs", src, RULES);
        let surface: Vec<String> = prelude_surface(&prelude)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(surface, ["Bar", "Baz", "Foo", "Renamed"]);

        let mut out = Vec::new();
        c003(Some(&prelude), Some("Bar\nBaz\nFoo\nRenamed\n"), &mut out);
        assert!(out.is_empty(), "{out:?}");

        let mut out = Vec::new();
        c003(
            Some(&prelude),
            Some("# pinned\nBar\nBaz\nFoo\nRenamed\nRemoved\n"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Removed"));

        let mut out = Vec::new();
        c003(Some(&prelude), Some("Bar\nBaz\nFoo\n"), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Renamed"));

        let mut out = Vec::new();
        c003(Some(&prelude), None, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn catalog_rows_expand_shorthand_and_strip_labels() {
        let doc = "\
| name | kind |\n|---|---|\n\
| `ldp.a.store.save_ns` / `load_ns` | histogram |\n\
| `ldp.a.pipe.routed[shard]` | counter |\n\
| `ldp.a.pipe.bufpool{hit,miss}` | counter |\n\
| `name` | yes |\n";
        let names: Vec<String> = catalog_entries(doc).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "ldp.a.store.save_ns",
                "ldp.a.store.load_ns",
                "ldp.a.pipe.routed",
                "ldp.a.pipe.bufpool"
            ]
        );
        assert_eq!(
            catalog_entries(doc)[1].1,
            3,
            "shorthand keeps its row's line"
        );
    }

    #[test]
    fn c004_cross_checks_both_directions() {
        let src = "fn f() { reg.counter(\"ldp.a.pipe.routed\"); check(\"ldp.\"); }\n";
        let files = vec![scan_source("crates/x/src/lib.rs", src, RULES)];
        let mut out = Vec::new();
        c004(
            &files,
            Some("| `ldp.a.pipe.routed[shard]` | counter |\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");

        let doc = "| `ldp.a.pipe.routed` | counter |\n| `ldp.a.gone.total` | gauge |\n";
        let mut out = Vec::new();
        c004(&files, Some(doc), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, METRIC_CATALOG);
        assert!(out[0].message.contains("ldp.a.gone.total"));

        let mut out = Vec::new();
        c004(&files, None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);

        let test_only =
            "#[cfg(test)]\nmod tests { fn t() { r.counter(\"ldp.test.unit.hits\"); } }\n";
        let files = vec![scan_source("crates/x/src/lib.rs", test_only, RULES)];
        let mut out = Vec::new();
        c004(&files, None, &mut out);
        assert!(out.is_empty(), "test modules are out of scope: {out:?}");
    }
}
