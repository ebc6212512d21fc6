//! The rule registry and the per-rule implementations.
//!
//! Every rule has a stable ID (`P…` privacy flow, `D…` determinism,
//! `C…` compat contracts, `L…` library hygiene, `A…` allowlist meta),
//! a severity, and a one-line summary. The catalog with rationale and
//! examples lives in `docs/LINTS.md`; fixtures under
//! `crates/lint/tests/fixtures/` pin each rule's trigger and pass cases.

pub mod compat;
pub mod determinism;
pub mod panics;
pub mod privacy;

use crate::report::Severity;

/// Registry entry for one rule.
pub struct RuleMeta {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// Every rule the engine knows, in catalog order. `A001`/`A002` are
/// meta-rules about suppressions themselves and cannot be suppressed.
pub const REGISTRY: &[RuleMeta] = &[
    RuleMeta {
        id: "P001",
        severity: Severity::Error,
        summary: "ambient entropy or wall-clock source in a privacy-bearing crate",
    },
    RuleMeta {
        id: "P002",
        severity: Severity::Error,
        summary: "report_into constructs its own RNG instead of using the per-user stream",
    },
    RuleMeta {
        id: "P003",
        severity: Severity::Error,
        summary: "raw input value written into the report buffer outside a sanitizer",
    },
    RuleMeta {
        id: "P004",
        severity: Severity::Error,
        summary: "telemetry sink argument tainted by report or memoized protocol state",
    },
    RuleMeta {
        id: "D001",
        severity: Severity::Error,
        summary: "HashMap/HashSet iteration in a checkpoint-encode or merge path",
    },
    RuleMeta {
        id: "D002",
        severity: Severity::Error,
        summary: "truncating `as` cast on a codec read/write path",
    },
    RuleMeta {
        id: "C001",
        severity: Severity::Error,
        summary: "magic constant drifted from the CHECKPOINT_FORMAT.md registry",
    },
    RuleMeta {
        id: "C002",
        severity: Severity::Error,
        summary: "save_*/encode_* writer sequence without a symmetric load_*/decode_* reader",
    },
    RuleMeta {
        id: "C003",
        severity: Severity::Error,
        summary: "prelude public surface drifted from the checked-in snapshot",
    },
    RuleMeta {
        id: "C004",
        severity: Severity::Error,
        summary: "metric name drifted from the OBS_FORMAT.md catalog",
    },
    RuleMeta {
        id: "L001",
        severity: Severity::Warn,
        summary: "unwrap/expect/panic on a decode or parse path",
    },
    RuleMeta {
        id: "A001",
        severity: Severity::Error,
        summary: "suppression without a reason, or naming an unknown rule",
    },
    RuleMeta {
        id: "A002",
        severity: Severity::Warn,
        summary: "stale suppression: the annotation no longer suppresses anything",
    },
];

/// IDs that an inline allow may name (the A-series meta-rules excluded).
pub fn suppressible_ids() -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|r| !r.id.starts_with('A'))
        .map(|r| r.id)
        .collect()
}

/// Looks up a rule's severity (`None` for unknown IDs).
pub fn severity_of(id: &str) -> Option<Severity> {
    REGISTRY.iter().find(|r| r.id == id).map(|r| r.severity)
}

/// The crate a workspace-relative path belongs to (`crates/core/src/…`
/// → `core`); `None` for the facade's own `src/`.
pub fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}
