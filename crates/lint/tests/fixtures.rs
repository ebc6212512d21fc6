//! Fixture-backed positive/negative tests: every rule in docs/LINTS.md
//! has one minimal triggering tree and one minimal passing tree under
//! `tests/fixtures/`. Each tree is a miniature workspace root (the same
//! `crates/*/src` shape the real scan walks), so these tests exercise
//! the full engine — file collection, scanning, rules, and suppression
//! accounting — not rule functions in isolation.

use ldp_lint::{run_check, Report, Severity};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str) -> Report {
    run_check(&fixture_root(name)).expect("fixture tree scans")
}

/// The triggering tree must produce at least one finding of `rule` —
/// and, for error-level rules, fail the check (non-zero exit).
fn assert_fires(name: &str, rule: &str, severity: Severity) {
    let r = check(name);
    let hits: Vec<_> = r.findings.iter().filter(|f| f.rule == rule).collect();
    assert!(
        !hits.is_empty(),
        "{name}: expected {rule} to fire, got {:?}",
        r.findings
    );
    for f in &hits {
        assert_eq!(f.severity, severity, "{name}: {rule} severity");
        assert!(f.line > 0, "{name}: finding must carry a line");
    }
    assert_eq!(
        r.failed(),
        severity == Severity::Error,
        "{name}: error-level findings (and only those) fail the check"
    );
}

/// The passing tree must be completely clean.
fn assert_clean(name: &str) {
    let r = check(name);
    assert!(r.findings.is_empty(), "{name}: {:?}", r.findings);
    assert!(!r.failed());
}

#[test]
fn p001_ambient_entropy() {
    assert_fires("p001_bad", "P001", Severity::Error);
    assert_clean("p001_ok"); // includes thread_rng in a non-privacy crate
}

#[test]
fn p002_self_made_rng_in_report_into() {
    assert_fires("p002_bad", "P002", Severity::Error);
    assert_clean("p002_ok");
}

#[test]
fn p003_raw_value_into_report_buffer() {
    assert_fires("p003_bad", "P003", Severity::Error);
    assert_clean("p003_ok"); // includes a registered sanitizer module
}

#[test]
fn p004_tainted_telemetry_sink_argument() {
    assert_fires("p004_bad", "P004", Severity::Error);
    assert_clean("p004_ok"); // observe() bookkeeping + non-privacy crates
}

#[test]
fn d001_unordered_iteration_in_encode_path() {
    assert_fires("d001_bad", "D001", Severity::Error);
    assert_clean("d001_ok"); // BTreeMap iteration + HashSet membership
}

#[test]
fn d002_truncating_cast_on_codec_path() {
    assert_fires("d002_bad", "D002", Severity::Error);
    assert_clean("d002_ok"); // try_from write side, widening read side
}

#[test]
fn d002_wire_encoder_narrowing_cast() {
    // Wire-flavored variants modeled on `ldp_netd::proto`: the same
    // rule that guards checkpoint codecs guards frame encoders.
    assert_fires("d002_wire_bad", "D002", Severity::Error);
    assert_clean("d002_wire_ok"); // u32::try_from at the cap, widening reads
}

#[test]
fn c001_magic_registry_drift() {
    assert_fires("c001_bad", "C001", Severity::Error);
    assert_clean("c001_ok");
}

#[test]
fn c002_asymmetric_save_load() {
    assert_fires("c002_bad", "C002", Severity::Error);
    assert_clean("c002_ok"); // symmetry through same-file helpers
}

#[test]
fn c002_wire_encoder_decoder_drift() {
    // encode_*/decode_* pairing, wire flavor: a field written but never
    // read back is exactly the drift WIRE_FORMAT.md §2 forbids without
    // a version bump.
    assert_fires("c002_wire_bad", "C002", Severity::Error);
    assert_clean("c002_wire_ok"); // nested method frame + payload helpers
}

#[test]
fn c003_prelude_surface_drift() {
    assert_fires("c003_bad", "C003", Severity::Error);
    assert_clean("c003_ok");
}

#[test]
fn c004_metric_catalog_drift() {
    assert_fires("c004_bad", "C004", Severity::Error);
    assert_clean("c004_ok");
    let bad = check("c004_bad");
    let c004: Vec<_> = bad.findings.iter().filter(|f| f.rule == "C004").collect();
    assert_eq!(c004.len(), 2, "one per direction: {c004:?}");
}

#[test]
fn l001_panic_on_decode_path() {
    // Warn level: reported, does not fail the gate by itself. The
    // workspace self-check still requires zero findings overall.
    assert_fires("l001_bad", "L001", Severity::Warn);
    assert_clean("l001_ok");
}

#[test]
fn a001_reasonless_suppression() {
    assert_fires("a001_bad", "A001", Severity::Error);
}

#[test]
fn a002_stale_suppression() {
    assert_fires("a002_bad", "A002", Severity::Warn);
}

#[test]
fn reasoned_suppression_is_counted_and_passes() {
    let r = check("allow_ok");
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert!(!r.failed());
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "P001");
    assert_eq!(r.allows[0].suppressed, 1);
    assert!(!r.allows[0].reason.is_empty());
}

#[test]
fn json_output_round_trips_the_fixture_findings() {
    let r = check("p001_bad");
    let json = r.render_json();
    assert!(json.contains("\"rule\": \"P001\""));
    assert!(json.contains("\"severity\": \"error\""));
    assert!(json.contains("crates/core/src/lib.rs"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn every_cataloged_rule_has_fixture_coverage() {
    // Keep this list in lockstep with docs/LINTS.md and rules::REGISTRY:
    // adding a rule without fixtures fails here, not in review.
    let fixture_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for meta in ldp_lint::rules::REGISTRY {
        let slug = meta.id.to_lowercase();
        let bad = fixture_dir.join(format!("{slug}_bad"));
        assert!(
            bad.is_dir(),
            "rule {} has no triggering fixture ({})",
            meta.id,
            bad.display()
        );
        // A-series passing behavior is covered by allow_ok; every other
        // rule carries its own `_ok` tree.
        if !meta.id.starts_with('A') {
            let ok = fixture_dir.join(format!("{slug}_ok"));
            assert!(
                ok.is_dir(),
                "rule {} has no passing fixture ({})",
                meta.id,
                ok.display()
            );
        }
    }
}
