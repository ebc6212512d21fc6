//! The metric catalog: every name the benchmark emits, with its unit.
//! `BENCHMARK.json` lists the same names and units; the self-test checks
//! that the two agree and that every run emits exactly this set.

use std::collections::BTreeMap;

/// End-to-end metrics, emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("reports_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`). A layer
/// that a workload never calls reports 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.report_ns", "ns"),
    ("client.perturb_ns", "ns"),
    ("client.support_ns", "ns"),
    ("client.support_indices", "count"),
    ("client.memo_miss_frac", "ratio"),
    ("client.pool_build_s", "s"),
    ("client.rss_bytes_per_user", "B"),
    ("ingest.submit_ns", "ns"),
    ("ingest.flush_us", "us"),
    ("ingest.batches", "count/round"),
    ("ingest.batch_fill", "reports"),
    ("ingest.send_blocked_frac", "ratio"),
    ("ingest.finish_round_ms", "ms"),
    ("ingest.drain_wait_ms", "ms"),
    ("runtime.fold_ns_per_index", "ns"),
    ("runtime.merge_us", "us"),
    ("runtime.estimate_us", "us"),
    ("netd.connect_ms", "ms"),
    ("netd.pack_ns", "ns"),
    ("netd.ack_us_p50", "us"),
    ("netd.ack_us_tail", "us"),
    ("netd.encode_us", "us"),
    ("netd.decode_us", "us"),
    ("netd.wire_bytes_per_report", "B"),
    ("netd.frames", "count/round"),
    ("netd.end_round_ms", "ms"),
    ("netd.checkpoints", "count/round"),
    ("store.net_save_ms", "ms"),
    ("store.net_load_ms", "ms"),
    ("store.net_bytes", "B"),
    ("cli.parse_ms", "ms"),
    ("cli.sanitize_one_ns", "ns"),
    ("cli.run_ms", "ms"),
    ("cli.growth", "ratio"),
    ("trace.round_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// The catalog a run mode emits.
pub fn catalog(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values of one run, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be in a catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// The `metrics` object of the result line: the whole catalog of the
    /// mode, in catalog order, 0 for a layer the workload never calls.
    pub fn to_json(&self, trace: bool) -> String {
        let fields: Vec<String> = catalog(trace)
            .iter()
            .map(|(name, unit)| {
                let value = self.0.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit Rust prints for an `f64` (JSON has no
/// NaN or infinity, so those become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
