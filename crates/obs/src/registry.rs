//! The instrument registry and its handle types.
//!
//! A [`MetricsRegistry`] is a cheap clone of a shared map from
//! `(name, label, index)` keys to atomic instruments. Handles returned by
//! the `counter*`/`gauge*`/`histogram*` constructors are `Arc`s onto the
//! underlying atomics: the map lock is taken only at handle-construction
//! and snapshot time, never on the hot update path.
//!
//! A registry built with [`MetricsRegistry::disabled`] hands out no-op
//! handles (a `None` inside), so instrumented code pays one branch and no
//! atomic traffic — the "telemetry off" mode the overhead benchmark
//! measures against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::{MetricSample, MetricValue, ObsSnapshot};

/// Number of histogram buckets: bucket `b` counts values whose bit length
/// is `b`, i.e. bucket 0 holds only zero and bucket `b ≥ 1` holds
/// `[2^(b-1), 2^b)`. A `u64` has bit lengths `0..=64`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in (its bit length).
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Interior of one histogram: fixed power-of-two buckets plus running
/// count and sum, all updated with relaxed atomics.
#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing counter handle (no-op when disabled).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores all updates.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle (no-op when disabled).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores all updates.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A power-of-two-bucket histogram handle (no-op when disabled).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistCore>>);

impl Histogram {
    /// A handle that ignores all updates.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Whether updates actually land anywhere (false for no-op handles).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |core| core.count.load(Ordering::Relaxed))
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |core| core.sum.load(Ordering::Relaxed))
    }

    /// Starts a [`Span`] that records its elapsed nanoseconds into this
    /// histogram when dropped.
    pub fn span(&self) -> Span {
        Span::enter(self)
    }
}

/// An RAII stage timer: measures wall time between construction and drop
/// and records the elapsed nanoseconds into a [`Histogram`].
///
/// The clock read lives *here*, inside the telemetry crate — instrumented
/// privacy crates never name a time source themselves (lint P001), they
/// only hold a `Span`. A span over a no-op histogram never touches the
/// clock at all.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    started: Option<Instant>,
}

impl Span {
    /// Starts timing into `hist` (a no-op if `hist` is disabled).
    pub fn enter(hist: &Histogram) -> Self {
        let started = hist.is_enabled().then(Instant::now);
        Self {
            hist: hist.clone(),
            started,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

/// One registered instrument.
#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<HistCore>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Hist(_) => "histogram",
        }
    }
}

/// A fully static instrument key. `&'static str` name/label is the privacy
/// boundary: runtime data cannot become part of the metric key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    label: Option<&'static str>,
    index: Option<u32>,
}

/// Shared registry state. A `BTreeMap` (not a hash map) so snapshot
/// iteration order is a pure function of the keys — the determinism the
/// exporter's byte-identical guarantee rests on.
#[derive(Debug, Default)]
struct Inner {
    slots: Mutex<BTreeMap<Key, Slot>>,
}

/// A per-run collection of instruments.
///
/// Cloning is cheap and all clones share the same instruments. Use
/// [`MetricsRegistry::new`] for a recording registry (the CLI gives each
/// `collect` run its own so snapshots are a pure function of the input)
/// and [`MetricsRegistry::disabled`] to hand instrumented code no-op
/// handles. There is no process-wide registry: every instrumented
/// constructor takes the registry it records into.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// A fresh, enabled, isolated registry.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A registry whose handles are all no-ops.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this registry actually records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner.slots.lock().expect("obs registry poisoned").len()
        })
    }

    /// True when no instrument has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot<F>(&self, key: Key, make: F) -> Option<Slot>
    where
        F: FnOnce() -> Slot,
    {
        let inner = self.inner.as_ref()?;
        let mut slots = inner.slots.lock().expect("obs registry poisoned");
        let slot = slots.entry(key).or_insert_with(make);
        Some(match slot {
            Slot::Counter(cell) => Slot::Counter(Arc::clone(cell)),
            Slot::Gauge(cell) => Slot::Gauge(Arc::clone(cell)),
            Slot::Hist(core) => Slot::Hist(Arc::clone(core)),
        })
    }

    fn counter_at(&self, key: Key) -> Counter {
        match self.slot(key, || Slot::Counter(Arc::new(AtomicU64::new(0)))) {
            Some(Slot::Counter(cell)) => Counter(Some(cell)),
            Some(other) => panic!(
                "metric `{}` already registered as a {}, requested as a counter",
                key.name,
                other.kind()
            ),
            None => Counter::noop(),
        }
    }

    fn gauge_at(&self, key: Key) -> Gauge {
        match self.slot(key, || Slot::Gauge(Arc::new(AtomicU64::new(0)))) {
            Some(Slot::Gauge(cell)) => Gauge(Some(cell)),
            Some(other) => panic!(
                "metric `{}` already registered as a {}, requested as a gauge",
                key.name,
                other.kind()
            ),
            None => Gauge::noop(),
        }
    }

    fn histogram_at(&self, key: Key) -> Histogram {
        match self.slot(key, || Slot::Hist(Arc::new(HistCore::new()))) {
            Some(Slot::Hist(core)) => Histogram(Some(core)),
            Some(other) => panic!(
                "metric `{}` already registered as a {}, requested as a histogram",
                key.name,
                other.kind()
            ),
            None => Histogram::noop(),
        }
    }

    /// A counter named `name` (see `docs/OBS_FORMAT.md` for the
    /// `ldp.<crate>.<subsystem>.<name>` convention).
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_at(Key {
            name,
            label: None,
            index: None,
        })
    }

    /// One member of a statically-labeled counter family.
    pub fn counter_labeled(&self, name: &'static str, label: &'static str) -> Counter {
        self.counter_at(Key {
            name,
            label: Some(label),
            index: None,
        })
    }

    /// One member of an index-keyed counter family (per-shard counters).
    pub fn counter_indexed(&self, name: &'static str, index: u32) -> Counter {
        self.counter_at(Key {
            name,
            label: None,
            index: Some(index),
        })
    }

    /// A gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_at(Key {
            name,
            label: None,
            index: None,
        })
    }

    /// A histogram named `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_at(Key {
            name,
            label: None,
            index: None,
        })
    }

    /// One member of a statically-labeled histogram family (per-method
    /// stage timings).
    pub fn histogram_labeled(&self, name: &'static str, label: &'static str) -> Histogram {
        self.histogram_at(Key {
            name,
            label: Some(label),
            index: None,
        })
    }

    /// A point-in-time copy of every instrument, sorted by
    /// `(name, label, index)`. Relaxed loads: concurrent updates may or
    /// may not be visible, but a quiesced registry snapshots exactly.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut samples = Vec::new();
        if let Some(inner) = &self.inner {
            let slots = inner.slots.lock().expect("obs registry poisoned");
            for (key, slot) in slots.iter() {
                let value = match slot {
                    Slot::Counter(cell) => MetricValue::Counter(cell.load(Ordering::Relaxed)),
                    Slot::Gauge(cell) => MetricValue::Gauge(cell.load(Ordering::Relaxed)),
                    Slot::Hist(core) => {
                        let mut buckets = Vec::new();
                        for (b, cell) in core.buckets.iter().enumerate() {
                            let hits = cell.load(Ordering::Relaxed);
                            if hits > 0 {
                                buckets.push((b as u32, hits));
                            }
                        }
                        MetricValue::Histogram {
                            count: core.count.load(Ordering::Relaxed),
                            sum: core.sum.load(Ordering::Relaxed),
                            buckets,
                        }
                    }
                };
                samples.push(MetricSample {
                    name: key.name.to_string(),
                    label: key.label.map(str::to_string),
                    index: key.index,
                    value,
                });
            }
        }
        ObsSnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_gauges_histograms_share_state_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ldp.test.unit.hits");
        let b = reg.counter("ldp.test.unit.hits");
        a.inc();
        b.inc_by(2);
        assert_eq!(a.get(), 3);

        let g = reg.gauge("ldp.test.unit.depth");
        g.set(7);
        assert_eq!(reg.gauge("ldp.test.unit.depth").get(), 7);

        let h = reg.histogram("ldp.test.unit.lat_ns");
        h.record(0);
        h.record(5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn label_and_index_address_distinct_family_members() {
        let reg = MetricsRegistry::new();
        reg.counter_indexed("ldp.test.unit.routed", 0).inc_by(4);
        reg.counter_indexed("ldp.test.unit.routed", 1).inc_by(6);
        reg.counter_labeled("ldp.test.unit.env", "report").inc();
        reg.counter_labeled("ldp.test.unit.env", "batch").inc_by(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ldp.test.unit.routed"), 10);
        assert_eq!(snap.counter_total("ldp.test.unit.env"), 3);
        assert_eq!(snap.samples().len(), 4);
    }

    #[test]
    fn disabled_registry_hands_out_noops() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("ldp.test.unit.hits");
        let g = reg.gauge("ldp.test.unit.depth");
        let h = reg.histogram("ldp.test.unit.lat_ns");
        c.inc_by(10);
        g.set(10);
        h.record(10);
        drop(Span::enter(&h));
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(!reg.is_enabled());
        assert!(reg.snapshot().samples().is_empty());
    }

    #[test]
    fn span_records_a_duration_on_drop() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ldp.test.unit.span_ns");
        {
            let _span = Span::enter(&h);
            std::hint::black_box(1 + 1);
        }
        assert_eq!(h.count(), 1);

        {
            let _span = h.span();
        }
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_programmer_error() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("ldp.test.unit.clash");
        let _g = reg.gauge("ldp.test.unit.clash");
    }
}
