//! The traced run's instruments: a timing wrapper around the program's
//! report sinks, and the span ledger that is kept in memory and written
//! out when the run ends.
//!
//! Spans are recorded only from the benchmark's side of each call into
//! the program. Per-report timings are folded into one span per layer and
//! round (a total and a call count) so that a run keeps a few hundred
//! spans, not millions.

use ldp_client::ReportSink;
use ldp_ingest::{BatchSubmitter, IngestError, ReportBatch, Router};
use ldp_netd::NetSink;
use std::time::Instant;

/// How a sink tells the wrapper that a call handed a batch or frame on.
pub trait FlushCount {
    /// Hand-offs so far.
    fn flushes(&self) -> u64;
}

impl FlushCount for NetSink {
    fn flushes(&self) -> u64 {
        self.frames_acked()
    }
}

/// A [`BatchSubmitter`] that counts its flushes by mirroring the
/// submitter's per-shard report count: a shard flushes when a report
/// arrives for it while it already holds `capacity` reports.
pub struct MirroredSubmitter {
    inner: BatchSubmitter,
    router: Router,
    /// Per shard: buffered reports.
    fill: Vec<usize>,
    capacity: usize,
    flushes: u64,
}

impl MirroredSubmitter {
    /// Wraps a submitter made by `handle.batching(capacity)` for a
    /// pipeline of `workers` shards.
    pub fn new(inner: BatchSubmitter, workers: usize, capacity: usize) -> Self {
        Self {
            inner,
            router: Router::new(workers),
            fill: vec![0; workers.max(1)],
            capacity: capacity.max(1),
            flushes: 0,
        }
    }
}

impl FlushCount for MirroredSubmitter {
    fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl ReportSink for MirroredSubmitter {
    type Error = IngestError;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), IngestError> {
        let shard = &mut self.fill[self.router.route_key(user)];
        if *shard >= self.capacity {
            self.flushes += 1;
            *shard = 0;
        }
        *shard += 1;
        ReportSink::submit(&mut self.inner, user, support)
    }

    fn finish(&mut self) -> Result<(), IngestError> {
        for shard in &mut self.fill {
            if *shard > 0 {
                self.flushes += 1;
            }
            *shard = 0;
        }
        ReportSink::finish(&mut self.inner)
    }
}

/// Reports copied out of one round for off-line replays of the fold and
/// the wire codec.
#[derive(Default)]
pub struct Capture {
    /// Every support index of the sink's reports, in order.
    pub indices: Vec<u32>,
    /// Reports captured.
    pub reports: u64,
    /// The first `frame_reports` reports, packed as one transport batch.
    pub frame: ReportBatch,
    /// Key of the frame's first report.
    pub frame_key: u64,
    frame_reports: usize,
}

impl Capture {
    /// Captures whole reports, keeping the first `frame_reports` as a
    /// frame-sized batch.
    pub fn new(frame_reports: usize) -> Self {
        Self {
            frame_reports,
            ..Self::default()
        }
    }

    fn push(&mut self, user: u64, support: &[usize]) {
        let start = self.indices.len();
        self.indices.extend(support.iter().map(|&i| i as u32));
        self.reports += 1;
        if self.frame.report_count() < self.frame_reports {
            if self.frame.is_empty() {
                self.frame_key = user;
            }
            self.frame
                .push_report(self.indices[start..].iter().copied());
        }
    }
}

/// A report sink that times every call into the wrapped sink. Calls that
/// hand a batch on are kept apart from calls that only pack. The gap
/// between two calls is where the pool sanitizes the next report, but it
/// also holds scheduler waits, so the ledger books the client from the
/// mirror's independent per-report figure instead and leaves the rest of
/// the gap unattributed.
pub struct Timed<S> {
    /// The wrapped sink.
    pub inner: S,
    last: Instant,
    /// When the round handed this sink's users to the pool.
    pub start: Instant,
    /// When this sink's `finish` returned.
    pub end: Instant,
    /// Time between calls, summed.
    pub gap_ns: u64,
    /// Durations of calls that only packed.
    pub pack_ns: Vec<u32>,
    /// Durations of calls that handed on (flushing submits and `finish`).
    pub flush_ns: Vec<u64>,
    /// Reports submitted.
    pub reports: u64,
    /// Reports copied out, when this round is the capture round.
    pub capture: Option<Capture>,
}

impl<S> Timed<S> {
    /// Wraps `inner`; `capture` copies the round's reports out.
    pub fn new(inner: S, capture: Option<Capture>) -> Self {
        let now = Instant::now();
        Self {
            inner,
            last: now,
            start: now,
            end: now,
            gap_ns: 0,
            pack_ns: Vec::new(),
            flush_ns: Vec::new(),
            reports: 0,
            capture,
        }
    }

    /// Marks the instant the round's values go to the pool.
    pub fn arm(&mut self, at: Instant) {
        self.start = at;
        self.last = at;
        self.end = at;
    }

    /// The span from arming to `finish`, in ns.
    pub fn span_ns(&self) -> u64 {
        ns(self.end - self.start)
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl<S: ReportSink + FlushCount> ReportSink for Timed<S> {
    type Error = S::Error;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), S::Error> {
        let t0 = Instant::now();
        self.gap_ns += ns(t0 - self.last);
        let before = self.inner.flushes();
        self.inner.submit(user, support)?;
        let t1 = Instant::now();
        let d = ns(t1 - t0);
        if self.inner.flushes() > before {
            self.flush_ns.push(d);
        } else {
            self.pack_ns.push(u32::try_from(d).unwrap_or(u32::MAX));
        }
        self.reports += 1;
        // The copy runs outside both timed intervals; the capture round
        // is left out of the ledger.
        if let Some(c) = &mut self.capture {
            c.push(user, support);
            self.last = Instant::now();
        } else {
            self.last = t1;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), S::Error> {
        let t0 = Instant::now();
        self.gap_ns += ns(t0 - self.last);
        self.inner.finish()?;
        let t1 = Instant::now();
        self.flush_ns.push(ns(t1 - t0));
        self.end = t1;
        Ok(())
    }
}

/// One span of the ledger: a layer's time within one traced round,
/// summed over `count` calls, under the span named `parent`.
#[derive(Debug, Clone)]
pub struct Span {
    /// The traced round.
    pub round: u64,
    /// Layer-qualified name (`client.report`, `netd.ack`, ...), or a
    /// structural span (`round`, `sanitize`, `worker`).
    pub name: &'static str,
    /// Name of the enclosing span in the same round (`""` for the root).
    pub parent: &'static str,
    /// Total duration.
    pub ns: u64,
    /// Calls folded into the span.
    pub count: u64,
}

/// Spans that only structure a round; their self time is time no named
/// layer accounts for. `cli.run` is `collect`'s whole run timed inside
/// its process: what its measured children leave is unattributed.
const STRUCTURAL: &[&str] = &["round", "sanitize", "worker", "cli.run"];

/// The in-memory span ledger of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Every recorded span.
    pub spans: Vec<Span>,
}

impl Ledger {
    /// Records one span.
    pub fn push(
        &mut self,
        round: u64,
        name: &'static str,
        parent: &'static str,
        ns: u64,
        count: u64,
    ) {
        self.spans.push(Span {
            round,
            name,
            parent,
            ns,
            count,
        });
    }

    /// Records the blocking path of a sanitize phase: the worker that
    /// finished last (its `count` is its reports), and the sink layers
    /// inside it. The client inside it is booked later by
    /// [`Ledger::book_client`]. Returns that worker's mean gap between
    /// sink calls, in ns per report.
    pub fn push_workers<S>(
        &mut self,
        round: u64,
        sinks: &[Timed<S>],
        names: (&'static str, &'static str),
    ) -> f64 {
        let Some(w) = sinks.iter().max_by_key(|s| s.end) else {
            return 0.0;
        };
        self.push(round, "worker", "sanitize", w.span_ns(), w.reports);
        let pack: u64 = w.pack_ns.iter().map(|&d| u64::from(d)).sum();
        self.push(round, names.0, "worker", pack, w.pack_ns.len() as u64);
        let flush: u64 = w.flush_ns.iter().sum();
        self.push(round, names.1, "worker", flush, w.flush_ns.len() as u64);
        w.gap_ns as f64 / w.reports.max(1) as f64
    }

    /// Books `name` inside every worker span at `ns_per_report` (measured
    /// apart from the round) times the worker's reports. Whatever of the
    /// worker the sink layers and this leave is unattributed.
    pub fn book_client(&mut self, name: &'static str, ns_per_report: f64) {
        let workers: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| (s.round, s.count))
            .collect();
        for (round, reports) in workers {
            let ns = (ns_per_report * reports as f64) as u64;
            self.push(round, name, "worker", ns, reports);
        }
    }

    /// Distinct rounds in the ledger.
    pub fn rounds(&self) -> u64 {
        let mut r: Vec<u64> = self.spans.iter().map(|s| s.round).collect();
        r.sort_unstable();
        r.dedup();
        r.len() as u64
    }

    /// Mean self time per round of every span name: its duration minus
    /// the part its child spans cover. Sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let rounds = self.rounds().max(1) as f64;
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let own: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.ns as f64)
                    .sum();
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.parent == name)
                    .map(|s| s.ns as f64)
                    .sum();
                (name, (own - children) / rounds)
            })
            .collect()
    }

    /// Mean root (`round`) duration per round, in ns.
    pub fn round_ns(&self) -> f64 {
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == "round")
            .map(|s| s.ns as f64)
            .sum();
        total / self.rounds().max(1) as f64
    }

    /// Per-layer self time per round (layer = name before the first
    /// `.`), with the structural spans' self time reported as
    /// `unattributed`.
    pub fn rollup(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (name, t) in self.self_times() {
            let layer = if STRUCTURAL.contains(&name) {
                "unattributed"
            } else {
                name.split('.').next().unwrap_or(name)
            };
            match out.iter_mut().find(|(l, _)| l == layer) {
                Some((_, acc)) => *acc += t,
                None => out.push((layer.to_string(), t)),
            }
        }
        out
    }

    /// Share of the traced round that no named layer accounts for: the
    /// structural spans' self times, each counted by its size, so that a
    /// layer booked too high in one span cannot hide a gap in another.
    pub fn unattributed_frac(&self) -> f64 {
        let round = self.round_ns();
        if round <= 0.0 {
            return 0.0;
        }
        let un: f64 = self
            .self_times()
            .iter()
            .filter(|(name, _)| STRUCTURAL.contains(name))
            .map(|(_, t)| t.abs())
            .sum();
        un / round
    }

    /// The ledger as a JSON document: every span, then the roll-up.
    pub fn to_json(&self, workload: &str, seed: u64, provenance: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"round\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"ns\": {}, \"count\": {}}}",
                    s.round, s.name, s.parent, s.ns, s.count
                )
            })
            .collect();
        let rollup: Vec<String> = self
            .rollup()
            .iter()
            .map(|(l, t)| format!("\"{l}\": {}", crate::metrics::num(t / 1e6)))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"provenance\": {provenance}, \
             \"round_ms\": {}, \"self_ms_per_round\": {{{}}}, \"spans\": [\n{}\n]}}\n",
            crate::metrics::num(self.round_ns() / 1e6),
            rollup.join(", "),
            spans.join(",\n")
        )
    }
}
