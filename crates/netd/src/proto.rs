//! The LDNW wire protocol: framing, the frame vocabulary, and the
//! encode/decode pair.
//!
//! Normative byte-level spec: `docs/WIRE_FORMAT.md`. A connection is a
//! stream of length-prefixed frames:
//!
//! ```text
//! len u32 LE | body (len bytes)
//! body = "LDNW" | version u16 | fingerprint u64 | kind u8 | payload | xxh64 u64
//! ```
//!
//! The body is one instance of the workspace's unified checkpoint
//! container ([`ldp_primitives::codec`]), so every frame inherits the
//! container's hostile-input posture: magic and version checked first,
//! the checksum verified before any payload byte is interpreted, and
//! every read bounds-checked. The trailer is XXH64 (seed 0), not the
//! checkpoints' FNV-1a: the codec picks it from the `LDNW` v3 header,
//! so nothing here computes a checksum. The outer length prefix is
//! capped at [`MAX_FRAME_LEN`] *before* the read buffer grows, so a
//! forged length cannot force an allocation; batch cardinality claims
//! are likewise checked against [`MAX_WIRE_REPORTS`]/[`MAX_WIRE_INDICES`]
//! and the remaining payload length before the index buffers are
//! allocated.
//!
//! A submit's supports travel as index lists or, when every report is
//! strictly ascending and it is smaller, as one bit row per report;
//! the encoder picks from the batch's reports alone — the same bytes
//! whether the batch holds lists or rows — and the decoder gives back
//! a batch in the wire's layout, equal to the one encoded. A LOLOHA
//! report can instead travel as what it is, the user's hash and one
//! cell ([`Frame::SubmitHashed`], 17 bytes a report, plus the row for a
//! user's first report); the daemon expands it into its preimage row.
//!
//! The container fingerprint carries the [`config_fingerprint`] both
//! sides derive from their own protocol configuration, so every frame —
//! not just the handshake — pins the configuration it was produced
//! under.

use crate::error::{ErrorCode, NetError};
use ldp_hash::{CwHash, SeededHash};
use ldp_ingest::ReportBatch;
use ldp_primitives::codec::{fnv1a, CodecReader, CodecWriter, CHECKSUM_LEN, HEADER_LEN};
use ldp_runtime::Method;
use std::io::{Read, Write};

/// The wire container magic (registered in `docs/CHECKPOINT_FORMAT.md`
/// §3; `LDNW` frames live on sockets, never as files).
pub const WIRE_MAGIC: &[u8; 4] = b"LDNW";
/// Current wire protocol version. A daemon speaks exactly one version;
/// frames from the future are answered with a malformed-frame error so
/// old daemons fail closed, and so are frames from the past (see
/// `docs/WIRE_FORMAT.md` §2). Version 3 changed only the trailer, to
/// XXH64.
pub const WIRE_VERSION: u16 = 3;

/// Hard cap on a frame body's length, enforced against the length
/// prefix before any buffer is grown. Generous for the largest legal
/// submit ([`MAX_WIRE_INDICES`] indices ≈ 4 MiB) plus headroom for a
/// dense round-result estimate.
pub const MAX_FRAME_LEN: u32 = 1 << 23;
/// Most reports one submit frame (either kind) may claim.
pub const MAX_WIRE_REPORTS: u32 = 1 << 16;
/// Most support indices one submit frame may claim (mirrors the ingest
/// transport's flush invariant).
pub const MAX_WIRE_INDICES: u32 = 1 << 20;
/// Largest estimate dimension a round-result frame may claim.
pub const MAX_WIRE_DIM: u32 = 1 << 24;

/// The session id loadgen's control connection (round barriers and
/// shutdown, never submits) identifies itself with.
pub const CONTROL_WORKER: u32 = u32::MAX;

/// The protocol's frame vocabulary. Kind bytes are append-only.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → daemon handshake: pins the session id and the client's
    /// resolved configuration (the fingerprint rides in the container
    /// header; the explicit fields make mismatch diagnostics readable).
    Hello {
        /// Stable per-worker session id (dedup state survives restarts).
        worker_id: u32,
        /// Input domain size the client resolved its protocol over.
        k: u64,
        /// Aggregation dimension the client expects the daemon to run.
        dim: u64,
        /// Protocol registry name (`Method::name`).
        method: String,
    },
    /// Daemon → client handshake reply: where this session's submit
    /// sequence resumes (everything `≤ resume_seq` is already applied
    /// and durable or in-memory — do not resend).
    HelloAck {
        /// Echoed session id.
        worker_id: u32,
        /// High-water submit sequence already applied for this session.
        resume_seq: u64,
        /// The daemon's current collection round.
        round: u64,
    },
    /// Client → daemon report batch: contiguously keyed reports in the
    /// ingest transport's flat-index shape.
    Submit {
        /// Per-session monotone frame sequence number (from 1).
        seq: u64,
        /// Routing key of the first report; report `i` keys `base + i`.
        key_base: u64,
        /// The packed reports.
        batch: ReportBatch,
    },
    /// Daemon → client: the submit frame `seq` is applied. `durable_seq`
    /// is this session's high-water mark in the last durable checkpoint
    /// (0 before the first), letting a client bound its replay window.
    Ack {
        /// The applied submit sequence.
        seq: u64,
        /// Reports the frame carried (echoed for client-side accounting).
        reports: u32,
        /// This session's sequence in the last durable checkpoint.
        durable_seq: u64,
    },
    /// Client → daemon: barrier the round and return its estimate.
    /// Idempotent across a crash: re-ending the previous round replays
    /// the cached result instead of closing the new round early.
    EndRound {
        /// The round the client believes it is ending.
        round: u64,
    },
    /// Daemon → client: the finished round's merged outcome.
    RoundResult {
        /// The finished round.
        round: u64,
        /// Reports folded into the round.
        reports: u64,
        /// The protocol estimator over the merged counts.
        estimate: Vec<f64>,
    },
    /// Client → daemon: drain, checkpoint, and exit (the in-band
    /// equivalent of SIGTERM).
    Shutdown,
    /// Daemon → client: drain finished; the final checkpoint covers
    /// `reports` applied reports.
    ShutdownAck {
        /// Reports covered by the final checkpoint.
        reports: u64,
    },
    /// Either direction: a structured failure report. The daemon always
    /// answers a rejected frame with one of these before closing.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail (never report contents).
        detail: String,
    },
    /// Client → daemon LOLOHA report batch: each report as its user's
    /// hash and reported cell, contiguously keyed like [`Frame::Submit`]
    /// and sharing its sequence, window, dedup and ack rules.
    SubmitHashed {
        /// Per-session monotone frame sequence number, shared with
        /// [`Frame::Submit`].
        seq: u64,
        /// Routing key of the first report; report `i` keys `base + i`.
        key_base: u64,
        /// The reports.
        batch: HashedBatch,
    },
}

/// LOLOHA reports as ⟨hash, cell⟩ pairs over one hash-cell count `g`:
/// report `i` supports every `v` with `hashes()[i].hash(v) == cells()[i]`.
/// Every hash is a valid Carter–Wegman function over `g` cells and every
/// cell is below `g` (a cell is one byte on the wire). A batch may also
/// carry every report's support as a bit row, for a collector that has
/// not seen these hashes yet; otherwise it carries none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashedBatch {
    g: u32,
    hashes: Vec<CwHash>,
    cells: Vec<u8>,
    /// Words per carried row; 0 when the reports carry no rows.
    words: usize,
    /// Report `i`'s row at `rows[i · words ..][.. words]`.
    rows: Vec<u64>,
}

impl HashedBatch {
    /// An empty batch of reports over `g` hash cells, carrying rows of
    /// `words` words (none when `words` is 0).
    pub fn new(g: u32, words: usize) -> Self {
        Self {
            g,
            hashes: Vec::new(),
            cells: Vec::new(),
            words,
            rows: Vec::new(),
        }
    }

    /// The hash-cell count every report shares.
    pub fn g(&self) -> u32 {
        self.g
    }

    /// Reports in the batch.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the batch holds no report.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The reports' hashes, in submission order.
    pub fn hashes(&self) -> &[CwHash] {
        &self.hashes
    }

    /// The reports' cells, in submission order.
    pub fn cells(&self) -> &[u8] {
        &self.cells
    }

    /// Words per carried row; 0 when the reports carry no rows.
    pub fn row_words(&self) -> usize {
        self.words
    }

    /// The carried rows, one per report (empty when none are carried).
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Appends one report, with its row when the batch carries rows
    /// (`row` is empty otherwise).
    ///
    /// # Panics
    /// Panics if the hash's cell count is not the batch's, the cell is
    /// not below it, or `row` is not [`Self::row_words`] long.
    pub fn push(&mut self, hash: CwHash, cell: u8, row: &[u64]) {
        assert!(
            hash.g() == self.g && u32::from(cell) < self.g,
            "a report's hash and cell must fit the batch's g"
        );
        assert_eq!(row.len(), self.words, "a report's row must fit the batch");
        self.hashes.push(hash);
        self.cells.push(cell);
        self.rows.extend_from_slice(row);
    }

    /// Empties the batch for reuse over `g` cells and rows of `words`
    /// words, keeping its buffers.
    pub fn reset(&mut self, g: u32, words: usize) {
        self.g = g;
        self.words = words;
        self.hashes.clear();
        self.cells.clear();
        self.rows.clear();
    }
}

impl Frame {
    /// The frame's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::HelloAck { .. } => 1,
            Frame::Submit { .. } => 2,
            Frame::Ack { .. } => 3,
            Frame::EndRound { .. } => 4,
            Frame::RoundResult { .. } => 5,
            Frame::Shutdown => 6,
            Frame::ShutdownAck { .. } => 7,
            Frame::Error { .. } => 8,
            Frame::SubmitHashed { .. } => 9,
        }
    }

    /// A static label for telemetry series.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Submit { .. } => "submit",
            Frame::Ack { .. } => "ack",
            Frame::EndRound { .. } => "end_round",
            Frame::RoundResult { .. } => "round_result",
            Frame::Shutdown => "shutdown",
            Frame::ShutdownAck { .. } => "shutdown_ack",
            Frame::Error { .. } => "error",
            Frame::SubmitHashed { .. } => "submit_hashed",
        }
    }
}

/// The configuration fingerprint both endpoints derive independently
/// and pin in every frame header: FNV-1a over the protocol identity
/// (method tag + name), the domain, the resolved aggregation dimension,
/// and the privacy budgets. Seeds are deliberately excluded — the
/// daemon never learns client seeds.
pub fn config_fingerprint(method: Method, k: u64, dim: u64, eps_inf: f64, eps_first: f64) -> u64 {
    let name = method.name().as_bytes();
    let mut bytes = Vec::with_capacity(name.len() + 32);
    bytes.extend_from_slice(name);
    bytes.extend_from_slice(&k.to_le_bytes());
    bytes.extend_from_slice(&dim.to_le_bytes());
    bytes.extend_from_slice(&eps_inf.to_le_bytes());
    bytes.extend_from_slice(&eps_first.to_le_bytes());
    fnv1a(&bytes)
}

/// Serializes one frame into a finished container body (length prefix
/// not included — [`write_frame`] adds it when the body hits a stream).
///
/// A submit picks its payload layout (`docs/WIRE_FORMAT.md` §4) from
/// the batch's reports alone: bit rows when every report's indices are
/// strictly ascending and the rows are smaller, index lists otherwise.
/// A rows batch writes its rows directly and a lists batch its lists,
/// converting only when the other layout is the one chosen. Either way
/// `decode_frame` gives back an equal batch, and the body is allocated
/// once at its exact size.
pub fn encode_frame(frame: &Frame, fingerprint: u64) -> Vec<u8> {
    let (mut w, (row_words, indices)) = match frame {
        Frame::Submit { batch, .. } => {
            let layout = submit_layout(batch);
            let payload = submit_payload_len(batch, layout.0, layout.1);
            let w = CodecWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, fingerprint, payload);
            (w, layout)
        }
        Frame::SubmitHashed { batch, .. } => {
            let payload = 1 + hashed_payload_len(batch.len(), batch.row_words());
            let w = CodecWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, fingerprint, payload);
            (w, (None, 0))
        }
        _ => (
            CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, fingerprint),
            (None, 0),
        ),
    };
    w.put_u8(frame.kind());
    match frame {
        Frame::Hello {
            worker_id,
            k,
            dim,
            method,
        } => {
            w.put_u32(*worker_id);
            w.put_u64(*k);
            w.put_u64(*dim);
            w.put_frame(method.as_bytes());
        }
        Frame::HelloAck {
            worker_id,
            resume_seq,
            round,
        } => {
            w.put_u32(*worker_id);
            w.put_u64(*resume_seq);
            w.put_u64(*round);
        }
        Frame::Submit {
            seq,
            key_base,
            batch,
        } => {
            w.put_u64(*seq);
            w.put_u64(*key_base);
            w.put_u32(u32::try_from(batch.report_count()).expect("report count fits u32"));
            match row_words {
                Some(words) => put_rows(&mut w, batch, words),
                None => put_lists(&mut w, batch, indices),
            }
        }
        Frame::Ack {
            seq,
            reports,
            durable_seq,
        } => {
            w.put_u64(*seq);
            w.put_u32(*reports);
            w.put_u64(*durable_seq);
        }
        Frame::EndRound { round } => {
            w.put_u64(*round);
        }
        Frame::RoundResult {
            round,
            reports,
            estimate,
        } => {
            w.put_u64(*round);
            w.put_u64(*reports);
            w.put_u32(u32::try_from(estimate.len()).expect("estimate dimension fits u32"));
            for &v in estimate {
                w.put_f64(v);
            }
        }
        Frame::Shutdown => {}
        Frame::ShutdownAck { reports } => {
            w.put_u64(*reports);
        }
        Frame::Error { code, detail } => {
            w.put_u8(code.as_u8());
            w.put_frame(detail.as_bytes());
        }
        Frame::SubmitHashed {
            seq,
            key_base,
            batch,
        } => {
            w.put_u64(*seq);
            w.put_u64(*key_base);
            w.put_u32(u32::try_from(batch.len()).expect("report count fits u32"));
            w.put_u32(batch.g());
            w.put_u32(u32::try_from(batch.row_words()).expect("row width fits u32"));
            for hash in batch.hashes() {
                let (a, b) = hash.parts();
                w.put_u64(a);
                w.put_u64(b);
            }
            w.put_bytes(batch.cells());
            w.put_u64s(batch.rows());
        }
    }
    w.finish()
}

/// Deserializes a frame body produced by [`encode_frame`], returning the
/// header fingerprint alongside the frame. Every failure mode is a typed
/// [`NetError`]; cardinality claims are validated against the caps *and*
/// the remaining payload length before any index buffer is allocated.
pub fn decode_frame(body: &[u8]) -> Result<(u64, Frame), NetError> {
    let mut r = CodecReader::open(body, WIRE_MAGIC, WIRE_VERSION)?;
    let fingerprint = r.fingerprint();
    let kind = r.get_u8()?;
    let frame = match kind {
        0 => {
            let worker_id = r.get_u32()?;
            let k = r.get_u64()?;
            let dim = r.get_u64()?;
            let method = String::from_utf8(r.get_frame()?.to_vec())
                .map_err(|_| NetError::Protocol("method name is not UTF-8"))?;
            Frame::Hello {
                worker_id,
                k,
                dim,
                method,
            }
        }
        1 => Frame::HelloAck {
            worker_id: r.get_u32()?,
            resume_seq: r.get_u64()?,
            round: r.get_u64()?,
        },
        2 => {
            let seq = r.get_u64()?;
            let key_base = r.get_u64()?;
            let report_count = r.get_u32()?;
            let batch = match r.get_u8()? {
                LAYOUT_LISTS => decode_lists(&mut r, report_count)?,
                LAYOUT_ROWS => decode_rows(&mut r, report_count)?,
                _ => return Err(NetError::BadBatch("unknown submit layout")),
            };
            Frame::Submit {
                seq,
                key_base,
                batch,
            }
        }
        3 => Frame::Ack {
            seq: r.get_u64()?,
            reports: r.get_u32()?,
            durable_seq: r.get_u64()?,
        },
        4 => Frame::EndRound {
            round: r.get_u64()?,
        },
        5 => {
            let round = r.get_u64()?;
            let reports = r.get_u64()?;
            let dim = r.get_u32()?;
            if dim > MAX_WIRE_DIM {
                return Err(NetError::OversizedBatch {
                    reports: 0,
                    indices: dim,
                });
            }
            if 8usize * dim as usize != r.remaining() {
                return Err(NetError::BadBatch(
                    "estimate dimension disagrees with payload length",
                ));
            }
            let mut estimate = Vec::with_capacity(dim as usize);
            for _ in 0..dim {
                estimate.push(r.get_f64()?);
            }
            Frame::RoundResult {
                round,
                reports,
                estimate,
            }
        }
        6 => Frame::Shutdown,
        7 => Frame::ShutdownAck {
            reports: r.get_u64()?,
        },
        8 => {
            let code = ErrorCode::from_u8(r.get_u8()?)?;
            let detail = String::from_utf8(r.get_frame()?.to_vec())
                .map_err(|_| NetError::Protocol("error detail is not UTF-8"))?;
            Frame::Error { code, detail }
        }
        9 => {
            let seq = r.get_u64()?;
            let key_base = r.get_u64()?;
            let report_count = r.get_u32()?;
            Frame::SubmitHashed {
                seq,
                key_base,
                batch: decode_hashed(&mut r, report_count)?,
            }
        }
        other => return Err(NetError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((fingerprint, frame))
}

/// Submit layout byte: per-report end offsets plus a flat `u32` index
/// list (any batch).
const LAYOUT_LISTS: u8 = 0;
/// Submit layout byte: one fixed-width bit row per report (strictly
/// ascending supports only).
const LAYOUT_ROWS: u8 = 1;

/// Payload bytes of a submit before its layout body: seq, key base,
/// report count, layout byte, and the layout's own count field.
const SUBMIT_FIXED: usize = 8 + 8 + 4 + 1 + 4;

/// Payload bytes of a hashed submit before its reports: seq, key base,
/// report count, `g` and the row width.
const HASHED_FIXED: usize = 8 + 8 + 4 + 4 + 4;
/// Payload bytes of one hashed report without a row: `a`, `b` and a
/// one-byte cell.
const HASHED_REPORT: usize = 8 + 8 + 1;

/// Payload bytes of a hashed submit of `reports` reports, each with a
/// row of `row_words` words (none when 0); the kind byte is not counted.
pub(crate) fn hashed_payload_len(reports: usize, row_words: usize) -> usize {
    HASHED_FIXED + reports * (HASHED_REPORT + 8 * row_words)
}

/// An upper bound on the body length of a submit of `reports` reports
/// holding `indices` indices in all, each report a list or (when
/// `row_words` is given) a row of that many words. The encoder picks
/// the smaller legal layout and never writes rows wider than the
/// batch's, so the body is at most the smaller of the two sizes.
pub(crate) fn submit_len_bound(reports: usize, indices: usize, row_words: Option<usize>) -> usize {
    let lists = 4 * (reports + indices);
    let body = row_words.map_or(lists, |words| lists.min(8 * words * reports));
    HEADER_LEN + 1 + SUBMIT_FIXED + body + CHECKSUM_LEN
}

/// The row width in `u64` words when the rows layout is legal and
/// smaller than the lists layout for `batch`, else `None` (lists),
/// together with the batch's total index count.
///
/// Rows are legal when every report's indices are strictly ascending
/// (so a row gives back exactly the list it came from) and the width
/// stays within [`MAX_WIRE_DIM`]. The width is one word past the word
/// holding the batch's highest index, whatever the layout the batch
/// is held in, so a batch's bytes do not depend on how it was built.
fn submit_layout(batch: &ReportBatch) -> (Option<usize>, usize) {
    let (top_word, indices) = match batch.row_words() {
        Some(words) => {
            let cells = batch.cells();
            let indices = cells.iter().map(|cell| cell.count_ones() as usize).sum();
            // Only the words above the highest non-zero one seen so far
            // can raise it, so a dense row costs one empty scan.
            let top = cells.chunks_exact(words).fold(None, |top, row| {
                let from = top.map_or(0, |t| t + 1);
                let above = row[from..].iter().rposition(|&cell| cell != 0);
                above.map(|i| from + i).or(top)
            });
            (top, indices)
        }
        None => {
            let mut top = None;
            let (flat, ends) = batch.lists();
            let mut start = 0usize;
            for &end in ends {
                let report = &flat[start..end as usize];
                start = end as usize;
                // A fold without early exit vectorizes: ~3× faster than
                // `any` on dense supports.
                let ascending = report
                    .iter()
                    .zip(report.iter().skip(1))
                    .fold(true, |ok, (a, b)| ok & (a < b));
                if !ascending {
                    return (None, flat.len());
                }
                top = top.max(report.last().map(|&i| i as usize / 64));
            }
            (top, flat.len())
        }
    };
    let Some(top_word) = top_word else {
        return (None, indices);
    };
    let words = top_word + 1;
    let reports = batch.report_count();
    let smaller = 8 * words * reports < 4 * (indices + reports);
    let words = (smaller && words <= MAX_WIRE_DIM as usize / 64).then_some(words);
    (words, indices)
}

/// Exact payload bytes of a submit of `batch` in the layout
/// `submit_layout` chose (kind byte included).
fn submit_payload_len(batch: &ReportBatch, row_words: Option<usize>, indices: usize) -> usize {
    let body = match row_words {
        Some(words) => 8 * words * batch.report_count(),
        None => 4 * (batch.report_count() + indices),
    };
    1 + SUBMIT_FIXED + body
}

/// Writes `batch` in the lists layout: `layout | index_count | ends |
/// indices`. A rows batch is expanded here, in ascending order.
fn put_lists(w: &mut CodecWriter, batch: &ReportBatch, indices: usize) {
    w.put_u8(LAYOUT_LISTS);
    w.put_u32(u32::try_from(indices).expect("index count fits u32"));
    match batch.row_words() {
        None => {
            let (flat, ends) = batch.lists();
            for &end in ends {
                w.put_u32(end);
            }
            for &index in flat {
                w.put_u32(index);
            }
        }
        Some(words) => {
            let mut end = 0u32;
            for row in batch.cells().chunks_exact(words) {
                end += row.iter().map(|cell| cell.count_ones()).sum::<u32>();
                w.put_u32(end);
            }
            for row in batch.cells().chunks_exact(words) {
                let mut base = 0u32;
                for &cell in row {
                    let mut bits = cell;
                    while bits != 0 {
                        w.put_u32(base + bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                    base += 64;
                }
            }
        }
    }
}

/// Writes `batch` in the rows layout: `layout | words | one row per
/// report`, bit `i % 64` of word `i / 64` set for each index `i`. A
/// rows batch stored `words` wide goes out in one bulk copy; a wider
/// one writes the first `words` words of each row (every word past
/// them is zero). A lists batch builds each word in a register while
/// walking the report's ascending indices, then writes it once.
fn put_rows(w: &mut CodecWriter, batch: &ReportBatch, words: usize) {
    w.put_u8(LAYOUT_ROWS);
    w.put_u32(u32::try_from(words).expect("row width is capped by MAX_WIRE_DIM"));
    match batch.row_words() {
        Some(width) if width == words => return w.put_u64s(batch.cells()),
        Some(width) => {
            for row in batch.cells().chunks_exact(width) {
                w.put_u64s(&row[..words]);
            }
            return;
        }
        None => {}
    }
    let (flat, ends) = batch.lists();
    let mut start = 0usize;
    for &end in ends {
        let report = &flat[start..end as usize];
        start = end as usize;
        let (mut word, mut at) = (0u64, 0usize);
        for &index in report {
            let slot = index as usize / 64;
            while at < slot {
                w.put_u64(word);
                word = 0;
                at += 1;
            }
            word |= 1 << (index % 64);
        }
        for _ in at..words {
            w.put_u64(word);
            word = 0;
        }
    }
}

/// Reads a lists-layout submit body. Both counts are checked against
/// the caps and the remaining payload before either buffer is sized.
fn decode_lists(r: &mut CodecReader<'_>, report_count: u32) -> Result<ReportBatch, NetError> {
    let index_count = r.get_u32()?;
    if report_count > MAX_WIRE_REPORTS || index_count > MAX_WIRE_INDICES {
        return Err(NetError::OversizedBatch {
            reports: report_count,
            indices: index_count,
        });
    }
    let claimed = 4usize * (report_count as usize + index_count as usize);
    if claimed != r.remaining() {
        return Err(NetError::BadBatch(
            "batch counts disagree with payload length",
        ));
    }
    let mut ends = Vec::with_capacity(report_count as usize);
    for _ in 0..report_count {
        ends.push(r.get_u32()?);
    }
    let mut indices = Vec::with_capacity(index_count as usize);
    for _ in 0..index_count {
        indices.push(r.get_u32()?);
    }
    ReportBatch::from_parts(indices, ends).map_err(NetError::BadBatch)
}

/// Reads a rows-layout submit body into a rows batch — the rows are
/// kept as rows, never expanded. The width, the report count, the
/// payload length and the total popcount are all checked before the
/// row buffer is sized, and the rows are then copied in one pass; an
/// oversized width or popcount reports the claimed bits as `indices`.
fn decode_rows(r: &mut CodecReader<'_>, report_count: u32) -> Result<ReportBatch, NetError> {
    let words = r.get_u32()?;
    if words == 0 {
        return Err(NetError::BadBatch("row width must be at least one word"));
    }
    if words > MAX_WIRE_DIM / 64 || report_count > MAX_WIRE_REPORTS {
        return Err(NetError::OversizedBatch {
            reports: report_count,
            indices: words.saturating_mul(64),
        });
    }
    let claimed = 8 * u64::from(report_count) * u64::from(words);
    if claimed != r.remaining() as u64 {
        return Err(NetError::BadBatch(
            "row counts disagree with payload length",
        ));
    }
    let (bytes, _) = r.take(r.remaining())?.as_chunks::<8>();
    // A body of at most MAX_WIRE_INDICES / 64 words cannot hold more set
    // bits than the cap, so only a larger one is counted.
    if bytes.len() > (MAX_WIRE_INDICES / 64) as usize {
        let popcount: u64 = bytes
            .iter()
            .map(|&cell| u64::from(u64::from_le_bytes(cell).count_ones()))
            .sum();
        if popcount > u64::from(MAX_WIRE_INDICES) {
            return Err(NetError::OversizedBatch {
                reports: report_count,
                indices: u32::try_from(popcount).unwrap_or(u32::MAX),
            });
        }
    }
    let cells = bytes.iter().map(|&cell| u64::from_le_bytes(cell)).collect();
    ReportBatch::from_rows(words as usize, cells).map_err(NetError::BadBatch)
}

/// Reads a hashed submit body: `g`, the row width, then `report_count`
/// coefficient pairs, as many one-byte cells, and (for a width above 0)
/// one row per report. The report count, the width, `g` and the exact
/// payload length are checked first, then every pair against the
/// Carter–Wegman family and every cell against `g`, all on the frame's
/// own bytes before any buffer is sized. The rows are not counted
/// against [`MAX_WIRE_INDICES`]: they fold as rows, never as indices,
/// and [`MAX_FRAME_LEN`] bounds them.
fn decode_hashed(r: &mut CodecReader<'_>, report_count: u32) -> Result<HashedBatch, NetError> {
    let g = r.get_u32()?;
    let words = r.get_u32()?;
    if report_count > MAX_WIRE_REPORTS || words > MAX_WIRE_DIM / 64 {
        return Err(NetError::OversizedBatch {
            reports: report_count,
            indices: words.saturating_mul(64),
        });
    }
    if g < 2 {
        return Err(NetError::BadBatch("a hash needs at least two cells"));
    }
    let (n, words) = (report_count as usize, words as usize);
    if hashed_payload_len(n, words) - HASHED_FIXED != r.remaining() {
        return Err(NetError::BadBatch(
            "hashed report count disagrees with payload length",
        ));
    }
    let (pairs, _) = r.take(16 * n)?.as_chunks::<8>();
    let cells = r.take(n)?;
    let (rows, _) = r.take(8 * n * words)?.as_chunks::<8>();
    let hash = |pair: &[[u8; 8]]| {
        CwHash::from_parts(u64::from_le_bytes(pair[0]), u64::from_le_bytes(pair[1]), g)
    };
    if pairs.chunks_exact(2).any(|pair| hash(pair).is_none()) {
        return Err(NetError::BadBatch(
            "hash coefficients outside the Carter-Wegman family",
        ));
    }
    if cells.iter().any(|&cell| u32::from(cell) >= g) {
        return Err(NetError::BadBatch("hashed cell outside [0, g)"));
    }
    Ok(HashedBatch {
        g,
        hashes: pairs.chunks_exact(2).filter_map(hash).collect(),
        cells: cells.to_vec(),
        words,
        rows: rows.iter().map(|&word| u64::from_le_bytes(word)).collect(),
    })
}

/// Writes one encoded body to a stream with its length prefix, in a
/// single write. The cap is enforced here too, so an over-long locally
/// built frame (e.g. an estimate beyond [`MAX_WIRE_DIM`]) fails typed
/// instead of poisoning the peer.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), NetError> {
    let mut framed = Vec::with_capacity(4 + body.len());
    put_prefixed(&mut framed, body)?;
    w.write_all(&framed)?;
    w.flush()?;
    Ok(())
}

/// Appends `body` with its length prefix to `out`, refusing a body
/// over [`MAX_FRAME_LEN`] before anything is appended.
pub(crate) fn put_prefixed(out: &mut Vec<u8>, body: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(body.len()).map_err(|_| NetError::FrameTooLarge {
        len: u32::MAX,
        cap: MAX_FRAME_LEN,
    })?;
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            len,
            cap: MAX_FRAME_LEN,
        });
    }
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body);
    Ok(())
}

/// Reads one length-prefixed frame body into `buf` (reused across
/// frames — steady-state reading allocates nothing once the buffer has
/// grown to the connection's working size). Returns `Ok(false)` on a
/// clean end-of-stream at a frame boundary. The length claim is checked
/// against [`MAX_FRAME_LEN`] *before* the buffer grows.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<bool, NetError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(NetError::Codec(
                ldp_primitives::codec::CodecError::Truncated,
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            len,
            cap: MAX_FRAME_LEN,
        });
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        let mut batch = ReportBatch::new();
        batch.push_report([0u32, 4, 9]);
        batch.push_report([2u32]);
        // Unsorted with a duplicate: only the lists layout can carry it.
        let mut lists = ReportBatch::new();
        lists.push_report([9u32, 4, 4]);
        lists.push_report([]);
        vec![
            Frame::Hello {
                worker_id: 3,
                k: 100,
                dim: 16,
                method: "BiLOLOHA".into(),
            },
            Frame::HelloAck {
                worker_id: 3,
                resume_seq: 42,
                round: 7,
            },
            Frame::Submit {
                seq: 43,
                key_base: 1024,
                batch,
            },
            Frame::Submit {
                seq: 44,
                key_base: 1026,
                batch: lists,
            },
            Frame::Ack {
                seq: 43,
                reports: 2,
                durable_seq: 40,
            },
            Frame::EndRound { round: 7 },
            Frame::RoundResult {
                round: 7,
                reports: 5000,
                estimate: vec![0.25, -0.5, f64::NAN.copysign(-1.0), 0.0],
            },
            Frame::Shutdown,
            Frame::ShutdownAck { reports: 5000 },
            Frame::Error {
                code: ErrorCode::Draining,
                detail: "drain initiated".into(),
            },
            Frame::SubmitHashed {
                seq: 45,
                key_base: 1028,
                batch: {
                    let p = ldp_hash::MERSENNE_P;
                    let mut batch = HashedBatch::new(3, 0);
                    batch.push(CwHash::from_parts(p - 1, p - 1, 3).unwrap(), 2, &[]);
                    batch.push(CwHash::from_parts(1, 0, 3).unwrap(), 0, &[]);
                    batch
                },
            },
            Frame::SubmitHashed {
                seq: 46,
                key_base: 1030,
                batch: {
                    let mut batch = HashedBatch::new(2, 2);
                    batch.push(CwHash::from_parts(7, 3, 2).unwrap(), 1, &[0b1011, 1]);
                    batch.push(CwHash::from_parts(9, 4, 2).unwrap(), 0, &[u64::MAX, 0]);
                    batch
                },
            },
        ]
    }

    #[test]
    fn every_frame_round_trips_with_its_fingerprint() {
        for frame in sample_frames() {
            let body = encode_frame(&frame, 0xABCD_EF01_2345_6789);
            let (fp, decoded) = decode_frame(&body).unwrap();
            assert_eq!(fp, 0xABCD_EF01_2345_6789, "{frame:?}");
            match (&frame, &decoded) {
                // NaN payloads round-trip bit-exactly but compare unequal.
                (
                    Frame::RoundResult { estimate: a, .. },
                    Frame::RoundResult { estimate: b, .. },
                ) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b));
                }
                _ => assert_eq!(frame, decoded),
            }
        }
    }

    #[test]
    fn frames_traverse_a_stream_with_length_prefixes() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            write_frame(&mut wire, &encode_frame(&frame, 7)).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let mut seen = 0;
        while read_frame(&mut cursor, &mut buf).unwrap() {
            decode_frame(&buf).unwrap();
            seen += 1;
        }
        assert_eq!(seen, sample_frames().len());
    }

    #[test]
    fn forged_length_is_rejected_before_the_buffer_grows() {
        let mut wire = Vec::from(u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(
            err,
            NetError::FrameTooLarge {
                len: u32::MAX,
                cap: MAX_FRAME_LEN
            }
        );
        assert_eq!(buf.capacity(), 0, "no allocation for a forged claim");
    }

    #[test]
    fn oversized_batch_claims_fail_before_allocation() {
        // A hand-built submit claiming u32::MAX reports in a tiny body.
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 0);
        w.put_u8(2);
        w.put_u64(1); // seq
        w.put_u64(0); // key_base
        w.put_u32(u32::MAX); // report_count
        w.put_u8(LAYOUT_LISTS);
        w.put_u32(3); // index_count
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::OversizedBatch {
                reports: u32::MAX,
                indices: 3
            }
        );
    }

    #[test]
    fn batch_counts_must_match_the_payload_exactly() {
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 0);
        w.put_u8(2);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(2); // claims 2 reports…
        w.put_u8(LAYOUT_LISTS);
        w.put_u32(1); // …and 1 index, but ships only one u32
        w.put_u32(1);
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::BadBatch("batch counts disagree with payload length")
        );
    }

    /// A hand-built submit: `report_count`, then `layout` and the rest
    /// of the payload as raw bytes.
    fn submit_body(report_count: u32, layout: u8, rest: &[u8]) -> Vec<u8> {
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 0);
        w.put_u8(2);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(report_count);
        w.put_u8(layout);
        w.put_bytes(rest);
        w.finish()
    }

    /// A rows payload: the width, then `cells` little-endian words.
    fn rows(words: u32, cells: &[u64]) -> Vec<u8> {
        let mut out = words.to_le_bytes().to_vec();
        for cell in cells {
            out.extend_from_slice(&cell.to_le_bytes());
        }
        out
    }

    #[test]
    fn row_claims_fail_typed_before_allocation() {
        let cap = MAX_WIRE_DIM / 64;
        let cases = [
            (
                "zero width",
                submit_body(1, LAYOUT_ROWS, &rows(0, &[])),
                NetError::BadBatch("row width must be at least one word"),
            ),
            (
                "width over the cap",
                submit_body(1, LAYOUT_ROWS, &rows(cap + 1, &[1])),
                NetError::OversizedBatch {
                    reports: 1,
                    indices: (cap + 1) * 64,
                },
            ),
            (
                "absurd width",
                submit_body(1, LAYOUT_ROWS, &rows(u32::MAX, &[1])),
                NetError::OversizedBatch {
                    reports: 1,
                    indices: u32::MAX,
                },
            ),
            (
                "report count over the cap",
                submit_body(u32::MAX, LAYOUT_ROWS, &rows(cap, &[1])),
                NetError::OversizedBatch {
                    reports: u32::MAX,
                    indices: cap * 64,
                },
            ),
            (
                "payload shorter than reports × width",
                submit_body(3, LAYOUT_ROWS, &rows(2, &[1, 2, 3, 4, 5])),
                NetError::BadBatch("row counts disagree with payload length"),
            ),
            (
                "payload longer than reports × width",
                submit_body(1, LAYOUT_ROWS, &rows(1, &[1, 2])),
                NetError::BadBatch("row counts disagree with payload length"),
            ),
            (
                "unknown layout byte",
                submit_body(1, 2, &rows(1, &[1])),
                NetError::BadBatch("unknown submit layout"),
            ),
            (
                "layout byte 0xFF",
                submit_body(0, 0xFF, &[]),
                NetError::BadBatch("unknown submit layout"),
            ),
        ];
        for (what, body, want) in cases {
            assert_eq!(decode_frame(&body).unwrap_err(), want, "{what}");
        }
    }

    #[test]
    fn row_popcount_is_capped_before_the_index_buffer_is_sized() {
        // 17 full rows of 1024 words: 17 · 65 536 set bits, just past
        // MAX_WIRE_INDICES, in a body well under MAX_FRAME_LEN.
        let (reports, words) = (17u32, 1024u32);
        let cells = vec![u64::MAX; (reports * words) as usize];
        let body = submit_body(reports, LAYOUT_ROWS, &rows(words, &cells));
        assert!(body.len() < MAX_FRAME_LEN as usize);
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::OversizedBatch {
                reports,
                indices: reports * words * 64
            }
        );
        // One bit fewer per row than the cap allows decodes.
        let fits = MAX_WIRE_INDICES / reports;
        let mut batch = ReportBatch::new();
        for _ in 0..reports {
            batch.push_report(0..fits);
        }
        let frame = Frame::Submit {
            seq: 1,
            key_base: 0,
            batch,
        };
        assert_eq!(decode_frame(&encode_frame(&frame, 0)).unwrap(), (0, frame));
    }

    #[test]
    fn a_body_too_small_to_pass_the_index_cap_skips_the_popcount() {
        let cap_words = MAX_WIRE_INDICES / 64;
        // 16 all-ones rows of 1024 words: exactly MAX_WIRE_INDICES bits
        // in 16 384 words, the largest body decoded without a count.
        let (reports, words) = (16u32, cap_words / 16);
        let cells = vec![u64::MAX; cap_words as usize];
        let body = submit_body(reports, LAYOUT_ROWS, &rows(words, &cells));
        let (_, frame) = decode_frame(&body).unwrap();
        let Frame::Submit { batch, .. } = frame else {
            panic!("a submit decodes as a submit");
        };
        assert_eq!(batch.index_count(), MAX_WIRE_INDICES as usize);

        // One word more, one bit over the cap: still counted, and refused.
        let mut cells = vec![u64::MAX; cap_words as usize];
        cells.push(1);
        let reports = cap_words + 1;
        let body = submit_body(reports, LAYOUT_ROWS, &rows(1, &cells));
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::OversizedBatch {
                reports,
                indices: MAX_WIRE_INDICES + 1
            }
        );
    }

    #[test]
    fn rows_never_exceed_the_width_cap() {
        // Rows would be smaller here, but index 2²⁴ needs one word more
        // than MAX_WIRE_DIM allows, so the encoder keeps lists.
        let mut batch = ReportBatch::new();
        batch.push_report((0..600_000).chain([MAX_WIRE_DIM]));
        assert_eq!(submit_layout(&batch).0, None);
        let frame = Frame::Submit {
            seq: 1,
            key_base: 0,
            batch,
        };
        let body = encode_frame(&frame, 0);
        assert_eq!(body[LAYOUT_AT], LAYOUT_LISTS);
        assert_eq!(decode_frame(&body).unwrap(), (0, frame));
    }

    /// Offset of the layout byte in a submit body: header, kind, seq,
    /// key base, report count.
    const LAYOUT_AT: usize = ldp_primitives::codec::HEADER_LEN + 1 + 8 + 8 + 4;

    /// A sink packing each report's support into one batch.
    struct Capture(ReportBatch);

    impl ldp_client::ReportSink for Capture {
        type Error = std::convert::Infallible;

        fn submit(&mut self, _user: u64, support: &[usize]) -> Result<(), Self::Error> {
            self.0
                .push_report(support.iter().map(|&i| u32::try_from(i).unwrap()));
            Ok(())
        }

        fn finish(&mut self) -> Result<(), Self::Error> {
            Ok(())
        }
    }

    /// 128 real BiLOLOHA reports at the DB_MT domain (k = 1412): each
    /// support is about k/2 ascending indices, 23 words as a row.
    fn biloloha_batch() -> ReportBatch {
        let (k, users) = (1412u64, 128usize);
        let cfg = ldp_client::ClientConfig::for_method(Method::BiLoloha, k, 2.0, 1.0).unwrap();
        let mut pool =
            ldp_client::ClientPool::with_obs(cfg, 7, users, &ldp_obs::MetricsRegistry::disabled())
                .unwrap();
        let values: Vec<u64> = (0..users as u64).map(|u| (u * 37) % k).collect();
        let mut sinks = [Capture(ReportBatch::new())];
        pool.sanitize_round_sinks(&values, &mut sinks).unwrap();
        let [Capture(batch)] = sinks;
        batch
    }

    #[test]
    fn a_biloloha_frame_ships_as_rows_at_a_tenth_of_the_list_bytes() {
        let users = 128;
        let batch = biloloha_batch();
        assert_eq!(batch.report_count(), users);
        assert!(batch.index_count() > users * 600, "{}", batch.index_count());
        let frame = Frame::Submit {
            seq: 1,
            key_base: 0,
            batch: batch.clone(),
        };
        let body = encode_frame(&frame, 5);
        assert_eq!(body[LAYOUT_AT], LAYOUT_ROWS);
        assert!(body.len() <= users * 23 * 8 + 64, "{} bytes", body.len());
        assert_eq!(decode_frame(&body).unwrap(), (5, frame.clone()));

        // The same frame in the lists layout, which still decodes.
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 5);
        w.put_u8(2);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(u32::try_from(users).unwrap());
        put_lists(&mut w, &batch, batch.index_count());
        let lists = w.finish();
        assert_eq!(decode_frame(&lists).unwrap(), (5, frame));
        assert!(
            lists.len() > 10 * body.len(),
            "lists {} bytes vs rows {}",
            lists.len(),
            body.len()
        );
    }

    /// Offset of the first row in a rows-layout submit body: the layout
    /// byte, then the row width.
    const ROWS_AT: usize = LAYOUT_AT + 1 + 4;

    /// `reports` held as rows of `words` words each.
    fn held_as_rows(reports: &ReportBatch, words: usize) -> ReportBatch {
        let mut rows = ReportBatch::new();
        let (flat, ends) = reports.lists();
        let mut start = 0usize;
        for &end in ends {
            let mut row = vec![0u64; words];
            for &i in &flat[start..end as usize] {
                row[i as usize / 64] |= 1 << (i % 64);
            }
            start = end as usize;
            rows.push_row(&row);
        }
        rows
    }

    /// 64 short reports over k = 1412, some descending and some with a
    /// repeated index, so only the lists layout carries them.
    fn lists_batch() -> ReportBatch {
        let mut batch = ReportBatch::new();
        for r in 0..64u32 {
            let spread = (0..r % 5).map(|j| (r * 131 + j * 977) % 1412);
            batch.push_report(spread.chain((r % 4 == 1).then_some(r)));
        }
        batch
    }

    /// The exact bytes of two fixed submits, as length and XXH64 of the
    /// body. The rows submit is the same bytes whether its reports are
    /// held as ascending lists, as rows exactly as wide as the frame
    /// (one bulk copy), or as wider rows (trimmed row by row).
    #[test]
    fn fixed_submits_encode_to_pinned_bytes() {
        let pinned = |frame: &Frame| {
            let body = encode_frame(frame, 5);
            (body.len(), ldp_primitives::codec::xxh64(&body))
        };
        let reports = biloloha_batch();
        let rows_pin = (23_600, 0x5d53_65aa_4c93_97a6);
        for (what, held) in [
            ("lists", reports.clone()),
            ("23-word rows", held_as_rows(&reports, 23)),
            ("25-word rows", held_as_rows(&reports, 25)),
        ] {
            let frame = Frame::Submit {
                seq: 1,
                key_base: 0,
                batch: held,
            };
            assert_eq!(encode_frame(&frame, 5)[LAYOUT_AT], LAYOUT_ROWS, "{what}");
            assert_eq!(pinned(&frame), rows_pin, "{what}");
        }

        let frame = Frame::Submit {
            seq: 2,
            key_base: 128,
            batch: lists_batch(),
        };
        assert_eq!(encode_frame(&frame, 5)[LAYOUT_AT], LAYOUT_LISTS);
        assert_eq!(pinned(&frame), (872, 0x3eeb_b76a_85ee_cabd));
    }

    /// A sink keeping each hashed report in a hashed batch without rows,
    /// and each first report with its row in a second batch.
    struct CaptureHashed(HashedBatch, HashedBatch);

    impl ldp_client::ReportSink for CaptureHashed {
        type Error = std::convert::Infallible;

        fn submit(&mut self, user: u64, _support: &[usize]) -> Result<(), Self::Error> {
            panic!("user {user}'s LOLOHA report came as a list");
        }

        fn submit_hashed(
            &mut self,
            _user: u64,
            report: ldp_client::HashedReport,
            row: &[u64],
        ) -> Result<(), Self::Error> {
            self.0.push(report.hash, report.cell, &[]);
            if report.fresh {
                self.1.push(report.hash, report.cell, row);
            }
            Ok(())
        }
    }

    /// The reports of [`biloloha_batch`] as ⟨hash, cell⟩, without rows
    /// and (all of them being first reports) with them.
    fn biloloha_hashed() -> (HashedBatch, HashedBatch) {
        let (k, users) = (1412u64, 128usize);
        let cfg = ldp_client::ClientConfig::for_method(Method::BiLoloha, k, 2.0, 1.0).unwrap();
        let mut pool =
            ldp_client::ClientPool::with_obs(cfg, 7, users, &ldp_obs::MetricsRegistry::disabled())
                .unwrap();
        let values: Vec<u64> = (0..users as u64).map(|u| (u * 37) % k).collect();
        let mut sinks = [CaptureHashed(
            HashedBatch::new(2, 0),
            HashedBatch::new(2, 23),
        )];
        pool.sanitize_round_sinks(&values, &mut sinks).unwrap();
        let [CaptureHashed(plain, fresh)] = sinks;
        (plain, fresh)
    }

    #[test]
    fn a_hashed_biloloha_frame_carries_17_bytes_a_report() {
        let (plain, fresh) = biloloha_hashed();
        assert_eq!((plain.len(), fresh.len()), (128, 128));
        let header = HEADER_LEN + 1 + HASHED_FIXED + CHECKSUM_LEN;
        assert_eq!(HASHED_REPORT, 17);
        // First reports carry their 23-word rows as well: the rows
        // frame's bytes plus 17 a report.
        for (batch, per_report) in [(plain, 17), (fresh, 17 + 23 * 8)] {
            let frame = Frame::SubmitHashed {
                seq: 1,
                key_base: 0,
                batch,
            };
            let body = encode_frame(&frame, 5);
            assert_eq!(body.len(), header + 128 * per_report);
            assert_eq!(decode_frame(&body).unwrap(), (5, frame));
        }
    }

    /// The exact bytes of two fixed hashed submits, without and with
    /// rows, as length and XXH64.
    #[test]
    fn fixed_hashed_submits_encode_to_pinned_bytes() {
        let (plain, fresh) = biloloha_hashed();
        let pins = [
            (2227, 0x8fde_8635_c5f1_1d99),
            (25_779, 0x8afc_c876_4ca2_5393),
        ];
        for (batch, pin) in [plain, fresh].into_iter().zip(pins) {
            let frame = Frame::SubmitHashed {
                seq: 3,
                key_base: 256,
                batch,
            };
            let body = encode_frame(&frame, 5);
            assert_eq!((body.len(), ldp_primitives::codec::xxh64(&body)), pin);
        }
    }

    #[test]
    fn hashed_claims_fail_typed_before_allocation() {
        /// A hand-built hashed submit: `report_count`, `g`, a row width
        /// of 0, then `rest`.
        fn hashed_body(report_count: u32, g: u32, rest: &[u8]) -> Vec<u8> {
            let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 0);
            w.put_u8(9);
            w.put_u64(1);
            w.put_u64(0);
            w.put_u32(report_count);
            w.put_u32(g);
            w.put_u32(0);
            w.put_bytes(rest);
            w.finish()
        }
        /// Reports as `a | b` pairs, then their cells.
        fn reports(parts: &[(u64, u64, u8)]) -> Vec<u8> {
            let mut out = Vec::new();
            for &(a, b, _) in parts {
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
            }
            out.extend(parts.iter().map(|&(_, _, cell)| cell));
            out
        }
        let p = ldp_hash::MERSENNE_P;
        let bad = |what| NetError::BadBatch(what);
        let family = "hash coefficients outside the Carter-Wegman family";
        let length = "hashed report count disagrees with payload length";
        let cases = [
            (
                "a = 0",
                hashed_body(1, 2, &reports(&[(0, 1, 0)])),
                bad(family),
            ),
            (
                "a = p",
                hashed_body(1, 2, &reports(&[(p, 1, 0)])),
                bad(family),
            ),
            (
                "b = p",
                hashed_body(1, 2, &reports(&[(1, p, 1)])),
                bad(family),
            ),
            (
                "cell = g",
                hashed_body(2, 3, &reports(&[(1, 0, 0), (2, 0, 3)])),
                bad("hashed cell outside [0, g)"),
            ),
            (
                "g = 1",
                hashed_body(1, 1, &reports(&[(1, 0, 0)])),
                bad("a hash needs at least two cells"),
            ),
            (
                "payload one byte short",
                hashed_body(2, 2, &reports(&[(1, 0, 0), (2, 0, 1)])[1..]),
                bad(length),
            ),
            (
                "payload one byte long",
                hashed_body(1, 2, &[reports(&[(1, 0, 0)]), vec![0]].concat()),
                bad(length),
            ),
            (
                "report count over the cap",
                hashed_body(MAX_WIRE_REPORTS + 1, 2, &reports(&[(1, 0, 0)])),
                NetError::OversizedBatch {
                    reports: MAX_WIRE_REPORTS + 1,
                    indices: 0,
                },
            ),
            (
                "absurd report count",
                hashed_body(u32::MAX, 2, &[]),
                NetError::OversizedBatch {
                    reports: u32::MAX,
                    indices: 0,
                },
            ),
        ];
        for (what, body, want) in cases {
            assert_eq!(decode_frame(&body).unwrap_err(), want, "{what}");
        }
        // The extremes of the family decode.
        let body = hashed_body(2, 2, &reports(&[(p - 1, p - 1, 1), (1, 0, 0)]));
        assert!(decode_frame(&body).is_ok());
    }

    #[test]
    fn the_trailer_is_xxh64_of_everything_before_it() {
        for frame in sample_frames() {
            let body = encode_frame(&frame, 0x5EED);
            let (head, tail) = body.split_at(body.len() - CHECKSUM_LEN);
            let want = ldp_primitives::codec::xxh64(head).to_le_bytes();
            assert_eq!(tail, want, "{frame:?}");
        }
    }

    #[test]
    fn the_previous_wire_version_is_refused() {
        let mut w = CodecWriter::new(WIRE_MAGIC, 2, 0x5EED);
        w.put_u8(6); // a Shutdown, as version 2 wrote it
        assert_eq!(
            decode_frame(&w.finish()).unwrap_err(),
            NetError::Codec(ldp_primitives::codec::CodecError::UnsupportedVersion(2))
        );
    }

    /// A real-sized submit: every corruption below must fail the
    /// checksum. A per-word XOR, sum or FNV trailer would miss some of
    /// them; this guards the trailer against such a "faster" swap.
    #[test]
    fn the_trailer_catches_corruption_in_a_real_sized_submit() {
        let frame = Frame::Submit {
            seq: 9,
            key_base: 0,
            batch: biloloha_batch(),
        };
        let body = encode_frame(&frame, 0x5EED);
        assert_eq!(body[LAYOUT_AT], LAYOUT_ROWS);
        let row_bytes = 8 * 23;
        assert_eq!(body.len(), ROWS_AT + 128 * row_bytes + CHECKSUM_LEN);
        let rejected = |evil: &[u8], what: &str| {
            assert_eq!(
                decode_frame(evil).unwrap_err(),
                NetError::Codec(ldp_primitives::codec::CodecError::ChecksumMismatch),
                "{what}"
            );
        };

        // Single-bit flips after the magic and version, every 97th bit.
        for bit in (8 * 6..8 * body.len()).step_by(97) {
            let mut evil = body.clone();
            evil[bit / 8] ^= 1 << (bit % 8);
            rejected(&evil, &format!("bit {bit}"));
        }
        // The same bit in two words one 32-byte stripe apart: both
        // land in the same XXH64 lane.
        for at in (ROWS_AT..body.len() - CHECKSUM_LEN - 32).step_by(1001) {
            let mut evil = body.clone();
            evil[at] ^= 0x10;
            evil[at + 32] ^= 0x10;
            rejected(&evil, &format!("bytes {at} and {}", at + 32));
        }
        // Two different rows swapped.
        let row = |i: usize| ROWS_AT + i * row_bytes..ROWS_AT + (i + 1) * row_bytes;
        assert_ne!(body[row(3)], body[row(70)]);
        let mut evil = body.clone();
        evil[row(3)].copy_from_slice(&body[row(70)]);
        evil[row(70)].copy_from_slice(&body[row(3)]);
        rejected(&evil, "rows 3 and 70 swapped");
        // One non-zero word zeroed.
        let at = ROWS_AT + 40 * row_bytes + 8;
        assert_ne!(body[at..at + 8], [0; 8]);
        let mut evil = body.clone();
        evil[at..at + 8].fill(0);
        rejected(&evil, "one word zeroed");
    }

    /// Reports in the shapes the layout choice turns on. A batch is one
    /// of: a mix of empty reports, single indices, unsorted lists with
    /// duplicates and dense ascending supports; all dense ascending;
    /// dense ascending but for one repeated index; or all single indices
    /// over a small domain, where both layouts can tie.
    fn arb_reports() -> impl proptest::strategy::Strategy<Value = Vec<Vec<u32>>> {
        proptest::strategy::from_fn(|rng: &mut proptest::TestRng| {
            let mode = rng.below(4);
            let reports = rng.below(12);
            let dim = 1 + rng.below(if mode == 3 { 128 } else { 3000 });
            let density = rng.unit_f64();
            (0..reports)
                .map(|i| {
                    let shape = match mode {
                        0 => rng.below(4),
                        1 => 3,
                        2 if i == 0 => 4,
                        2 => 3,
                        _ => 1,
                    };
                    let mut dense = || {
                        (0..dim as u32)
                            .filter(|_| rng.unit_f64() < density)
                            .collect::<Vec<u32>>()
                    };
                    match shape {
                        0 => Vec::new(),
                        1 => vec![rng.below(dim) as u32],
                        2 => (0..rng.below(40)).map(|_| rng.below(dim) as u32).collect(),
                        3 => dense(),
                        _ => {
                            let mut report = dense();
                            if !report.is_empty() {
                                let j = rng.below(report.len() as u64) as usize;
                                report.insert(j, report[j]);
                            }
                            report
                        }
                    }
                })
                .collect()
        })
    }

    proptest::proptest! {
        /// Every submit round-trips, in the smaller legal layout, in a
        /// body of exactly the size that layout needs.
        #[test]
        fn submits_round_trip_in_the_smaller_legal_layout(
            reports in arb_reports(),
            seq in proptest::prelude::any::<u64>(),
        ) {
            let mut batch = ReportBatch::new();
            for report in &reports {
                batch.push_report(report.iter().copied());
            }
            let frame = Frame::Submit { seq, key_base: seq / 3, batch };
            let body = encode_frame(&frame, 11);
            proptest::prop_assert_eq!(decode_frame(&body).unwrap(), (11, frame.clone()));

            let n = reports.len();
            let indices: usize = reports.iter().map(Vec::len).sum();
            let lists = 4 * (n + indices);
            let ascending = reports.iter().all(|r| r.windows(2).all(|p| p[0] < p[1]));
            let rows = reports
                .iter()
                .flatten()
                .max()
                .map(|&top| 8 * (top as usize / 64 + 1) * n)
                .filter(|&rows| ascending && rows < lists);
            let layout = if rows.is_some() { LAYOUT_ROWS } else { LAYOUT_LISTS };
            proptest::prop_assert_eq!(body[LAYOUT_AT], layout);
            let overhead = LAYOUT_AT + 1 + 4 + ldp_primitives::codec::CHECKSUM_LEN;
            proptest::prop_assert_eq!(body.len(), overhead + rows.unwrap_or(lists));

            // The same reports held as rows — as wide as the top index
            // needs, or wider — are the same batch and the same bytes.
            if ascending && n > 0 {
                let top = reports.iter().flatten().max().map_or(0, |&t| t as usize);
                let words = top / 64 + 1 + (seq % 3) as usize;
                let mut held = ReportBatch::new();
                for report in &reports {
                    let mut row = vec![0u64; words];
                    report.iter().for_each(|&i| row[i as usize / 64] |= 1 << (i % 64));
                    held.push_row(&row);
                }
                let Frame::Submit { batch, .. } = &frame else { unreachable!() };
                proptest::prop_assert_eq!(&held, batch);
                let as_rows = Frame::Submit { seq, key_base: seq / 3, batch: held };
                proptest::prop_assert_eq!(&encode_frame(&as_rows, 11), &body);
                proptest::prop_assert_eq!(decode_frame(&body).unwrap(), (11, as_rows));
            }
        }
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let a = config_fingerprint(Method::BiLoloha, 100, 2, 1.0, 0.5);
        assert_eq!(a, config_fingerprint(Method::BiLoloha, 100, 2, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::OLoloha, 100, 2, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::BiLoloha, 101, 2, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::BiLoloha, 100, 4, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::BiLoloha, 100, 2, 2.0, 0.5));
    }
}
