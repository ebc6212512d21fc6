//! Protocol-level hostile-input suite.
//!
//! The decoder half works over raw byte slices: truncation at *every*
//! byte offset, a bit flip at *every* bit position, foreign magics,
//! future protocol versions, forged cardinality claims, and arbitrary
//! fuzz blobs must all come back as typed [`NetError`]s — never a panic,
//! never an allocation driven by an unvalidated claim.
//!
//! The daemon half feeds the same hostility through a live socket: each
//! attack earns a structured error frame (the taxonomy from
//! `docs/WIRE_FORMAT.md` §5) and a closed connection, and the daemon
//! keeps serving clean traffic afterwards.

use ldp_hash::{CwHash, MERSENNE_P};
use ldp_ingest::ReportBatch;
use ldp_netd::{
    decode_frame, encode_frame, read_frame, write_frame, Collectd, Conn, DaemonConfig, ErrorCode,
    Frame, HashedBatch, NetError, MAX_FRAME_LEN, MAX_WIRE_DIM, MAX_WIRE_INDICES, MAX_WIRE_REPORTS,
    ROW_CACHE_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
use ldp_obs::MetricsRegistry;
use ldp_primitives::codec::{CodecError, CodecWriter};
use ldp_runtime::Method;
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;

const FP: u64 = 0x5EED_CAFE_F00D_D00D;

/// One of every frame kind (a submit in each layout, and a hashed
/// submit), with non-trivial payloads.
fn sample_frames() -> Vec<Frame> {
    // Ascending supports ship as bit rows; an unsorted one as lists.
    let mut rows = ReportBatch::new();
    rows.push_report([1u32, 5, 11]);
    rows.push_report([0u32]);
    let mut lists = ReportBatch::new();
    lists.push_report([11u32, 5, 5]);
    lists.push_report([0u32]);
    vec![
        Frame::Hello {
            worker_id: 2,
            k: 64,
            dim: 12,
            method: "L-OSUE".into(),
        },
        Frame::HelloAck {
            worker_id: 2,
            resume_seq: 9,
            round: 3,
        },
        Frame::Submit {
            seq: 10,
            key_base: 512,
            batch: rows,
        },
        Frame::Submit {
            seq: 11,
            key_base: 514,
            batch: lists,
        },
        Frame::Ack {
            seq: 10,
            reports: 2,
            durable_seq: 8,
        },
        Frame::EndRound { round: 3 },
        Frame::RoundResult {
            round: 3,
            reports: 77,
            estimate: vec![0.5, 0.25, 0.125],
        },
        Frame::Shutdown,
        Frame::ShutdownAck { reports: 77 },
        Frame::Error {
            code: ErrorCode::Protocol,
            detail: "example".into(),
        },
        Frame::SubmitHashed {
            seq: 12,
            key_base: 516,
            batch: hashed(3, &[(MERSENNE_P - 1, 5, 2), (1, MERSENNE_P - 1, 0)]),
        },
    ]
}

/// A hashed batch over `g` cells of `(a, b, cell)` reports.
fn hashed(g: u32, reports: &[(u64, u64, u8)]) -> HashedBatch {
    let mut batch = HashedBatch::new(g, 0);
    for &(a, b, cell) in reports {
        batch.push(CwHash::from_parts(a, b, g).unwrap(), cell, &[]);
    }
    batch
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    for frame in sample_frames() {
        let body = encode_frame(&frame, FP);
        assert!(decode_frame(&body).is_ok());
        for cut in 0..body.len() {
            let err = decode_frame(&body[..cut]);
            assert!(
                err.is_err(),
                "{frame:?}: truncation to {cut}/{} bytes must fail",
                body.len()
            );
        }
    }
}

#[test]
fn a_bit_flip_at_every_position_is_a_typed_error() {
    for frame in sample_frames() {
        let body = encode_frame(&frame, FP);
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut evil = body.clone();
                evil[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&evil).is_err(),
                    "{frame:?}: flipping byte {byte} bit {bit} must fail"
                );
            }
        }
    }
}

#[test]
fn foreign_magics_are_rejected_as_bad_magic() {
    // Other registered containers must never parse as wire frames.
    for magic in [b"LLHA", b"LDPS", b"LDCC", b"LDNS", b"XXXX"] {
        let mut w = CodecWriter::new(magic, WIRE_VERSION, FP);
        w.put_u8(6); // a plausible Shutdown
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::Codec(CodecError::BadMagic),
            "{}",
            String::from_utf8_lossy(&magic[..])
        );
    }
}

#[test]
fn future_protocol_versions_fail_closed() {
    for version in [WIRE_VERSION + 1, WIRE_VERSION + 7, u16::MAX] {
        let mut w = CodecWriter::new(WIRE_MAGIC, version, FP);
        w.put_u8(6);
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::Codec(CodecError::UnsupportedVersion(version)),
        );
    }
}

#[test]
fn unknown_frame_kinds_are_typed() {
    // Kinds 0-9 are the vocabulary (9 is the hashed submit).
    for kind in [10u8, 42, 255] {
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, FP);
        w.put_u8(kind);
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::UnknownKind(kind)
        );
    }
}

#[test]
fn oversized_cardinality_claims_fail_before_any_allocation() {
    // The claim alone is hostile: the body is tiny, so an implementation
    // that allocated `report_count` slots before cross-checking the
    // payload length would construct a multi-gigabyte buffer here.
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, FP);
    w.put_u8(2); // Submit
    w.put_u64(1);
    w.put_u64(0);
    w.put_u32(MAX_WIRE_REPORTS + 1);
    w.put_u8(0); // lists layout
    w.put_u32(0);
    let body = w.finish();
    assert_eq!(
        decode_frame(&body).unwrap_err(),
        NetError::OversizedBatch {
            reports: MAX_WIRE_REPORTS + 1,
            indices: 0
        }
    );
}

proptest! {
    /// Arbitrary blobs never panic the decoder; they either parse (only
    /// possible for a byte-exact valid frame) or come back typed.
    #[test]
    fn arbitrary_blobs_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
    }

    /// Arbitrary mutations of a valid frame never panic either — this
    /// walks the "almost valid" space where parsers usually break.
    #[test]
    fn mutated_valid_frames_never_panic(
        which in 0usize..10,
        byte in 0usize..64,
        value in any::<u8>(),
    ) {
        let frames = sample_frames();
        let mut body = encode_frame(&frames[which % frames.len()], FP);
        if !body.is_empty() {
            let i = byte % body.len();
            body[i] = value;
        }
        let _ = decode_frame(&body);
    }
}

// ---------------------------------------------------------------------------
// Live-daemon hostility: every attack is answered with a structured
// error frame and the daemon survives to serve clean traffic.
// ---------------------------------------------------------------------------

/// Reads the daemon's reply off a raw stream and decodes it.
fn read_reply(stream: &mut TcpStream) -> Frame {
    let mut buf = Vec::new();
    assert!(read_frame(stream, &mut buf).unwrap(), "daemon sent a reply");
    decode_frame(&buf).unwrap().1
}

fn expect_error(stream: &mut TcpStream, want: ErrorCode) {
    match read_reply(stream) {
        Frame::Error { code, detail } => {
            assert_eq!(code, want);
            assert!(!detail.is_empty());
        }
        other => panic!("expected an {want} error frame, got {other:?}"),
    }
}

/// A clean hello → submit → end-round exchange, proving the daemon is
/// still healthy. Returns the round's report total.
fn clean_round(daemon: &Collectd, obs: &MetricsRegistry, round: u64) -> u64 {
    let mut c = Conn::connect(
        daemon.local_addr(),
        daemon.fingerprint(),
        obs,
        ldp_netd::Deadline::after(std::time::Duration::from_secs(10)),
    )
    .unwrap();
    c.send(&Frame::Hello {
        worker_id: 0,
        k: 16,
        dim: 16,
        method: Method::LGrr.name().into(),
    })
    .unwrap();
    let (_, ack) = c.recv().unwrap().unwrap();
    assert!(matches!(ack, Frame::HelloAck { .. }), "{ack:?}");
    let mut batch = ReportBatch::new();
    batch.push_report([3u32]);
    c.send(&Frame::Submit {
        seq: 1,
        key_base: 0,
        batch,
    })
    .unwrap();
    let (_, ack) = c.recv().unwrap().unwrap();
    assert!(matches!(ack, Frame::Ack { seq: 1, .. }), "{ack:?}");
    c.send(&Frame::EndRound { round }).unwrap();
    match c.recv().unwrap().unwrap().1 {
        Frame::RoundResult { reports, .. } => reports,
        other => panic!("expected a round result, got {other:?}"),
    }
}

#[test]
fn a_hostile_gauntlet_cannot_take_the_daemon_down() {
    let obs = MetricsRegistry::new();
    let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 16, 2.0, 1.0), &obs).unwrap();
    let addr = daemon.local_addr();

    // 1. A forged length prefix claiming far beyond the cap: rejected
    //    before any buffer grows, answered typed, connection closed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    expect_error(&mut s, ErrorCode::FrameTooLarge);
    let mut buf = Vec::new();
    assert!(!read_frame(&mut s, &mut buf).unwrap(), "daemon closed");

    // 2. A length prefix just over the cap, same outcome.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    expect_error(&mut s, ErrorCode::FrameTooLarge);

    // 3. Garbage bytes under an honest little length prefix.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&16u32.to_le_bytes()).unwrap();
    s.write_all(&[0xA5; 16]).unwrap();
    expect_error(&mut s, ErrorCode::Malformed);

    // 4. A frame from the future: fails closed as malformed.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION + 1, daemon.fingerprint());
    w.put_u8(6);
    write_frame(&mut s, &w.finish()).unwrap();
    expect_error(&mut s, ErrorCode::Malformed);

    // 5. A well-formed container claiming an absurd batch cardinality.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, daemon.fingerprint());
    w.put_u8(2); // Submit
    w.put_u64(1);
    w.put_u64(0);
    w.put_u32(u32::MAX);
    w.put_u8(0); // lists layout
    w.put_u32(u32::MAX);
    write_frame(&mut s, &w.finish()).unwrap();
    expect_error(&mut s, ErrorCode::OversizedBatch);

    // 6. An unknown frame kind.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, daemon.fingerprint());
    w.put_u8(200);
    write_frame(&mut s, &w.finish()).unwrap();
    expect_error(&mut s, ErrorCode::UnknownKind);

    // 7. A truncated frame followed by a hangup: nobody left to answer,
    //    the daemon just closes its side.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[1, 2, 3]).unwrap();
    drop(s);

    // 8. A support index outside the aggregation dimension: the frame is
    //    wire-valid, rejected at the application layer, and the
    //    connection survives for a corrected retry.
    let mut c = Conn::connect(
        addr,
        daemon.fingerprint(),
        &obs,
        ldp_netd::Deadline::after(std::time::Duration::from_secs(10)),
    )
    .unwrap();
    c.send(&Frame::Hello {
        worker_id: 7,
        k: 16,
        dim: 16,
        method: Method::LGrr.name().into(),
    })
    .unwrap();
    assert!(matches!(
        c.recv().unwrap().unwrap().1,
        Frame::HelloAck { .. }
    ));
    let mut batch = ReportBatch::new();
    batch.push_report([16u32]); // dim is 16, so 16 is out of range
    c.send(&Frame::Submit {
        seq: 1,
        key_base: 0,
        batch,
    })
    .unwrap();
    match c.recv().unwrap().unwrap().1 {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::SupportOutOfRange),
        other => panic!("expected a support-range error, got {other:?}"),
    }
    let mut batch = ReportBatch::new();
    batch.push_report([15u32]);
    c.send(&Frame::Submit {
        seq: 1,
        key_base: 0,
        batch,
    })
    .unwrap();
    assert!(
        matches!(c.recv().unwrap().unwrap().1, Frame::Ack { seq: 1, .. }),
        "the connection survives an application-level rejection"
    );
    drop(c);

    // After the whole gauntlet, a clean round still works and contains
    // exactly the two legitimate reports (the out-of-range submit left
    // nothing behind).
    let reports = clean_round(&daemon, &obs, 0);
    assert_eq!(reports, 2);

    daemon.trigger_drain();
    let report = daemon.join().unwrap();
    assert!(!report.hard_killed);
    assert_eq!(report.rounds_finished, 1);
}

/// A hand-built rows-layout submit (layout byte 1): `report_count`
/// rows of `words` words, the payload carrying `cells`.
fn row_submit(fingerprint: u64, report_count: u32, words: u32, cells: &[u64]) -> Vec<u8> {
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, fingerprint);
    w.put_u8(2); // Submit
    w.put_u64(1);
    w.put_u64(0);
    w.put_u32(report_count);
    w.put_u8(1); // rows layout
    w.put_u32(words);
    for &cell in cells {
        w.put_u64(cell);
    }
    w.finish()
}

#[test]
fn hostile_row_frames_get_typed_errors_and_apply_nothing() {
    let obs = MetricsRegistry::new();
    let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, 16, 2.0, 1.0), &obs).unwrap();

    // Hostile row claims over a live socket: each is a typed error and a
    // closed stream, decided before a buffer is sized from the claim
    // (the decoder-level cases are in `proto`'s unit tests).
    let fp = daemon.fingerprint();
    let full_rows = MAX_WIRE_INDICES / 64 + 1; // one-word rows, all bits set
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, fp);
    w.put_u8(2); // Submit
    w.put_u64(1);
    w.put_u64(0);
    w.put_u32(1);
    w.put_u8(2); // neither lists (0) nor rows (1)
    w.put_u32(1);
    w.put_u64(1);
    let unknown_layout = w.finish();
    for (what, body, want) in [
        ("zero width", row_submit(fp, 1, 0, &[]), ErrorCode::BadBatch),
        (
            "width over the cap",
            row_submit(fp, 1, MAX_WIRE_DIM / 64 + 1, &[1]),
            ErrorCode::OversizedBatch,
        ),
        (
            "65 536 rows of 2¹⁸ words (2³⁷ bytes) in a tiny body",
            row_submit(fp, MAX_WIRE_REPORTS, MAX_WIRE_DIM / 64, &[1, 2]),
            ErrorCode::BadBatch,
        ),
        (
            "popcount one row past MAX_WIRE_INDICES",
            row_submit(fp, full_rows, 1, &vec![u64::MAX; full_rows as usize]),
            ErrorCode::OversizedBatch,
        ),
        ("unknown layout byte", unknown_layout, ErrorCode::BadBatch),
    ] {
        assert!(decode_frame(&body).is_err(), "{what}");
        let mut s = TcpStream::connect(daemon.local_addr()).unwrap();
        write_frame(&mut s, &body).unwrap();
        expect_error(&mut s, want);
        let mut buf = Vec::new();
        assert!(!read_frame(&mut s, &mut buf).unwrap(), "daemon closed");
    }

    let mut c = Conn::connect(
        daemon.local_addr(),
        daemon.fingerprint(),
        &obs,
        ldp_netd::Deadline::after(std::time::Duration::from_secs(10)),
    )
    .unwrap();
    c.send(&Frame::Hello {
        worker_id: 4,
        k: 16,
        dim: 16,
        method: Method::LGrr.name().into(),
    })
    .unwrap();
    assert!(matches!(
        c.recv().unwrap().unwrap().1,
        Frame::HelloAck { .. }
    ));
    // Two dense ascending reports, so the frame ships as rows; the
    // second carries bit 16 while dim is 16.
    let mut batch = ReportBatch::new();
    batch.push_report(0u32..16);
    batch.push_report([3u32, 16]);
    let frame = Frame::Submit {
        seq: 1,
        key_base: 0,
        batch,
    };
    let body = encode_frame(&frame, daemon.fingerprint());
    assert_eq!(body[14 + 1 + 8 + 8 + 4], 1, "encoded as rows");
    c.send(&frame).unwrap();
    match c.recv().unwrap().unwrap().1 {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::SupportOutOfRange),
        other => panic!("expected a support-range error, got {other:?}"),
    }
    // The corrected frame under the same seq is applied whole.
    let mut batch = ReportBatch::new();
    batch.push_report(0u32..16);
    batch.push_report([3u32, 15]);
    c.send(&Frame::Submit {
        seq: 1,
        key_base: 0,
        batch,
    })
    .unwrap();
    assert!(matches!(
        c.recv().unwrap().unwrap().1,
        Frame::Ack {
            seq: 1,
            reports: 2,
            ..
        }
    ));
    drop(c);

    // The round holds the two corrected reports plus the clean one:
    // the rejected frame's first report was never applied.
    assert_eq!(clean_round(&daemon, &obs, 0), 3);
    daemon.trigger_drain();
    assert!(!daemon.join().unwrap().hard_killed);
}

/// A hand-built hashed submit (kind 9) without rows: `report_count`
/// and `g`, then the `(a, b, cell)` reports as the payload lays them out.
fn hashed_submit(
    fingerprint: u64,
    report_count: u32,
    g: u32,
    reports: &[(u64, u64, u8)],
) -> Vec<u8> {
    hashed_submit_rows(fingerprint, report_count, g, reports, 0, &[])
}

/// [`hashed_submit`] claiming rows of `words` words and carrying `rows`.
fn hashed_submit_rows(
    fingerprint: u64,
    report_count: u32,
    g: u32,
    reports: &[(u64, u64, u8)],
    words: u32,
    rows: &[u64],
) -> Vec<u8> {
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, fingerprint);
    w.put_u8(9);
    w.put_u64(1);
    w.put_u64(0);
    w.put_u32(report_count);
    w.put_u32(g);
    w.put_u32(words);
    for &(a, b, _) in reports {
        w.put_u64(a);
        w.put_u64(b);
    }
    for &(_, _, cell) in reports {
        w.put_u8(cell);
    }
    w.put_u64s(rows);
    w.finish()
}

/// A connection to `daemon` that has said hello as `worker` of a
/// `method` client over `k`.
fn hello(daemon: &Collectd, obs: &MetricsRegistry, worker: u32, method: Method, k: u64) -> Conn {
    let mut c = Conn::connect(
        daemon.local_addr(),
        daemon.fingerprint(),
        obs,
        ldp_netd::Deadline::after(std::time::Duration::from_secs(10)),
    )
    .unwrap();
    c.send(&Frame::Hello {
        worker_id: worker,
        k,
        dim: method.dim(k) as u64,
        method: method.name().into(),
    })
    .unwrap();
    assert!(matches!(
        c.recv().unwrap().unwrap().1,
        Frame::HelloAck { .. }
    ));
    c
}

/// The next reply on `c` is an error of class `want`.
fn expect_remote(c: &mut Conn, want: ErrorCode) {
    match c.recv().unwrap().unwrap().1 {
        Frame::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected an {want} error frame, got {other:?}"),
    }
}

#[test]
fn hostile_hashed_frames_get_typed_errors_and_apply_nothing() {
    let obs = MetricsRegistry::new();
    let k = 16;
    let daemon = Collectd::start(DaemonConfig::new(Method::BiLoloha, k, 2.0, 1.0), &obs).unwrap();
    let fp = daemon.fingerprint();
    let p = MERSENNE_P;

    // Claims the decoder refuses on the frame's own bytes, each before a
    // buffer is sized from it: a typed error and a closed stream.
    let fine = (1, 0, 0);
    let mut long = hashed_submit(fp, 1, 2, &[fine]);
    let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, fp);
    w.put_bytes(&long[ldp_primitives::codec::HEADER_LEN..long.len() - 8]);
    w.put_u8(0);
    long = w.finish();
    for (what, body, want) in [
        (
            "a = 0",
            hashed_submit(fp, 1, 2, &[(0, 7, 1)]),
            ErrorCode::BadBatch,
        ),
        (
            "b = p",
            hashed_submit(fp, 1, 2, &[(3, p, 1)]),
            ErrorCode::BadBatch,
        ),
        (
            "b = 2⁶⁴ − 1",
            hashed_submit(fp, 1, 2, &[(3, u64::MAX, 0)]),
            ErrorCode::BadBatch,
        ),
        (
            "cell = g",
            hashed_submit(fp, 2, 2, &[fine, (5, 5, 2)]),
            ErrorCode::BadBatch,
        ),
        (
            "short payload",
            hashed_submit(fp, 2, 2, &[fine]),
            ErrorCode::BadBatch,
        ),
        ("long payload", long, ErrorCode::BadBatch),
        (
            "report count over the cap",
            hashed_submit(fp, MAX_WIRE_REPORTS + 1, 2, &[fine]),
            ErrorCode::OversizedBatch,
        ),
        (
            "row width over the cap",
            hashed_submit_rows(fp, 1, 2, &[fine], MAX_WIRE_DIM / 64 + 1, &[1]),
            ErrorCode::OversizedBatch,
        ),
        (
            "fewer rows than reports",
            hashed_submit_rows(fp, 2, 2, &[fine, fine], 1, &[1]),
            ErrorCode::BadBatch,
        ),
    ] {
        assert!(decode_frame(&body).is_err(), "{what}");
        let mut s = TcpStream::connect(daemon.local_addr()).unwrap();
        write_frame(&mut s, &body).unwrap();
        expect_error(&mut s, want);
        let mut buf = Vec::new();
        assert!(
            !read_frame(&mut s, &mut buf).unwrap(),
            "{what}: daemon closed"
        );
    }

    // A well-formed frame over another g than the daemon's (BiLOLOHA: 2)
    // is refused at the application layer; the connection survives, and
    // the same seq over the right g is applied whole.
    let mut c = hello(&daemon, &obs, 3, Method::BiLoloha, k);
    c.send(&Frame::SubmitHashed {
        seq: 1,
        key_base: 0,
        batch: hashed(3, &[(5, 9, 1), (6, 2, 2)]),
    })
    .unwrap();
    expect_remote(&mut c, ErrorCode::Protocol);
    c.send(&Frame::SubmitHashed {
        seq: 1,
        key_base: 0,
        batch: hashed(2, &[(5, 9, 1), (6, 2, 0)]),
    })
    .unwrap();
    assert!(matches!(
        c.recv().unwrap().unwrap().1,
        Frame::Ack {
            seq: 1,
            reports: 2,
            ..
        }
    ));

    // First reports carry their rows. Rows of another width than the
    // daemon's k needs, or with a bit past k, are refused; good ones fold
    // as rows and become the keys' cache entries, so the same users'
    // next reports, without rows, miss nothing.
    let users = [(11u64, 3u64, 1u8), (12, 4, 0)];
    let mut fresh = HashedBatch::new(2, 1);
    let mut later = HashedBatch::new(2, 0);
    for &(a, b, cell) in &users {
        let hash = CwHash::from_parts(a, b, 2).unwrap();
        let mut row = [0u64];
        hash.preimage_rows(k, u32::from(cell)..u32::from(cell) + 1, &mut row);
        fresh.push(hash, cell, &row);
        later.push(hash, cell, &[]);
    }
    let wide = hashed_submit_rows(daemon.fingerprint(), 1, 2, &[(11, 3, 1)], 2, &[1, 0]);
    let past_k = hashed_submit_rows(daemon.fingerprint(), 1, 2, &[(11, 3, 1)], 1, &[1 << 16]);
    for (body, want) in [
        (wide, ErrorCode::Protocol),
        (past_k, ErrorCode::SupportOutOfRange),
    ] {
        let (_, frame) = decode_frame(&body).unwrap();
        let Frame::SubmitHashed { batch, .. } = frame else {
            panic!("a hashed submit decodes as one");
        };
        c.send(&Frame::SubmitHashed {
            seq: 2,
            key_base: 2,
            batch,
        })
        .unwrap();
        expect_remote(&mut c, want);
    }
    for (seq, batch) in [(2, fresh), (3, later)] {
        c.send(&Frame::SubmitHashed {
            seq,
            key_base: 2,
            batch,
        })
        .unwrap();
        assert!(matches!(c.recv().unwrap().unwrap().1, Frame::Ack { .. }));
    }
    c.send(&Frame::EndRound { round: 0 }).unwrap();
    match c.recv().unwrap().unwrap().1 {
        Frame::RoundResult { reports, .. } => assert_eq!(reports, 6, "only the good frames"),
        other => panic!("expected a round result, got {other:?}"),
    }
    assert_eq!(obs.snapshot().counter_total("ldp.netd.row_cache_misses"), 2);
    drop(c);
    daemon.trigger_drain();
    assert!(!daemon.join().unwrap().hard_killed);

    // A daemon that is not LOLOHA refuses hashed reports the same way,
    // and still takes the session's supports.
    let obs = MetricsRegistry::new();
    let daemon = Collectd::start(DaemonConfig::new(Method::LGrr, k, 2.0, 1.0), &obs).unwrap();
    let mut c = hello(&daemon, &obs, 0, Method::LGrr, k);
    c.send(&Frame::SubmitHashed {
        seq: 1,
        key_base: 0,
        batch: hashed(2, &[(5, 9, 1)]),
    })
    .unwrap();
    expect_remote(&mut c, ErrorCode::Protocol);
    drop(c);
    assert_eq!(clean_round(&daemon, &obs, 0), 1);
    daemon.trigger_drain();
    assert!(!daemon.join().unwrap().hard_killed);
}

#[test]
fn a_flood_of_distinct_keys_keeps_the_row_cache_under_its_cap() {
    // At k = 2¹⁶ a BiLOLOHA row is 8 KiB, so one shard's cache holds
    // about a thousand users; 1 280 distinct keys overflow it.
    let obs = MetricsRegistry::new();
    let k = 1 << 16;
    let mut cfg = DaemonConfig::new(Method::BiLoloha, k, 2.0, 1.0);
    cfg.workers = 1;
    let daemon = Collectd::start(cfg, &obs).unwrap();
    let mut c = hello(&daemon, &obs, 0, Method::BiLoloha, k);
    let mut most = 0;
    for seq in 1..=10u64 {
        let reports: Vec<(u64, u64, u8)> = (0..128u64)
            .map(|i| (1 + seq * 1000 + i, i, (i % 2) as u8))
            .collect();
        c.send(&Frame::SubmitHashed {
            seq,
            key_base: seq * 1_000_000,
            batch: hashed(2, &reports),
        })
        .unwrap();
        assert!(matches!(c.recv().unwrap().unwrap().1, Frame::Ack { .. }));
        let held = obs.snapshot().gauge("ldp.netd.row_cache_bytes").unwrap();
        assert!(
            held <= ROW_CACHE_BYTES as u64,
            "{held} bytes after frame {seq}"
        );
        most = most.max(held);
    }
    let snap = obs.snapshot();
    assert_eq!(snap.counter_total("ldp.netd.row_cache_misses"), 1280);
    assert!(
        snap.gauge("ldp.netd.row_cache_bytes").unwrap() < most,
        "the full cache emptied"
    );
    drop(c);
    daemon.trigger_drain();
    assert!(!daemon.join().unwrap().hard_killed);
}

#[test]
fn a_frame_of_distinct_keys_at_g_above_2_stays_under_the_build_cap() {
    // Each report of a hashed frame without rows may miss the row cache
    // and cost the daemon a pass over [0, k), all under the gate. A frame
    // of distinct keys whose passes would cover more than MAX_WIRE_DIM
    // values is refused before any of it is applied; one at the cap is
    // folded whole, every report a miss.
    let obs = MetricsRegistry::new();
    let (method, k) = (Method::OLoloha, 1u64 << 14);
    let g = loloha::LolohaParams::optimal(2.0, 1.0).unwrap().g();
    assert!(g > 2, "OLOLOHA at ε = 2 hashes into {g} cells");
    let daemon = Collectd::start(DaemonConfig::new(method, k, 2.0, 1.0), &obs).unwrap();
    let mut c = hello(&daemon, &obs, 0, method, k);
    let at_cap = (u64::from(MAX_WIRE_DIM) / k) as usize;
    let distinct = |n: usize| -> Vec<(u64, u64, u8)> {
        (0..n as u64)
            .map(|i| (1 + 7919 * i, 31 * i, (i % u64::from(g)) as u8))
            .collect()
    };
    c.send(&Frame::SubmitHashed {
        seq: 1,
        key_base: 0,
        batch: hashed(g, &distinct(at_cap + 1)),
    })
    .unwrap();
    expect_remote(&mut c, ErrorCode::OversizedBatch);
    assert_eq!(
        obs.snapshot().counter_total("ldp.netd.row_cache_misses"),
        0,
        "nothing of the refused frame was built"
    );
    c.send(&Frame::SubmitHashed {
        seq: 1,
        key_base: 0,
        batch: hashed(g, &distinct(at_cap)),
    })
    .unwrap();
    match c.recv().unwrap().unwrap().1 {
        Frame::Ack {
            seq: 1, reports, ..
        } => assert_eq!(reports as usize, at_cap),
        other => panic!("expected the frame at the cap acked, got {other:?}"),
    }
    assert_eq!(
        obs.snapshot().counter_total("ldp.netd.row_cache_misses"),
        at_cap as u64
    );
    c.send(&Frame::EndRound { round: 0 }).unwrap();
    match c.recv().unwrap().unwrap().1 {
        Frame::RoundResult { reports, .. } => assert_eq!(reports, at_cap as u64),
        other => panic!("expected a round result, got {other:?}"),
    }
    drop(c);
    daemon.trigger_drain();
    assert!(!daemon.join().unwrap().hard_killed);
}
