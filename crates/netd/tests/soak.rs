//! Soak and backpressure suite.
//!
//! Three sustained-traffic properties the protocol must hold under
//! pressure:
//!
//! * A **trickling sender** (bytes arriving far slower than the
//!   daemon's poll tick) never desynchronizes the stream — the
//!   connection's incremental assembler parks partial frames across
//!   ticks and memory stays bounded by one frame.
//! * A **burst** of submit frames written far past the client's ack
//!   window without reading a reply is folded frame by frame: the
//!   daemon acks every frame once, in `seq` order, and every report
//!   lands in the round result exactly once.
//! * Over a multi-round, multi-connection run, **every accepted frame
//!   is acked exactly once** (daemon-side applied count equals
//!   client-side acked count) and the daemon's connection gauge returns
//!   to zero once the clients leave.

use ldp_ingest::ReportBatch;
use ldp_netd::{
    decode_frame, encode_frame, read_frame, run_loadgen, write_frame, Collectd, DaemonConfig,
    Frame, LoadgenConfig,
};
use ldp_obs::MetricsRegistry;
use ldp_runtime::{Method, ShardedAggregator};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn daemon_config(method: Method, k: u64) -> DaemonConfig {
    DaemonConfig::new(method, k, 2.0, 1.0)
}

/// Drip-feeds `bytes` down the stream a few bytes at a time, sleeping
/// past the daemon's poll tick between chunks.
fn trickle(stream: &mut TcpStream, bytes: &[u8]) {
    for chunk in bytes.chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn expect_frame(stream: &mut TcpStream) -> Frame {
    let mut buf = Vec::new();
    assert!(read_frame(stream, &mut buf).unwrap(), "daemon replied");
    decode_frame(&buf).unwrap().1
}

#[test]
fn a_trickling_sender_never_desynchronizes_the_stream() {
    let obs = MetricsRegistry::new();
    let daemon = Collectd::start(daemon_config(Method::LGrr, 8), &obs).unwrap();
    let mut s = TcpStream::connect(daemon.local_addr()).unwrap();

    let hello = encode_frame(
        &Frame::Hello {
            worker_id: 0,
            k: 8,
            dim: 8,
            method: Method::LGrr.name().into(),
        },
        daemon.fingerprint(),
    );
    let mut batch = ReportBatch::new();
    batch.push_report([2u32]);
    batch.push_report([7u32]);
    let submit = encode_frame(
        &Frame::Submit {
            seq: 1,
            key_base: 0,
            batch,
        },
        daemon.fingerprint(),
    );

    // Length prefix and body both arrive in sub-frame dribs; every
    // chunk boundary lands mid-field somewhere.
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::try_from(hello.len()).unwrap().to_le_bytes());
    wire.extend_from_slice(&hello);
    trickle(&mut s, &wire);
    assert!(matches!(expect_frame(&mut s), Frame::HelloAck { .. }));

    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::try_from(submit.len()).unwrap().to_le_bytes());
    wire.extend_from_slice(&submit);
    trickle(&mut s, &wire);
    assert!(matches!(
        expect_frame(&mut s),
        Frame::Ack {
            seq: 1,
            reports: 2,
            ..
        }
    ));

    // The stream is still frame-aligned: a normally sent frame parses.
    let end = encode_frame(&Frame::EndRound { round: 0 }, daemon.fingerprint());
    s.write_all(&u32::try_from(end.len()).unwrap().to_le_bytes())
        .unwrap();
    s.write_all(&end).unwrap();
    match expect_frame(&mut s) {
        Frame::RoundResult { reports, .. } => assert_eq!(reports, 2),
        other => panic!("expected a round result, got {other:?}"),
    }

    drop(s);
    daemon.trigger_drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_applied, 1);
    assert_eq!(report.rounds_finished, 1);
}

#[test]
fn a_burst_of_unread_submits_is_acked_in_seq_order_and_lands_exactly_once() {
    const FRAMES: u64 = 64; // far past a client's ack window
    const PER_FRAME: u32 = 5;
    let (method, k) = (Method::LOue, 8u64);
    let obs = MetricsRegistry::new();
    let mut dcfg = daemon_config(method, k);
    dcfg.workers = 1;
    let daemon = Collectd::start(dcfg, &obs).unwrap();
    let fp = daemon.fingerprint();
    let mut s = TcpStream::connect(daemon.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let send = |s: &mut TcpStream, frame: &Frame| write_frame(s, &encode_frame(frame, fp)).unwrap();

    send(
        &mut s,
        &Frame::Hello {
            worker_id: 0,
            k,
            dim: k,
            method: method.name().into(),
        },
    );
    assert!(matches!(expect_frame(&mut s), Frame::HelloAck { .. }));

    // Every frame goes out before any reply is read.
    let mut reference =
        ShardedAggregator::for_method_obs(method, k, 2.0, 1.0, 1, &MetricsRegistry::disabled())
            .unwrap();
    for seq in 1..=FRAMES {
        let mut batch = ReportBatch::new();
        for r in 0..u64::from(PER_FRAME) {
            let support = [((seq + r) % k) as u32, ((seq * r + 3) % k) as u32];
            reference.push_report(0, support.map(|i| i as usize));
            batch.push_report(support);
        }
        send(
            &mut s,
            &Frame::Submit {
                seq,
                key_base: (seq - 1) * u64::from(PER_FRAME),
                batch,
            },
        );
    }
    for want in 1..=FRAMES {
        match expect_frame(&mut s) {
            Frame::Ack { seq, reports, .. } => {
                assert_eq!(seq, want, "acks come back in seq order");
                assert_eq!(reports, PER_FRAME);
            }
            other => panic!("expected the ack of frame {want}, got {other:?}"),
        }
    }

    send(&mut s, &Frame::EndRound { round: 0 });
    let want = reference.finish_round();
    match expect_frame(&mut s) {
        Frame::RoundResult {
            reports, estimate, ..
        } => {
            assert_eq!(reports, FRAMES * u64::from(PER_FRAME), "nothing dropped");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&estimate),
                bits(&want.estimate),
                "every report folded once"
            );
        }
        other => panic!("expected a round result, got {other:?}"),
    }

    drop(s);
    daemon.trigger_drain();
    let dreport = daemon.join().unwrap();
    assert_eq!(
        dreport.frames_applied, FRAMES,
        "every frame applied exactly once"
    );
}

#[test]
fn acks_are_exactly_once_and_the_connection_gauge_drains_to_zero() {
    let obs = MetricsRegistry::new();
    let daemon = Collectd::start(daemon_config(Method::BiLoloha, 16), &obs).unwrap();

    let users: usize = 40;
    let rounds: u64 = 2;
    let mut lcfg = LoadgenConfig::new(daemon.local_addr(), Method::BiLoloha, 16, 2.0, 1.0);
    lcfg.users = users;
    lcfg.rounds = rounds;
    lcfg.workers = 3;
    lcfg.frame_reports = 4;
    let report = run_loadgen(&lcfg, &obs).unwrap();

    assert_eq!(report.retries, 0);
    assert_eq!(
        report.reports,
        (users as u64) * rounds,
        "one ack per report"
    );
    assert!(report.reports_per_sec > 0.0);

    // The loadgen connections have closed; the daemon's live-connection
    // gauge must return to zero within a few ticks.
    let gauge = obs.gauge("ldp.netd.connections");
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauge.get() != 0 {
        assert!(Instant::now() < deadline, "gauge stuck at {}", gauge.get());
        std::thread::sleep(Duration::from_millis(10));
    }

    daemon.trigger_drain();
    let dreport = daemon.join().unwrap();
    assert_eq!(
        dreport.frames_applied, report.frames,
        "applied == acked: exactly once"
    );
    assert_eq!(dreport.rounds_finished, rounds);
    assert_eq!(dreport.connections_served, 3 * rounds);

    let snap = obs.snapshot();
    // Wire-level accounting exists and is labeled per frame kind.
    assert!(snap.counter_total("ldp.netd.frames_rx") > 0);
    assert!(snap.counter_total("ldp.netd.frames_tx") > 0);
}

#[test]
fn large_domain_frames_stay_under_the_wire_caps_and_fold_every_report() {
    // L-OSUE at k = 65 536: a report supports ~17 600 indices, so 128
    // of them would pass MAX_WIRE_INDICES. The sink must cut frames
    // short of the caps instead of sending one the daemon rejects.
    let (method, k, users) = (Method::LOsue, 65_536u64, 300usize);
    let obs = MetricsRegistry::new();
    let daemon = Collectd::start(daemon_config(method, k), &obs).unwrap();
    let lcfg = LoadgenConfig {
        users,
        ..LoadgenConfig::new(daemon.local_addr(), method, k, 2.0, 1.0)
    };
    let report = run_loadgen(&lcfg, &obs).unwrap();
    daemon.trigger_drain();
    let dreport = daemon.join().unwrap();

    assert_eq!(
        report.rounds[0].reports, users as u64,
        "every report folded"
    );
    assert_eq!(report.reports, users as u64);
    assert!(
        report.frames > users.div_ceil(lcfg.frame_reports) as u64,
        "frames were cut short of {} reports",
        lcfg.frame_reports
    );
    assert_eq!(dreport.frames_applied, report.frames);

    // The same round in process gives the same estimate.
    let cfg = ldp_client::ClientConfig::for_method(method, k, 2.0, 1.0).unwrap();
    let mut pool = ldp_client::ClientPool::with_obs(cfg, lcfg.seed, users, &obs).unwrap();
    let mut agg = ldp_runtime::ShardedAggregator::for_method_obs(
        method,
        k,
        2.0,
        1.0,
        2,
        &MetricsRegistry::disabled(),
    )
    .unwrap();
    let values = ldp_netd::round_values(lcfg.seed, 0, users, k);
    pool.sanitize_round_into_shards(&values, agg.shards_mut());
    let want = agg.finish_round();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.rounds[0].estimate), bits(&want.estimate));
}
