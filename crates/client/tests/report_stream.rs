//! Pins every method's report stream through the pool, draw for draw.
//!
//! For each of the nine registry methods a pool of 48 users at k = 200
//! (four words, the last one partial) sanitizes six rounds. Users repeat
//! values (memo hits) and move to new ones (memo misses). Every report's
//! row words or support indices, then every user's final RNG state, are
//! hashed into one `u64` per method. A change to the client hot path that
//! keeps the draws and their order keeps these constants; anything else
//! changes reports and needs new versioned fixtures instead.

use ldp_client::{ClientConfig, ClientPool, ReportBuf};
use ldp_obs::MetricsRegistry;
use ldp_primitives::codec::xxh64;
use ldp_runtime::Method;

const K: u64 = 200;
const USERS: usize = 48;
const ROUNDS: usize = 6;
const SEED: u64 = 2024;

/// User `u`'s value in round `t`. Most users walk the pattern
/// `a a b a c b` (a miss, then hits mixed with misses); every third user
/// moves to a new value every round.
fn value(u: usize, t: usize) -> u64 {
    let step = if u.is_multiple_of(3) {
        t
    } else {
        [0, 0, 1, 0, 2, 1][t]
    };
    ((u * 13 + step * 71) % K as usize) as u64
}

/// The stream hash of one method: every report's shape and content in
/// user-major order within each round, then every user's RNG state.
fn stream_hash(method: Method) -> u64 {
    let cfg = ClientConfig::for_method(method, K, 2.0, 1.0).unwrap();
    let mut pool = ClientPool::with_obs(cfg, SEED, USERS, &MetricsRegistry::disabled()).unwrap();
    let mut buf = ReportBuf::new();
    let mut bytes = Vec::new();
    for t in 0..ROUNDS {
        for u in 0..USERS {
            pool.sanitize_one(u, value(u, t), &mut buf);
            match buf.row() {
                Some(row) => {
                    bytes.push(1);
                    row.iter()
                        .for_each(|w| bytes.extend_from_slice(&w.to_le_bytes()));
                }
                None => {
                    bytes.push(0);
                    buf.support()
                        .iter()
                        .for_each(|&i| bytes.extend_from_slice(&(i as u64).to_le_bytes()));
                }
            }
        }
    }
    for u in 0..USERS {
        for w in pool.record(u).rng {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    xxh64(&bytes)
}

#[test]
fn the_value_plan_mixes_memo_hits_and_misses() {
    let (mut hits, mut misses) = (0, 0);
    for u in 0..USERS {
        let mut seen = Vec::new();
        for t in 0..ROUNDS {
            let v = value(u, t);
            if seen.contains(&v) {
                hits += 1;
            } else {
                misses += 1;
                seen.push(v);
            }
        }
    }
    assert!(hits > 50 && misses > 100, "hits {hits}, misses {misses}");
}

#[test]
fn every_method_reproduces_its_pinned_report_stream() {
    let pinned: [(Method, u64); 9] = [
        (Method::Rappor, 0xB301_A08E_A7F6_469E),
        (Method::LOsue, 0x86D7_4F37_6A2B_BB82),
        (Method::LOue, 0x9458_941A_35C5_4687),
        (Method::LSoue, 0xDAD0_0942_8E45_1FEA),
        (Method::LGrr, 0x0B21_9085_7410_FBB1),
        (Method::BiLoloha, 0x7298_31A5_CE15_34B0),
        (Method::OLoloha, 0x0219_7A57_30CE_F06B),
        (Method::OneBitFlip, 0xB6C7_3170_19AF_5098),
        (Method::BBitFlip, 0xA277_5251_8B97_8C4E),
    ];
    assert_eq!(pinned.map(|(m, _)| m), Method::all());
    let got: Vec<(Method, u64)> = pinned.iter().map(|&(m, _)| (m, stream_hash(m))).collect();
    assert_eq!(got, pinned, "a method's report stream changed");
}
