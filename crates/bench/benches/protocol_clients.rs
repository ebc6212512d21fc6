//! Criterion micro-benchmarks: per-report client latency of every
//! longitudinal protocol at the Syn dataset's scale (k = 360, ε∞ = 1,
//! ε1 = 0.5). This is the hot path of any real deployment — one call per
//! user per collection round. A second group times L-OSUE's two UE
//! kernels alone at DB_MT's scale (k = 1412, ε∞ = 2, ε1 = 1): the PRR a
//! memo miss pays and the IRR every report pays. A third group times
//! the path the pool takes at that scale: `ClientState::report_into` on
//! the boxed state `ClientConfig::build_state` returns, with each user's
//! own `LdpRng`, over a mix of memo misses and hits.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ldp_client::{ClientConfig, ReportBuf, USER_STREAM_TAG};
use ldp_hash::CarterWegman;
use ldp_longitudinal::chain::ue_chain_params;
use ldp_longitudinal::irr::IrrKernel;
use ldp_longitudinal::{DBitFlipClient, LgrrClient, LongitudinalUeClient, UeChain};
use ldp_primitives::{BitVec, UeClient};
use ldp_rand::{derive_rng, derive_rng2};
use ldp_runtime::Method;
use loloha::{LolohaClient, LolohaParams};
use std::hint::black_box;

const K: u64 = 360;
const EPS_INF: f64 = 1.0;
const EPS_1: f64 = 0.5;

fn bench_clients(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_report_k360");
    group.sample_size(20);

    group.bench_function("RAPPOR", |b| {
        let mut client = LongitudinalUeClient::new(UeChain::SueSue, K, EPS_INF, EPS_1).unwrap();
        let mut rng = derive_rng(1, 0);
        let mut out = BitVec::zeros(K as usize);
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            client.report_into(black_box(v), &mut rng, &mut out);
            black_box(out.count_ones())
        });
    });

    group.bench_function("L-OSUE", |b| {
        let mut client = LongitudinalUeClient::new(UeChain::OueSue, K, EPS_INF, EPS_1).unwrap();
        let mut rng = derive_rng(2, 0);
        let mut out = BitVec::zeros(K as usize);
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            client.report_into(black_box(v), &mut rng, &mut out);
            black_box(out.count_ones())
        });
    });

    group.bench_function("L-GRR", |b| {
        let mut client = LgrrClient::new(K, EPS_INF, EPS_1).unwrap();
        let mut rng = derive_rng(3, 0);
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            black_box(client.report(black_box(v), &mut rng))
        });
    });

    group.bench_function("BiLOLOHA", |b| {
        let params = LolohaParams::bi(EPS_INF, EPS_1).unwrap();
        let family = CarterWegman::new(2).unwrap();
        let mut rng = derive_rng(4, 0);
        let mut client = LolohaClient::new(&family, K, params, &mut rng).unwrap();
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            black_box(client.report(black_box(v), &mut rng))
        });
    });

    group.bench_function("OLOLOHA", |b| {
        let params = LolohaParams::optimal(5.0, 3.0).unwrap(); // g > 2 regime
        let family = CarterWegman::new(params.g()).unwrap();
        let mut rng = derive_rng(5, 0);
        let mut client = LolohaClient::new(&family, K, params, &mut rng).unwrap();
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            black_box(client.report(black_box(v), &mut rng))
        });
    });

    group.bench_function("1BitFlipPM", |b| {
        let mut rng = derive_rng(6, 0);
        let mut client = DBitFlipClient::new(K, K as u32, 1, EPS_INF, &mut rng).unwrap();
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            black_box(client.report(black_box(v), &mut rng).bits.count_ones())
        });
    });

    group.bench_function("bBitFlipPM", |b| {
        let mut rng = derive_rng(7, 0);
        let mut client = DBitFlipClient::new(K, K as u32, K as u32, EPS_INF, &mut rng).unwrap();
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K;
            black_box(client.report(black_box(v), &mut rng).bits.count_ones())
        });
    });

    group.finish();
}

fn bench_losue_kernels(c: &mut Criterion) {
    const K_DBMT: u64 = 1412;
    let chain = ue_chain_params(UeChain::OueSue, 2.0, 1.0).unwrap();
    let mut group = c.benchmark_group("l_osue_kernels_k1412");
    group.sample_size(20);

    group.bench_function("PRR", |b| {
        let prr = UeClient::with_params(K_DBMT, chain.prr.p, chain.prr.q).unwrap();
        let mut rng = derive_rng(8, 0);
        let mut out = BitVec::zeros(K_DBMT as usize);
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) % K_DBMT;
            prr.perturb_into(black_box(v), &mut rng, &mut out);
            black_box(out.count_ones())
        });
    });

    group.bench_function("IRR", |b| {
        let irr = IrrKernel::new(K_DBMT as usize, chain.irr);
        let mut rng = derive_rng(9, 0);
        let memo = UeClient::with_params(K_DBMT, chain.prr.p, chain.prr.q)
            .unwrap()
            .perturb(3, &mut rng);
        let mut out = BitVec::zeros(K_DBMT as usize);
        b.iter(|| {
            irr.perturb_blocks_into(black_box(memo.blocks()), &mut rng, &mut out);
            black_box(out.count_ones())
        });
    });

    group.finish();
}

fn bench_pool_reports(c: &mut Criterion) {
    const K_DBMT: u64 = 1412;
    const USERS: usize = 256;
    // Per user: a, a, b, a — two memo misses and two hits (DB_MT's
    // streams miss on ~0.56 of reports).
    const PLAN: [u64; 4] = [0, 0, 1, 0];
    let mut group = c.benchmark_group("pool_report_k1412");
    group.sample_size(20);

    for (name, method) in [("L-OSUE", Method::LOsue), ("BiLOLOHA", Method::BiLoloha)] {
        let cfg = ClientConfig::for_method(method, K_DBMT, 2.0, 1.0).unwrap();
        // One sample: 256 fresh users × 4 reports through the boxed state.
        group.bench_function(format!("{name} x1024"), |b| {
            let mut buf = ReportBuf::new();
            b.iter_batched(
                || {
                    (0..USERS)
                        .map(|u| {
                            let mut rng = derive_rng2(10, USER_STREAM_TAG, u as u64);
                            (cfg.build_state(&mut rng).unwrap(), rng)
                        })
                        .collect::<Vec<_>>()
                },
                |mut users| {
                    for step in PLAN {
                        for (u, (state, rng)) in users.iter_mut().enumerate() {
                            let v = (u as u64 * 37 + step * 701) % K_DBMT;
                            state.report_into(black_box(v), rng, &mut buf);
                            black_box(buf.row());
                        }
                    }
                    users
                },
                BatchSize::SmallInput,
            );
        });
    }

    group.finish();
}

criterion_group!(
    benches,
    bench_clients,
    bench_losue_kernels,
    bench_pool_reports
);
criterion_main!(benches);
