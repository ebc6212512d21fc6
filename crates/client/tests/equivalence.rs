//! Pins the `ClientPool` bit-for-bit against the pre-refactor client
//! path.
//!
//! Before `ldp_client`, the simulator engine carried three bespoke
//! per-method `match` blocks (`make_user`, `process_user`,
//! `sanitize_report`). This suite re-implements that legacy dispatch
//! verbatim — direct protocol-crate calls, the same
//! `derive_rng2(seed, 0x00C1_1E47, user)` streams, the same draw order —
//! and asserts that the registry-driven pool produces **identical merged
//! support counts and identical per-user privacy accounting** for all
//! nine methods, across sanitize worker counts {1, 2, 4, 8}, over
//! multiple memoizing rounds.

use ldp_client::{ClientConfig, ClientPool, DetectionTrack};
use ldp_hash::{CarterWegman, CwHash, Preimages};
use ldp_ingest::IngestPipeline;
use ldp_longitudinal::{DBitFlipClient, LgrrClient, LongitudinalUeClient};
use ldp_obs::MetricsRegistry;
use ldp_primitives::BitVec;
use ldp_rand::{derive_rng2, LdpRng};
use ldp_runtime::{dbit_buckets, Method, ShardedAggregator};
use loloha::{LolohaClient, LolohaParams};

const K: u64 = 16;
const EPS_INF: f64 = 2.0;
const EPS_FIRST: f64 = 1.0;
const SEED: u64 = 5;
const USER_TAG: u64 = 0x00C1_1E47;

/// The pre-refactor per-user state, dispatch included.
enum LegacyState {
    Lue(Box<LongitudinalUeClient>),
    Lgrr(Box<LgrrClient>),
    Loloha {
        client: Box<LolohaClient<CwHash>>,
        preimages: Preimages,
    },
    DBit(Box<DBitFlipClient>),
}

struct LegacyUser {
    state: LegacyState,
    rng: LdpRng,
    detect: Option<DetectionTrack>,
}

/// `make_user` as the old engine wrote it, arm for arm.
fn legacy_make_user(method: Method, user: u64) -> LegacyUser {
    let mut rng = derive_rng2(SEED, USER_TAG, user);
    let (state, detect) = match method {
        Method::Rappor | Method::LOsue | Method::LOue | Method::LSoue => {
            let chain = method.ue_chain().expect("UE-chained method");
            (
                LegacyState::Lue(Box::new(
                    LongitudinalUeClient::new(chain, K, EPS_INF, EPS_FIRST).unwrap(),
                )),
                None,
            )
        }
        Method::LGrr => (
            LegacyState::Lgrr(Box::new(LgrrClient::new(K, EPS_INF, EPS_FIRST).unwrap())),
            None,
        ),
        Method::BiLoloha | Method::OLoloha => {
            let params = if method == Method::BiLoloha {
                LolohaParams::bi(EPS_INF, EPS_FIRST).unwrap()
            } else {
                LolohaParams::optimal(EPS_INF, EPS_FIRST).unwrap()
            };
            let family = CarterWegman::new(params.g()).unwrap();
            let client = LolohaClient::new(&family, K, params, &mut rng).unwrap();
            let preimages = Preimages::build(client.hash_fn(), K);
            (
                LegacyState::Loloha {
                    client: Box::new(client),
                    preimages,
                },
                None,
            )
        }
        Method::OneBitFlip | Method::BBitFlip => {
            let b = dbit_buckets(K);
            let d = if method == Method::OneBitFlip { 1 } else { b };
            let client = DBitFlipClient::new(K, b, d, EPS_INF, &mut rng).unwrap();
            (
                LegacyState::DBit(Box::new(client)),
                Some(DetectionTrack::new()),
            )
        }
    };
    LegacyUser { state, rng, detect }
}

/// `sanitize_report` as the old engine wrote it, arm for arm.
fn legacy_sanitize(
    user: &mut LegacyUser,
    value: u64,
    scratch: &mut BitVec,
    support: &mut Vec<usize>,
) {
    support.clear();
    match &mut user.state {
        LegacyState::Lue(c) => {
            c.report_into(value, &mut user.rng, scratch);
            support.extend(scratch.iter_ones());
        }
        LegacyState::Lgrr(c) => {
            support.push(c.report(value, &mut user.rng) as usize);
        }
        LegacyState::Loloha { client, preimages } => {
            let cell = client.report(value, &mut user.rng);
            support.extend(preimages.cell(cell).iter().map(|&v| v as usize));
        }
        LegacyState::DBit(c) => {
            let report = c.report(value, &mut user.rng);
            let sampled = c.sampled();
            support.extend(report.bits.iter_ones().map(|l| sampled[l] as usize));
            if let Some(track) = &mut user.detect {
                track.observe(c.bucket_of(value), &report.bits);
            }
        }
    }
}

fn legacy_privacy(user: &LegacyUser) -> (f64, u32) {
    match &user.state {
        LegacyState::Lue(c) => (c.privacy_spent(), c.distinct_values()),
        LegacyState::Lgrr(c) => (c.privacy_spent(), c.distinct_values()),
        LegacyState::Loloha { client, .. } => (client.privacy_spent(), client.distinct_cells()),
        LegacyState::DBit(c) => (c.privacy_spent(), c.distinct_classes()),
    }
}

/// Three rounds of evolving values: round `t`, user `u` reports
/// `(u·7 + t·3) % K` — enough churn to hit fresh memoizations each round.
fn round_values(n: usize, t: u64) -> Vec<u64> {
    (0..n as u64).map(|u| (u * 7 + t * 3) % K).collect()
}

#[test]
fn pool_is_bit_identical_to_the_legacy_dispatch_for_all_methods_and_worker_counts() {
    const N: usize = 48;
    const ROUNDS: u64 = 3;
    for method in Method::all() {
        // Legacy path: single-threaded, straight into one shard.
        let mut legacy: Vec<LegacyUser> =
            (0..N as u64).map(|u| legacy_make_user(method, u)).collect();
        let mut legacy_agg = ShardedAggregator::for_method_obs(
            method,
            K,
            EPS_INF,
            EPS_FIRST,
            1,
            &MetricsRegistry::disabled(),
        )
        .unwrap();
        let mut legacy_rounds = Vec::new();
        let mut scratch = BitVec::zeros(K as usize);
        let mut support = Vec::new();
        for t in 0..ROUNDS {
            let values = round_values(N, t);
            for (user, &v) in legacy.iter_mut().zip(&values) {
                legacy_sanitize(user, v, &mut scratch, &mut support);
                legacy_agg.push_report(0, support.iter().copied());
            }
            legacy_rounds.push(legacy_agg.finish_round());
        }

        // Pool path, at every sanitize worker count.
        for workers in [1usize, 2, 4, 8] {
            let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
            let mut pool =
                ClientPool::with_obs(cfg, SEED, N, &MetricsRegistry::disabled()).unwrap();
            let mut pipe = IngestPipeline::for_method_obs(
                method,
                K,
                EPS_INF,
                EPS_FIRST,
                workers,
                &MetricsRegistry::disabled(),
            )
            .unwrap();
            for (t, want) in legacy_rounds.iter().enumerate() {
                let values = round_values(N, t as u64);
                let handle = pipe.handle();
                pool.sanitize_round(&values, workers, &handle).unwrap();
                drop(handle);
                let got = pipe.finish_round().unwrap();
                assert_eq!(
                    want.counts, got.counts,
                    "{method:?} round {t} at {workers} workers: counts"
                );
                assert_eq!(want.reports, got.reports, "{method:?} round {t}");
                for (i, (a, b)) in want.estimate.iter().zip(&got.estimate).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{method:?} round {t} at {workers} workers: estimate[{i}]"
                    );
                }
            }
            // Per-user privacy accounting and detection state agree too.
            for (u, (legacy_user, state)) in legacy.iter().zip(pool.states()).enumerate() {
                let (spent, distinct) = legacy_privacy(legacy_user);
                assert_eq!(
                    spent.to_bits(),
                    state.privacy_spent().to_bits(),
                    "{method:?} user {u} spent at {workers} workers"
                );
                assert_eq!(distinct, state.distinct_classes(), "{method:?} user {u}");
                assert_eq!(
                    legacy_user.detect.as_ref(),
                    state.detection(),
                    "{method:?} user {u} detection"
                );
            }
        }
    }
}
