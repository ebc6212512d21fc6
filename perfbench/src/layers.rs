//! Layer measurements made beside a workload through the program's public
//! functions: the client on a mirror population, the shard fold on a
//! round's captured batches, and merge and estimate on a replayed
//! aggregator.

use crate::gen::{eps_first, EPS_INF};
use crate::stats::median;
use ldp_client::{ClientConfig, ReportBuf, USER_STREAM_TAG};
use ldp_hash::{CarterWegman, Preimages};
use ldp_longitudinal::{LongitudinalUeClient, UeChain};
use ldp_primitives::BitVec;
use ldp_rand::derive_rng2;
use ldp_runtime::{Shard, ShardedAggregator};
use loloha::{LolohaClient, LolohaParams};
use std::hint::black_box;
use std::time::Instant;

/// The protocol behind a client configuration, for timing its parts.
#[derive(Debug, Clone, Copy)]
pub enum Proto {
    /// A unary-encoding chain (L-OSUE, RAPPOR, ...).
    Ue(UeChain),
    /// LOLOHA with these parameters.
    Loloha(LolohaParams),
}

/// What the client mirror measured.
#[derive(Debug, Default, Clone)]
pub struct ClientLayer {
    /// Mean `ClientState::report_into` time.
    pub report_ns: f64,
    /// Mean time of the protocol's own report (PRR memo lookup + IRR).
    pub perturb_ns: f64,
    /// Mean time to expand a report into support indices.
    pub support_ns: f64,
    /// Mean support indices per report.
    pub support_indices: f64,
    /// Share of reports that had to memoize a new PRR class.
    pub memo_miss_frac: f64,
    /// Every support index of the first round's reports, for the fold.
    pub first_round: Vec<u32>,
    /// Reports in `first_round`.
    pub first_round_reports: u64,
    /// Whether the part-timed clients reproduced the pool's reports.
    pub parts_match: bool,
}

/// Times `ClientState::report_into`, and separately its perturb and
/// support parts, for the first `users` users over every round of
/// `values`. Both mirror populations derive their RNG streams exactly as
/// `ClientPool` does (`USER_STREAM_TAG`), so they replay the pool's
/// reports.
pub fn client_mirror(
    cfg: ClientConfig,
    proto: Proto,
    seed: u64,
    values: &[Vec<u64>],
    users: usize,
) -> Result<ClientLayer, String> {
    let k = cfg.k();
    let users = users.min(values.first().map_or(0, Vec::len));
    let mut whole = Vec::with_capacity(users);
    for u in 0..users {
        let mut rng = derive_rng2(seed, USER_STREAM_TAG, u as u64);
        let state = cfg.build_state(&mut rng).map_err(|e| e.to_string())?;
        whole.push((state, rng));
    }
    let mut buf = ReportBuf::new();
    let (mut report_ns, mut reports, mut misses, mut indices) = (0u64, 0u64, 0u64, 0u64);
    let mut out = ClientLayer::default();
    let mut first: Vec<Vec<usize>> = Vec::new();
    for (t, round) in values.iter().enumerate() {
        for ((state, rng), &v) in whole.iter_mut().zip(round) {
            let before = state.distinct_classes();
            let t0 = Instant::now();
            state.report_into(v, rng, &mut buf);
            report_ns += t0.elapsed().as_nanos() as u64;
            misses += u64::from(state.distinct_classes() > before);
            reports += 1;
            indices += buf.support().len() as u64;
            if t == 0 {
                out.first_round
                    .extend(buf.support().iter().map(|&i| i as u32));
                first.push(buf.support().to_vec());
            }
        }
    }
    out.first_round_reports = first.len() as u64;
    let per = reports.max(1) as f64;
    out.report_ns = report_ns as f64 / per;
    out.memo_miss_frac = misses as f64 / per;
    out.support_indices = indices as f64 / per;

    let (perturb, support, matched) = parts(proto, k, seed, values, users, &first)?;
    out.perturb_ns = perturb / per;
    out.support_ns = support / per;
    out.parts_match = matched;
    Ok(out)
}

/// Times the two parts of a report on freshly built protocol clients;
/// returns total perturb ns, total support ns, and whether the first
/// round's supports equal `first`.
fn parts(
    proto: Proto,
    k: u64,
    seed: u64,
    values: &[Vec<u64>],
    users: usize,
    first: &[Vec<usize>],
) -> Result<(f64, f64, bool), String> {
    let (mut perturb, mut support_t) = (0u64, 0u64);
    let mut support: Vec<usize> = Vec::new();
    let mut matched = true;
    match proto {
        Proto::Ue(chain) => {
            let mut pop = Vec::with_capacity(users);
            for u in 0..users {
                let client = LongitudinalUeClient::new(chain, k, EPS_INF, eps_first())
                    .map_err(|e| e.to_string())?;
                pop.push((client, derive_rng2(seed, USER_STREAM_TAG, u as u64)));
            }
            let mut bits = BitVec::zeros(k as usize);
            for (t, round) in values.iter().enumerate() {
                for (u, ((client, rng), &v)) in pop.iter_mut().zip(round).enumerate() {
                    let t0 = Instant::now();
                    client.report_into(v, rng, &mut bits);
                    let t1 = Instant::now();
                    support.clear();
                    bits.for_each_one(|i| support.push(i));
                    let t2 = Instant::now();
                    perturb += (t1 - t0).as_nanos() as u64;
                    support_t += (t2 - t1).as_nanos() as u64;
                    if t == 0 {
                        matched &= first.get(u) == Some(&support);
                    }
                }
            }
        }
        Proto::Loloha(params) => {
            let family = CarterWegman::new(params.g()).ok_or("invalid g")?;
            let mut pop = Vec::with_capacity(users);
            for u in 0..users {
                let mut rng = derive_rng2(seed, USER_STREAM_TAG, u as u64);
                let client =
                    LolohaClient::new(&family, k, params, &mut rng).map_err(|e| e.to_string())?;
                let pre = Preimages::build(client.hash_fn(), k);
                pop.push((client, pre, rng));
            }
            for (t, round) in values.iter().enumerate() {
                for (u, ((client, pre, rng), &v)) in pop.iter_mut().zip(round).enumerate() {
                    let t0 = Instant::now();
                    let cell = client.report(v, rng);
                    let t1 = Instant::now();
                    support.clear();
                    support.extend(pre.cell(cell).iter().map(|&i| i as usize));
                    let t2 = Instant::now();
                    perturb += (t1 - t0).as_nanos() as u64;
                    support_t += (t2 - t1).as_nanos() as u64;
                    if t == 0 {
                        matched &= first.get(u) == Some(&support);
                    }
                }
            }
        }
    }
    Ok((perturb as f64, support_t as f64, matched))
}

/// `Shard::add_report_batch` over captured batches: median over five
/// passes of ns per folded index.
pub fn fold_ns_per_index(dim: usize, batches: &[(&[u32], u64)]) -> f64 {
    let indices: usize = batches.iter().map(|(b, _)| b.len()).sum();
    if indices == 0 {
        return 0.0;
    }
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let mut shard = Shard::with_dim(dim);
            let t0 = Instant::now();
            for (batch, reports) in batches {
                shard.add_report_batch(black_box(batch), *reports);
            }
            black_box(shard.counts());
            t0.elapsed().as_nanos() as f64 / indices as f64
        })
        .collect();
    median(&passes)
}

/// Merge and estimate of one round replayed on `agg` (two shards, the
/// round's merged counts in the first): median µs of
/// `ShardedAggregator::merged_counts`, and of `finish_round` minus it.
pub fn merge_estimate_us(agg: &mut ShardedAggregator, counts: &[u64], reports: u64) -> (f64, f64) {
    let (mut merge, mut estimate) = (Vec::new(), Vec::new());
    for _ in 0..25 {
        agg.begin_round();
        agg.push_batch(0, counts, reports);
        let t0 = Instant::now();
        black_box(agg.merged_counts());
        let t1 = Instant::now();
        black_box(agg.finish_round());
        let t2 = Instant::now();
        let m = (t1 - t0).as_nanos() as f64 / 1e3;
        merge.push(m);
        estimate.push(((t2 - t1).as_nanos() as f64 / 1e3 - m).max(0.0));
    }
    (median(&merge), median(&estimate))
}
