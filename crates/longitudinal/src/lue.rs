//! The longitudinal unary-encoding family: RAPPOR (L-SUE), L-OSUE, and the
//! L-OUE / L-SOUE extensions.
//!
//! Client (per value `v`): one-hot encode, then
//! 1. **PRR** — permanently randomize with `(p1, q1)`; memoize per distinct
//!    value and reuse forever (this bounds the longitudinal loss at `ε∞`
//!    per distinct value).
//! 2. **IRR** — re-randomize the memoized vector with `(p2, q2)` on every
//!    report (this makes the first report ε1-LDP and hides change points).
//!
//! Server: per time step, sum reported bit vectors and invert both rounds
//! with Eq. (3).

use crate::accountant::cap_classes_for;
use crate::chain::{ue_chain_params, ChainParams, UeChain};
use crate::irr::IrrKernel;
use crate::memo::UnaryMemo;
use ldp_primitives::error::ParamError;
use ldp_primitives::estimator::chained_frequency_estimates;
use ldp_primitives::{BitVec, UeClient};
use rand::RngCore;

/// A longitudinal UE client holding one user's memoized PRR state.
#[derive(Debug, Clone)]
pub struct LongitudinalUeClient {
    k: usize,
    chain: ChainParams,
    prr_encoder: UeClient,
    irr: IrrKernel,
    memo: UnaryMemo,
}

impl LongitudinalUeClient {
    /// Creates a client for `chain` over domain `[0, k)` with budgets
    /// `0 < eps_first < eps_inf`.
    pub fn new(chain: UeChain, k: u64, eps_inf: f64, eps_first: f64) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::DomainTooSmall { k, min: 2 });
        }
        let params = ue_chain_params(chain, eps_inf, eps_first)?;
        let prr_encoder = UeClient::with_params(k, params.prr.p, params.prr.q)?;
        let irr = IrrKernel::new(k as usize, params.irr);
        Ok(Self {
            k: k as usize,
            chain: params,
            prr_encoder,
            irr,
            memo: UnaryMemo::new(cap_classes_for(k), k as usize),
        })
    }

    /// The resolved chain parameters.
    pub fn chain(&self) -> ChainParams {
        self.chain
    }

    /// Domain size.
    pub fn k(&self) -> u64 {
        self.k as u64
    }

    /// Produces the report for this step's value, memoizing its PRR if new.
    ///
    /// # Panics
    /// Panics if `value >= k`.
    pub fn report<R: RngCore + ?Sized>(&mut self, value: u64, rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(self.k);
        self.report_into(value, rng, &mut out);
        out
    }

    /// Like [`Self::report`] but writes into a caller-provided `k`-bit
    /// buffer, without allocating: a memo miss first draws the PRR into
    /// `out` and memoizes it from there, then the IRR of the memoized
    /// vector overwrites `out`. The draw order is the PRR's words, then
    /// the IRR's; which buffer the PRR lands in does not change it.
    ///
    /// # Panics
    /// Panics if `value >= k` or `out.len() != k`.
    pub fn report_into<R: RngCore + ?Sized>(&mut self, value: u64, rng: &mut R, out: &mut BitVec) {
        assert!((value as usize) < self.k, "value {value} outside domain");
        let class = value as u32;
        let blocks = match self.memo.get(class) {
            Some(blocks) => blocks,
            None => {
                self.prr_encoder.perturb_into(value, rng, out);
                self.memo.insert(class, out.blocks())
            }
        };
        self.irr.perturb_blocks_into(blocks, rng, out);
    }

    /// The user's accumulated longitudinal privacy loss ε̌ (Eq. (8)): one
    /// ε∞ per memoized value.
    pub fn privacy_spent(&self) -> f64 {
        self.chain.eps_inf * self.memo.len() as f64
    }

    /// Number of distinct values memoized so far.
    pub fn distinct_values(&self) -> u32 {
        self.memo.len() as u32
    }

    /// Iterates the memoized `(class, PRR blocks)` pairs in class order
    /// (the persistence layer's traversal; blocks are
    /// `ceil(k/64)`-word little-endian bit vectors).
    pub fn memo_entries(&self) -> impl Iterator<Item = (u32, &[u64])> + '_ {
        self.memo.iter()
    }

    /// Restores a memoized PRR vector when rebuilding a client from a
    /// snapshot; like the original memoization, it spends one ε∞.
    ///
    /// # Panics
    /// Panics if the class is already memoized or the block count differs
    /// from `ceil(k/64)`.
    pub fn restore_memo(&mut self, class: u32, blocks: &[u64]) {
        self.memo.insert(class, blocks);
    }
}

/// The aggregation server for longitudinal UE protocols. Counts are per
/// time step: call [`LueServer::estimate_and_reset`] at the end of each
/// collection round.
#[derive(Debug, Clone)]
pub struct LueServer {
    k: usize,
    chain: ChainParams,
    counts: Vec<u64>,
    n_step: u64,
}

impl LueServer {
    /// Creates a server matching `chain` over `[0, k)`.
    pub fn new(k: u64, chain: ChainParams) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::DomainTooSmall { k, min: 2 });
        }
        Ok(Self {
            k: k as usize,
            chain,
            counts: vec![0; k as usize],
            n_step: 0,
        })
    }

    /// Ingests one report for the current step.
    ///
    /// # Panics
    /// Panics if the report length differs from `k`.
    pub fn ingest(&mut self, bits: &BitVec) {
        assert_eq!(bits.len(), self.k, "report length mismatch");
        for i in bits.iter_ones() {
            self.counts[i] += 1;
        }
        self.n_step += 1;
    }

    /// Merges raw support counts accumulated elsewhere (thread-local
    /// aggregation in the simulator).
    pub fn ingest_counts(&mut self, counts: &[u64], n: u64) {
        assert_eq!(counts.len(), self.k, "count length mismatch");
        for (acc, &c) in self.counts.iter_mut().zip(counts) {
            *acc += c;
        }
        self.n_step += n;
    }

    /// Number of reports ingested this step.
    pub fn n_step(&self) -> u64 {
        self.n_step
    }

    /// Estimates this step's histogram with Eq. (3) and resets the counters.
    pub fn estimate_and_reset(&mut self) -> Vec<f64> {
        let counts: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        let est = chained_frequency_estimates(
            &counts,
            self.n_step as f64,
            self.chain.prr.p,
            self.chain.prr.q,
            self.chain.irr.p,
            self.chain.irr.q,
        );
        self.counts.fill(0);
        self.n_step = 0;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::{derive_rng, AliasTable};

    #[test]
    fn constructor_validates() {
        assert!(LongitudinalUeClient::new(UeChain::SueSue, 1, 1.0, 0.5).is_err());
        assert!(LongitudinalUeClient::new(UeChain::SueSue, 10, 1.0, 1.0).is_err());
    }

    #[test]
    fn memoization_spends_budget_once_per_value() {
        let mut c = LongitudinalUeClient::new(UeChain::OueSue, 8, 2.0, 1.0).unwrap();
        let mut rng = derive_rng(500, 0);
        assert_eq!(c.privacy_spent(), 0.0);
        for _ in 0..10 {
            let _ = c.report(3, &mut rng);
        }
        assert_eq!(c.distinct_values(), 1);
        assert!((c.privacy_spent() - 2.0).abs() < 1e-12);
        let _ = c.report(5, &mut rng);
        assert_eq!(c.distinct_values(), 2);
        assert!((c.privacy_spent() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reports_vary_but_memo_is_stable() {
        // With the IRR in place two reports of the same value usually
        // differ, but the memoized PRR behind them must not change: the
        // support-bit distribution stays centred on the PRR state.
        let mut c = LongitudinalUeClient::new(UeChain::SueSue, 16, 3.0, 1.0).unwrap();
        let mut rng = derive_rng(501, 0);
        let first = c.report(7, &mut rng);
        let mut any_diff = false;
        for _ in 0..20 {
            if c.report(7, &mut rng) != first {
                any_diff = true;
            }
        }
        assert!(any_diff, "IRR never changed the report across 20 draws");
        assert_eq!(c.distinct_values(), 1);
    }

    #[test]
    fn restore_memo_rebuilds_state_and_accounting() {
        let mut c = LongitudinalUeClient::new(UeChain::OueSue, 12, 2.0, 1.0).unwrap();
        let mut rng = derive_rng(505, 0);
        for v in [3u64, 9, 3, 11] {
            let _ = c.report(v, &mut rng);
        }
        let mut restored = LongitudinalUeClient::new(UeChain::OueSue, 12, 2.0, 1.0).unwrap();
        let entries: Vec<(u32, Vec<u64>)> =
            c.memo_entries().map(|(k, b)| (k, b.to_vec())).collect();
        assert_eq!(entries.len(), 3);
        for (class, blocks) in &entries {
            restored.restore_memo(*class, blocks);
        }
        assert_eq!(restored.distinct_values(), c.distinct_values());
        assert_eq!(restored.privacy_spent(), c.privacy_spent());
        let back: Vec<(u32, Vec<u64>)> = restored
            .memo_entries()
            .map(|(k, b)| (k, b.to_vec()))
            .collect();
        assert_eq!(back, entries);
    }

    fn run_protocol(chain: UeChain, seed: u64) {
        // End-to-end longitudinal accuracy on a static distribution.
        let k = 12u64;
        let n = 8_000usize;
        let tau = 4;
        let (ei, e1) = (3.0, 1.5);
        let params = ue_chain_params(chain, ei, e1).unwrap();
        let mut server = LueServer::new(k, params).unwrap();
        let weights: Vec<f64> = (0..k).map(|v| (v + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let truth: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let alias = AliasTable::new(&weights).unwrap();
        let mut clients: Vec<LongitudinalUeClient> = (0..n)
            .map(|_| LongitudinalUeClient::new(chain, k, ei, e1).unwrap())
            .collect();
        let mut values: Vec<u64> = {
            let mut rng = derive_rng(seed, 999);
            (0..n).map(|_| alias.sample(&mut rng) as u64).collect()
        };
        let mut last_est = vec![0.0; k as usize];
        for t in 0..tau {
            for (u, client) in clients.iter_mut().enumerate() {
                let mut rng = derive_rng(seed, (t * n + u) as u64);
                // values evolve slowly: 10% of users re-draw each step.
                if u % 10 == t % 10 {
                    values[u] = alias.sample(&mut rng) as u64;
                }
                server.ingest(&client.report(values[u], &mut rng));
            }
            last_est = server.estimate_and_reset();
        }
        let v_star = params.variance_approx(n as f64);
        for (v, (&e, &t)) in last_est.iter().zip(&truth).enumerate() {
            let tol = 6.0 * v_star.sqrt();
            assert!(
                (e - t).abs() < tol,
                "{chain:?} v={v}: {e} vs {t} (tol {tol})"
            );
        }
    }

    #[test]
    fn rappor_end_to_end() {
        run_protocol(UeChain::SueSue, 502);
    }

    #[test]
    fn losue_end_to_end() {
        run_protocol(UeChain::OueSue, 503);
    }

    #[test]
    fn loue_end_to_end() {
        run_protocol(UeChain::OueOue, 504);
    }

    #[test]
    fn server_reset_clears_state() {
        let params = ue_chain_params(UeChain::OueSue, 2.0, 1.0).unwrap();
        let mut server = LueServer::new(4, params).unwrap();
        let mut bits = BitVec::zeros(4);
        bits.set(1, true);
        server.ingest(&bits);
        assert_eq!(server.n_step(), 1);
        let _ = server.estimate_and_reset();
        assert_eq!(server.n_step(), 0);
    }

    #[test]
    fn ingest_counts_merges() {
        let params = ue_chain_params(UeChain::OueSue, 2.0, 1.0).unwrap();
        let mut a = LueServer::new(4, params).unwrap();
        let mut b = LueServer::new(4, params).unwrap();
        let mut bits = BitVec::zeros(4);
        bits.set(2, true);
        a.ingest(&bits);
        b.ingest_counts(&[0, 0, 1, 0], 1);
        assert_eq!(a.estimate_and_reset(), b.estimate_and_reset());
    }
}
