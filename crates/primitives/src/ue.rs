//! Unary Encoding protocols (§2.3.3): SUE (the RAPPOR encoding) and OUE.
//!
//! The input is one-hot encoded into `k` bits; each bit is perturbed
//! independently — a 1 survives with probability `p`, a 0 flips up with
//! probability `q`. SUE picks the symmetric pair (`p + q = 1`), OUE the
//! variance-optimal pair (`p = 1/2`, `q = 1/(e^ε+1)`).
//!
//! The bit channel itself is [`UeChannel`], shared with the longitudinal
//! IRR, which applies it to memoized vectors with many ones.
//!
//! **RNG consumption is part of the determinism contract**
//! (docs/ARCHITECTURE.md). Below [`SPARSE_Q_THRESHOLD`] the rising zeros
//! of all `k` positions are enumerated by geometric skipping
//! ([`SparseHits`]), then every 1 of the input is re-drawn with
//! [`Bernoulli::sample`] in ascending order, overwriting any hit there.
//! Otherwise the blocks are drawn in ascending order, each by one
//! [`bernoulli_block`] call over the block's bits below `k`: most
//! significant bit first, bit-sliced words until every lane is decided,
//! no draw for a lane whose sampler has p = 1. Moving the threshold or
//! changing this order changes every report, so it needs new versioned
//! fixtures, never a silent edit.

use crate::bitvec::BitVec;
use crate::error::ParamError;
use crate::estimator::frequency_estimates;
use crate::params::{oue_params, sue_params, PerturbParams};
use ldp_rand::{bernoulli_block, Bernoulli, SparseHits};
use rand::RngCore;

/// Below this noise probability the rising zeros are enumerated by
/// geometric skipping; above it the block sampler is cheaper. The block
/// sampler's cost does not depend on `q` while skipping's grows with
/// `k·q`; for k in the thousands they cross near this value. Part of the
/// determinism contract (module docs): moving it changes reports.
pub const SPARSE_Q_THRESHOLD: f64 = 0.035;

/// The UE bit channel: every 1 survives with probability `p`, every 0
/// rises with probability `q`, all bits independent.
#[derive(Debug, Clone, Copy)]
pub struct UeChannel {
    params: PerturbParams,
    keep: Bernoulli,
    noise: Bernoulli,
}

impl UeChannel {
    /// Creates the channel for `(p, q)`.
    pub fn new(params: PerturbParams) -> Self {
        Self {
            params,
            keep: Bernoulli::new(params.p).expect("validated p"),
            noise: Bernoulli::new(params.q).expect("validated q"),
        }
    }

    /// The `(p, q)` pair.
    pub fn params(&self) -> PerturbParams {
        self.params
    }

    /// Perturbs the `out.len()`-bit vector whose block `bi` (little-endian
    /// bit order) is `ones(bi)`, overwriting every bit of `out`. Bits of
    /// `ones(bi)` at or past `out.len()` are ignored.
    pub fn perturb_into<R: RngCore + ?Sized>(
        &self,
        ones: impl Fn(usize) -> u64,
        rng: &mut R,
        out: &mut BitVec,
    ) {
        let bits = out.len();
        let lanes = |bi: usize| u64::MAX >> (64 - (bits - 64 * bi).min(64));
        let q = self.params.q;
        if q > 0.0 && q < SPARSE_Q_THRESHOLD {
            out.clear();
            for i in SparseHits::new(q, bits as u64, rng).expect("q in (0, 1)") {
                out.set(i as usize, true);
            }
            for bi in 0..bits.div_ceil(64) {
                let mut word = ones(bi) & lanes(bi);
                while word != 0 {
                    out.set(
                        64 * bi + word.trailing_zeros() as usize,
                        self.keep.sample(rng),
                    );
                    word &= word - 1;
                }
            }
        } else {
            for bi in 0..bits.div_ceil(64) {
                let block = bernoulli_block(ones(bi), lanes(bi), &self.keep, &self.noise, rng);
                out.set_block(bi, block);
            }
        }
    }
}

/// A one-shot UE client.
#[derive(Debug, Clone)]
pub struct UeClient {
    k: usize,
    channel: UeChannel,
}

impl UeClient {
    /// Creates a SUE client over `[0, k)` at level `eps`.
    pub fn sue(k: u64, eps: f64) -> Result<Self, ParamError> {
        crate::error::check_epsilon(eps)?;
        let (p, q) = sue_params(eps);
        Self::with_params(k, p, q)
    }

    /// Creates an OUE client over `[0, k)` at level `eps`.
    pub fn oue(k: u64, eps: f64) -> Result<Self, ParamError> {
        crate::error::check_epsilon(eps)?;
        let (p, q) = oue_params(eps);
        Self::with_params(k, p, q)
    }

    /// Creates a UE client with explicit `(p, q)`.
    pub fn with_params(k: u64, p: f64, q: f64) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::DomainTooSmall { k, min: 2 });
        }
        Ok(Self {
            k: k as usize,
            channel: UeChannel::new(PerturbParams::new(p, q)?),
        })
    }

    /// Domain size.
    pub fn k(&self) -> u64 {
        self.k as u64
    }

    /// The `(p, q)` pair in use.
    pub fn params(&self) -> PerturbParams {
        self.channel.params()
    }

    /// The ε-LDP level induced by `(p, q)`.
    pub fn epsilon(&self) -> f64 {
        self.params().epsilon_unary()
    }

    /// Encodes and perturbs `value` into a `k`-bit report.
    ///
    /// # Panics
    /// Panics if `value >= k`.
    pub fn perturb<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> BitVec {
        assert!((value as usize) < self.k, "value {value} outside domain");
        let mut bits = BitVec::zeros(self.k);
        self.perturb_into(value, rng, &mut bits);
        bits
    }

    /// Perturbs into a caller-provided buffer (every bit overwritten),
    /// avoiding the allocation on hot paths.
    pub fn perturb_into<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R, bits: &mut BitVec) {
        assert_eq!(bits.len(), self.k, "buffer length mismatch");
        assert!((value as usize) < self.k, "value {value} outside domain");
        let v = value as usize;
        let one_hot = |bi: usize| if bi == v / 64 { 1 << (v % 64) } else { 0 };
        self.channel.perturb_into(one_hot, rng, bits);
    }
}

/// The UE aggregation server.
#[derive(Debug, Clone)]
pub struct UeServer {
    k: usize,
    params: PerturbParams,
    n: u64,
    counts: Vec<u64>,
}

impl UeServer {
    /// Creates a server matching a client's `(p, q)` over `[0, k)`.
    pub fn new(k: u64, params: PerturbParams) -> Result<Self, ParamError> {
        if k < 2 {
            return Err(ParamError::DomainTooSmall { k, min: 2 });
        }
        Ok(Self {
            k: k as usize,
            params,
            n: 0,
            counts: vec![0; k as usize],
        })
    }

    /// Ingests one report.
    ///
    /// # Panics
    /// Panics if the report length differs from `k`.
    pub fn ingest(&mut self, bits: &BitVec) {
        assert_eq!(bits.len(), self.k, "report length mismatch");
        for i in bits.iter_ones() {
            self.counts[i] += 1;
        }
        self.n += 1;
    }

    /// Number of ingested reports.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Estimates the k-bin histogram with Eq. (1).
    pub fn estimate(&self) -> Vec<f64> {
        let counts: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        frequency_estimates(&counts, self.n as f64, self.params.p, self.params.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::single_variance_approx;
    use ldp_rand::derive_rng;

    #[test]
    fn constructors_validate() {
        assert!(UeClient::sue(1, 1.0).is_err());
        assert!(UeClient::sue(10, 0.0).is_err());
        assert!(UeClient::with_params(10, 0.5, 0.5).is_err());
    }

    #[test]
    fn sue_epsilon_roundtrips() {
        for &eps in &[0.5, 1.0, 3.0] {
            let c = UeClient::sue(50, eps).unwrap();
            assert!((c.epsilon() - eps).abs() < 1e-9);
        }
    }

    #[test]
    fn oue_epsilon_roundtrips() {
        for &eps in &[0.5, 1.0, 3.0] {
            let c = UeClient::oue(50, eps).unwrap();
            assert!((c.epsilon() - eps).abs() < 1e-9);
        }
    }

    #[test]
    fn perturb_bit_rates_match_p_and_q() {
        // eps=4 OUE has q ≈ 0.018 (sparse path); SUE eps=1 has q ≈ 0.38
        // (block path). Check both paths produce the advertised rates.
        for (client, seed) in [
            (UeClient::oue(40, 4.0).unwrap(), 320u64),
            (UeClient::sue(40, 1.0).unwrap(), 321),
        ] {
            let mut rng = derive_rng(seed, 0);
            let n = 40_000;
            let v = 7u64;
            let mut one_kept = 0usize;
            let mut zero_flipped = 0usize;
            for _ in 0..n {
                let bits = client.perturb(v, &mut rng);
                if bits.get(v as usize) {
                    one_kept += 1;
                }
                if bits.get(0) {
                    zero_flipped += 1;
                }
            }
            let p_hat = one_kept as f64 / n as f64;
            let q_hat = zero_flipped as f64 / n as f64;
            let pp = client.params();
            let ptol = 5.0 * (pp.p * (1.0 - pp.p) / n as f64).sqrt();
            let qtol = 5.0 * (pp.q * (1.0 - pp.q) / n as f64).sqrt();
            assert!((p_hat - pp.p).abs() < ptol, "p {p_hat} vs {}", pp.p);
            assert!((q_hat - pp.q).abs() < qtol, "q {q_hat} vs {}", pp.q);
        }
    }

    #[test]
    fn perturb_into_reuses_buffer() {
        let client = UeClient::oue(30, 1.0).unwrap();
        let mut rng = derive_rng(322, 0);
        let mut buf = BitVec::zeros(30);
        client.perturb_into(5, &mut rng, &mut buf);
        let first = buf.clone();
        client.perturb_into(6, &mut rng, &mut buf);
        // The buffer is fully overwritten (no stale bits from value 5
        // guaranteed by clear); just sanity-check it's usable twice.
        assert_eq!(buf.len(), 30);
        let _ = first;
    }

    fn end_to_end(client: UeClient, seed: u64) {
        let k = client.k();
        let n = 30_000usize;
        let mut server = UeServer::new(k, client.params()).unwrap();
        let mut rng = derive_rng(seed, 0);
        let weights: Vec<f64> = (0..k).map(|v| ((v % 5) + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let truth: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let alias = ldp_rand::AliasTable::new(&weights).unwrap();
        for _ in 0..n {
            let v = alias.sample(&mut rng) as u64;
            server.ingest(&client.perturb(v, &mut rng));
        }
        let est = server.estimate();
        let pp = client.params();
        let v_star = single_variance_approx(n as f64, pp.p, pp.q);
        for (v, (&e, &t)) in est.iter().zip(&truth).enumerate() {
            let tol = 6.0 * v_star.sqrt();
            assert!((e - t).abs() < tol, "v={v}: {e} vs {t} (tol {tol})");
        }
    }

    #[test]
    fn sue_end_to_end_accuracy() {
        end_to_end(UeClient::sue(25, 1.0).unwrap(), 323);
    }

    #[test]
    fn oue_end_to_end_accuracy() {
        end_to_end(UeClient::oue(25, 1.0).unwrap(), 324);
    }

    #[test]
    fn oue_beats_sue_variance() {
        // The whole point of OUE: lower V* at equal eps.
        for &eps in &[1.0, 2.0, 4.0] {
            let (ps, qs) = crate::params::sue_params(eps);
            let (po, qo) = crate::params::oue_params(eps);
            let vs = single_variance_approx(1000.0, ps, qs);
            let vo = single_variance_approx(1000.0, po, qo);
            assert!(vo <= vs + 1e-12, "eps={eps}: OUE {vo} vs SUE {vs}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn server_rejects_wrong_length() {
        let mut server = UeServer::new(10, PerturbParams::new(0.7, 0.2).unwrap()).unwrap();
        server.ingest(&BitVec::zeros(9));
    }
}
