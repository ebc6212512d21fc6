//! The instantaneous randomization (IRR) step over bit vectors.
//!
//! Given a memoized PRR vector `x'`, each report re-randomizes every bit
//! independently: a 1 stays with probability `p2`, a 0 rises with
//! probability `q2`. This is the step that makes consecutive reports of the
//! same memoized state differ, hiding *when* the underlying value changed.
//!
//! The kernel is the same [`UeChannel`] that `UeClient` perturbs its
//! one-hot vectors with, so both follow one RNG-consumption rule, which is
//! part of the determinism contract (docs/ARCHITECTURE.md). For
//! `q2 < SPARSE_Q_THRESHOLD` (0.035, in `ldp_primitives::ue`) the rising
//! zeros are enumerated by geometric skipping and then every memoized 1 is
//! re-drawn with `Bernoulli::sample`, in ascending order. Otherwise the
//! blocks are drawn in ascending order, one `ldp_rand::bernoulli_block`
//! each: most significant bit first, bit-sliced words until every lane
//! below `bits` is decided (≈7.3 words per full block instead of 64), and
//! no draw for a lane whose sampler has p = 1. Every golden fixture and
//! client checkpoint replay depends on this rule: changing it needs new
//! versioned fixtures, never a silent edit.

use ldp_primitives::params::PerturbParams;
use ldp_primitives::ue::UeChannel;
use ldp_primitives::BitVec;
use rand::RngCore;

/// A reusable IRR perturbation kernel for `bits`-bit vectors.
#[derive(Debug, Clone)]
pub struct IrrKernel {
    bits: usize,
    channel: UeChannel,
}

impl IrrKernel {
    /// Creates a kernel applying `(p2, q2)` to `bits`-bit vectors.
    pub fn new(bits: usize, params: PerturbParams) -> Self {
        Self {
            bits,
            channel: UeChannel::new(params),
        }
    }

    /// The `(p2, q2)` pair.
    pub fn params(&self) -> PerturbParams {
        self.channel.params()
    }

    /// Applies the IRR to the memoized blocks `input` (little-endian bit
    /// order, exactly `ceil(bits/64)` blocks), writing into `out`.
    pub fn perturb_blocks_into<R: RngCore + ?Sized>(
        &self,
        input: &[u64],
        rng: &mut R,
        out: &mut BitVec,
    ) {
        assert_eq!(out.len(), self.bits, "output length mismatch");
        assert_eq!(input.len(), self.bits.div_ceil(64), "input block mismatch");
        self.channel.perturb_into(|bi| input[bi], rng, out);
    }

    /// Allocating convenience wrapper around
    /// [`IrrKernel::perturb_blocks_into`].
    pub fn perturb_blocks<R: RngCore + ?Sized>(&self, input: &[u64], rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(self.bits);
        self.perturb_blocks_into(input, rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_primitives::ue::SPARSE_Q_THRESHOLD;
    use ldp_primitives::UeClient;
    use ldp_rand::{bernoulli_block, derive_rng, Bernoulli};

    fn params(p: f64, q: f64) -> PerturbParams {
        PerturbParams::new(p, q).unwrap()
    }

    #[test]
    fn preserves_rates_dense_path() {
        let kernel = IrrKernel::new(100, params(0.8, 0.3));
        let mut rng = derive_rng(400, 0);
        let mut input = vec![0u64; 2];
        for i in 0..50 {
            input[i / 64] |= 1 << (i % 64); // bits 0..50 set
        }
        let n = 30_000;
        let mut kept = 0usize;
        let mut risen = 0usize;
        for _ in 0..n {
            let out = kernel.perturb_blocks(&input, &mut rng);
            if out.get(10) {
                kept += 1;
            }
            if out.get(90) {
                risen += 1;
            }
        }
        let p_hat = kept as f64 / n as f64;
        let q_hat = risen as f64 / n as f64;
        assert!((p_hat - 0.8).abs() < 0.02, "p {p_hat}");
        assert!((q_hat - 0.3).abs() < 0.02, "q {q_hat}");
    }

    #[test]
    fn preserves_rates_sparse_path() {
        let kernel = IrrKernel::new(200, params(0.9, 0.02));
        let mut rng = derive_rng(401, 0);
        let mut input = vec![0u64; 4];
        input[0] |= 1; // only bit 0 set
        let n = 40_000;
        let mut kept = 0usize;
        let mut risen = 0usize;
        for _ in 0..n {
            let out = kernel.perturb_blocks(&input, &mut rng);
            if out.get(0) {
                kept += 1;
            }
            if out.get(150) {
                risen += 1;
            }
        }
        let p_hat = kept as f64 / n as f64;
        let q_hat = risen as f64 / n as f64;
        assert!((p_hat - 0.9).abs() < 0.01, "p {p_hat}");
        assert!((q_hat - 0.02).abs() < 0.01, "q {q_hat}");
    }

    #[test]
    fn all_zero_input_rises_at_rate_q() {
        let kernel = IrrKernel::new(64, params(0.7, 0.25));
        let mut rng = derive_rng(402, 0);
        let input = [0u64];
        let n = 20_000;
        let mut total = 0usize;
        for _ in 0..n {
            total += kernel.perturb_blocks(&input, &mut rng).count_ones();
        }
        let rate = total as f64 / (n as f64 * 64.0);
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn deterministic_degenerate_channel() {
        // p = 1, q = tiny: ones always survive.
        let kernel = IrrKernel::new(70, params(1.0, 1e-9));
        let mut rng = derive_rng(403, 0);
        let mut input = vec![0u64; 2];
        input[1] |= 1 << 3; // bit 67
        for _ in 0..50 {
            let out = kernel.perturb_blocks(&input, &mut rng);
            assert!(out.get(67));
        }
    }

    /// The block path's contract: `bernoulli_block` over each block in
    /// ascending order, lanes limited to the bits below `bits`.
    fn block_oracle<R: RngCore + ?Sized>(
        bits: usize,
        ones: impl Fn(usize) -> u64,
        pair: PerturbParams,
        rng: &mut R,
    ) -> BitVec {
        let keep = Bernoulli::new(pair.p).unwrap();
        let noise = Bernoulli::new(pair.q).unwrap();
        let mut out = BitVec::zeros(bits);
        for bi in 0..bits.div_ceil(64) {
            let lanes = u64::MAX >> (64 - (bits - 64 * bi).min(64));
            out.set_block(bi, bernoulli_block(ones(bi), lanes, &keep, &noise, rng));
        }
        out
    }

    #[test]
    fn block_paths_compose_bernoulli_block() {
        use crate::chain::{ue_chain_params, UeChain};
        let mut pairs = vec![params(1.0, 0.3)]; // `always` keep: no draw on ones
        for chain in [
            UeChain::OueSue,
            UeChain::SueSue,
            UeChain::OueOue,
            UeChain::SueOue,
        ] {
            let cp = ue_chain_params(chain, 2.0, 1.0).unwrap();
            pairs.extend([cp.prr, cp.irr]);
        }
        for (pi, &pair) in pairs.iter().enumerate() {
            assert!(
                pair.q >= SPARSE_Q_THRESHOLD,
                "{pair:?} takes the sparse path"
            );
            for bits in [1usize, 10, 63, 64, 65, 128, 1412] {
                let kernel = IrrKernel::new(bits, pair);
                let client = (bits >= 2)
                    .then(|| UeClient::with_params(bits as u64, pair.p, pair.q).unwrap());
                let mut fast = derive_rng(404, (pi * 10_000 + bits) as u64);
                let mut slow = fast.clone();
                let mut input_rng = derive_rng(405, bits as u64);
                let mut out = BitVec::zeros(bits);
                for round in 0..20 {
                    // Random inputs with stray bits beyond `bits`: the
                    // kernel must never carry them into the output.
                    out.set_block(0, u64::MAX); // stale bits must not survive
                    let input: Vec<u64> = (0..bits.div_ceil(64))
                        .map(|_| input_rng.next_u64())
                        .collect();
                    kernel.perturb_blocks_into(&input, &mut fast, &mut out);
                    let want = block_oracle(bits, |bi| input[bi], pair, &mut slow);
                    assert_eq!(out, want, "IRR {pair:?} bits {bits} round {round}");
                    assert_eq!(fast.state(), slow.state(), "IRR {pair:?} bits {bits}");
                    assert_no_bit_past(&out, bits);
                    if let Some(client) = &client {
                        let v = (input_rng.next_u64() % bits as u64) as usize;
                        out.set_block(0, u64::MAX);
                        client.perturb_into(v as u64, &mut fast, &mut out);
                        let one_hot = |bi: usize| if bi == v / 64 { 1 << (v % 64) } else { 0 };
                        let want = block_oracle(bits, one_hot, pair, &mut slow);
                        assert_eq!(out, want, "UE {pair:?} bits {bits} value {v}");
                        assert_eq!(fast.state(), slow.state(), "UE {pair:?} bits {bits}");
                        assert_no_bit_past(&out, bits);
                    }
                }
            }
        }
    }

    fn assert_no_bit_past(out: &BitVec, bits: usize) {
        let tail = bits % 64;
        if tail != 0 {
            assert_eq!(out.blocks().last().unwrap() >> tail, 0, "bit >= {bits} set");
        }
    }

    #[test]
    fn sparse_path_ignores_input_bits_past_the_end() {
        let kernel = IrrKernel::new(70, params(1.0, 0.02));
        let mut rng = derive_rng(406, 0);
        for _ in 0..50 {
            let out = kernel.perturb_blocks(&[u64::MAX, u64::MAX], &mut rng);
            assert_eq!(out.count_ones(), 70, "p = 1 keeps exactly the 70 ones");
            assert_no_bit_past(&out, 70);
        }
    }
}
