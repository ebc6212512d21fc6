//! The instantaneous randomization (IRR) step over bit vectors.
//!
//! Given a memoized PRR vector `x'`, each report re-randomizes every bit
//! independently: a 1 stays with probability `p2`, a 0 rises with
//! probability `q2`. This is the step that makes consecutive reports of the
//! same memoized state differ, hiding *when* the underlying value changed.
//!
//! The implementation mirrors `UeClient`: for sparse `q2` the rising zeros
//! are enumerated by geometric skipping and the (few) ones re-drawn
//! individually; for dense `q2` each output block is built as one 64-bit
//! word and stored once.
//!
//! **RNG consumption is part of the determinism contract.** The dense path
//! draws exactly one `next_u64` per bit, in ascending bit order, and none
//! for a bit whose sampler has p = 1 — exactly what [`Bernoulli::sample`]
//! consumes. Every golden fixture and client checkpoint depends on this, as
//! it does on `SPARSE_Q_THRESHOLD` (shared with `ldp_primitives::ue`):
//! moving the threshold or changing the draw order changes reports, so it
//! needs new versioned fixtures, never a silent edit.

use ldp_primitives::params::PerturbParams;
use ldp_primitives::BitVec;
use ldp_rand::{Bernoulli, SparseHits};
use rand::RngCore;

/// Below this `q2` the sparse path is used. Part of the determinism
/// contract (see the module docs).
const SPARSE_Q_THRESHOLD: f64 = 0.12;

/// A reusable IRR perturbation kernel for `bits`-bit vectors.
#[derive(Debug, Clone)]
pub struct IrrKernel {
    bits: usize,
    params: PerturbParams,
    keep: Bernoulli,
    noise: Bernoulli,
}

impl IrrKernel {
    /// Creates a kernel applying `(p2, q2)` to `bits`-bit vectors.
    pub fn new(bits: usize, params: PerturbParams) -> Self {
        let keep = Bernoulli::new(params.p).expect("validated p");
        let noise = Bernoulli::new(params.q).expect("validated q");
        Self {
            bits,
            params,
            keep,
            noise,
        }
    }

    /// The `(p2, q2)` pair.
    pub fn params(&self) -> PerturbParams {
        self.params
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
        let q = self.params.q;
        if q > 0.0 && q < SPARSE_Q_THRESHOLD {
            out.clear();
            // Rising zeros via skipping (hits on one-positions are
            // overwritten below, which preserves independence).
            for i in SparseHits::new(q, self.bits as u64, rng).expect("q in (0,1)") {
                out.set(i as usize, true);
            }
            for i in iter_ones(input, self.bits) {
                out.set(i, self.keep.sample(rng));
            }
        } else {
            // Word at a time; every block is overwritten, so no clear is
            // needed. The thresholds are compared in registers, but a
            // p = 1 sampler must make no draw (module docs), so then the
            // loop goes through `Bernoulli::sample`, which skips it.
            match (self.keep.threshold(), self.noise.threshold()) {
                (Some(keep), Some(noise)) => fill_words(input, self.bits, out, |one| {
                    rng.next_u64() < if one { keep } else { noise }
                }),
                _ => fill_words(input, self.bits, out, |one| {
                    if one { &self.keep } else { &self.noise }.sample(rng)
                }),
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`IrrKernel::perturb_blocks_into`].
    pub fn perturb_blocks<R: RngCore + ?Sized>(&self, input: &[u64], rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(self.bits);
        self.perturb_blocks_into(input, rng, &mut out);
        out
    }
}

/// Writes each block of `out` as one word: bit `b` of block `bi` is
/// `draw(input bit)`, called once per bit below `bits`, in ascending order.
#[inline(always)]
fn fill_words(input: &[u64], bits: usize, out: &mut BitVec, mut draw: impl FnMut(bool) -> bool) {
    for (bi, &word) in input.iter().enumerate() {
        let width = (bits - 64 * bi).min(64);
        let mut acc = 0u64;
        for b in 0..width {
            acc |= u64::from(draw((word >> b) & 1 == 1)) << b;
        }
        out.set_block(bi, acc);
    }
}

/// Iterates set-bit indices of raw blocks limited to `bits`.
fn iter_ones(blocks: &[u64], bits: usize) -> impl Iterator<Item = usize> + '_ {
    blocks.iter().enumerate().flat_map(move |(bi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let tz = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(bi * 64 + tz)
        })
        .take_while(move |&i| i < bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::derive_rng;

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
        let kernel = IrrKernel::new(200, params(0.9, 0.05));
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
        assert!((q_hat - 0.05).abs() < 0.01, "q {q_hat}");
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

    /// The dense IRR as a plain per-bit loop: the reference the word-at-a-
    /// time kernel must match block for block and draw for draw.
    fn dense_oracle<R: RngCore + ?Sized>(kernel: &IrrKernel, input: &[u64], rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(kernel.bits);
        for i in 0..kernel.bits {
            let is_one = (input[i / 64] >> (i % 64)) & 1 == 1;
            let bern = if is_one { &kernel.keep } else { &kernel.noise };
            if bern.sample(rng) {
                out.set(i, true);
            }
        }
        out
    }

    #[test]
    fn dense_kernel_matches_per_bit_oracle() {
        use crate::chain::{ue_chain_params, UeChain};
        let mut pairs = vec![params(1.0, 0.3)]; // `always` keep: no draw on ones
        for chain in [UeChain::OueSue, UeChain::SueSue] {
            pairs.push(ue_chain_params(chain, 2.0, 1.0).unwrap().irr);
        }
        for (pi, &pair) in pairs.iter().enumerate() {
            assert!(
                pair.q >= SPARSE_Q_THRESHOLD,
                "{pair:?} takes the sparse path"
            );
            for bits in [1usize, 10, 63, 64, 65, 128, 1412] {
                let kernel = IrrKernel::new(bits, pair);
                let mut fast = derive_rng(404, (pi * 10_000 + bits) as u64);
                let mut slow = fast.clone();
                let mut input_rng = derive_rng(405, bits as u64);
                let mut out = BitVec::zeros(bits);
                out.set_block(0, u64::MAX); // stale bits must not survive
                for round in 0..20 {
                    // Random inputs with stray bits beyond `bits`: the
                    // kernel must never carry them into the output.
                    let input: Vec<u64> = (0..bits.div_ceil(64))
                        .map(|_| input_rng.next_u64())
                        .collect();
                    kernel.perturb_blocks_into(&input, &mut fast, &mut out);
                    let want = dense_oracle(&kernel, &input, &mut slow);
                    assert_eq!(out, want, "{pair:?} bits {bits} round {round}");
                    assert_eq!(fast.state(), slow.state(), "{pair:?} bits {bits}");
                    let tail = bits % 64;
                    if tail != 0 {
                        assert_eq!(out.blocks().last().unwrap() >> tail, 0, "bit >= {bits} set");
                    }
                }
            }
        }
    }

    #[test]
    fn iter_ones_respects_bit_limit() {
        let blocks = [u64::MAX, u64::MAX];
        let ones: Vec<usize> = iter_ones(&blocks, 70).collect();
        assert_eq!(ones.len(), 70);
        assert_eq!(*ones.last().unwrap(), 69);
    }
}
