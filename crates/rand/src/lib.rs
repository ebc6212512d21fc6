//! Deterministic randomness substrate for the LOLOHA reproduction.
//!
//! Every protocol in this workspace is randomized, and every experiment must be
//! reproducible from a single master seed. This crate provides:
//!
//! * [`SplitMix64`] — a tiny, statistically solid generator used to derive
//!   independent per-user / per-run streams from a master seed.
//! * [`Xoshiro256pp`] — the workhorse generator (fast, 256-bit state), exposed
//!   through [`rand::RngCore`] + [`rand::SeedableRng`] so it composes with the
//!   wider `rand` ecosystem.
//! * Exact distribution samplers used in hot paths: [`Bernoulli`] (and
//!   its 64-lane [`bernoulli_block`]),
//!   [`Binomial`], [`Geometric`], [`AliasTable`] (Walker's method),
//!   and [`StandardNormal`]/[`LogNormal`] (polar Box–Muller).
//! * Sequence utilities: Fisher–Yates [`shuffle`], Floyd's
//!   [`sample_distinct`], and [`uniform_excluding`] (the "uniform over
//!   `V \ {v}`" draw at the heart of Generalized Randomized Response).
//!
//! The samplers are implemented from scratch (the `rand` crate only supplies
//! the core traits and unbiased integer-range sampling) so that the whole
//! reproduction is self-contained and auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod bernoulli;
mod binomial;
mod gaussian;
mod geometric;
mod seq;
mod splitmix;
mod xoshiro;

pub use alias::AliasTable;
pub use bernoulli::{bernoulli_block, Bernoulli};
pub use binomial::{ln_factorial, Binomial};
pub use gaussian::{LogNormal, StandardNormal};
pub use geometric::{Geometric, SparseHits};
pub use seq::{sample_distinct, shuffle, uniform_excluding};
pub use splitmix::{mix, SplitMix64};
pub use xoshiro::Xoshiro256pp;

use rand::{RngCore, SeedableRng};

/// The default generator used throughout the workspace.
pub type LdpRng = Xoshiro256pp;

/// Derives a reproducible child generator from `master_seed` for a logical
/// stream `stream_id` (e.g. a user index or a run index).
///
/// Streams with distinct ids are statistically independent for all practical
/// purposes: the 64-bit ids are diffused through two rounds of SplitMix64
/// before seeding the 256-bit Xoshiro state.
pub fn derive_rng(master_seed: u64, stream_id: u64) -> LdpRng {
    let mut sm = SplitMix64::new(master_seed ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Burn one output so ids that differ only in low bits decorrelate further.
    sm.next_u64();
    let mut seed = [0u8; 32];
    for chunk in seed.chunks_exact_mut(8) {
        chunk.copy_from_slice(&sm.next_u64().to_le_bytes());
    }
    Xoshiro256pp::from_seed(seed)
}

/// Derives a child generator for a nested stream, e.g. (run, user).
pub fn derive_rng2(master_seed: u64, a: u64, b: u64) -> LdpRng {
    let mixed = SplitMix64::new(master_seed ^ a.rotate_left(32)).next_u64() ^ b;
    derive_rng(mixed, b)
}

/// Draws a uniform `f64` in the half-open interval `[0, 1)` with 53 bits of
/// precision.
#[inline]
pub fn uniform_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 high bits of a u64 scaled by 2^-53: the standard exact construction.
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws a uniform integer in `[0, bound)` using Lemire's unbiased method.
///
/// # Panics
/// Panics if `bound == 0`.
#[inline]
pub fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "uniform_u64 bound must be positive");
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (bound as u128);
    let mut lo = m as u64;
    if lo < bound {
        let threshold = bound.wrapping_neg() % bound;
        while lo < threshold {
            x = rng.next_u64();
            m = (x as u128) * (bound as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_rng_is_reproducible() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_rng_streams_differ() {
        let mut a = derive_rng(42, 0);
        let mut b = derive_rng(42, 1);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_rng2_varies_in_both_coordinates() {
        let x = derive_rng2(1, 2, 3).next_u64();
        let y = derive_rng2(1, 2, 4).next_u64();
        let z = derive_rng2(1, 5, 3).next_u64();
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = derive_rng(9, 9);
        for _ in 0..10_000 {
            let u = uniform_f64(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_f64_mean_is_half() {
        let mut rng = derive_rng(10, 0);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| uniform_f64(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_u64_respects_bound_and_is_roughly_uniform() {
        let mut rng = derive_rng(11, 0);
        let bound = 7u64;
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            let v = uniform_u64(&mut rng, bound);
            counts[v as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} off by {dev}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn uniform_u64_zero_bound_panics() {
        let mut rng = derive_rng(12, 0);
        let _ = uniform_u64(&mut rng, 0);
    }

    #[test]
    fn uniform_u64_bound_one_is_always_zero() {
        let mut rng = derive_rng(13, 0);
        for _ in 0..100 {
            assert_eq!(uniform_u64(&mut rng, 1), 0);
        }
    }
}
