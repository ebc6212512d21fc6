//! Exact Bernoulli sampling via 64-bit integer thresholds.
//!
//! Every perturbation step in every LDP protocol reduces to Bernoulli draws,
//! so this is the hottest primitive in the workspace: one `u64` from the
//! generator and one comparison, with the probability pre-scaled to a 64-bit
//! fixed-point threshold at construction time.

use rand::RngCore;

/// A Bernoulli distribution with success probability `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    /// `p` scaled to [0, 2^64]; `u64::MAX` is reserved, `ALWAYS` marks p = 1.
    threshold: u64,
    always: bool,
}

impl Bernoulli {
    /// Creates a Bernoulli sampler.
    ///
    /// # Errors
    /// Returns `None` if `p` is not in `[0, 1]` (including NaN).
    pub fn new(p: f64) -> Option<Self> {
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        if p >= 1.0 {
            return Some(Self {
                threshold: u64::MAX,
                always: true,
            });
        }
        // p * 2^64, computed in extended precision. p < 1 here so the product
        // fits; rounding error is at most one part in 2^53 of p.
        let threshold = (p * (u64::MAX as f64 + 1.0)) as u64;
        Some(Self {
            threshold,
            always: false,
        })
    }

    /// The success probability this sampler was built with (up to the 64-bit
    /// fixed-point quantization).
    pub fn p(&self) -> f64 {
        if self.always {
            1.0
        } else {
            self.threshold as f64 / (u64::MAX as f64 + 1.0)
        }
    }

    /// The 64-bit fixed-point threshold: a draw `x` succeeds iff
    /// `x < threshold`. `None` when p = 1, which succeeds without a draw.
    #[inline]
    pub fn threshold(&self) -> Option<u64> {
        (!self.always).then_some(self.threshold)
    }

    /// Draws one sample.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        self.always || rng.next_u64() < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_rng;

    #[test]
    fn rejects_invalid_probabilities() {
        assert!(Bernoulli::new(-0.1).is_none());
        assert!(Bernoulli::new(1.1).is_none());
        assert!(Bernoulli::new(f64::NAN).is_none());
    }

    #[test]
    fn degenerate_endpoints() {
        let mut rng = derive_rng(1, 1);
        let zero = Bernoulli::new(0.0).unwrap();
        let one = Bernoulli::new(1.0).unwrap();
        assert_eq!(zero.threshold(), Some(0));
        assert_eq!(one.threshold(), None);
        assert_eq!(Bernoulli::new(0.5).unwrap().threshold(), Some(1 << 63));
        for _ in 0..1000 {
            assert!(!zero.sample(&mut rng));
            assert!(one.sample(&mut rng));
        }
    }

    #[test]
    fn empirical_rate_matches_p() {
        let mut rng = derive_rng(2, 2);
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let d = Bernoulli::new(p).unwrap();
            let n = 200_000;
            let hits = (0..n).filter(|_| d.sample(&mut rng)).count();
            let rate = hits as f64 / n as f64;
            // 5-sigma tolerance for a binomial proportion.
            let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
            assert!((rate - p).abs() < tol.max(1e-4), "p={p} rate={rate}");
        }
    }

    #[test]
    fn p_roundtrips() {
        for &p in &[0.0, 0.125, 0.5, 0.875, 1.0] {
            let d = Bernoulli::new(p).unwrap();
            assert!((d.p() - p).abs() < 1e-12);
        }
    }
}
