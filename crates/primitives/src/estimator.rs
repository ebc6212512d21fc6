//! The unbiased frequency estimators and variance formulas of the paper.
//!
//! * Eq. (1): one round of sanitization with parameters `(p, q)`.
//! * Eq. (3): two chained rounds — PRR `(p1, q1)` then IRR `(p2, q2)`.
//! * Eq. (4): exact variance of the chained estimator at frequency `f`.
//! * Eq. (5): the approximate variance `V*` (Eq. (4) at `f = 0`), the
//!   quantity plotted in the paper's Fig. 2.

/// Eq. (1): unbiased estimate of one value's frequency from its support
/// count. `count` is `C(v)`, `n` the number of users.
#[inline]
pub fn frequency_estimate(count: f64, n: f64, p: f64, q: f64) -> f64 {
    (count - n * q) / (n * (p - q))
}

/// Eq. (1) applied to a whole histogram of support counts.
pub fn frequency_estimates(counts: &[f64], n: f64, p: f64, q: f64) -> Vec<f64> {
    counts
        .iter()
        .map(|&c| frequency_estimate(c, n, p, q))
        .collect()
}

/// Eq. (3): unbiased estimate under two rounds of sanitization.
///
/// `p1, q1` are the PRR (memoized) parameters, `p2, q2` the IRR (fresh)
/// parameters. Derived by inverting the composition of the two linear
/// response maps.
#[inline]
pub fn chained_frequency_estimate(count: f64, n: f64, p1: f64, q1: f64, p2: f64, q2: f64) -> f64 {
    (count - n * (q1 * (p2 - q2) + q2)) / (n * (p1 - q1) * (p2 - q2))
}

/// Eq. (3) applied to a whole histogram of support counts.
pub fn chained_frequency_estimates(
    counts: &[f64],
    n: f64,
    p1: f64,
    q1: f64,
    p2: f64,
    q2: f64,
) -> Vec<f64> {
    counts
        .iter()
        .map(|&c| chained_frequency_estimate(c, n, p1, q1, p2, q2))
        .collect()
}

/// Eq. (4): the exact variance of the chained estimator for a value with
/// true frequency `f`.
///
/// The support count is `Binomial(n, γ)` with `γ = f·p_s + (1−f)·q_s`,
/// where `p_s = p1·p2 + (1−p1)·q2` and `q_s = q1·p2 + (1−q1)·q2`, so
/// `γ = f·(p1−q1)(p2−q2) + p2·q1 + q2·(1−q1)`. The paper prints the `f`
/// coefficient as `2p1p2 − 2p1q2 + 2q2 − 1`, which is the same number for
/// symmetric chains (L-SUE, `p + q = 1` in both rounds) and is multiplied
/// by `f = 0` in Eq. (5); for the OUE-IRR chains (L-OUE, L-SOUE) it
/// understates the variance of frequent values about twofold.
pub fn chained_variance(f: f64, n: f64, p1: f64, q1: f64, p2: f64, q2: f64) -> f64 {
    let gamma = f * (p1 - q1) * (p2 - q2) + p2 * q1 + q2 * (1.0 - q1);
    gamma * (1.0 - gamma) / (n * (p1 - q1).powi(2) * (p2 - q2).powi(2))
}

/// Eq. (5): the approximate variance `V*` — Eq. (4) evaluated at `f = 0`.
pub fn chained_variance_approx(n: f64, p1: f64, q1: f64, p2: f64, q2: f64) -> f64 {
    chained_variance(0.0, n, p1, q1, p2, q2)
}

/// The one-round approximate variance `q(1−q) / (n (p−q)²)` (Wang et al.,
/// 2017) — the single-round analogue of Eq. (5).
pub fn single_variance_approx(n: f64, p: f64, q: f64) -> f64 {
    q * (1.0 - q) / (n * (p - q).powi(2))
}

/// Converts raw integer support counts into `f64` (helper for servers).
pub fn counts_to_f64(counts: &[u64]) -> Vec<f64> {
    counts.iter().map(|&c| c as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_inverts_the_expected_count() {
        // If f is the true frequency, E[C] = n (f p + (1-f) q); plugging the
        // expectation back into Eq. (1) must return f exactly.
        let (n, p, q) = (10_000.0, 0.7, 0.2);
        for &f in &[0.0, 0.1, 0.5, 1.0] {
            let expected_count = n * (f * p + (1.0 - f) * q);
            let est = frequency_estimate(expected_count, n, p, q);
            assert!((est - f).abs() < 1e-12, "f={f} est={est}");
        }
    }

    #[test]
    fn eq3_inverts_the_expected_count() {
        // Under PRR∘IRR the per-user report probability for the true value's
        // support is ps = p1 p2 + (1-p1) q2 and for others qs = q1 p2 +
        // (1-q1) q2 (unary view). E[C] = n (f ps + (1-f) qs).
        let (n, p1, q1, p2, q2) = (5_000.0, 0.9, 0.3, 0.8, 0.25);
        let ps = p1 * p2 + (1.0 - p1) * q2;
        let qs = q1 * p2 + (1.0 - q1) * q2;
        for &f in &[0.0, 0.25, 0.9] {
            let expected_count = n * (f * ps + (1.0 - f) * qs);
            let est = chained_frequency_estimate(expected_count, n, p1, q1, p2, q2);
            assert!((est - f).abs() < 1e-12, "f={f} est={est}");
        }
    }

    #[test]
    fn eq3_reduces_to_eq1_with_identity_second_round() {
        // With p2 = 1, q2 = 0 the IRR is the identity channel and Eq. (3)
        // must coincide with Eq. (1).
        let (n, p1, q1) = (1_000.0, 0.75, 0.1);
        for count in [0.0, 100.0, 900.0] {
            let a = chained_frequency_estimate(count, n, p1, q1, 1.0, 0.0);
            let b = frequency_estimate(count, n, p1, q1);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn eq4_at_f0_equals_eq5() {
        let (n, p1, q1, p2, q2) = (10_000.0, 0.8, 0.2, 0.7, 0.3);
        assert_eq!(
            chained_variance(0.0, n, p1, q1, p2, q2),
            chained_variance_approx(n, p1, q1, p2, q2)
        );
    }

    #[test]
    fn eq4_is_the_binomial_variance_of_the_support_count() {
        let (n, f) = (10_000.0, 0.15f64);
        for (p1, q1, p2, q2) in [(0.5f64, 0.12, 0.5, 0.08), (0.73, 0.27, 0.5, 0.07)] {
            let ps = p1 * p2 + (1.0 - p1) * q2;
            let qs = q1 * p2 + (1.0 - q1) * q2;
            let gamma = f * ps + (1.0 - f) * qs;
            let want = gamma * (1.0 - gamma) / (n * ((p1 - q1) * (p2 - q2)).powi(2));
            let got = chained_variance(f, n, p1, q1, p2, q2);
            assert!((got / want - 1.0).abs() < 1e-12, "{got} vs {want}");
        }
        // Symmetric chains: the paper's printed coefficient agrees.
        let (p1, p2) = (0.8f64, 0.7f64);
        let (q1, q2) = (1.0 - p1, 1.0 - p2);
        let printed =
            f * (2.0 * p1 * p2 - 2.0 * p1 * q2 + 2.0 * q2 - 1.0) + p2 * q1 + q2 * (1.0 - q1);
        let printed = printed * (1.0 - printed) / (n * ((p1 - q1) * (p2 - q2)).powi(2));
        assert!((chained_variance(f, n, p1, q1, p2, q2) / printed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_scales_inversely_with_n() {
        let (p1, q1, p2, q2) = (0.8, 0.2, 0.7, 0.3);
        let v1 = chained_variance_approx(1_000.0, p1, q1, p2, q2);
        let v2 = chained_variance_approx(2_000.0, p1, q1, p2, q2);
        assert!((v1 / v2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_variance_matches_known_grr_value() {
        // GRR at eps=ln(3), k=2: p = 3/4, q = 1/4, V* = (1/4·3/4)/(n·(1/2)^2).
        let v = single_variance_approx(100.0, 0.75, 0.25);
        assert!((v - (0.25 * 0.75) / (100.0 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn chained_variance_is_positive_for_valid_params() {
        for &f in &[0.0, 0.3, 0.6] {
            let v = chained_variance(f, 500.0, 0.9, 0.1, 0.8, 0.2);
            assert!(v > 0.0);
        }
    }
}
