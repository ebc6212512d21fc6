//! Correctness checks that fail the run.
//!
//! Accuracy is checked against the paper's approximate variance V*
//! (Eq. (5), with the protocol parameters of Eqs. (4) and (6)): every
//! round's mean squared error over the domain must lie within a factor
//! [`MSE_FACTOR`] of V*. The factor is loose on purpose, so that a
//! future change of the RNG contract that keeps the estimator's
//! distribution still passes, while a wrong, zeroed or doubled estimate
//! does not.

/// Allowed ratio between a round's MSE and V*, both ways.
pub const MSE_FACTOR: f64 = 3.0;

/// Mean squared error of `estimate` against the true frequencies.
pub fn mse(estimate: &[f64], truth: &[f64]) -> f64 {
    let k = truth.len().max(1) as f64;
    estimate
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum::<f64>()
        / k
}

/// Accumulates the accuracy check over rounds.
#[derive(Debug)]
pub struct Accuracy {
    variance: f64,
    ratios: Vec<f64>,
    /// Description of the first failure.
    pub failure: Option<String>,
}

impl Accuracy {
    /// Checks rounds against the approximate variance `variance` (V*).
    pub fn new(variance: f64) -> Self {
        Self {
            variance,
            ratios: Vec::new(),
            failure: None,
        }
    }

    /// Checks one round's estimate.
    pub fn round(&mut self, round: u64, estimate: &[f64], truth: &[f64]) {
        let ratio = mse(estimate, truth) / self.variance;
        if !(1.0 / MSE_FACTOR..=MSE_FACTOR).contains(&ratio) && self.failure.is_none() {
            self.failure = Some(format!(
                "round {round}: MSE is {ratio:.3} x V*, outside [1/{MSE_FACTOR}, {MSE_FACTOR}]"
            ));
        }
        self.ratios.push(ratio);
    }

    /// Mean MSE / V* over the checked rounds.
    pub fn mean_ratio(&self) -> f64 {
        crate::stats::mean(&self.ratios)
    }

    /// A one-line summary for the run's notes.
    pub fn note(&self) -> String {
        format!(
            "accuracy: mean MSE = {:.3} x V* over {} round(s) (V* = {:.3e}, allowed [1/{MSE_FACTOR}, {MSE_FACTOR}])",
            self.mean_ratio(),
            self.ratios.len(),
            self.variance
        )
    }
}

/// 64-bit FNV-1a digest of an estimate's bits: bit-identical estimates
/// have equal digests, and any other pair (short of a 2^-64 collision)
/// different ones.
pub fn digest(estimate: &[f64]) -> u64 {
    estimate
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
