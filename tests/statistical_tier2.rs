//! Tier-2 statistical test suite: chi-square goodness-of-fit on estimator
//! bias and empirical-vs-theoretical variance (Eqs. (4)–(6)) at elevated
//! sample sizes.
//!
//! Every test here is `#[ignore]`d so the tier-1 gate stays fast; run the
//! suite with
//!
//! ```sh
//! cargo test --release --test statistical_tier2 -- --ignored
//! ```
//!
//! Methodology: each protocol runs `TRIALS` independent single-round
//! collections with users drawing values i.i.d. from a fixed histogram, so
//! each support count is exactly binomial and the estimator error for value
//! `v` is (asymptotically) `N(0, σ²_v)` with `σ²_v` given by the paper's
//! closed forms. Per value we then check:
//!
//! 1. **Bias** — the standardized mean error `√T·(ē_v)/σ_v` stays within
//!    ±4.5 (a `Z`-test with known variance).
//! 2. **Goodness-of-fit** — `Σ_t z²_{t,v} ~ χ²_T`: the pooled squared
//!    standardized errors match a chi-square with `TRIALS` degrees of
//!    freedom (tests bias and variance jointly).
//! 3. **Variance** — `(T−1)s²_v/σ²_v ~ χ²_{T−1}`: the empirical variance
//!    across trials matches the theoretical variance.
//!
//! All seeds are fixed, so the suite is deterministic; the chi-square
//! acceptance bands use 1e-6 tails (via the Wilson–Hilferty cube-root
//! approximation), wide enough that a pass is meaningful and a failure
//! indicates a genuine estimator or variance-formula regression.

use loloha_suite::longitudinal::chain::ue_chain_params;
use loloha_suite::prelude::*;
use loloha_suite::primitives::params::sue_params;
use loloha_suite::rand::AliasTable;

const TRIALS: usize = 64;

/// z-quantile for the 1e-6 tail (two-sided band of ±4.7534).
const Z_TAIL: f64 = 4.7534;
/// Bias band: ±4.5 standard errors.
const Z_BIAS: f64 = 4.5;

/// Wilson–Hilferty approximation of the chi-square quantile: accurate to a
/// fraction of a percent for df ≥ 30, far tighter than the bands we use.
fn chi2_quantile(df: f64, z: f64) -> f64 {
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + z * a.sqrt()).powi(3)
}

/// The fixed, deliberately non-uniform test histogram over `[0, k)`.
fn truth(k: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..k).map(|v| (v % 5 + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total).collect()
}

/// Checks the three per-value statistics for one protocol's trial matrix.
///
/// `estimates[t][v]` is trial `t`'s estimate of value `v`; `theo_var[v]`
/// the closed-form variance of that estimate.
fn assert_bias_and_variance(label: &str, estimates: &[Vec<f64>], truth: &[f64], theo_var: &[f64]) {
    let t = estimates.len() as f64;
    let chi2_lo = chi2_quantile(t, -Z_TAIL);
    let chi2_hi = chi2_quantile(t, Z_TAIL);
    let var_lo = chi2_quantile(t - 1.0, -Z_TAIL) / (t - 1.0);
    let var_hi = chi2_quantile(t - 1.0, Z_TAIL) / (t - 1.0);

    for v in 0..truth.len() {
        let sigma = theo_var[v].sqrt();
        assert!(sigma > 0.0, "{label}: v={v} has zero theoretical variance");
        let errors: Vec<f64> = estimates.iter().map(|e| e[v] - truth[v]).collect();

        // 1. Bias: standardized mean error is a unit normal.
        let mean = errors.iter().sum::<f64>() / t;
        let z_bias = mean * t.sqrt() / sigma;
        assert!(
            z_bias.abs() < Z_BIAS,
            "{label}: biased estimate for v={v}: mean error {mean:.3e}, z = {z_bias:.2}"
        );

        // 2. Chi-square goodness-of-fit on standardized errors.
        let chi2: f64 = errors.iter().map(|e| (e / sigma).powi(2)).sum();
        assert!(
            (chi2_lo..chi2_hi).contains(&chi2),
            "{label}: chi-square GOF failed for v={v}: {chi2:.1} outside \
             [{chi2_lo:.1}, {chi2_hi:.1}] (df = {t})"
        );

        // 3. Empirical variance vs the closed form.
        let s2 = errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (t - 1.0);
        let ratio = s2 / theo_var[v];
        assert!(
            (var_lo..var_hi).contains(&ratio),
            "{label}: variance mismatch for v={v}: empirical {s2:.3e} vs \
             theoretical {:.3e} (ratio {ratio:.2} outside [{var_lo:.2}, {var_hi:.2}])",
            theo_var[v]
        );
    }
}

/// Runs `TRIALS` single-round collections, where `round` maps (trial rng,
/// the drawn values) to one estimate vector.
fn run_trials<F>(n: usize, seed: u64, truth: &[f64], mut round: F) -> Vec<Vec<f64>>
where
    F: FnMut(&mut LdpRng, &[u64]) -> Vec<f64>,
{
    let alias = AliasTable::new(&truth.iter().map(|&f| f * 1e6).collect::<Vec<_>>())
        .expect("valid weights");
    (0..TRIALS)
        .map(|trial| {
            let mut rng = derive_rng2(seed, 0x71E2, trial as u64);
            let values: Vec<u64> = (0..n).map(|_| alias.sample(&mut rng) as u64).collect();
            round(&mut rng, &values)
        })
        .collect()
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn grr_bias_and_variance_match_theory() {
    let (k, n, eps) = (10usize, 20_000usize, 1.5f64);
    let truth = truth(k);
    let grr = Grr::new(k as u64, eps).expect("valid");
    let (p, q) = (grr.p(), grr.q());

    let estimates = run_trials(n, 0xA11CE, &truth, |rng, values| {
        let mut counts = vec![0.0f64; k];
        for &v in values {
            counts[grr.perturb(v, rng) as usize] += 1.0;
        }
        frequency_estimates(&counts, n as f64, p, q)
    });

    // Eq. (4)-style binomial variance of the one-round estimator: the
    // support probability for v is γ = f·p + (1−f)·q.
    let theo_var: Vec<f64> = truth
        .iter()
        .map(|&f| {
            let gamma = f * p + (1.0 - f) * q;
            gamma * (1.0 - gamma) / (n as f64 * (p - q).powi(2))
        })
        .collect();
    // Eq. (5) (f = 0) must agree with the closed form the toolbox exports.
    let v_star = single_variance_approx(n as f64, p, q);
    assert!((v_star - q * (1.0 - q) / (n as f64 * (p - q).powi(2))).abs() < 1e-18);

    assert_bias_and_variance("GRR", &estimates, &truth, &theo_var);
}

/// Shared harness for the chained-UE protocols: `TRIALS` single-round
/// collections of fresh clients, estimated with Eq. (3) and checked
/// against the Eq. (4) chained variance at the true frequency.
fn lue_chain_bias_and_variance(label: &str, ue_chain: UeChain, seed: u64) {
    let (k, n) = (12usize, 10_000usize);
    let (eps_inf, eps_first) = (2.0f64, 1.0f64);
    let truth = truth(k);
    let chain = ue_chain_params(ue_chain, eps_inf, eps_first).expect("valid");

    let estimates = run_trials(n, seed, &truth, |rng, values| {
        let mut counts = vec![0.0f64; k];
        for &v in values {
            let mut client =
                LongitudinalUeClient::new(ue_chain, k as u64, eps_inf, eps_first).expect("valid");
            let bits = client.report(v, rng);
            for i in bits.iter_ones() {
                counts[i] += 1.0;
            }
        }
        chained_frequency_estimates(
            &counts,
            n as f64,
            chain.prr.p,
            chain.prr.q,
            chain.irr.p,
            chain.irr.q,
        )
    });

    // Eq. (4): exact chained variance at the true frequency.
    let theo_var: Vec<f64> = truth
        .iter()
        .map(|&f| {
            chained_variance(
                f,
                n as f64,
                chain.prr.p,
                chain.prr.q,
                chain.irr.p,
                chain.irr.q,
            )
        })
        .collect();
    assert_bias_and_variance(label, &estimates, &truth, &theo_var);
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn lue_rappor_bias_and_variance_match_theory() {
    // RAPPOR (L-SUE): the symmetric SUE∘SUE chain, exactly the regime of
    // the paper's Eq. (4)/(5) closed forms.
    lue_chain_bias_and_variance("L-SUE (RAPPOR)", UeChain::SueSue, 0xB0B);
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn lue_losue_bias_and_variance_match_theory() {
    // L-OSUE: the paper's recommended OUE (PRR) ∘ SUE (IRR) chain — the
    // asymmetric (p1, q1) ≠ (p2, q2) regime, so this exercises the
    // cross-terms of Eq. (4) that the symmetric RAPPOR case cannot.
    lue_chain_bias_and_variance("L-OSUE", UeChain::OueSue, 0x105E);
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn lue_loue_bias_and_variance_match_theory() {
    // L-OUE: OUE PRR, OUE-solved IRR. Its IRR (q2 ≈ 0.08) is drawn by the
    // bit-sliced block sampler, not geometric skipping.
    lue_chain_bias_and_variance("L-OUE", UeChain::OueOue, 0x10E);
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn lue_lsoue_bias_and_variance_match_theory() {
    // L-SOUE: SUE PRR, OUE-solved IRR (q2 ≈ 0.07), also on the block
    // sampler.
    lue_chain_bias_and_variance("L-SOUE", UeChain::SueOue, 0x50E);
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn dbitflip_bias_and_variance_match_theory() {
    // bBitFlipPM with b = k and d = b: every user covers every bucket, so
    // each bucket count is Binomial(n, γ_j) and the SUE closed form applies
    // with n_eff = n.
    let (k, n, eps) = (16usize, 10_000usize, 2.0f64);
    let (b, d) = (k as u32, k as u32);
    let truth = truth(k);
    let (p, q) = sue_params(eps);

    let estimates = run_trials(n, 0xD17, &truth, |rng, values| {
        let mut server = DBitFlipServer::new(b, d, eps).expect("valid");
        for &v in values {
            let mut client = DBitFlipClient::new(k as u64, b, d, eps, rng).expect("valid");
            let report = client.report(v, rng);
            let sampled = client.sampled().to_vec();
            server.ingest(&sampled, &report);
        }
        server.estimate_and_reset()
    });

    let theo_var: Vec<f64> = truth
        .iter()
        .map(|&f| {
            let gamma = f * p + (1.0 - f) * q;
            gamma * (1.0 - gamma) / (n as f64 * (p - q).powi(2))
        })
        .collect();
    assert_bias_and_variance("bBitFlipPM", &estimates, &truth, &theo_var);
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn loloha_variance_matches_eq5_and_optimal_g_minimizes_it() {
    // BiLOLOHA at a value with zero true frequency: the estimator variance
    // is the paper's approximate variance V* (Eq. (5) with q1 = 1/g). The
    // last domain value gets zero mass below.
    let (k, n) = (16usize, 10_000usize);
    let (eps_inf, eps_first) = (1.5f64, 0.75f64);
    let params = LolohaParams::bi(eps_inf, eps_first).expect("valid");
    let family = CarterWegman::new(params.g()).expect("valid g");

    let mut truth = truth(k - 1);
    truth.push(0.0); // value k-1 never occurs

    let estimates = run_trials(n, 0x10A, &truth, |rng, values| {
        let mut agg =
            ShardedAggregator::for_loloha_obs(k as u64, params, 3, &MetricsRegistry::disabled())
                .expect("valid");
        for (i, &v) in values.iter().enumerate() {
            let mut client =
                LolohaClient::new(&family, k as u64, params, rng).expect("valid client");
            let cell = client.report(v, rng);
            let pre = Preimages::build(client.hash_fn(), k as u64);
            agg.push_report(i % 3, pre.cell(cell).iter().map(|&x| x as usize));
        }
        agg.finish_round().estimate
    });

    // Only the f = 0 value is checked against Eq. (5): for f > 0 the
    // universal-hash support adds collision terms Eq. (5) deliberately
    // approximates away.
    let zero = k - 1;
    let v_star = params.variance_approx(n as f64);
    let t = TRIALS as f64;
    let errors: Vec<f64> = estimates.iter().map(|e| e[zero]).collect();
    let mean = errors.iter().sum::<f64>() / t;
    let z_bias = mean * t.sqrt() / v_star.sqrt();
    assert!(
        z_bias.abs() < Z_BIAS,
        "BiLOLOHA biased at f = 0: mean {mean:.3e}, z = {z_bias:.2}"
    );
    let s2 = errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (t - 1.0);
    let ratio = s2 / v_star;
    let var_lo = chi2_quantile(t - 1.0, -Z_TAIL) / (t - 1.0);
    let var_hi = chi2_quantile(t - 1.0, Z_TAIL) / (t - 1.0);
    assert!(
        (var_lo..var_hi).contains(&ratio),
        "BiLOLOHA empirical variance {s2:.3e} vs V* {v_star:.3e} \
         (ratio {ratio:.2} outside [{var_lo:.2}, {var_hi:.2}])"
    );

    // Eq. (6): the closed-form optimal g can only lower V* relative to
    // g = 2 at the same budgets.
    let opt = LolohaParams::optimal(eps_inf, eps_first).expect("valid");
    assert!(
        opt.variance_approx(n as f64) <= params.variance_approx(n as f64) * (1.0 + 1e-12),
        "optimal g = {} has V* above BiLOLOHA's",
        opt.g()
    );
}

/// The exact LOLOHA support probability at true frequency `f` — the
/// collision terms Eq. (5) approximates away, derived from first
/// principles:
///
/// * value v's own reporters support v with
///   `γ_same = p1·p2 + (1 − p1)·q2` (the PRR keeps the hashed cell with
///   p1; whichever cell the PRR lands on, the IRR keeps it with p2 and a
///   non-matching cell moves onto h(v) with q2);
/// * any *other* reporter collides with h(v) with probability 1/g under
///   a pairwise-uniform hash, giving
///   `γ_other = (1/g)·p2 + (1 − 1/g)·q2` after averaging the same chain
///   over the hash draw;
/// * so `γ(f) = γ_other + f·(γ_same − γ_other)`, with
///   `γ_same − γ_other = (p1 − 1/g)·(p2 − q2)` — exactly the estimator's
///   debias denominator `A`.
///
/// With users drawing values i.i.d., the support count is
/// `Binomial(n, γ(f))`, so `Var(f̂_v) = γ(1−γ) / (n·A²)` exactly.
/// (Carter–Wegman pairwise uniformity holds to within 2⁻⁵⁷, far below
/// the test bands.)
fn loloha_exact_variance(params: &LolohaParams, f: f64, n: f64) -> f64 {
    let g_inv = 1.0 / params.g() as f64;
    let (p1, p2, q2) = (params.prr().p, params.irr().p, params.irr().q);
    let a = (p1 - g_inv) * (p2 - q2);
    let gamma = g_inv * p2 + (1.0 - g_inv) * q2 + f * a;
    gamma * (1.0 - gamma) / (n * a * a)
}

#[test]
#[ignore = "tier-2: run with cargo test --release -- --ignored"]
fn loloha_collision_terms_match_exact_variance_at_f_above_zero() {
    // The f > 0 regime the previous test deliberately skips: every value
    // of the non-uniform histogram, checked against the exact
    // support-probability closed form (collision terms included) rather
    // than the f = 0 approximation V*.
    let (k, n) = (16usize, 10_000usize);
    let (eps_inf, eps_first) = (1.5f64, 0.75f64);
    let params = LolohaParams::bi(eps_inf, eps_first).expect("valid");
    let family = CarterWegman::new(params.g()).expect("valid g");
    let truth = truth(k);

    let estimates = run_trials(n, 0xF0C0, &truth, |rng, values| {
        let mut agg =
            ShardedAggregator::for_loloha_obs(k as u64, params, 3, &MetricsRegistry::disabled())
                .expect("valid");
        for (i, &v) in values.iter().enumerate() {
            let mut client =
                LolohaClient::new(&family, k as u64, params, rng).expect("valid client");
            let cell = client.report(v, rng);
            let pre = Preimages::build(client.hash_fn(), k as u64);
            agg.push_report(i % 3, pre.cell(cell).iter().map(|&x| x as usize));
        }
        agg.finish_round().estimate
    });

    let theo_var: Vec<f64> = truth
        .iter()
        .map(|&f| loloha_exact_variance(&params, f, n as f64))
        .collect();
    // Sanity: the f-dependence is real — at g = 2 the IRR is symmetric
    // (p2 + q2 = 1), so γ(0) = 1/2 sits at the peak of γ(1−γ) and f > 0
    // strictly *shrinks* the variance; Eq. (5)'s f = 0 form cannot be a
    // stand-in for these cells.
    let (v0, v3) = (
        loloha_exact_variance(&params, 0.0, n as f64),
        loloha_exact_variance(&params, 0.3, n as f64),
    );
    assert!(
        v3 < v0 * (1.0 - 1e-6),
        "f must move the exact variance at g = 2: {v3:.6e} vs {v0:.6e}"
    );
    assert_bias_and_variance("BiLOLOHA (f > 0, exact)", &estimates, &truth, &theo_var);
}
