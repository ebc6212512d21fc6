//! Exact Bernoulli sampling via 64-bit integer thresholds.
//!
//! Every perturbation step in every LDP protocol reduces to Bernoulli draws,
//! so this is the hottest primitive in the workspace: one `u64` from the
//! generator and one comparison, with the probability pre-scaled to a 64-bit
//! fixed-point threshold at construction time.
//!
//! [`bernoulli_block`] draws 64 such samples at once for bit-vector
//! mechanisms (unary encoding). Lane `i` still succeeds iff a uniform
//! 64-bit `x_i` is below its threshold, but the `x_i` are bit-sliced: bit
//! `j` (most significant first) of every `x_i` comes from the `j`-th word
//! drawn, and drawing stops as soon as every lane's comparison is decided —
//! at the first bit where `x_i` and the threshold differ. A lane is decided
//! at each word with probability 1/2, so a full block costs ≈7.3 words in
//! expectation instead of 64, and never more than 64. Lanes whose sampler
//! has p = 1 take no part in the draws, exactly as [`Bernoulli::sample`]
//! makes none for them.

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

    /// Draws one sample.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        self.always || rng.next_u64() < self.threshold
    }
}

/// Draws 64 independent Bernoulli lanes at once and returns them as a word.
///
/// Lane `i` samples `keep` if bit `i` of `ones` is set and `noise`
/// otherwise; lanes outside `lanes` are always 0 and cost nothing. Each
/// lane is exactly `x_i < threshold`, the same decision and distribution
/// as [`Bernoulli::sample`], where bit `j` of `x_i`, most significant
/// first, is bit `i` of the `j`-th word drawn from `rng`.
///
/// **RNG consumption:** words are drawn until every lane in `lanes` whose
/// sampler has p < 1 is decided (its `x_i` prefix differs from its
/// threshold's), or 64 have been drawn (`x_i` equals the threshold: the
/// lane fails). Lanes with p = 1 are set without a draw, so a block made
/// only of them draws nothing.
#[inline]
pub fn bernoulli_block<R: RngCore + ?Sized>(
    ones: u64,
    lanes: u64,
    keep: &Bernoulli,
    noise: &Bernoulli,
    rng: &mut R,
) -> u64 {
    let always = (ones & splat(keep.always)) | (!ones & splat(noise.always));
    let mut out = lanes & always;
    let mut undecided = lanes & !always;
    for j in (0..64).rev() {
        if undecided == 0 {
            break;
        }
        let x = rng.next_u64();
        let t = (ones & splat((keep.threshold >> j) & 1 == 1))
            | (!ones & splat((noise.threshold >> j) & 1 == 1));
        // Lanes where x's bit differs from the threshold's are decided now:
        // success exactly where the threshold has the 1.
        let decided = undecided & (x ^ t);
        out |= decided & t;
        undecided &= !decided;
    }
    out
}

/// All ones if `b`, else all zeros.
#[inline(always)]
fn splat(b: bool) -> u64 {
    0u64.wrapping_sub(u64::from(b))
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
        for _ in 0..1000 {
            assert!(!zero.sample(&mut rng));
            assert!(one.sample(&mut rng));
        }
    }

    /// Passes `inner`'s words through, recording each one drawn.
    struct Recording<R> {
        inner: R,
        words: Vec<u64>,
    }

    impl<R: RngCore> RngCore for Recording<R> {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let word = self.inner.next_u64();
            self.words.push(word);
            word
        }

        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("bernoulli_block draws whole words")
        }
    }

    /// Replays a fixed word sequence.
    struct Scripted(std::vec::IntoIter<u64>);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }

        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("bernoulli_block draws whole words")
        }
    }

    /// A sampler's threshold, or `None` for p = 1 (succeeds undrawn).
    fn cut(b: &Bernoulli) -> Option<u64> {
        (!b.always).then_some(b.threshold)
    }

    /// The reference decision for one lane: rebuild `x`'s bit prefix from
    /// the words drawn (bit `lane` of word `j` is bit `63 - j` of `x`) and
    /// compare it with the threshold most significant bit first. Returns
    /// `(x < t, depth)`, depth being the number of words that decided it,
    /// or `None` if the words drawn leave the lane undecided.
    fn lane_oracle(words: &[u64], lane: u32, cut: Option<u64>) -> Option<(bool, usize)> {
        let Some(t) = cut else {
            return Some((true, 0));
        };
        for (j, w) in words.iter().take(64).enumerate() {
            let (x_bit, t_bit) = ((w >> lane) & 1, (t >> (63 - j)) & 1);
            if x_bit != t_bit {
                return Some((t_bit == 1, j + 1));
            }
        }
        // All 64 bits equal: x == t, which is not below it.
        (words.len() >= 64).then_some((false, 64))
    }

    /// Runs one block through the recorder and checks every lane and the
    /// draw count against the oracle; returns the number of words drawn.
    fn check_block<R: RngCore>(
        ones: u64,
        lanes: u64,
        keep: &Bernoulli,
        noise: &Bernoulli,
        inner: R,
    ) -> usize {
        let mut rec = Recording {
            inner,
            words: Vec::new(),
        };
        let got = bernoulli_block(ones, lanes, keep, noise, &mut rec);
        let mut depth = 0;
        for lane in 0..64 {
            let bit = (got >> lane) & 1 == 1;
            if (lanes >> lane) & 1 == 0 {
                assert!(!bit, "masked-out lane {lane} set");
                continue;
            }
            let sampler = if (ones >> lane) & 1 == 1 { keep } else { noise };
            let (want, d) = lane_oracle(&rec.words, lane, cut(sampler))
                .unwrap_or_else(|| panic!("lane {lane} undecided after {} words", rec.words.len()));
            assert_eq!(
                bit, want,
                "lane {lane} of {ones:#x}/{lanes:#x}, {keep:?} {noise:?}"
            );
            depth = depth.max(d);
        }
        assert_eq!(rec.words.len(), depth, "draws past the last decision");
        depth
    }

    #[test]
    fn block_lanes_match_the_lexicographic_oracle() {
        let zero = Bernoulli::new(0.0).unwrap();
        let half = Bernoulli::new(0.5).unwrap();
        let one = Bernoulli::new(1.0).unwrap();
        assert_eq!(cut(&zero), Some(0));
        assert_eq!(cut(&half), Some(1 << 63));
        assert_eq!(cut(&one), None);
        let mut rng = derive_rng(3, 3);
        for width in [1u32, 10, 63, 64] {
            let lanes = u64::MAX >> (64 - width);
            for trial in 0..200 {
                let random = Bernoulli::new(crate::uniform_f64(&mut rng)).unwrap();
                let samplers = [zero, half, one, random];
                for keep in &samplers {
                    for noise in &samplers {
                        // Stray `ones` bits outside `lanes` must not matter.
                        let ones = match trial % 4 {
                            0 => 0,
                            1 => u64::MAX,
                            _ => rng.next_u64(),
                        };
                        let inner = derive_rng(5, rng.next_u64());
                        let words = check_block(ones, lanes, keep, noise, inner);
                        let random_lanes =
                            lanes & ((ones & splat(!keep.always)) | (!ones & splat(!noise.always)));
                        if random_lanes == 0 {
                            assert_eq!(words, 0, "a block of p = 1 lanes drew");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_draws_all_64_words_when_every_lane_ties_its_threshold() {
        // x_i == t_i in every lane: no word decides anything, the lanes
        // fail after the 64th word, and p = 1 lanes still succeed.
        let mut rng = derive_rng(6, 6);
        for _ in 0..50 {
            let keep = Bernoulli::new(crate::uniform_f64(&mut rng)).unwrap();
            let noise = Bernoulli::new(crate::uniform_f64(&mut rng)).unwrap();
            let ones = rng.next_u64();
            let slices: Vec<u64> = (0..64)
                .rev()
                .map(|j| {
                    (ones & splat((keep.threshold >> j) & 1 == 1))
                        | (!ones & splat((noise.threshold >> j) & 1 == 1))
                })
                .collect();
            let script = || Scripted(slices.clone().into_iter());
            assert_eq!(check_block(ones, u64::MAX, &keep, &noise, script()), 64);
            let always = Bernoulli::new(1.0).unwrap();
            let mut rec = Recording {
                inner: script(),
                words: Vec::new(),
            };
            assert_eq!(
                bernoulli_block(ones, u64::MAX, &always, &noise, &mut rec),
                ones
            );
            assert_eq!(rec.words.len(), 64);
        }
    }

    #[test]
    fn full_blocks_draw_about_seven_words() {
        // A lane is decided at each word with probability 1/2, so a full
        // block draws max-of-64-geometrics words: E = Σ_d 1 − (1 − 2^−d)^64.
        let expected: f64 = (0..64).map(|d| 1.0 - (1.0 - 0.5f64.powi(d)).powi(64)).sum();
        assert!((expected - 7.34).abs() < 0.01, "{expected}");
        let (keep, noise) = (Bernoulli::new(0.5).unwrap(), Bernoulli::new(0.119).unwrap());
        let mut rng = derive_rng(7, 7);
        let n = 20_000;
        let total: usize = (0..n)
            .map(|_| {
                let ones = rng.next_u64();
                let mut rec = Recording {
                    inner: &mut rng,
                    words: Vec::new(),
                };
                bernoulli_block(ones, u64::MAX, &keep, &noise, &mut rec);
                rec.words.len()
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - expected).abs() < 0.1, "mean {mean} vs {expected}");
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
