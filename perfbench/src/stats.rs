//! Order statistics used by every workload.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of `xs`: the value with exactly ten samples above it, which is
/// the highest percentile the sample supports with at least ten beyond
/// it. Returns the value and that percentile. Below 21 samples no
/// percentile above the median has ten beyond it, and the median
/// (percentile 50) is returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 21 {
        return (median(xs), 50.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 11;
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Blocks a run's rounds are cut into for the end-to-end round metrics.
pub const BLOCKS: usize = 5;

/// `xs`, in the order measured, cut into `BLOCKS` consecutive blocks when
/// each holds at least 21 samples (so that `tail` goes above the median),
/// else left whole.
pub fn blocks(xs: &[f64]) -> Vec<&[f64]> {
    if xs.len() < BLOCKS * 21 {
        return vec![xs];
    }
    (0..BLOCKS)
        .map(|b| &xs[b * xs.len() / BLOCKS..(b + 1) * xs.len() / BLOCKS])
        .collect()
}

/// The median over `blocks(xs)` of `f(block)`. On a shared host, now and
/// then a stretch of a run slowed by a fifth and its slowest rounds
/// doubled; statistics over the whole run then moved with it, and two
/// such runs in ten put the tail's spread past its bound. A stretch that
/// spans fewer than half the blocks leaves this where it was, while a
/// stall that recurs through the run still shows in every block.
pub fn block_median(xs: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    median(&blocks(xs).into_iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_stretch_in_two_blocks_of_five_moves_nothing() {
        let steady: Vec<f64> = (0..200).map(|i| f64::from(100 + i % 2)).collect();
        let mut hit = steady.clone();
        // Rounds 40..120 (blocks 1 and 2) run twice as slow.
        hit[40..120].iter_mut().for_each(|x| *x *= 2.0);
        let stat = |xs: &[f64]| block_median(xs, |b| tail(b).0);
        assert_eq!(stat(&hit), stat(&steady));
        assert!(tail(&hit).0 > 1.5 * tail(&steady).0);
        assert_eq!(blocks(&steady[..104]).len(), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
