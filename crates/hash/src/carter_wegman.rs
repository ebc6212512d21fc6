//! The Carter–Wegman 2-universal family `h(x) = ((a·x + b) mod p) mod g`.
//!
//! With `p = 2^61 − 1` (a Mersenne prime far above every domain size used in
//! the paper) and `a ~ U[1, p)`, `b ~ U[0, p)`, the family is 2-universal:
//! for `x ≠ y < p`, `Pr[h(x) = h(y)] ≤ 1/g` (up to the ⌈p/g⌉/⌊p/g⌋ rounding,
//! which is below 2^-57 here). This is the textbook construction LOLOHA's
//! privacy analysis assumes.

use crate::{SeededHash, UniversalFamily};
use ldp_rand::uniform_u64;
use rand::RngCore;
use std::ops::Range;

/// The Mersenne prime 2^61 − 1.
pub const MERSENNE_P: u64 = (1 << 61) - 1;

/// The Carter–Wegman family with a fixed reduced domain size `g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarterWegman {
    g: u32,
}

impl CarterWegman {
    /// Creates the family. Requires `g ≥ 2`.
    pub fn new(g: u32) -> Option<Self> {
        (g >= 2).then_some(Self { g })
    }
}

impl UniversalFamily for CarterWegman {
    type Hash = CwHash;

    fn g(&self) -> u32 {
        self.g
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> CwHash {
        let a = 1 + uniform_u64(rng, MERSENNE_P - 1); // a ∈ [1, p)
        let b = uniform_u64(rng, MERSENNE_P); // b ∈ [0, p)
        CwHash { a, b, g: self.g }
    }
}

/// One sampled Carter–Wegman hash function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CwHash {
    a: u64,
    b: u64,
    g: u32,
}

impl CwHash {
    /// Reconstructs a hash function from its coefficients (used when a
    /// server replays a client-registered function).
    ///
    /// # Errors
    /// Returns `None` if the coefficients are outside the family
    /// (`a ∈ [1, p)`, `b ∈ [0, p)`, `g ≥ 2`).
    pub fn from_parts(a: u64, b: u64, g: u32) -> Option<Self> {
        if a == 0 || a >= MERSENNE_P || b >= MERSENNE_P || g < 2 {
            return None;
        }
        Some(Self { a, b, g })
    }

    /// The `(a, b)` coefficients identifying this function within the family.
    pub fn parts(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Writes the preimage rows of the cells in `cells` over the domain
    /// `[0, k)`, one after another, `⌈k / 64⌉` words each: bit `v % 64`
    /// of word `v / 64` of cell `y`'s row is set exactly when
    /// `hash(v) == y`, and every later bit of `rows` is clear. A client
    /// expands all `g` cells of its hash this way once; a collector
    /// expands the cells it needs of a reported hash.
    ///
    /// One pass over `[0, k)` writes every row: it steps
    /// `x_v = (a·v + b) mod p` by one modular addition a value instead of
    /// a multiply. At g = 2 (BiLOLOHA) each row is a parity pass instead.
    ///
    /// # Panics
    /// Panics if `cells` runs past `g`, or if `rows` is shorter than
    /// `cells.len() · ⌈k / 64⌉` words.
    pub fn preimage_rows(&self, k: u64, cells: Range<u32>, rows: &mut [u64]) {
        let words = usize::try_from(k.div_ceil(64)).expect("the rows fit in memory");
        assert!(
            cells.end <= self.g,
            "cells {cells:?} run past g = {}",
            self.g
        );
        let need = cells.len() * words;
        assert!(
            rows.len() >= need,
            "{cells:?} over {k} values need {need} words"
        );
        rows.fill(0);
        if words == 0 {
            return;
        }
        if self.g == 2 {
            for (cell, row) in cells.zip(rows.chunks_exact_mut(words)) {
                self.parity_row(k, cell == 1, row);
            }
            return;
        }
        let mut x = self.b;
        for v in 0..k {
            // x < p < 2^61 and g ≥ 2, so the cell fits u32.
            let cell = (x % u64::from(self.g)) as u32;
            if cells.contains(&cell) {
                let at = (cell - cells.start) as usize * words + v as usize / 64;
                rows[at] |= 1 << (v % 64);
            }
            x = add_mod_p(x, self.a);
        }
    }

    /// The preimage row of cell 1 (`odd`) or cell 0 at g = 2 (BiLOLOHA),
    /// into a zeroed `row` of `⌈k / 64⌉` words, where a value's cell
    /// is the parity of `x_v = (a·v + b) mod p`, `BLOCK` values at a
    /// time without a multiply or a division per value.
    ///
    /// In a block starting at `v₀`, `x_{v₀+j} = c + t_j − p·[t_j ≥ p − c]`
    /// with `c = x_{v₀}` and `t_j = j·a mod p`. Since p is odd, the
    /// parity of `x_{v₀+j}` is `c ⊕ t_j ⊕ [t_j ≥ p − c]` (mod 2). The
    /// `t_j` and their parities are the same for every block, so sorting
    /// them once turns the wrap bits of a block into a suffix of that
    /// order: one binary search per block, then two XORs.
    fn parity_row(&self, k: u64, odd: bool, row: &mut [u64]) {
        const BLOCK: usize = 16;
        let mut t = [0u64; BLOCK];
        for j in 1..BLOCK {
            t[j] = add_mod_p(t[j - 1], self.a);
        }
        let step = add_mod_p(t[BLOCK - 1], self.a);
        let parities = (0..BLOCK).fold(0, |bits, j| bits | (t[j] & 1) << j);
        let mut order: [(u64, usize); BLOCK] = std::array::from_fn(|j| (t[j], j));
        order.sort_unstable();
        // wraps[r]: the offsets whose t_j ranks r-th or later.
        let mut wraps = [0u64; BLOCK + 1];
        for r in (0..BLOCK).rev() {
            wraps[r] = wraps[r + 1] | 1 << order[r].1;
        }
        let sorted = order.map(|(t_j, _)| t_j);
        let block = (1u64 << BLOCK) - 1;
        let mut c = self.b;
        for word in row.iter_mut() {
            for at in (0..64).step_by(BLOCK) {
                let wrapped = wraps[sorted.partition_point(|&t_j| t_j < MERSENNE_P - c)];
                let parity = (0u64.wrapping_sub(c & 1) ^ parities ^ wrapped) & block;
                *word |= if odd { parity } else { !parity & block } << at;
                c = add_mod_p(c, step);
            }
        }
        if !k.is_multiple_of(64) {
            if let Some(last) = row.last_mut() {
                *last &= (1 << (k % 64)) - 1;
            }
        }
    }
}

/// `(x + y) mod p` for `x, y < p`. Whether the sum passes p is a coin
/// flip for a random hash: a select, not a branch.
#[inline]
fn add_mod_p(x: u64, y: u64) -> u64 {
    let sum = x + y;
    std::hint::select_unpredictable(sum >= MERSENNE_P, sum.wrapping_sub(MERSENNE_P), sum)
}

/// Reduction modulo 2^61 − 1 of a 122-bit product, using the Mersenne
/// structure: `x mod (2^61−1) = (x & p) + (x >> 61)`, folded twice.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    let p = MERSENNE_P as u128;
    let folded = (x & p) + (x >> 61);
    let folded = (folded & p) + (folded >> 61);
    let mut r = folded as u64;
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

impl SeededHash for CwHash {
    #[inline]
    fn g(&self) -> u32 {
        self.g
    }

    #[inline]
    fn hash(&self, value: u64) -> u32 {
        // Reduce the input below p first: domains in this workspace are tiny
        // compared to p, so this is a no-op in practice but keeps the
        // function total over u64.
        let x = (value % MERSENNE_P) as u128;
        let ax_b = (self.a as u128) * x + self.b as u128;
        (mod_mersenne(ax_b) % self.g as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::derive_rng;

    #[test]
    fn rejects_g_below_two() {
        assert!(CarterWegman::new(0).is_none());
        assert!(CarterWegman::new(1).is_none());
    }

    #[test]
    fn mod_mersenne_matches_naive() {
        let cases = [
            0u128,
            1,
            MERSENNE_P as u128 - 1,
            MERSENNE_P as u128,
            MERSENNE_P as u128 + 1,
            u64::MAX as u128,
            (MERSENNE_P as u128) * (MERSENNE_P as u128) - 1,
            (u128::from(u64::MAX) * u128::from(u64::MAX)) >> 6,
        ];
        for &x in &cases {
            assert_eq!(mod_mersenne(x) as u128, x % MERSENNE_P as u128, "x = {x}");
        }
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let fam = CarterWegman::new(5).unwrap();
        let mut rng = derive_rng(200, 0);
        let h = fam.sample(&mut rng);
        for v in 0..1000u64 {
            let x = h.hash(v);
            assert!(x < 5);
            assert_eq!(x, h.hash(v));
        }
    }

    #[test]
    fn from_parts_roundtrip_and_validation() {
        let fam = CarterWegman::new(4).unwrap();
        let mut rng = derive_rng(201, 0);
        let h = fam.sample(&mut rng);
        let (a, b) = h.parts();
        let h2 = CwHash::from_parts(a, b, 4).unwrap();
        for v in [0u64, 17, 123_456_789] {
            assert_eq!(h.hash(v), h2.hash(v));
        }
        assert!(CwHash::from_parts(0, 0, 4).is_none());
        assert!(CwHash::from_parts(MERSENNE_P, 0, 4).is_none());
        assert!(CwHash::from_parts(1, MERSENNE_P, 4).is_none());
        assert!(CwHash::from_parts(1, 0, 1).is_none());
    }

    #[test]
    fn preimage_rows_equal_the_hash_at_the_coefficient_extremes() {
        let p = MERSENNE_P;
        let mut rng = derive_rng(204, 0);
        let mut parts = vec![(1, 0), (p - 1, p - 1), (p - 1, 0), (1, p - 1)];
        parts.extend((0..60).map(|_| {
            let h = CarterWegman::new(2).unwrap().sample(&mut rng);
            h.parts()
        }));
        for (a, b) in parts {
            for g in [2u32, 3, 4, 7, 64, 65, 1000] {
                let h = CwHash::from_parts(a, b, g).unwrap();
                for k in [1u64, 63, 64, 65, 130, 1412] {
                    let words = k.div_ceil(64) as usize;
                    for cells in [0..1, 1..2, g - 1..g, 0..g, 1..g] {
                        let mut want = vec![0u64; cells.len() * words + 3];
                        for v in 0..k {
                            let cell = h.hash(v);
                            if cells.contains(&cell) {
                                let at = (cell - cells.start) as usize * words + v as usize / 64;
                                want[at] |= 1 << (v % 64);
                            }
                        }
                        // Words past the rows come back clear too.
                        let mut got = vec![u64::MAX; want.len()];
                        h.preimage_rows(k, cells.clone(), &mut got);
                        assert_eq!(got, want, "a = {a}, b = {b}, g = {g}, k = {k}, {cells:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn outputs_cover_all_cells() {
        // One sampled function over a large input range should hit every
        // residue of a small g.
        let fam = CarterWegman::new(3).unwrap();
        let mut rng = derive_rng(202, 0);
        let h = fam.sample(&mut rng);
        let mut seen = [false; 3];
        for v in 0..100u64 {
            seen[h.hash(v) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn output_distribution_is_balanced_over_inputs() {
        let fam = CarterWegman::new(8).unwrap();
        let mut rng = derive_rng(203, 0);
        let h = fam.sample(&mut rng);
        let n = 80_000u64;
        let mut counts = [0usize; 8];
        for v in 0..n {
            counts[h.hash(v) as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for &c in &counts {
            assert!((c as f64 - expected).abs() / expected < 0.05);
        }
    }
}
