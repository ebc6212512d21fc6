//! A compact bit vector for unary-encoded reports.
//!
//! Unary Encoding ships one bit per domain value; with `k` up to 1412 in the
//! paper's datasets a report is at most 23 machine words. The server only
//! needs set-bit iteration (to bump support counts), so the representation
//! is a plain `Vec<u64>` with trailing-zero scanning.

/// A fixed-length bit vector backed by 64-bit blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            blocks: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.blocks[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Calls `f` with every set-bit index, in increasing order.
    ///
    /// Equivalent to `iter_ones().for_each(f)` but folds a whole 64-bit
    /// block per loop with no iterator state to thread through — the hot
    /// shape for expanding dense unary-encoded supports into flat index
    /// buffers.
    #[inline]
    pub fn for_each_one<F: FnMut(usize)>(&self, f: F) {
        for_each_set_bit(&self.blocks, f);
    }

    /// Resets all bits to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Overwrites this vector with `other`'s bits, keeping the allocation.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in copy_from");
        self.blocks.copy_from_slice(&other.blocks);
    }

    /// Overwrites this vector from raw little-endian blocks. Stray bits
    /// beyond `len` in the last block are masked off, so untrusted block
    /// data can never make [`BitVec::iter_ones`] yield an out-of-range
    /// index.
    ///
    /// # Panics
    /// Panics if the block count differs from `ceil(len/64)`.
    pub fn copy_from_blocks(&mut self, blocks: &[u64]) {
        assert_eq!(
            self.blocks.len(),
            blocks.len(),
            "block count mismatch in copy_from_blocks"
        );
        self.blocks.copy_from_slice(blocks);
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Overwrites block `bi` (bits `64·bi ..`) with `word`. Bits of the
    /// last block at or beyond `len` are masked off, keeping the same
    /// tail invariant as [`BitVec::copy_from_blocks`].
    ///
    /// # Panics
    /// Panics if `bi >= ceil(len/64)`.
    #[inline]
    pub fn set_block(&mut self, bi: usize, word: u64) {
        let tail = self.len % 64;
        self.blocks[bi] = if tail != 0 && bi + 1 == self.blocks.len() {
            word & ((1u64 << tail) - 1)
        } else {
            word
        };
    }

    /// The underlying blocks (low bit of block 0 is bit 0).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }
}

/// Calls `f` with the index of every set bit of a bit row, in increasing
/// order: bit `i % 64` of `words[i / 64]` stands for index `i`. One
/// block per loop, no iterator state — the shape every dense support
/// (a unary report, a LOLOHA preimage row) expands through.
#[inline]
pub fn for_each_set_bit<F: FnMut(usize)>(words: &[u64], mut f: F) {
    for (block_idx, &block) in words.iter().enumerate() {
        let mut current = block;
        while current != 0 {
            f(block_idx * 64 + current.trailing_zeros() as usize);
            current &= current - 1; // clear lowest set bit
        }
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct IterOnes<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.block_idx * 64 + tz);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_all_zero() {
        let bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        assert!(bv.iter_ones().next().is_none());
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut bv = BitVec::zeros(100);
        bv.set(0, true);
        bv.set(63, true);
        bv.set(64, true);
        bv.set(99, true);
        for i in 0..100 {
            let expect = matches!(i, 0 | 63 | 64 | 99);
            assert_eq!(bv.get(i), expect, "bit {i}");
        }
        bv.flip(63);
        assert!(!bv.get(63));
        bv.set(0, false);
        assert!(!bv.get(0));
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut bv = BitVec::zeros(200);
        let idxs = [3usize, 64, 65, 127, 128, 199];
        for &i in &idxs {
            bv.set(i, true);
        }
        let collected: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(collected, idxs);
    }

    #[test]
    fn for_each_one_matches_iter_ones() {
        let mut bv = BitVec::zeros(200);
        for &i in &[0usize, 3, 63, 64, 65, 127, 128, 199] {
            bv.set(i, true);
        }
        let mut folded = Vec::new();
        bv.for_each_one(|i| folded.push(i));
        assert_eq!(folded, bv.iter_ones().collect::<Vec<_>>());
        let empty = BitVec::zeros(70);
        empty.for_each_one(|_| panic!("no set bits"));
    }

    #[test]
    fn copy_from_and_blocks_roundtrip() {
        let mut src = BitVec::zeros(70);
        src.set(3, true);
        src.set(69, true);
        let mut dst = BitVec::zeros(70);
        dst.set(10, true);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let mut from_blocks = BitVec::zeros(70);
        from_blocks.copy_from_blocks(src.blocks());
        assert_eq!(from_blocks, src);
    }

    #[test]
    fn copy_from_blocks_masks_stray_tail_bits() {
        let mut bv = BitVec::zeros(70);
        // Bits 70..128 of the raw blocks are out of range and must vanish.
        bv.copy_from_blocks(&[0, u64::MAX]);
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![64, 65, 66, 67, 68, 69]);
    }

    #[test]
    fn set_block_overwrites_and_masks_the_tail() {
        let mut bv = BitVec::zeros(70);
        bv.set(3, true);
        bv.set_block(0, 1 << 5);
        bv.set_block(1, u64::MAX);
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![5, 64, 65, 66, 67, 68, 69]);
        let mut full = BitVec::zeros(128);
        full.set_block(1, u64::MAX);
        assert_eq!(full.count_ones(), 64);
    }

    #[test]
    fn clear_resets() {
        let mut bv = BitVec::zeros(70);
        bv.set(5, true);
        bv.set(69, true);
        bv.clear();
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.len(), 70);
    }

    #[test]
    fn empty_vector_behaves() {
        let bv = BitVec::zeros(0);
        assert!(bv.is_empty());
        assert_eq!(bv.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let bv = BitVec::zeros(10);
        let _ = bv.get(10);
    }

    #[test]
    fn non_multiple_of_64_length() {
        let mut bv = BitVec::zeros(65);
        bv.set(64, true);
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![64]);
    }
}
