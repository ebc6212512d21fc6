//! Compact per-user memoization tables.
//!
//! A longitudinal client must remember the PRR output for every distinct
//! input it has reported. With tens of thousands of simulated users alive at
//! once, per-user `HashMap`s are too heavy; instead:
//!
//! * [`SymbolMemo`] — for symbol-valued PRRs (L-GRR, LOLOHA): a flat
//!   `Vec<u16>` indexed by input class, `u16::MAX` meaning "not memoized".
//! * [`UnaryMemo`] — for bit-vector PRRs (RAPPOR / L-UE family): fixed
//!   pages of 16 fixed-width bit rows, found through a rank index sized by
//!   the values the user reported rather than by k. A page is allocated
//!   only when the previous one is full, and rows never move, so a user's
//!   memo holds at most 15 empty rows and no freed growth holes. At
//!   DB_MT's k = 1412 the index takes 392 B where a dense `u16` table took
//!   2 824 B, and it is smaller than that table at the paper's other
//!   domains too (Adult k = 96: 184 B; Syn k = 360: 224 B). A lookup does
//!   no search (a sorted class list with binary search took about 6
//!   dependent probes and was a measured loss).

/// Sentinel for "no memoized entry".
const EMPTY: u16 = u16::MAX;

/// Memoizes one symbol (`< u16::MAX`) per input class.
#[derive(Debug, Clone)]
pub struct SymbolMemo {
    table: Vec<u16>,
}

impl SymbolMemo {
    /// Creates an empty memo over `classes` input classes.
    ///
    /// `classes` may be any `u32`; only the stored symbols must be below
    /// `u16::MAX`, which [`Self::insert`] checks.
    pub fn new(classes: u32) -> Self {
        Self {
            table: vec![EMPTY; classes as usize],
        }
    }

    /// Looks up the memoized symbol for `class`.
    #[inline]
    pub fn get(&self, class: u32) -> Option<u16> {
        match self.table[class as usize] {
            EMPTY => None,
            s => Some(s),
        }
    }

    /// Stores `symbol` for `class`.
    ///
    /// # Panics
    /// Panics if `symbol == u16::MAX` (reserved) or the slot is taken with a
    /// different value (memoization must be write-once).
    #[inline]
    pub fn insert(&mut self, class: u32, symbol: u16) {
        assert_ne!(symbol, EMPTY, "symbol u16::MAX is reserved");
        let slot = &mut self.table[class as usize];
        assert!(
            *slot == EMPTY || *slot == symbol,
            "memoization is write-once (class {class})"
        );
        *slot = symbol;
    }

    /// Number of memoized classes.
    pub fn len(&self) -> usize {
        self.table.iter().filter(|&&s| s != EMPTY).count()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.table.iter().all(|&s| s == EMPTY)
    }

    /// Iterates the memoized `(class, symbol)` pairs in class order (the
    /// persistence layer's traversal).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u16)> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != EMPTY)
            .map(|(c, &s)| (c as u32, s))
    }
}

/// Rows per [`UnaryMemo`] page. A power of two, so splitting a row number
/// into (page, slot) is a shift and a mask.
const PAGE_ROWS: usize = 16;

/// Rank slots a new [`UnaryMemo`] reserves (or `classes`, if fewer): well
/// above the 44.3 distinct values a DB_MT user reports in a τ = 80 epoch
/// on average, so a pool's memos rarely grow their index.
const RESERVED_RANKS: usize = 80;

/// The `i`-th `u16` of the words starting at `at`, four to a word.
#[inline]
fn lane(words: &[u64], at: usize, i: usize) -> u16 {
    (words[at + i / 4] >> (16 * (i % 4))) as u16
}

/// Sets the `i`-th `u16` of the words starting at `at` to `value`.
#[inline]
fn set_lane(words: &mut [u64], at: usize, i: usize, value: u16) {
    let shift = 16 * (i % 4);
    let word = &mut words[at + i / 4];
    *word = *word & !(0xFFFF << shift) | u64::from(value) << shift;
}

/// Offset of the rank → row words in a [`UnaryMemo`] index over `classes`
/// classes, past the presence words and the group counts.
#[inline]
fn rows_at(classes: u32) -> usize {
    let groups = (classes as usize).div_ceil(64);
    groups + groups.div_ceil(4)
}

/// Memoizes one fixed-width bit vector per input class, in fixed pages of
/// 16 rows: row `r` lives in page `r / 16`, slot `r % 16`, and never moves
/// once written.
///
/// The class index is a rank directory in one allocation of `u64` words:
///
/// * a presence word for each group of 64 classes (bit `c % 64` of word
///   `c / 64` is set when class `c` is memoized);
/// * for each group, the number of memoized classes in the groups before
///   it, as `u16`s four to a word;
/// * the row number of each memoized class in class order (a class's
///   *rank*), as `u16`s four to a word, with room for at least
///   `min(classes, 80)` ranks.
///
/// A lookup reads the class's presence word, adds its group's count to
/// the popcount of the bits below the class, and reads the row number at
/// that rank.
#[derive(Debug, Clone)]
pub struct UnaryMemo {
    index: Box<[u64]>,
    pages: Vec<Box<[u64]>>,
    blocks_per_entry: usize,
    classes: u32,
    entries: u16,
}

impl UnaryMemo {
    /// Creates an empty memo over `classes` input classes, each storing a
    /// bit vector of `bits` bits.
    pub fn new(classes: u32, bits: usize) -> Self {
        let ranks = (classes as usize).min(RESERVED_RANKS);
        Self {
            index: vec![0; rows_at(classes) + ranks.div_ceil(4)].into_boxed_slice(),
            pages: Vec::new(),
            blocks_per_entry: bits.div_ceil(64),
            classes,
            entries: 0,
        }
    }

    /// Number of 64-class groups, i.e. presence words.
    #[inline]
    fn groups(&self) -> usize {
        (self.classes as usize).div_ceil(64)
    }

    /// Whether `class` is memoized, and the rank it has (if memoized) or
    /// would take (if inserted).
    ///
    /// # Panics
    /// Panics if `class >= classes`.
    #[inline]
    fn locate(&self, class: u32) -> (bool, usize) {
        assert!(
            class < self.classes,
            "class {class} outside the memo's {} classes",
            self.classes
        );
        let (group, bit) = (class as usize / 64, 1u64 << (class % 64));
        let present = self.index[group];
        let before = lane(&self.index, self.groups(), group);
        let rank = usize::from(before) + (present & (bit - 1)).count_ones() as usize;
        (present & bit != 0, rank)
    }

    /// The blocks of row `row`.
    #[inline]
    fn row(&self, row: u16) -> &[u64] {
        let (page, slot) = (row as usize / PAGE_ROWS, row as usize % PAGE_ROWS);
        let start = slot * self.blocks_per_entry;
        &self.pages[page][start..start + self.blocks_per_entry]
    }

    /// Looks up the memoized blocks for `class`.
    ///
    /// # Panics
    /// Panics if `class >= classes`.
    #[inline]
    pub fn get(&self, class: u32) -> Option<&[u64]> {
        let (memoized, rank) = self.locate(class);
        memoized.then(|| self.row(lane(&self.index, rows_at(self.classes), rank)))
    }

    /// Inserts the blocks for `class` and returns them.
    ///
    /// # Panics
    /// Panics if `class >= classes`, the class is already memoized, the
    /// block count is wrong, or more than `u16::MAX − 1` entries are
    /// inserted.
    pub fn insert(&mut self, class: u32, blocks: &[u64]) -> &[u64] {
        assert_eq!(blocks.len(), self.blocks_per_entry, "block count mismatch");
        let (memoized, rank) = self.locate(class);
        assert!(!memoized, "memoization is write-once");
        assert!(self.entries < u16::MAX, "memo full");
        let row = self.entries;
        let rows_at = rows_at(self.classes);
        if usize::from(row) == (self.index.len() - rows_at) * 4 {
            self.grow_ranks();
        }
        // Shift the ranks above `class` up by one and give it its row.
        for r in (rank..usize::from(row)).rev() {
            let above = lane(&self.index, rows_at, r);
            set_lane(&mut self.index, rows_at, r + 1, above);
        }
        set_lane(&mut self.index, rows_at, rank, row);
        let (groups, group) = (self.groups(), class as usize / 64);
        self.index[group] |= 1 << (class % 64);
        for g in group + 1..groups {
            let before = lane(&self.index, groups, g);
            set_lane(&mut self.index, groups, g, before + 1);
        }
        let (page, slot) = (row as usize / PAGE_ROWS, row as usize % PAGE_ROWS);
        if slot == 0 {
            self.pages
                .push(vec![0; PAGE_ROWS * self.blocks_per_entry].into_boxed_slice());
        }
        self.entries += 1;
        let start = slot * self.blocks_per_entry;
        let dst = &mut self.pages[page][start..start + self.blocks_per_entry];
        dst.copy_from_slice(blocks);
        dst
    }

    /// Doubles the rank slots (up to one per class) in one reallocation.
    #[cold]
    fn grow_ranks(&mut self) {
        let rows_at = rows_at(self.classes);
        let ranks = (2 * (self.index.len() - rows_at) * 4).min(self.classes as usize);
        let mut index = std::mem::take(&mut self.index).into_vec();
        let len = rows_at + ranks.div_ceil(4);
        index.reserve_exact(len - index.len());
        index.resize(len, 0);
        self.index = index.into_boxed_slice();
    }

    /// Number of memoized classes.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Iterates the memoized `(class, blocks)` pairs in class order (the
    /// persistence layer's traversal).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u64])> + '_ {
        let rows_at = rows_at(self.classes);
        self.index[..self.groups()]
            .iter()
            .enumerate()
            .flat_map(|(group, &present)| {
                let mut bits = present;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        (group * 64) as u32 + bit
                    })
                })
            })
            .enumerate()
            .map(move |(rank, class)| (class, self.row(lane(&self.index, rows_at, rank))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn symbol_memo_roundtrip() {
        let mut m = SymbolMemo::new(10);
        assert!(m.is_empty());
        assert_eq!(m.get(3), None);
        m.insert(3, 7);
        assert_eq!(m.get(3), Some(7));
        assert_eq!(m.len(), 1);
        // Idempotent re-insert of the same value is allowed.
        m.insert(3, 7);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "write-once")]
    fn symbol_memo_rejects_overwrite() {
        let mut m = SymbolMemo::new(4);
        m.insert(0, 1);
        m.insert(0, 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn symbol_memo_rejects_sentinel() {
        let mut m = SymbolMemo::new(4);
        m.insert(0, u16::MAX);
    }

    #[test]
    fn unary_memo_roundtrip() {
        let mut m = UnaryMemo::new(5, 100); // 2 blocks per entry
        assert!(m.is_empty());
        assert_eq!(m.get(2), None);
        let blocks = [0xDEAD_BEEFu64, 0x1234];
        m.insert(2, &blocks);
        assert_eq!(m.get(2), Some(&blocks[..]));
        let blocks_b = [1u64, 2];
        m.insert(4, &blocks_b);
        assert_eq!(m.get(2), Some(&blocks[..]), "arena growth must not corrupt");
        assert_eq!(m.get(4), Some(&blocks_b[..]));
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "write-once")]
    fn unary_memo_rejects_overwrite() {
        let mut m = UnaryMemo::new(3, 64);
        m.insert(1, &[0]);
        m.insert(1, &[1]);
    }

    #[test]
    #[should_panic(expected = "outside the memo")]
    fn unary_memo_rejects_a_class_outside_the_domain() {
        let mut m = UnaryMemo::new(65, 64);
        m.insert(64, &[0]);
        m.insert(65, &[1]);
    }

    #[test]
    #[should_panic(expected = "block count")]
    fn unary_memo_rejects_wrong_width() {
        let mut m = UnaryMemo::new(3, 64);
        m.insert(1, &[0, 1]);
    }

    #[test]
    fn iterators_walk_entries_in_class_order() {
        let mut s = SymbolMemo::new(8);
        s.insert(5, 2);
        s.insert(1, 9);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(1, 9), (5, 2)]);
        let mut u = UnaryMemo::new(6, 64);
        u.insert(4, &[7]);
        u.insert(0, &[3]);
        let entries: Vec<(u32, Vec<u64>)> = u.iter().map(|(c, b)| (c, b.to_vec())).collect();
        assert_eq!(entries, vec![(0, vec![3]), (4, vec![7])]);
    }

    #[test]
    fn unary_memo_round_trips_across_page_boundaries() {
        let n = 3 * PAGE_ROWS as u32 + 1;
        let classes = 2 * n;
        let row = |c: u32| [u64::from(c) << 32 | 0xA5, !u64::from(c)];
        // 2 blocks per entry, inserted in reverse class order so that row
        // order and class order differ.
        let mut m = UnaryMemo::new(classes, 128);
        for c in (0..classes).rev().step_by(2) {
            assert_eq!(m.insert(c, &row(c)), &row(c)[..]);
        }
        assert_eq!(m.len(), n as usize);
        assert_eq!(m.pages.len(), 4);
        for c in 0..classes {
            let want = (c % 2 == 1).then(|| row(c));
            assert_eq!(m.get(c), want.as_ref().map(|r| &r[..]), "class {c}");
        }
        let entries: Vec<(u32, Vec<u64>)> = m.iter().map(|(c, b)| (c, b.to_vec())).collect();
        let want: Vec<(u32, Vec<u64>)> = (1..classes)
            .step_by(2)
            .map(|c| (c, row(c).to_vec()))
            .collect();
        assert_eq!(entries, want);
    }

    #[test]
    fn unary_memo_rows_never_move() {
        let mut m = UnaryMemo::new(101, 1412);
        let first = m.insert(0, &[7; 23]).as_ptr();
        for c in 1..=100 {
            m.insert(c, &[u64::from(c); 23]);
        }
        let row0 = m.get(0).unwrap();
        assert_eq!(row0.as_ptr(), first);
        assert_eq!(row0, &[7; 23][..]);
    }

    #[test]
    fn unary_memo_many_entries() {
        let mut m = UnaryMemo::new(1000, 64);
        for c in 0..1000u32 {
            m.insert(c, &[c as u64]);
        }
        for c in (0..1000u32).rev() {
            assert_eq!(m.get(c), Some(&[c as u64][..]));
        }
    }

    #[test]
    fn unary_memo_index_is_smaller_than_a_dense_one_at_the_paper_domains() {
        // Adult, Syn and DB_MT; the dense index took 2 B per class.
        for (k, words) in [(96, 23), (360, 28), (1412, 49)] {
            let m = UnaryMemo::new(k, k as usize);
            assert_eq!(m.index.len(), words, "k = {k}");
            assert!(words * 8 < 2 * k as usize, "k = {k}");
        }
        assert_eq!(UnaryMemo::new(5, 5).index.len(), 1 + 1 + 2);
    }

    proptest! {
        /// Random insert/get sequences agree with a `BTreeMap` model: every
        /// lookup, the length, and `iter` in class order. Each sequence
        /// starts at the group edges (classes 0, 63, 64 and k − 1), and
        /// domains up to 400 classes take up to 400 picks, so many cases
        /// memoize more classes than the 80 reserved ranks.
        #[test]
        fn unary_memo_matches_a_btreemap_model(
            k in 2u32..400,
            bits in 1usize..200,
            picks in proptest::collection::vec(any::<u32>(), 0..400),
        ) {
            let row = |class: u32, words: usize| -> Vec<u64> {
                (0..words as u64).map(|w| u64::from(class) << 16 ^ w).collect()
            };
            let words = bits.div_ceil(64);
            let mut memo = UnaryMemo::new(k, bits);
            let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            let edges = [0, 63, 64, k - 1].into_iter().filter(|&c| c < k);
            for class in edges.chain(picks.iter().map(|p| p % k)) {
                match model.get(&class) {
                    Some(want) => prop_assert_eq!(memo.get(class), Some(&want[..])),
                    None => {
                        prop_assert_eq!(memo.get(class), None);
                        let blocks = row(class, words);
                        prop_assert_eq!(memo.insert(class, &blocks), &blocks[..]);
                        model.insert(class, blocks);
                    }
                }
            }
            prop_assert_eq!(memo.len(), model.len());
            for class in 0..k {
                prop_assert_eq!(memo.get(class), model.get(&class).map(|b| &b[..]));
            }
            let got: Vec<(u32, &[u64])> = memo.iter().collect();
            let want: Vec<(u32, &[u64])> = model.iter().map(|(&c, b)| (c, &b[..])).collect();
            prop_assert_eq!(got, want);
        }
    }
}
