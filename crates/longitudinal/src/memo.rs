//! Compact per-user memoization tables.
//!
//! A longitudinal client must remember the PRR output for every distinct
//! input it has reported. With tens of thousands of simulated users alive at
//! once, per-user `HashMap`s are too heavy; instead:
//!
//! * [`SymbolMemo`] — for symbol-valued PRRs (L-GRR, LOLOHA): a flat
//!   `Vec<u16>` indexed by input class, `u16::MAX` meaning "not memoized".
//! * [`UnaryMemo`] — for bit-vector PRRs (RAPPOR / L-UE family): a dense
//!   `u16` index table into fixed pages of 16 fixed-width bit rows. A page
//!   is allocated only when the previous one is full, and rows never move,
//!   so a user's memo holds at most 15 empty rows and no freed growth
//!   holes.

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

/// Memoizes one fixed-width bit vector per input class, in fixed pages of
/// 16 rows: row `r` lives in page `r / 16`, slot `r % 16`, and never moves
/// once written.
#[derive(Debug, Clone)]
pub struct UnaryMemo {
    index: Vec<u16>,
    pages: Vec<Box<[u64]>>,
    blocks_per_entry: usize,
    entries: u16,
}

impl UnaryMemo {
    /// Creates an empty memo over `classes` input classes, each storing a
    /// bit vector of `bits` bits.
    pub fn new(classes: u32, bits: usize) -> Self {
        Self {
            index: vec![EMPTY; classes as usize],
            pages: Vec::new(),
            blocks_per_entry: bits.div_ceil(64),
            entries: 0,
        }
    }

    /// The blocks of row `row`.
    #[inline]
    fn row(&self, row: u16) -> &[u64] {
        let (page, slot) = (row as usize / PAGE_ROWS, row as usize % PAGE_ROWS);
        let start = slot * self.blocks_per_entry;
        &self.pages[page][start..start + self.blocks_per_entry]
    }

    /// Looks up the memoized blocks for `class`.
    #[inline]
    pub fn get(&self, class: u32) -> Option<&[u64]> {
        match self.index[class as usize] {
            EMPTY => None,
            row => Some(self.row(row)),
        }
    }

    /// Inserts the blocks for `class` and returns them.
    ///
    /// # Panics
    /// Panics if the class is already memoized, the block count is wrong, or
    /// more than `u16::MAX − 1` entries are inserted.
    pub fn insert(&mut self, class: u32, blocks: &[u64]) -> &[u64] {
        assert_eq!(blocks.len(), self.blocks_per_entry, "block count mismatch");
        assert_eq!(
            self.index[class as usize], EMPTY,
            "memoization is write-once"
        );
        assert!(self.entries < EMPTY, "memo full");
        let row = self.entries;
        let (page, slot) = (row as usize / PAGE_ROWS, row as usize % PAGE_ROWS);
        if slot == 0 {
            self.pages
                .push(vec![0; PAGE_ROWS * self.blocks_per_entry].into_boxed_slice());
        }
        self.index[class as usize] = row;
        self.entries += 1;
        let start = slot * self.blocks_per_entry;
        let dst = &mut self.pages[page][start..start + self.blocks_per_entry];
        dst.copy_from_slice(blocks);
        dst
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
        self.index
            .iter()
            .enumerate()
            .filter(|(_, &row)| row != EMPTY)
            .map(|(c, &row)| (c as u32, self.row(row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
