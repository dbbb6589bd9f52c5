//! Dense GF(2) linear algebra used to validate code constructions.
//!
//! The matrices involved are small (at most a few thousand columns), so a simple
//! bit-packed dense representation with Gaussian elimination is more than fast enough
//! and keeps the crate dependency-free.

/// A dense matrix over GF(2), stored row-major with 64 columns per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BinaryMatrix {
    /// All-zero matrix with the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64).max(1);
        BinaryMatrix { rows, cols, words_per_row, data: vec![0; rows * words_per_row] }
    }

    /// Build a matrix from sparse rows: `rows[i]` lists the column indices set in row `i`.
    ///
    /// # Panics
    /// Panics if any listed column is `>= cols`.
    #[must_use]
    pub fn from_rows(cols: usize, rows: &[Vec<usize>]) -> Self {
        let mut m = BinaryMatrix::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            for &c in row {
                assert!(c < cols, "column {c} out of range {cols}");
                m.set(i, c, true);
            }
        }
        m
    }

    /// Identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = BinaryMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value of the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "index out of range");
        let word = self.data[row * self.words_per_row + col / 64];
        (word >> (col % 64)) & 1 == 1
    }

    /// Set the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        let idx = row * self.words_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        if value {
            self.data[idx] |= mask;
        } else {
            self.data[idx] &= !mask;
        }
    }

    /// XOR row `src` into row `dst` (`dst ^= src`).
    ///
    /// # Panics
    /// Panics if either row is out of range.
    pub fn xor_rows(&mut self, dst: usize, src: usize) {
        assert!(dst < self.rows && src < self.rows, "row out of range");
        assert_ne!(dst, src, "cannot xor a row into itself");
        let (dst_start, src_start) = (dst * self.words_per_row, src * self.words_per_row);
        for w in 0..self.words_per_row {
            let value = self.data[src_start + w];
            self.data[dst_start + w] ^= value;
        }
    }

    /// Rank over GF(2), computed on a copy by Gaussian elimination.
    #[must_use]
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0usize;
        for col in 0..m.cols {
            // find pivot row at or below `rank`
            let pivot = (rank..m.rows).find(|&r| m.get(r, col));
            let Some(pivot) = pivot else { continue };
            m.swap_rows(rank, pivot);
            for r in 0..m.rows {
                if r != rank && m.get(r, col) {
                    m.xor_rows(r, rank);
                }
            }
            rank += 1;
            if rank == m.rows {
                break;
            }
        }
        rank
    }

    /// Swap two rows.
    ///
    /// # Panics
    /// Panics if either row is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row out of range");
        if a == b {
            return;
        }
        let w = self.words_per_row;
        for k in 0..w {
            self.data.swap(a * w + k, b * w + k);
        }
    }

    /// Matrix product `self * other` over GF(2).
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    #[must_use]
    pub fn multiply(&self, other: &BinaryMatrix) -> BinaryMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in GF(2) product");
        let mut out = BinaryMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                if self.get(i, k) {
                    // out.row(i) ^= other.row(k)
                    let dst = i * out.words_per_row;
                    let src = k * other.words_per_row;
                    for w in 0..out.words_per_row {
                        out.data[dst + w] ^= other.data[src + w];
                    }
                }
            }
        }
        out
    }

    /// Transposed copy.
    #[must_use]
    pub fn transposed(&self) -> BinaryMatrix {
        let mut out = BinaryMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    out.set(c, r, true);
                }
            }
        }
        out
    }

    /// `true` when every entry is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&w| w == 0)
    }

    /// Parity (mod-2 sum) of the product of a row of `self` with a sparse vector given
    /// as a list of set column indices.
    #[must_use]
    pub fn row_dot_sparse(&self, row: usize, support: &[usize]) -> bool {
        support.iter().filter(|&&c| self.get(row, c)).count() % 2 == 1
    }

    /// Number of set entries in a row.
    #[must_use]
    pub fn row_weight(&self, row: usize) -> usize {
        let start = row * self.words_per_row;
        self.data[start..start + self.words_per_row].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Column indices set in a row, ascending.
    #[must_use]
    pub fn row_support(&self, row: usize) -> Vec<usize> {
        (0..self.cols).filter(|&c| self.get(row, c)).collect()
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics when the row counts disagree.
    #[must_use]
    pub fn hstack(&self, other: &BinaryMatrix) -> BinaryMatrix {
        assert_eq!(self.rows, other.rows, "row mismatch in hstack");
        let mut out = BinaryMatrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    out.set(r, c, true);
                }
            }
            for c in 0..other.cols {
                if other.get(r, c) {
                    out.set(r, self.cols + c, true);
                }
            }
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ other` over GF(2).
    #[must_use]
    pub fn kron(&self, other: &BinaryMatrix) -> BinaryMatrix {
        let mut out = BinaryMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                if !self.get(r1, c1) {
                    continue;
                }
                for r2 in 0..other.rows {
                    for c2 in 0..other.cols {
                        if other.get(r2, c2) {
                            out.set(r1 * other.rows + r2, c1 * other.cols + c2, true);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_has_full_rank() {
        assert_eq!(BinaryMatrix::identity(17).rank(), 17);
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = BinaryMatrix::from_rows(4, &[vec![0, 1], vec![1, 2], vec![0, 2]]);
        // third row is the sum of the first two
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn multiply_matches_manual_example() {
        let a = BinaryMatrix::from_rows(2, &[vec![0, 1], vec![1]]);
        let b = BinaryMatrix::from_rows(3, &[vec![0], vec![0, 2]]);
        let c = a.multiply(&b);
        // row0 = (1,1) * B = [1,0,0] ^ [1,0,1] = [0,0,1]
        assert_eq!(c.row_support(0), vec![2]);
        // row1 = (0,1) * B = [1,0,1]
        assert_eq!(c.row_support(1), vec![0, 2]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = BinaryMatrix::from_rows(5, &[vec![0, 4], vec![2], vec![1, 3, 4]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn hstack_shapes_and_values() {
        let a = BinaryMatrix::identity(2);
        let b = BinaryMatrix::from_rows(3, &[vec![2], vec![0]]);
        let c = a.hstack(&b);
        assert_eq!(c.cols(), 5);
        assert!(c.get(0, 0) && c.get(0, 4));
        assert!(c.get(1, 1) && c.get(1, 2));
    }

    #[test]
    fn kron_with_identity_replicates_blocks() {
        let a = BinaryMatrix::from_rows(2, &[vec![0, 1]]);
        let k = a.kron(&BinaryMatrix::identity(3));
        assert_eq!(k.rows(), 3);
        assert_eq!(k.cols(), 6);
        for i in 0..3 {
            assert!(k.get(i, i));
            assert!(k.get(i, 3 + i));
        }
    }

    #[test]
    fn row_dot_sparse_counts_parity() {
        let m = BinaryMatrix::from_rows(6, &[vec![0, 2, 4]]);
        assert!(m.row_dot_sparse(0, &[0]));
        assert!(!m.row_dot_sparse(0, &[0, 2]));
        assert!(m.row_dot_sparse(0, &[0, 2, 4]));
        assert!(!m.row_dot_sparse(0, &[1, 3, 5]));
    }

    proptest! {
        #[test]
        fn rank_never_exceeds_dimensions(rows in 1usize..8, cols in 1usize..70, seed in any::<u64>()) {
            // cheap deterministic pseudo-random fill
            let mut state = seed | 1;
            let mut m = BinaryMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if state >> 63 == 1 {
                        m.set(r, c, true);
                    }
                }
            }
            let rank = m.rank();
            prop_assert!(rank <= rows.min(cols));
        }

        #[test]
        fn xor_rows_is_involutive(cols in 1usize..100, seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut m = BinaryMatrix::zeros(2, cols);
            for c in 0..cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state >> 63 == 1 {
                    m.set(0, c, true);
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state >> 63 == 1 {
                    m.set(1, c, true);
                }
            }
            let original = m.clone();
            m.xor_rows(0, 1);
            m.xor_rows(0, 1);
            prop_assert_eq!(m, original);
        }

        #[test]
        fn kron_rank_is_product_of_ranks(n in 1usize..5, m_dim in 1usize..5) {
            let a = BinaryMatrix::identity(n);
            let b = BinaryMatrix::identity(m_dim);
            prop_assert_eq!(a.kron(&b).rank(), n * m_dim);
        }
    }
}
