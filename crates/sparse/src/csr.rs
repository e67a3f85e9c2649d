//! Compressed Sparse Row matrix.
//!
//! The paper stores the Poisson stiffness matrix `K` in CSR to reduce
//! memory footprint (§IV-C); we do the same. Assembly goes through
//! [`CooBuilder`] (triplets with duplicate summation), which is the
//! natural output of FEM element loops.

/// CSR sparse matrix with `f64` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// The square `n × n` matrix whose row `i` holds columns
    /// `col_idx[row_ptr[i]..row_ptr[i + 1]]` (ascending) with `values`.
    pub(crate) fn from_rows(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[r.clone()]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[r].iter().copied())
    }

    /// Matrix–vector product `y = A x`: each row one left-to-right
    /// accumulation from `0.0`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for (yi, w) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (cols, vals) = (&self.col_idx[w[0]..w[1]], &self.values[w[0]..w[1]]);
            *yi = cols
                .iter()
                .zip(vals)
                .fold(0.0, |acc, (&j, &v)| acc + v * x[j as usize]);
        }
    }

    /// Allocating variant of [`CsrMatrix::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Diagonal entries (0.0 where a row has no stored diagonal).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows];
        for (i, di) in d.iter_mut().enumerate() {
            for (j, v) in self.row(i) {
                if i == j {
                    *di = v;
                }
            }
        }
        d
    }

    /// Entry accessor (slow; for tests).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// Whether the matrix is (exactly) symmetric. O(nnz log nnz);
    /// intended for tests and debug assertions.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                if (self.get(j, i) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Coordinate-format builder with duplicate summation.
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// New builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        if v != 0.0 {
            self.entries.push((i as u32, j as u32, v));
        }
    }

    /// Finalize into CSR, summing duplicates in the order they were
    /// added. Each row's triplets are linked into a list in insertion
    /// order, through the row field the list makes redundant; each row
    /// is then sorted by column (stably, in a buffer of one row) and its
    /// duplicates folded. Beyond the triplets and the CSR arrays it
    /// holds one list head per row.
    pub fn build(self) -> CsrMatrix {
        const END: u32 = u32::MAX;
        let CooBuilder {
            nrows,
            ncols,
            mut entries,
        } = self;
        // a link is a triplet's index, `END` ends a list
        assert!(
            entries.len() < END as usize,
            "a CooBuilder holds fewer than 2^32 - 1 triplets"
        );
        let mut head = vec![END; nrows];
        for k in (0..entries.len()).rev() {
            let i = entries[k].0 as usize;
            (entries[k].0, head[i]) = (head[i], k as u32);
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut row = Vec::new();
        for mut k in head {
            row.clear();
            while k != END {
                let (next, j, v) = entries[k as usize];
                row.push((j, v));
                k = next;
            }
            row.sort_by_key(|&(j, _)| j);
            for dup in row.chunk_by(|a, b| a.0 == b.0) {
                col_idx.push(dup[0].0);
                values.push(dup[1..].iter().fold(dup[0].1, |sum, &(_, v)| sum + v));
            }
            row_ptr.push(values.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn builds_and_multiplies() {
        let a = laplacian_1d(4);
        assert_eq!(a.nnz(), 10);
        let y = a.mul_vec(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn duplicate_entries_sum() {
        let mut b = CooBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 0, -1.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn duplicates_sum_in_insertion_order() {
        // 40 entries of 24–47 triplets each, interleaved, of mixed
        // magnitudes: a sum in any other order rounds differently
        let (n, mut state) = (8, 0x2545_f491_4f6c_dd1du64);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut triplets = Vec::new();
        for key in 0..40 {
            let count = 24 + next() % 24;
            for _ in 0..count {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                triplets.push((key / n, key % n, x * 10f64.powi((next() % 12) as i32)));
            }
        }
        for k in (1..triplets.len()).rev() {
            triplets.swap(k, next() as usize % (k + 1));
        }
        let mut b = CooBuilder::new(5, n);
        let mut fold = vec![None::<f64>; 5 * n];
        for &(i, j, v) in &triplets {
            b.add(i, j, v);
            let sum = &mut fold[i * n + j];
            *sum = Some(sum.map_or(v, |s| s + v));
        }
        let a = b.build();
        for (key, sum) in fold.iter().enumerate() {
            let got = a.get(key / n, key % n);
            assert_eq!(got.to_bits(), sum.unwrap().to_bits(), "entry {key}");
        }
    }

    #[test]
    fn diagonal_extraction() {
        let a = laplacian_1d(5);
        assert_eq!(a.diagonal(), vec![2.0; 5]);
    }

    #[test]
    fn symmetry_check() {
        let a = laplacian_1d(6);
        assert!(a.is_symmetric(0.0));
        let mut b = CooBuilder::new(2, 2);
        b.add(0, 1, 1.0);
        assert!(!b.build().is_symmetric(1e-15));
    }

    #[test]
    fn empty_rows_ok() {
        let mut b = CooBuilder::new(3, 3);
        b.add(0, 0, 1.0);
        b.add(2, 2, 1.0);
        let a = b.build();
        let y = a.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }
}
