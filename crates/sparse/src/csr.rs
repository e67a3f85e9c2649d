//! Compressed Sparse Row matrix.
//!
//! The paper stores the Poisson stiffness matrix `K` in CSR to reduce
//! memory footprint (§IV-C); we do the same. Assembly goes through
//! [`CooBuilder`] (triplets with duplicate summation), which is the
//! natural output of FEM element loops.

use std::ops::Range;

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

    /// Matrix–vector product `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        self.spmv_rows(0..self.nrows, |j| x[j], y);
    }

    /// Rows `rows` of `y = A x` into `y` (which holds just those rows),
    /// reading `x[j]` as `x(j)`. Each row is one left-to-right
    /// accumulation, so any split of the rows gives [`CsrMatrix::spmv`]'s
    /// bits.
    #[inline]
    pub(crate) fn spmv_rows(&self, rows: Range<usize>, x: impl Fn(usize) -> f64, y: &mut [f64]) {
        assert_eq!(y.len(), rows.len());
        for (yi, i) in y.iter_mut().zip(rows) {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x(self.col_idx[k] as usize);
            }
            *yi = acc;
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

    /// Finalize into CSR, summing duplicates and dropping explicit
    /// zeros produced by cancellation.
    ///
    /// Duplicates are summed in the order `sort_unstable_by_key` leaves
    /// them, which the key does not fix: the last bits of an entry built
    /// from three or more triplets (the Poisson matrix's) depend on the
    /// toolchain's unstable sort. Summing in insertion order would pin
    /// them, and moves φ's last bits once.
    pub fn build(mut self) -> CsrMatrix {
        self.entries
            .sort_unstable_by_key(|&(i, j, _)| ((i as u64) << 32) | j as u64);
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());

        let mut k = 0usize;
        while k < self.entries.len() {
            let (i, j, mut v) = self.entries[k];
            k += 1;
            while k < self.entries.len() && self.entries[k].0 == i && self.entries[k].1 == j {
                v += self.entries[k].2;
                k += 1;
            }
            col_idx.push(j);
            values.push(v);
            row_ptr[i as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
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
