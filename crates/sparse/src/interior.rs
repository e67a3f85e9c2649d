//! The interior system of a matrix with grounded rows: what the CG
//! iterates on.
//!
//! A grounded (Dirichlet) row is identity with `b = 0`, and assembly
//! drops its column from every other row, so its unknown is 0 whatever
//! the rest of the system holds. The CG therefore runs on the other
//! rows only, numbered compactly in ascending order: `A_II` with compact
//! columns, and its preconditioner over the same rows ([`TwoLevel`]).
//! The compaction is monotone, so every row keeps its column order and
//! every SpMV row and restriction sums the same terms in the same order
//! as on the full matrix.
//!
//! Inner products keep the blocking of the full row index: full block
//! `k` ([`DET_DOT_BLOCK`] rows) is the compact range `blocks[k]..
//! blocks[k + 1]`, empty when the whole block is grounded. On the full
//! matrix a grounded row only ever adds ±0 to its block's partial, and
//! the partials fold from `0.0`, so every inner product — and with it
//! every iterate, residual and branch — is the full solve's, bit for bit.

use crate::csr::CsrMatrix;
use crate::krylov::DET_DOT_BLOCK;
use crate::twolevel::TwoLevel;

/// `A_II`, its preconditioner and the map back to the full rows.
#[derive(Debug)]
pub struct Interior {
    /// The non-grounded rows and columns, compactly numbered.
    pub matrix: CsrMatrix,
    /// Jacobi plus the coarse-grid correction, over the compact rows.
    pub preconditioner: TwoLevel,
    /// Full row of each compact row, ascending.
    rows: Vec<u32>,
    /// First compact row of each full [`DET_DOT_BLOCK`] block, then the
    /// interior length.
    blocks: Vec<usize>,
    /// Rows of the full matrix.
    full: usize,
}

impl Interior {
    /// The interior system of the `dirichlet.len()`-row matrix whose
    /// flagged rows are identity and whose other rows are `matrix`,
    /// assembled on the compact numbering (with no grounded column).
    /// `bisected` nests the full rows as [`TwoLevel`] describes; empty,
    /// the preconditioner is Jacobi alone.
    pub fn new(matrix: CsrMatrix, dirichlet: &[bool], bisected: &[[u32; 2]]) -> Self {
        let full = dirichlet.len();
        let rows: Vec<u32> = (0..full as u32)
            .filter(|&i| !dirichlet[i as usize])
            .collect();
        assert_eq!(
            matrix.nrows(),
            rows.len(),
            "one matrix row per interior row"
        );
        let blocks = (0..=full.div_ceil(DET_DOT_BLOCK).max(1))
            .map(|k| rows.partition_point(|&i| (i as usize) < k * DET_DOT_BLOCK))
            .collect();
        let preconditioner = TwoLevel::new(&matrix, &rows, dirichlet, bisected);
        Interior {
            matrix,
            preconditioner,
            rows,
            blocks,
            full,
        }
    }

    /// Full row of each compact row, ascending: where a solve gathers
    /// `b` and its warm start from and scatters `x` to.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The full matrix: `A_II` at the full indices, identity on the
    /// grounded rows.
    pub fn full_matrix(&self) -> CsrMatrix {
        let nnz = self.matrix.nnz() + self.full - self.rows.len();
        let (mut cols, mut vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let mut row_ptr = Vec::with_capacity(self.full + 1);
        row_ptr.push(0);
        let mut next = self.rows.iter().enumerate().peekable();
        for i in 0..self.full as u32 {
            match next.next_if(|&(_, &r)| r == i) {
                Some((k, _)) => {
                    for (j, v) in self.matrix.row(k) {
                        cols.push(self.rows[j]);
                        vals.push(v);
                    }
                }
                None => {
                    cols.push(i);
                    vals.push(1.0);
                }
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_rows(self.full, row_ptr, cols, vals)
    }

    /// `u · v` over the interior rows: the in-order fold, from `0.0`,
    /// of each full block's partial, the left-to-right sum of its rows.
    pub(crate) fn dot(&self, u: &[f64], v: &[f64]) -> f64 {
        self.blocks.windows(2).fold(0.0, |acc, w| {
            let (u, v) = (&u[w[0]..w[1]], &v[w[0]..w[1]]);
            acc + u.iter().zip(v).map(|(x, y)| x * y).sum::<f64>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;

    #[test]
    fn full_matrix_is_the_interior_rows_among_identity_rows() {
        // full rows 0..6, rows 0, 3 and 5 grounded
        let dirichlet = [true, false, false, true, false, true];
        let rows = [1, 2, 4];
        let (mut a, mut want) = (CooBuilder::new(3, 3), CooBuilder::new(6, 6));
        for (i, j, v) in [
            (0, 0, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (1, 2, -0.5),
            (2, 1, -0.5),
            (2, 2, 3.0),
        ] {
            a.add(i, j, v);
            want.add(rows[i], rows[j], v);
        }
        for i in [0, 3, 5] {
            want.add(i, i, 1.0);
        }
        let sys = Interior::new(a.build(), &dirichlet, &[]);
        assert_eq!(sys.rows(), [1, 2, 4]);
        assert_eq!(sys.full_matrix(), want.build());
    }

    #[test]
    fn blocks_split_the_full_index() {
        // a whole block grounded, then grounded rows inside a block
        let n = 3 * DET_DOT_BLOCK + 5;
        let grounded =
            |i: usize| (DET_DOT_BLOCK..2 * DET_DOT_BLOCK).contains(&i) || i.is_multiple_of(7);
        let dirichlet: Vec<bool> = (0..n).map(grounded).collect();
        let ni = dirichlet.iter().filter(|&&d| !d).count();
        let sys = Interior::new(CooBuilder::new(ni, ni).build(), &dirichlet, &[]);
        let before = |end: usize| (0..end).filter(|&i| !grounded(i)).count();
        let want: Vec<usize> = [0, DET_DOT_BLOCK, 2 * DET_DOT_BLOCK, 3 * DET_DOT_BLOCK, n]
            .map(before)
            .into();
        assert_eq!(sys.blocks, want);
        assert_eq!(sys.blocks[1], sys.blocks[2], "the grounded block is empty");
    }
}
