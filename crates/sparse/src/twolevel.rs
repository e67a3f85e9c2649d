//! The CG preconditioner: Jacobi plus a Galerkin coarse-grid
//! correction on the coarse grid the fine one refines (additive
//! two-level Jacobi),
//!
//! `M⁻¹ r = D⁻¹ r + P Ac⁻¹ Pᵀ r`.
//!
//! The fine PIC mesh is an exact 1:8 refinement of the coarse DSMC
//! mesh (paper §IV-A): fine rows `0..nc` are the coarse nodes and fine
//! row `nc + k` is the midpoint of coarse edge `bisected[k]`. `P`
//! interpolates linearly — a coarse node copies its value, a midpoint
//! averages its edge's two ends — and is zero on Dirichlet rows. The
//! coarse unknowns are the coarse nodes that are not Dirichlet nodes,
//! in node order. `Ac = Pᵀ A P` is formed and factored once (envelope
//! Cholesky in that order); only the factor is kept. A correction is
//! one restriction, two triangular sweeps and one prolongation. A
//! matrix without nesting has no coarse unknowns; the same code then
//! applies `D⁻¹ r` alone.
//!
//! The CG iterates on the interior rows only ([`crate::Interior`]), so
//! everything per row here — `D⁻¹`, the slots `P` averages and the rows
//! `Pᵀ` sums — is kept for those rows, in their compact numbering. A
//! Dirichlet row names only the zero slot, so dropping it changes no
//! sum.

use crate::csr::CsrMatrix;

/// `D⁻¹ + P Ac⁻¹ Pᵀ` of one interior system, built once and read by
/// every solve on it.
#[derive(Debug)]
pub struct TwoLevel {
    /// `D⁻¹` (1 on a row without a diagonal).
    inv_diag: Vec<f64>,
    /// Per interior row, the two slots of the coarse vector whose mean
    /// is `(P e)_i`: a coarse node names its own slot twice, a midpoint
    /// its edge's two ends; a Dirichlet end, and a row without nesting,
    /// name the zero slot, slot `nu` (one past the unknowns). Each name
    /// is a weight of ½.
    prolong: Vec<[u32; 2]>,
    /// `Pᵀ` by rows: coarse unknown `j` is named by the interior rows
    /// `named[named_ptr[j]..named_ptr[j + 1]]`, ascending, a row that
    /// names it twice listed twice.
    named_ptr: Vec<u32>,
    named: Vec<u32>,
    /// `Ac = L Lᵀ`.
    factor: Envelope,
}

impl TwoLevel {
    /// The preconditioner of `a`, the interior rows of a matrix whose
    /// nodes are nested as [`TwoLevel`] describes: compact row `k` is
    /// full row `rows[k]`, the last `bisected.len()` full rows are the
    /// midpoints of the coarse edges `bisected`, and `dirichlet` flags
    /// the full rows left out. Empty `bisected` means no nesting:
    /// Jacobi alone.
    pub(crate) fn new(
        a: &CsrMatrix,
        rows: &[u32],
        dirichlet: &[bool],
        bisected: &[[u32; 2]],
    ) -> Self {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        let nc = if bisected.is_empty() {
            0
        } else {
            dirichlet.len() - bisected.len()
        };
        // coarse node → its unknown, or the zero slot `nu`
        let nu = dirichlet[..nc].iter().filter(|&&d| !d).count() as u32;
        let mut next = 0;
        let slot: Vec<u32> = dirichlet[..nc]
            .iter()
            .map(|&d| {
                next += u32::from(!d);
                if d {
                    nu
                } else {
                    next - 1
                }
            })
            .collect();
        let prolong: Vec<[u32; 2]> = rows
            .iter()
            .map(|&i| match (i as usize).checked_sub(nc) {
                None => [slot[i as usize]; 2],
                Some(_) if bisected.is_empty() => [nu; 2],
                Some(k) => bisected[k].map(|c| slot[c as usize]),
            })
            .collect();
        // Pᵀ: count each slot's names, then list the naming rows in
        // ascending order (the zero slot's are dropped)
        let live = |s: &&u32| **s < nu;
        let mut named_ptr = vec![0u32; nu as usize + 1];
        for &s in prolong.iter().flatten().filter(live) {
            named_ptr[s as usize + 1] += 1;
        }
        for j in 0..nu as usize {
            named_ptr[j + 1] += named_ptr[j];
        }
        let mut fill = named_ptr.clone();
        let mut named = vec![0u32; named_ptr[nu as usize] as usize];
        for (i, pair) in prolong.iter().enumerate() {
            for &s in pair.iter().filter(live) {
                named[fill[s as usize] as usize] = i as u32;
                fill[s as usize] += 1;
            }
        }
        let mut two = TwoLevel {
            inv_diag,
            prolong,
            named_ptr,
            named,
            factor: Envelope::default(),
        };
        two.factor = Envelope::factor(&two.galerkin(a));
        two
    }

    /// Coarse unknowns (the non-Dirichlet coarse nodes).
    pub fn coarse_unknowns(&self) -> usize {
        self.named_ptr.len() - 1
    }

    /// Entries of `Ac`'s envelope factor, the diagonal included: the
    /// multiply-adds of one triangular sweep.
    pub fn factor_entries(&self) -> usize {
        self.factor.values.len() + self.factor.inv_diag.len()
    }

    /// The interior rows that name coarse unknown `j`.
    fn named(&self, j: usize) -> &[u32] {
        &self.named[self.named_ptr[j] as usize..self.named_ptr[j + 1] as usize]
    }

    /// `e[..nu] = Pᵀ r`: each unknown sums, from 0, the rows that name
    /// it in ascending order (one term per name) and halves the sum.
    /// `e` has `nu + 1` entries; the zero slot `e[nu]` is set to 0.
    fn restrict(&self, r: &[f64], e: &mut [f64]) {
        let (e, zero) = e.split_at_mut(self.coarse_unknowns());
        for (j, ej) in e.iter_mut().enumerate() {
            *ej = 0.5
                * self
                    .named(j)
                    .iter()
                    .fold(0.0, |acc, &i| acc + r[i as usize]);
        }
        zero[0] = 0.0;
    }

    /// `e[..nu] ← Ac⁻¹ e[..nu]`, in place (forward then backward
    /// sweep); `e[nu]` is left alone.
    pub fn coarse_solve(&self, e: &mut [f64]) {
        self.factor.solve(&mut e[..self.coarse_unknowns()]);
    }

    /// `z = D⁻¹ r + P Ac⁻¹ Pᵀ r` over the interior rows; `e` is the
    /// coarse vector's scratch (`nu + 1` entries).
    pub(crate) fn apply(&self, r: &[f64], e: &mut [f64], z: &mut [f64]) {
        self.restrict(r, e);
        self.coarse_solve(e);
        let rows = z.iter_mut().zip(r).zip(&self.inv_diag).zip(&self.prolong);
        for (((zi, ri), di), &[s, t]) in rows {
            *zi = ri * di + 0.5 * (e[s as usize] + e[t as usize]);
        }
    }

    /// `Pᵀ A P`, one row at a time: the rows of `A` that name unknown
    /// `j` are summed, each column through `P`, in a dense accumulator
    /// over the coarse slots (the zero slot collects what lands on
    /// Dirichlet nodes and is dropped).
    fn galerkin(&self, a: &CsrMatrix) -> CsrMatrix {
        let nu = self.coarse_unknowns();
        let mut acc = vec![0.0f64; nu + 1];
        let mut touched: Vec<u32> = Vec::new();
        let (mut cols, mut vals, mut row_ptr) = (Vec::new(), Vec::new(), vec![0usize]);
        for j in 0..nu {
            for &i in self.named(j) {
                for (k, aik) in a.row(i as usize) {
                    // ½ per name on either side of A
                    let v = 0.25 * aik;
                    for s in self.prolong[k] {
                        if acc[s as usize] == 0.0 {
                            touched.push(s);
                        }
                        acc[s as usize] += v;
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for &s in touched.iter().filter(|&&s| (s as usize) < nu) {
                cols.push(s);
                vals.push(acc[s as usize]);
            }
            for &s in &touched {
                acc[s as usize] = 0.0;
            }
            touched.clear();
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_rows(nu, row_ptr, cols, vals)
    }
}

/// Sum of `a[k]·b[k]` in four interleaved partial sums, so the chain
/// of dependent adds is a quarter as long (a fixed order: the same
/// bits on every call).
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let mut s = [0.0f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let (ta, tb) = (a4.remainder(), b4.remainder());
    for (x, y) in a4.zip(b4) {
        for l in 0..4 {
            s[l] += x[l] * y[l];
        }
    }
    let tail = ta.iter().zip(tb).fold(0.0, |acc, (x, y)| acc + x * y);
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// Row-wise envelope (skyline) Cholesky factor `L` of an SPD matrix:
/// row `i` stores `L[i][first[i]..i]` at `values[start[i]..start[i+1]]`
/// and `1 / L[i][i]` at `inv_diag[i]`.
#[derive(Debug, Default)]
struct Envelope {
    first: Vec<u32>,
    start: Vec<usize>,
    values: Vec<f64>,
    inv_diag: Vec<f64>,
}

impl Envelope {
    /// Factor `a` (its lower triangle is read) in natural order.
    fn factor(a: &CsrMatrix) -> Self {
        let n = a.nrows();
        let first: Vec<u32> = (0..n)
            .map(|i| a.row(i).map(|(j, _)| j).min().unwrap_or(i).min(i) as u32)
            .collect();
        let mut start = vec![0usize; n + 1];
        for i in 0..n {
            start[i + 1] = start[i] + i - first[i] as usize;
        }
        let mut values = vec![0.0f64; start[n]];
        let mut inv_diag = vec![0.0f64; n];
        for i in 0..n {
            let fi = first[i] as usize;
            let mut d = 0.0;
            for (j, v) in a.row(i) {
                if j < i {
                    values[start[i] + j - fi] = v;
                } else if j == i {
                    d = v;
                }
            }
            let (done, rest) = values.split_at_mut(start[i]);
            let row = &mut rest[..i - fi];
            for j in fi..i {
                let fj = first[j] as usize;
                let lo = fi.max(fj);
                let lj = &done[start[j] + lo - fj..start[j + 1]];
                let s = dot4(&row[lo - fi..j - fi], lj);
                row[j - fi] = (row[j - fi] - s) * inv_diag[j];
            }
            d -= dot4(row, row);
            assert!(d > 0.0, "coarse operator not positive definite at row {i}");
            inv_diag[i] = 1.0 / d.sqrt();
        }
        Envelope {
            first,
            start,
            values,
            inv_diag,
        }
    }

    /// `x ← (L Lᵀ)⁻¹ x`.
    fn solve(&self, x: &mut [f64]) {
        let n = self.inv_diag.len();
        for i in 0..n {
            let fi = self.first[i] as usize;
            let s = dot4(&self.values[self.start[i]..self.start[i + 1]], &x[fi..i]);
            x[i] = (x[i] - s) * self.inv_diag[i];
        }
        for i in (0..n).rev() {
            let fi = self.first[i] as usize;
            let xi = x[i] * self.inv_diag[i];
            x[i] = xi;
            for (xk, l) in x[fi..i]
                .iter_mut()
                .zip(&self.values[self.start[i]..self.start[i + 1]])
            {
                *xk -= xi * l;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::csr::CooBuilder;
    use crate::dense::solve_dense;
    use crate::Interior;

    /// Nodes `0..=4` on a line, refined: midpoints `5..=8` of the four
    /// segments. Fine stiffness `tridiag(−1, 2, −1)` in fine order with
    /// node 0 and node 4 Dirichlet: the interior rows are full rows
    /// 1, 2, 3, 5, 6, 7, 8.
    fn nested_line() -> Interior {
        let bisected = vec![[0, 1], [1, 2], [2, 3], [3, 4]];
        // fine position order: 0 5 1 6 2 7 3 8 4
        let order = [0usize, 5, 1, 6, 2, 7, 3, 8, 4];
        let dirichlet: Vec<bool> = (0..9).map(|i| i == 0 || i == 4).collect();
        let compact = |i: usize| i - usize::from(i > 0) - usize::from(i > 4);
        let mut b = CooBuilder::new(7, 7);
        for (p, &i) in order.iter().enumerate() {
            if dirichlet[i] {
                continue;
            }
            b.add(compact(i), compact(i), 2.0);
            for q in [p.wrapping_sub(1), p + 1] {
                if let Some(&j) = order.get(q) {
                    if !dirichlet[j] {
                        b.add(compact(i), compact(j), -1.0);
                    }
                }
            }
        }
        Interior::new(b.build(), &dirichlet, &bisected)
    }

    #[test]
    fn galerkin_operator_of_a_nested_line_is_the_coarse_stiffness() {
        let sys = nested_line();
        // coarse unknowns are nodes 1, 2, 3; Pᵀ A P = ½ tridiag(−1, 2, −1)
        let ac = sys.preconditioner.galerkin(&sys.matrix);
        assert_eq!(ac.nrows(), 3);
        for i in 0..3usize {
            for j in 0..3 {
                let want = match i.abs_diff(j) {
                    0 => 1.0,
                    1 => -0.5,
                    _ => 0.0,
                };
                assert_eq!(ac.get(i, j), want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn coarse_solve_inverts_the_coarse_operator() {
        let sys = nested_line();
        let two = &sys.preconditioner;
        let ac = two.galerkin(&sys.matrix);
        let dense: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..3).map(|j| ac.get(i, j)).collect())
            .collect();
        let rhs = [0.3, -1.0, 2.0];
        let want = solve_dense(&dense, &rhs).unwrap();
        let mut e = vec![rhs[0], rhs[1], rhs[2], 0.0];
        two.coarse_solve(&mut e);
        for (g, w) in e.iter().zip(&want) {
            assert!((g - w).abs() < 1e-14, "{e:?} vs {want:?}");
        }
        assert_eq!(e[3], 0.0, "the zero slot is left alone");
    }

    #[test]
    fn restriction_is_the_transpose_of_prolongation() {
        let sys = nested_line();
        let two = &sys.preconditioner;
        // eᵀ Pᵀ r = (P e)ᵀ r for a coarse e and an interior r
        let r: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut rc = vec![0.0; 4];
        two.restrict(&r, &mut rc);
        let e = [0.25, -0.5, 1.5, 0.0];
        let mut pe = [0.0; 7];
        for (i, &[s, t]) in two.prolong.iter().enumerate() {
            pe[i] = 0.5 * (e[s as usize] + e[t as usize]);
        }
        let lhs: f64 = e.iter().zip(&rc).map(|(x, y)| x * y).sum();
        let rhs: f64 = pe.iter().zip(&r).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-14, "{lhs} vs {rhs}");
        // compact row 3 is full row 5
        assert_eq!(pe[3], 0.5 * e[0], "midpoint of (0, 1) sees only node 1");
    }

    #[test]
    fn without_nesting_it_is_jacobi() {
        let line = nested_line();
        let sys = Interior::new(line.matrix.clone(), &[false; 7], &[]);
        let two = &sys.preconditioner;
        assert_eq!(two.coarse_unknowns(), 0);
        let r: Vec<f64> = (0..7).map(|i| i as f64 - 3.5).collect();
        let mut z = vec![0.0; 7];
        two.apply(&r, &mut [0.0], &mut z);
        for ((zi, ri), d) in z.iter().zip(&r).zip(sys.matrix.diagonal()) {
            assert_eq!(*zi, ri / d);
        }
    }
}
