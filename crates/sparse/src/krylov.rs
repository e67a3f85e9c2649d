//! Krylov subspace solver: preconditioned Conjugate Gradient.
//!
//! Stand-in for the PETSc KSP solver the paper uses for `K φ = b`
//! (§IV-C). The FEM stiffness matrix with Dirichlet rows is symmetric
//! positive definite, so CG with a Jacobi preconditioner is the
//! canonical choice.

use crate::csr::CsrMatrix;
use kernels::Pool;

/// Convergence report of a Krylov solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual ‖b − Ax‖ / ‖b‖.
    pub rel_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct KrylovOptions {
    /// Relative residual tolerance.
    pub rtol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        KrylovOptions {
            rtol: 1e-8,
            max_iters: 2000,
        }
    }
}

/// Fixed block size of [`det_dot`]; boundaries depend only on this
/// constant, never on the worker count.
pub const DET_DOT_BLOCK: usize = 1024;

/// Deterministic (worker-count-invariant) dot product: partial sums
/// over fixed [`DET_DOT_BLOCK`]-sized blocks are computed in parallel
/// and folded in block-index order, so the result is bitwise identical
/// whether `pool` has 1 worker or 64. For `n ≤ DET_DOT_BLOCK` this is
/// exactly the flat left-to-right sum.
pub fn det_dot(a: &[f64], b: &[f64], pool: &Pool) -> f64 {
    assert_eq!(a.len(), b.len());
    pool.par_map_reduce(
        a.len(),
        DET_DOT_BLOCK,
        |r| {
            a[r.clone()]
                .iter()
                .zip(&b[r])
                .map(|(x, y)| x * y)
                .sum::<f64>()
        },
        0.0f64,
        |acc, s| acc + s,
    )
}

#[inline]
fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Jacobi (diagonal) preconditioner: `z = D⁻¹ r`.
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Build from the matrix diagonal; zero diagonals become identity
    /// rows in the preconditioner.
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Jacobi { inv_diag }
    }

    #[inline]
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Preconditioned Conjugate Gradient. `x` holds the initial guess on
/// entry and the solution on exit. Serial convenience wrapper over
/// [`cg_with`].
pub fn cg(a: &CsrMatrix, b: &[f64], x: &mut [f64], opts: KrylovOptions) -> SolveStats {
    cg_with(a, b, x, opts, &Pool::serial(), None)
}

/// Preconditioned Conjugate Gradient with an explicit worker [`Pool`]
/// and optional residual-history capture: a one-shot
/// [`CgWorkspace::solve`] (a caller solving on one matrix repeatedly
/// keeps the workspace instead).
///
/// SpMV is row-chunked across the pool (bitwise identical to serial)
/// and every inner product goes through [`det_dot`] (fixed-block
/// reduction order), so the iterates, residual history and solution
/// are **bitwise identical for any worker count**. When `history` is
/// given, the relative residual of every iteration (including the
/// final one) is appended.
pub fn cg_with(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    opts: KrylovOptions,
    pool: &Pool,
    history: Option<&mut Vec<f64>>,
) -> SolveStats {
    CgWorkspace::new(a).solve(a, b, x, opts, pool, history)
}

/// What a CG solve on one matrix needs besides `b` and `x`: the Jacobi
/// preconditioner (a scan of every non-zero) and the four work vectors.
/// Every solve overwrites the vectors before reading them, so nothing
/// carries over from one solve to the next.
pub struct CgWorkspace {
    pre: Jacobi,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgWorkspace {
    /// Workspace for solves on `a`.
    pub fn new(a: &CsrMatrix) -> Self {
        let n = a.nrows();
        CgWorkspace {
            pre: Jacobi::new(a),
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
        }
    }

    /// [`cg_with`] on `a`, which must be the matrix this workspace was
    /// built for.
    pub fn solve(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        opts: KrylovOptions,
        pool: &Pool,
        mut history: Option<&mut Vec<f64>>,
    ) -> SolveStats {
        let n = b.len();
        assert_eq!(a.nrows(), n);
        assert_eq!(x.len(), n);
        assert_eq!(self.r.len(), n, "workspace built for another matrix");
        // slices of the one length `n`: the loops below index them unchecked
        let pre = &self.pre;
        let (r, z) = (&mut self.r[..n], &mut self.z[..n]);
        let (p, ap) = (&mut self.p[..n], &mut self.ap[..n]);

        let norm_b = det_dot(b, b, pool).sqrt();
        if norm_b == 0.0 {
            x.fill(0.0);
            return SolveStats {
                iterations: 0,
                rel_residual: 0.0,
                converged: true,
            };
        }

        a.spmv_pooled(x, r, pool);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        pre.apply(r, z);
        p.copy_from_slice(z);
        let mut rz = det_dot(r, z, pool);

        for it in 0..opts.max_iters {
            let res = det_dot(r, r, pool).sqrt() / norm_b;
            if let Some(h) = history.as_mut() {
                h.push(res);
            }
            if res <= opts.rtol {
                return SolveStats {
                    iterations: it,
                    rel_residual: res,
                    converged: true,
                };
            }
            a.spmv_pooled(p, ap, pool);
            let pap = det_dot(p, ap, pool);
            if pap <= 0.0 {
                // matrix not SPD (or breakdown): report failure
                return SolveStats {
                    iterations: it,
                    rel_residual: res,
                    converged: false,
                };
            }
            let alpha = rz / pap;
            axpy(alpha, p, x);
            axpy(-alpha, ap, r);
            pre.apply(r, z);
            let rz_new = det_dot(r, z, pool);
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }

        let res = det_dot(r, r, pool).sqrt() / norm_b;
        if let Some(h) = history.as_mut() {
            h.push(res);
        }
        SolveStats {
            iterations: opts.max_iters,
            rel_residual: res,
            converged: res <= opts.rtol,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;

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
    fn cg_with_pool_is_bitwise_worker_invariant() {
        let n = 3000; // > DET_DOT_BLOCK so blocked reduction is exercised
        let a = laplacian_1d(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let b = a.mul_vec(&xs);
        let solve = |workers: usize| {
            let mut x = vec![0.0; n];
            let mut hist = Vec::new();
            let opts = KrylovOptions {
                rtol: 1e-10,
                max_iters: 400,
            };
            let stats = cg_with(&a, &b, &mut x, opts, &Pool::new(workers), Some(&mut hist));
            (x, hist, stats)
        };
        let (x1, h1, s1) = solve(1);
        assert_eq!(h1.len(), s1.iterations + 1);
        for w in [2usize, 4, 8] {
            let (xw, hw, sw) = solve(w);
            assert_eq!(s1.iterations, sw.iterations, "workers={w}");
            assert_eq!(h1.len(), hw.len(), "workers={w}");
            for (a, b) in h1.iter().zip(&hw) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={w}");
            }
            for (a, b) in x1.iter().zip(&xw) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={w}");
            }
        }
    }

    #[test]
    fn spmv_pooled_matches_serial_bitwise() {
        let n = 2500;
        let a = laplacian_1d(n);
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 29) % 97) as f64 * 0.013 - 0.5)
            .collect();
        let mut y_serial = vec![0.0; n];
        a.spmv(&x, &mut y_serial);
        for w in [2usize, 3, 4, 8] {
            let mut y = vec![0.0; n];
            a.spmv_pooled(&x, &mut y, &Pool::new(w));
            for (s, p) in y_serial.iter().zip(&y) {
                assert_eq!(s.to_bits(), p.to_bits(), "workers={w}");
            }
        }
    }

    #[test]
    fn det_dot_matches_flat_sum_small_and_is_invariant_large() {
        let small: Vec<f64> = (0..600).map(|i| (i as f64).sqrt() * 0.1).collect();
        let flat: f64 = small.iter().map(|v| v * v).sum();
        assert_eq!(
            det_dot(&small, &small, &Pool::serial()).to_bits(),
            flat.to_bits()
        );
        let large: Vec<f64> = (0..10_000)
            .map(|i| ((i * 13) % 701) as f64 * 1e-3)
            .collect();
        let d1 = det_dot(&large, &large, &Pool::new(1));
        for w in [2usize, 4, 16] {
            assert_eq!(
                d1.to_bits(),
                det_dot(&large, &large, &Pool::new(w)).to_bits()
            );
        }
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 50;
        let a = laplacian_1d(n);
        // manufactured solution
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.mul_vec(&xs);
        let mut x = vec![0.0; n];
        let stats = cg(&a, &b, &mut x, KrylovOptions::default());
        assert!(stats.converged, "{stats:?}");
        for (xi, xsi) in x.iter().zip(&xs) {
            assert!((xi - xsi).abs() < 1e-6);
        }
    }

    #[test]
    fn cg_zero_rhs_gives_zero() {
        let a = laplacian_1d(10);
        let mut x = vec![1.0; 10];
        let stats = cg(&a, &[0.0; 10], &mut x, KrylovOptions::default());
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cg_warm_start_converges_faster() {
        let n = 100;
        let a = laplacian_1d(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let b = a.mul_vec(&xs);
        let mut cold = vec![0.0; n];
        let s_cold = cg(&a, &b, &mut cold, KrylovOptions::default());
        // warm start from a slightly perturbed exact solution
        let mut warm: Vec<f64> = xs.iter().map(|v| v + 1e-6).collect();
        let s_warm = cg(&a, &b, &mut warm, KrylovOptions::default());
        assert!(s_warm.iterations < s_cold.iterations);
    }

    #[test]
    fn cg_detects_non_spd() {
        let mut bld = CooBuilder::new(2, 2);
        bld.add(0, 0, -1.0);
        bld.add(1, 1, -1.0);
        let a = bld.build();
        let mut x = vec![0.0; 2];
        let stats = cg(&a, &[1.0, 1.0], &mut x, KrylovOptions::default());
        assert!(!stats.converged);
    }

    #[test]
    fn iteration_counts_grow_with_problem_size() {
        // classic CG behaviour on the 1-D Laplacian: iterations scale
        // with n — this is the root cause of the paper's Poisson_Solve
        // scalability bottleneck (Table IV).
        let small = {
            let a = laplacian_1d(16);
            let b = vec![1.0; 16];
            let mut x = vec![0.0; 16];
            cg(&a, &b, &mut x, KrylovOptions::default()).iterations
        };
        let large = {
            let a = laplacian_1d(256);
            let b = vec![1.0; 256];
            let mut x = vec![0.0; 256];
            cg(&a, &b, &mut x, KrylovOptions::default()).iterations
        };
        assert!(large > small);
    }
}
