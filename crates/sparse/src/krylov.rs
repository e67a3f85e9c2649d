//! Krylov subspace solver: preconditioned Conjugate Gradient.
//!
//! Stand-in for the PETSc KSP solver the paper uses for `K φ = b`
//! (§IV-C). The FEM stiffness matrix with Dirichlet rows is symmetric
//! positive definite, so CG is the canonical choice; its preconditioner
//! is [`TwoLevel`](crate::TwoLevel): Jacobi plus a coarse-grid
//! correction on the coarse DSMC mesh the fine PIC mesh refines.
//!
//! A solve runs on one lane over plain vectors of the interior system
//! ([`Interior`]): the grounded identity rows, whose `b` and `x` stay 0
//! for the whole solve, are not iterated on. Every inner product is the
//! in-order fold, from `0.0`, of one partial per [`DET_DOT_BLOCK`] block
//! of the full row index, so the iterates, the stats and the residual
//! history are bitwise those of the whole-vector CG that keeps the
//! grounded rows.

use crate::csr::CsrMatrix;
use crate::interior::Interior;

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

/// Rows of the full row index per reduction block. Every inner product
/// is the in-order sum, from `0.0`, of per-block partials, each the
/// left-to-right sum of its block's interior rows; below one block an
/// inner product is the flat left-to-right sum. This is the summation
/// order every pinned field solve was computed in.
pub const DET_DOT_BLOCK: usize = 1024;

/// Conjugate Gradient preconditioned by Jacobi (a bare matrix has no
/// grounded rows and no coarse grid). `x` holds the initial guess on
/// entry and the solution on exit.
pub fn cg(a: &CsrMatrix, b: &[f64], x: &mut [f64], opts: KrylovOptions) -> SolveStats {
    let sys = Interior::new(a.clone(), &vec![false; a.nrows()], &[]);
    CgWorkspace::new(&sys).solve(&sys, b, x, opts, None)
}

/// What a CG solve on one interior system needs besides the system,
/// `b` and `x`: the work vectors and the coarse vector. Every solve
/// overwrites them before reading them, so nothing carries over from
/// one solve to the next.
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    /// The coarse unknowns, then the zero slot.
    coarse: Vec<f64>,
}

impl CgWorkspace {
    /// Workspace for solves on `sys`.
    pub fn new(sys: &Interior) -> Self {
        let n = sys.matrix.nrows();
        CgWorkspace {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
            coarse: vec![0.0; sys.preconditioner.coarse_unknowns() + 1],
        }
    }

    /// CG on `sys`, whose rows `b` and `x` hold. When `history` is
    /// given, the relative residual of every iteration (including the
    /// final one) is appended.
    pub fn solve(
        &mut self,
        sys: &Interior,
        b: &[f64],
        x: &mut [f64],
        opts: KrylovOptions,
        mut history: Option<&mut Vec<f64>>,
    ) -> SolveStats {
        let (a, m) = (&sys.matrix, &sys.preconditioner);
        let n = b.len();
        assert_eq!(a.nrows(), n);
        assert_eq!(x.len(), n);
        assert_eq!(self.r.len(), n, "workspace built for another system");
        let CgWorkspace {
            r,
            z,
            p,
            ap,
            coarse: e,
        } = self;

        let norm_b = sys.dot(b, b).sqrt();
        if norm_b == 0.0 {
            x.fill(0.0);
            return SolveStats {
                iterations: 0,
                rel_residual: 0.0,
                converged: true,
            };
        }

        a.spmv(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        m.apply(r, e, z);
        let (mut rz, mut rr) = (sys.dot(r, z), sys.dot(r, r));
        let mut beta = 0.0;

        let mut it = 0;
        loop {
            let res = rr.sqrt() / norm_b;
            if let Some(h) = history.as_deref_mut() {
                h.push(res);
            }
            if res <= opts.rtol || it == opts.max_iters {
                return SolveStats {
                    iterations: it,
                    rel_residual: res,
                    converged: res <= opts.rtol,
                };
            }
            if it == 0 {
                p.copy_from_slice(z);
            } else {
                for (pi, zi) in p.iter_mut().zip(&*z) {
                    *pi = zi + beta * *pi;
                }
            }

            a.spmv(p, ap);
            let pap = sys.dot(p, ap);
            if pap <= 0.0 {
                // matrix not SPD (or breakdown): report failure
                return SolveStats {
                    iterations: it,
                    rel_residual: res,
                    converged: false,
                };
            }

            let alpha = rz / pap;
            for (xi, pi) in x.iter_mut().zip(&*p) {
                *xi += alpha * pi;
            }
            let neg_alpha = -alpha;
            for (ri, api) in r.iter_mut().zip(&*ap) {
                *ri += neg_alpha * api;
            }
            m.apply(r, e, z);
            let rz_new = sys.dot(r, z);
            rr = sys.dot(r, r);
            beta = rz_new / rz;
            rz = rz_new;
            it += 1;
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
