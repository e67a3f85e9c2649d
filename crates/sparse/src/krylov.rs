//! Krylov subspace solver: preconditioned Conjugate Gradient.
//!
//! Stand-in for the PETSc KSP solver the paper uses for `K φ = b`
//! (§IV-C). The FEM stiffness matrix with Dirichlet rows is symmetric
//! positive definite, so CG is the canonical choice; its preconditioner
//! is [`TwoLevel`]: Jacobi plus a coarse-grid correction on the coarse
//! DSMC mesh the fine PIC mesh refines.
//!
//! A solve is one [`kernels::team`] region. Each lane owns a contiguous
//! run of [`DET_DOT_BLOCK`]-row blocks and does everything row-wise for
//! them — SpMV rows, axpys, `D⁻¹r + Pe`, the `p` update — and writes
//! its blocks' partial sums of every inner product. After a barrier
//! every lane folds all partials in block order, so each lane takes the
//! same branches on the same bits. The coarse correction needs all of
//! `r`: every lane restricts it and solves the coarse system itself,
//! redundantly, so every lane holds the same coarse bits and prolongs
//! them onto its own rows. The bits are the serial solve's for any lane
//! count. Four barriers per iteration: after the `p` update (every
//! lane's SpMV reads all of `p`), after `p·Ap`, after the `r` update
//! (every lane's restriction reads all of `r`), and after `r·z` and
//! `r·r`.

use crate::csr::CsrMatrix;
use crate::twolevel::TwoLevel;
use kernels::{carve_mut, chunk_ranges, team, Pool, TeamBarrier};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Rows per reduction block. Every inner product is the in-order sum,
/// from `0.0`, of per-block partials, each the left-to-right sum of
/// its block; the boundaries depend only on this constant, so a solve
/// gives the same bits on any number of lanes, and below one block an
/// inner product is the flat left-to-right sum.
pub const DET_DOT_BLOCK: usize = 1024;

/// Partial-sum slots of a block. `b·b` (folded before the first
/// barrier that lets any lane on to `p·Ap`) shares the first with
/// `p·Ap`; `r·z` and `r·r` are written in one phase and need two more.
const PAP: usize = 0;
const RZ: usize = 1;
const RR: usize = 2;

// What lanes share holds f64 bits in atomics, so a lane can write its
// own rows or blocks while the others read all of them in a later phase
// without unsafe code. `Relaxed` suffices: a value is read only after
// the barrier that follows its write, and the barrier orders the two.
#[inline]
fn load(v: &AtomicU64) -> f64 {
    f64::from_bits(v.load(Ordering::Relaxed))
}

#[inline]
fn store(v: &AtomicU64, x: f64) {
    v.store(x.to_bits(), Ordering::Relaxed);
}

/// One block's partial: the left-to-right sum of the products.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()
}

/// Conjugate Gradient on one lane, preconditioned by Jacobi (a bare
/// matrix has no coarse grid). `x` holds the initial guess on entry and
/// the solution on exit.
pub fn cg(a: &CsrMatrix, b: &[f64], x: &mut [f64], opts: KrylovOptions) -> SolveStats {
    let m = TwoLevel::new(a, &[], &[]);
    CgWorkspace::new(a.nrows()).solve(a, &m, b, x, opts, &Pool::serial(), None)
}

/// What a CG solve on one matrix needs besides the matrix, its
/// preconditioner, `b` and `x`: the work vectors, the partial sums and
/// each lane's coarse vector. Every solve overwrites them before
/// reading them, so nothing carries over from one solve to the next.
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    /// The vector every lane reads in full: `x` for the initial
    /// residual, then `p` for each SpMV and `r` for each restriction,
    /// each lane writing its own rows.
    shared: Vec<AtomicU64>,
    /// Per-block partial sums, one slot per reduction ([`PAP`]…).
    partials: Vec<[AtomicU64; 3]>,
    /// One coarse vector per lane, its zero slot last; carved by the
    /// caller, so no helper lane allocates.
    coarse: Vec<f64>,
}

impl CgWorkspace {
    /// Workspace for solves on an `n`-row matrix.
    pub fn new(n: usize) -> Self {
        CgWorkspace {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
            shared: (0..n).map(|_| AtomicU64::new(0)).collect(),
            partials: (0..n.div_ceil(DET_DOT_BLOCK).max(1))
                .map(|_| Default::default())
                .collect(),
            coarse: Vec::new(),
        }
    }

    /// CG on `a`, preconditioned by `m` (built for `a`), on
    /// `min(pool.workers(), blocks)` lanes (one spawn per extra lane per
    /// solve). The iterates, the stats and the residual history are
    /// bitwise the same for every lane count. When `history` is given,
    /// the relative residual of every iteration (including the final
    /// one) is appended.
    // the system, its preconditioner, the right-hand side, the iterate,
    // and how far and on how many lanes to iterate
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        a: &CsrMatrix,
        m: &TwoLevel,
        b: &[f64],
        x: &mut [f64],
        opts: KrylovOptions,
        pool: &Pool,
        mut history: Option<&mut Vec<f64>>,
    ) -> SolveStats {
        let n = b.len();
        assert_eq!(a.nrows(), n);
        assert_eq!(m.nrows(), n, "preconditioner built for another matrix");
        assert_eq!(x.len(), n);
        assert_eq!(self.r.len(), n, "workspace built for another matrix");
        let runs = chunk_ranges(self.partials.len(), pool.workers());
        let rows: Vec<Range<usize>> = runs
            .iter()
            .map(|k| k.start * DET_DOT_BLOCK..(k.end * DET_DOT_BLOCK).min(n))
            .collect();
        let slots = m.coarse_unknowns() + 1;
        self.coarse.resize(runs.len() * slots, 0.0);
        let coarse = self.coarse.chunks_exact_mut(slots);
        let [xs, rs, zs, ps, aps] = [
            x,
            &mut self.r[..],
            &mut self.z[..],
            &mut self.p[..],
            &mut self.ap[..],
        ]
        .map(|v| carve_mut(&rows, v));
        let chunks = xs.into_iter().zip(rs).zip(zs.into_iter().zip(ps).zip(aps));
        let lanes = runs
            .into_iter()
            .zip(rows.iter().cloned())
            .zip(chunks.zip(coarse))
            .map(|((blocks, rows), (((x, r), ((z, p), ap)), e))| Lane {
                blocks,
                rows,
                x,
                r,
                z,
                p,
                ap,
                e,
                history: history.take(),
            })
            .collect();
        let shared = Shared {
            a,
            m,
            b,
            v: &self.shared,
            partials: &self.partials,
            opts,
        };
        team(lanes, |_, lane, barrier| lane.solve(&shared, barrier))[0]
    }
}

/// What every lane of a solve reads.
struct Shared<'a> {
    a: &'a CsrMatrix,
    m: &'a TwoLevel,
    b: &'a [f64],
    v: &'a [AtomicU64],
    partials: &'a [[AtomicU64; 3]],
    opts: KrylovOptions,
}

impl Shared<'_> {
    /// Reduction `slot`: every block's partial, in block order.
    fn fold(&self, slot: usize) -> f64 {
        self.partials
            .iter()
            .fold(0.0, |acc, p| acc + load(&p[slot]))
    }

    /// This lane's rows of `y = A v`.
    fn spmv(&self, rows: Range<usize>, y: &mut [f64]) {
        self.a.spmv_rows(rows, |j| load(&self.v[j]), y);
    }
}

/// One lane's share of a solve: its blocks, their rows, its chunks of
/// the row-wise vectors and its own coarse vector (the history goes to
/// lane 0).
struct Lane<'a> {
    blocks: Range<usize>,
    rows: Range<usize>,
    x: &'a mut [f64],
    r: &'a mut [f64],
    z: &'a mut [f64],
    p: &'a mut [f64],
    ap: &'a mut [f64],
    e: &'a mut [f64],
    history: Option<&'a mut Vec<f64>>,
}

impl Lane<'_> {
    /// Write this lane's partials of reduction `slot`; `block_dot`
    /// gets each block's rows relative to the lane's first row.
    fn put(&self, s: &Shared, slot: usize, block_dot: impl Fn(Range<usize>) -> f64) {
        let first = self.rows.start;
        for k in self.blocks.clone() {
            let start = k * DET_DOT_BLOCK;
            let local = start - first..(start + DET_DOT_BLOCK).min(self.rows.end) - first;
            store(&s.partials[k][slot], block_dot(local));
        }
    }

    /// Publish this lane's rows of `r`; once every lane has, restrict
    /// all of it and solve the coarse system (every lane, the same
    /// bits), then `z = D⁻¹ r + P e` on this lane's rows and the
    /// partials of `r·z` and `r·r`.
    fn precondition(&mut self, s: &Shared, barrier: &TeamBarrier) {
        for (vi, &ri) in s.v[self.rows.clone()].iter().zip(&*self.r) {
            store(vi, ri);
        }
        barrier.wait();
        s.m.restrict(|i| load(&s.v[i]), self.e);
        s.m.coarse_solve(self.e);
        s.m.apply_rows(self.rows.clone(), self.r, self.e, self.z);
        let (r, z) = (&*self.r, &*self.z);
        self.put(s, RZ, |l| dot(&r[l.clone()], &z[l]));
        self.put(s, RR, |l| dot(&r[l.clone()], &r[l]));
    }

    fn solve(mut self, s: &Shared, barrier: &TeamBarrier) -> SolveStats {
        let rows = self.rows.clone();
        let (b, shared) = (&s.b[rows.clone()], &s.v[rows.clone()]);
        let opts = s.opts;

        // publish x for every lane's first SpMV; ‖b‖
        for (si, &xi) in shared.iter().zip(&*self.x) {
            store(si, xi);
        }
        self.put(s, PAP, |l| dot(&b[l.clone()], &b[l]));
        barrier.wait();
        let norm_b = s.fold(PAP).sqrt();
        if norm_b == 0.0 {
            self.x.fill(0.0);
            return SolveStats {
                iterations: 0,
                rel_residual: 0.0,
                converged: true,
            };
        }

        s.spmv(rows.clone(), self.r);
        for (ri, bi) in self.r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        // every lane has read x before r takes its place
        barrier.wait();
        self.precondition(s, barrier);
        barrier.wait();
        let (mut rz, mut rr) = (s.fold(RZ), s.fold(RR));
        let mut beta = 0.0;

        let mut it = 0;
        loop {
            let res = rr.sqrt() / norm_b;
            if let Some(h) = self.history.as_mut() {
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
                self.p.copy_from_slice(self.z);
            } else {
                for (pi, zi) in self.p.iter_mut().zip(&*self.z) {
                    *pi = zi + beta * *pi;
                }
            }
            for (si, &pi) in shared.iter().zip(&*self.p) {
                store(si, pi);
            }
            barrier.wait();

            s.spmv(rows.clone(), self.ap);
            let (p, ap) = (&*self.p, &*self.ap);
            self.put(s, PAP, |l| dot(&p[l.clone()], &ap[l]));
            barrier.wait();
            let pap = s.fold(PAP);
            if pap <= 0.0 {
                // matrix not SPD (or breakdown): report failure
                return SolveStats {
                    iterations: it,
                    rel_residual: res,
                    converged: false,
                };
            }

            let alpha = rz / pap;
            for (xi, pi) in self.x.iter_mut().zip(&*self.p) {
                *xi += alpha * pi;
            }
            let neg_alpha = -alpha;
            for (ri, api) in self.r.iter_mut().zip(&*self.ap) {
                *ri += neg_alpha * api;
            }
            self.precondition(s, barrier);
            barrier.wait();
            let rz_new = s.fold(RZ);
            rr = s.fold(RR);
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
