//! Finite-element Poisson solver on the fine tetrahedral grid
//! (paper §III-C, eq. 4–5): assemble `K φ = b` with linear tet
//! elements, grounded Dirichlet boundaries, CSR storage and a Krylov
//! solve (the paper uses PETSc KSP; we use CG preconditioned by Jacobi
//! plus a Galerkin correction on the coarse DSMC mesh the fine mesh
//! refines, [`sparse::TwoLevel`], iterating on the non-grounded nodes
//! only, [`sparse::Interior`]).
//!
//! `−∇²φ = ρ/ε₀` with `b_i = (1/ε₀) Σ_k q_k λ_i(x_k)` for point
//! charges — exactly the deposition output of [`crate::deposit`].

use kernels::Pool;
use mesh::geom::shape_gradients;
use mesh::{FaceTag, TetMesh};
use sparse::{CgWorkspace, CooBuilder, CsrMatrix, Interior, KrylovOptions, SolveStats};
use std::sync::Arc;

/// Vacuum permittivity (F/m).
pub const EPS0: f64 = 8.854_187_812_8e-12;

/// The assembled Poisson system of one fine grid: everything about
/// `K φ = b` the mesh alone fixes. Immutable once built, so every
/// solver on the grid — the rank threads of a decomposed run, the
/// jobs of a server that share a geometry — reads one copy.
#[derive(Debug)]
pub struct PoissonOperator {
    /// Stiffness matrix with Dirichlet rows replaced by identity.
    pub matrix: CsrMatrix,
    /// Dirichlet flags per node (φ = 0 on all inlet/outlet/wall nodes
    /// — conducting nozzle).
    pub is_boundary: Vec<bool>,
    /// What the CG iterates on: the stiffness matrix of the other
    /// nodes and its preconditioner, Jacobi plus the coarse-grid
    /// correction on the mesh `fine` refines (Jacobi alone if it
    /// refines none).
    pub interior: Interior,
}

impl PoissonOperator {
    /// Assemble the stiffness matrix of `fine` and its preconditioner.
    /// O(cells); call once per mesh (topology never changes during a
    /// run).
    pub fn assemble(fine: &TetMesh) -> Self {
        let n = fine.num_nodes();
        let mut is_boundary = vec![false; n];
        for (t, nb) in fine.neighbors.iter().enumerate() {
            for (f, tag) in nb.iter().enumerate() {
                if matches!(tag, FaceTag::Boundary(_)) {
                    for nd in fine.face_nodes(t, f) {
                        is_boundary[nd as usize] = true;
                    }
                }
            }
        }

        // the stiffness matrix of the interior nodes, numbered compactly
        let mut interior_nodes = 0;
        let compact: Vec<usize> = is_boundary
            .iter()
            .map(|&grounded| {
                let k = interior_nodes;
                interior_nodes += usize::from(!grounded);
                k
            })
            .collect();
        let mut coo = CooBuilder::new(interior_nodes, interior_nodes);
        for t in 0..fine.num_cells() {
            let p = fine.tet_pos(t);
            let g = shape_gradients(p);
            let vol = fine.volumes[t];
            let tet = fine.tets[t];
            for i in 0..4 {
                let gi = tet[i] as usize;
                if is_boundary[gi] {
                    continue; // row replaced by identity
                }
                for j in 0..4 {
                    let gj = tet[j] as usize;
                    if is_boundary[gj] {
                        // grounded boundary (φ=0): column drops out
                        continue;
                    }
                    coo.add(compact[gi], compact[gj], vol * g[i].dot(g[j]));
                }
            }
        }
        let interior = Interior::new(coo.build(), &is_boundary, &fine.bisected);
        PoissonOperator {
            matrix: interior.full_matrix(),
            is_boundary,
            interior,
        }
    }
}

/// The per-engine state of the field solve over a (shared)
/// [`PoissonOperator`], whose `matrix` and `is_boundary` the solver
/// derefs to.
pub struct PoissonSolver {
    op: Arc<PoissonOperator>,
    /// Last solution, reused as the warm start (successive PIC steps
    /// change ρ slowly, so warm starting saves most iterations).
    phi: Vec<f64>,
    opts: KrylovOptions,
    /// Solve scratch kept between solves (the matrix never changes),
    /// over the interior nodes: the right-hand side, the iterate and
    /// the CG work vectors.
    b: Vec<f64>,
    x: Vec<f64>,
    cg: CgWorkspace,
}

impl std::ops::Deref for PoissonSolver {
    type Target = PoissonOperator;

    fn deref(&self) -> &PoissonOperator {
        &self.op
    }
}

impl PoissonSolver {
    /// A solver on an operator of its own, assembled from `fine`.
    pub fn new(fine: &TetMesh, opts: KrylovOptions) -> Self {
        Self::on(Arc::new(PoissonOperator::assemble(fine)), opts)
    }

    /// A solver on the already assembled `op`, starting from φ = 0.
    pub fn on(op: Arc<PoissonOperator>, opts: KrylovOptions) -> Self {
        let interior = op.interior.rows().len();
        PoissonSolver {
            phi: vec![0.0; op.matrix.nrows()],
            opts,
            b: vec![0.0; interior],
            x: vec![0.0; interior],
            cg: CgWorkspace::new(&op.interior),
            op,
        }
    }

    /// The operator this solver reads (shared when built by
    /// [`PoissonSolver::on`]).
    pub fn operator(&self) -> &Arc<PoissonOperator> {
        &self.op
    }

    /// Solve for the potential given the deposited *real* node charge
    /// (C). Returns `(φ, stats)`; φ is also cached internally as the
    /// next warm start.
    pub fn solve(&mut self, node_charge: &[f64]) -> (&[f64], SolveStats) {
        self.solve_with(node_charge, &Pool::serial(), None)
    }

    /// As [`PoissonSolver::solve`], with an optional per-iteration
    /// residual history capture. The CG runs on one lane over the
    /// interior nodes: it gathers `b` and the warm start there, and φ
    /// is scattered back with every grounded node at `+0.0`. `_pool`
    /// is unused; the benchmark ledger's call pins the signature.
    pub fn solve_with(
        &mut self,
        node_charge: &[f64],
        _pool: &Pool,
        history: Option<&mut Vec<f64>>,
    ) -> (&[f64], SolveStats) {
        let op = &*self.op;
        assert_eq!(node_charge.len(), self.phi.len());
        let rows = op.interior.rows();
        for ((bi, xi), &i) in self.b.iter_mut().zip(&mut self.x).zip(rows) {
            *bi = node_charge[i as usize] / EPS0;
            *xi = self.phi[i as usize];
        }
        let stats = self
            .cg
            .solve(&op.interior, &self.b, &mut self.x, self.opts, history);
        for (phi, &grounded) in self.phi.iter_mut().zip(&op.is_boundary) {
            if grounded {
                *phi = 0.0;
            }
        }
        for (&xi, &i) in self.x.iter().zip(rows) {
            self.phi[i as usize] = xi;
        }
        (&self.phi, stats)
    }

    /// Current cached potential.
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Restore a potential snapshot (checkpoint state: `phi` doubles
    /// as the CG warm start, so the first solve after a restart must
    /// begin from the same iterate to stay bit-identical).
    pub fn set_phi(&mut self, phi: &[f64]) {
        assert_eq!(phi.len(), self.phi.len(), "node count mismatch");
        self.phi.copy_from_slice(phi);
    }

    /// Number of unknowns.
    pub fn num_nodes(&self) -> usize {
        self.phi.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::{NestedMesh, NozzleSpec};

    fn fine_mesh() -> TetMesh {
        let spec = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        };
        let coarse = spec.generate();
        NestedMesh::from_coarse(coarse, move |c, n| spec.classify(c, n)).fine
    }

    #[test]
    fn matrix_is_symmetric_spd_like() {
        let fine = fine_mesh();
        let s = PoissonSolver::new(&fine, KrylovOptions::default());
        assert!(s.matrix.is_symmetric(1e-10));
        // diagonal strictly positive
        for d in s.matrix.diagonal() {
            assert!(d > 0.0);
        }
    }

    #[test]
    fn zero_charge_gives_zero_potential() {
        let fine = fine_mesh();
        let mut s = PoissonSolver::new(&fine, KrylovOptions::default());
        let zeros = vec![0.0; fine.num_nodes()];
        let (phi, stats) = s.solve(&zeros);
        assert!(stats.converged);
        assert!(phi.iter().all(|&p| p.abs() < 1e-12));
    }

    #[test]
    fn point_charge_creates_positive_interior_potential() {
        let fine = fine_mesh();
        let mut s = PoissonSolver::new(&fine, KrylovOptions::default());
        // put charge on some interior node
        let interior = (0..fine.num_nodes())
            .find(|&i| !s.is_boundary[i])
            .expect("interior node exists");
        let mut q = vec![0.0; fine.num_nodes()];
        q[interior] = 1e-15; // ~6k elementary charges
        let (phi, stats) = s.solve(&q);
        let phi = phi.to_vec();
        assert!(stats.converged, "{stats:?}");
        assert!(phi[interior] > 0.0);
        // boundary stays grounded
        for (i, &b) in s.is_boundary.iter().enumerate() {
            if b {
                assert_eq!(phi[i], 0.0);
            }
        }
        // the charged node has the max potential
        let max = phi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((phi[interior] - max).abs() < 1e-12);
    }

    #[test]
    fn owned_scratch_leaks_nothing_between_solves() {
        let fine = fine_mesh();
        let opts = KrylovOptions::default();
        let mut s = PoissonSolver::new(&fine, opts);
        // two more solvers on one shared operator, solved turn about:
        // sharing the matrix shares no iterate and no scratch
        let shared = Arc::new(PoissonOperator::assemble(&fine));
        let mut on_shared = [shared.clone(), shared].map(|op| PoissonSolver::on(op, opts));
        assert!(Arc::ptr_eq(
            on_shared[0].operator(),
            on_shared[1].operator()
        ));
        let n = fine.num_nodes();
        let q1: Vec<f64> = (0..n).map(|i| 1e-15 * (i as f64).sin()).collect();
        let q2: Vec<f64> = (0..n).map(|i| 3e-16 * (0.37 * i as f64).cos()).collect();
        // the all-zero charge takes CG's `norm_b == 0` return; the
        // solve after it must not see what the early return skipped
        let charges = [&q1, &q2, &vec![0.0; n], &q1];
        // reference: a throw-away workspace per solve on the same
        // interior system (coarse level included), warm-started from
        // the same iterates, scattered over grounded zeros
        let op = s.operator().clone();
        let sys = &op.interior;
        let rows = sys.rows();
        let mut x = vec![0.0; rows.len()];
        for (k, q) in charges.into_iter().enumerate() {
            let b: Vec<f64> = rows.iter().map(|&i| q[i as usize] / EPS0).collect();
            let want = CgWorkspace::new(sys).solve(sys, &b, &mut x, opts, None);
            let mut want_phi = vec![0.0; n];
            for (&i, &xi) in rows.iter().zip(&x) {
                want_phi[i as usize] = xi;
            }
            let (phi, stats) = s.solve(q);
            assert_eq!(stats, want, "solve {k}");
            assert_eq!(stats.iterations == 0, k == 2, "solve {k}: {stats:?}");
            for (got, want) in phi.iter().zip(&want_phi) {
                assert_eq!(got.to_bits(), want.to_bits(), "solve {k}");
            }
            for other in &mut on_shared {
                let (phi, stats) = other.solve(q);
                assert_eq!(stats, want, "solve {k} on the shared operator");
                for (got, want) in phi.iter().zip(&want_phi) {
                    assert_eq!(got.to_bits(), want.to_bits(), "solve {k}, shared");
                }
            }
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let fine = fine_mesh();
        let mut s = PoissonSolver::new(&fine, KrylovOptions::default());
        let interior = (0..fine.num_nodes()).find(|&i| !s.is_boundary[i]).unwrap();
        let mut q = vec![0.0; fine.num_nodes()];
        q[interior] = 1e-15;
        let (_, cold) = s.solve(&q);
        // tiny perturbation: warm start should converge much faster
        q[interior] *= 1.0001;
        let (_, warm) = s.solve(&q);
        assert!(warm.iterations < cold.iterations, "{warm:?} vs {cold:?}");
    }
}
