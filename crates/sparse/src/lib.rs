//! Sparse linear algebra for the PIC Poisson solve (§III-C, §IV-C):
//! CSR storage, CG (the PETSc KSP stand-in) preconditioned by Jacobi
//! plus a Galerkin coarse-grid correction on the nested coarse mesh,
//! and a dense oracle for tests.

pub mod csr;
pub mod dense;
pub mod krylov;
pub mod twolevel;

pub use csr::{CooBuilder, CsrMatrix};
pub use dense::solve_dense;
pub use krylov::{cg, CgWorkspace, KrylovOptions, SolveStats, DET_DOT_BLOCK};
pub use twolevel::TwoLevel;
