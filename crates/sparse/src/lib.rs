//! Sparse linear algebra for the PIC Poisson solve (§III-C, §IV-C):
//! CSR storage, Jacobi-preconditioned CG (the PETSc KSP stand-in), and
//! a dense oracle for tests.

pub mod csr;
pub mod dense;
pub mod krylov;

pub use csr::{CooBuilder, CsrMatrix};
pub use dense::solve_dense;
pub use krylov::{cg, CgWorkspace, KrylovOptions, SolveStats, DET_DOT_BLOCK};
