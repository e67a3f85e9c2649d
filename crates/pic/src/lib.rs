//! Particle-in-Cell on the fine tetrahedral grid (paper §III-C):
//! charge deposition, FEM Poisson solve (`K φ = b`), electric-field
//! reconstruction `E = −∇φ` and the Boris pusher.

pub mod boris;
pub mod deposit;
pub mod field;
pub mod poisson;
pub mod push;

pub use boris::boris_push;
pub use deposit::{deposit_charge, deposit_charge_into, deposit_charge_pooled, fine_cell_of};
pub use field::ElectricField;
pub use mesh::geom::shape_gradients;
pub use poisson::{PoissonOperator, PoissonSolver, EPS0};
pub use push::{accelerate_charged, accelerate_charged_pooled};
