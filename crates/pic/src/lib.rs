//! Particle-in-Cell on the fine tetrahedral grid (paper §III-C):
//! charge deposition, FEM Poisson solve (`K φ = b`), the electric
//! field `E = −∇φ` gathered at each ion from its fine cell, and the
//! Boris pusher. Both the deposit and the gather read an ion's fine
//! cell off its coarse parent's barycentrics
//! ([`mesh::NestedMesh::child_at`]); only a point that no child
//! clearly holds takes the exhaustive scan over the eight children.

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
