//! Dual nested unstructured tetrahedral grids for coupled DSMC/PIC
//! (paper §IV-A).
//!
//! This crate provides:
//! * a small exact-enough geometry kernel ([`geom`]),
//! * the unstructured tet-mesh container with face adjacency
//!   ([`tet`]),
//! * the cylindrical-nozzle mesh generator standing in for
//!   SALOME-produced grids ([`nozzle`]),
//! * nested 1:8 refinement producing the fine PIC grid from the
//!   coarse DSMC grid ([`refine`]); it records the octahedron diagonal
//!   it cuts in each coarse cell, so the fine cell holding a point is
//!   read off the parent's barycentrics
//!   ([`NestedMesh::child_at`](refine::NestedMesh::child_at)),
//! * point location and in-cell ray tracing used by the particle
//!   movers ([`locate`]).

pub mod geom;
pub mod locate;
pub mod nozzle;
pub mod refine;
pub mod tet;
pub mod vtk;

pub use geom::Vec3;
pub use locate::{first_exit, CellLocator};
pub use nozzle::NozzleSpec;
pub use refine::NestedMesh;
pub use tet::{BoundaryKind, FaceTag, TetMesh};
pub use vtk::{write_vtk, CellField};
