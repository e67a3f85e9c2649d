//! Parametric tetrahedral mesh generator for the 3D cylindrical
//! nozzle test geometry (paper Fig. 7).
//!
//! The paper generates its grids with the SALOME platform; we build a
//! faithful stand-in: a cylinder of radius `radius` and length
//! `length` along +z, voxelised on a regular lattice and
//! tetrahedralised with the Kuhn (Freudenthal) 6-tet subdivision.
//! Kuhn subdivision is translation-invariant, so faces of adjacent
//! lattice cubes always match and the resulting mesh is conforming.
//!
//! Boundary faces are tagged:
//! * `z == 0` within `inlet_radius` of the axis → [`BoundaryKind::Inlet`]
//! * `z == length` → [`BoundaryKind::Outlet`]
//! * everything else (the stair-stepped cylinder jacket and the
//!   annular front plate) → [`BoundaryKind::Wall`]

use crate::geom::Vec3;
use crate::tet::{BoundaryKind, TetMesh};
use std::collections::HashMap;

/// Parameters of the cylindrical nozzle mesh.
#[derive(Debug, Clone, Copy)]
pub struct NozzleSpec {
    /// Cylinder radius (m).
    pub radius: f64,
    /// Cylinder length along +z (m).
    pub length: f64,
    /// Radius of the injection disc at `z == 0` (m).
    pub inlet_radius: f64,
    /// Number of lattice cells across the cylinder diameter.
    pub nd: usize,
    /// Number of lattice cells along the cylinder axis.
    pub nz: usize,
}

impl Default for NozzleSpec {
    fn default() -> Self {
        // Millimetre-range plume domain, as in the paper's setup.
        NozzleSpec {
            radius: 5e-3,
            length: 20e-3,
            inlet_radius: 1.5e-3,
            nd: 8,
            nz: 16,
        }
    }
}

/// The six Kuhn tetrahedra of the unit cube, as corner offsets.
///
/// Every tet contains the main diagonal (0,0,0)–(1,1,1); the two
/// middle vertices walk the axes in one of the 3! = 6 orders.
const KUHN_PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

impl NozzleSpec {
    /// The spec's exact bits: two specs generate (and refine to) the
    /// same meshes, bit for bit, exactly when their keys are equal —
    /// the identity a cache of built geometries is keyed by.
    pub fn key(&self) -> [u64; 5] {
        [
            self.radius.to_bits(),
            self.length.to_bits(),
            self.inlet_radius.to_bits(),
            self.nd as u64,
            self.nz as u64,
        ]
    }

    /// Lattice spacing in the radial plane.
    pub fn hx(&self) -> f64 {
        2.0 * self.radius / self.nd as f64
    }

    /// Lattice spacing along the axis.
    pub fn hz(&self) -> f64 {
        self.length / self.nz as f64
    }

    /// Generate the coarse (DSMC) mesh.
    pub fn generate(&self) -> TetMesh {
        assert!(self.nd >= 2 && self.nz >= 1, "nozzle lattice too small");
        assert!(self.inlet_radius <= self.radius);
        let hx = self.hx();
        let hz = self.hz();
        let r2 = self.radius * self.radius;

        let mut node_ids: HashMap<(i64, i64, i64), u32> = HashMap::new();
        let mut nodes: Vec<Vec3> = Vec::new();
        let mut tets: Vec<[u32; 4]> = Vec::new();

        let n = self.nd as i64;
        let mut node = |key: (i64, i64, i64), nodes: &mut Vec<Vec3>| -> u32 {
            *node_ids.entry(key).or_insert_with(|| {
                let id = nodes.len() as u32;
                nodes.push(Vec3::new(
                    key.0 as f64 * hx - self.radius,
                    key.1 as f64 * hx - self.radius,
                    key.2 as f64 * hz,
                ));
                id
            })
        };

        for k in 0..self.nz as i64 {
            for j in 0..n {
                for i in 0..n {
                    // Keep the cube if its centre lies inside the
                    // cylinder cross-section.
                    let cx = (i as f64 + 0.5) * hx - self.radius;
                    let cy = (j as f64 + 0.5) * hx - self.radius;
                    if cx * cx + cy * cy > r2 {
                        continue;
                    }
                    // Corner ids of the cube, indexed by bitmask
                    // dx | dy<<1 | dz<<2.
                    let mut corner = [0u32; 8];
                    for (m, c) in corner.iter_mut().enumerate() {
                        let d = (m as i64 & 1, (m as i64 >> 1) & 1, (m as i64 >> 2) & 1);
                        *c = node((i + d.0, j + d.1, k + d.2), &mut nodes);
                    }
                    for perm in KUHN_PERMS {
                        let mut mask = 0usize;
                        let v0 = corner[0];
                        mask |= 1 << perm[0];
                        let v1 = corner[mask];
                        mask |= 1 << perm[1];
                        let v2 = corner[mask];
                        let v3 = corner[7];
                        tets.push([v0, v1, v2, v3]);
                    }
                }
            }
        }

        let spec = *self;
        TetMesh::build(nodes, tets, move |fc, normal| spec.classify(fc, normal))
    }

    /// Boundary classification used for both the coarse mesh and the
    /// nested fine mesh (see [`crate::refine`]).
    pub fn classify(&self, fc: Vec3, normal: Vec3) -> BoundaryKind {
        let ztol = 1e-9 * self.length.max(1e-12);
        if fc.z <= ztol && normal.z < -0.5 {
            let rr = (fc.x * fc.x + fc.y * fc.y).sqrt();
            if rr <= self.inlet_radius {
                return BoundaryKind::Inlet;
            }
            return BoundaryKind::Wall;
        }
        if fc.z >= self.length - ztol && normal.z > 0.5 {
            return BoundaryKind::Outlet;
        }
        BoundaryKind::Wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tet::FaceTag;

    fn small() -> (NozzleSpec, TetMesh) {
        let spec = NozzleSpec {
            nd: 6,
            nz: 8,
            ..NozzleSpec::default()
        };
        let mesh = spec.generate();
        (spec, mesh)
    }

    #[test]
    fn generates_nonempty_conforming_mesh() {
        let (_spec, m) = small();
        assert!(m.num_cells() > 100);
        assert!(m.num_nodes() > 50);
        // every interior adjacency must be symmetric
        for (t, nb) in m.neighbors.iter().enumerate() {
            for tag in nb {
                if let FaceTag::Interior(o) = tag {
                    let back = m.neighbors[*o as usize]
                        .iter()
                        .filter(|x| **x == FaceTag::Interior(t as u32))
                        .count();
                    assert_eq!(back, 1, "asymmetric adjacency at tet {t}");
                }
            }
        }
    }

    #[test]
    fn all_volumes_positive_and_total_close_to_cylinder() {
        let (spec, m) = small();
        for &v in &m.volumes {
            assert!(v > 0.0);
        }
        let exact = std::f64::consts::PI * spec.radius * spec.radius * spec.length;
        let tot = m.total_volume();
        // voxelisation error: within 40% for this coarse lattice and
        // strictly less than the circumscribing box
        assert!(tot < 4.0 * spec.radius * spec.radius * spec.length);
        assert!(
            (tot - exact).abs() / exact < 0.4,
            "tot={tot}, exact={exact}"
        );
    }

    #[test]
    fn has_all_three_boundary_kinds() {
        let (_spec, m) = small();
        assert!(!m.boundary_faces(BoundaryKind::Inlet).is_empty());
        assert!(!m.boundary_faces(BoundaryKind::Outlet).is_empty());
        assert!(!m.boundary_faces(BoundaryKind::Wall).is_empty());
    }

    #[test]
    fn inlet_faces_at_z0_within_radius() {
        let (spec, m) = small();
        for (t, f) in m.boundary_faces(BoundaryKind::Inlet) {
            let (fc, n) = m.face_centroid_normal(t as usize, f as usize);
            assert!(fc.z.abs() < 1e-12);
            assert!(n.normalized().z < -0.9);
            assert!((fc.x * fc.x + fc.y * fc.y).sqrt() <= spec.inlet_radius + 1e-12);
        }
    }

    #[test]
    fn outlet_faces_at_far_end() {
        let (spec, m) = small();
        for (t, f) in m.boundary_faces(BoundaryKind::Outlet) {
            let (fc, _n) = m.face_centroid_normal(t as usize, f as usize);
            assert!((fc.z - spec.length).abs() < 1e-12);
        }
    }

    #[test]
    fn key_separates_every_field_and_equates_copies() {
        let base = NozzleSpec::default();
        let copy = base;
        assert_eq!(base.key(), copy.key());
        let variants = [
            NozzleSpec {
                // one ulp, not one percent: the key is the exact bits
                radius: f64::from_bits(base.radius.to_bits() + 1),
                ..base
            },
            NozzleSpec {
                length: base.length * 2.0,
                ..base
            },
            NozzleSpec {
                inlet_radius: base.inlet_radius * 0.5,
                ..base
            },
            NozzleSpec {
                nd: base.nd + 1,
                ..base
            },
            NozzleSpec {
                nz: base.nz + 1,
                ..base
            },
            // swapping two fields' values is not the same spec
            NozzleSpec {
                nd: base.nz,
                nz: base.nd,
                ..base
            },
        ];
        for (i, a) in variants.iter().enumerate() {
            assert_ne!(a.key(), base.key(), "variant {i}");
            for b in &variants[i + 1..] {
                assert_ne!(a.key(), b.key(), "variant {i}");
            }
        }
    }

    #[test]
    fn resolution_scales_cell_count() {
        let a = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        }
        .generate();
        let b = NozzleSpec {
            nd: 8,
            nz: 8,
            ..NozzleSpec::default()
        }
        .generate();
        assert!(b.num_cells() > 4 * a.num_cells());
    }
}
