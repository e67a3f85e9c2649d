//! Electric field from the potential: `E = −∇φ` (paper eq. 3),
//! piecewise constant per fine cell with linear elements. The field
//! keeps the potential of the last solve and gathers `E` at each
//! charged particle from its fine cell's shape gradients, so a solve
//! costs one copy of φ and only cells that hold ions are ever
//! differentiated.

use mesh::{NestedMesh, TetMesh, Vec3};

/// `E = −∇φ` of the potential it was last refreshed from.
#[derive(Debug, Clone)]
pub struct ElectricField {
    /// Node potential (V), copied in place on each refresh; empty
    /// before the first one, when the field is zero everywhere.
    phi: Vec<f64>,
}

impl ElectricField {
    /// Zero field (used before the first Poisson solve: the paper
    /// drives particles "by the electric field of the previous
    /// timestep").
    pub fn zeros(_fine: &TetMesh) -> Self {
        ElectricField { phi: Vec::new() }
    }

    /// The field `E = −∇φ` of the potential `phi` on `fine`'s nodes.
    pub fn from_potential(fine: &TetMesh, phi: &[f64]) -> Self {
        let mut field = Self::zeros(fine);
        field.refresh(fine, phi);
        field
    }

    /// Overwrite this field with `E = −∇φ`: copy `phi` into the kept
    /// potential, reusing its allocation.
    pub fn refresh(&mut self, fine: &TetMesh, phi: &[f64]) {
        assert_eq!(phi.len(), fine.num_nodes());
        self.phi.clear();
        self.phi.extend_from_slice(phi);
    }

    /// Field at a particle position inside coarse cell `coarse_cell`:
    /// `−Σ_k g_k φ_k` over the vertices of the fine cell holding `pos`,
    /// the gradients `g_k` read from the fine mesh's table
    /// ([`TetMesh::shape_gradient_table`], filled on its first call).
    pub fn at(&self, nm: &NestedMesh, coarse_cell: usize, pos: Vec3) -> Vec3 {
        if self.phi.is_empty() {
            return Vec3::ZERO;
        }
        let f = crate::deposit::fine_cell_of(nm, coarse_cell, pos);
        let g = &nm.fine.shape_gradient_table()[f];
        let tet = nm.fine.tets[f];
        let mut grad = Vec3::ZERO;
        for k in 0..4 {
            grad += g[k] * self.phi[tet[k] as usize];
        }
        -grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::NozzleSpec;

    fn nested() -> NestedMesh {
        let spec = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        };
        let coarse = spec.generate();
        NestedMesh::from_coarse(coarse, move |c, n| spec.classify(c, n))
    }

    /// The field gathered at every fine cell's centroid, located
    /// through its coarse parent.
    fn gathered(e: &ElectricField, nm: &NestedMesh) -> Vec<Vec3> {
        (0..nm.fine.num_cells())
            .map(|f| e.at(nm, nm.fine_parent[f] as usize, nm.fine.centroids[f]))
            .collect()
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x, v.y, v.z].map(f64::to_bits)
    }

    #[test]
    fn zero_potential_zero_field() {
        let nm = nested();
        let phi = vec![0.0; nm.fine.num_nodes()];
        let e = ElectricField::from_potential(&nm.fine, &phi);
        assert!(gathered(&e, &nm).iter().all(|v| v.norm() == 0.0));
        // a never-refreshed field gathers +0.0; one refreshed from
        // φ ≡ 0 gathers −(0 + Σ g·0) = −0.0, as the per-cell pass wrote
        let plus = bits(Vec3::ZERO);
        let minus = bits(-Vec3::ZERO);
        let never = ElectricField::zeros(&nm.fine);
        assert!(gathered(&never, &nm).into_iter().all(|v| bits(v) == plus));
        assert!(gathered(&e, &nm).into_iter().all(|v| bits(v) == minus));
    }

    #[test]
    fn linear_potential_gives_constant_field() {
        let nm = nested();
        // φ = 100 · z  =>  E = (0, 0, −100)
        let phi: Vec<f64> = nm.fine.nodes.iter().map(|p| 100.0 * p.z).collect();
        let e = ElectricField::from_potential(&nm.fine, &phi);
        for v in gathered(&e, &nm) {
            assert!((v.z + 100.0).abs() < 1e-6, "{v:?}");
            assert!(v.x.abs() < 1e-6 && v.y.abs() < 1e-6);
        }
        // gather at arbitrary points agrees
        let c = nm.num_coarse() / 2;
        let at = e.at(&nm, c, nm.coarse.centroids[c]);
        assert!((at.z + 100.0).abs() < 1e-6);
    }

    #[test]
    fn table_read_equals_per_cell_recompute_bitwise() {
        let spec = NozzleSpec {
            nd: 6,
            nz: 10,
            ..NozzleSpec::default()
        };
        let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
        let fine = &nm.fine;
        let boundary = crate::PoissonOperator::assemble(fine).is_boundary;
        let phi: Vec<f64> = (0..fine.num_nodes())
            .map(|i| if boundary[i] { 0.0 } else { (i as f64).sin() })
            .collect();
        // a stale field refreshed in place and a fresh one agree with
        // the gradient re-derived cell by cell
        let mut stale = ElectricField::from_potential(fine, &vec![1.0; fine.num_nodes()]);
        stale.refresh(fine, &phi);
        let fresh = ElectricField::from_potential(fine, &phi);
        let (fresh_at, stale_at) = (gathered(&fresh, &nm), gathered(&stale, &nm));
        for t in 0..fine.num_cells() {
            let parent = nm.fine_parent[t] as usize;
            assert_eq!(crate::fine_cell_of(&nm, parent, fine.centroids[t]), t);
            let g = mesh::geom::shape_gradients(fine.tet_pos(t));
            let tet = fine.tets[t];
            let mut grad = Vec3::ZERO;
            for k in 0..4 {
                grad += g[k] * phi[tet[k] as usize];
            }
            let want = bits(-grad);
            assert_eq!(bits(fresh_at[t]), want, "cell {t}");
            assert_eq!(bits(stale_at[t]), want, "cell {t}");
        }
        assert!(fresh_at.iter().any(|v| v.norm() > 0.0));
    }

    #[test]
    fn field_is_minus_gradient_direction() {
        let nm = nested();
        // φ increasing along +x => E points along −x
        let phi: Vec<f64> = nm.fine.nodes.iter().map(|p| 50.0 * p.x).collect();
        let e = ElectricField::from_potential(&nm.fine, &phi);
        for v in gathered(&e, &nm) {
            assert!(v.x < 0.0);
        }
    }
}
