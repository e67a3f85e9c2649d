//! Electric field from the potential: `E = −∇φ` (paper eq. 3),
//! piecewise constant per fine cell with linear elements, gathered to
//! particles with the same shape functions used for deposition.

use kernels::{carve_mut, chunk_ranges, team, Pool};
use mesh::{NestedMesh, TetMesh, Vec3};
use std::ops::Range;

/// Fine cells a refresh lane takes at least: about 100 µs of work at
/// ≈ 6 ns per cell, against the 41–48 µs a spawned lane costs
/// (`kernels.dispatch_us`). The `field_serial` lattice (49,920 cells)
/// gets two lanes, the jet's (18,432) one.
const CELLS_PER_LANE: usize = 1 << 14;

/// Per-fine-cell constant electric field.
#[derive(Debug, Clone)]
pub struct ElectricField {
    /// `e[f]` = field in fine cell `f` (V/m).
    pub e: Vec<Vec3>,
}

impl ElectricField {
    /// Zero field (used before the first Poisson solve: the paper
    /// drives particles "by the electric field of the previous
    /// timestep").
    pub fn zeros(fine: &TetMesh) -> Self {
        ElectricField {
            e: vec![Vec3::ZERO; fine.num_cells()],
        }
    }

    /// Compute `E = −∇φ` on every fine cell.
    pub fn from_potential(fine: &TetMesh, phi: &[f64]) -> Self {
        let mut field = Self::zeros(fine);
        field.refresh(fine, phi, &Pool::serial());
        field
    }

    /// Overwrite this field with `E = −∇φ`, reading the gradients from
    /// the mesh's table ([`TetMesh::shape_gradient_table`]). Cells are
    /// independent: up to `pool.workers()` lanes of at least
    /// `CELLS_PER_LANE` cells each take contiguous runs of them, with
    /// the same bits for any lane count.
    pub fn refresh(&mut self, fine: &TetMesh, phi: &[f64], pool: &Pool) {
        assert_eq!(phi.len(), fine.num_nodes());
        assert_eq!(self.e.len(), fine.num_cells());
        let table = fine.shape_gradient_table();
        let n = self.e.len();
        let runs = chunk_ranges(n, pool.workers().min(n / CELLS_PER_LANE));
        let lanes = runs
            .iter()
            .cloned()
            .zip(carve_mut(&runs, &mut self.e))
            .collect();
        team(lanes, |_, (cells, e): (Range<usize>, &mut [Vec3]), _| {
            let cells = table[cells.clone()].iter().zip(&fine.tets[cells]);
            for (et, (g, tet)) in e.iter_mut().zip(cells) {
                let mut grad = Vec3::ZERO;
                for k in 0..4 {
                    grad += g[k] * phi[tet[k] as usize];
                }
                *et = -grad;
            }
        });
    }

    /// Field at a particle position inside coarse cell `coarse_cell`.
    pub fn at(&self, nm: &NestedMesh, coarse_cell: usize, pos: Vec3) -> Vec3 {
        let f = crate::deposit::fine_cell_of(nm, coarse_cell, pos);
        self.e[f]
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

    #[test]
    fn zero_potential_zero_field() {
        let nm = nested();
        let phi = vec![0.0; nm.fine.num_nodes()];
        let e = ElectricField::from_potential(&nm.fine, &phi);
        assert!(e.e.iter().all(|v| v.norm() == 0.0));
    }

    #[test]
    fn linear_potential_gives_constant_field() {
        let nm = nested();
        // φ = 100 · z  =>  E = (0, 0, −100)
        let phi: Vec<f64> = nm.fine.nodes.iter().map(|p| 100.0 * p.z).collect();
        let e = ElectricField::from_potential(&nm.fine, &phi);
        for v in &e.e {
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
        stale.refresh(fine, &phi, &Pool::serial());
        let fresh = ElectricField::from_potential(fine, &phi);
        for t in 0..fine.num_cells() {
            let g = mesh::geom::shape_gradients(fine.tet_pos(t));
            let tet = fine.tets[t];
            let mut grad = Vec3::ZERO;
            for k in 0..4 {
                grad += g[k] * phi[tet[k] as usize];
            }
            let want = [-grad.x, -grad.y, -grad.z].map(f64::to_bits);
            for e in [&fresh, &stale] {
                let v = e.e[t];
                assert_eq!([v.x, v.y, v.z].map(f64::to_bits), want, "cell {t}");
            }
        }
        assert!(fresh.e.iter().any(|v| v.norm() > 0.0));
    }

    #[test]
    fn refresh_on_two_lanes_equals_one_lane_bitwise() {
        let spec = NozzleSpec {
            nd: 8,
            nz: 20,
            ..NozzleSpec::default()
        };
        let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
        let fine = &nm.fine;
        assert!(fine.num_cells() >= 2 * CELLS_PER_LANE, "two lanes' worth");
        let phi: Vec<f64> = (0..fine.num_nodes())
            .map(|i| (0.3 * i as f64).cos())
            .collect();
        let one = ElectricField::from_potential(fine, &phi);
        let mut two = ElectricField::zeros(fine);
        two.refresh(fine, &phi, &Pool::new(2));
        let bits = |f: &ElectricField| -> Vec<[u64; 3]> {
            f.e.iter()
                .map(|v| [v.x, v.y, v.z].map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(&one), bits(&two));
        assert!(one.e.iter().any(|v| v.norm() > 0.0));
    }

    #[test]
    fn field_is_minus_gradient_direction() {
        let nm = nested();
        // φ increasing along +x => E points along −x
        let phi: Vec<f64> = nm.fine.nodes.iter().map(|p| 50.0 * p.x).collect();
        let e = ElectricField::from_potential(&nm.fine, &phi);
        for v in &e.e {
            assert!(v.x < 0.0);
        }
    }
}
