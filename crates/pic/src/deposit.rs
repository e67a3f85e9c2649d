//! Charge deposition onto the fine (PIC) grid nodes (paper §III-C:
//! "interpolating the particle charge to the grid nodes").
//!
//! Each charged simulation particle carries `charge × weight` real
//! charge; it is distributed to the 4 nodes of its fine cell with the
//! linear (barycentric) shape functions — the same functions used to
//! gather the field back, making the scheme momentum-consistent.

use kernels::Pool;
use mesh::NestedMesh;
use particles::{ParticleBuffer, Species, SpeciesTable};

/// Find the fine child cell of `coarse_cell` containing `pos`: read off
/// the parent's barycentrics ([`NestedMesh::child_at`], no fine tet
/// tested) or, where that declines, the exhaustive scan's answer.
pub fn fine_cell_of(nm: &NestedMesh, coarse_cell: usize, pos: mesh::Vec3) -> usize {
    nm.child_at(coarse_cell, pos)
        .unwrap_or_else(|| fine_cell_exhaustive(nm, coarse_cell, pos).0)
}

/// As [`fine_cell_of`], but also returning the child's barycentric
/// weights: one `bary`, of the child [`NestedMesh::child_at`] names.
/// Where it names one, the point is clearly inside that child and
/// outside every other, so the exhaustive scan would have picked the
/// same child and — `bary` being pure — the same weights; where it
/// declines (near a child face, outside the parent, NaN) the scan runs.
fn fine_cell_with_bary(nm: &NestedMesh, coarse_cell: usize, pos: mesh::Vec3) -> (usize, [f64; 4]) {
    match nm.child_at(coarse_cell, pos) {
        Some(f) => (f, nm.fine.bary(f, pos)),
        None => fine_cell_exhaustive(nm, coarse_cell, pos),
    }
}

/// The child with the largest minimum barycentric weight, first one on
/// ties (robust to roundoff on child faces), and its weights.
fn fine_cell_exhaustive(nm: &NestedMesh, coarse_cell: usize, pos: mesh::Vec3) -> (usize, [f64; 4]) {
    let children = &nm.children[coarse_cell];
    let mut best = children[0] as usize;
    let mut best_min = f64::NEG_INFINITY;
    let mut best_w: Option<[f64; 4]> = None;
    for &f in children {
        let w = nm.fine.bary(f as usize, pos);
        let wmin = w.iter().copied().fold(f64::INFINITY, f64::min);
        if wmin > best_min {
            best_min = wmin;
            best = f as usize;
            best_w = Some(w);
        }
    }
    // all-NaN weights never update best_w: the winner is children[0]
    let w = best_w.unwrap_or_else(|| nm.fine.bary(best, pos));
    (best, w)
}

/// Per-species table indexed by species id: `Some(value(species))` for
/// a charged species, `None` for a neutral one — one lookup in the
/// deposit and push loops answers both "is it charged" and "what is
/// its factor".
pub(crate) fn charged_table(
    species: &SpeciesTable,
    value: impl Fn(&Species) -> f64,
) -> Vec<Option<f64>> {
    species
        .iter()
        .map(|(_, sp)| sp.is_charged().then(|| value(sp)))
        .collect()
}

/// Deposit all charged particles of `buf` onto the fine-grid nodes.
/// Returns the accumulated node charge (Coulombs of *real* charge per
/// node), suitable as the FEM right-hand side after division by ε₀.
pub fn deposit_charge(nm: &NestedMesh, buf: &ParticleBuffer, species: &SpeciesTable) -> Vec<f64> {
    let mut node_charge = vec![0.0f64; nm.fine.num_nodes()];
    deposit_charge_into(nm, buf, species, &mut node_charge);
    node_charge
}

/// Accumulate the charge of `buf`'s charged particles into an
/// existing array of the fine grid's node count (callers zero it when
/// appropriate; ranks accumulate their local particles and then sum
/// boundary nodes across ranks).
pub fn deposit_charge_into(
    nm: &NestedMesh,
    buf: &ParticleBuffer,
    species: &SpeciesTable,
    node_charge: &mut [f64],
) {
    assert_eq!(node_charge.len(), nm.fine.num_nodes());
    let qw = charged_table(species, |sp| sp.charge * sp.weight);
    for k in 0..buf.len() {
        let Some(q) = qw[buf.species[k] as usize] else {
            continue;
        };
        let (fc, w) = fine_cell_with_bary(nm, buf.cell[k] as usize, buf.pos(k));
        let tet = nm.fine.tets[fc];
        for m in 0..4 {
            node_charge[tet[m] as usize] += q * w[m];
        }
    }
}

/// [`deposit_charge_into`]; `_pool` is unused. Kept for the benchmark
/// ledger's pinned kernel API.
pub fn deposit_charge_pooled(
    nm: &NestedMesh,
    buf: &ParticleBuffer,
    species: &SpeciesTable,
    node_charge: &mut [f64],
    _pool: &Pool,
) {
    deposit_charge_into(nm, buf, species, node_charge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::{NozzleSpec, Vec3};
    use particles::{Particle, QE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn fine_cell_contains_point() {
        let nm = nested();
        let mut rng = StdRng::seed_from_u64(1);
        for c in (0..nm.num_coarse()).step_by(5) {
            let p = nm.coarse.tet_pos(c);
            for _ in 0..5 {
                let x = particles::sample::point_in_tet(&mut rng, p[0], p[1], p[2], p[3]);
                let f = fine_cell_of(&nm, c, x);
                assert_eq!(nm.fine_parent[f] as usize, c);
                assert!(nm.fine.contains(f, x, 1e-8));
            }
        }
    }

    /// `(nd, nz)` of the canned scenarios (`thermal_box`, `freestream`,
    /// `jet`) and of the benchmark's two lattices (6/12, 8/20).
    const LATTICES: [(usize, usize); 4] = [(4, 6), (4, 8), (6, 12), (8, 20)];

    #[test]
    fn shortcut_lookup_equals_exhaustive_scan_bitwise() {
        for (seed, (nd, nz)) in (7..).zip(LATTICES) {
            let spec = NozzleSpec {
                nd,
                nz,
                ..NozzleSpec::default()
            };
            let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
            lookup_equals_exhaustive_scan_on(&nm, seed);
        }
    }

    fn lookup_equals_exhaustive_scan_on(nm: &NestedMesh, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = nm.fine.mean_cell_size();
        let mut checked = 0usize;
        let mut check = |c: usize, x: Vec3| {
            let (cell, w) = fine_cell_with_bary(nm, c, x);
            let (want_cell, want_w) = fine_cell_exhaustive(nm, c, x);
            assert_eq!(cell, want_cell, "coarse {c} at {x:?}");
            assert_eq!(
                w.map(f64::to_bits),
                want_w.map(f64::to_bits),
                "coarse {c} at {x:?}"
            );
            checked += 1;
        };
        // uniform interior points of every coarse cell: the λ path
        // answers all but a vanishing shell of them
        let (mut uniform, mut answered) = (0usize, 0usize);
        for c in 0..nm.num_coarse() {
            let p = nm.coarse.tet_pos(c);
            for _ in 0..8 {
                let x = particles::sample::point_in_tet(&mut rng, p[0], p[1], p[2], p[3]);
                uniform += 1;
                answered += usize::from(nm.child_at(c, x).is_some());
                check(c, x);
            }
        }
        assert!(
            answered * 1000 >= uniform * 999,
            "{answered} of {uniform} uniform points took the λ path"
        );
        let stride = (nm.num_coarse() / 70).max(1);
        for c in (0..nm.num_coarse()).step_by(stride) {
            let p = nm.coarse.tet_pos(c);
            // on every child face: its vertices, edge midpoints and
            // centroid, there and pushed off it along the normal by a
            // rounding-sized and by a threshold-crossing step
            for &f in &nm.children[c] {
                for face in 0..4 {
                    let [a, b, d] = nm
                        .fine
                        .face_nodes(f as usize, face)
                        .map(|n| nm.fine.nodes[n as usize]);
                    let normal = nm
                        .fine
                        .face_centroid_normal(f as usize, face)
                        .1
                        .normalized();
                    let on_face = [
                        a,
                        b,
                        d,
                        (a + b) / 2.0,
                        (a + d) / 2.0,
                        (b + d) / 2.0,
                        (a + b + d) / 3.0,
                    ];
                    for x in on_face {
                        for step in [0.0, 1e-12, -1e-12, 1e-7, -1e-7] {
                            check(c, x + normal * (step * h));
                        }
                    }
                }
            }
            // on the planes the λ classification cuts along — λ_i = ½
            // (a corner child's inner face, its first vertex repeated to
            // make the quad) and F1/F2/F3 = 0 (through the octahedron's
            // diagonals) — and pushed off each
            let g = mesh::geom::shape_gradients(p);
            let mid = |i: usize, j: usize| (p[i] + p[j]) / 2.0;
            let mut planes: Vec<([Vec3; 4], Vec3)> = (0..4)
                .map(|i| {
                    let [j, k, l] = mesh::tet::FACE_NODES[i];
                    ([mid(i, j), mid(i, k), mid(i, l), mid(i, j)], g[i])
                })
                .collect();
            // F1 = 0 holds m02, m03, m12, m13; F2 = 0 and F3 = 0 likewise
            for (x, y, z, w) in [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)] {
                let on = [mid(x, z), mid(x, w), mid(y, z), mid(y, w)];
                planes.push((on, g[x] + g[y] - g[z] - g[w]));
            }
            for (on, grad) in planes {
                let normal = grad.normalized();
                for _ in 0..4 {
                    let (s, t) = (rng.gen::<f64>(), rng.gen::<f64>());
                    let x = (on[0] * (1.0 - s) + on[1] * s) * (1.0 - t)
                        + (on[2] * (1.0 - s) + on[3] * s) * t;
                    for step in [0.0, 1e-15, 1e-12, 1e-9, 1e-7] {
                        check(c, x + normal * (step * h));
                        check(c, x - normal * (step * h));
                    }
                }
            }
            // just outside the parent, as the walk's roundoff leaves a particle
            for face in 0..4 {
                let (fc, n) = nm.coarse.face_centroid_normal(c, face);
                let [a, b, d] = nm
                    .coarse
                    .face_nodes(c, face)
                    .map(|n| nm.coarse.nodes[n as usize]);
                for x in [
                    fc,
                    (a + fc) / 2.0,
                    (b + fc) / 2.0,
                    (d + fc) / 2.0,
                    (a + b) / 2.0,
                    a,
                ] {
                    check(c, x + n.normalized() * (1e-9 * h));
                }
            }
            check(c, Vec3::new(f64::NAN, p[0].y, p[0].z));
            check(c, Vec3::new(f64::NAN, f64::NAN, f64::NAN));
        }
        assert!(checked >= 20_000, "{checked} points");
    }

    #[test]
    fn total_charge_conserved() {
        let nm = nested();
        let (table, _h, hp) = SpeciesTable::hydrogen_plasma(1.0, 100.0);
        let mut buf = ParticleBuffer::new();
        let mut rng = StdRng::seed_from_u64(2);
        for k in 0..50u64 {
            let c = (k as usize * 7) % nm.num_coarse();
            let p = nm.coarse.tet_pos(c);
            buf.push(Particle {
                pos: particles::sample::point_in_tet(&mut rng, p[0], p[1], p[2], p[3]),
                vel: Vec3::ZERO,
                cell: c as u32,
                species: hp,
                id: k,
            });
        }
        let node_charge = deposit_charge(&nm, &buf, &table);
        let total: f64 = node_charge.iter().sum();
        let expect = 50.0 * QE * 100.0;
        assert!(
            (total - expect).abs() < 1e-9 * expect,
            "{total} vs {expect}"
        );
    }

    #[test]
    fn pooled_deposit_is_bitwise_identical_to_serial() {
        let nm = nested();
        let (table, h, hp) = SpeciesTable::hydrogen_plasma(1.0, 100.0);
        let mut buf = ParticleBuffer::new();
        let mut rng = StdRng::seed_from_u64(3);
        for k in 0..500u64 {
            let c = (k as usize * 11) % nm.num_coarse();
            let p = nm.coarse.tet_pos(c);
            buf.push(Particle {
                pos: particles::sample::point_in_tet(&mut rng, p[0], p[1], p[2], p[3]),
                vel: Vec3::ZERO,
                cell: c as u32,
                species: if k % 3 == 0 { h } else { hp },
                id: k,
            });
        }
        // interleaved cells as built, then the same particles cell-sorted
        let mut sorted = buf.clone();
        sorted.sort_by_cell(nm.num_coarse(), &mut particles::SortScratch::default());
        assert!(sorted.cell.windows(2).all(|w| w[0] <= w[1]));
        for buf in [&buf, &sorted] {
            let serial = deposit_charge(&nm, buf, &table);
            let mut pooled = vec![0.0; nm.fine.num_nodes()];
            deposit_charge_pooled(&nm, buf, &table, &mut pooled, &Pool::serial());
            for (s, p) in serial.iter().zip(&pooled) {
                assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn neutrals_deposit_nothing() {
        let nm = nested();
        let (table, h, _hp) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let mut buf = ParticleBuffer::new();
        buf.push(Particle {
            pos: nm.coarse.centroids[0],
            vel: Vec3::ZERO,
            cell: 0,
            species: h,
            id: 0,
        });
        let node_charge = deposit_charge(&nm, &buf, &table);
        assert!(node_charge.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn charge_lands_on_owning_cell_nodes() {
        let nm = nested();
        let (table, _h, hp) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let c = nm.num_coarse() / 2;
        let mut buf = ParticleBuffer::new();
        buf.push(Particle {
            pos: nm.coarse.centroids[c],
            vel: Vec3::ZERO,
            cell: c as u32,
            species: hp,
            id: 0,
        });
        let node_charge = deposit_charge(&nm, &buf, &table);
        let f = fine_cell_of(&nm, c, nm.coarse.centroids[c]);
        let tet = nm.fine.tets[f];
        let on_cell: f64 = tet.iter().map(|&n| node_charge[n as usize]).sum();
        let total: f64 = node_charge.iter().sum();
        assert!((on_cell - total).abs() < 1e-12 * total.abs().max(1e-300));
    }
}
