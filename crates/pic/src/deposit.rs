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

/// Find the fine child cell of `coarse_cell` containing `pos`.
/// Falls back to the child with the largest minimum barycentric
/// weight (robust to roundoff on child faces).
pub fn fine_cell_of(nm: &NestedMesh, coarse_cell: usize, pos: mesh::Vec3) -> usize {
    fine_cell_with_bary(nm, coarse_cell, pos).0
}

/// A child whose every weight exceeds this holds the point by a margin
/// five orders above `bary`'s rounding error (weights are O(1) volume
/// ratios of well-shaped tets, error ≈ 1e-14): the point is then
/// outside every other child, so the exhaustive scan would have picked
/// the same child and — `bary` being pure — the same weights.
const CLEARLY_INSIDE: f64 = 1e-9;

/// As [`fine_cell_of`], but also returning the winning barycentric
/// weights, so the deposit needs no second evaluation.
///
/// Children `0..4` are the corner tets at the parent's vertices `0..4`
/// and corner `i` holds exactly the points with parent weight
/// `λ_i > ½`, so one parent `bary` names the only corner worth testing
/// (or rules all four out, leaving the octahedron children `4..8`).
/// The first candidate that is [`CLEARLY_INSIDE`] wins; a point near a
/// child face, outside the parent or NaN is clearly inside none and
/// takes the exhaustive scan.
fn fine_cell_with_bary(nm: &NestedMesh, coarse_cell: usize, pos: mesh::Vec3) -> (usize, [f64; 4]) {
    let children = &nm.children[coarse_cell];
    let lambda = nm.coarse.bary(coarse_cell, pos);
    let candidates = match lambda.iter().position(|&l| l > 0.5) {
        Some(i) => &children[i..=i],
        None => &children[4..],
    };
    for &f in candidates {
        let w = nm.fine.bary(f as usize, pos);
        if w.iter().all(|&wk| wk > CLEARLY_INSIDE) {
            return (f as usize, w);
        }
    }
    fine_cell_exhaustive(nm, coarse_cell, pos)
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

/// The serial body of [`deposit_charge_pooled`]: accumulate into an
/// existing array (callers zero it when appropriate; ranks accumulate
/// their local particles and then sum boundary nodes across ranks).
fn deposit_charge_into(
    nm: &NestedMesh,
    buf: &ParticleBuffer,
    species: &SpeciesTable,
    node_charge: &mut [f64],
) {
    let qw = charged_table(species, |sp| sp.charge * sp.weight);
    deposit_run(nm, buf, &qw, 0..buf.len(), &mut |node, dq| {
        node_charge[node as usize] += dq;
    });
}

/// Feed the `(node, Δq)` contributions of the charged particles of
/// `range` to `emit` in particle order; `qw` is the per-species
/// deposited macro-charge `charge·weight`. Shared core of the serial
/// deposit (which accumulates directly) and the pooled one (which
/// logs for ordered replay).
fn deposit_run(
    nm: &NestedMesh,
    buf: &ParticleBuffer,
    qw: &[Option<f64>],
    range: std::ops::Range<usize>,
    emit: &mut impl FnMut(u32, f64),
) {
    for k in range {
        let Some(q) = qw[buf.species[k] as usize] else {
            continue;
        };
        let (fc, w) = fine_cell_with_bary(nm, buf.cell[k] as usize, buf.pos(k));
        let tet = nm.fine.tets[fc];
        for m in 0..4 {
            emit(tet[m], q * w[m]);
        }
    }
}

/// Pooled deposition with *contribution-log replay*: worker chunks
/// compute `(node, Δq)` logs in parallel (the expensive part — fine
/// cell search and barycentric weights), then the caller thread
/// replays the logs in particle order. The accumulation order is
/// therefore exactly the serial loop's order, making the result
/// **bitwise identical to [`deposit_charge`] for every worker
/// count** — no f64 atomics, no per-worker grid copies to reduce.
pub fn deposit_charge_pooled(
    nm: &NestedMesh,
    buf: &ParticleBuffer,
    species: &SpeciesTable,
    node_charge: &mut [f64],
    pool: &Pool,
) {
    assert_eq!(node_charge.len(), nm.fine.num_nodes());
    if pool.is_serial() || buf.len() < 2 {
        return deposit_charge_into(nm, buf, species, node_charge);
    }
    let qw = &charged_table(species, |sp| sp.charge * sp.weight);
    let ranges = kernels::chunk_ranges(buf.len(), pool.workers());
    let logs: Vec<Vec<(u32, f64)>> = pool.run_parts(ranges, |_, rg| {
        let mut log: Vec<(u32, f64)> = Vec::with_capacity(rg.len() * 4);
        deposit_run(nm, buf, qw, rg, &mut |node, dq| {
            log.push((node, dq));
        });
        log
    });
    // replay in particle order (chunks are contiguous and in order)
    for log in logs {
        for (node, dq) in log {
            node_charge[node as usize] += dq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::{NozzleSpec, Vec3};
    use particles::{Particle, QE};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn shortcut_lookup_equals_exhaustive_scan_bitwise() {
        let nm = nested();
        let mut rng = StdRng::seed_from_u64(7);
        let h = nm.fine.mean_cell_size();
        let mut checked = 0usize;
        let mut check = |c: usize, x: Vec3| {
            let (cell, w) = fine_cell_with_bary(&nm, c, x);
            let (want_cell, want_w) = fine_cell_exhaustive(&nm, c, x);
            assert_eq!(cell, want_cell, "coarse {c} at {x:?}");
            assert_eq!(
                w.map(f64::to_bits),
                want_w.map(f64::to_bits),
                "coarse {c} at {x:?}"
            );
            checked += 1;
        };
        for c in (0..nm.num_coarse()).step_by(5) {
            let p = nm.coarse.tet_pos(c);
            for _ in 0..40 {
                check(
                    c,
                    particles::sample::point_in_tet(&mut rng, p[0], p[1], p[2], p[3]),
                );
            }
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
            for workers in [1usize, 2, 4, 8] {
                let mut pooled = vec![0.0; nm.fine.num_nodes()];
                deposit_charge_pooled(&nm, buf, &table, &mut pooled, &Pool::new(workers));
                for (s, p) in serial.iter().zip(&pooled) {
                    assert_eq!(s.to_bits(), p.to_bits(), "workers={workers}");
                }
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
