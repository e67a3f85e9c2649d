//! The velocity half of *PIC_Move*: gather the electric field at each
//! charged particle and apply the Boris kick. Position advance (with
//! cell tracking, walls and outflow) is shared with DSMC via
//! `dsmc::move_particles_pooled`.

use crate::boris::boris_push;
use crate::deposit::charged_table;
use crate::field::ElectricField;
use kernels::Pool;
use mesh::{NestedMesh, Vec3};
use particles::{ParticleBuffer, SpeciesTable};

/// Kick every charged particle of one chunk in place: gather `E` at
/// the particle, write [`boris_push`] back. `qm` is the per-species
/// `q/m` table (`None` for neutrals, which stay bit-for-bit
/// untouched). `vx/vy/vz` are the velocity lanes being updated (chunk
/// or whole buffer), indexed chunk-locally; shared lanes are indexed
/// globally via `off`. Returns the number of particles kicked.
#[allow(clippy::too_many_arguments)]
fn kick_chunk(
    nm: &NestedMesh,
    efield: &ElectricField,
    b: Vec3,
    qm: &[Option<f64>],
    dt: f64,
    off: usize,
    vx: &mut [f64],
    vy: &mut [f64],
    vz: &mut [f64],
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    cell: &[u32],
    spec: &[u8],
) -> usize {
    let mut kicked = 0;
    for k in 0..vx.len() {
        let gi = off + k;
        let Some(qm) = qm[spec[gi] as usize] else {
            continue;
        };
        let e = efield.at(nm, cell[gi] as usize, Vec3::new(px[gi], py[gi], pz[gi]));
        let v = boris_push(Vec3::new(vx[k], vy[k], vz[k]), e, b, qm, dt);
        (vx[k], vy[k], vz[k]) = (v.x, v.y, v.z);
        kicked += 1;
    }
    kicked
}

/// Apply one Boris velocity update to every charged particle using
/// the per-fine-cell field `efield` and uniform magnetic field `b`.
/// Returns the number of particles kicked.
pub fn accelerate_charged(
    nm: &NestedMesh,
    buf: &mut ParticleBuffer,
    species: &SpeciesTable,
    efield: &ElectricField,
    b: Vec3,
    dt: f64,
) -> usize {
    let qm = charged_table(species, |sp| sp.charge / sp.mass);
    let ParticleBuffer {
        px,
        py,
        pz,
        vx,
        vy,
        vz,
        cell,
        species: spec,
        ..
    } = buf;
    kick_chunk(
        nm, efield, b, &qm, dt, 0, vx, vy, vz, px, py, pz, cell, spec,
    )
}

/// One worker's share of the velocity lanes: the chunk's global
/// offset plus its `vx`/`vy`/`vz` slices.
type VelChunk<'a> = (usize, &'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// Pooled Boris kick: the velocity lanes are split into one
/// contiguous chunk per worker (field gather + push is pure
/// per-particle work), so the result is bitwise identical to
/// [`accelerate_charged`] for every worker count.
pub fn accelerate_charged_pooled(
    nm: &NestedMesh,
    buf: &mut ParticleBuffer,
    species: &SpeciesTable,
    efield: &ElectricField,
    b: Vec3,
    dt: f64,
    pool: &Pool,
) -> usize {
    if pool.is_serial() || buf.len() < 2 {
        return accelerate_charged(nm, buf, species, efield, b, dt);
    }
    let qm = &charged_table(species, |sp| sp.charge / sp.mass);
    let ranges = kernels::chunk_ranges(buf.len(), pool.workers());
    let vxc = kernels::carve_mut(&ranges, &mut buf.vx);
    let vyc = kernels::carve_mut(&ranges, &mut buf.vy);
    let vzc = kernels::carve_mut(&ranges, &mut buf.vz);
    let (px, py, pz) = (&buf.px, &buf.py, &buf.pz);
    let (cell, spec) = (&buf.cell, &buf.species);
    let mut parts: Vec<VelChunk> = Vec::with_capacity(ranges.len());
    let mut off = 0usize;
    for ((cvx, cvy), cvz) in vxc.into_iter().zip(vyc).zip(vzc) {
        let len = cvx.len();
        parts.push((off, cvx, cvy, cvz));
        off += len;
    }
    pool.run_parts(parts, |_, (off, vx, vy, vz)| {
        kick_chunk(
            nm, efield, b, qm, dt, off, vx, vy, vz, px, py, pz, cell, spec,
        )
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::NozzleSpec;
    use particles::Particle;

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
    fn neutrals_untouched_ions_kicked() {
        let nm = nested();
        let (table, h, hp) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let mut buf = ParticleBuffer::new();
        for (k, s) in [h, hp, hp].iter().enumerate() {
            buf.push(Particle {
                pos: nm.coarse.centroids[0],
                vel: Vec3::ZERO,
                cell: 0,
                species: *s,
                id: k as u64,
            });
        }
        // uniform field along +z
        let phi: Vec<f64> = nm.fine.nodes.iter().map(|p| -1000.0 * p.z).collect();
        let ef = ElectricField::from_potential(&nm.fine, &phi);
        let kicked = accelerate_charged(&nm, &mut buf, &table, &ef, Vec3::ZERO, 1e-7);
        assert_eq!(kicked, 2);
        assert_eq!(buf.vel(0), Vec3::ZERO, "neutral must not feel E");
        assert!(buf.vel(1).z > 0.0, "ion accelerated along E");
        assert_eq!(buf.vel(1), buf.vel(2));
    }

    #[test]
    fn pooled_push_is_bitwise_identical_to_serial() {
        let nm = nested();
        let (table, h, hp) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let make = || {
            let mut buf = ParticleBuffer::new();
            for k in 0..300u64 {
                let c = (k as usize * 7) % nm.num_coarse();
                buf.push(Particle {
                    pos: nm.coarse.centroids[c],
                    vel: Vec3::new(k as f64, -(k as f64) * 0.5, 100.0),
                    cell: c as u32,
                    species: if k % 4 == 0 { h } else { hp },
                    id: k,
                });
            }
            buf
        };
        let phi: Vec<f64> = nm
            .fine
            .nodes
            .iter()
            .map(|p| -500.0 * p.z + 200.0 * p.x)
            .collect();
        let ef = ElectricField::from_potential(&nm.fine, &phi);
        let dt = 1e-7;
        for b in [Vec3::ZERO, Vec3::new(0.0, 0.01, 0.0)] {
            // scalar oracle: the kick is `boris_push` on the gathered
            // field, neutrals bit-for-bit untouched
            let before = make();
            let want: Vec<Vec3> = (0..before.len())
                .map(|i| match table.get(before.species[i]) {
                    sp if sp.is_charged() => {
                        let e = ef.at(&nm, before.cell[i] as usize, before.pos(i));
                        boris_push(before.vel(i), e, b, sp.charge / sp.mass, dt)
                    }
                    _ => before.vel(i),
                })
                .collect();
            let check = |kicked: usize, got: &ParticleBuffer, who: &str| {
                assert_eq!(kicked, 225, "{who}");
                for (i, w) in want.iter().enumerate() {
                    let got = [got.vx[i], got.vy[i], got.vz[i]].map(f64::to_bits);
                    assert_eq!(
                        got,
                        [w.x, w.y, w.z].map(f64::to_bits),
                        "{who} i={i} b={b:?}"
                    );
                }
            };
            let mut serial = make();
            let kicked = accelerate_charged(&nm, &mut serial, &table, &ef, b, dt);
            check(kicked, &serial, "serial");
            for workers in [1usize, 2, 4] {
                let mut par = make();
                let pool = Pool::new(workers);
                let kicked = accelerate_charged_pooled(&nm, &mut par, &table, &ef, b, dt, &pool);
                check(kicked, &par, &format!("workers={workers}"));
            }
        }
    }

    #[test]
    fn zero_field_changes_nothing() {
        let nm = nested();
        let (table, _h, hp) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let mut buf = ParticleBuffer::new();
        let v0 = Vec3::new(1e3, 2e3, 3e3);
        buf.push(Particle {
            pos: nm.coarse.centroids[0],
            vel: v0,
            cell: 0,
            species: hp,
            id: 0,
        });
        let ef = ElectricField::zeros(&nm.fine);
        accelerate_charged(&nm, &mut buf, &table, &ef, Vec3::ZERO, 1e-7);
        assert_eq!(buf.vel(0), v0);
    }
}
