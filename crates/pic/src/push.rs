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

/// Apply one Boris velocity update to every charged particle using
/// the field `efield` and uniform magnetic field `b`: gather `E` at
/// the particle from its fine cell's gradient of φ, write
/// [`boris_push`] back. Neutrals stay
/// bit-for-bit untouched. Returns the number of particles kicked.
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
    let mut kicked = 0;
    for k in 0..vx.len() {
        let Some(qm) = qm[spec[k] as usize] else {
            continue;
        };
        let e = efield.at(nm, cell[k] as usize, Vec3::new(px[k], py[k], pz[k]));
        let v = boris_push(Vec3::new(vx[k], vy[k], vz[k]), e, b, qm, dt);
        (vx[k], vy[k], vz[k]) = (v.x, v.y, v.z);
        kicked += 1;
    }
    kicked
}

/// [`accelerate_charged`]; `_pool` is unused. Kept for the benchmark
/// ledger's pinned kernel API.
pub fn accelerate_charged_pooled(
    nm: &NestedMesh,
    buf: &mut ParticleBuffer,
    species: &SpeciesTable,
    efield: &ElectricField,
    b: Vec3,
    dt: f64,
    _pool: &Pool,
) -> usize {
    accelerate_charged(nm, buf, species, efield, b, dt)
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
            let mut got = make();
            assert_eq!(accelerate_charged(&nm, &mut got, &table, &ef, b, dt), 225);
            for (i, w) in want.iter().enumerate() {
                assert_eq!(
                    [got.vx[i], got.vy[i], got.vz[i]].map(f64::to_bits),
                    [w.x, w.y, w.z].map(f64::to_bits),
                    "i={i} b={b:?}"
                );
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
