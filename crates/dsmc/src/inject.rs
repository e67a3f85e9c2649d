//! Particle injection at the inlet (paper's *Inject* component).
//!
//! Each DSMC timestep injects simulation particles at the inlet disc
//! with positions uniform over the inlet faces (area-weighted) and
//! velocities perpendicular to the inlet following a drifting
//! Maxwellian, as §III-B prescribes.

use mesh::{BoundaryKind, TetMesh, Vec3};
use particles::sample::maxwellian;
use particles::{Particle, ParticleBuffer, Species};
use rand::Rng;

/// Precomputed inlet geometry plus injection bookkeeping.
#[derive(Debug, Clone)]
pub struct Injector {
    /// `(tet, face, cumulative area)` for area-weighted face choice.
    faces: Vec<(u32, u8, f64)>,
    /// Total inlet area (m²).
    pub area: f64,
    /// Inward unit normal (same for all inlet faces on the nozzle:
    /// +z).
    pub inward: Vec3,
    /// Fractional particle carry-over between steps (so non-integer
    /// per-step injection rates are honoured on average).
    carry: f64,
}

impl Injector {
    /// Build an injector over all inlet faces of `mesh`.
    pub fn new(mesh: &TetMesh) -> Self {
        Self::with_filter(mesh, |_| true).expect("mesh has no inlet faces")
    }

    /// Build an injector over the inlet faces whose owning cell
    /// satisfies `keep` — a rank in a decomposed run injects only
    /// into its own cells, and the per-rank areas sum to the global
    /// inlet area so the global flux is preserved. Returns `None`
    /// when no inlet face is kept.
    pub fn with_filter<F: Fn(u32) -> bool>(mesh: &TetMesh, keep: F) -> Option<Self> {
        let mut faces = Vec::new();
        let mut acc = 0.0;
        let mut inward = Vec3::ZERO;
        for (t, f) in mesh.boundary_faces(BoundaryKind::Inlet) {
            if !keep(t) {
                continue;
            }
            let a = mesh.face_area(t as usize, f as usize);
            acc += a;
            faces.push((t, f, acc));
            let (_c, n) = mesh.face_centroid_normal(t as usize, f as usize);
            inward = -n.normalized();
        }
        if faces.is_empty() {
            return None;
        }
        Some(Injector {
            faces,
            area: acc,
            inward,
            carry: 0.0,
        })
    }

    /// Fractional particle carry accumulated so far (checkpoint
    /// state: without it a restored run injects on a shifted
    /// schedule).
    pub fn carry(&self) -> f64 {
        self.carry
    }

    /// Restore a [`Injector::carry`] snapshot.
    pub fn set_carry(&mut self, carry: f64) {
        self.carry = carry;
    }

    /// Number of simulation particles to inject this step for a
    /// species with real number density `n_real` (1/m³) entering at
    /// drift speed `v_drift` (m/s) over timestep `dt`, given the
    /// species scaling factor.
    ///
    /// Flux = n · A · v · dt real particles; divide by the per-
    /// simulation-particle weight.
    pub fn particles_per_step(&self, n_real: f64, v_drift: f64, dt: f64, weight: f64) -> f64 {
        n_real * self.area * v_drift * dt / weight
    }

    /// Inject `species` particles for one timestep. `rate` is the
    /// (possibly fractional) number of simulation particles per step;
    /// the fractional part accumulates across steps. Velocities are
    /// Maxwellian at temperature `temp` around `v_drift · inward`.
    ///
    /// Returns how many particles were created.
    #[allow(clippy::too_many_arguments)]
    pub fn inject<R: Rng>(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species_id: u8,
        species: &Species,
        rate: f64,
        v_drift: f64,
        temp: f64,
        rng: &mut R,
    ) -> usize {
        self.carry += rate;
        let n = self.carry as usize;
        self.carry -= n as f64;

        let drift = self.inward * v_drift;
        for _ in 0..n {
            // area-weighted face pick by binary search on cumulative
            // areas
            let x: f64 = rng.gen::<f64>() * self.area;
            let k = self
                .faces
                .partition_point(|&(_, _, acc)| acc < x)
                .min(self.faces.len() - 1);
            let (t, f, _) = self.faces[k];
            let fnodes = mesh.face_nodes(t as usize, f as usize);
            let [a, b, c] = [
                mesh.nodes[fnodes[0] as usize],
                mesh.nodes[fnodes[1] as usize],
                mesh.nodes[fnodes[2] as usize],
            ];
            let mut pos = particles::sample::point_in_triangle(rng, a, b, c);
            // nudge the particle slightly inside the cell so it does
            // not sit exactly on the boundary plane
            pos += self.inward * (mesh.mean_cell_size() * 1e-6);

            let mut vel = maxwellian(rng, temp, species.mass, drift);
            // enforce inward motion (flux through the inlet is one-way)
            let vn = vel.dot(self.inward);
            if vn <= 0.0 {
                vel -= self.inward * (2.0 * vn);
            }

            buf.push(Particle {
                pos,
                vel,
                cell: t,
                species: species_id,
                id: 0, // assigned by Reindex
            });
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::NozzleSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (TetMesh, Injector) {
        let m = NozzleSpec {
            nd: 6,
            nz: 8,
            ..NozzleSpec::default()
        }
        .generate();
        let inj = Injector::new(&m);
        (m, inj)
    }

    #[test]
    fn inlet_area_matches_faces() {
        let (m, inj) = setup();
        let total: f64 = m
            .boundary_faces(BoundaryKind::Inlet)
            .iter()
            .map(|&(t, f)| m.face_area(t as usize, f as usize))
            .sum();
        assert!((inj.area - total).abs() < 1e-15);
        assert!(inj.area > 0.0);
        // inward normal is +z for the nozzle inlet at z=0
        assert!((inj.inward.z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn injects_requested_count_on_average() {
        let (m, mut inj) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = ParticleBuffer::new();
        let sp = Species::hydrogen(1.0);
        let mut total = 0usize;
        for _ in 0..100 {
            total += inj.inject(&m, &mut buf, 0, &sp, 2.5, 1e4, 300.0, &mut rng);
        }
        assert_eq!(total, 250); // fractional carry makes this exact
        assert_eq!(buf.len(), 250);
    }

    #[test]
    fn injected_particles_inside_their_cells_moving_inward() {
        let (m, mut inj) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = ParticleBuffer::new();
        let sp = Species::hydrogen(1.0);
        inj.inject(&m, &mut buf, 0, &sp, 50.0, 1e4, 300.0, &mut rng);
        for p in buf.iter() {
            assert!(
                m.contains(p.cell as usize, p.pos, 1e-6),
                "particle outside its cell"
            );
            assert!(p.vel.z > 0.0, "must move into the domain");
            assert!(p.pos.z >= 0.0);
        }
    }

    #[test]
    fn velocity_distribution_centred_on_drift() {
        let (m, mut inj) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = ParticleBuffer::new();
        let sp = Species::hydrogen(1.0);
        inj.inject(&m, &mut buf, 0, &sp, 5000.0, 1e4, 300.0, &mut rng);
        let mean_vz: f64 = buf.iter().map(|p| p.vel.z).sum::<f64>() / buf.len() as f64;
        // drift 10 km/s dominates thermal (~1.6 km/s at 300K)
        assert!((mean_vz - 1e4).abs() < 200.0, "{mean_vz}");
    }

    /// One injection of 400 particles from seed 9, as lane bits.
    fn injected_bits(m: &TetMesh) -> (Vec<u64>, Vec<u32>) {
        let mut inj = Injector::new(m);
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = ParticleBuffer::new();
        let sp = Species::hydrogen(1.0);
        inj.inject(m, &mut buf, 0, &sp, 400.0, 1e4, 300.0, &mut rng);
        assert_eq!(buf.len(), 400);
        let lanes = [&buf.px, &buf.py, &buf.pz, &buf.vx, &buf.vy, &buf.vz]
            .iter()
            .flat_map(|lane| lane.iter().map(|x| x.to_bits()))
            .chain([rng.gen::<u64>()])
            .collect();
        (lanes, buf.cell)
    }

    #[test]
    fn face_plane_table_injects_bitwise_like_a_plain_mesh() {
        let (plain, _) = setup();
        let cached = plain.clone().with_face_planes();
        assert_eq!(injected_bits(&plain), injected_bits(&cached));
    }

    #[test]
    fn inject_reads_no_whole_mesh_reduction() {
        // The per-particle loop may not sum over the mesh: with every
        // cell volume poisoned after the build, a `total_volume()` (or
        // anything derived from it at call time) would turn the nudge,
        // and so every position, into NaN.
        let (m, _) = setup();
        let mut poisoned = m.clone();
        poisoned.volumes.fill(f64::NAN);
        assert!(poisoned.total_volume().is_nan());
        assert_eq!(injected_bits(&m), injected_bits(&poisoned));
    }

    #[test]
    fn flux_formula() {
        let (_m, inj) = setup();
        let rate = inj.particles_per_step(1e20, 1e4, 1e-7, 1e10);
        assert!((rate - 1e20 * inj.area * 1e4 * 1e-7 / 1e10).abs() < 1e-9);
    }
}
