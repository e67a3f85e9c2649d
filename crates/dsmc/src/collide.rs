//! Bird NTC collision-pair selection with the VHS interaction model
//! (the paper's *Colli_React* component, collision half; Bird 1994).
//!
//! Per coarse cell, the no-time-counter scheme draws
//! `½ N (N−1) F_N (σg)_max Δt / V_c` candidate pairs and accepts each
//! with probability `σ(g)·g / (σg)_max`; accepted pairs scatter
//! isotropically (VHS), conserving momentum and energy exactly.

use kernels::{fork_rng, Pool};
use mesh::TetMesh;
use particles::{ParticleBuffer, Species, SpeciesTable, Vhs};
use rand::Rng;

/// Persistent per-cell state of the NTC scheme (the running
/// `(σg)_max` estimate) plus scratch buffers.
#[derive(Debug, Clone)]
pub struct CollisionModel {
    /// Running maximum of σ(g)·g per cell (m³/s).
    sigma_g_max: Vec<f64>,
    /// Scratch: particle indices per cell.
    cell_lists: Vec<Vec<u32>>,
}

/// Outcome of one collision pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollideStats {
    /// Candidate pairs drawn.
    pub candidates: usize,
    /// Pairs that actually collided.
    pub collisions: usize,
}

/// An accepted collision: buffer indices of the two partners and
/// their post-collision relative speed (used by the chemistry model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionEvent {
    pub i: u32,
    pub j: u32,
    /// Relative speed at impact (m/s).
    pub rel_speed: f64,
}

/// Per-cell scratch of the NTC kernel: the cell's velocities gathered
/// into three contiguous scalar lanes, so the relative-speed /
/// scattering arithmetic runs on dense local arrays instead of
/// striding through the whole buffer, plus which entries a collision
/// rewrote.
#[derive(Default)]
struct CellScratch {
    vx: Vec<f64>,
    vy: Vec<f64>,
    vz: Vec<f64>,
    dirty: Vec<bool>,
}

impl CellScratch {
    /// The NTC kernel on one cell of `list.len() >= 2` neutrals
    /// (buffer indices into the `vel` lanes): draw the candidate
    /// count, pick pairs, accept against the pre-pass `sgm` snapshot
    /// and VHS-scatter the accepted ones in the gathered lanes. `vhs`
    /// is `sp.vhs()`, taken once per pass.
    /// Returns the adaptive `(σg)_max` (`sgm` unless a pair exceeded
    /// it; committing it late is value-identical — the ratchet only
    /// grows); the caller writes the `dirty` lanes back. The candidate
    /// draw compares list *positions* instead of buffer indices —
    /// equivalent (the cell lists hold distinct indices) and identical
    /// RNG consumption.
    #[allow(clippy::too_many_arguments)]
    fn collide<R: Rng>(
        &mut self,
        list: &[u32],
        vel: [&[f64]; 3],
        sp: &Species,
        vhs: Vhs,
        sgm: f64,
        dt: f64,
        volume: f64,
        rng: &mut R,
        stats: &mut CollideStats,
        events: &mut Vec<CollisionEvent>,
    ) -> f64 {
        let CellScratch {
            vx: lvx,
            vy: lvy,
            vz: lvz,
            dirty,
        } = self;
        dirty.clear();
        let n = list.len();
        let mut sgm_adapt = sgm;
        let n_cand = 0.5 * n as f64 * (n as f64 - 1.0) * sp.weight * sgm * dt / volume;
        // probabilistic rounding of the fractional candidate count
        let n_cand = n_cand.floor() as usize + usize::from(rng.gen::<f64>() < n_cand.fract());
        if n_cand == 0 {
            return sgm;
        }

        for (lane, src) in [&mut *lvx, &mut *lvy, &mut *lvz].into_iter().zip(vel) {
            lane.clear();
            lane.extend(list.iter().map(|&i| src[i as usize]));
        }
        dirty.resize(n, false);

        stats.candidates += n_cand;
        for _ in 0..n_cand {
            let a = rng.gen_range(0..n);
            let b = loop {
                let b = rng.gen_range(0..n);
                if b != a {
                    break b;
                }
            };
            let gx = lvx[a] - lvx[b];
            let gy = lvy[a] - lvy[b];
            let gz = lvz[a] - lvz[b];
            let g = (gx * gx + gy * gy + gz * gz).sqrt();
            let sigma_g = vhs.cross_section(g) * g;
            if sigma_g > sgm_adapt {
                sgm_adapt = sigma_g; // adaptive max
            }
            if rng.gen::<f64>() * sgm < sigma_g {
                stats.collisions += 1;
                // VHS isotropic scattering, equal masses here but
                // written for the general two-mass case
                let m1 = sp.mass;
                let m2 = sp.mass;
                let cmx = (lvx[a] * m1 + lvx[b] * m2) / (m1 + m2);
                let cmy = (lvy[a] * m1 + lvy[b] * m2) / (m1 + m2);
                let cmz = (lvz[a] * m1 + lvz[b] * m2) / (m1 + m2);
                let cos_t = 2.0 * rng.gen::<f64>() - 1.0;
                let sin_t = (1.0 - cos_t * cos_t).sqrt();
                let phi = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
                let (dx, dy, dz) = (sin_t * phi.cos(), sin_t * phi.sin(), cos_t);
                let fa = g * m2 / (m1 + m2);
                let fb = g * m1 / (m1 + m2);
                lvx[a] = cmx + dx * fa;
                lvy[a] = cmy + dy * fa;
                lvz[a] = cmz + dz * fa;
                lvx[b] = cmx - dx * fb;
                lvy[b] = cmy - dy * fb;
                lvz[b] = cmz - dz * fb;
                dirty[a] = true;
                dirty[b] = true;
                events.push(CollisionEvent {
                    i: list[a],
                    j: list[b],
                    rel_speed: g,
                });
            }
        }
        sgm_adapt
    }
}

impl CollisionModel {
    /// Initialise for `num_cells` cells with an initial `(σg)_max`
    /// guess derived from the species' thermal speed at `t_init`.
    pub fn new(num_cells: usize, species: &SpeciesTable, t_init: f64) -> Self {
        let guess = species
            .iter()
            .map(|(_, s)| s.vhs().cross_section(s.thermal_speed(t_init)) * s.thermal_speed(t_init))
            .fold(0.0f64, f64::max)
            .max(1e-20);
        CollisionModel {
            sigma_g_max: vec![guess; num_cells],
            cell_lists: vec![Vec::new(); num_cells],
        }
    }

    /// Bucket the neutrals of `buf` by cell (indices ascending).
    fn bucket(&mut self, buf: &ParticleBuffer, neutral_id: u8) {
        for l in self.cell_lists.iter_mut() {
            l.clear();
        }
        for i in 0..buf.len() {
            if buf.species[i] == neutral_id {
                self.cell_lists[buf.cell[i] as usize].push(i as u32);
            }
        }
    }

    /// The adaptive per-cell `(σg)_max` table (checkpoint state: it
    /// ratchets up over a run and gates the NTC candidate count, so a
    /// restored run must resume from the same table).
    pub fn sigma_g_max(&self) -> &[f64] {
        &self.sigma_g_max
    }

    /// Restore a [`CollisionModel::sigma_g_max`] snapshot.
    pub fn set_sigma_g_max(&mut self, table: &[f64]) {
        assert_eq!(table.len(), self.sigma_g_max.len(), "cell count mismatch");
        self.sigma_g_max.copy_from_slice(table);
    }

    /// Perform one NTC collision pass over the *neutral* particles of
    /// `buf` (species id `neutral_id`). Returns statistics and pushes
    /// every accepted collision into `events` for the chemistry step.
    #[allow(clippy::too_many_arguments)]
    pub fn collide<R: Rng>(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        dt: f64,
        rng: &mut R,
        events: &mut Vec<CollisionEvent>,
    ) -> CollideStats {
        let sp = species.get(neutral_id);
        let vhs = sp.vhs();
        self.bucket(buf, neutral_id);

        let mut stats = CollideStats::default();
        let mut cell = CellScratch::default();
        for (c, list) in self.cell_lists.iter().enumerate() {
            if list.len() < 2 {
                continue;
            }
            let sgm = self.sigma_g_max[c];
            let vel = [&buf.vx[..], &buf.vy[..], &buf.vz[..]];
            let volume = mesh.volumes[c];
            let sgm_adapt =
                cell.collide(list, vel, sp, vhs, sgm, dt, volume, rng, &mut stats, events);
            // scatter modified velocities back and commit the ratchet
            for (k, &d) in cell.dirty.iter().enumerate() {
                if d {
                    let i = list[k] as usize;
                    buf.vx[i] = cell.vx[k];
                    buf.vy[i] = cell.vy[k];
                    buf.vz[i] = cell.vz[k];
                }
            }
            if sgm_adapt > sgm {
                self.sigma_g_max[c] = sgm_adapt;
            }
        }
        stats
    }

    /// Pooled NTC pass: cells are striped across workers (cell `c`
    /// goes to lane `c mod workers`, which spreads the spatially
    /// clustered plume cells evenly) and each lane collides its cells
    /// with an RNG stream forked off one draw from `rng`. Lanes write
    /// velocity updates for disjoint particle sets (cell lists
    /// partition the neutrals), applied on the caller thread along
    /// with the adaptive `(σg)_max` updates, so no synchronisation on
    /// the buffer is needed.
    ///
    /// With a serial pool this delegates to [`CollisionModel::collide`]
    /// with the caller's `rng` — bit-identical to the serial kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn collide_pooled<R: Rng>(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        dt: f64,
        rng: &mut R,
        events: &mut Vec<CollisionEvent>,
        pool: &Pool,
    ) -> CollideStats {
        if pool.is_serial() {
            return self.collide(mesh, buf, species, neutral_id, dt, rng, events);
        }
        let base: u64 = rng.gen();
        let sp = species.get(neutral_id);
        let vhs = sp.vhs();
        // serial: O(n) with no contention worth parallelising
        self.bucket(buf, neutral_id);

        let workers = pool.workers();
        let parts: Vec<Vec<usize>> = (0..workers)
            .map(|lane| {
                (lane..self.cell_lists.len())
                    .step_by(workers)
                    .filter(|&c| self.cell_lists[c].len() >= 2)
                    .collect()
            })
            .collect();
        let cell_lists = &self.cell_lists;
        let sigma_g_max = &self.sigma_g_max;
        let vel = [&buf.vx[..], &buf.vy[..], &buf.vz[..]];

        type LaneOut = (
            CollideStats,
            Vec<CollisionEvent>,
            Vec<(u32, mesh::Vec3)>,
            Vec<(usize, f64)>,
        );
        let results: Vec<LaneOut> = pool.run_parts(parts, |lane, cells| {
            let mut rng = fork_rng(base, lane as u64);
            let mut stats = CollideStats::default();
            let mut ev: Vec<CollisionEvent> = Vec::new();
            let mut vel_updates: Vec<(u32, mesh::Vec3)> = Vec::new();
            let mut sigma_updates: Vec<(usize, f64)> = Vec::new();
            let mut cell = CellScratch::default();
            for c in cells {
                let (list, sgm, volume) = (&cell_lists[c], sigma_g_max[c], mesh.volumes[c]);
                let sgm_adapt = cell.collide(
                    list, vel, sp, vhs, sgm, dt, volume, &mut rng, &mut stats, &mut ev,
                );
                for (k, &d) in cell.dirty.iter().enumerate() {
                    if d {
                        let v = mesh::Vec3::new(cell.vx[k], cell.vy[k], cell.vz[k]);
                        vel_updates.push((list[k], v));
                    }
                }
                if sgm_adapt > sgm {
                    sigma_updates.push((c, sgm_adapt));
                }
            }
            (stats, ev, vel_updates, sigma_updates)
        });

        let mut stats = CollideStats::default();
        for (s, ev, vel_updates, sigma_updates) in results {
            stats.candidates += s.candidates;
            stats.collisions += s.collisions;
            events.extend(ev);
            for (i, v) in vel_updates {
                buf.set_vel(i as usize, v);
            }
            for (c, sg) in sigma_updates {
                self.sigma_g_max[c] = sg;
            }
        }
        stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mesh::{NozzleSpec, Vec3};
    use particles::Particle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a over every bit a collision pass writes: the velocity
    /// lanes, the species ids, the events and the `(σg)_max` table.
    pub(crate) fn pin(buf: &ParticleBuffer, events: &[CollisionEvent], sgm: &[f64]) -> u64 {
        let lanes = [&buf.vx, &buf.vy, &buf.vz].into_iter().flatten();
        let events = events.iter().flat_map(|e| {
            [e.i.to_le_bytes(), e.j.to_le_bytes()]
                .into_iter()
                .flatten()
                .chain(e.rel_speed.to_le_bytes())
        });
        obs::fnv1a(
            lanes
                .chain(sgm)
                .flat_map(|v| v.to_le_bytes())
                .chain(buf.species.iter().copied())
                .chain(events),
        )
    }

    /// FNV pin of five passes on the 200-particle cell at seed 11,
    /// serial or on `pool`.
    fn five_passes(pool: Option<&kernels::Pool>) -> u64 {
        let (m, table, mut buf) = setup(1e12);
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mut ev = Vec::new();
        for _ in 0..5 {
            match pool {
                Some(pool) => {
                    model.collide_pooled(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev, pool)
                }
                None => model.collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev),
            };
        }
        pin(&buf, &ev, model.sigma_g_max())
    }

    /// Recorded on the parent of the VHS-constants change, before the
    /// kernel was touched: a bit that moves here moves every golden run.
    #[test]
    fn serial_kernel_is_pinned() {
        assert_eq!(five_passes(None), 0xd65f_8eee_6801_42dc);
    }

    #[test]
    fn pooled_kernel_is_pinned() {
        let pool = kernels::Pool::new(2);
        assert_eq!(five_passes(Some(&pool)), 0xecc8_788d_8a63_628a);
    }

    fn setup(weight: f64) -> (TetMesh, SpeciesTable, ParticleBuffer) {
        let m = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        }
        .generate();
        let (table, h, _) = SpeciesTable::hydrogen_plasma(weight, weight);
        let mut buf = ParticleBuffer::new();
        let mut rng = StdRng::seed_from_u64(9);
        // fill cell 0 with thermal particles
        for k in 0..200u64 {
            let pos = particles::sample::point_in_tet(
                &mut rng,
                m.tet_pos(0)[0],
                m.tet_pos(0)[1],
                m.tet_pos(0)[2],
                m.tet_pos(0)[3],
            );
            buf.push(Particle {
                pos,
                vel: particles::sample::maxwellian(&mut rng, 300.0, particles::MASS_H, Vec3::ZERO),
                cell: 0,
                species: h,
                id: k,
            });
        }
        (m, table, buf)
    }

    #[test]
    fn momentum_and_energy_conserved() {
        let (m, table, mut buf) = setup(1e12);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mom_before: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let en_before: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
        let mut events = Vec::new();
        let stats = model.collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut events);
        assert!(stats.collisions > 0, "no collisions happened: {stats:?}");
        let mom_after: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let en_after: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
        assert!((mom_before - mom_after).norm() < 1e-6 * mom_before.norm().max(1.0));
        assert!((en_before - en_after).abs() < 1e-9 * en_before);
    }

    #[test]
    fn pooled_conserves_momentum_energy_and_matches_serial_rates() {
        let (m, table, base_buf) = setup(1e12);
        // serial reference collision count
        let serial_collisions = {
            let mut buf = base_buf.clone();
            let mut rng = StdRng::seed_from_u64(21);
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            let mut ev = Vec::new();
            model
                .collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev)
                .collisions
        };
        for workers in [2usize, 4] {
            let mut buf = base_buf.clone();
            let mut rng = StdRng::seed_from_u64(21);
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            let mut ev = Vec::new();
            let mom_before: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
            let en_before: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
            let stats = model.collide_pooled(
                &m,
                &mut buf,
                &table,
                0,
                1e-5,
                &mut rng,
                &mut ev,
                &kernels::Pool::new(workers),
            );
            assert!(stats.collisions > 0, "workers={workers}: {stats:?}");
            assert_eq!(stats.collisions, ev.len());
            let mom_after: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
            let en_after: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
            assert!((mom_before - mom_after).norm() < 1e-6 * mom_before.norm().max(1.0));
            assert!((en_before - en_after).abs() < 1e-9 * en_before);
            // statistically equivalent rate (different stream, same physics)
            let ratio = stats.collisions as f64 / serial_collisions.max(1) as f64;
            assert!(
                (0.3..3.0).contains(&ratio),
                "workers={workers}: pooled {} vs serial {serial_collisions}",
                stats.collisions
            );
        }
    }

    #[test]
    fn pooled_with_serial_pool_is_bit_identical() {
        let (m, table, base_buf) = setup(1e12);
        let run = |pooled: bool| {
            let mut buf = base_buf.clone();
            let mut rng = StdRng::seed_from_u64(5);
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            let mut ev = Vec::new();
            let stats = if pooled {
                model.collide_pooled(
                    &m,
                    &mut buf,
                    &table,
                    0,
                    1e-5,
                    &mut rng,
                    &mut ev,
                    &kernels::Pool::serial(),
                )
            } else {
                model.collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev)
            };
            (stats, (buf.vx.clone(), buf.vy.clone(), buf.vz.clone()), ev)
        };
        let (sa, va, ea) = run(false);
        let (sb, vb, eb) = run(true);
        assert_eq!(sa, sb);
        assert_eq!(va, vb);
        assert_eq!(ea, eb);
    }

    #[test]
    fn collision_count_scales_with_dt() {
        let (m, table, buf) = setup(1e12);
        let mut total_short = 0usize;
        let mut total_long = 0usize;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = buf.clone();
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            let mut ev = Vec::new();
            total_short += model
                .collide(&m, &mut b, &table, 0, 1e-6, &mut rng, &mut ev)
                .candidates;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = buf.clone();
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            total_long += model
                .collide(&m, &mut b, &table, 0, 4e-6, &mut rng, &mut ev)
                .candidates;
        }
        // 4x dt => ~4x candidates
        let ratio = total_long as f64 / total_short.max(1) as f64;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn no_collisions_with_single_particle_cells() {
        let (m, table, _) = setup(1e12);
        let mut buf = ParticleBuffer::new();
        buf.push(Particle {
            pos: m.centroids[0],
            vel: Vec3::new(100.0, 0.0, 0.0),
            cell: 0,
            species: 0,
            id: 0,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mut ev = Vec::new();
        let stats = model.collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev);
        assert_eq!(stats, CollideStats::default());
        assert!(ev.is_empty());
    }

    #[test]
    fn charged_particles_ignored_by_neutral_collisions() {
        let (m, table, mut buf) = setup(1e12);
        // turn every particle into an ion
        for s in buf.species.iter_mut() {
            *s = 1;
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mut ev = Vec::new();
        let stats = model.collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev);
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn events_reference_valid_particles() {
        let (m, table, mut buf) = setup(1e12);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mut ev = Vec::new();
        model.collide(&m, &mut buf, &table, 0, 1e-5, &mut rng, &mut ev);
        for e in &ev {
            assert!((e.i as usize) < buf.len());
            assert!((e.j as usize) < buf.len());
            assert_ne!(e.i, e.j);
            assert!(e.rel_speed >= 0.0);
        }
    }
}
