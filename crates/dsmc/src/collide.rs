//! Bird NTC collision-pair selection with the VHS interaction model
//! (the paper's *Colli_React* component, collision half; Bird 1994).
//!
//! Per coarse cell, the no-time-counter scheme draws
//! `½ N (N−1) F_N (σg)_max Δt / V_c` candidate pairs and accepts each
//! with probability `σ(g)·g / (σg)_max`; accepted pairs scatter
//! isotropically (VHS), conserving momentum and energy exactly. The
//! test runs on `g²` ([`particles::Vhs::acceptance`]) and the direction
//! is drawn by disc rejection ([`particles::sample::isotropic_direction`]),
//! so a rejected candidate takes no root and an accepted one no
//! trigonometry.

use crate::colli_react::ColliReact;
use crate::keyed::SharedParticles;
use kernels::Pool;
use mesh::{TetMesh, Vec3};
use particles::sample::isotropic_direction;
use particles::{CellIndex, ParticleBuffer, SpeciesTable};
use rand::Rng;

/// Persistent per-cell state of the NTC scheme: the running
/// `(σg)_max` estimate.
#[derive(Debug, Clone)]
pub struct CollisionModel {
    /// Running maximum of σ(g)·g per cell (m³/s).
    pub(crate) sigma_g_max: Vec<f64>,
}

/// Outcome of one collision pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollideStats {
    /// Candidate pairs drawn.
    pub candidates: usize,
    /// Pairs that actually collided.
    pub collisions: usize,
}

/// Per-lane scratch of Colli_React: a cell's neutral velocities
/// gathered into three contiguous scalar lanes, so the relative-speed /
/// scattering arithmetic runs on dense local arrays instead of striding
/// through the whole buffer, which entries a collision rewrote, and the
/// cell's accepted pairs that pass the dissociation test. The caller
/// keeps one per lane from pass to pass and reserves a helper lane's
/// before the region, so no lane allocates once the capacity is there.
#[derive(Debug, Clone, Default)]
pub struct CellScratch {
    vx: Vec<f64>,
    vy: Vec<f64>,
    vz: Vec<f64>,
    dirty: Vec<bool>,
    /// Buffer indices of the pairs that may dissociate, in acceptance
    /// order.
    pub(crate) pairs: Vec<(u32, u32)>,
}

impl CellScratch {
    /// Room for a cell of `n` neutrals and `pairs` reaction candidates.
    pub(crate) fn reserve(&mut self, n: usize, pairs: usize) {
        for lane in [&mut self.vx, &mut self.vy, &mut self.vz] {
            lane.reserve(n.saturating_sub(lane.len()));
        }
        self.dirty.reserve(n.saturating_sub(self.dirty.len()));
        self.pairs.reserve(pairs.saturating_sub(self.pairs.len()));
    }

    /// The NTC kernel on one cell of `list.len() >= 2` neutrals (buffer
    /// indices into `buf`), drawing from the cell's own stream `rng`:
    /// round the `expected` candidate count, pick pairs, accept against
    /// the pre-pass `sgm` through `accepts` ([`particles::Vhs::acceptance`])
    /// and scatter the accepted ones in the gathered lanes (equal
    /// masses: about the pair's mean velocity), appending to `pairs`
    /// those whose `g²` passes `reactive`, then write the rewritten
    /// velocities back. Returns the largest `g²` among the candidates,
    /// from which the caller ratchets `(σg)_max`. The candidate draw
    /// compares list *positions* instead of buffer indices — equivalent,
    /// as an index segment holds distinct indices.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collide<R: Rng>(
        &mut self,
        list: &[u32],
        buf: &SharedParticles<'_>,
        accepts: impl Fn(f64, f64) -> bool,
        (sgm, expected): (f64, f64),
        rng: &mut R,
        stats: &mut CollideStats,
        reactive: Option<impl Fn(f64) -> bool>,
    ) -> f64 {
        let CellScratch {
            vx: lvx,
            vy: lvy,
            vz: lvz,
            dirty,
            pairs,
        } = self;
        let n = list.len();
        // probabilistic rounding of the fractional candidate count
        let n_cand = expected.floor() as usize + usize::from(rng.gen::<f64>() < expected.fract());
        if n_cand == 0 {
            return 0.0;
        }

        for (k, lane) in [&mut *lvx, &mut *lvy, &mut *lvz].into_iter().enumerate() {
            lane.clear();
            lane.extend(list.iter().map(|&i| buf.vel_component(k, i as usize)));
        }
        dirty.clear();
        dirty.resize(n, false);

        stats.candidates += n_cand;
        let mut g2_max = 0.0f64;
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
            let g2 = gx * gx + gy * gy + gz * gz;
            g2_max = g2_max.max(g2);
            if !accepts(rng.gen::<f64>() * sgm, g2) {
                continue;
            }
            stats.collisions += 1;
            let cmx = 0.5 * (lvx[a] + lvx[b]);
            let cmy = 0.5 * (lvy[a] + lvy[b]);
            let cmz = 0.5 * (lvz[a] + lvz[b]);
            let d = isotropic_direction(rng) * (0.5 * g2.sqrt());
            (lvx[a], lvy[a], lvz[a]) = (cmx + d.x, cmy + d.y, cmz + d.z);
            (lvx[b], lvy[b], lvz[b]) = (cmx - d.x, cmy - d.y, cmz - d.z);
            dirty[a] = true;
            dirty[b] = true;
            if reactive.as_ref().is_some_and(|r| r(g2)) {
                pairs.push((list[a], list[b]));
            }
        }
        for (k, &d) in dirty.iter().enumerate() {
            if d {
                buf.set_vel(list[k] as usize, Vec3::new(lvx[k], lvy[k], lvz[k]));
            }
        }
        g2_max
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

    /// One NTC pass over the *neutral* particles of `buf` (species id
    /// `neutral_id`), which `index` (built on `buf`) lists in slot 0 of
    /// their cells: [`ColliReact`] with NTC alone, on `lanes`, each
    /// lane on a `scratch` entry.
    #[allow(clippy::too_many_arguments)]
    pub fn collide(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        index: &mut CellIndex,
        dt: f64,
        key: u64,
        lanes: &Pool,
        scratch: &mut Vec<CellScratch>,
    ) -> CollideStats {
        ColliReact {
            mesh,
            species,
            ids: [neutral_id, neutral_id],
            dt,
            key,
            ntc: Some(self),
            cross: None,
            chemistry: None,
        }
        .run(buf, index, lanes, scratch)
        .ntc
    }

    /// [`CollisionModel::collide`] keyed by a draw from `rng`, on an
    /// index of the neutrals it builds on `pool`, with the caller's
    /// per-lane `scratch`. Kept for the benchmark ledger's pinned
    /// kernel API.
    #[allow(clippy::too_many_arguments)]
    pub fn collide_pooled<R: Rng>(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        dt: f64,
        rng: &mut R,
        scratch: &mut Vec<CellScratch>,
        pool: &Pool,
    ) -> CollideStats {
        let key = rng.gen();
        let mut index = CellIndex::default();
        let slot = |s| (s == neutral_id).then_some(0);
        index.build(buf, mesh.num_cells(), 1, slot, pool);
        self.collide(
            mesh, buf, species, neutral_id, &mut index, dt, key, pool, scratch,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collision_key;
    use crate::keyed::CANDIDATES_PER_LANE;
    use mesh::{NozzleSpec, Vec3};
    use particles::Particle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `buf` indexed on `m` for the passes: species 0 (the neutral) in
    /// slot 0, species 1 (the ion) in slot 1.
    pub(crate) fn indexed(m: &TetMesh, buf: &ParticleBuffer) -> CellIndex {
        let mut index = CellIndex::default();
        index.build(
            buf,
            m.num_cells(),
            2,
            |s| (s < 2).then_some(s.into()),
            &Pool::serial(),
        );
        index
    }

    /// FNV-1a over every bit a Colli_React pass writes: the velocity
    /// lanes, the species ids and the `(σg)_max` table.
    pub(crate) fn pin(buf: &ParticleBuffer, sgm: &[f64]) -> u64 {
        let lanes = [&buf.vx, &buf.vy, &buf.vz].into_iter().flatten();
        obs::fnv1a(
            lanes
                .chain(sgm)
                .flat_map(|v| v.to_le_bytes())
                .chain(buf.species.iter().copied()),
        )
    }

    /// The test lattice: 4 × 4 nozzle cells.
    pub(crate) fn lattice() -> TetMesh {
        NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        }
        .generate()
    }

    /// `n` particles of species `sp` in each of `cells`, at random
    /// points of their cell, Maxwellian at `t` (K) around `drift`,
    /// drawn from `rng`.
    pub(crate) fn fill(
        m: &TetMesh,
        buf: &mut ParticleBuffer,
        cells: std::ops::Range<usize>,
        n: usize,
        (sp, t, drift): (u8, f64, Vec3),
        rng: &mut StdRng,
    ) {
        for c in cells {
            let [a, b, cc, d] = m.tet_pos(c);
            for _ in 0..n {
                buf.push(Particle {
                    pos: particles::sample::point_in_tet(rng, a, b, cc, d),
                    vel: particles::sample::maxwellian(rng, t, particles::MASS_H, drift),
                    cell: c as u32,
                    species: sp,
                    id: buf.len() as u64,
                });
            }
        }
    }

    /// FNV pin of five passes (steps 0–4 of seed 11) on the
    /// 200-particle cell.
    fn five_passes() -> u64 {
        let (m, table, mut buf) = setup(1e12);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        for step in 0..5 {
            let key = collision_key(11, step, 0);
            let mut index = indexed(&m, &buf);
            model.collide(
                &m,
                &mut buf,
                &table,
                0,
                &mut index,
                1e-5,
                key,
                &Pool::serial(),
                &mut Vec::new(),
            );
        }
        pin(&buf, model.sigma_g_max())
    }

    /// Re-pinned when the pass moved to keyed per-cell streams
    /// (`ntc_rate_matches_the_maxwellian_rate` checks the acceptance
    /// law on both streams), and again when it began to accept in g²
    /// and scatter by disc rejection: a bit that moves here moves every
    /// golden run.
    #[test]
    fn serial_kernel_is_pinned() {
        assert_eq!(five_passes(), 0x7cec_0826_fa48_d235);
    }

    fn setup(weight: f64) -> (TetMesh, SpeciesTable, ParticleBuffer) {
        let m = lattice();
        let (table, h, _) = SpeciesTable::hydrogen_plasma(weight, weight);
        let mut buf = ParticleBuffer::new();
        let mut rng = StdRng::seed_from_u64(9);
        // fill cell 0 with thermal particles
        fill(&m, &mut buf, 0..1, 200, (h, 300.0, Vec3::ZERO), &mut rng);
        (m, table, buf)
    }

    /// One pass of `dt` on one lane, keyed `key`.
    fn pass(
        model: &mut CollisionModel,
        m: &TetMesh,
        table: &SpeciesTable,
        buf: &mut ParticleBuffer,
        dt: f64,
        key: u64,
    ) -> CollideStats {
        let mut index = indexed(m, buf);
        let serial = Pool::serial();
        model.collide(
            m,
            buf,
            table,
            0,
            &mut index,
            dt,
            key,
            &serial,
            &mut Vec::new(),
        )
    }

    #[test]
    fn momentum_and_energy_conserved() {
        let (m, table, mut buf) = setup(1e12);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mom_before: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let en_before: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
        let stats = pass(&mut model, &m, &table, &mut buf, 1e-5, 1);
        assert!(stats.collisions > 0, "no collisions happened: {stats:?}");
        let mom_after: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let en_after: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
        assert!((mom_before - mom_after).norm() < 1e-6 * mom_before.norm().max(1.0));
        assert!((en_before - en_after).abs() < 1e-9 * en_before);
    }

    /// Accepted collisions against the equilibrium NTC rate: R seeds of
    /// a few cells of Maxwellian gas at T, one short pass each, with
    /// `(σg)_max` set above σg at six thermal speeds so no pair ratchets
    /// it. The expected count is `½ N (N−1) F_N ⟨σg⟩ Δt / V` per cell,
    /// with ⟨σg⟩ = σ_ref g_ref^½ ⟨g^½⟩ under VHS at ω = 0.75 and
    /// ⟨g^a⟩ = (2kT/μ)^(a/2) Γ((3+a)/2) / Γ(3/2), μ = m/2; the count
    /// must land within 3σ of its counting error.
    #[test]
    fn ntc_rate_matches_the_maxwellian_rate() {
        const GAMMA_7_4: f64 = 0.919_062_526_848_883_2;
        const GAMMA_3_2: f64 = 0.886_226_925_452_758;
        let (t, n, cells, dt, seeds) = (300.0, 400, 0..6, 1.5e-9, 0..24u64);
        let m = lattice();
        let (table, h, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let sp = table.get(h);
        let vhs = sp.vhs();
        assert_eq!(vhs.exponent, 0.5, "premise: σg = σ_ref g_ref^½ g^½");
        let g_max = 6.0 * sp.thermal_speed(t);
        let mu = sp.mass / 2.0;
        let mean_sqrt_g = (2.0 * particles::KB * t / mu).powf(0.25) * GAMMA_7_4 / GAMMA_3_2;
        let mean_sigma_g = vhs.sigma_ref * vhs.g_ref.sqrt() * mean_sqrt_g;
        let per_pass: f64 = cells
            .clone()
            .map(|c| 0.5 * (n * (n - 1)) as f64 * sp.weight * mean_sigma_g * dt / m.volumes[c])
            .sum();
        let expected = per_pass * seeds.clone().count() as f64;
        let mut accepted = 0;
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut buf = ParticleBuffer::new();
            fill(&m, &mut buf, cells.clone(), n, (h, t, Vec3::ZERO), &mut rng);
            let mut model = CollisionModel::new(m.num_cells(), &table, t);
            model.set_sigma_g_max(&vec![vhs.cross_section(g_max) * g_max; m.num_cells()]);
            let stats = pass(&mut model, &m, &table, &mut buf, dt, seed);
            assert!(model
                .sigma_g_max()
                .iter()
                .all(|&s| s == vhs.cross_section(g_max) * g_max));
            accepted += stats.collisions;
        }
        let sigma = expected.sqrt();
        assert!(
            expected > 1000.0 && per_pass < 0.05 * (n * cells.len()) as f64,
            "premise: a counted rate, a short pass: {expected} over the seeds, {per_pass} a pass"
        );
        assert!(
            (accepted as f64 - expected).abs() < 3.0 * sigma,
            "{accepted} accepted, {expected:.1} ± {sigma:.1} expected"
        );
    }

    #[test]
    fn pooled_equals_collide_on_any_pool() {
        // dense enough for three lanes at the production floor
        let m = lattice();
        let (table, h, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let mut buf = ParticleBuffer::new();
        let mut rng = StdRng::seed_from_u64(9);
        fill(&m, &mut buf, 0..12, 400, (h, 300.0, Vec3::ZERO), &mut rng);
        let dt = 2e-5;
        let run = |pooled: Option<usize>| {
            let mut buf = buf.clone();
            let mut rng = StdRng::seed_from_u64(5);
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            let mut scratch = Vec::new();
            let stats = match pooled {
                Some(lanes) => model.collide_pooled(
                    &m,
                    &mut buf,
                    &table,
                    h,
                    dt,
                    &mut rng,
                    &mut scratch,
                    &Pool::new(lanes),
                ),
                None => {
                    let key = rng.gen();
                    let mut index = indexed(&m, &buf);
                    model.collide(
                        &m,
                        &mut buf,
                        &table,
                        h,
                        &mut index,
                        dt,
                        key,
                        &Pool::serial(),
                        &mut scratch,
                    )
                }
            };
            (stats, pin(&buf, model.sigma_g_max()), rng)
        };
        let serial = run(None);
        assert!(
            serial.0.candidates as f64 > 3.0 * CANDIDATES_PER_LANE,
            "premise: three lanes' worth of candidates, {:?}",
            serial.0
        );
        for lanes in 1..=3 {
            assert!(run(Some(lanes)) == serial, "{lanes} lanes");
        }
    }

    #[test]
    fn collision_count_scales_with_dt() {
        let (m, table, buf) = setup(1e12);
        let mut total_short = 0usize;
        let mut total_long = 0usize;
        for seed in 0..5 {
            let mut b = buf.clone();
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            total_short += pass(&mut model, &m, &table, &mut b, 1e-6, seed).candidates;
            let mut b = buf.clone();
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            total_long += pass(&mut model, &m, &table, &mut b, 4e-6, seed).candidates;
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
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let stats = pass(&mut model, &m, &table, &mut buf, 1e-5, 2);
        assert_eq!(stats, CollideStats::default());
    }

    #[test]
    fn charged_particles_ignored_by_neutral_collisions() {
        let (m, table, mut buf) = setup(1e12);
        // turn every particle into an ion
        for s in buf.species.iter_mut() {
            *s = 1;
        }
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let stats = pass(&mut model, &m, &table, &mut buf, 1e-5, 3);
        assert_eq!(stats.candidates, 0);
    }
}
