//! Bird NTC collision-pair selection with the VHS interaction model
//! (the paper's *Colli_React* component, collision half; Bird 1994).
//!
//! Per coarse cell, the no-time-counter scheme draws
//! `½ N (N−1) F_N (σg)_max Δt / V_c` candidate pairs and accepts each
//! with probability `σ(g)·g / (σg)_max`; accepted pairs scatter
//! isotropically (VHS), conserving momentum and energy exactly.

use crate::keyed::{
    cell_ranges, on_cells, pass_key, stream, Pass, SharedParticles, CANDIDATES_PER_LANE,
};
use crate::react::ChemistryModel;
use kernels::Pool;
use mesh::{TetMesh, Vec3};
use particles::{CellIndex, ParticleBuffer, Species, SpeciesTable, Vhs};
use rand::Rng;
use std::ops::Range;

/// Persistent per-cell state of the NTC scheme: the running
/// `(σg)_max` estimate.
#[derive(Debug, Clone)]
pub struct CollisionModel {
    /// Running maximum of σ(g)·g per cell (m³/s).
    sigma_g_max: Vec<f64>,
}

/// Outcome of one collision pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollideStats {
    /// Candidate pairs drawn.
    pub candidates: usize,
    /// Pairs that actually collided.
    pub collisions: usize,
}

/// An accepted collision that can react: buffer indices of the two
/// partners and their relative speed, recorded only when it passes
/// the dissociation test (`ChemistryModel::dissociation_test`) —
/// every other accepted pair is a no-op for the chemistry model.
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
    /// Scratch for cells of up to `n` particles (reserved by the
    /// caller, so a helper lane that takes it allocates nothing).
    fn with_capacity(n: usize) -> Self {
        CellScratch {
            vx: Vec::with_capacity(n),
            vy: Vec::with_capacity(n),
            vz: Vec::with_capacity(n),
            dirty: Vec::with_capacity(n),
        }
    }

    /// The NTC kernel on one cell of `list.len() >= 2` neutrals
    /// (buffer indices into `buf`), drawing from the cell's own stream
    /// `rng`: round the `expected` candidate count, pick pairs, accept
    /// against the pre-pass `sgm` and VHS-scatter the accepted ones in
    /// the gathered lanes, recording those that pass `reactive`, then
    /// write the rewritten velocities back. `vhs` is `sp.vhs()`, taken
    /// once per pass. Returns the adaptive `(σg)_max` (`sgm` unless a
    /// pair exceeded it; committing it late is value-identical — the
    /// ratchet only grows). The candidate draw compares list
    /// *positions* instead of buffer indices — equivalent, as an index
    /// segment holds distinct indices.
    #[allow(clippy::too_many_arguments)]
    fn collide<R: Rng>(
        &mut self,
        list: &[u32],
        buf: &SharedParticles<'_>,
        sp: &Species,
        vhs: Vhs,
        sgm: f64,
        expected: f64,
        rng: &mut R,
        stats: &mut CollideStats,
        events: &mut Vec<CollisionEvent>,
        reactive: &impl Fn(f64) -> bool,
    ) -> f64 {
        let CellScratch {
            vx: lvx,
            vy: lvy,
            vz: lvz,
            dirty,
        } = self;
        let n = list.len();
        let mut sgm_adapt = sgm;
        // probabilistic rounding of the fractional candidate count
        let n_cand = expected.floor() as usize + usize::from(rng.gen::<f64>() < expected.fract());
        if n_cand == 0 {
            return sgm;
        }

        for (k, lane) in [&mut *lvx, &mut *lvy, &mut *lvz].into_iter().enumerate() {
            lane.clear();
            lane.extend(list.iter().map(|&i| buf.vel_component(k, i as usize)));
        }
        dirty.clear();
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
                if reactive(g) {
                    events.push(CollisionEvent {
                        i: list[a],
                        j: list[b],
                        rel_speed: g,
                    });
                }
            }
        }
        for (k, &d) in dirty.iter().enumerate() {
            if d {
                buf.set_vel(list[k] as usize, Vec3::new(lvx[k], lvy[k], lvz[k]));
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
    /// `buf` (species id `neutral_id`), which `index` (built on `buf`)
    /// lists in slot 0 of their cells. Each occupied cell draws from
    /// its own stream, keyed by `key` ([`crate::collision_key`]) and the
    /// cell, so the pass gives the same bits on any `lanes`: it runs on
    /// contiguous cell ranges balanced by the expected candidate count
    /// `½ N (N−1) F_N (σg)_max Δt / V`, one lane per
    /// `CANDIDATES_PER_LANE` expected candidates at most. Returns
    /// statistics and pushes each accepted collision whose relative
    /// speed passes `reactive` (the chemistry's dissociation test) into
    /// `events` for the chemistry step, in cell order.
    #[allow(clippy::too_many_arguments)]
    pub fn collide(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        index: &CellIndex,
        dt: f64,
        key: u64,
        lanes: &Pool,
        events: &mut Vec<CollisionEvent>,
        reactive: impl Fn(f64) -> bool + Sync,
    ) -> CollideStats {
        self.collide_with_floor(
            mesh,
            buf,
            species,
            neutral_id,
            index,
            dt,
            key,
            lanes,
            events,
            reactive,
            CANDIDATES_PER_LANE,
        )
    }

    /// [`CollisionModel::collide`] with `per_lane` as the lane floor
    /// (tests force many lanes on a few cells through it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collide_with_floor(
        &mut self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        index: &CellIndex,
        dt: f64,
        key: u64,
        lanes: &Pool,
        events: &mut Vec<CollisionEvent>,
        reactive: impl Fn(f64) -> bool + Sync,
        per_lane: f64,
    ) -> CollideStats {
        let sp = species.get(neutral_id);
        let vhs = sp.vhs();
        let sigma_g_max = &mut self.sigma_g_max[..];
        let expected = |c: usize, sgm: f64| {
            let n = index.segment(c, 0).len() as f64;
            0.5 * n * (n - 1.0) * sp.weight * sgm * dt / mesh.volumes[c]
        };
        let load = |c: usize| expected(c, sigma_g_max[c]);
        let ranges = cell_ranges(sigma_g_max.len(), load, lanes, per_lane);
        let largest = |cells: &Range<usize>| cells.clone().map(|c| index.segment(c, 0).len()).max();
        let buf = SharedParticles::new(buf);
        let (buf, reactive, key) = (&buf, &reactive, pass_key(key, Pass::Ntc));
        on_cells(
            ranges,
            (sigma_g_max, Range::clone),
            |cells| CellScratch::with_capacity(largest(cells).unwrap_or(0)),
            events,
            |cells, sgm, mut scratch, events| {
                let mut stats = CollideStats::default();
                for (c, sgm) in cells.zip(sgm) {
                    let list = index.segment(c, 0);
                    if list.len() < 2 {
                        continue;
                    }
                    let mut rng = stream(key, c);
                    let adapt = scratch.collide(
                        list,
                        buf,
                        sp,
                        vhs,
                        *sgm,
                        expected(c, *sgm),
                        &mut rng,
                        &mut stats,
                        events,
                        reactive,
                    );
                    *sgm = sgm.max(adapt);
                }
                stats
            },
        )
        .into_iter()
        .fold(CollideStats::default(), |a, b| CollideStats {
            candidates: a.candidates + b.candidates,
            collisions: a.collisions + b.collisions,
        })
    }

    /// [`CollisionModel::collide`] recording the pairs that pass the
    /// default chemistry's dissociation test (the kernel the step
    /// runs), keyed by a draw from `rng`, on an index it builds. Kept
    /// for the benchmark ledger's pinned kernel API.
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
        let reactive = ChemistryModel::default().dissociation_test(species, neutral_id);
        let key = rng.gen();
        let mut index = CellIndex::default();
        index.build(buf, mesh.num_cells(), 1, |s| (s == neutral_id).then_some(0));
        self.collide(
            mesh, buf, species, neutral_id, &index, dt, key, pool, events, reactive,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collision_key;
    use mesh::{NozzleSpec, Vec3};
    use particles::Particle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The keep-every-pair test: a pass driven with it records every
    /// accepted pair, as the kernel did before it recorded only
    /// reaction candidates.
    pub(crate) fn every_pair(_g: f64) -> bool {
        true
    }

    /// `buf` indexed on `m` for the passes: species 0 (the neutral) in
    /// slot 0, species 1 (the ion) in slot 1.
    pub(crate) fn indexed(m: &TetMesh, buf: &ParticleBuffer) -> CellIndex {
        let mut index = CellIndex::default();
        index.build(buf, m.num_cells(), 2, |s| (s < 2).then_some(s.into()));
        index
    }

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
        let mut ev = Vec::new();
        for step in 0..5 {
            let key = collision_key(11, step, 0);
            let index = indexed(&m, &buf);
            model.collide(
                &m,
                &mut buf,
                &table,
                0,
                &index,
                1e-5,
                key,
                &Pool::serial(),
                &mut ev,
                every_pair,
            );
        }
        pin(&buf, &ev, model.sigma_g_max())
    }

    /// Re-pinned when the pass moved to keyed per-cell streams
    /// (`ntc_rate_matches_the_maxwellian_rate` checks the acceptance
    /// law on both streams): a bit that moves here moves every golden
    /// run. The passes record every accepted pair, so the pin also
    /// covers each one's indices and relative speed.
    #[test]
    fn serial_kernel_is_pinned() {
        assert_eq!(five_passes(), 0x4ae5_a6bf_7554_9b16);
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

    /// One pass of `dt` on one lane, keyed `key`, recording every
    /// accepted pair.
    fn pass(
        model: &mut CollisionModel,
        m: &TetMesh,
        table: &SpeciesTable,
        buf: &mut ParticleBuffer,
        dt: f64,
        key: u64,
    ) -> (CollideStats, Vec<CollisionEvent>) {
        let mut ev = Vec::new();
        let index = indexed(m, buf);
        let stats = model.collide(
            m,
            buf,
            table,
            0,
            &index,
            dt,
            key,
            &Pool::serial(),
            &mut ev,
            every_pair,
        );
        (stats, ev)
    }

    #[test]
    fn momentum_and_energy_conserved() {
        let (m, table, mut buf) = setup(1e12);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let mom_before: Vec3 = buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let en_before: f64 = buf.iter().map(|p| p.vel.norm2()).sum();
        let (stats, _) = pass(&mut model, &m, &table, &mut buf, 1e-5, 1);
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
            let (stats, _) = pass(&mut model, &m, &table, &mut buf, dt, seed);
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
        let reactive = ChemistryModel::default().dissociation_test(&table, h);
        let run = |pooled: Option<usize>| {
            let mut buf = buf.clone();
            let mut rng = StdRng::seed_from_u64(5);
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            let mut ev = Vec::new();
            let stats = match pooled {
                Some(lanes) => model.collide_pooled(
                    &m,
                    &mut buf,
                    &table,
                    h,
                    dt,
                    &mut rng,
                    &mut ev,
                    &Pool::new(lanes),
                ),
                None => {
                    let key = rng.gen();
                    let index = indexed(&m, &buf);
                    model.collide(
                        &m,
                        &mut buf,
                        &table,
                        h,
                        &index,
                        dt,
                        key,
                        &Pool::serial(),
                        &mut ev,
                        reactive,
                    )
                }
            };
            (stats, pin(&buf, &ev, model.sigma_g_max()), rng)
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
            total_short += pass(&mut model, &m, &table, &mut b, 1e-6, seed)
                .0
                .candidates;
            let mut b = buf.clone();
            let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
            total_long += pass(&mut model, &m, &table, &mut b, 4e-6, seed)
                .0
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
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let (stats, ev) = pass(&mut model, &m, &table, &mut buf, 1e-5, 2);
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
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let (stats, _) = pass(&mut model, &m, &table, &mut buf, 1e-5, 3);
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn events_reference_valid_particles() {
        let (m, table, mut buf) = setup(1e12);
        let mut model = CollisionModel::new(m.num_cells(), &table, 300.0);
        let (_, ev) = pass(&mut model, &m, &table, &mut buf, 1e-5, 4);
        for e in &ev {
            assert!((e.i as usize) < buf.len());
            assert!((e.j as usize) < buf.len());
            assert_ne!(e.i, e.j);
            assert!(e.rel_speed >= 0.0);
        }
    }
}
