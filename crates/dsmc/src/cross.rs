//! Cross-species neutral–ion collisions: momentum exchange (MEX) and
//! charge exchange (CEX).
//!
//! The paper's related work (SUGAR, CHAOS) simulates MEX and CEX
//! collisions between neutral particles and charged particles in ion
//! thruster plumes; the paper's own solver "implements various
//! collision ... models". This module extends the NTC machinery to
//! H–H⁺ pairs:
//!
//! * **MEX**: elastic VHS scattering between a neutral and an ion —
//!   identical kinematics to neutral–neutral collisions (equal masses
//!   here, written for the general case).
//! * **CEX**: resonant charge exchange `H + H⁺ → H⁺ + H`: an electron
//!   hops between the partners, so the particles *swap identities*
//!   while keeping their velocities — a fast ion becomes a fast
//!   neutral and a slow neutral becomes a slow ion. This is the
//!   dominant process shaping thruster-plume wings.

use crate::colli_react::ColliReact;
use crate::collide::CellScratch;
use crate::keyed::SharedParticles;
use kernels::Pool;
use mesh::TetMesh;
use particles::sample::isotropic_direction;
use particles::{CellIndex, ParticleBuffer, SpeciesTable};
use rand::Rng;

/// Cross-collision parameters.
#[derive(Debug, Clone, Copy)]
pub struct CrossCollisionModel {
    /// Fraction of accepted neutral–ion collisions that are CEX (the
    /// rest are MEX). Resonant CEX cross-sections are comparable to
    /// the momentum-transfer cross-section for H/H⁺.
    pub cex_fraction: f64,
}

impl Default for CrossCollisionModel {
    fn default() -> Self {
        CrossCollisionModel { cex_fraction: 0.5 }
    }
}

/// Outcome counts of one cross-collision pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossStats {
    pub candidates: usize,
    pub mex: usize,
    pub cex: usize,
    /// Candidates whose σ(g)·g exceeded the pass's fixed `(σg)_max`,
    /// i.e. were accepted with a probability clipped to 1. Under VHS at
    /// ω = 0.75 σg grows as √g, so that is every pair faster than
    /// 4·g_ref (≈ 8.5 km/s for H); nothing ratchets the bound yet.
    pub saturated: usize,
}

/// What every cell of one MEX/CEX pass shares.
pub(crate) struct CrossPass<F> {
    /// `[neutral, ion]` species ids.
    ids: [u8; 2],
    /// `[neutral, ion]` masses (kg).
    masses: [f64; 2],
    /// The pairing weight `F_N` times the fixed `(σg)_max` and `Δt`.
    rate: f64,
    sigma_g_max: f64,
    cex_fraction: f64,
    accepts: F,
}

impl CrossCollisionModel {
    /// One NTC pass over neutral–ion pairs, which `index` (built on
    /// `buf`, two slots) lists in slot 0 (neutrals) and slot 1 (ions)
    /// of their cells; a CEX moves its pair between the two, so the
    /// index stays true to `buf`: [`ColliReact`] with MEX/CEX alone, on
    /// `lanes`.
    #[allow(clippy::too_many_arguments)]
    pub fn collide(
        &self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        ion_id: u8,
        index: &mut CellIndex,
        dt: f64,
        key: u64,
        lanes: &Pool,
    ) -> CrossStats {
        ColliReact {
            mesh,
            species,
            ids: [neutral_id, ion_id],
            dt,
            key,
            ntc: None,
            cross: Some(self),
            chemistry: None,
        }
        .run(buf, index, lanes, &mut Vec::<CellScratch>::new())
        .cross
    }

    /// The pass's constants for the `[neutral, ion]` species `ids` over
    /// a subcycle of `dt`. The ion scaling factor is usually far smaller
    /// than the neutral one; NTC pairing uses the larger weight so every
    /// selected pair represents min-weight physics (standard
    /// conservative choice for disparate weights). `(σg)_max` is fixed
    /// at twice σg at `g_ref`.
    pub(crate) fn pass(
        &self,
        species: &SpeciesTable,
        ids: [u8; 2],
        dt: f64,
    ) -> CrossPass<impl Fn(f64, f64) -> bool + Copy + Sync> {
        let [n_sp, i_sp] = ids.map(|id| species.get(id));
        let vhs = n_sp.vhs();
        let sigma_g_max = 2.0 * vhs.cross_section(vhs.g_ref) * vhs.g_ref;
        CrossPass {
            ids,
            masses: [n_sp.mass, i_sp.mass],
            rate: n_sp.weight.max(i_sp.weight) * sigma_g_max * dt,
            sigma_g_max,
            cex_fraction: self.cex_fraction,
            accepts: vhs.acceptance(),
        }
    }
}

impl<F: Fn(f64, f64) -> bool> CrossPass<F> {
    /// Expected candidates of a cell of `n` neutrals and `m` ions of
    /// volume `volume`: `N_n N_i F_N (σg)_max Δt / V`.
    pub(crate) fn expected(&self, n: usize, m: usize, volume: f64) -> f64 {
        n as f64 * m as f64 * self.rate / volume
    }

    /// The MEX/CEX kernel on one cell with `neutrals` and `ions` (its
    /// index segments, both non-empty), drawing from the cell's own
    /// stream `rng`. A CEX swaps its pair between the two segments, so
    /// a partner drawn again acts in its new role.
    pub(crate) fn collide<R: Rng>(
        &self,
        (neutrals, ions): (&mut [u32], &mut [u32]),
        buf: &SharedParticles<'_>,
        expected: f64,
        rng: &mut R,
        stats: &mut CrossStats,
    ) {
        let ([neutral_id, ion_id], [m1, m2]) = (self.ids, self.masses);
        let n_cand = expected.floor() as usize + usize::from(rng.gen::<f64>() < expected.fract());
        for _ in 0..n_cand {
            stats.candidates += 1;
            let ka = rng.gen_range(0..neutrals.len());
            let kb = rng.gen_range(0..ions.len());
            let (a, b) = (neutrals[ka] as usize, ions[kb] as usize);
            let (va, vb) = (buf.vel(a), buf.vel(b));
            let g2 = (va - vb).norm2();
            stats.saturated += usize::from((self.accepts)(self.sigma_g_max, g2));
            if !(self.accepts)(rng.gen::<f64>() * self.sigma_g_max, g2) {
                continue;
            }
            if rng.gen::<f64>() < self.cex_fraction {
                // CEX: identities swap, velocities stay — the electron
                // hops, momentum of each *body* is untouched. The pair
                // swaps segments too, so a partner drawn again acts in
                // its new role.
                buf.set_species(a, ion_id);
                buf.set_species(b, neutral_id);
                (neutrals[ka], ions[kb]) = (b as u32, a as u32);
                stats.cex += 1;
            } else {
                // MEX: elastic isotropic VHS scattering
                let cm = (va * m1 + vb * m2) / (m1 + m2);
                let dir = isotropic_direction(rng) * g2.sqrt();
                buf.set_vel(a, cm + dir * (m2 / (m1 + m2)));
                buf.set_vel(b, cm - dir * (m1 / (m1 + m2)));
                stats.mex += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collide::tests::indexed;
    use crate::collision_key;
    use mesh::{NozzleSpec, Vec3};
    use particles::Particle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(nn: usize, ni: usize) -> (TetMesh, SpeciesTable, ParticleBuffer) {
        let m = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        }
        .generate();
        let (table, h, hp) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = ParticleBuffer::new();
        for k in 0..(nn + ni) as u64 {
            let sp = if (k as usize) < nn { h } else { hp };
            // ions drift fast, neutrals are slow: CEX visibly swaps
            let drift = if sp == hp {
                Vec3::new(0.0, 0.0, 2e4)
            } else {
                Vec3::ZERO
            };
            buf.push(Particle {
                pos: m.centroids[0],
                vel: particles::sample::maxwellian(&mut rng, 300.0, particles::MASS_H, drift),
                cell: 0,
                species: sp,
                id: k,
            });
        }
        (m, table, buf)
    }

    #[test]
    fn conserves_species_totals() {
        let (m, table, mut buf) = setup(150, 150);
        let model = CrossCollisionModel::default();
        let key = 1;
        let before_ions = buf.species.iter().filter(|&&s| s == 1).count();
        let mut index = indexed(&m, &buf);
        let stats = model.collide(
            &m,
            &mut buf,
            &table,
            0,
            1,
            &mut index,
            5e-6,
            key,
            &Pool::serial(),
        );
        assert!(stats.candidates > 0, "no candidates drawn");
        let after_ions = buf.species.iter().filter(|&&s| s == 1).count();
        // CEX swaps identities pairwise: totals unchanged
        assert_eq!(before_ions, after_ions);
        assert_eq!(buf.len(), 300);
    }

    #[test]
    fn cex_transfers_drift_to_neutrals() {
        let (m, table, mut buf) = setup(200, 200);
        let model = CrossCollisionModel { cex_fraction: 1.0 };
        let key = 2;
        let mean_vz = |buf: &ParticleBuffer, sp: u8| {
            let vs: Vec<f64> = (0..buf.len())
                .filter(|&i| buf.species[i] == sp)
                .map(|i| buf.vz[i])
                .collect();
            vs.iter().sum::<f64>() / vs.len() as f64
        };
        let neutral_vz_before = mean_vz(&buf, 0);
        let mut index = indexed(&m, &buf);
        let stats = model.collide(
            &m,
            &mut buf,
            &table,
            0,
            1,
            &mut index,
            2e-5,
            key,
            &Pool::serial(),
        );
        assert!(stats.cex > 5, "need CEX events, got {stats:?}");
        assert_eq!(stats.mex, 0);
        let neutral_vz_after = mean_vz(&buf, 0);
        // fast ions became neutrals: neutral drift must rise
        assert!(
            neutral_vz_after > neutral_vz_before + 100.0,
            "{neutral_vz_before} -> {neutral_vz_after}"
        );
    }

    #[test]
    fn mex_conserves_momentum_and_energy() {
        let (m, table, mut buf) = setup(150, 150);
        let model = CrossCollisionModel { cex_fraction: 0.0 };
        let key = 4;
        let mom = |buf: &ParticleBuffer| buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let energy = |buf: &ParticleBuffer| -> f64 { buf.iter().map(|p| p.vel.norm2()).sum() };
        let (p0, e0) = (mom(&buf), energy(&buf));
        let mut index = indexed(&m, &buf);
        let stats = model.collide(
            &m,
            &mut buf,
            &table,
            0,
            1,
            &mut index,
            5e-6,
            key,
            &Pool::serial(),
        );
        assert!(stats.mex > 0);
        // H and H+ masses differ by one electron mass (~0.05%), so
        // conservation holds to that order
        assert!((mom(&buf) - p0).norm() < 1e-3 * p0.norm());
        assert!((energy(&buf) - e0).abs() < 1e-3 * e0);
    }

    #[test]
    fn ions_at_twenty_km_s_saturate_the_fixed_bound() {
        // setup's ions drift at 2 × 10⁴ m/s, past 4·g_ref ≈ 8.5 km/s
        let (m, table, mut buf) = setup(150, 150);
        let model = CrossCollisionModel::default();
        let key = 6;
        let mut index = indexed(&m, &buf);
        let stats = model.collide(
            &m,
            &mut buf,
            &table,
            0,
            1,
            &mut index,
            5e-6,
            key,
            &Pool::serial(),
        );
        assert!(stats.saturated > 0, "{stats:?}");
        assert!(stats.saturated <= stats.candidates);
    }

    /// Five passes (steps 0–4 of seed 11) on the 150 + 150 cell.
    /// Re-pinned when the pass moved to keyed per-cell streams and a CEX
    /// began to swap the pair's buckets
    /// (`cex_keeps_the_ion_count_of_an_asymmetric_cell`), and again when
    /// it began to accept in g² and scatter by disc rejection.
    #[test]
    fn kernel_is_pinned() {
        let (m, table, mut buf) = setup(150, 150);
        let model = CrossCollisionModel { cex_fraction: 0.5 };
        for step in 0..5 {
            let key = collision_key(11, step, 0);
            let mut index = indexed(&m, &buf);
            model.collide(
                &m,
                &mut buf,
                &table,
                0,
                1,
                &mut index,
                5e-6,
                key,
                &Pool::serial(),
            );
        }
        assert_eq!(crate::collide::tests::pin(&buf, &[]), 0x0171_53b9_a1c9_8c90);
    }

    /// 200 H and 100 H⁺ at 2 × 10⁴ m/s in one cell, all CEX: a particle
    /// drawn again after a swap must act in its new role, so the ion
    /// count stays 100 (it drifted when the buckets kept the old roles).
    #[test]
    fn cex_keeps_the_ion_count_of_an_asymmetric_cell() {
        let (m, table, base) = setup(200, 100);
        let model = CrossCollisionModel { cex_fraction: 1.0 };
        let ions = |buf: &ParticleBuffer| buf.species.iter().filter(|&&s| s == 1).count();
        for key in 0..4 {
            let mut buf = base.clone();
            let mut index = indexed(&m, &buf);
            let stats = model.collide(
                &m,
                &mut buf,
                &table,
                0,
                1,
                &mut index,
                1e-6,
                key,
                &Pool::serial(),
            );
            assert!(stats.cex > 100, "premise: partners drawn again, {stats:?}");
            assert_eq!(ions(&buf), 100, "key {key}: {stats:?}");
        }
    }

    /// A CEX moves its pair between the cell's index segments: after a
    /// pass of many swaps, the neutral segment holds only neutrals, the
    /// ion segment only ions, and the two together the cell's particles.
    #[test]
    fn cex_keeps_the_index_true_to_the_buffer() {
        let (m, table, mut buf) = setup(200, 100);
        let model = CrossCollisionModel { cex_fraction: 1.0 };
        let mut index = indexed(&m, &buf);
        let stats = model.collide(
            &m,
            &mut buf,
            &table,
            0,
            1,
            &mut index,
            1e-6,
            7,
            &Pool::serial(),
        );
        assert!(stats.cex > 100, "premise: partners drawn again, {stats:?}");
        for c in 0..m.num_cells() {
            let (neutrals, ions) = (index.segment(c, 0), index.segment(c, 1));
            assert!(neutrals.iter().all(|&i| buf.species[i as usize] == 0));
            assert!(ions.iter().all(|&i| buf.species[i as usize] == 1));
            let mut both = [neutrals, ions].concat();
            both.sort_unstable();
            let mine: Vec<u32> = (0..buf.len() as u32)
                .filter(|&i| buf.cell[i as usize] as usize == c)
                .collect();
            assert_eq!(both, mine, "cell {c}");
        }
    }

    #[test]
    fn no_partners_no_collisions() {
        let (m, table, mut buf) = setup(100, 0);
        let model = CrossCollisionModel::default();
        let key = 5;
        let mut index = indexed(&m, &buf);
        let stats = model.collide(
            &m,
            &mut buf,
            &table,
            0,
            1,
            &mut index,
            1e-5,
            key,
            &Pool::serial(),
        );
        assert_eq!(stats, CrossStats::default());
    }
}
