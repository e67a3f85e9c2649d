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

use crate::collide::CollisionEvent;
use mesh::TetMesh;
use particles::{ParticleBuffer, SpeciesTable};
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

impl CrossCollisionModel {
    /// One NTC pass over neutral–ion pairs. Appends each accepted
    /// pair whose relative speed passes `reactive` (the chemistry's
    /// dissociation test: a later CEX can leave both partners neutral)
    /// to `events`.
    #[allow(clippy::too_many_arguments)]
    pub fn collide<R: Rng>(
        &self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        neutral_id: u8,
        ion_id: u8,
        dt: f64,
        rng: &mut R,
        events: &mut Vec<CollisionEvent>,
        reactive: impl Fn(f64) -> bool,
    ) -> CrossStats {
        let n_sp = species.get(neutral_id);
        let i_sp = species.get(ion_id);
        // The ion scaling factor is usually far smaller than the
        // neutral one; NTC pairing uses the larger weight so every
        // selected pair represents min-weight physics (standard
        // conservative choice for disparate weights).
        let f_n = n_sp.weight.max(i_sp.weight);
        let vhs = n_sp.vhs();
        let sigma_g_max = 2.0 * vhs.cross_section(vhs.g_ref) * vhs.g_ref;

        // bucket both species per cell
        let nc = mesh.num_cells();
        let mut neutrals: Vec<Vec<u32>> = vec![Vec::new(); nc];
        let mut ions: Vec<Vec<u32>> = vec![Vec::new(); nc];
        for i in 0..buf.len() {
            let c = buf.cell[i] as usize;
            if buf.species[i] == neutral_id {
                neutrals[c].push(i as u32);
            } else if buf.species[i] == ion_id {
                ions[c].push(i as u32);
            }
        }

        let mut stats = CrossStats::default();
        for c in 0..nc {
            let nn = neutrals[c].len();
            let ni = ions[c].len();
            if nn == 0 || ni == 0 {
                continue;
            }
            let n_cand = nn as f64 * ni as f64 * f_n * sigma_g_max * dt / mesh.volumes[c];
            let n_cand = n_cand.floor() as usize + usize::from(rng.gen::<f64>() < n_cand.fract());

            for _ in 0..n_cand {
                stats.candidates += 1;
                let a = neutrals[c][rng.gen_range(0..nn)] as usize;
                let b = ions[c][rng.gen_range(0..ni)] as usize;
                let g_vec = buf.vel(a) - buf.vel(b);
                let g = g_vec.norm();
                let sigma_g = vhs.cross_section(g) * g;
                stats.saturated += usize::from(sigma_g > sigma_g_max);
                if rng.gen::<f64>() * sigma_g_max >= sigma_g {
                    continue;
                }
                if rng.gen::<f64>() < self.cex_fraction {
                    // CEX: identities swap, velocities stay — the
                    // electron hops, momentum of each *body* is
                    // untouched.
                    buf.species[a] = ion_id;
                    buf.species[b] = neutral_id;
                    stats.cex += 1;
                } else {
                    // MEX: elastic isotropic VHS scattering
                    let m1 = n_sp.mass;
                    let m2 = i_sp.mass;
                    let cm = (buf.vel(a) * m1 + buf.vel(b) * m2) / (m1 + m2);
                    let cos_t = 2.0 * rng.gen::<f64>() - 1.0;
                    let sin_t = (1.0 - cos_t * cos_t).sqrt();
                    let phi = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
                    let dir = mesh::Vec3::new(sin_t * phi.cos(), sin_t * phi.sin(), cos_t);
                    buf.set_vel(a, cm + dir * (g * m2 / (m1 + m2)));
                    buf.set_vel(b, cm - dir * (g * m1 / (m1 + m2)));
                    stats.mex += 1;
                }
                if reactive(g) {
                    events.push(CollisionEvent {
                        i: a as u32,
                        j: b as u32,
                        rel_speed: g,
                    });
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collide::tests::every_pair;
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
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = Vec::new();
        let before_ions = buf.species.iter().filter(|&&s| s == 1).count();
        let stats = model.collide(
            &m, &mut buf, &table, 0, 1, 5e-6, &mut rng, &mut ev, every_pair,
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
        let mut rng = StdRng::seed_from_u64(2);
        let mut ev = Vec::new();
        let mean_vz = |buf: &ParticleBuffer, sp: u8| {
            let vs: Vec<f64> = (0..buf.len())
                .filter(|&i| buf.species[i] == sp)
                .map(|i| buf.vz[i])
                .collect();
            vs.iter().sum::<f64>() / vs.len() as f64
        };
        let neutral_vz_before = mean_vz(&buf, 0);
        let stats = model.collide(
            &m, &mut buf, &table, 0, 1, 2e-5, &mut rng, &mut ev, every_pair,
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
        let mut rng = StdRng::seed_from_u64(4);
        let mut ev = Vec::new();
        let mom = |buf: &ParticleBuffer| buf.iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        let energy = |buf: &ParticleBuffer| -> f64 { buf.iter().map(|p| p.vel.norm2()).sum() };
        let (p0, e0) = (mom(&buf), energy(&buf));
        let stats = model.collide(
            &m, &mut buf, &table, 0, 1, 5e-6, &mut rng, &mut ev, every_pair,
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
        let mut rng = StdRng::seed_from_u64(6);
        let mut ev = Vec::new();
        let stats = model.collide(
            &m, &mut buf, &table, 0, 1, 5e-6, &mut rng, &mut ev, every_pair,
        );
        assert!(stats.saturated > 0, "{stats:?}");
        assert!(stats.saturated <= stats.candidates);
    }

    /// Recorded on the parent of the VHS-constants change, before the
    /// kernel was touched (five passes on the 150 + 150 cell, every
    /// accepted pair recorded).
    #[test]
    fn kernel_is_pinned() {
        let (m, table, mut buf) = setup(150, 150);
        let model = CrossCollisionModel { cex_fraction: 0.5 };
        let mut rng = StdRng::seed_from_u64(11);
        let mut ev = Vec::new();
        for _ in 0..5 {
            model.collide(
                &m, &mut buf, &table, 0, 1, 5e-6, &mut rng, &mut ev, every_pair,
            );
        }
        assert_eq!(
            crate::collide::tests::pin(&buf, &ev, &[]),
            0x4958_40ae_9ea9_101b
        );
    }

    #[test]
    fn no_partners_no_collisions() {
        let (m, table, mut buf) = setup(100, 0);
        let model = CrossCollisionModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ev = Vec::new();
        let stats = model.collide(
            &m, &mut buf, &table, 0, 1, 1e-5, &mut rng, &mut ev, every_pair,
        );
        assert_eq!(stats, CrossStats::default());
    }
}
