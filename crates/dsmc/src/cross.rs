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
use crate::keyed::{
    cell_ranges, on_cells, pass_key, stream, Pass, SharedParticles, CANDIDATES_PER_LANE,
};
use kernels::Pool;
use mesh::TetMesh;
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

impl CrossCollisionModel {
    /// One NTC pass over neutral–ion pairs, which `index` (built on
    /// `buf`, two slots) lists in slot 0 (neutrals) and slot 1 (ions)
    /// of their cells; a CEX moves its pair between the two, so the
    /// index stays true to `buf`. Each occupied cell draws from its own
    /// stream, keyed by `key` ([`crate::collision_key`]) and the cell,
    /// so the pass gives the same bits on any `lanes`, over contiguous
    /// cell ranges as [`crate::CollisionModel::collide`]. Appends each accepted pair
    /// whose relative speed passes `reactive` (the chemistry's
    /// dissociation test: a later CEX can leave both partners neutral)
    /// to `events`, in cell order.
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
        events: &mut Vec<CollisionEvent>,
        reactive: impl Fn(f64) -> bool + Sync,
    ) -> CrossStats {
        self.collide_with_floor(
            mesh,
            buf,
            species,
            [neutral_id, ion_id],
            index,
            dt,
            key,
            lanes,
            events,
            reactive,
            CANDIDATES_PER_LANE,
        )
    }

    /// [`CrossCollisionModel::collide`] on the `[neutral, ion]` species
    /// ids with `per_lane` as the lane floor (tests force many lanes on
    /// a few cells through it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collide_with_floor(
        &self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        [neutral_id, ion_id]: [u8; 2],
        index: &mut CellIndex,
        dt: f64,
        key: u64,
        lanes: &Pool,
        events: &mut Vec<CollisionEvent>,
        reactive: impl Fn(f64) -> bool + Sync,
        per_lane: f64,
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
        let (m1, m2) = (n_sp.mass, i_sp.mass);

        let (at, order) = index.split_mut();
        // where cell c's [neutrals, ions] begin and end in the order
        let bounds = |c: usize| [0, 1, 2].map(|slot| at(c, slot));
        let expected = |c: usize| {
            let [lo, mid, hi] = bounds(c);
            (mid - lo) as f64 * (hi - mid) as f64 * f_n * sigma_g_max * dt / mesh.volumes[c]
        };
        let ranges = cell_ranges(mesh.num_cells(), expected, lanes, per_lane);

        let buf = SharedParticles::new(buf);
        let (buf, reactive, key) = (&buf, &reactive, pass_key(key, Pass::Cross));
        let cex_fraction = self.cex_fraction;
        on_cells(
            ranges,
            (order, |cells| at(cells.start, 0)..at(cells.end, 0)),
            |_| (),
            events,
            |cells, order, (), events| {
                let mut stats = CrossStats::default();
                let base = at(cells.start, 0);
                for c in cells {
                    let [lo, mid, hi] = bounds(c).map(|p| p - base);
                    let (neutrals, ions) = order[lo..hi].split_at_mut(mid - lo);
                    if neutrals.is_empty() || ions.is_empty() {
                        continue;
                    }
                    let mut rng = stream(key, c);
                    let expected = expected(c);
                    let n_cand = expected.floor() as usize
                        + usize::from(rng.gen::<f64>() < expected.fract());
                    for _ in 0..n_cand {
                        stats.candidates += 1;
                        let ka = rng.gen_range(0..neutrals.len());
                        let kb = rng.gen_range(0..ions.len());
                        let (a, b) = (neutrals[ka] as usize, ions[kb] as usize);
                        let (va, vb) = (buf.vel(a), buf.vel(b));
                        let g = (va - vb).norm();
                        let sigma_g = vhs.cross_section(g) * g;
                        stats.saturated += usize::from(sigma_g > sigma_g_max);
                        if rng.gen::<f64>() * sigma_g_max >= sigma_g {
                            continue;
                        }
                        if rng.gen::<f64>() < cex_fraction {
                            // CEX: identities swap, velocities stay — the
                            // electron hops, momentum of each *body* is
                            // untouched. The pair swaps segments too, so a
                            // partner drawn again acts in its new role.
                            buf.set_species(a, ion_id);
                            buf.set_species(b, neutral_id);
                            (neutrals[ka], ions[kb]) = (b as u32, a as u32);
                            stats.cex += 1;
                        } else {
                            // MEX: elastic isotropic VHS scattering
                            let cm = (va * m1 + vb * m2) / (m1 + m2);
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
            },
        )
        .into_iter()
        .fold(CrossStats::default(), |a, b| CrossStats {
            candidates: a.candidates + b.candidates,
            mex: a.mex + b.mex,
            cex: a.cex + b.cex,
            saturated: a.saturated + b.saturated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collide::tests::{every_pair, indexed};
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
        let mut ev = Vec::new();
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
            &mut ev,
            every_pair,
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
        let mut ev = Vec::new();
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
            &mut ev,
            every_pair,
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
        let mut ev = Vec::new();
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
            &mut ev,
            every_pair,
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
        let mut ev = Vec::new();
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
            &mut ev,
            every_pair,
        );
        assert!(stats.saturated > 0, "{stats:?}");
        assert!(stats.saturated <= stats.candidates);
    }

    /// Five passes (steps 0–4 of seed 11) on the 150 + 150 cell, every
    /// accepted pair recorded. Re-pinned when the pass moved to keyed
    /// per-cell streams and a CEX began to swap the pair's buckets
    /// (`cex_keeps_the_ion_count_of_an_asymmetric_cell`).
    #[test]
    fn kernel_is_pinned() {
        let (m, table, mut buf) = setup(150, 150);
        let model = CrossCollisionModel { cex_fraction: 0.5 };
        let mut ev = Vec::new();
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
                &mut ev,
                every_pair,
            );
        }
        assert_eq!(
            crate::collide::tests::pin(&buf, &ev, &[]),
            0xbea5_b6ed_95af_1bd3
        );
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
            let mut ev = Vec::new();
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
                &mut ev,
                every_pair,
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
            &mut Vec::new(),
            every_pair,
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
        let mut ev = Vec::new();
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
            &mut ev,
            every_pair,
        );
        assert_eq!(stats, CrossStats::default());
    }
}
