//! Chemical reactions (the paper's *Colli_React* component, reaction
//! half): dissociation/ionisation of H and recombination of H⁺
//! (paper §VI-C: "we are mainly concerned about the dissociation of H
//! and the recombination of H⁺").
//!
//! Model (documented substitution — see DESIGN.md): electrons are not
//! tracked as particles (quasi-neutral background), so
//! * **dissociation/ionisation**: an accepted H–H collision whose
//!   relative kinetic energy `½ μ g²` exceeds the activation energy
//!   converts one partner to H⁺ with a steric probability;
//! * **recombination**: each H⁺ reverts to H with probability
//!   `1 − exp(−k_r · n_i · Δt)` where `n_i` is the local real ion
//!   density (three-body recombination with the implicit electron
//!   fluid, quasi-neutrality `n_e ≈ n_i`).

use mesh::TetMesh;
use particles::{ParticleBuffer, SpeciesTable};
use rand::Rng;

use crate::collide::CollisionEvent;

/// Reaction-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChemistryModel {
    /// Activation energy for the dissociation channel (J).
    pub e_activation: f64,
    /// Steric factor: probability of reaction once the energy
    /// threshold is met.
    pub p_steric: f64,
    /// Recombination rate coefficient `k_r` (m³/s).
    pub k_recomb: f64,
}

impl Default for ChemistryModel {
    fn default() -> Self {
        ChemistryModel {
            // Threshold chosen so the plume's hot core (10 km/s drift,
            // collisional thermalisation) actually exercises the
            // channel at simulation scale: ~0.05 eV.
            e_activation: 8.0e-21,
            p_steric: 0.3,
            k_recomb: 1.0e-16,
        }
    }
}

/// Counts of reactions performed in one step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactStats {
    pub dissociations: usize,
    pub recombinations: usize,
}

impl ChemistryModel {
    /// The dissociation test at relative speed `g` (m/s): whether an
    /// H–H pair's relative kinetic energy `½ μ g²` (`μ = m_H / 2`, the
    /// reduced mass of identical partners) reaches the activation
    /// energy. A pair that fails it draws nothing and changes nothing
    /// in [`ChemistryModel::react_collisions`], so the collision
    /// passes record only the pairs that pass it.
    pub fn dissociation_test(
        &self,
        species: &SpeciesTable,
        h_id: u8,
    ) -> impl Fn(f64) -> bool + Copy {
        let mu = species.get(h_id).mass / 2.0;
        let e_activation = self.e_activation;
        move |g| 0.5 * mu * g * g >= e_activation
    }

    /// Process the collision events of this step: H–H pairs above the
    /// activation energy dissociate (one partner becomes H⁺).
    pub fn react_collisions<R: Rng>(
        &self,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        h_id: u8,
        hplus_id: u8,
        events: &[CollisionEvent],
        rng: &mut R,
    ) -> ReactStats {
        let reactive = self.dissociation_test(species, h_id);
        let mut stats = ReactStats::default();
        for e in events {
            let (i, j) = (e.i as usize, e.j as usize);
            if buf.species[i] != h_id || buf.species[j] != h_id {
                continue;
            }
            if reactive(e.rel_speed) && rng.gen::<f64>() < self.p_steric {
                // the faster partner ionises
                let k = if buf.vel(i).norm2() >= buf.vel(j).norm2() {
                    i
                } else {
                    j
                };
                buf.species[k] = hplus_id;
                stats.dissociations += 1;
            }
        }
        stats
    }

    /// Recombination pass: every H⁺ reverts to H with a probability
    /// set by the local ion density.
    #[allow(clippy::too_many_arguments)]
    pub fn recombine<R: Rng>(
        &self,
        mesh: &TetMesh,
        buf: &mut ParticleBuffer,
        species: &SpeciesTable,
        h_id: u8,
        hplus_id: u8,
        dt: f64,
        rng: &mut R,
    ) -> ReactStats {
        // local real ion density per cell
        let w_ion = species.get(hplus_id).weight;
        let mut ions_per_cell = vec![0u64; mesh.num_cells()];
        for i in 0..buf.len() {
            if buf.species[i] == hplus_id {
                ions_per_cell[buf.cell[i] as usize] += 1;
            }
        }
        let mut stats = ReactStats::default();
        for i in 0..buf.len() {
            if buf.species[i] != hplus_id {
                continue;
            }
            let c = buf.cell[i] as usize;
            let n_i = ions_per_cell[c] as f64 * w_ion / mesh.volumes[c];
            let p = 1.0 - (-self.k_recomb * n_i * dt).exp();
            if rng.gen::<f64>() < p {
                buf.species[i] = h_id;
                stats.recombinations += 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collide::tests::{every_pair, fill, indexed, lattice};
    use crate::{CollideStats, CollisionModel, CrossCollisionModel, CrossStats};
    use kernels::Pool;
    use mesh::{NozzleSpec, Vec3};
    use particles::Particle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (TetMesh, SpeciesTable) {
        let m = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        }
        .generate();
        let (t, _, _) = SpeciesTable::hydrogen_plasma(1e12, 6000.0);
        (m, t)
    }

    fn two_particles(speed: f64) -> ParticleBuffer {
        let mut buf = ParticleBuffer::new();
        for (k, v) in [speed, -speed].iter().enumerate() {
            buf.push(Particle {
                pos: Vec3::ZERO,
                vel: Vec3::new(*v, 0.0, 0.0),
                cell: 0,
                species: 0,
                id: k as u64,
            });
        }
        buf
    }

    #[test]
    fn fast_collisions_dissociate() {
        let (_m, table) = setup();
        let chem = ChemistryModel {
            p_steric: 1.0,
            ..ChemistryModel::default()
        };
        // relative speed 20 km/s: energy = 0.5 * (m/2) * g² ≈ 1.7e-19 J >> threshold
        let mut buf = two_particles(1e4);
        let events = [CollisionEvent {
            i: 0,
            j: 1,
            rel_speed: 2e4,
        }];
        let mut rng = StdRng::seed_from_u64(1);
        let stats = chem.react_collisions(&mut buf, &table, 0, 1, &events, &mut rng);
        assert_eq!(stats.dissociations, 1);
        let n_ions = buf.species.iter().filter(|&&s| s == 1).count();
        assert_eq!(n_ions, 1);
    }

    #[test]
    fn slow_collisions_do_not_react() {
        let (_m, table) = setup();
        let chem = ChemistryModel {
            p_steric: 1.0,
            ..ChemistryModel::default()
        };
        let mut buf = two_particles(10.0);
        let events = [CollisionEvent {
            i: 0,
            j: 1,
            rel_speed: 20.0,
        }];
        let mut rng = StdRng::seed_from_u64(2);
        let stats = chem.react_collisions(&mut buf, &table, 0, 1, &events, &mut rng);
        assert_eq!(stats.dissociations, 0);
        assert!(buf.species.iter().all(|&s| s == 0));
    }

    #[test]
    fn non_hh_pairs_skipped() {
        let (_m, table) = setup();
        let chem = ChemistryModel {
            p_steric: 1.0,
            ..ChemistryModel::default()
        };
        let mut buf = two_particles(1e4);
        buf.species[1] = 1; // H-H+ pair
        let events = [CollisionEvent {
            i: 0,
            j: 1,
            rel_speed: 2e4,
        }];
        let mut rng = StdRng::seed_from_u64(3);
        let stats = chem.react_collisions(&mut buf, &table, 0, 1, &events, &mut rng);
        assert_eq!(stats.dissociations, 0);
    }

    /// A cell of 200 H at temperature `t` (K) and 100 H⁺ drifting at
    /// `ion_drift` (m/s) along z.
    fn gas(m: &TetMesh, t: f64, ion_drift: f64) -> ParticleBuffer {
        let mut rng = StdRng::seed_from_u64(8);
        let mut buf = ParticleBuffer::new();
        for k in 0..300u64 {
            let (species, drift) = if k < 200 {
                (0, Vec3::ZERO)
            } else {
                (1, Vec3::new(0.0, 0.0, ion_drift))
            };
            buf.push(Particle {
                pos: m.centroids[0],
                vel: particles::sample::maxwellian(&mut rng, t, particles::MASS_H, drift),
                cell: 0,
                species,
                id: k,
            });
        }
        buf
    }

    /// Three rounds of Colli_React of `dt` on `buf` (NTC, MEX/CEX, then
    /// dissociation), the passes keyed by steps 0–2 of seed 21 and
    /// recording the pairs `keep` passes, on `lanes` at a floor of
    /// `per_lane` candidates a lane: every bit the rounds write and
    /// draw, and the recorded lists.
    #[allow(clippy::type_complexity)]
    fn colli_react_on(
        m: &TetMesh,
        table: &SpeciesTable,
        mut buf: ParticleBuffer,
        dt: f64,
        keep: impl Fn(f64) -> bool + Copy + Sync,
        (lanes, per_lane): (&Pool, f64),
    ) -> (
        ParticleBuffer,
        Vec<(CollideStats, CrossStats, ReactStats)>,
        Vec<f64>,
        StdRng,
        Vec<CollisionEvent>,
    ) {
        let chem = ChemistryModel::default();
        let cross = CrossCollisionModel::default();
        let mut ntc = CollisionModel::new(m.num_cells(), table, 300.0);
        let mut rng = StdRng::seed_from_u64(21);
        let (mut stats, mut recorded) = (Vec::new(), Vec::new());
        for step in 0..3 {
            let key = crate::collision_key(21, step, 0);
            let mut ev = Vec::new();
            let mut index = indexed(m, &buf);
            let c = ntc.collide_with_floor(
                m, &mut buf, table, 0, &index, dt, key, lanes, &mut ev, keep, per_lane,
            );
            let x = cross.collide_with_floor(
                m,
                &mut buf,
                table,
                [0, 1],
                &mut index,
                dt,
                key,
                lanes,
                &mut ev,
                keep,
                per_lane,
            );
            let r = chem.react_collisions(&mut buf, table, 0, 1, &ev, &mut rng);
            stats.push((c, x, r));
            recorded.extend(ev);
        }
        (buf, stats, ntc.sigma_g_max().to_vec(), rng, recorded)
    }

    /// [`colli_react_on`] on one lane.
    #[allow(clippy::type_complexity)]
    fn colli_react(
        m: &TetMesh,
        table: &SpeciesTable,
        buf: ParticleBuffer,
        dt: f64,
        keep: impl Fn(f64) -> bool + Copy + Sync,
    ) -> (
        ParticleBuffer,
        Vec<(CollideStats, CrossStats, ReactStats)>,
        Vec<f64>,
        StdRng,
        Vec<CollisionEvent>,
    ) {
        colli_react_on(m, table, buf, dt, keep, (&Pool::serial(), f64::INFINITY))
    }

    /// Every bit of a buffer's velocity lanes, and its species ids.
    fn bits(b: &ParticleBuffer) -> (Vec<u64>, Vec<u8>) {
        let lanes = [&b.vx, &b.vy, &b.vz].into_iter().flatten();
        (
            lanes.map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.species.clone(),
        )
    }

    /// Ten cells of 60 H at 1500 K and 30 H⁺ drifting at 10 km/s.
    fn hot_cells(m: &TetMesh) -> ParticleBuffer {
        let mut rng = StdRng::seed_from_u64(8);
        let mut buf = ParticleBuffer::new();
        fill(m, &mut buf, 0..10, 60, (0, 1500.0, Vec3::ZERO), &mut rng);
        fill(
            m,
            &mut buf,
            0..10,
            30,
            (1, 1500.0, Vec3::new(0.0, 0.0, 1e4)),
            &mut rng,
        );
        // interleave the cells, as a moved buffer holds them
        let mut order: Vec<usize> = (0..buf.len()).collect();
        order.sort_by_key(|&i| (i * 7919) % buf.len());
        let mut mixed = ParticleBuffer::new();
        for i in order {
            mixed.push(buf.get(i));
        }
        mixed
    }

    #[test]
    fn colli_react_is_the_same_on_any_lane_count() {
        let m = lattice();
        let (table, _, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let reactive = ChemistryModel::default().dissociation_test(&table, 0);
        let buf = hot_cells(&m);
        let run = |lanes: usize| {
            let (buf, stats, sgm, rng, events) = colli_react_on(
                &m,
                &table,
                buf.clone(),
                2e-7,
                reactive,
                (&Pool::new(lanes), 1.0),
            );
            (bits(&buf), stats, sgm, rng, events)
        };
        let one = run(1);
        let (cex, dissociations): (usize, usize) = one
            .1
            .iter()
            .fold((0, 0), |(c, d), (_, x, r)| (c + x.cex, d + r.dissociations));
        assert!(
            cex > 0 && dissociations > 0 && !one.4.is_empty(),
            "premise: swaps, candidates and reactions, {:?}",
            one.1
        );
        for lanes in 2..=3 {
            assert!(run(lanes) == one, "{lanes} lanes");
        }
    }

    #[test]
    fn a_cell_outcome_ignores_the_other_cells() {
        let m = lattice();
        let (table, _, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        // the two keyed passes of one Colli_React, every accepted pair
        // recorded: the buffer, the (σg)_max table and the pairs
        let passes = |mut buf: ParticleBuffer| {
            let mut ntc = CollisionModel::new(m.num_cells(), &table, 300.0);
            let (key, serial, mut ev) =
                (crate::collision_key(21, 0, 0), Pool::serial(), Vec::new());
            let mut index = indexed(&m, &buf);
            ntc.collide(
                &m, &mut buf, &table, 0, &index, 2e-7, key, &serial, &mut ev, every_pair,
            );
            let cross = CrossCollisionModel::default();
            cross.collide(
                &m, &mut buf, &table, 0, 1, &mut index, 2e-7, key, &serial, &mut ev, every_pair,
            );
            (buf, ntc.sigma_g_max().to_vec(), ev)
        };
        let full = hot_cells(&m);
        let (done, sgm, events) = passes(full.clone());
        for c in [0u32, 3, 9] {
            // the cell alone, its particles in their buffer order
            let mut alone = ParticleBuffer::new();
            for i in (0..full.len()).filter(|&i| full.cell[i] == c) {
                alone.push(full.get(i));
            }
            let (done_alone, sgm_alone, events_alone) = passes(alone);
            let mine: Vec<_> = done.iter().filter(|p| p.cell == c).collect();
            assert!(mine == done_alone.iter().collect::<Vec<_>>(), "cell {c}");
            assert_eq!(sgm[c as usize].to_bits(), sgm_alone[c as usize].to_bits());
            // the same pairs (by particle id), relative speeds and order
            let pairs = |buf: &ParticleBuffer, events: &[CollisionEvent]| {
                events
                    .iter()
                    .filter(|e| buf.cell[e.i as usize] == c)
                    .map(|e| {
                        (
                            buf.id[e.i as usize],
                            buf.id[e.j as usize],
                            e.rel_speed.to_bits(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            let pairs_alone = pairs(&done_alone, &events_alone);
            assert!(!pairs_alone.is_empty(), "premise: cell {c} collides");
            assert_eq!(pairs(&done, &events), pairs_alone, "cell {c}");
        }
    }

    #[test]
    fn reaction_candidates_react_as_every_accepted_pair() {
        let m = NozzleSpec {
            nd: 4,
            nz: 4,
            ..NozzleSpec::default()
        }
        .generate();
        let (table, _, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let reactive = ChemistryModel::default().dissociation_test(&table, 0);
        // a hot cell with fast ions, and a cold one; a step short
        // enough that most particles collide at most once in a round
        for (t, ion_drift, dt, hot) in [(1500.0, 1e4, 2e-7, true), (40.0, 0.0, 5e-6, false)] {
            let buf = gas(&m, t, ion_drift);
            let (fbuf, fstats, fsgm, frng, candidates) =
                colli_react(&m, &table, buf.clone(), dt, reactive);
            let (abuf, astats, asgm, arng, every) = colli_react(&m, &table, buf, dt, every_pair);
            assert!(bits(&fbuf) == bits(&abuf), "T = {t}: particles");
            assert_eq!(fstats, astats, "T = {t}: pass statistics");
            assert_eq!(fsgm, asgm, "T = {t}: (σg)_max");
            assert!(frng == arng, "T = {t}: RNG end state");
            let kept: Vec<CollisionEvent> = every
                .iter()
                .filter(|e| reactive(e.rel_speed))
                .copied()
                .collect();
            assert_eq!(candidates, kept, "T = {t}: the full list filtered in order");

            let accepted: usize = astats
                .iter()
                .map(|(c, x, _)| c.collisions + x.mex + x.cex)
                .sum();
            assert_eq!(every.len(), accepted);
            let dissociations: usize = astats.iter().map(|(_, _, r)| r.dissociations).sum();
            if hot {
                assert!(
                    4 * candidates.len() >= every.len() && dissociations > 0,
                    "premise: {} of {} accepted pairs clear the threshold, {dissociations} react",
                    candidates.len(),
                    every.len()
                );
            } else {
                assert!(
                    every.len() > 100 && 100 * candidates.len() <= every.len(),
                    "premise: {} of {} accepted pairs clear the threshold",
                    candidates.len(),
                    every.len()
                );
            }
        }
    }

    #[test]
    fn recombination_rate_increases_with_density() {
        let (m, table) = setup();
        // rate sized so the dense cloud recombines at ~50% per step
        // at this mesh's cell volume and the H+ weight of 6000
        let chem = ChemistryModel {
            k_recomb: 1.5e-9,
            ..ChemistryModel::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        // dense ion cloud in cell 0
        let mut dense = ParticleBuffer::new();
        for k in 0..400u64 {
            dense.push(Particle {
                pos: m.centroids[0],
                vel: Vec3::ZERO,
                cell: 0,
                species: 1,
                id: k,
            });
        }
        let stats_dense = chem.recombine(&m, &mut dense, &table, 0, 1, 1e-6, &mut rng);
        // sparse cloud: 4 ions
        let mut sparse = ParticleBuffer::new();
        for k in 0..4u64 {
            sparse.push(Particle {
                pos: m.centroids[0],
                vel: Vec3::ZERO,
                cell: 0,
                species: 1,
                id: k,
            });
        }
        let stats_sparse = chem.recombine(&m, &mut sparse, &table, 0, 1, 1e-6, &mut rng);
        let frac_dense = stats_dense.recombinations as f64 / 400.0;
        let frac_sparse = stats_sparse.recombinations as f64 / 4.0;
        assert!(
            frac_dense > frac_sparse,
            "dense {frac_dense} vs sparse {frac_sparse}"
        );
    }

    #[test]
    fn zero_rate_means_no_recombination() {
        let (m, table) = setup();
        let chem = ChemistryModel {
            k_recomb: 0.0,
            ..ChemistryModel::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = ParticleBuffer::new();
        for k in 0..50u64 {
            buf.push(Particle {
                pos: m.centroids[0],
                vel: Vec3::ZERO,
                cell: 0,
                species: 1,
                id: k,
            });
        }
        let stats = chem.recombine(&m, &mut buf, &table, 0, 1, 1e-6, &mut rng);
        assert_eq!(stats.recombinations, 0);
    }
}
