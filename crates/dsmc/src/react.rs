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
//!
//! Both run per cell inside [`crate::ColliReact`], after the cell's
//! collisions, each on the cell's own keyed stream: the dissociations
//! over the cell's accepted H–H pairs that pass the test, then the
//! recombination over the ions the index lists in the cell.

use crate::keyed::SharedParticles;
use particles::SpeciesTable;
use rand::Rng;

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
    /// The dissociation test at squared relative speed `g2` (m²/s²):
    /// whether an H–H pair's relative kinetic energy `½ μ g²`
    /// (`μ = m_H / 2`, the reduced mass of identical partners) reaches
    /// the activation energy. The NTC kernel keeps the accepted pairs
    /// that pass it for the cell's dissociations.
    pub fn dissociation_test(
        &self,
        species: &SpeciesTable,
        h_id: u8,
    ) -> impl Fn(f64) -> bool + Copy + Send + Sync {
        let mu = species.get(h_id).mass / 2.0;
        let e_activation = self.e_activation;
        move |g2| 0.5 * mu * g2 >= e_activation
    }

    /// Dissociate a cell's reaction candidates, `pairs` of buffer
    /// indices in acceptance order, drawing from the cell's own `rng`:
    /// a pair still H–H (neither partner reacted or charge-exchanged
    /// since) reacts with probability `p_steric`, its faster partner
    /// becoming H⁺. Returns the dissociations.
    pub(crate) fn dissociate<R: Rng>(
        &self,
        pairs: &[(u32, u32)],
        buf: &SharedParticles<'_>,
        [h_id, hplus_id]: [u8; 2],
        rng: &mut R,
    ) -> usize {
        let mut born = 0;
        for &(i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            if buf.species(i) != h_id || buf.species(j) != h_id {
                continue;
            }
            if rng.gen::<f64>() < self.p_steric {
                // the faster partner ionises
                let k = if buf.vel(i).norm2() >= buf.vel(j).norm2() {
                    i
                } else {
                    j
                };
                buf.set_species(k, hplus_id);
                born += 1;
            }
        }
        born
    }

    /// Recombine a cell's `ions` (its index segment), drawing from the
    /// cell's own `rng`: each reverts to H (`h_id`) with probability
    /// `1 − exp(−k_r · n_i · Δt)`, `n_i` the cell's real ion density
    /// (`density`, m⁻³). Returns the recombinations.
    pub(crate) fn recombine<R: Rng>(
        &self,
        ions: &[u32],
        buf: &SharedParticles<'_>,
        (density, dt): (f64, f64),
        h_id: u8,
        rng: &mut R,
    ) -> usize {
        let p = 1.0 - (-self.k_recomb * density * dt).exp();
        if p <= 0.0 {
            return 0;
        }
        let mut recombined = 0;
        for &i in ions {
            if rng.gen::<f64>() < p {
                buf.set_species(i as usize, h_id);
                recombined += 1;
            }
        }
        recombined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collide::tests::{fill, indexed, lattice, pin};
    use crate::{CellScratch, ColliReact, ColliReactStats, CollisionModel, CrossCollisionModel};
    use kernels::Pool;
    use mesh::{TetMesh, Vec3};
    use particles::{Particle, ParticleBuffer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (TetMesh, SpeciesTable) {
        let (t, _, _) = SpeciesTable::hydrogen_plasma(1e12, 6000.0);
        (lattice(), t)
    }

    /// Rounds of Colli_React of `dt` on `buf`, keyed by steps `0..rounds`
    /// of seed 21 — NTC, MEX/CEX when `cross`, then the chemistry `chem`
    /// — on `lanes` at a floor of `per_lane` candidates a lane, the index
    /// rebuilt each round: the buffer, each round's statistics and the
    /// `(σg)_max` table.
    #[allow(clippy::too_many_arguments)]
    fn colli_react_on(
        m: &TetMesh,
        table: &SpeciesTable,
        mut buf: ParticleBuffer,
        (dt, rounds): (f64, u64),
        cross: bool,
        chem: Option<&ChemistryModel>,
        (lanes, per_lane): (&Pool, f64),
    ) -> (ParticleBuffer, Vec<ColliReactStats>, Vec<f64>) {
        let cross_model = CrossCollisionModel::default();
        let mut ntc = CollisionModel::new(m.num_cells(), table, 300.0);
        let mut scratch: Vec<CellScratch> = Vec::new();
        let mut stats = Vec::new();
        for step in 0..rounds {
            let mut index = indexed(m, &buf);
            let pass = ColliReact {
                mesh: m,
                species: table,
                ids: [0, 1],
                dt,
                key: crate::collision_key(21, step, 0),
                ntc: Some(&mut ntc),
                cross: cross.then_some(&cross_model),
                chemistry: chem,
            };
            stats.push(pass.run_with_floor(&mut buf, &mut index, lanes, &mut scratch, per_lane));
        }
        (buf, stats, ntc.sigma_g_max().to_vec())
    }

    /// [`colli_react_on`]: one round on one lane.
    fn one_round(
        m: &TetMesh,
        table: &SpeciesTable,
        buf: ParticleBuffer,
        dt: f64,
        cross: bool,
        chem: &ChemistryModel,
    ) -> (ParticleBuffer, ColliReactStats) {
        let serial = (&Pool::serial(), f64::INFINITY);
        let (buf, stats, _) = colli_react_on(m, table, buf, (dt, 1), cross, Some(chem), serial);
        (buf, stats[0])
    }

    /// A cell-0 buffer of H (species 0) at ±`speed` along x, the second
    /// of `species`.
    fn two_particles(m: &TetMesh, speed: f64, species: u8) -> ParticleBuffer {
        let mut buf = ParticleBuffer::new();
        for (k, (v, sp)) in [(speed, 0), (-speed, species)].into_iter().enumerate() {
            buf.push(Particle {
                pos: m.centroids[0],
                vel: Vec3::new(v, 0.0, 0.0),
                cell: 0,
                species: sp,
                id: k as u64,
            });
        }
        buf
    }

    /// Every reaction of these tests is certain once the threshold is
    /// met; nothing recombines.
    const SURE: ChemistryModel = ChemistryModel {
        e_activation: 8.0e-21,
        p_steric: 1.0,
        k_recomb: 0.0,
    };

    #[test]
    fn fast_collisions_dissociate() {
        let (m, table) = setup();
        // relative speed 20 km/s: energy = 0.5 * (m/2) * g² ≈ 1.7e-19 J >> threshold;
        // the pair collides many times, but only its first collision
        // finds both partners neutral
        let (buf, stats) = one_round(&m, &table, two_particles(&m, 1e4, 0), 1e-3, false, &SURE);
        assert!(stats.ntc.collisions > 1, "premise: {stats:?}");
        assert_eq!(stats.react.dissociations, 1);
        let n_ions = buf.species.iter().filter(|&&s| s == 1).count();
        assert_eq!(n_ions, 1);
    }

    #[test]
    fn slow_collisions_do_not_react() {
        let (m, table) = setup();
        let (buf, stats) = one_round(&m, &table, two_particles(&m, 10.0, 0), 1e-3, false, &SURE);
        assert!(stats.ntc.collisions > 0, "premise: {stats:?}");
        assert_eq!(stats.react.dissociations, 0);
        assert!(buf.species.iter().all(|&s| s == 0));
    }

    #[test]
    fn non_hh_pairs_skipped() {
        let (m, table) = setup();
        // an H-H+ pair: it cross-collides, but never dissociates
        let (_, stats) = one_round(&m, &table, two_particles(&m, 1e4, 1), 1e-3, true, &SURE);
        assert!(stats.cross.mex + stats.cross.cex > 0, "premise: {stats:?}");
        assert_eq!(stats.react.dissociations, 0);
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

    /// The default chemistry with a recombination rate that reverts
    /// about one ion in ten a round of `dt` in the cells of [`hot_cells`].
    fn both_ways(m: &TetMesh, table: &SpeciesTable, dt: f64) -> ChemistryModel {
        let density = 30.0 * table.get(1).weight / m.volumes[0];
        ChemistryModel {
            k_recomb: 0.1 / (density * dt),
            ..ChemistryModel::default()
        }
    }

    #[test]
    fn colli_react_is_the_same_on_any_lane_count() {
        let m = lattice();
        let (table, _, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let dt = 2e-7;
        let chem = both_ways(&m, &table, dt);
        let buf = hot_cells(&m);
        let run = |lanes: usize| {
            let on = (&Pool::new(lanes), 1.0);
            let (buf, stats, sgm) =
                colli_react_on(&m, &table, buf.clone(), (dt, 3), true, Some(&chem), on);
            (bits(&buf), stats, sgm)
        };
        let one = run(1);
        let total = one
            .1
            .iter()
            .copied()
            .fold(ColliReactStats::default(), ColliReactStats::add);
        assert!(
            total.cross.cex > 0 && total.react.dissociations > 0 && total.react.recombinations > 0,
            "premise: swaps and reactions both ways, {:?}",
            one.1
        );
        for lanes in 2..=4 {
            assert!(run(lanes) == one, "{lanes} lanes");
        }
    }

    #[test]
    fn a_cell_outcome_ignores_the_other_cells() {
        let m = lattice();
        let (table, _, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let dt = 2e-7;
        let chem = both_ways(&m, &table, dt);
        // one Colli_React round: the buffer and the (σg)_max table
        let round = |buf: ParticleBuffer| {
            let serial = (&Pool::serial(), f64::INFINITY);
            let (buf, stats, sgm) =
                colli_react_on(&m, &table, buf, (dt, 1), true, Some(&chem), serial);
            (buf, stats[0], sgm)
        };
        let full = hot_cells(&m);
        let (done, _, sgm) = round(full.clone());
        for c in [0u32, 3, 9] {
            // the cell alone, its particles in their buffer order
            let mut alone = ParticleBuffer::new();
            for i in (0..full.len()).filter(|&i| full.cell[i] == c) {
                alone.push(full.get(i));
            }
            let (done_alone, stats, sgm_alone) = round(alone);
            assert!(
                stats.ntc.collisions > 0 && stats.react != ReactStats::default(),
                "premise: cell {c} collides and reacts, {stats:?}"
            );
            let mine: Vec<_> = done.iter().filter(|p| p.cell == c).collect();
            assert!(mine == done_alone.iter().collect::<Vec<_>>(), "cell {c}");
            assert_eq!(sgm[c as usize].to_bits(), sgm_alone[c as usize].to_bits());
        }
    }

    /// One Colli_React round of the plain parts, each on its own, in the
    /// order the pass runs them, gives the bits of the pass: NTC, then
    /// MEX/CEX, each over every cell, is the pass without chemistry.
    #[test]
    fn the_pass_without_chemistry_is_ntc_then_cross() {
        let m = lattice();
        let (table, _, _) = SpeciesTable::hydrogen_plasma(1e12, 1e12);
        let buf = hot_cells(&m);
        let serial = (&Pool::serial(), f64::INFINITY);
        let (whole, _, sgm) =
            colli_react_on(&m, &table, buf.clone(), (2e-7, 1), true, None, serial);
        let mut parts = buf;
        let mut ntc = CollisionModel::new(m.num_cells(), &table, 300.0);
        let key = crate::collision_key(21, 0, 0);
        let mut index = indexed(&m, &parts);
        let pool = Pool::serial();
        ntc.collide(
            &m,
            &mut parts,
            &table,
            0,
            &mut index,
            2e-7,
            key,
            &pool,
            &mut Vec::new(),
        );
        CrossCollisionModel::default()
            .collide(&m, &mut parts, &table, 0, 1, &mut index, 2e-7, key, &pool);
        assert_eq!(pin(&whole, &sgm), pin(&parts, ntc.sigma_g_max()));
    }

    /// `n` H⁺ at rest in each cell of `cells`.
    fn ions(m: &TetMesh, cells: &[(usize, usize)]) -> ParticleBuffer {
        let mut buf = ParticleBuffer::new();
        for &(c, n) in cells {
            for _ in 0..n {
                buf.push(Particle {
                    pos: m.centroids[c],
                    vel: Vec3::ZERO,
                    cell: c as u32,
                    species: 1,
                    id: buf.len() as u64,
                });
            }
        }
        buf
    }

    /// Recombinations per cell over R rounds of ion-only cells (no
    /// neutral collides, nothing dissociates): each cell of N ions
    /// reverts `N·(1 − exp(−k_r·n_i·Δt))` in expectation,
    /// `n_i = N·w⁺/V`, and the count over the rounds lands within 4σ of
    /// its binomial spread.
    #[test]
    fn recombination_counts_match_the_rate() {
        let (m, table) = setup();
        let cells = [(0, 10), (1, 40), (2, 120), (5, 300)];
        let (dt, rounds) = (1e-6, 40);
        let chem = ChemistryModel {
            k_recomb: 0.2 * m.volumes[2] / (120.0 * table.get(1).weight * dt),
            ..ChemistryModel::default()
        };
        let buf = ions(&m, &cells);
        let mut reverted = vec![0usize; m.num_cells()];
        for round in 0..rounds {
            let (mut done, mut index) = (buf.clone(), indexed(&m, &buf));
            ColliReact {
                mesh: &m,
                species: &table,
                ids: [0, 1],
                dt,
                key: crate::collision_key(4, round, 0),
                ntc: None,
                cross: None,
                chemistry: Some(&chem),
            }
            .run(&mut done, &mut index, &Pool::serial(), &mut Vec::new());
            for i in (0..done.len()).filter(|&i| done.species[i] == 0) {
                reverted[done.cell[i] as usize] += 1;
            }
        }
        for (c, n) in cells {
            let density = n as f64 * table.get(1).weight / m.volumes[c];
            let p = 1.0 - (-chem.k_recomb * density * dt).exp();
            let expected = (rounds as usize * n) as f64 * p;
            let sigma = (expected * (1.0 - p)).sqrt();
            assert!(
                p > 0.005 && p < 0.9,
                "premise: a counted rate in cell {c}, p = {p}"
            );
            assert!(
                (reverted[c] as f64 - expected).abs() < 4.0 * sigma,
                "cell {c}: {} recombined, {expected:.1} ± {sigma:.1} expected",
                reverted[c]
            );
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
        let fraction = |n: usize| {
            let (_, stats) = one_round(&m, &table, ions(&m, &[(0, n)]), 1e-6, false, &chem);
            stats.react.recombinations as f64 / n as f64
        };
        let (dense, sparse) = (fraction(400), fraction(4));
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn zero_rate_means_no_recombination() {
        let (m, table) = setup();
        let chem = ChemistryModel {
            k_recomb: 0.0,
            ..ChemistryModel::default()
        };
        let (_, stats) = one_round(&m, &table, ions(&m, &[(0, 50)]), 1e-6, false, &chem);
        assert_eq!(stats.react.recombinations, 0);
    }
}
