//! Colli_React as one keyed pass over the cells of a DSMC subcycle
//! (the paper's *Colli_React* component): in each cell, NTC between
//! the neutrals, then MEX/CEX between neutrals and ions, then the
//! cell's dissociations, then its recombination — each part on the
//! cell's own stream (`dsmc::keyed`), reading and writing only the
//! particles the subcycle's [`CellIndex`] lists in the cell. A reaction
//! changes a species, never a position or a cell, so it stays inside
//! the cell that accepted the pair, and no list of events outlives the
//! cell.

use crate::collide::{CellScratch, CollideStats, CollisionModel};
use crate::cross::{CrossCollisionModel, CrossStats};
use crate::keyed::{cell_ranges, pass_key, stream, Pass, SharedParticles, CANDIDATES_PER_LANE};
use crate::react::{ChemistryModel, ReactStats};
use kernels::{carve_mut, team, Pool};
use mesh::TetMesh;
use particles::{CellIndex, ParticleBuffer, SpeciesTable};

/// One Colli_React pass: which parts run, over which species, for how
/// long and under which key. A part that is `None` is skipped (the
/// NTC-only and MEX/CEX-only passes of [`CollisionModel::collide`] and
/// [`CrossCollisionModel::collide`]).
pub struct ColliReact<'a> {
    pub mesh: &'a TetMesh,
    pub species: &'a SpeciesTable,
    /// The neutral and ion species ids: the index's slots 0 and 1.
    pub ids: [u8; 2],
    /// Subcycle length (s).
    pub dt: f64,
    /// The subcycle's key ([`crate::collision_key`]).
    pub key: u64,
    /// NTC between the neutrals, ratcheting the model's `(σg)_max`.
    pub ntc: Option<&'a mut CollisionModel>,
    /// MEX/CEX between neutrals and ions (needs the ion slot).
    pub cross: Option<&'a CrossCollisionModel>,
    /// Dissociation of NTC's reaction candidates, then recombination
    /// (needs the ion slot).
    pub chemistry: Option<&'a ChemistryModel>,
}

/// What one pass did, part by part.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColliReactStats {
    pub ntc: CollideStats,
    pub cross: CrossStats,
    pub react: ReactStats,
}

impl ColliReactStats {
    pub(crate) fn add(mut self, o: ColliReactStats) -> Self {
        self.ntc.candidates += o.ntc.candidates;
        self.ntc.collisions += o.ntc.collisions;
        self.cross.candidates += o.cross.candidates;
        self.cross.mex += o.cross.mex;
        self.cross.cex += o.cross.cex;
        self.cross.saturated += o.cross.saturated;
        self.react.dissociations += o.react.dissociations;
        self.react.recombinations += o.react.recombinations;
        self
    }
}

impl ColliReact<'_> {
    /// Run the pass over `buf`, whose particles `index` (built on `buf`)
    /// lists by cell, neutrals in slot 0 and ions in slot 1 (a one-slot
    /// index suffices for NTC alone). The cells run on `lanes` as
    /// contiguous ranges balanced by the expected collision candidates,
    /// one lane per `CANDIDATES_PER_LANE` of them at most, each lane on
    /// its own `scratch` entry (grown here to one per range). The bits
    /// written are the same on any lane count.
    pub fn run(
        self,
        buf: &mut ParticleBuffer,
        index: &mut CellIndex,
        lanes: &Pool,
        scratch: &mut Vec<CellScratch>,
    ) -> ColliReactStats {
        self.run_with_floor(buf, index, lanes, scratch, CANDIDATES_PER_LANE)
    }

    /// [`ColliReact::run`] with `per_lane` as the lane floor (tests
    /// force many lanes on a few cells through it).
    pub(crate) fn run_with_floor(
        self,
        buf: &mut ParticleBuffer,
        index: &mut CellIndex,
        lanes: &Pool,
        scratch: &mut Vec<CellScratch>,
        per_lane: f64,
    ) -> ColliReactStats {
        let ColliReact {
            mesh,
            species,
            ids,
            dt,
            key,
            ntc,
            cross,
            chemistry,
        } = self;
        let [h_id, hp_id] = ids;
        let (neutral, ion) = (species.get(h_id), species.get(hp_id));
        let vhs = neutral.vhs();
        let accepts = vhs.acceptance();
        let reactive = chemistry.map(|chem| chem.dissociation_test(species, h_id));
        let cross = cross.map(|x| x.pass(species, ids, dt));
        let with_ntc = ntc.is_some();
        let sigma_g_max: &mut [f64] = match ntc {
            Some(model) => &mut model.sigma_g_max,
            None => &mut [],
        };

        let (at, order) = index.split_mut();
        // where cell c's [neutrals, ions] begin and end in the order
        let bounds = |c: usize| [at(c, 0), at(c, 1), at(c + 1, 0)];
        let ntc_expected = |c: usize, sgm: f64| {
            let n = (at(c, 1) - at(c, 0)) as f64;
            0.5 * n * (n - 1.0) * neutral.weight * sgm * dt / mesh.volumes[c]
        };
        let cross_expected = |c: usize| {
            let [lo, mid, hi] = bounds(c);
            cross
                .as_ref()
                .map_or(0.0, |x| x.expected(mid - lo, hi - mid, mesh.volumes[c]))
        };
        let nc = mesh.num_cells();
        let ranges = {
            let sgm = &*sigma_g_max;
            let ntc_load = |c: usize| {
                if with_ntc {
                    ntc_expected(c, sgm[c])
                } else {
                    0.0
                }
            };
            cell_ranges(nc, |c| ntc_load(c) + cross_expected(c), lanes, per_lane)
        };
        // one scratch per range; a helper lane's is reserved here, on
        // the caller's thread, for its range's largest cell
        scratch.resize_with(ranges.len(), CellScratch::default);
        if with_ntc {
            for (cells, lane) in ranges.iter().zip(scratch.iter_mut()).skip(1) {
                let (mut most, mut candidates) = (0, 0);
                for c in cells.clone() {
                    most = most.max(at(c, 1) - at(c, 0));
                    candidates = candidates.max(ntc_expected(c, sigma_g_max[c]) as usize + 1);
                }
                lane.reserve(most, if reactive.is_some() { candidates } else { 0 });
            }
        }

        let spans: Vec<_> = ranges
            .iter()
            .map(|cells| at(cells.start, 0)..at(cells.end, 0))
            .collect();
        let sgm_parts = if with_ntc {
            carve_mut(&ranges, sigma_g_max)
        } else {
            ranges.iter().map(|_| &mut [][..]).collect()
        };
        let parts: Vec<_> = ranges
            .into_iter()
            .zip(sgm_parts)
            .zip(carve_mut(&spans, order))
            .zip(scratch.iter_mut())
            .collect();

        let buf = SharedParticles::new(buf);
        let buf = &buf;
        let keys = [
            Pass::Ntc,
            Pass::Cross,
            Pass::Dissociation,
            Pass::Recombination,
        ]
        .map(|pass| pass_key(key, pass));
        let ion_density = |c: usize, n: usize| n as f64 * ion.weight / mesh.volumes[c];
        team(parts, |_, (((cells, sgm), order), scratch)| {
            let mut stats = ColliReactStats::default();
            let (first, base) = (cells.start, at(cells.start, 0));
            for c in cells {
                let [lo, mid, hi] = bounds(c).map(|p| p - base);
                let (neutrals, ions) = order[lo..hi].split_at_mut(mid - lo);
                scratch.pairs.clear();
                if with_ntc && neutrals.len() >= 2 {
                    let sgm = &mut sgm[c - first];
                    let g2 = scratch.collide(
                        neutrals,
                        buf,
                        accepts,
                        (*sgm, ntc_expected(c, *sgm)),
                        &mut stream(keys[0], c),
                        &mut stats.ntc,
                        reactive,
                    );
                    // the ratchet: the fastest candidate, if it beat the bound
                    if accepts(*sgm, g2) {
                        let g = g2.sqrt();
                        *sgm = sgm.max(vhs.cross_section(g) * g);
                    }
                }
                if let Some(x) = &cross {
                    if !neutrals.is_empty() && !ions.is_empty() {
                        x.collide(
                            (neutrals, ions),
                            buf,
                            cross_expected(c),
                            &mut stream(keys[1], c),
                            &mut stats.cross,
                        );
                    }
                }
                if let Some(chem) = chemistry {
                    let mut born = 0;
                    if !scratch.pairs.is_empty() {
                        let rng = &mut stream(keys[2], c);
                        born = chem.dissociate(&scratch.pairs, buf, ids, rng);
                    }
                    stats.react.dissociations += born;
                    if !ions.is_empty() {
                        let density = ion_density(c, ions.len() + born);
                        let rng = &mut stream(keys[3], c);
                        stats.react.recombinations +=
                            chem.recombine(ions, buf, (density, dt), h_id, rng);
                    }
                }
            }
            stats
        })
        .into_iter()
        .fold(ColliReactStats::default(), ColliReactStats::add)
    }
}
