//! What the parts of Colli_React share to run on lanes: a keyed
//! stream per cell and part, contiguous cell ranges balanced by the
//! collision passes' candidate estimate, and the buffer's velocity and
//! species lanes shared by those ranges. The move keys its flights'
//! wall draws through the same [`stream`].
//!
//! Each occupied cell draws from one `StdRng` per part (NTC, MEX/CEX,
//! dissociation, recombination), seeded through SplitMix64 (the
//! standard 64-bit finalizer-style mixer) from the step's
//! [`collision_key`], the part and the global coarse cell, and reads and
//! writes only the particles its segments of the subcycle's
//! [`particles::CellIndex`] hold (one counting sort by cell and species
//! slot, built once for the whole pass). So a cell's outcome depends on
//! neither the other cells, nor the lane that runs it, nor the rank
//! that owns it: Colli_React gives the same bits on any lane count.

use kernels::{atomic_f64s, atomic_u8s, Pool};
use mesh::Vec3;
use particles::ParticleBuffer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};

/// Estimated candidate pairs a lane of a pass takes at least: a spawned
/// lane costs 41–48 µs (`kernels.dispatch_us`), and 2,048 candidates at
/// 60–80 ns each take about three times that.
pub(crate) const CANDIDATES_PER_LANE: f64 = 2048.0;

/// The parts of Colli_React in a cell, each keyed apart from the others.
#[derive(Clone, Copy)]
pub(crate) enum Pass {
    Ntc = 0,
    Cross = 1,
    Dissociation = 2,
    Recombination = 3,
}

/// splitmix64 — the standard 64-bit finalizer-style mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The key of Colli_React's per-cell passes in DSMC subcycle `subcycle`
/// of step `step` of the run seeded `seed` (the run's seed, the same on
/// every rank).
pub fn collision_key(seed: u64, step: u64, subcycle: u64) -> u64 {
    [step, subcycle]
        .into_iter()
        .fold(splitmix64(seed), |key, x| splitmix64(key ^ x))
}

/// The key a pass's cells draw under: [`stream`] takes it per cell.
pub(crate) fn pass_key(key: u64, pass: Pass) -> u64 {
    splitmix64(key ^ pass as u64)
}

/// The stream of item `index` under `key`: a collision pass's global
/// coarse cell under its [`pass_key`], or a flight of one move, by its
/// buffer index, under that move's key.
pub(crate) fn stream(key: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(key ^ index as u64))
}

/// The `n` cells of a pass split for `pool`: contiguous ranges covering
/// every cell, one per lane, of near-equal summed `load(c)` (the pass's
/// expected candidate count in cell `c`). One range unless `pool` has
/// two or more workers and the total reaches two lanes of `per_lane`;
/// `load` is not evaluated on a serial pool.
pub(crate) fn cell_ranges(
    n: usize,
    load: impl Fn(usize) -> f64,
    pool: &Pool,
    per_lane: f64,
) -> Vec<Range<usize>> {
    if pool.is_serial() {
        return std::iter::once(0..n).collect();
    }
    let load: Vec<f64> = (0..n).map(load).collect();
    let total: f64 = load.iter().sum();
    let lanes = pool.workers().min((total / per_lane) as usize);
    if lanes < 2 {
        return std::iter::once(0..n).collect();
    }
    let mut ends = Vec::with_capacity(lanes);
    let mut sum = 0.0;
    for (c, &l) in load.iter().enumerate() {
        let share = total * (ends.len() + 1) as f64 / lanes as f64;
        if ends.len() + 1 < lanes && sum + l >= share {
            // the cell that takes the running sum past the range's
            // share ends it, or starts the next one, whichever lands
            // nearer the share
            ends.push(if share - sum < sum + l - share {
                c
            } else {
                c + 1
            });
        }
        sum += l;
    }
    ends.push(n);
    let mut start = 0;
    ends.into_iter()
        .map(|end| {
            let cells = start..end;
            start = end;
            cells
        })
        .collect()
}

/// The velocity and species lanes of a [`ParticleBuffer`], shared by
/// the lanes of one pass as atomics ([`kernels::atomic_f64s`]). The
/// lanes touch these elements concurrently, but only the particles of
/// their own cells: the segments of the pass's `CellIndex` partition
/// the particles (its order holds each buffer index at most once, and a
/// lane reads only its own cells' span of it), so no element is read by
/// one lane and written by another, and the bits written do not depend
/// on how the lanes are scheduled.
pub(crate) struct SharedParticles<'a> {
    vel: [&'a [AtomicU64]; 3],
    species: &'a [AtomicU8],
}

impl<'a> SharedParticles<'a> {
    pub(crate) fn new(buf: &'a mut ParticleBuffer) -> Self {
        let ParticleBuffer {
            vx,
            vy,
            vz,
            species,
            ..
        } = buf;
        SharedParticles {
            vel: [vx, vy, vz].map(|lane| atomic_f64s(lane)),
            species: atomic_u8s(species),
        }
    }

    /// Velocity component `k` (0 = x) of particle `i`.
    pub(crate) fn vel_component(&self, k: usize, i: usize) -> f64 {
        f64::from_bits(self.vel[k][i].load(Relaxed))
    }

    pub(crate) fn vel(&self, i: usize) -> Vec3 {
        Vec3::new(
            self.vel_component(0, i),
            self.vel_component(1, i),
            self.vel_component(2, i),
        )
    }

    pub(crate) fn set_vel(&self, i: usize, v: Vec3) {
        for (lane, x) in self.vel.iter().zip([v.x, v.y, v.z]) {
            lane[i].store(x.to_bits(), Relaxed);
        }
    }

    pub(crate) fn species(&self, i: usize) -> u8 {
        self.species[i].load(Relaxed)
    }

    pub(crate) fn set_species(&self, i: usize, s: u8) {
        self.species[i].store(s, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_ranges_cover_the_cells_and_balance_the_load() {
        let load: Vec<f64> = (0..100).map(|c| ((c * 37) % 11) as f64 * 100.0).collect();
        let total: f64 = load.iter().sum();
        let split =
            |workers, per_lane| cell_ranges(100, |c| load[c], &Pool::new(workers), per_lane);
        for workers in 1..=4 {
            let ranges = split(workers, 1.0);
            assert_eq!(ranges.len(), workers);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
                let sum: f64 = load[r.clone()].iter().sum();
                // a range misses its share by at most one cell
                assert!(
                    (sum - total / workers as f64).abs() <= 1000.0,
                    "{workers}: {sum}"
                );
            }
            assert_eq!(next, load.len());
        }
        // below two lanes' floor, one range
        assert_eq!(split(4, total / 1.5), vec![0..100]);
        assert_eq!(cell_ranges(0, |_| 1.0, &Pool::new(4), 1.0), vec![0..0]);
    }

    #[test]
    fn streams_differ_by_cell_pass_step_and_subcycle() {
        use rand::Rng;
        let draw = |key, pass, cell| stream(pass_key(key, pass), cell).gen::<u64>();
        let key = collision_key(7, 3, 0);
        let draws = [
            draw(key, Pass::Ntc, 5),
            draw(key, Pass::Ntc, 6),
            draw(key, Pass::Cross, 5),
            draw(key, Pass::Dissociation, 5),
            draw(key, Pass::Recombination, 5),
            draw(collision_key(7, 4, 0), Pass::Ntc, 5),
            draw(collision_key(7, 3, 1), Pass::Ntc, 5),
            draw(collision_key(8, 3, 0), Pass::Ntc, 5),
        ];
        for (i, a) in draws.iter().enumerate() {
            assert!(draws[i + 1..].iter().all(|b| a != b), "{draws:x?}");
        }
        assert_eq!(draw(key, Pass::Ntc, 5), draws[0]);
    }
}
