//! What the two per-cell passes of Colli_React (NTC and MEX/CEX)
//! share to run on lanes: a keyed stream per cell, contiguous cell
//! ranges balanced by the pass's candidate estimate, and the buffer's
//! velocity and species lanes shared by those ranges.
//!
//! Each occupied cell of a pass draws from its own `StdRng`, seeded
//! through SplitMix64 (the standard 64-bit finalizer-style mixer) from
//! the step's [`collision_key`], the pass and the global coarse cell,
//! and reads and writes only the particles its bucket list holds. So a
//! cell's outcome depends on neither the other cells, nor the lane that
//! runs it, nor the rank that owns it: a pass gives the same bits on
//! any lane count, and its reaction candidates come back in cell order.

use crate::collide::CollisionEvent;
use kernels::{carve_mut, team, Pool};
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

/// The per-cell passes, each keyed apart from the other.
#[derive(Clone, Copy)]
pub(crate) enum Pass {
    Ntc = 0,
    Cross = 1,
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

/// The key a pass's cells draw under: [`cell_rng`] takes it per cell.
pub(crate) fn pass_key(key: u64, pass: Pass) -> u64 {
    splitmix64(key ^ pass as u64)
}

/// The stream global coarse cell `cell` draws from in the pass keyed
/// `pass_key`.
pub(crate) fn cell_rng(pass_key: u64, cell: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(pass_key ^ cell as u64))
}

/// The `n` cells of a pass split for `pool`: contiguous ranges covering
/// every cell, one per lane, of near-equal summed `load(c)` (the pass's
/// expected candidate count in cell `c`), each with the most candidates
/// its cells can draw (a cell draws `⌊load⌋` or `⌊load⌋ + 1`). One range
/// unless `pool` has two or more workers and the total reaches two
/// lanes of `per_lane`; `load` is not evaluated on a serial pool.
pub(crate) fn cell_ranges(
    n: usize,
    load: impl Fn(usize) -> f64,
    pool: &Pool,
    per_lane: f64,
) -> Vec<(Range<usize>, usize)> {
    if pool.is_serial() {
        return vec![(0..n, 0)];
    }
    let load: Vec<f64> = (0..n).map(load).collect();
    let total: f64 = load.iter().sum();
    let lanes = pool.workers().min((total / per_lane) as usize);
    if lanes < 2 {
        return vec![(0..n, 0)];
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
            let bound = load[cells.clone()]
                .iter()
                .filter(|&&l| l > 0.0)
                .map(|&l| l as usize + 1)
                .sum();
            (cells, bound)
        })
        .collect()
}

/// One pass over the cell `ranges` of [`cell_ranges`], one lane each:
/// `pass(cells, data, scratch, events)` runs on each range with the
/// range's entries of `data` (one per cell). The caller's thread takes
/// the first range with a default `scratch` and appends to `events`
/// itself. Each further lane takes a `scratch(range)` and appends to a
/// vector reserved for its range's candidate bound, both made by the
/// caller (so no helper lane allocates), and its vector is appended to
/// `events` after the region, in range order. Returns the per-range
/// results in range order.
pub(crate) fn on_cells<T: Send, X: Send + Default, S: Send>(
    ranges: Vec<(Range<usize>, usize)>,
    data: &mut [T],
    scratch: impl Fn(&Range<usize>) -> X,
    events: &mut Vec<CollisionEvent>,
    pass: impl Fn(Range<usize>, &mut [T], X, &mut Vec<CollisionEvent>) -> S + Sync,
) -> Vec<S> {
    if let [(cells, _)] = &ranges[..] {
        return vec![pass(cells.clone(), data, X::default(), events)];
    }
    let (cells, bounds): (Vec<_>, Vec<_>) = ranges.into_iter().unzip();
    let mut spare: Vec<_> = bounds[1..].iter().map(|&b| Vec::with_capacity(b)).collect();
    let lists = std::iter::once(&mut *events).chain(spare.iter_mut());
    let parts: Vec<_> = cells
        .iter()
        .zip(carve_mut(&cells, data))
        .zip(lists)
        .enumerate()
        .map(|(k, ((cells, data), events))| {
            let scratch = if k == 0 { X::default() } else { scratch(cells) };
            (cells.clone(), data, scratch, events)
        })
        .collect();
    let out = team(parts, |_, (cells, data, scratch, events), _| {
        pass(cells, data, scratch, events)
    });
    for list in spare {
        events.extend_from_slice(&list);
    }
    out
}

/// The velocity and species lanes of a [`ParticleBuffer`], shared by
/// the lanes of one pass. Every access is a `Relaxed` atomic, a plain
/// load or store on the targets this runs on; no stronger order is
/// needed, because each element is touched by one lane only and the
/// region's join orders every lane's stores before the caller's next
/// access to the buffer.
pub(crate) struct SharedParticles<'a> {
    vel: [&'a [AtomicU64]; 3],
    species: &'a [AtomicU8],
}

// the cast below reinterprets f64 lanes as AtomicU64 ones
const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<f64>());

impl<'a> SharedParticles<'a> {
    pub(crate) fn new(buf: &'a mut ParticleBuffer) -> Self {
        let ParticleBuffer {
            vx,
            vy,
            vz,
            species,
            ..
        } = buf;
        // SAFETY: `AtomicU64` and `AtomicU8` have the size, alignment
        // (asserted above) and bit validity of `f64` and `u8`, and the
        // exclusive borrow of `buf` keeps every non-atomic access out
        // for `'a`. The lanes of a pass touch these elements
        // concurrently, but only the particles of their own cells: the
        // bucket lists partition the particles, so no element is read
        // by one lane and written by another, and the bits written do
        // not depend on how the lanes are scheduled.
        unsafe {
            SharedParticles {
                vel: [vx, vy, vz]
                    .map(|l| &*(l.as_mut_slice() as *mut [f64] as *const [AtomicU64])),
                species: &*(species.as_mut_slice() as *mut [u8] as *const [AtomicU8]),
            }
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
            for (r, bound) in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
                let sum: f64 = load[r.clone()].iter().sum();
                let occupied = load[r.clone()].iter().filter(|&&l| l > 0.0).count();
                if workers > 1 {
                    assert_eq!(*bound, sum as usize + occupied);
                }
                // a range misses its share by at most one cell
                assert!(
                    (sum - total / workers as f64).abs() <= 1000.0,
                    "{workers}: {sum}"
                );
            }
            assert_eq!(next, load.len());
        }
        // below two lanes' floor, one range
        assert_eq!(split(4, total / 1.5), vec![(0..100, 0)]);
        assert_eq!(cell_ranges(0, |_| 1.0, &Pool::new(4), 1.0), vec![(0..0, 0)]);
    }

    #[test]
    fn streams_differ_by_cell_pass_step_and_subcycle() {
        use rand::Rng;
        let draw = |key, pass, cell| cell_rng(pass_key(key, pass), cell).gen::<u64>();
        let key = collision_key(7, 3, 0);
        let draws = [
            draw(key, Pass::Ntc, 5),
            draw(key, Pass::Ntc, 6),
            draw(key, Pass::Cross, 5),
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
