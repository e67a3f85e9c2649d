//! Which particles sit in each coarse cell: one stable counting sort of
//! a buffer's indices by (cell, species slot), the definition the
//! collision passes and [`crate::ParticleBuffer::sort_by_cell`] share.

use crate::ParticleBuffer;
use kernels::{atomic_u32s, carve_mut, chunk_ranges, team, Pool};
use std::sync::atomic::Ordering::Relaxed;

/// Particles a lane of the build takes at least: a spawned lane costs
/// 41–48 µs (`kernels.dispatch_us`), and counting and scattering 32,768
/// particles takes a few times that.
const PARTICLES_PER_LANE: usize = 1 << 15;

/// A buffer's particle indices grouped by (coarse cell, species slot).
/// Each segment lists its indices in ascending buffer order; every
/// array keeps its capacity from build to build, so a rebuild over a
/// buffer no larger than an earlier one allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CellIndex {
    slots: usize,
    /// `start[cell · slots + slot]`: where that segment begins in
    /// `order`; one entry past the last cell holds the indexed count.
    start: Vec<u32>,
    pub(crate) order: Vec<u32>,
    /// Per run of the buffer, each segment's count, then where the
    /// run's part of the segment ends in `order`.
    counts: Vec<u32>,
}

impl CellIndex {
    /// Index the particles of `buf` over `num_cells` cells of `slots`
    /// slots each: particle `i` goes to slot `slot(species[i])` of its
    /// cell, or nowhere when that is `None`. The buffer is cut into one
    /// contiguous run per lane of `lanes` (at least
    /// `PARTICLES_PER_LANE` particles each; one run on a serial pool):
    /// each lane counts its run's segments, one prefix sum over
    /// (segment, run) places each run's part of each segment after the
    /// earlier runs' parts, and each lane scatters its run backwards
    /// from its parts' ends. So a segment comes out ascending, and the
    /// order is the same on any lane count.
    pub fn build(
        &mut self,
        buf: &ParticleBuffer,
        num_cells: usize,
        slots: usize,
        slot: impl Fn(u8) -> Option<usize> + Sync,
        lanes: &Pool,
    ) {
        self.build_with_floor(buf, num_cells, slots, slot, lanes, PARTICLES_PER_LANE);
    }

    /// [`CellIndex::build`] with `per_lane` as the lane floor (tests
    /// force many runs on a few particles through it).
    fn build_with_floor(
        &mut self,
        buf: &ParticleBuffer,
        num_cells: usize,
        slots: usize,
        slot: impl Fn(u8) -> Option<usize> + Sync,
        lanes: &Pool,
        per_lane: usize,
    ) {
        let segments = num_cells * slots;
        let key = |c: u32, s: u8| {
            debug_assert!((c as usize) < num_cells);
            Some(c as usize * slots + slot(s)?)
        };
        let n = buf.len();
        let runs = chunk_ranges(n, lanes.workers().min(n / per_lane).max(1));
        let particles = |run: &std::ops::Range<usize>| {
            let (cell, species) = (&buf.cell[run.clone()], &buf.species[run.clone()]);
            (run.clone()).zip(cell.iter().zip(species))
        };
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(runs.len() * segments, 0);
        let per_run: Vec<_> = runs.iter().map(|_| 0..segments).collect();
        let parts: Vec<_> = runs.iter().zip(carve_mut(&per_run, counts)).collect();
        team(parts, |_, (run, counts)| {
            for (_, (&c, &s)) in particles(run) {
                if let Some(k) = key(c, s) {
                    counts[k] += 1;
                }
            }
        });
        let start = &mut self.start;
        start.clear();
        start.reserve(segments + 1);
        let mut sum = 0;
        for k in 0..segments {
            start.push(sum);
            for r in 0..runs.len() {
                sum += counts[r * segments + k];
                counts[r * segments + k] = sum;
            }
        }
        start.push(sum);
        let order = &mut self.order;
        order.resize(sum as usize, 0);
        // each run stores only into its own parts of the segments, which
        // the prefix sum made disjoint
        let shared = atomic_u32s(order);
        let parts: Vec<_> = runs.iter().zip(carve_mut(&per_run, counts)).collect();
        team(parts, |_, (run, ends)| {
            for (i, (&c, &s)) in particles(run).rev() {
                if let Some(k) = key(c, s) {
                    ends[k] -= 1;
                    shared[ends[k] as usize].store(i as u32, Relaxed);
                }
            }
        });
        self.slots = slots;
    }

    /// Buffer indices, ascending, of the particles in `cell`'s `slot`.
    pub fn segment(&self, cell: usize, slot: usize) -> &[u32] {
        let k = cell * self.slots + slot;
        &self.order[self.start[k] as usize..self.start[k + 1] as usize]
    }

    /// Where each segment begins in the order, as `at(cell, slot)`
    /// (`at(cell, slots)` is `at(cell + 1, 0)`), and the order to
    /// permute within a cell's span: a pass that changes a particle's
    /// species moves it between its cell's segments.
    pub fn split_mut(&mut self) -> (impl Fn(usize, usize) -> usize + Sync + '_, &mut [u32]) {
        let (slots, start) = (self.slots, &self.start);
        (move |c, s| start[c * slots + s] as usize, &mut self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Particle;
    use mesh::Vec3;
    use proptest::prelude::*;

    fn buffer(particles: &[(u32, u8)]) -> ParticleBuffer {
        let mut buf = ParticleBuffer::new();
        for (k, &(cell, species)) in particles.iter().enumerate() {
            buf.push(Particle {
                pos: Vec3::ZERO,
                vel: Vec3::ZERO,
                cell,
                species,
                id: k as u64,
            });
        }
        buf
    }

    #[test]
    fn one_slot_segments_count_each_cell() {
        let buf = buffer(&[0, 0, 1, 2, 2, 2].map(|c| (c, (c % 2) as u8)));
        let mut index = CellIndex::default();
        index.build(&buf, 4, 1, |_| Some(0), &Pool::serial());
        let lengths: Vec<usize> = (0..4).map(|c| index.segment(c, 0).len()).collect();
        assert_eq!(lengths, vec![2, 1, 3, 0]);
        assert_eq!(index.order, [0, 1, 2, 3, 4, 5]);
    }

    proptest! {
        #[test]
        fn segments_are_the_naive_buckets_and_reuse_capacity(
            particles in proptest::collection::vec((0u32..40, 0u8..4), 0..500),
            num_cells in 1usize..41,
            slots in 1usize..4,
            dropped in 0u8..4,
        ) {
            let particles: Vec<(u32, u8)> = particles
                .into_iter()
                .map(|(c, s)| (c % num_cells as u32, s))
                .collect();
            // species `dropped` goes nowhere, the others to slots in turn
            let slot = |s: u8| (s != dropped).then_some(s as usize % slots);
            let buf = buffer(&particles);
            let mut index = CellIndex::default();
            // one lane per particle at most: 1..=4 runs, each a lane
            for lanes in 1..=4 {
                index.build_with_floor(&buf, num_cells, slots, slot, &Pool::new(lanes), 1);
                let mut total = 0;
                for c in 0..num_cells {
                    for s in 0..slots {
                        let naive: Vec<u32> = (0..buf.len() as u32)
                            .filter(|&i| {
                                buf.cell[i as usize] as usize == c && slot(buf.species[i as usize]) == Some(s)
                            })
                            .collect();
                        prop_assert!(index.segment(c, s) == &naive[..], "{lanes} lanes, cell {c}, slot {s}");
                        total += naive.len();
                    }
                }
                let kept = particles.iter().filter(|&&(_, s)| s != dropped).count();
                prop_assert_eq!(total, kept);
                prop_assert_eq!(index.order.len(), kept);
            }

            // a smaller buffer after a larger one keeps the order's array
            let (capacity, at) = (index.order.capacity(), index.order.as_ptr());
            index.build(&buffer(&particles[..particles.len() / 2]), num_cells, slots, slot, &Pool::serial());
            prop_assert_eq!(index.order.capacity(), capacity);
            prop_assert_eq!(index.order.as_ptr(), at);
        }
    }
}
