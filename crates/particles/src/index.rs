//! Which particles sit in each coarse cell: one stable counting sort of
//! a buffer's indices by (cell, species slot), the definition the
//! collision passes and [`crate::ParticleBuffer::sort_by_cell`] share.

use crate::ParticleBuffer;

/// A buffer's particle indices grouped by (coarse cell, species slot).
/// Each segment lists its indices in ascending buffer order; both
/// arrays keep their capacity from build to build, so a rebuild over a
/// buffer no larger than an earlier one allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CellIndex {
    slots: usize,
    /// `start[cell · slots + slot]`: where that segment begins in
    /// `order`; one entry past the last cell holds the indexed count.
    start: Vec<u32>,
    pub(crate) order: Vec<u32>,
}

impl CellIndex {
    /// Index the particles of `buf` over `num_cells` cells of `slots`
    /// slots each: particle `i` goes to slot `slot(species[i])` of its
    /// cell, or nowhere when that is `None`. One zero-fill and one
    /// prefix sum over the segments; the scatter runs backwards from
    /// each segment's end, so a segment comes out ascending.
    pub fn build(
        &mut self,
        buf: &ParticleBuffer,
        num_cells: usize,
        slots: usize,
        slot: impl Fn(u8) -> Option<usize>,
    ) {
        let particles = || buf.cell.iter().zip(&buf.species).enumerate();
        let key = |c: u32, s: u8| {
            debug_assert!((c as usize) < num_cells);
            Some(c as usize * slots + slot(s)?)
        };
        let (start, order) = (&mut self.start, &mut self.order);
        start.clear();
        start.resize(num_cells * slots + 1, 0);
        for (_, (&c, &s)) in particles() {
            if let Some(k) = key(c, s) {
                start[k] += 1;
            }
        }
        let mut sum = 0;
        for s in start.iter_mut() {
            sum += *s;
            *s = sum;
        }
        order.resize(sum as usize, 0);
        for (i, (&c, &s)) in particles().rev() {
            if let Some(k) = key(c, s) {
                start[k] -= 1;
                order[start[k] as usize] = i as u32;
            }
        }
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
        index.build(&buf, 4, 1, |_| Some(0));
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
            index.build(&buf, num_cells, slots, slot);
            let mut total = 0;
            for c in 0..num_cells {
                for s in 0..slots {
                    let naive: Vec<u32> = (0..buf.len() as u32)
                        .filter(|&i| {
                            buf.cell[i as usize] as usize == c && slot(buf.species[i as usize]) == Some(s)
                        })
                        .collect();
                    prop_assert_eq!(index.segment(c, s), &naive[..]);
                    total += naive.len();
                }
            }
            let kept = particles.iter().filter(|&&(_, s)| s != dropped).count();
            prop_assert_eq!(total, kept);
            prop_assert_eq!(index.order.len(), kept);

            // a smaller buffer after a larger one keeps the order's array
            let (capacity, at) = (index.order.capacity(), index.order.as_ptr());
            index.build(&buffer(&particles[..particles.len() / 2]), num_cells, slots, slot);
            prop_assert_eq!(index.order.capacity(), capacity);
            prop_assert_eq!(index.order.as_ptr(), at);
        }
    }
}
