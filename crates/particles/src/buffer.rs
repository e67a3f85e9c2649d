//! Structure-of-arrays particle storage.
//!
//! Positions and velocities are stored as six independent `Vec<f64>`
//! lanes (`px/py/pz`, `vx/vy/vz`), not as `Vec<Vec3>`: collide gathers
//! one cell's velocity lanes, the emigrant pack streams one field at a
//! time, and the parallel move carves exactly the lanes it writes
//! into disjoint per-lane chunks. The [`Particle`] value type remains
//! the API boundary (and it keeps the per-particle wire format
//! explicit — see [`crate::pack`]).

use crate::CellIndex;
use kernels::Pool;
use mesh::Vec3;

/// One particle, as a value type (used at API boundaries; storage is
/// SoA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub pos: Vec3,
    pub vel: Vec3,
    /// Global coarse-grid cell id containing the particle.
    pub cell: u32,
    /// Species id into the [`crate::species::SpeciesTable`].
    pub species: u8,
    /// Globally unique particle number (maintained by Reindex).
    pub id: u64,
}

/// SoA particle container with scalar position/velocity lanes.
#[derive(Debug, Clone, Default)]
pub struct ParticleBuffer {
    pub px: Vec<f64>,
    pub py: Vec<f64>,
    pub pz: Vec<f64>,
    pub vx: Vec<f64>,
    pub vy: Vec<f64>,
    pub vz: Vec<f64>,
    pub cell: Vec<u32>,
    pub species: Vec<u8>,
    pub id: Vec<u64>,
}

/// Reusable scratch for [`ParticleBuffer::sort_by_cell`]: a one-slot
/// [`CellIndex`] and a spare buffer the sorted lanes are gathered into.
/// Keeping one per rank amortises the allocations: after the first
/// sort every subsequent call is allocation-free (each sorted lane is
/// swapped with the spare's, which stay at capacity).
#[derive(Debug, Clone, Default)]
pub struct SortScratch {
    index: CellIndex,
    spare: ParticleBuffer,
}

impl ParticleBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        ParticleBuffer {
            px: Vec::with_capacity(n),
            py: Vec::with_capacity(n),
            pz: Vec::with_capacity(n),
            vx: Vec::with_capacity(n),
            vy: Vec::with_capacity(n),
            vz: Vec::with_capacity(n),
            cell: Vec::with_capacity(n),
            species: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        }
    }

    /// Number of particles stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.px.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.px.is_empty()
    }

    /// Position of particle `i` as a vector.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.px[i], self.py[i], self.pz[i])
    }

    /// Velocity of particle `i` as a vector.
    #[inline]
    pub fn vel(&self, i: usize) -> Vec3 {
        Vec3::new(self.vx[i], self.vy[i], self.vz[i])
    }

    /// Overwrite the position of particle `i`.
    #[inline]
    pub fn set_pos(&mut self, i: usize, p: Vec3) {
        self.px[i] = p.x;
        self.py[i] = p.y;
        self.pz[i] = p.z;
    }

    /// Overwrite the velocity of particle `i`.
    #[inline]
    pub fn set_vel(&mut self, i: usize, v: Vec3) {
        self.vx[i] = v.x;
        self.vy[i] = v.y;
        self.vz[i] = v.z;
    }

    /// Append one particle.
    pub fn push(&mut self, p: Particle) {
        self.px.push(p.pos.x);
        self.py.push(p.pos.y);
        self.pz.push(p.pos.z);
        self.vx.push(p.vel.x);
        self.vy.push(p.vel.y);
        self.vz.push(p.vel.z);
        self.cell.push(p.cell);
        self.species.push(p.species);
        self.id.push(p.id);
    }

    /// Read particle `i` as a value.
    #[inline]
    pub fn get(&self, i: usize) -> Particle {
        Particle {
            pos: self.pos(i),
            vel: self.vel(i),
            cell: self.cell[i],
            species: self.species[i],
            id: self.id[i],
        }
    }

    /// Overwrite particle `i`.
    pub fn set(&mut self, i: usize, p: Particle) {
        self.set_pos(i, p.pos);
        self.set_vel(i, p.vel);
        self.cell[i] = p.cell;
        self.species[i] = p.species;
        self.id[i] = p.id;
    }

    /// O(1) removal by swapping with the last particle.
    pub fn swap_remove(&mut self, i: usize) -> Particle {
        Particle {
            pos: Vec3::new(
                self.px.swap_remove(i),
                self.py.swap_remove(i),
                self.pz.swap_remove(i),
            ),
            vel: Vec3::new(
                self.vx.swap_remove(i),
                self.vy.swap_remove(i),
                self.vz.swap_remove(i),
            ),
            cell: self.cell.swap_remove(i),
            species: self.species.swap_remove(i),
            id: self.id.swap_remove(i),
        }
    }

    /// Keep only particles where `keep[i]`, preserving relative
    /// order. `keep.len()` must equal `self.len()`.
    pub fn compact(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len());
        let mut w = 0usize;
        for (r, &kept) in keep.iter().enumerate() {
            if kept {
                if w != r {
                    self.px[w] = self.px[r];
                    self.py[w] = self.py[r];
                    self.pz[w] = self.pz[r];
                    self.vx[w] = self.vx[r];
                    self.vy[w] = self.vy[r];
                    self.vz[w] = self.vz[r];
                    self.cell[w] = self.cell[r];
                    self.species[w] = self.species[r];
                    self.id[w] = self.id[r];
                }
                w += 1;
            }
        }
        self.truncate(w);
    }

    /// Drop all particles after index `n`.
    pub fn truncate(&mut self, n: usize) {
        self.px.truncate(n);
        self.py.truncate(n);
        self.pz.truncate(n);
        self.vx.truncate(n);
        self.vy.truncate(n);
        self.vz.truncate(n);
        self.cell.truncate(n);
        self.species.truncate(n);
        self.id.truncate(n);
    }

    /// Remove all particles.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Move every particle of `other` into `self` (draining `other`).
    pub fn append(&mut self, other: &mut ParticleBuffer) {
        self.px.append(&mut other.px);
        self.py.append(&mut other.py);
        self.pz.append(&mut other.pz);
        self.vx.append(&mut other.vx);
        self.vy.append(&mut other.vy);
        self.vz.append(&mut other.vz);
        self.cell.append(&mut other.cell);
        self.species.append(&mut other.species);
        self.id.append(&mut other.id);
    }

    /// Iterate particles as values.
    pub fn iter(&self) -> impl Iterator<Item = Particle> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Whether all nine lanes hold the same number of entries. Every
    /// public mutation preserves this; the property tests assert it
    /// after sorting, packing and compaction.
    pub fn lanes_consistent(&self) -> bool {
        let n = self.px.len();
        self.py.len() == n
            && self.pz.len() == n
            && self.vx.len() == n
            && self.vy.len() == n
            && self.vz.len() == n
            && self.cell.len() == n
            && self.species.len() == n
            && self.id.len() == n
    }

    /// Stable counting sort by cell id, O(n + num_cells): the order of
    /// a one-slot [`CellIndex`], gathered lane by lane. Restores
    /// cell-coherent memory order after many move/exchange steps have
    /// scrambled it, so the per-cell loops of collide and deposit
    /// stream contiguous memory again. `num_cells` must exceed every
    /// stored cell id.
    pub fn sort_by_cell(&mut self, num_cells: usize, scratch: &mut SortScratch) {
        scratch
            .index
            .build(self, num_cells, 1, |_| Some(0), &Pool::serial());
        let (order, spare) = (&scratch.index.order, &mut scratch.spare);
        gather(&mut self.px, &mut spare.px, order);
        gather(&mut self.py, &mut spare.py, order);
        gather(&mut self.pz, &mut spare.pz, order);
        gather(&mut self.vx, &mut spare.vx, order);
        gather(&mut self.vy, &mut spare.vy, order);
        gather(&mut self.vz, &mut spare.vz, order);
        gather(&mut self.cell, &mut spare.cell, order);
        gather(&mut self.species, &mut spare.species, order);
        gather(&mut self.id, &mut spare.id, order);
    }

    /// Renumber particle ids sequentially starting at `start`;
    /// returns the next free id. This is the per-rank half of the
    /// paper's *Reindex* component (ranks obtain disjoint `start`
    /// offsets from an exclusive scan of particle counts).
    pub fn renumber(&mut self, start: u64) -> u64 {
        for (k, id) in self.id.iter_mut().enumerate() {
            *id = start + k as u64;
        }
        start + self.len() as u64
    }
}

/// Put `lane` in `order` (buffer indices), through `spare`, which takes
/// the old lane.
fn gather<T: Copy>(lane: &mut Vec<T>, spare: &mut Vec<T>, order: &[u32]) {
    spare.clear();
    spare.extend(order.iter().map(|&i| lane[i as usize]));
    std::mem::swap(lane, spare);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> Particle {
        Particle {
            pos: Vec3::new(i as f64, 0.0, 0.0),
            vel: Vec3::new(0.0, i as f64, 0.0),
            cell: i as u32,
            species: (i % 2) as u8,
            id: i,
        }
    }

    #[test]
    fn push_get_roundtrip() {
        let mut b = ParticleBuffer::new();
        for i in 0..5 {
            b.push(p(i));
        }
        assert_eq!(b.len(), 5);
        for i in 0..5 {
            assert_eq!(b.get(i as usize), p(i));
        }
        assert!(b.lanes_consistent());
    }

    #[test]
    fn pos_vel_accessors_match_get() {
        let mut b = ParticleBuffer::new();
        let q = Particle {
            pos: Vec3::new(1.5, -2.25, 3.0),
            vel: Vec3::new(-4.0, 5.5, -6.75),
            cell: 9,
            species: 1,
            id: 42,
        };
        b.push(q);
        assert_eq!(b.pos(0), q.pos);
        assert_eq!(b.vel(0), q.vel);
        b.set_pos(0, Vec3::new(7.0, 8.0, 9.0));
        b.set_vel(0, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(b.get(0).pos, Vec3::new(7.0, 8.0, 9.0));
        assert_eq!(b.get(0).vel, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn swap_remove_keeps_others() {
        let mut b = ParticleBuffer::new();
        for i in 0..4 {
            b.push(p(i));
        }
        let removed = b.swap_remove(1);
        assert_eq!(removed, p(1));
        assert_eq!(b.len(), 3);
        let ids: Vec<u64> = b.iter().map(|q| q.id).collect();
        assert_eq!(ids, vec![0, 3, 2]);
        assert!(b.lanes_consistent());
    }

    #[test]
    fn compact_preserves_order() {
        let mut b = ParticleBuffer::new();
        for i in 0..6 {
            b.push(p(i));
        }
        b.compact(&[true, false, true, false, false, true]);
        let ids: Vec<u64> = b.iter().map(|q| q.id).collect();
        assert_eq!(ids, vec![0, 2, 5]);
        assert!(b.lanes_consistent());
    }

    #[test]
    fn append_drains_source() {
        let mut a = ParticleBuffer::new();
        let mut b = ParticleBuffer::new();
        a.push(p(1));
        b.push(p(2));
        b.push(p(3));
        a.append(&mut b);
        assert_eq!(a.len(), 3);
        assert!(b.is_empty());
        assert!(a.lanes_consistent() && b.lanes_consistent());
    }

    #[test]
    fn sort_by_cell_is_stable_and_reuses_scratch() {
        let mut b = ParticleBuffer::new();
        for (k, c) in [3u64, 1, 3, 0, 2, 1, 3, 0].into_iter().enumerate() {
            let mut q = p(k as u64);
            q.cell = c as u32;
            b.push(q);
        }
        let mut scratch = SortScratch::default();
        b.sort_by_cell(4, &mut scratch);
        let cells: Vec<u32> = b.cell.clone();
        assert_eq!(cells, vec![0, 0, 1, 1, 2, 3, 3, 3]);
        // stable: within a cell, original order (by id) preserved
        let ids: Vec<u64> = b.id.clone();
        assert_eq!(ids, vec![3, 7, 1, 5, 4, 0, 2, 6]);
        // position/velocity lanes travelled with their particles
        for i in 0..b.len() {
            let q = b.get(i);
            assert_eq!(q.pos.x, q.id as f64);
            assert_eq!(q.vel.y, q.id as f64);
        }
        assert!(b.lanes_consistent());
        // second sort on already-sorted data is a no-op
        let before: Vec<u64> = b.id.clone();
        b.sort_by_cell(4, &mut scratch);
        assert_eq!(b.id, before);
        // shrinking works with the same scratch
        b.truncate(3);
        b.sort_by_cell(4, &mut scratch);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn renumber_is_sequential() {
        let mut b = ParticleBuffer::new();
        for i in [9u64, 7, 5] {
            b.push(p(i));
        }
        let next = b.renumber(100);
        assert_eq!(next, 103);
        let ids: Vec<u64> = b.iter().map(|q| q.id).collect();
        assert_eq!(ids, vec![100, 101, 102]);
    }
}
