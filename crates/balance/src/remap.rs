//! KM-based grid remapping (paper §V-C, Fig. 6).
//!
//! After re-decomposition, the new parts must be assigned to ranks.
//! A naive (identity or random) assignment migrates far more
//! particles than necessary; the paper converts the problem to
//! maximum-weight bipartite matching — weight(part, rank) = load
//! already resident on `rank` that falls inside `part` — and solves
//! it with Kuhn–Munkres, keeping as much load in place as possible.

use partition::max_weight_assignment_sparse;

/// Remap new parts onto ranks with the KM algorithm. Returns the new
/// owner per cell.
///
/// * `old_owner[c]` — rank currently owning cell `c`
/// * `new_part[c]` — part id of cell `c` in the fresh decomposition
/// * `load[c]` — migration cost of cell `c` (its particle count)
/// * `k` — number of ranks (= number of parts)
pub fn remap_km(old_owner: &[u32], new_part: &[u32], load: &[u64], k: usize) -> Vec<u32> {
    assert_eq!(old_owner.len(), new_part.len());
    assert_eq!(old_owner.len(), load.len());

    // weight(part, rank) = load of `part` already on `rank`: one
    // triplet per cell, summed by the solver — the k×k matrix, which is
    // almost all zeros, is never built
    let cells = new_part
        .iter()
        .zip(old_owner)
        .zip(load)
        .map(|((&p, &r), &l)| (p as usize, r as usize, l as i64));
    let assignment = max_weight_assignment_sparse(k, cells);

    new_part
        .iter()
        .map(|&p| assignment[p as usize] as u32)
        .collect()
}

/// Baseline without KM: parts map to ranks by identity
/// (`part p → rank p`), as a pre-KM implementation would.
pub fn remap_identity(new_part: &[u32]) -> Vec<u32> {
    new_part.to_vec()
}

/// Total load that must migrate between ranks under a remapping.
pub fn migration_volume(old_owner: &[u32], new_owner: &[u32], load: &[u64]) -> u64 {
    old_owner
        .iter()
        .zip(new_owner)
        .zip(load)
        .filter(|((o, n), _)| o != n)
        .map(|(_, &l)| l)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 6 scenario: the new decomposition is a relabelling
    /// of the old one plus one moved cell; KM must recover the
    /// near-identity mapping.
    #[test]
    fn km_recovers_relabelled_partition() {
        // 6 cells, 2 ranks. old: rank0 = {0,1,2}, rank1 = {3,4,5}
        let old = vec![0, 0, 0, 1, 1, 1];
        // new partition labels are swapped: part1 = {0,1,2}, part0 = {3,4,5,}
        // plus cell 2 moved to the other side: part0 = {2,3,4,5}
        let new_part = vec![1, 1, 0, 0, 0, 0];
        let load = vec![10u64; 6];
        let owner = remap_km(&old, &new_part, &load, 2);
        // KM should map part1 -> rank0 and part0 -> rank1, so only
        // cell 2 migrates
        assert_eq!(owner, vec![0, 0, 1, 1, 1, 1]);
        assert_eq!(migration_volume(&old, &owner, &load), 10);
        // identity mapping would migrate 5 cells
        let naive = remap_identity(&new_part);
        assert_eq!(migration_volume(&old, &naive, &load), 50);
    }

    #[test]
    fn km_never_worse_than_identity() {
        // pseudo-random configurations
        let mut s = 777u64;
        let mut rnd = move |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        for _ in 0..30 {
            let k = 4usize;
            let n = 40usize;
            let old: Vec<u32> = (0..n).map(|_| rnd(k as u64) as u32).collect();
            let new_part: Vec<u32> = (0..n).map(|_| rnd(k as u64) as u32).collect();
            let load: Vec<u64> = (0..n).map(|_| rnd(100)).collect();
            let km = remap_km(&old, &new_part, &load, k);
            let id = remap_identity(&new_part);
            assert!(migration_volume(&old, &km, &load) <= migration_volume(&old, &id, &load));
        }
    }

    #[test]
    fn remap_preserves_partition_structure() {
        // cells in the same part must land on the same rank
        let old = vec![0, 1, 0, 1];
        let new_part = vec![0, 0, 1, 1];
        let load = vec![1u64; 4];
        let owner = remap_km(&old, &new_part, &load, 2);
        assert_eq!(owner[0], owner[1]);
        assert_eq!(owner[2], owner[3]);
        assert_ne!(owner[0], owner[2]);
    }

    #[test]
    fn zero_load_cells_are_free_to_move() {
        let old = vec![0, 1];
        let new_part = vec![1, 0];
        let load = vec![0u64, 0];
        let owner = remap_km(&old, &new_part, &load, 2);
        assert_eq!(migration_volume(&old, &owner, &load), 0);
    }
}
