//! Kuhn–Munkres (Hungarian) algorithm for the assignment problem
//! (paper §V-C).
//!
//! The load balancer converts grid remapping into maximum-weight
//! perfect matching on the bipartite graph (new partition parts ×
//! ranks), where the weight of (part `p`, rank `r`) is the amount of
//! load already resident on `r` that the new part `p` would keep in
//! place. A maximum matching therefore minimises migrated particles.
//!
//! # One sparse solver, dense decisions
//!
//! A remap matrix is almost all background: a part overlaps a handful
//! of ranks, every other cell weighs the same (zero). The classic
//! O(n³) potentials formulation scans all `n` columns for every row
//! that joins the alternating tree, and because every background cell
//! ties with every other and ties break toward the lowest column, an
//! inserted row typically walks through ~n/2 already-matched columns
//! first — the full n³/2. The solver here makes *the same decisions in
//! the same order* — every `(delta, next column, way)` triple, hence
//! the identical permutation — from the nonzero cells alone.
//!
//! Write the cost of cell `(i, j)` as `−w_ij` with `w ≥ 0` and `w = 0`
//! on the background (a constant added to every cost shifts every row
//! potential once and changes no comparison, so this is the dense
//! solver's `max − w` up to that shift). Within one row-insertion
//! phase let `D` be the sum of the deltas so far, and for a tree row
//! `r` let `α_r = D(at its join) − u_r`; `v_j` of an unused column
//! does not change during a phase. The dense solver's `minv[j]` for an
//! unused column is then exactly
//!
//! ```text
//! minv[j] = min(A, σ_j) − v_j − D,   A   = min α_r        over tree rows
//!                                    σ_j = min α_r − w_rj  over tree rows with w_rj > 0
//! ```
//!
//! so the next column — the lowest-indexed minimum of `minv` — is the
//! lexicographic minimum of `(value, j)` over two families: `A − v_j`
//! over every unused column (the first unused entry of the columns
//! kept sorted by `(−v_j, j)`, re-merged after a phase in O(n)) and
//! `σ_j − v_j` over the unused columns some tree row has a nonzero in
//! (a heap). `way[j]` is the earlier-joined of the rows
//! attaining `A` and `σ_j`, as the dense solver only overwrites
//! `way[j]` on a strict improvement. The potentials are brought up to
//! date once at the end of the phase (`u_r += D − D(at join)`, and the
//! same amount off `v` of the column `r` was reached through). All
//! arithmetic is `i64`, so the rearrangement is exact. A phase costs
//! O(path + n + nonzeros of the tree rows · log n) instead of
//! O(path · n); on a fully dense matrix, which remap never produces,
//! it is the dense bound with an extra log factor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INF: i64 = i64::MAX / 4;
const NONE: usize = usize::MAX;

/// The non-background cells of a square weight matrix, row by row:
/// row `i` holds `cells[starts[i]..starts[i + 1]]`, each `(column,
/// weight)` with `weight > 0` and no column twice; every other cell
/// weighs 0.
struct SparseWeights {
    starts: Vec<usize>,
    cells: Vec<(usize, i64)>,
}

impl SparseWeights {
    /// The cells of the square matrix `m` whose `weight_of` is nonzero
    /// (`weight_of` must map the background value to 0 and everything
    /// else above it).
    fn from_dense(m: &[Vec<i64>], weight_of: impl Fn(i64) -> i64) -> Self {
        let n = m.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut cells = Vec::new();
        for row in m {
            assert_eq!(row.len(), n, "assignment matrix must be square");
            starts.push(cells.len());
            cells.extend(
                row.iter()
                    .enumerate()
                    .map(|(j, &x)| (j, weight_of(x)))
                    .filter(|&(_, w)| w > 0),
            );
        }
        starts.push(cells.len());
        SparseWeights { starts, cells }
    }

    fn n(&self) -> usize {
        self.starts.len() - 1
    }

    fn row(&self, i: usize) -> &[(usize, i64)] {
        &self.cells[self.starts[i]..self.starts[i + 1]]
    }
}

/// Maximum-weight perfect matching of `w`: `assignment[row] = column`.
/// Decision-identical to the dense potentials solver (module docs).
fn solve(w: &SparseWeights) -> Vec<usize> {
    let n = w.n();
    let mut u = vec![0i64; n]; // row potentials
    let mut v = vec![0i64; n]; // column potentials
    let mut row_of = vec![NONE; n]; // row matched to each column
    let mut way = vec![NONE; n]; // previous column on the alternating path
    let mut used = vec![false; n];
    // (σ_j, join index of the row attaining it) per touched column
    let mut sigma = vec![(INF, 0usize); n];
    let mut touched: Vec<usize> = Vec::new();
    // tree rows in join order: (column reached through, row, D at join)
    let mut tree: Vec<(usize, usize, i64)> = Vec::new();
    // first family: the columns by (−v_j, j), so the first unused one is
    // the leftmost unused column of maximal v
    let mut by_v: Vec<usize> = (0..n).collect();
    let (mut moved, mut merged) = (Vec::new(), Vec::with_capacity(n));
    // second family: (σ_j − v_j, j), re-pushed whenever σ_j improves; a
    // superseded entry sorts after the one that replaced it, so the top
    // is current unless its column has been used since
    let mut by_sigma: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();

    for i in 0..n {
        let mut a = (INF, 0usize); // (A, join index of the row attaining it)
        let mut d = 0i64;
        let mut cursor = 0usize;
        let (mut j0, mut r) = (NONE, i);
        let free = loop {
            let t = tree.len();
            tree.push((j0, r, d));
            if j0 != NONE {
                used[j0] = true;
            }
            let alpha = d - u[r];
            if alpha < a.0 {
                a = (alpha, t);
            }
            for &(j, wij) in w.row(r) {
                if !used[j] && alpha - wij < sigma[j].0 {
                    if sigma[j].0 == INF {
                        touched.push(j);
                    }
                    sigma[j] = (alpha - wij, t);
                    by_sigma.push(Reverse((alpha - wij - v[j], j)));
                }
            }
            // a free column is never used, so both scans stop in bounds
            while used[by_v[cursor]] {
                cursor += 1;
            }
            while by_sigma.peek().is_some_and(|&Reverse((_, j))| used[j]) {
                by_sigma.pop();
            }
            let leftmost = by_v[cursor];
            let mut next = (a.0 - v[leftmost], leftmost);
            if let Some(&Reverse(nonzero)) = by_sigma.peek() {
                next = next.min(nonzero);
            }
            let (key, j1) = next;
            way[j1] = tree[sigma[j1].min(a).1].0;
            d = key;
            if row_of[j1] == NONE {
                break j1;
            }
            (j0, r) = (j1, row_of[j1]);
        };
        // bring the potentials up to date; a column whose v moved keeps
        // its `used` mark until it is merged back into `by_v`
        for (j, r, d_join) in tree.drain(..) {
            u[r] += d - d_join;
            if j != NONE {
                used[j] = d != d_join;
                if used[j] {
                    v[j] -= d - d_join;
                    moved.push(j);
                }
            }
        }
        if !moved.is_empty() {
            let key = |j: usize| (-v[j], j);
            moved.sort_unstable_by_key(|&j| key(j));
            let mut incoming = moved.iter().copied().peekable();
            merged.clear();
            for &j in by_v.iter().filter(|&&j| !used[j]) {
                while let Some(m) = incoming.next_if(|&m| key(m) < key(j)) {
                    merged.push(m);
                }
                merged.push(j);
            }
            merged.extend(incoming);
            std::mem::swap(&mut by_v, &mut merged);
            for j in moved.drain(..) {
                used[j] = false;
            }
        }
        for j in touched.drain(..) {
            sigma[j] = (INF, 0);
        }
        by_sigma.clear();
        // augment along the alternating path
        let mut j = free;
        while j != NONE {
            let prev = way[j];
            row_of[j] = if prev == NONE { i } else { row_of[prev] };
            j = prev;
        }
    }

    let mut assignment = vec![0usize; n];
    for (j, &r) in row_of.iter().enumerate() {
        assignment[r] = j;
    }
    assignment
}

/// Solve the *minimum-cost* assignment problem for the square matrix
/// `cost` (`n×n`, `cost[i][j]` = cost of assigning row `i` to column
/// `j`). Returns `(assignment, total_cost)` with `assignment[i] =
/// column of row i`.
pub fn min_cost_assignment(cost: &[Vec<i64>]) -> (Vec<usize>, i64) {
    let max_c = cost.iter().flatten().copied().max().unwrap_or(0);
    let assignment = solve(&SparseWeights::from_dense(cost, |c| max_c - c));
    let total = assignment.iter().zip(cost).map(|(&j, row)| row[j]).sum();
    (assignment, total)
}

/// Solve the *maximum-weight* assignment problem. Returns
/// `(assignment, total_weight)` with `assignment[i] = column of row i`.
pub fn max_weight_assignment(weight: &[Vec<i64>]) -> (Vec<usize>, i64) {
    let min_w = weight.iter().flatten().copied().min().unwrap_or(0);
    let assignment = solve(&SparseWeights::from_dense(weight, |w| w - min_w));
    let total = assignment.iter().zip(weight).map(|(&j, row)| row[j]).sum();
    (assignment, total)
}

/// [`max_weight_assignment`] of the `n×n` matrix that is the sum of
/// `triplets` — `(row, column, weight ≥ 0)`, a cell may appear any
/// number of times, a cell that never appears weighs 0 — without
/// building the matrix. Returns the same permutation the dense
/// front-end returns on the summed matrix.
pub fn max_weight_assignment_sparse(
    n: usize,
    triplets: impl IntoIterator<Item = (usize, usize, i64)>,
) -> Vec<usize> {
    let mut sorted: Vec<(usize, usize, i64)> =
        triplets.into_iter().filter(|&(_, _, w)| w != 0).collect();
    sorted.sort_unstable_by_key(|&(i, j, _)| (i, j));
    let mut starts = vec![0usize; n + 1];
    let mut cells: Vec<(usize, i64)> = Vec::with_capacity(sorted.len());
    let mut last = None;
    for (i, j, w) in sorted {
        assert!(i < n && j < n, "cell ({i}, {j}) outside a {n}×{n} matrix");
        assert!(w > 0, "sparse assignment weights must be non-negative");
        if last == Some((i, j)) {
            cells.last_mut().expect("a cell was pushed").1 += w;
        } else {
            cells.push((j, w));
            starts[i + 1] += 1;
            last = Some((i, j));
        }
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    solve(&SparseWeights { starts, cells })
}

/// The classic dense O(n³) potentials solver this module replaced,
/// kept verbatim as the oracle: [`solve`] must return its permutation,
/// not merely an equally good one.
#[cfg(test)]
mod dense {
    pub fn min_cost_assignment(cost: &[Vec<i64>]) -> Vec<usize> {
        let n = cost.len();
        const INF: i64 = i64::MAX / 4;

        // 1-based arrays per the classic formulation.
        let mut u = vec![0i64; n + 1]; // row potentials
        let mut v = vec![0i64; n + 1]; // column potentials
        let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j
        let mut way = vec![0usize; n + 1];

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; n + 1];
            let mut used = vec![false; n + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if used[j] {
                        continue;
                    }
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the alternating path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        let mut assignment = vec![0usize; n];
        for j in 1..=n {
            assignment[p[j] - 1] = j - 1;
        }
        assignment
    }

    pub fn max_weight_assignment(weight: &[Vec<i64>]) -> Vec<usize> {
        let max_w = weight.iter().flatten().copied().max().unwrap_or(0);
        let cost: Vec<Vec<i64>> = weight
            .iter()
            .map(|row| row.iter().map(|&w| max_w - w).collect())
            .collect();
        min_cost_assignment(&cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_when_diagonal_is_best() {
        let w = vec![vec![10, 1, 1], vec![1, 10, 1], vec![1, 1, 10]];
        let (a, total) = max_weight_assignment(&w);
        assert_eq!(a, vec![0, 1, 2]);
        assert_eq!(total, 30);
    }

    #[test]
    fn forced_permutation() {
        // best assignment is the anti-diagonal
        let w = vec![vec![0, 0, 9], vec![0, 9, 0], vec![9, 0, 0]];
        let (a, total) = max_weight_assignment(&w);
        assert_eq!(a, vec![2, 1, 0]);
        assert_eq!(total, 27);
    }

    #[test]
    fn min_cost_classic_example() {
        // well-known 3x3 example with optimum 5 (1+3+1? verify by brute force)
        let c = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        let (a, total) = min_cost_assignment(&c);
        // brute force check
        let mut best = i64::MAX;
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            best = best.min(c[0][p[0]] + c[1][p[1]] + c[2][p[2]]);
        }
        assert_eq!(total, best);
        // assignment is a permutation
        let mut seen = [false; 3];
        for &j in &a {
            assert!(!seen[j]);
            seen[j] = true;
        }
    }

    #[test]
    fn matches_bruteforce_on_random_matrices() {
        let mut s = 0x12345u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 100) as i64
        };
        for _ in 0..20 {
            let n = 4;
            let w: Vec<Vec<i64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
            let (_, total) = max_weight_assignment(&w);
            // brute force over all 4! permutations
            let mut best = i64::MIN;
            let idx = [0usize, 1, 2, 3];
            let mut perm = idx;
            // Heap's algorithm (iterative, small n)
            fn heaps(k: usize, arr: &mut [usize; 4], w: &[Vec<i64>], best: &mut i64) {
                if k == 1 {
                    let tot: i64 = (0..4).map(|i| w[i][arr[i]]).sum();
                    *best = (*best).max(tot);
                    return;
                }
                for i in 0..k {
                    heaps(k - 1, arr, w, best);
                    if k.is_multiple_of(2) {
                        arr.swap(i, k - 1);
                    } else {
                        arr.swap(0, k - 1);
                    }
                }
            }
            heaps(4, &mut perm, &w, &mut best);
            assert_eq!(total, best);
        }
    }

    #[test]
    fn one_by_one_and_empty() {
        assert_eq!(max_weight_assignment(&[]), (vec![], 0));
        let (a, t) = max_weight_assignment(&[vec![7]]);
        assert_eq!(a, vec![0]);
        assert_eq!(t, 7);
    }

    #[test]
    fn handles_negative_weights() {
        let w = vec![vec![-5, -1], vec![-1, -5]];
        let (a, total) = max_weight_assignment(&w);
        assert_eq!(a, vec![1, 0]);
        assert_eq!(total, -2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Square cost/weight matrices up to 8x8 with entry magnitudes
    /// covering the migration-volume range the remap layer feeds in.
    /// (The vendored proptest has no flat-map, so draw a max-size
    /// flat buffer plus a dimension and slice the matrix out.)
    fn matrix() -> impl Strategy<Value = Vec<Vec<i64>>> {
        (
            1usize..9,
            proptest::collection::vec(0i64..10_000, 64usize..65),
        )
            .prop_map(|(n, flat)| (0..n).map(|i| flat[i * n..(i + 1) * n].to_vec()).collect())
    }

    fn is_permutation(a: &[usize]) -> bool {
        let mut seen = vec![false; a.len()];
        a.iter()
            .all(|&j| j < seen.len() && !std::mem::replace(&mut seen[j], true))
    }

    proptest! {
        #[test]
        fn min_cost_is_a_permutation_no_costlier_than_identity(c in matrix()) {
            let n = c.len();
            let (a, total) = min_cost_assignment(&c);
            prop_assert!(is_permutation(&a), "not a permutation: {a:?}");
            let selected: i64 = (0..n).map(|i| c[i][a[i]]).sum();
            prop_assert_eq!(total, selected);
            // the remap invariant: never migrate more than keeping the
            // identity part->rank mapping would
            let identity: i64 = (0..n).map(|i| c[i][i]).sum();
            prop_assert!(total <= identity, "cost {} > identity {}", total, identity);
        }

        #[test]
        fn max_weight_is_a_permutation_no_lighter_than_identity(w in matrix()) {
            let n = w.len();
            let (a, total) = max_weight_assignment(&w);
            prop_assert!(is_permutation(&a), "not a permutation: {a:?}");
            let identity: i64 = (0..n).map(|i| w[i][i]).sum();
            prop_assert!(total >= identity, "kept weight {} < identity {}", total, identity);
        }

        #[test]
        fn min_and_max_agree_under_negation(c in matrix()) {
            let neg: Vec<Vec<i64>> = c.iter()
                .map(|row| row.iter().map(|&v| -v).collect())
                .collect();
            let (_, min_total) = min_cost_assignment(&c);
            let (_, max_total) = max_weight_assignment(&neg);
            prop_assert_eq!(min_total, -max_total);
        }
    }
}

/// Exactness: the sparse solver must return the dense oracle's
/// *permutation* (golden hashes pin the owner map downstream, so an
/// equally heavy matching is not good enough).
#[cfg(test)]
mod exactness {
    use super::*;
    use crate::{part_graph_kway, Graph, KwayOptions};
    use proptest::prelude::*;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// `n×n` matrix with `density` % nonzero cells drawn from `1..=hi`.
    /// `shape` 1 shifts every cell below zero (the background is then
    /// the minimum, not 0); `shape` 2 makes every third row all-equal.
    fn matrix(n: usize, density: u64, hi: i64, shape: usize, mut seed: u64) -> Vec<Vec<i64>> {
        seed |= 1;
        let mut m: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let nonzero = xorshift(&mut seed) % 100 < density;
                        let value = 1 + (xorshift(&mut seed) % hi as u64) as i64;
                        if nonzero {
                            value
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        match shape {
            1 => m.iter_mut().flatten().for_each(|x| *x -= hi / 2 + 1),
            2 => m.iter_mut().step_by(3).for_each(|row| {
                let c = (xorshift(&mut seed) % (hi as u64 + 1)) as i64;
                row.fill(c);
            }),
            _ => {}
        }
        m
    }

    /// Every cell as one or two triplets, so the sparse front-end has
    /// duplicates to sum.
    fn triplets(m: &[Vec<i64>]) -> Vec<(usize, usize, i64)> {
        let mut out = Vec::new();
        for (i, row) in m.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                out.push((i, j, w / 2));
                out.push((i, j, w - w / 2));
            }
        }
        out
    }

    proptest! {
        #[test]
        fn permutation_is_identical_to_the_dense_solver(
            n in 1usize..49,
            density in 0u64..101,
            range in 0usize..3,
            shape in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let m = matrix(n, density, [1, 3, 1000][range], shape, seed);
            prop_assert_eq!(max_weight_assignment(&m).0, dense::max_weight_assignment(&m));
            prop_assert_eq!(min_cost_assignment(&m).0, dense::min_cost_assignment(&m));
            if shape != 1 {
                prop_assert_eq!(
                    max_weight_assignment_sparse(n, triplets(&m)),
                    dense::max_weight_assignment(&m)
                );
            }
        }
    }

    #[test]
    fn all_zero_matrix_is_the_identity() {
        for n in [1usize, 2, 7, 384] {
            let identity: Vec<usize> = (0..n).collect();
            assert_eq!(max_weight_assignment(&vec![vec![0; n]; n]).0, identity);
            assert_eq!(max_weight_assignment_sparse(n, []), identity);
        }
    }

    /// 12×12×16 lattice (2 304 cells, the jet workloads' coarse-cell
    /// count) as a CSR graph with the given vertex weights.
    fn lattice(vwgt: Vec<i64>) -> Graph {
        let (nx, ny, nz) = (12u32, 12, 16);
        let idx = |i: u32, j: u32, k: u32| (k * ny + j) * nx + i;
        let mut edges = Vec::new();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if i + 1 < nx {
                        edges.push((idx(i, j, k), idx(i + 1, j, k)));
                    }
                    if j + 1 < ny {
                        edges.push((idx(i, j, k), idx(i, j + 1, k)));
                    }
                    if k + 1 < nz {
                        edges.push((idx(i, j, k), idx(i, j, k + 1)));
                    }
                }
            }
        }
        Graph::from_edges((nx * ny * nz) as usize, &edges, vwgt)
    }

    /// The overlap `remap_km` solves at `k` ranks, one `(part, rank,
    /// load)` triplet per cell: unweighted k-way as the old owner map,
    /// load-weighted k-way as the new parts.
    fn remap_overlap(load: &[u64], k: usize) -> Vec<(usize, usize, i64)> {
        let old = part_graph_kway(&lattice(vec![1; load.len()]), k, KwayOptions::default());
        let weights = load.iter().map(|&l| 1 + 2 * l as i64).collect();
        let new = part_graph_kway(&lattice(weights), k, KwayOptions::default());
        new.iter()
            .zip(&old)
            .zip(load)
            .map(|((&p, &o), &l)| (p as usize, o as usize, l as i64))
            .collect()
    }

    fn summed(cells: &[(usize, usize, i64)], k: usize) -> Vec<Vec<i64>> {
        let mut dense = vec![vec![0i64; k]; k];
        for &(p, o, l) in cells {
            dense[p][o] += l;
        }
        dense
    }

    #[test]
    fn jet_shaped_remap_at_384_ranks_matches_the_dense_solver() {
        // a narrow plume: load only near the axis, thinning downstream
        let load: Vec<u64> = (0..2304u64)
            .map(|c| {
                let (i, j, k) = (c % 12, c / 12 % 12, c / 144);
                let off_axis = i.abs_diff(6) + j.abs_diff(6);
                if off_axis <= 2 {
                    400 / (1 + k) / (1 + off_axis)
                } else {
                    0
                }
            })
            .collect();
        let cells = remap_overlap(&load, 384);
        let dense = summed(&cells, 384);
        let nonzero = dense.iter().flatten().filter(|&&w| w > 0).count();
        assert!(nonzero * 50 <= 384 * 384, "not jet-sparse: {nonzero} cells");
        let want = dense::max_weight_assignment(&dense);
        assert_eq!(max_weight_assignment_sparse(384, cells), want);
        assert_eq!(max_weight_assignment(&dense).0, want);
    }

    #[test]
    fn fully_loaded_remap_at_384_ranks_matches_the_dense_solver() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let load: Vec<u64> = (0..2304).map(|_| 1 + xorshift(&mut seed) % 50).collect();
        let cells = remap_overlap(&load, 384);
        let dense = summed(&cells, 384);
        let want = dense::max_weight_assignment(&dense);
        assert_eq!(max_weight_assignment_sparse(384, cells), want);
        assert_eq!(max_weight_assignment(&dense).0, want);
    }
}
