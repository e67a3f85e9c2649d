//! Nested 1:8 tetrahedral refinement (paper §IV-A, Fig. 2).
//!
//! Each coarse (DSMC) tet is split into 8 fine (PIC) tets by halving
//! every edge: four corner tets plus four tets obtained by cutting the
//! interior octahedron along its shortest diagonal. The fine grid is
//! therefore *entirely nested* in the coarse grid, which is the
//! property the paper exploits: only the coarse grid is decomposed
//! across ranks, and fine cells inherit their parent's owner. It also
//! makes the child holding a point a function of the parent's
//! barycentrics alone ([`NestedMesh::child_at`]), so locating a
//! particle on the fine grid tests no fine tet.

use crate::geom::Vec3;
use crate::tet::{BoundaryKind, TetMesh};
use std::collections::HashMap;

/// A coarse DSMC mesh with its nested fine PIC mesh.
#[derive(Debug, Clone)]
pub struct NestedMesh {
    /// Coarse grid (cell size ~ mean free path); DSMC runs here and
    /// this is the unit of domain decomposition. Both particle movers
    /// walk it, so it carries the face-plane table.
    pub coarse: TetMesh,
    /// Fine grid (cell size ~ Debye length); PIC runs here.
    pub fine: TetMesh,
    /// `fine_parent[f]` = coarse cell containing fine cell `f`.
    pub fine_parent: Vec<u32>,
    /// `children[c]` = the 8 fine cells nested in coarse cell `c`:
    /// the corner tets at its vertices `0..4`, then the four
    /// octahedron tets around the cut diagonal.
    pub children: Vec<[u32; 8]>,
    /// `diagonal[c]` = the octahedron diagonal cut in coarse cell `c`:
    /// 0 = m01–m23, 1 = m02–m13, 2 = m03–m12 (`mij` the midpoint of the
    /// edge between its vertices `i` and `j`).
    pub diagonal: Vec<u8>,
}

/// A child whose every affine weight exceeds this holds the point by a
/// margin five orders above the rounding error of weights computed from
/// the parent's barycentrics or by `TetMesh::bary` (both O(1) volume
/// ratios of well-shaped tets, error ≈ 1e-14).
const CLEARLY_INSIDE: f64 = 1e-9;

impl NestedMesh {
    /// Refine `coarse` 1:8. `classify` tags fine boundary faces (use
    /// the same geometric classifier as for the coarse mesh so both
    /// grids agree on inlet/outlet/wall).
    pub fn from_coarse<F>(coarse: TetMesh, classify: F) -> Self
    where
        F: Fn(Vec3, Vec3) -> BoundaryKind,
    {
        let (fine, fine_parent, diagonal) = refine_1_to_8(&coarse, classify);
        let nc = coarse.num_cells();
        let mut children = vec![[0u32; 8]; nc];
        let mut fill = vec![0usize; nc];
        for (f, &p) in fine_parent.iter().enumerate() {
            let slot = fill[p as usize];
            children[p as usize][slot] = f as u32;
            fill[p as usize] = slot + 1;
        }
        debug_assert!(fill.iter().all(|&c| c == 8));
        NestedMesh {
            // particles walk the coarse mesh only, so it alone carries
            // the face-plane table (the fine one has 8x the cells)
            coarse: coarse.with_face_planes(),
            fine,
            fine_parent,
            children,
            diagonal,
        }
    }

    /// The child of `coarse_cell` that clearly holds `pos`, read off the
    /// parent's barycentrics `λ` alone (no fine tet is tested), or
    /// `None` where no child holds it with every weight above `1e-9`:
    /// near a child face, outside the parent, NaN.
    ///
    /// `λ_k = g_k·(p − v₀)` for `k = 1..3` from the coarse mesh's
    /// [`TetMesh::shape_gradient_table`], and `λ₀ = 1 − Σ`. Corner
    /// child `i` is `{λ_i > ½}`; its weights are `2λ_i − 1` at the
    /// parent's vertex and `2λ_j` at the midpoints. The octahedron
    /// children are the sign quadrants of two of `F1 = λ₀+λ₁−λ₂−λ₃`,
    /// `F2 = λ₀−λ₁+λ₂−λ₃`, `F3 = λ₀−λ₁−λ₂+λ₃` (the forms vanishing on
    /// the planes through the cut diagonal); their weights are `|A|`,
    /// `|B|` and two at the diagonal's ends of at least `2·min λ` and
    /// `1 − 2·max λ`.
    #[inline]
    pub fn child_at(&self, coarse_cell: usize, pos: Vec3) -> Option<usize> {
        let g = &self.coarse.shape_gradient_table()[coarse_cell];
        let d = pos - self.coarse.nodes[self.coarse.tets[coarse_cell][0] as usize];
        let (l1, l2, l3) = (g[1].dot(d), g[2].dot(d), g[3].dot(d));
        let l = [1.0 - l1 - l2 - l3, l1, l2, l3];
        let children = &self.children[coarse_cell];
        // every comparison is false on NaN: a NaN weight declines
        if let Some(i) = l.iter().position(|&li| li > 0.5) {
            let inside = (0..4).all(|j| {
                let w = if j == i { 2.0 * l[j] - 1.0 } else { 2.0 * l[j] };
                w > CLEARLY_INSIDE
            });
            return inside.then_some(children[i] as usize);
        }
        let f1 = l[0] + l[1] - l[2] - l[3];
        let f2 = l[0] - l[1] + l[2] - l[3];
        let f3 = l[0] - l[1] - l[2] + l[3];
        let (a, b) = match self.diagonal[coarse_cell] {
            0 => (f3, f2),
            1 => (f3, f1),
            _ => (f2, f1),
        };
        let k = match (a > 0.0, b > 0.0) {
            (true, true) => 4,
            (true, false) => 5,
            (false, false) => 6,
            (false, true) => 7,
        };
        let inside = a.abs() > CLEARLY_INSIDE
            && b.abs() > CLEARLY_INSIDE
            && l.iter()
                .all(|&li| 2.0 * li > CLEARLY_INSIDE && 1.0 - 2.0 * li > CLEARLY_INSIDE);
        inside.then_some(children[k] as usize)
    }

    /// Number of coarse cells.
    pub fn num_coarse(&self) -> usize {
        self.coarse.num_cells()
    }

    /// Number of fine cells (= 8 × coarse).
    pub fn num_fine(&self) -> usize {
        self.fine.num_cells()
    }
}

/// Split every tet of `coarse` into 8, deduplicating edge-midpoint
/// nodes between neighbouring tets. Returns the fine mesh, which
/// records the edge each midpoint bisects ([`TetMesh::bisected`]), the
/// fine→coarse parent map and the octahedron diagonal cut in each
/// coarse cell ([`NestedMesh::diagonal`]).
pub fn refine_1_to_8<F>(coarse: &TetMesh, classify: F) -> (TetMesh, Vec<u32>, Vec<u8>)
where
    F: Fn(Vec3, Vec3) -> BoundaryKind,
{
    let mut nodes = coarse.nodes.clone();
    let mut bisected: Vec<[u32; 2]> = Vec::new();
    let mut midpoint: HashMap<(u32, u32), u32> = HashMap::new();
    let mut mid = |a: u32, b: u32, nodes: &mut Vec<Vec3>| -> u32 {
        let key = (a.min(b), a.max(b));
        *midpoint.entry(key).or_insert_with(|| {
            let id = nodes.len() as u32;
            let p = (nodes[a as usize] + nodes[b as usize]) / 2.0;
            nodes.push(p);
            bisected.push([key.0, key.1]);
            id
        })
    };

    let mut tets: Vec<[u32; 4]> = Vec::with_capacity(coarse.num_cells() * 8);
    let mut parent: Vec<u32> = Vec::with_capacity(coarse.num_cells() * 8);
    let mut diagonal: Vec<u8> = Vec::with_capacity(coarse.num_cells());

    for (c, tet) in coarse.tets.iter().enumerate() {
        let [v0, v1, v2, v3] = *tet;
        let m01 = mid(v0, v1, &mut nodes);
        let m02 = mid(v0, v2, &mut nodes);
        let m03 = mid(v0, v3, &mut nodes);
        let m12 = mid(v1, v2, &mut nodes);
        let m13 = mid(v1, v3, &mut nodes);
        let m23 = mid(v2, v3, &mut nodes);

        // Four corner tets.
        let mut eight: Vec<[u32; 4]> = vec![
            [v0, m01, m02, m03],
            [v1, m01, m12, m13],
            [v2, m02, m12, m23],
            [v3, m03, m13, m23],
        ];

        // Interior octahedron: opposite vertex pairs are
        // (m01,m23), (m02,m13), (m03,m12). Cut along the shortest
        // diagonal for best element quality (standard Bey refinement
        // choice).
        let d = |a: u32, b: u32| nodes[a as usize].dist(nodes[b as usize]);
        let diags = [(m01, m23), (m02, m13), (m03, m12)];
        let lens = [d(m01, m23), d(m02, m13), d(m03, m12)];
        let best = (0..3)
            .min_by(|&i, &j| lens[i].partial_cmp(&lens[j]).unwrap())
            .unwrap();
        let (p, q) = diags[best];
        diagonal.push(best as u8);
        // Equatorial cycle: the four non-diagonal vertices ordered so
        // that consecutive ones are octahedron-adjacent (never an
        // opposite pair).
        let cycle: [u32; 4] = match best {
            0 => [m02, m03, m13, m12],
            1 => [m01, m03, m23, m12],
            _ => [m01, m02, m23, m13],
        };
        for e in 0..4 {
            eight.push([p, q, cycle[e], cycle[(e + 1) % 4]]);
        }

        debug_assert_eq!(eight.len(), 8);
        for t in eight {
            tets.push(t);
            parent.push(c as u32);
        }
    }

    let mut fine = TetMesh::build(nodes, tets, classify);
    fine.bisected = bisected;
    (fine, parent, diagonal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nozzle::NozzleSpec;
    use crate::tet::FaceTag;

    fn nested() -> NestedMesh {
        let spec = NozzleSpec {
            nd: 4,
            nz: 6,
            ..NozzleSpec::default()
        };
        let coarse = spec.generate();
        NestedMesh::from_coarse(coarse, move |fc, n| spec.classify(fc, n))
    }

    #[test]
    fn eight_children_per_parent() {
        let nm = nested();
        assert_eq!(nm.num_fine(), 8 * nm.num_coarse());
        assert_eq!(nm.children.len(), nm.num_coarse());
        for (c, ch) in nm.children.iter().enumerate() {
            for &f in ch {
                assert_eq!(nm.fine_parent[f as usize], c as u32);
            }
        }
    }

    #[test]
    fn corner_children_come_first_and_own_the_half_weight_region() {
        let nm = nested();
        for (c, ch) in nm.children.iter().enumerate() {
            let parent = nm.coarse.tets[c];
            for (i, &f) in ch.iter().enumerate() {
                let lambda = nm.coarse.bary(c, nm.fine.centroids[f as usize]);
                if i < 4 {
                    // corner tet at the parent's vertex i
                    assert!(nm.fine.tets[f as usize].contains(&parent[i]), "cell {c}");
                    assert!(lambda[i] > 0.5, "cell {c} child {i}: {lambda:?}");
                } else {
                    // octahedron tet: no parent vertex dominates
                    assert!(
                        lambda.iter().all(|&l| l <= 0.5),
                        "cell {c} child {i}: {lambda:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn recorded_diagonal_leads_every_inner_child_and_classifies_it() {
        let nm = nested();
        let nc = nm.coarse.num_nodes();
        let midpoint: HashMap<[u32; 2], u32> = nm
            .fine
            .bisected
            .iter()
            .enumerate()
            .map(|(k, &edge)| (edge, (nc + k) as u32))
            .collect();
        assert_eq!(nm.diagonal.len(), nm.num_coarse());
        for (c, ch) in nm.children.iter().enumerate() {
            let v = nm.coarse.tets[c];
            let m = |i: usize, j: usize| midpoint[&[v[i].min(v[j]), v[i].max(v[j])]];
            let (p, q) = match nm.diagonal[c] {
                0 => (m(0, 1), m(2, 3)),
                1 => (m(0, 2), m(1, 3)),
                2 => (m(0, 3), m(1, 2)),
                d => panic!("cell {c}: diagonal {d}"),
            };
            for &f in &ch[4..] {
                let tet = nm.fine.tets[f as usize];
                assert_eq!([tet[0], tet[1]], [p, q], "cell {c} child {f}");
            }
            for &f in ch {
                let centroid = nm.fine.centroids[f as usize];
                assert_eq!(nm.child_at(c, centroid), Some(f as usize), "cell {c}");
            }
        }
    }

    #[test]
    fn only_the_coarse_mesh_carries_face_planes() {
        let nm = nested();
        assert!(nm.coarse.has_face_planes());
        assert!(nm.coarse.clone().has_face_planes());
        assert!(!nm.fine.has_face_planes(), "8x the cells: no table");
    }

    #[test]
    fn volume_is_conserved_exactly() {
        let nm = nested();
        for (c, ch) in nm.children.iter().enumerate() {
            let fine_sum: f64 = ch.iter().map(|&f| nm.fine.volumes[f as usize]).sum();
            let coarse_v = nm.coarse.volumes[c];
            assert!(
                (fine_sum - coarse_v).abs() < 1e-12 * coarse_v.max(1e-300),
                "cell {c}: children sum {fine_sum} != parent {coarse_v}"
            );
        }
    }

    #[test]
    fn children_are_geometrically_nested() {
        let nm = nested();
        for (c, ch) in nm.children.iter().enumerate().take(50) {
            for &f in ch {
                let centroid = nm.fine.centroids[f as usize];
                assert!(
                    nm.coarse.contains(c, centroid, 1e-9),
                    "fine centroid escaped its parent"
                );
            }
        }
    }

    #[test]
    fn fine_mesh_is_conforming() {
        let nm = nested();
        for (t, nb) in nm.fine.neighbors.iter().enumerate() {
            for tag in nb {
                if let FaceTag::Interior(o) = tag {
                    assert!(nm.fine.neighbors[*o as usize].contains(&FaceTag::Interior(t as u32)));
                }
            }
        }
    }

    #[test]
    fn fine_boundary_kinds_match_geometry() {
        let nm = nested();
        // the fine grid must expose all three boundary kinds too
        assert!(!nm.fine.boundary_faces(BoundaryKind::Inlet).is_empty());
        assert!(!nm.fine.boundary_faces(BoundaryKind::Outlet).is_empty());
        assert!(!nm.fine.boundary_faces(BoundaryKind::Wall).is_empty());
        // fine inlet area equals coarse inlet area (same geometry)
        let area = |m: &TetMesh, k| {
            m.boundary_faces(k)
                .iter()
                .map(|&(t, f)| m.face_area(t as usize, f as usize))
                .sum::<f64>()
        };
        let ca = area(&nm.coarse, BoundaryKind::Inlet);
        let fa = area(&nm.fine, BoundaryKind::Inlet);
        assert!((ca - fa).abs() < 1e-12 * ca.max(1e-300));
    }

    #[test]
    fn every_midpoint_records_the_coarse_edge_it_bisects() {
        let nm = nested();
        let (fine, coarse) = (&nm.fine, &nm.coarse);
        let nc = coarse.num_nodes();
        assert_eq!(fine.num_nodes(), nc + fine.bisected.len());
        assert!(
            coarse.bisected.is_empty(),
            "the coarse mesh is no refinement"
        );
        assert_eq!(
            fine.nodes[..nc],
            coarse.nodes[..],
            "coarse nodes come first"
        );
        let mut edges: Vec<[u32; 2]> = coarse
            .tets
            .iter()
            .flat_map(|t| {
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
                    .map(|(i, j)| [t[i].min(t[j]), t[i].max(t[j])])
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut recorded = fine.bisected.clone();
        recorded.sort_unstable();
        assert_eq!(recorded, edges, "one midpoint per coarse edge");
        for (k, &[a, b]) in fine.bisected.iter().enumerate() {
            let (pa, pb) = (coarse.nodes[a as usize], coarse.nodes[b as usize]);
            let m = fine.nodes[nc + k];
            let want = (pa + pb) / 2.0;
            assert_eq!(
                [m.x, m.y, m.z].map(f64::to_bits),
                [want.x, want.y, want.z].map(f64::to_bits),
                "midpoint {k}"
            );
        }
    }

    #[test]
    fn midpoint_nodes_deduplicated() {
        let nm = nested();
        // node count must be far less than 10 per fine tet (which
        // would indicate no sharing at all)
        assert!(nm.fine.num_nodes() < nm.num_fine() * 2);
    }
}
