//! Unstructured tetrahedral mesh container and topology.
//!
//! A [`TetMesh`] stores nodes, tets (as 4 node ids each), and
//! face-adjacency computed once after construction. Face `i` of a tet
//! is the face *opposite* local vertex `i`. A face either borders
//! another tet ([`FaceTag::Interior`]) or lies on the domain boundary
//! with a physical tag ([`FaceTag::Boundary`]).

use crate::geom::{
    barycentric, outward_face_normal, shape_gradients, tet_centroid, tet_volume_signed, Vec3,
};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Physical classification of a boundary face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// The particle-injection inlet (plasma source).
    Inlet,
    /// Open outflow: particles crossing it leave the domain.
    Outlet,
    /// Solid wall: particles reflect (diffusely, at wall temperature).
    Wall,
}

/// What lies across face `i` of a tet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceTag {
    /// Neighbouring tet id.
    Interior(u32),
    /// Domain boundary with its physical kind.
    Boundary(BoundaryKind),
}

/// Local node ids of the face opposite each vertex.
pub const FACE_NODES: [[usize; 3]; 4] = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]];

/// The four face planes of one tet, structure of arrays: lane `f` of
/// every row is face `f` (opposite local vertex `f`), so the exit
/// search tests all four faces with the same arithmetic at once. Six
/// rows of four `f64`, 192 B.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellPlanes {
    /// Face centroids: the x, y and z rows.
    pub(crate) c: [[f64; 4]; 3],
    /// Outward (unnormalized) face normals: the x, y and z rows.
    pub(crate) n: [[f64; 4]; 3],
}

/// An unstructured tetrahedral mesh with precomputed topology and
/// per-cell geometry caches.
#[derive(Debug, Clone)]
pub struct TetMesh {
    /// Node coordinates.
    pub nodes: Vec<Vec3>,
    /// Tets as 4 node indices, positively oriented.
    pub tets: Vec<[u32; 4]>,
    /// `neighbors[t][i]` = what lies across face `i` (opposite vertex
    /// `i`) of tet `t`.
    pub neighbors: Vec<[FaceTag; 4]>,
    /// Cached absolute cell volumes.
    pub volumes: Vec<f64>,
    /// Cached cell centroids.
    pub centroids: Vec<Vec3>,
    /// The nesting a 1:8 refinement leaves on the fine mesh: node
    /// `num_nodes() − bisected.len() + k` is the midpoint of the coarse
    /// edge `bisected[k]`, and the nodes before the first midpoint are
    /// the coarse nodes, numbered as on the coarse mesh. Empty on a
    /// mesh no refinement made.
    pub bisected: Vec<[u32; 2]>,
    /// Cached [`TetMesh::mean_cell_size`].
    mean_cell_size: f64,
    /// `planes[t]` = the four face planes of tet `t`; empty unless
    /// [`TetMesh::with_face_planes`] filled it (192 B per cell, so only
    /// the mesh particles walk carries it).
    planes: Vec<CellPlanes>,
    /// `shape_grads[t]` = [`shape_gradients`] of tet `t`; filled by the
    /// first [`TetMesh::shape_gradient_table`] call (96 B per cell, so
    /// only the mesh a field is differentiated on ever carries it).
    shape_grads: OnceLock<Vec<[Vec3; 4]>>,
}

impl TetMesh {
    /// Build a mesh from raw nodes and tets, computing face adjacency.
    ///
    /// `classify` assigns a [`BoundaryKind`] to every face that has no
    /// neighbouring tet; it receives the face centroid and the outward
    /// unit normal.
    pub fn build<F>(nodes: Vec<Vec3>, mut tets: Vec<[u32; 4]>, classify: F) -> Self
    where
        F: Fn(Vec3, Vec3) -> BoundaryKind,
    {
        // Enforce positive orientation so signed-volume-based
        // barycentric coordinates behave uniformly.
        for t in tets.iter_mut() {
            let [a, b, c, d] = [
                nodes[t[0] as usize],
                nodes[t[1] as usize],
                nodes[t[2] as usize],
                nodes[t[3] as usize],
            ];
            if tet_volume_signed(a, b, c, d) < 0.0 {
                t.swap(2, 3);
            }
        }

        let ntet = tets.len();
        let mut neighbors = vec![[FaceTag::Boundary(BoundaryKind::Wall); 4]; ntet];

        // Hash each face by its sorted node triple. A face appears in
        // at most two tets (mesh conformity).
        let mut face_map: HashMap<[u32; 3], (u32, u8)> = HashMap::with_capacity(2 * ntet);
        for (t, tet) in tets.iter().enumerate() {
            for (f, fl) in FACE_NODES.iter().enumerate() {
                let mut key = [tet[fl[0]], tet[fl[1]], tet[fl[2]]];
                key.sort_unstable();
                match face_map.remove(&key) {
                    Some((ot, of)) => {
                        neighbors[t][f] = FaceTag::Interior(ot);
                        neighbors[ot as usize][of as usize] = FaceTag::Interior(t as u32);
                    }
                    None => {
                        face_map.insert(key, (t as u32, f as u8));
                    }
                }
            }
        }

        // Remaining entries in the map are boundary faces.
        let mut mesh = TetMesh {
            nodes,
            tets,
            neighbors,
            volumes: Vec::new(),
            centroids: Vec::new(),
            bisected: Vec::new(),
            mean_cell_size: 0.0,
            planes: Vec::new(),
            shape_grads: OnceLock::new(),
        };
        mesh.recompute_geometry();
        for (_key, (t, f)) in face_map {
            let (fc, n) = mesh.face_centroid_normal(t as usize, f as usize);
            mesh.neighbors[t as usize][f as usize] =
                FaceTag::Boundary(classify(fc, n.normalized()));
        }
        mesh
    }

    fn recompute_geometry(&mut self) {
        self.volumes = (0..self.tets.len())
            .map(|t| {
                let p = self.tet_pos(t);
                tet_volume_signed(p[0], p[1], p[2], p[3]).abs()
            })
            .collect();
        self.centroids = (0..self.tets.len())
            .map(|t| {
                let p = self.tet_pos(t);
                tet_centroid(p[0], p[1], p[2], p[3])
            })
            .collect();
        self.mean_cell_size = (self.total_volume() / self.num_cells() as f64).cbrt();
    }

    /// The same mesh carrying the per-cell face-plane table, so
    /// [`TetMesh::face_centroid_normal`] and
    /// [`first_exit`](crate::locate::first_exit) answer with a lookup —
    /// the values are the ones computed without the table, bit for bit.
    pub fn with_face_planes(mut self) -> Self {
        self.planes = (0..self.num_cells())
            .map(|t| self.compute_cell_planes(t))
            .collect();
        self
    }

    /// Whether this mesh carries the face-plane table.
    #[cfg(test)]
    pub(crate) fn has_face_planes(&self) -> bool {
        !self.planes.is_empty()
    }

    /// The face planes of tet `t`: a row of the table when the mesh
    /// carries it ([`TetMesh::with_face_planes`]), else `None`.
    #[inline]
    pub(crate) fn cell_planes(&self, t: usize) -> Option<&CellPlanes> {
        self.planes.get(t)
    }

    /// The table's row for tet `t`, computed from the node table.
    pub(crate) fn compute_cell_planes(&self, t: usize) -> CellPlanes {
        let mut p = CellPlanes::default();
        for f in 0..4 {
            let (c, n) = self.compute_face_plane(t, f);
            [p.c[0][f], p.c[1][f], p.c[2][f]] = [c.x, c.y, c.z];
            [p.n[0][f], p.n[1][f], p.n[2][f]] = [n.x, n.y, n.z];
        }
        p
    }

    /// [`shape_gradients`] of every cell, computed on the first call
    /// and kept: whoever differentiates a nodal field per step reads
    /// them instead of re-deriving them. Filled on first use, not with
    /// the mesh, so the table never sits under the transients of what
    /// is assembled between building the mesh and running on it.
    pub fn shape_gradient_table(&self) -> &[[Vec3; 4]] {
        self.shape_grads.get_or_init(|| {
            (0..self.num_cells())
                .map(|t| shape_gradients(self.tet_pos(t)))
                .collect()
        })
    }

    /// Whether this mesh carries the shape-gradient table.
    #[cfg(test)]
    pub(crate) fn has_shape_gradient_table(&self) -> bool {
        self.shape_grads.get().is_some()
    }

    /// Number of cells (tets).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.tets.len()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Positions of the 4 vertices of tet `t`.
    #[inline]
    pub fn tet_pos(&self, t: usize) -> [Vec3; 4] {
        let tet = self.tets[t];
        [
            self.nodes[tet[0] as usize],
            self.nodes[tet[1] as usize],
            self.nodes[tet[2] as usize],
            self.nodes[tet[3] as usize],
        ]
    }

    /// Global node ids of face `f` of tet `t`.
    #[inline]
    pub fn face_nodes(&self, t: usize, f: usize) -> [u32; 3] {
        let tet = self.tets[t];
        let fl = FACE_NODES[f];
        [tet[fl[0]], tet[fl[1]], tet[fl[2]]]
    }

    /// Centroid and outward (unnormalized) normal of face `f` of tet `t`.
    #[inline]
    pub fn face_centroid_normal(&self, t: usize, f: usize) -> (Vec3, Vec3) {
        match self.planes.get(t) {
            Some(p) => (
                Vec3::new(p.c[0][f], p.c[1][f], p.c[2][f]),
                Vec3::new(p.n[0][f], p.n[1][f], p.n[2][f]),
            ),
            None => self.compute_face_plane(t, f),
        }
    }

    /// [`TetMesh::face_centroid_normal`] from the node table.
    fn compute_face_plane(&self, t: usize, f: usize) -> (Vec3, Vec3) {
        let fnodes = self.face_nodes(t, f);
        let [a, b, c] = [
            self.nodes[fnodes[0] as usize],
            self.nodes[fnodes[1] as usize],
            self.nodes[fnodes[2] as usize],
        ];
        let opp = self.nodes[self.tets[t][f] as usize];
        ((a + b + c) / 3.0, outward_face_normal(a, b, c, opp))
    }

    /// Barycentric coordinates of `p` in tet `t`.
    #[inline]
    pub fn bary(&self, t: usize, p: Vec3) -> [f64; 4] {
        let q = self.tet_pos(t);
        barycentric(p, q[0], q[1], q[2], q[3])
    }

    /// Whether `p` is inside tet `t` (tolerance `eps` on barycentric
    /// weights).
    #[inline]
    pub fn contains(&self, t: usize, p: Vec3, eps: f64) -> bool {
        self.bary(t, p).iter().all(|&w| w >= -eps)
    }

    /// Total mesh volume.
    pub fn total_volume(&self) -> f64 {
        self.volumes.iter().sum()
    }

    /// Axis-aligned bounding box `(min, max)` of all nodes.
    pub fn bbox(&self) -> (Vec3, Vec3) {
        let mut lo = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut hi = Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for n in &self.nodes {
            lo.x = lo.x.min(n.x);
            lo.y = lo.y.min(n.y);
            lo.z = lo.z.min(n.z);
            hi.x = hi.x.max(n.x);
            hi.y = hi.y.max(n.y);
            hi.z = hi.z.max(n.z);
        }
        (lo, hi)
    }

    /// Ids of boundary faces of a given kind, as `(tet, face)` pairs.
    pub fn boundary_faces(&self, kind: BoundaryKind) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        for (t, nb) in self.neighbors.iter().enumerate() {
            for (f, tag) in nb.iter().enumerate() {
                if *tag == FaceTag::Boundary(kind) {
                    out.push((t as u32, f as u8));
                }
            }
        }
        out
    }

    /// Cell-adjacency graph in CSR form `(xadj, adjncy)`, suitable for
    /// graph partitioning. Two cells are adjacent iff they share a
    /// face.
    pub fn cell_graph(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.num_cells();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(4 * n);
        xadj.push(0u32);
        for nb in &self.neighbors {
            for tag in nb {
                if let FaceTag::Interior(o) = tag {
                    adjncy.push(*o);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        (xadj, adjncy)
    }

    /// Area of face `f` of tet `t`.
    pub fn face_area(&self, t: usize, f: usize) -> f64 {
        let fnodes = self.face_nodes(t, f);
        let [a, b, c] = [
            self.nodes[fnodes[0] as usize],
            self.nodes[fnodes[1] as usize],
            self.nodes[fnodes[2] as usize],
        ];
        (b - a).cross(c - a).norm() / 2.0
    }

    /// Characteristic cell size: cube root of the mean cell volume
    /// (cached at build time).
    #[inline]
    pub fn mean_cell_size(&self) -> f64 {
        self.mean_cell_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two unit tets glued on the face (B, C, D).
    fn two_tets() -> TetMesh {
        let nodes = vec![
            Vec3::new(0.0, 0.0, 0.0), // 0 = A
            Vec3::new(1.0, 0.0, 0.0), // 1 = B
            Vec3::new(0.0, 1.0, 0.0), // 2 = C
            Vec3::new(0.0, 0.0, 1.0), // 3 = D
            Vec3::new(1.0, 1.0, 1.0), // 4 = E (other side)
        ];
        let tets = vec![[0, 1, 2, 3], [4, 1, 2, 3]];
        TetMesh::build(nodes, tets, |_c, _n| BoundaryKind::Wall)
    }

    #[test]
    fn adjacency_is_symmetric() {
        let m = two_tets();
        // face 0 of tet 0 is opposite vertex 0 = (1,2,3) shared with tet 1
        assert_eq!(m.neighbors[0][0], FaceTag::Interior(1));
        assert_eq!(m.neighbors[1][0], FaceTag::Interior(0));
        // all other faces are boundary
        let n_interior: usize = m
            .neighbors
            .iter()
            .flatten()
            .filter(|t| matches!(t, FaceTag::Interior(_)))
            .count();
        assert_eq!(n_interior, 2);
    }

    #[test]
    fn orientation_fixed_up() {
        // deliberately negatively oriented input tet
        let nodes = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let m = TetMesh::build(nodes, vec![[1, 0, 2, 3]], |_c, _n| BoundaryKind::Wall);
        let p = m.tet_pos(0);
        assert!(tet_volume_signed(p[0], p[1], p[2], p[3]) > 0.0);
        assert!((m.volumes[0] - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn volumes_and_centroids_cached() {
        let m = two_tets();
        assert_eq!(m.volumes.len(), 2);
        assert!((m.total_volume() - m.volumes.iter().sum::<f64>()).abs() < 1e-15);
        for t in 0..2 {
            let p = m.tet_pos(t);
            assert!(m.contains(t, tet_centroid(p[0], p[1], p[2], p[3]), 1e-12));
        }
    }

    #[test]
    fn outward_face_normals() {
        let m = two_tets();
        for t in 0..m.num_cells() {
            for f in 0..4 {
                let (fc, n) = m.face_centroid_normal(t, f);
                // outward normal points from centroid towards face
                assert!(n.dot(fc - m.centroids[t]) > 0.0);
            }
        }
    }

    fn nozzle_spec() -> crate::nozzle::NozzleSpec {
        crate::nozzle::NozzleSpec {
            nd: 6,
            nz: 10,
            ..Default::default()
        }
    }

    fn nozzle() -> TetMesh {
        nozzle_spec().generate()
    }

    fn bits((fc, n): (Vec3, Vec3)) -> [u64; 6] {
        [fc.x, fc.y, fc.z, n.x, n.y, n.z].map(f64::to_bits)
    }

    #[test]
    fn face_plane_table_equals_direct_computation_bitwise() {
        let plain = nozzle();
        assert!(!plain.has_face_planes());
        let cached = plain.clone().with_face_planes();
        assert!(cached.has_face_planes());
        for t in 0..plain.num_cells() {
            for f in 0..4 {
                let direct = bits(plain.compute_face_plane(t, f));
                assert_eq!(bits(cached.face_centroid_normal(t, f)), direct);
                // a mesh without the table answers the same
                assert_eq!(bits(plain.face_centroid_normal(t, f)), direct);
                let (fc, n) = plain.face_centroid_normal(t, f);
                assert!(n.dot(fc - plain.centroids[t]) > 0.0, "outward");
            }
        }
    }

    #[test]
    fn shape_gradient_table_equals_direct_computation_bitwise() {
        let spec = nozzle_spec();
        let coarse = spec.generate();
        assert!(!coarse.has_shape_gradient_table());
        let (refined, ..) = crate::refine::refine_1_to_8(&coarse, |c, n| spec.classify(c, n));
        assert!(!refined.has_shape_gradient_table());
        let nm = crate::NestedMesh::from_coarse(coarse, move |c, n| spec.classify(c, n));
        // nobody asked yet: neither mesh carries the table
        assert!(!nm.coarse.has_shape_gradient_table());
        assert!(!nm.fine.has_shape_gradient_table());
        let table = nm.fine.shape_gradient_table();
        assert!(nm.fine.has_shape_gradient_table());
        assert!(!nm.coarse.has_shape_gradient_table(), "only the mesh asked");
        assert_eq!(table.len(), nm.fine.num_cells());
        let bits = |g: [Vec3; 4]| g.map(|v| [v.x, v.y, v.z].map(f64::to_bits));
        for (t, row) in table.iter().enumerate() {
            let direct = shape_gradients(nm.fine.tet_pos(t));
            assert_eq!(bits(*row), bits(direct), "cell {t}");
        }
    }

    #[test]
    fn mean_cell_size_is_cached_bitwise() {
        let m = nozzle();
        let direct = (m.total_volume() / m.num_cells() as f64).cbrt();
        assert!(direct > 0.0);
        assert_eq!(m.mean_cell_size().to_bits(), direct.to_bits());
        assert_eq!(
            m.clone().with_face_planes().mean_cell_size().to_bits(),
            direct.to_bits()
        );
    }

    #[test]
    fn cell_graph_csr() {
        let m = two_tets();
        let (xadj, adj) = m.cell_graph();
        assert_eq!(xadj, vec![0, 1, 2]);
        assert_eq!(adj, vec![1, 0]);
    }

    #[test]
    fn boundary_face_listing() {
        let m = two_tets();
        assert_eq!(m.boundary_faces(BoundaryKind::Wall).len(), 6);
        assert_eq!(m.boundary_faces(BoundaryKind::Inlet).len(), 0);
    }

    #[test]
    fn face_area_unit_tet() {
        let m = two_tets();
        // face 3 of tet 0 is (0,1,2): right triangle with legs 1,1
        assert!((m.face_area(0, 3) - 0.5).abs() < 1e-15);
    }
}
