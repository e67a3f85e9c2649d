//! Point location and cell-to-cell ray tracing on tetrahedral meshes.
//!
//! Particle movers need two primitives:
//! * [`CellLocator`]: find the cell containing an arbitrary point
//!   (used at injection and after load-balance migration), accelerated
//!   by a uniform bin grid + tet walking.
//! * [`first_exit`]: given a particle inside cell `t` moving along a
//!   straight line, find which face it leaves through and when (used
//!   by the DSMC/PIC movers to track cell crossings exactly).

use crate::geom::Vec3;
use crate::tet::{CellPlanes, FaceTag, TetMesh};

/// Tolerance on barycentric weights when testing containment.
pub const BARY_EPS: f64 = 1e-10;

/// Walk from `start` towards the cell containing `p`, following the
/// face with the most negative barycentric weight. Returns the
/// containing cell, or `None` if the walk leaves the domain or fails
/// to converge within `max_steps` (caller should fall back to
/// [`locate_brute`] / the bin locator).
pub fn locate_walk(mesh: &TetMesh, start: usize, p: Vec3, max_steps: usize) -> Option<usize> {
    let mut t = start;
    for _ in 0..max_steps {
        let w = mesh.bary(t, p);
        if w.iter().all(|&wi| wi >= -BARY_EPS) {
            return Some(t);
        }
        // Prefer the most negative face, but if it is a boundary face
        // (stair-stepped, non-convex domains) fall through to the next
        // most negative *interior* face.
        let mut order: [usize; 4] = [0, 1, 2, 3];
        order.sort_unstable_by(|&a, &b| w[a].partial_cmp(&w[b]).unwrap());
        let mut moved = false;
        for f in order {
            if w[f] >= -BARY_EPS {
                break;
            }
            if let FaceTag::Interior(o) = mesh.neighbors[t][f] {
                t = o as usize;
                moved = true;
                break;
            }
        }
        if !moved {
            return None;
        }
    }
    None
}

/// Exhaustive point location. O(cells); use only as a fallback or in
/// tests.
pub fn locate_brute(mesh: &TetMesh, p: Vec3) -> Option<usize> {
    (0..mesh.num_cells()).find(|&t| mesh.contains(t, p, BARY_EPS))
}

/// Uniform-bin point locator.
///
/// Bins the cell centroids on a regular grid over the mesh bounding
/// box; a query walks from the nearest binned centroid. Robust to the
/// walk hitting a (stair-stepped) boundary by retrying from nearby
/// bins and finally falling back to brute force.
pub struct CellLocator {
    lo: Vec3,
    inv_h: Vec3,
    dims: [usize; 3],
    /// A representative cell per bin (the one whose centroid landed
    /// there last), `u32::MAX` when empty.
    bins: Vec<u32>,
}

impl CellLocator {
    /// Build a locator with roughly `target_bins` bins.
    pub fn new(mesh: &TetMesh, target_bins: usize) -> Self {
        let (lo, hi) = mesh.bbox();
        let ext = hi - lo;
        let vol = (ext.x * ext.y * ext.z).max(1e-300);
        let h = (vol / target_bins.max(1) as f64).cbrt();
        let dims = [
            ((ext.x / h).ceil() as usize).max(1),
            ((ext.y / h).ceil() as usize).max(1),
            ((ext.z / h).ceil() as usize).max(1),
        ];
        let inv_h = Vec3::new(
            dims[0] as f64 / ext.x.max(1e-300),
            dims[1] as f64 / ext.y.max(1e-300),
            dims[2] as f64 / ext.z.max(1e-300),
        );
        let mut bins = vec![u32::MAX; dims[0] * dims[1] * dims[2]];
        for (t, c) in mesh.centroids.iter().enumerate() {
            let idx = Self::bin_index(lo, inv_h, dims, *c);
            bins[idx] = t as u32;
        }
        CellLocator {
            lo,
            inv_h,
            dims,
            bins,
        }
    }

    fn bin_index(lo: Vec3, inv_h: Vec3, dims: [usize; 3], p: Vec3) -> usize {
        let clampi = |v: f64, n: usize| (v as isize).clamp(0, n as isize - 1) as usize;
        let i = clampi((p.x - lo.x) * inv_h.x, dims[0]);
        let j = clampi((p.y - lo.y) * inv_h.y, dims[1]);
        let k = clampi((p.z - lo.z) * inv_h.z, dims[2]);
        (k * dims[1] + j) * dims[0] + i
    }

    /// Locate the cell containing `p`.
    pub fn locate(&self, mesh: &TetMesh, p: Vec3) -> Option<usize> {
        let idx = Self::bin_index(self.lo, self.inv_h, self.dims, p);
        // Try the home bin, then all populated bins spiralling out is
        // overkill here: try home, then any populated bin, then brute.
        if self.bins[idx] != u32::MAX {
            if let Some(t) = locate_walk(mesh, self.bins[idx] as usize, p, 4 * mesh.num_cells()) {
                return Some(t);
            }
        }
        // Retry from a handful of other seeds (walks can dead-end on
        // non-convex, stair-stepped boundaries).
        for &seed in self.bins.iter().filter(|&&b| b != u32::MAX).take(8) {
            if let Some(t) = locate_walk(mesh, seed as usize, p, 4 * mesh.num_cells()) {
                return Some(t);
            }
        }
        locate_brute(mesh, p)
    }
}

/// The face through which a particle at `r` (inside cell `t`) moving
/// with velocity `v` first exits the cell, and the time of crossing.
///
/// Returns `None` when the particle does not leave the cell within
/// `dt` (or `v` is zero). The returned time is clamped to be
/// non-negative; the face index is the local face (0..4). A mesh with
/// the face-plane table reads the cell's row; one without computes the
/// same row, and both take the one search.
pub fn first_exit(mesh: &TetMesh, t: usize, r: Vec3, v: Vec3, dt: f64) -> Option<(f64, usize)> {
    match mesh.cell_planes(t) {
        Some(planes) => exit_search(planes, r, v, dt),
        None => exit_search(&mesh.compute_cell_planes(t), r, v, dt),
    }
}

/// The exit of the ray `r + s·v`, `0 ≤ s ≤ dt`, from the cell whose
/// face planes are `p`, all four faces at once and without a branch.
///
/// For face `f`, `den = v·n` and `num = (c − r)·n` (each summed x, y,
/// then z, as `Vec3::dot` does) give the crossing time
/// `tc = max(num / den, 0)`. The face is a candidate when the particle
/// moves towards it and the plane is not parallel to the ray — the
/// per-face loop's `!(den <= 0) && !(|den| < 1e-300)`, i.e. `den ≥
/// 1e-300` or `den` NaN — and the crossing falls within `dt`. A NaN
/// quotient clamps to 0.
///
/// The smallest candidate time wins, the lowest face on a tie. Each
/// `tc` is a non-negative number or `+∞` (never NaN, `max` drops it),
/// so with the sign bit cleared its bits order as its value does and
/// `±0` tie; a non-candidate's key is `u64::MAX`. The winner is then a
/// fold of integer selects, so a coin-flip `den` sign costs no
/// mispredicted branch.
fn exit_search(p: &CellPlanes, r: Vec3, v: Vec3, dt: f64) -> Option<(f64, usize)> {
    let ([cx, cy, cz], [nx, ny, nz]) = (&p.c, &p.n);
    let mut tc = [0.0; 4];
    let mut key = [0; 4];
    for f in 0..4 {
        let den = v.x * nx[f] + v.y * ny[f] + v.z * nz[f];
        let num = (cx[f] - r.x) * nx[f] + (cy[f] - r.y) * ny[f] + (cz[f] - r.z) * nz[f];
        tc[f] = (num / den).max(0.0);
        let candidate = (den >= 1e-300 || den.is_nan()) & (tc[f] <= dt);
        key[f] = if candidate {
            tc[f].to_bits() & !(1 << 63)
        } else {
            u64::MAX
        };
    }
    let (mut face, mut best) = (0, key[0]);
    for (f, &k) in key.iter().enumerate().skip(1) {
        let take = k < best;
        face = if take { f } else { face };
        best = if take { k } else { best };
    }
    (best != u64::MAX).then(|| (tc[face], face))
}

#[cfg(test)]
mod oracle {
    //! The per-face loop the branch-free search replaced, kept as the
    //! search's oracle.
    use crate::geom::Vec3;
    use crate::tet::TetMesh;

    /// Intersection of the ray `origin + s·dir` with the plane through
    /// `p0` with (not necessarily unit) normal `n`: the parameter `s`,
    /// or `None` when the ray is parallel to the plane.
    pub fn ray_plane(origin: Vec3, dir: Vec3, p0: Vec3, n: Vec3) -> Option<f64> {
        let denom = dir.dot(n);
        if denom.abs() < 1e-300 {
            return None;
        }
        Some((p0 - origin).dot(n) / denom)
    }

    /// [`first_exit`](super::first_exit) face by face, branching on
    /// each.
    pub fn first_exit(mesh: &TetMesh, t: usize, r: Vec3, v: Vec3, dt: f64) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for f in 0..4 {
            let (fc, n) = mesh.face_centroid_normal(t, f);
            // Only faces the particle moves towards can be exits.
            if v.dot(n) <= 0.0 {
                continue;
            }
            if let Some(tc) = ray_plane(r, v, fc, n) {
                let tc = tc.max(0.0);
                if tc <= dt && best.is_none_or(|(bt, _)| tc < bt) {
                    best = Some((tc, f));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nozzle::NozzleSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mesh() -> TetMesh {
        NozzleSpec {
            nd: 6,
            nz: 10,
            ..NozzleSpec::default()
        }
        .generate()
    }

    #[test]
    fn walk_finds_centroids() {
        let m = mesh();
        let mut found_count = 0usize;
        let mut total = 0usize;
        for t in (0..m.num_cells()).step_by(7) {
            total += 1;
            // When the walk succeeds it must land on the right cell
            // (centroids are strictly interior). Walks may dead-end on
            // the stair-stepped boundary; the CellLocator covers that
            // with retries.
            if let Some(found) = locate_walk(&m, 0, m.centroids[t], 4 * m.num_cells()) {
                assert_eq!(found, t);
                found_count += 1;
            }
        }
        // the vast majority of walks should succeed on this mesh
        assert!(found_count * 10 >= total * 9, "{found_count}/{total}");
    }

    #[test]
    fn brute_matches_walk() {
        let m = mesh();
        for t in (0..m.num_cells()).step_by(13) {
            let p = m.centroids[t];
            assert_eq!(locate_brute(&m, p), Some(t));
        }
    }

    #[test]
    fn locator_handles_outside_points() {
        let m = mesh();
        let loc = CellLocator::new(&m, 256);
        let far = Vec3::new(1.0, 1.0, 1.0); // 1 m away: far outside
        assert_eq!(loc.locate(&m, far), None);
    }

    #[test]
    fn locator_finds_interior_points() {
        let m = mesh();
        let loc = CellLocator::new(&m, 256);
        for t in (0..m.num_cells()).step_by(11) {
            assert_eq!(loc.locate(&m, m.centroids[t]), Some(t));
        }
    }

    #[test]
    fn first_exit_hits_forward_face() {
        let m = mesh();
        let t = 0;
        let r = m.centroids[t];
        // shoot along +z: must exit through some face in finite time
        let v = Vec3::new(0.0, 0.0, 1000.0);
        let (tc, f) = first_exit(&m, t, r, v, 1.0).expect("must exit");
        assert!(tc > 0.0);
        // crossing point lies on the face plane
        let hit = r + v * tc;
        let w = m.bary(t, hit);
        assert!(
            w[f] < 1e-8,
            "barycentric weight of opposite vertex ~0 on face"
        );
    }

    #[test]
    fn no_exit_for_tiny_dt() {
        let m = mesh();
        let t = 0;
        let r = m.centroids[t];
        let v = Vec3::new(0.0, 0.0, 1.0);
        // dt so small the particle stays inside
        assert!(first_exit(&m, t, r, v, 1e-12).is_none());
    }

    #[test]
    fn exit_neighbor_contains_crossing_point() {
        let m = mesh();
        for t in (0..m.num_cells()).step_by(17) {
            let r = m.centroids[t];
            let v = Vec3::new(300.0, 150.0, 700.0);
            if let Some((tc, f)) = first_exit(&m, t, r, v, 1.0) {
                let hit = r + v * (tc * 1.0000001) + v.normalized() * 1e-15;
                if let FaceTag::Interior(o) = m.neighbors[t][f] {
                    assert!(
                        m.contains(o as usize, hit, 1e-6),
                        "neighbor must contain the just-crossed point"
                    );
                }
            }
        }
    }

    #[test]
    fn ray_plane_intersection() {
        let z = Vec3::new(0.0, 0.0, 1.0);
        // plane z = 1 with normal +z, ray from origin along +z
        let t = oracle::ray_plane(Vec3::ZERO, z, z, z).unwrap();
        assert!((t - 1.0).abs() < 1e-15);
        // parallel ray
        assert!(oracle::ray_plane(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), z, z).is_none());
    }

    /// Cell-crossing times of these speeds on this mesh are ~1e-7 s:
    /// the `dt`s stay inside, cross about one face, and cross all.
    const DTS: [f64; 6] = [0.0, 1e-12, 1e-8, 1e-7, 1e-5, f64::INFINITY];

    /// What an equivalence sweep saw, so each test can hold its premise.
    #[derive(Default, Debug)]
    struct Seen {
        calls: usize,
        exits: usize,
        /// Exits whose time at least one other candidate face equals.
        ties: usize,
        /// Exits at time 0 (a start on the exit face, or a NaN clamped).
        at_zero: usize,
        /// Exits at an infinite time (a start at infinity, `dt` infinite).
        at_infinity: usize,
    }

    /// The test mesh without the face-plane table (its rows computed on
    /// the fly) and with it.
    struct Sweep {
        plain: TetMesh,
        table: TetMesh,
        seen: Seen,
    }

    impl Sweep {
        fn new() -> Self {
            let plain = mesh();
            let table = plain.clone().with_face_planes();
            let seen = Seen::default();
            Sweep { plain, table, seen }
        }

        /// `first_exit` on both meshes gives the oracle's `(tc, face)`,
        /// bit for bit, at every `dt` of [`DTS`].
        fn check(&mut self, t: usize, r: Vec3, v: Vec3) {
            for dt in DTS {
                self.check_at(t, r, v, dt);
            }
        }

        fn check_at(&mut self, t: usize, r: Vec3, v: Vec3, dt: f64) {
            let bits = |e: Option<(f64, usize)>| e.map(|(tc, f)| (tc.to_bits(), f));
            let want = oracle::first_exit(&self.plain, t, r, v, dt);
            for m in [&self.plain, &self.table] {
                assert_eq!(
                    bits(first_exit(m, t, r, v, dt)),
                    bits(want),
                    "cell {t}, r {r:?}, v {v:?}, dt {dt:e}"
                );
            }
            let seen = &mut self.seen;
            seen.calls += 1;
            if let Some((tc, f)) = want {
                seen.exits += 1;
                seen.at_zero += usize::from(tc == 0.0);
                seen.at_infinity += usize::from(tc == f64::INFINITY);
                let tied = (0..4).filter(|&g| g != f).any(|g| {
                    let (c, n) = self.plain.face_centroid_normal(t, g);
                    v.dot(n) > 0.0 && oracle::ray_plane(r, v, c, n).map(|s| s.max(0.0)) == Some(tc)
                });
                seen.ties += usize::from(tied);
            }
        }

        /// A point of cell `t` at barycentric weights `w` (summing to 1).
        fn at(&self, t: usize, w: [f64; 4]) -> Vec3 {
            let p = self.plain.tet_pos(t);
            p[0] * w[0] + p[1] * w[1] + p[2] * w[2] + p[3] * w[3]
        }

        /// A random cell and a random point of it; with `face = Some(f)`
        /// the weight of vertex `f` is zero, so the point lies on face `f`.
        fn random_start(&self, rng: &mut StdRng, face: Option<usize>) -> (usize, Vec3) {
            let t = rng.gen_range(0..self.plain.num_cells());
            let mut w: [f64; 4] = std::array::from_fn(|_| rng.gen::<f64>());
            if let Some(f) = face {
                w[f] = 0.0;
            }
            let sum: f64 = w.iter().sum();
            (t, self.at(t, w.map(|x| x / sum)))
        }
    }

    /// `v` with component `k` replaced by `x`.
    fn with(v: Vec3, k: usize, x: f64) -> Vec3 {
        let mut c = [v.x, v.y, v.z];
        c[k] = x;
        Vec3::new(c[0], c[1], c[2])
    }

    #[test]
    fn exit_search_matches_the_per_face_loop_on_random_rays() {
        let mut sweep = Sweep::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..6_000 {
            let face = (rng.gen::<f64>() < 0.3).then(|| rng.gen_range(0..4));
            let (t, r) = sweep.random_start(&mut rng, face);
            let v = Vec3::new(rng.gen(), rng.gen(), rng.gen()) * 2e3 - Vec3::new(1e3, 1e3, 1e3);
            sweep.check(t, r, v);
        }
        let seen = &sweep.seen;
        assert!(
            seen.exits > seen.calls / 3,
            "premise: most rays exit, {seen:?}"
        );
        assert!(
            seen.at_zero > 100,
            "premise: starts on an exit face, {seen:?}"
        );
    }

    #[test]
    fn exit_search_breaks_ties_like_the_per_face_loop() {
        let mut sweep = Sweep::new();
        let axes = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        // every vertex, edge midpoint and the centroid: axis-aligned
        // rays from there leave through edges and vertices
        let mut starts: Vec<[f64; 4]> = (0..4)
            .map(|i| std::array::from_fn(|k| f64::from(u8::from(k == i))))
            .collect();
        for i in 0..4 {
            for j in i + 1..4 {
                starts.push(std::array::from_fn(|k| {
                    0.5 * f64::from(u8::from(k == i || k == j))
                }));
            }
        }
        starts.push([0.25; 4]);
        for t in (0..sweep.plain.num_cells()).step_by(3) {
            for &w in &starts {
                let r = sweep.at(t, w);
                sweep.check_at(t, r, Vec3::ZERO, 1.0);
                for a in axes {
                    sweep.check(t, r, a * 1e3);
                    sweep.check(t, r, a * -1e3);
                }
            }
        }
        let seen = &sweep.seen;
        assert!(
            seen.ties > 1_000,
            "premise: rays through edges and vertices tie, {seen:?}"
        );
    }

    #[test]
    fn exit_search_matches_on_tiny_denominators_and_nan() {
        let mut sweep = Sweep::new();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_500 {
            let (t, r) = sweep.random_start(&mut rng, None);
            let dir = Vec3::new(rng.gen(), rng.gen(), rng.gen()) - Vec3::new(0.5, 0.5, 0.5);
            // |v·n| around and below 1e-300 (face normals are ~1e-7 long)
            for scale in [1e-290, 1e-293, 1e-295, 1e-300, 1e-310] {
                sweep.check(t, r, dir * scale);
            }
            // NaN or an infinity in a component of r, NaN in one of v
            let v = dir * 1e3;
            for k in 0..3 {
                for bad in [f64::NAN, f64::INFINITY, -f64::INFINITY] {
                    sweep.check(t, with(r, k, bad), v);
                }
                sweep.check(t, r, with(v, k, f64::NAN));
            }
            sweep.check_at(t, r, v, f64::NAN);
        }
        let seen = &sweep.seen;
        assert!(
            seen.at_zero > 1_000,
            "premise: NaN times clamp to 0 and exit, {seen:?}"
        );
        assert!(
            seen.at_infinity > 100,
            "premise: infinite times exit, {seen:?}"
        );
    }
}
