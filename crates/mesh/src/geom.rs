//! Small 3D vector and tetrahedron geometry kernel.
//!
//! Everything in this module is `f64`-based; the solver does not need
//! adaptive precision because mesh cells are well-shaped by
//! construction (Kuhn tetrahedra of a regular lattice, see
//! [`crate::nozzle`]).

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component double-precision vector used for positions,
/// velocities and fields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Unit vector in the direction of `self`; returns `Vec3::ZERO`
    /// for the zero vector rather than NaN.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        (self - o).norm()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// Signed volume of the tetrahedron `(a, b, c, d)`.
///
/// Positive when `(b-a, c-a, d-a)` form a right-handed basis. All mesh
/// generation in this crate produces positively oriented tets.
#[inline]
pub fn tet_volume_signed(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Absolute volume of the tetrahedron `(a, b, c, d)`.
#[inline]
pub fn tet_volume(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    tet_volume_signed(a, b, c, d).abs()
}

/// Centroid of a tetrahedron.
#[inline]
pub fn tet_centroid(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Vec3 {
    (a + b + c + d) / 4.0
}

/// Barycentric coordinates of point `p` with respect to tetrahedron
/// `(a, b, c, d)`.
///
/// Returned as `[wa, wb, wc, wd]` with `wa + wb + wc + wd == 1` (up to
/// roundoff). All four weights are non-negative iff `p` lies inside
/// the tet. The weights double as linear finite-element shape
/// functions, so they are reused for charge deposition and field
/// interpolation in the PIC solver.
pub fn barycentric(p: Vec3, a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> [f64; 4] {
    let vol = tet_volume_signed(a, b, c, d);
    if vol.abs() < f64::MIN_POSITIVE {
        // Degenerate tet: fall back to "all weight on a" which keeps
        // callers' invariants (weights sum to 1) intact.
        return [1.0, 0.0, 0.0, 0.0];
    }
    let inv = 1.0 / vol;
    let wa = tet_volume_signed(p, b, c, d) * inv;
    let wb = tet_volume_signed(a, p, c, d) * inv;
    let wc = tet_volume_signed(a, b, p, d) * inv;
    let wd = 1.0 - wa - wb - wc;
    [wa, wb, wc, wd]
}

/// Constant shape-function gradients of a linear tet: returns
/// `[∇λ0, ∇λ1, ∇λ2, ∇λ3]`.
pub fn shape_gradients(p: [Vec3; 4]) -> [Vec3; 4] {
    // λ_i = 1 on vertex i, 0 on the opposite face; the gradient is
    // the inward face normal scaled by 1/distance:
    // ∇λ_i = n_face_i_area_vector / (3 V), pointing towards vertex i.
    let v6 = (p[1] - p[0]).cross(p[2] - p[0]).dot(p[3] - p[0]); // 6V signed
    let mut g = [Vec3::ZERO; 4];
    // face opposite vertex i is formed by the other three vertices
    const FACES: [[usize; 3]; 4] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]];
    for i in 0..4 {
        let [a, b, c] = FACES[i];
        // area vector with orientation chosen so ∇λ_i points to vertex i
        let n = (p[b] - p[a]).cross(p[c] - p[a]);
        let n = if n.dot(p[i] - p[a]) > 0.0 { n } else { -n };
        g[i] = n / v6.abs();
    }
    g
}

/// Whether `p` lies inside (or on the boundary of) tet `(a,b,c,d)`,
/// with tolerance `eps` on the barycentric weights.
pub fn tet_contains(p: Vec3, a: Vec3, b: Vec3, c: Vec3, d: Vec3, eps: f64) -> bool {
    barycentric(p, a, b, c, d).iter().all(|&w| w >= -eps)
}

/// Outward normal (unnormalized) of the triangle `(a, b, c)` as seen
/// from the opposite vertex `opp`: the returned vector points away
/// from `opp`.
#[inline]
pub fn outward_face_normal(a: Vec3, b: Vec3, c: Vec3, opp: Vec3) -> Vec3 {
    let n = (b - a).cross(c - a);
    if n.dot(opp - a) > 0.0 {
        -n
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Vec3 = Vec3::new(0.0, 0.0, 0.0);
    const B: Vec3 = Vec3::new(1.0, 0.0, 0.0);
    const C: Vec3 = Vec3::new(0.0, 1.0, 0.0);
    const D: Vec3 = Vec3::new(0.0, 0.0, 1.0);

    #[test]
    fn vector_algebra() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let w = Vec3::new(4.0, -1.0, 0.5);
        assert_eq!(v + w, Vec3::new(5.0, 1.0, 3.5));
        assert_eq!(v - w, Vec3::new(-3.0, 3.0, 2.5));
        assert_eq!(v * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * v, v * 2.0);
        assert!((v.dot(w) - (4.0 - 2.0 + 1.5)).abs() < 1e-15);
        // cross product is perpendicular to both operands
        let c = v.cross(w);
        assert!(c.dot(v).abs() < 1e-12);
        assert!(c.dot(w).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        let n = v.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-15);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn unit_tet_volume() {
        assert!((tet_volume(A, B, C, D) - 1.0 / 6.0).abs() < 1e-15);
        // swapping two vertices flips the sign
        assert!(tet_volume_signed(A, B, C, D) > 0.0);
        assert!(tet_volume_signed(B, A, C, D) < 0.0);
    }

    #[test]
    fn barycentric_vertices_and_centroid() {
        let w = barycentric(A, A, B, C, D);
        assert!((w[0] - 1.0).abs() < 1e-12);
        let cen = tet_centroid(A, B, C, D);
        let w = barycentric(cen, A, B, C, D);
        for wi in w {
            assert!((wi - 0.25).abs() < 1e-12);
        }
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        assert!(tet_contains(Vec3::new(0.1, 0.1, 0.1), A, B, C, D, 1e-12));
        assert!(!tet_contains(Vec3::new(0.9, 0.9, 0.9), A, B, C, D, 1e-12));
        // face point counts as inside
        assert!(tet_contains(Vec3::new(0.25, 0.25, 0.0), A, B, C, D, 1e-12));
    }

    #[test]
    fn shape_gradients_partition_of_unity() {
        let p = [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(1.3, 0.1, 0.2),
            Vec3::new(0.2, 1.1, 0.4),
            Vec3::new(0.3, 0.4, 1.5),
        ];
        let g = shape_gradients(p);
        // gradients sum to zero (λ's sum to 1)
        let sum = g[0] + g[1] + g[2] + g[3];
        assert!(sum.norm() < 1e-12);
        // ∇λ_i · (p_i − p_j) = 1 for any j ≠ i
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let d = g[i].dot(p[i] - p[j]);
                    assert!((d - 1.0).abs() < 1e-10, "i={i} j={j}: {d}");
                }
            }
        }
    }

    #[test]
    fn outward_normal_points_away() {
        // face (B, C, D) opposite A in the unit tet
        let n = outward_face_normal(B, C, D, A);
        // A is at the origin; the face centroid minus A should have a
        // positive component along the outward normal.
        let fc = (B + C + D) / 3.0;
        assert!(n.dot(fc - A) > 0.0);
    }
}
