//! Random sampling utilities: Maxwellian velocities and uniform
//! points in triangles/tets.
//!
//! Injection (paper §III-B) requires velocities "perpendicular to the
//! inlet and complying with the Maxwell distribution"; we provide
//! drifting-Maxwellian sampling plus the flux-biased normal component
//! used for surface injection.

use mesh::Vec3;
use rand::Rng;

use crate::species::KB;

/// Two independent standard normal variates by Marsaglia's polar
/// method: `(u, w)` uniform in the unit disc, `q = u² + w²`, and both
/// coordinates scaled by `√(−2 ln q / q)`. One `ln` and one `sqrt` a
/// pair, no trigonometry; a point is kept with probability π/4.
pub fn normal_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let (u, w, q) = in_unit_disc(rng);
        if q > 0.0 {
            let f = (-2.0 * q.ln() / q).sqrt();
            return (u * f, w * f);
        }
    }
}

/// A point `(u, w)` uniform in the open unit disc and its `q = u² + w²`,
/// by rejection from the square.
fn in_unit_disc<R: Rng>(rng: &mut R) -> (f64, f64, f64) {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let w = 2.0 * rng.gen::<f64>() - 1.0;
        let q = u * u + w * w;
        if q < 1.0 {
            return (u, w, q);
        }
    }
}

/// An isotropic unit vector by Marsaglia's disc rejection (1972): `(u,
/// w)` uniform in the unit disc, `q = u² + w²`, and
/// `d = (2u√(1−q), 2w√(1−q), 1−2q)`, so `|d|² = 4q(1−q) + (1−2q)² = 1`
/// and `d_z` is uniform on (−1, 1]. One `sqrt`, no trigonometry.
pub fn isotropic_direction<R: Rng>(rng: &mut R) -> Vec3 {
    let (u, w, q) = in_unit_disc(rng);
    let s = 2.0 * (1.0 - q).sqrt();
    Vec3::new(u * s, w * s, 1.0 - 2.0 * q)
}

/// Sample a velocity from a drifting Maxwellian with temperature `t`
/// (K), particle mass `m` (kg) and drift velocity `drift`: three of the
/// four normals of two [`normal_pair`]s.
pub fn maxwellian<R: Rng>(rng: &mut R, t: f64, m: f64, drift: Vec3) -> Vec3 {
    let sigma = (KB * t / m).sqrt();
    let (x, y) = normal_pair(rng);
    let (z, _) = normal_pair(rng);
    drift + Vec3::new(x, y, z) * sigma
}

/// Sample the *inward* normal speed of a particle crossing a surface
/// from a Maxwellian flux (Rayleigh-distributed in the half-space):
/// `v_n = σ √(−2 ln U)`. Always positive.
pub fn flux_normal_speed<R: Rng>(rng: &mut R, t: f64, m: f64) -> f64 {
    let sigma = (KB * t / m).sqrt();
    let u: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    sigma * (-2.0 * u.ln()).sqrt()
}

/// Uniform point in the triangle `(a, b, c)`.
pub fn point_in_triangle<R: Rng>(rng: &mut R, a: Vec3, b: Vec3, c: Vec3) -> Vec3 {
    let mut u: f64 = rng.gen();
    let mut v: f64 = rng.gen();
    if u + v > 1.0 {
        u = 1.0 - u;
        v = 1.0 - v;
    }
    a + (b - a) * u + (c - a) * v
}

/// Uniform point in the tetrahedron `(a, b, c, d)` (fold-back method).
pub fn point_in_tet<R: Rng>(rng: &mut R, a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Vec3 {
    let mut s: f64 = rng.gen();
    let mut t: f64 = rng.gen();
    let mut u: f64 = rng.gen();
    if s + t > 1.0 {
        s = 1.0 - s;
        t = 1.0 - t;
    }
    if t + u > 1.0 {
        let tmp = u;
        u = 1.0 - s - t;
        t = 1.0 - tmp;
    } else if s + t + u > 1.0 {
        let tmp = u;
        u = s + t + u - 1.0;
        s = 1.0 - t - tmp;
    }
    let w = 1.0 - s - t - u;
    a * w + b * s + c * t + d * u
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::geom::tet_contains;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Over 2·10⁵ normals (10⁵ pairs), the sample mean, variance and
    /// fourth moment are within 4σ of 0, 1 and 3, σ the standard error
    /// of each (1/√n, √(2/n) and √(96/n): Var x² = 2, Var x⁴ = 105 − 9),
    /// and the mean product of a pair's halves is within 4σ of 0
    /// (σ = √(2/n), over n/2 pairs).
    #[test]
    fn polar_normals_have_the_gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let pairs: Vec<(f64, f64)> = (0..100_000).map(|_| normal_pair(&mut rng)).collect();
        let xs: Vec<f64> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let n = xs.len() as f64;
        let moment = |k: i32| xs.iter().map(|x| x.powi(k)).sum::<f64>() / n;
        let cross = pairs.iter().map(|(a, b)| a * b).sum::<f64>() / (n / 2.0);
        for (what, got, want, sd) in [
            ("mean", moment(1), 0.0, 1.0),
            ("variance", moment(2), 1.0, 2f64.sqrt()),
            ("fourth moment", moment(4), 3.0, 96f64.sqrt()),
            ("pair correlation", cross, 0.0, 2f64.sqrt()),
        ] {
            let sigma = sd / n.sqrt();
            assert!(
                (got - want).abs() < 4.0 * sigma,
                "{what}: {got} against {want} ± {sigma}"
            );
        }
    }

    /// 10⁵ disc-rejection directions: each is a unit vector within 4
    /// ulp, and each ⟨d_i⟩ and ⟨d_i d_j⟩ − δ_ij/3 is within 4σ of 0 (σ the
    /// standard error: 1/√(3n) for a mean, √(4/45n) for a diagonal and
    /// 1/√(15n) for an off-diagonal second moment of the uniform sphere).
    #[test]
    fn disc_rejection_directions_are_isotropic_unit_vectors() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 100_000;
        let dirs: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                let d = isotropic_direction(&mut rng);
                [d.x, d.y, d.z]
            })
            .collect();
        for d in &dirs {
            let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((norm - 1.0).abs() <= 4.0 * f64::EPSILON, "|d| = {norm}");
        }
        let n = n as f64;
        let mean = |f: &dyn Fn(&[f64; 3]) -> f64| dirs.iter().map(f).sum::<f64>() / n;
        for i in 0..3 {
            let m = mean(&|d| d[i]);
            let sigma = (1.0 / (3.0 * n)).sqrt();
            assert!(m.abs() < 4.0 * sigma, "<d{i}> = {m}");
            for j in i..3 {
                let m = mean(&|d| d[i] * d[j]) - if i == j { 1.0 / 3.0 } else { 0.0 };
                let var = if i == j { 4.0 / 45.0 } else { 1.0 / 15.0 };
                let sigma = (var / n).sqrt();
                assert!(m.abs() < 4.0 * sigma, "<d{i} d{j}> - δ/3 = {m}");
            }
        }
    }

    #[test]
    fn maxwellian_matches_temperature() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = 300.0;
        let m = crate::species::MASS_H;
        let drift = Vec3::new(0.0, 0.0, 10000.0);
        let n = 20000;
        let mut mean = Vec3::ZERO;
        let mut var_x = 0.0;
        for _ in 0..n {
            let v = maxwellian(&mut rng, t, m, drift);
            mean += v / n as f64;
            var_x += v.x * v.x / n as f64;
        }
        // drift recovered
        assert!((mean.z - 10000.0).abs() < 50.0, "{}", mean.z);
        assert!(mean.x.abs() < 50.0);
        // variance per component = kT/m
        let expect = KB * t / m;
        assert!((var_x - expect).abs() / expect < 0.05);
    }

    #[test]
    fn flux_speed_positive_with_correct_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = 300.0;
        let m = crate::species::MASS_H;
        let sigma = (KB * t / m).sqrt();
        let n = 20000;
        let mut mean = 0.0;
        for _ in 0..n {
            let v = flux_normal_speed(&mut rng, t, m);
            assert!(v > 0.0);
            mean += v / n as f64;
        }
        // Rayleigh mean = σ √(π/2)
        let expect = sigma * (std::f64::consts::PI / 2.0).sqrt();
        assert!((mean - expect).abs() / expect < 0.03, "{mean} vs {expect}");
    }

    #[test]
    fn triangle_points_inside() {
        let mut rng = StdRng::seed_from_u64(4);
        let (a, b, c) = (
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
        );
        for _ in 0..500 {
            let p = point_in_triangle(&mut rng, a, b, c);
            // inside iff barycentric non-negative
            assert!(p.x >= -1e-12 && p.y >= -1e-12);
            assert!(p.x / 2.0 + p.y / 3.0 <= 1.0 + 1e-12);
            assert!(p.z.abs() < 1e-15);
        }
    }

    #[test]
    fn tet_points_inside_and_fill_volume() {
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b, c, d) = (
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        );
        let mut near_origin = 0usize;
        let n = 4000;
        for _ in 0..n {
            let p = point_in_tet(&mut rng, a, b, c, d);
            assert!(tet_contains(p, a, b, c, d, 1e-9), "{p:?}");
            if p.x + p.y + p.z < 0.5 {
                near_origin += 1;
            }
        }
        // sub-tet x+y+z<0.5 has volume fraction 1/8
        let frac = near_origin as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.03, "{frac}");
    }
}
