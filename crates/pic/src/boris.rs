//! The Boris particle pusher (paper §III-C: "We use the Boris method
//! to calculate the numerical value of the velocity v").
//!
//! Velocity update under `m dv/dt = q (E + v × B)`, split into a half
//! electric kick, a magnetic rotation and another half kick. With
//! `B = 0` (the paper's electrostatic default) the rotation is the
//! identity and the scheme reduces to a plain electric acceleration —
//! but the rotation path is implemented and tested for the constant-B
//! configuration the paper also allows.

use mesh::Vec3;

/// One Boris velocity update. Returns the new velocity.
///
/// * `v`: current velocity (m/s)
/// * `e`: electric field at the particle (V/m)
/// * `b`: magnetic flux density (T); pass `Vec3::ZERO` for the
///   electrostatic case
/// * `qm`: charge-to-mass ratio q/m (C/kg)
/// * `dt`: timestep (s)
#[inline]
pub fn boris_push(v: Vec3, e: Vec3, b: Vec3, qm: f64, dt: f64) -> Vec3 {
    let half_kick = e * (qm * dt * 0.5);
    let v_minus = v + half_kick;

    let v_plus = if b.norm2() == 0.0 {
        v_minus
    } else {
        // rotation: t = (qB/m)(Δt/2), s = 2t/(1+|t|²)
        let t = b * (qm * dt * 0.5);
        let s = t * (2.0 / (1.0 + t.norm2()));
        let v_prime = v_minus + v_minus.cross(t);
        v_minus + v_prime.cross(s)
    };

    v_plus + half_kick
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::{MASS_H, QE};

    const QM: f64 = QE / MASS_H;

    #[test]
    fn zero_field_is_identity() {
        let v = Vec3::new(1e4, -2e3, 5e2);
        assert_eq!(boris_push(v, Vec3::ZERO, Vec3::ZERO, QM, 1e-7), v);
    }

    #[test]
    fn electrostatic_reduces_to_qe_over_m() {
        let v = Vec3::ZERO;
        let e = Vec3::new(0.0, 0.0, 1000.0);
        let dt = 1e-7;
        let out = boris_push(v, e, Vec3::ZERO, QM, dt);
        let expect = QM * 1000.0 * dt;
        assert!((out.z - expect).abs() < 1e-9 * expect);
        assert_eq!(out.x, 0.0);
    }

    #[test]
    fn magnetic_rotation_preserves_speed() {
        // pure B field: |v| must be exactly preserved by the rotation
        let v = Vec3::new(1e4, 0.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.1);
        let out = boris_push(v, Vec3::ZERO, b, QM, 1e-9);
        assert!((out.norm() - v.norm()).abs() < 1e-6 * v.norm());
        // and rotate the velocity in the xy-plane
        assert!(out.y.abs() > 0.0);
        assert!(out.z.abs() < 1e-12);
    }

    #[test]
    fn gyration_orbit_closes() {
        // integrate one full gyro-period; particle speed stays put and
        // the velocity returns near its start (2nd-order scheme)
        let b = Vec3::new(0.0, 0.0, 0.05);
        let omega = QM * 0.05; // cyclotron frequency
        let period = 2.0 * std::f64::consts::PI / omega;
        let steps = 2000usize;
        let dt = period / steps as f64;
        let v0 = Vec3::new(5e3, 0.0, 0.0);
        let mut v = v0;
        for _ in 0..steps {
            v = boris_push(v, Vec3::ZERO, b, QM, dt);
        }
        assert!((v.norm() - v0.norm()).abs() < 1e-9 * v0.norm());
        assert!((v - v0).norm() < 0.02 * v0.norm(), "{:?}", v);
    }

    #[test]
    fn exb_drift_emerges() {
        // crossed fields: guiding centre drifts at E×B/|B|²
        let e = Vec3::new(100.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.01);
        let drift = e.cross(b) / b.norm2(); // (0, -1e4, 0)
        let steps = 20000usize;
        let omega = QM * b.norm();
        let dt = (2.0 * std::f64::consts::PI / omega) / 200.0;
        let mut v = Vec3::ZERO;
        let mut mean = Vec3::ZERO;
        for _ in 0..steps {
            v = boris_push(v, e, b, QM, dt);
            mean += v / steps as f64;
        }
        assert!(
            (mean - drift).norm() < 0.05 * drift.norm(),
            "mean {mean:?} vs drift {drift:?}"
        );
    }
}
