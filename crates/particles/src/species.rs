//! Particle species registry.
//!
//! The paper simulates hydrogen atoms (H, neutral, handled by DSMC)
//! and hydrogen ions (H⁺, charged, handled by PIC), with per-dataset
//! *scaling factors*: the number of real particles represented by one
//! simulation particle (Table I).

/// Boltzmann constant (J/K).
pub const KB: f64 = 1.380_649e-23;
/// Elementary charge (C).
pub const QE: f64 = 1.602_176_634e-19;
/// Mass of a hydrogen atom (kg).
pub const MASS_H: f64 = 1.6735575e-27;
/// Electron mass (kg).
pub const MASS_E: f64 = 9.109_383_701_5e-31;

/// Physical properties of one species.
#[derive(Debug, Clone)]
pub struct Species {
    /// Display name ("H", "H+").
    pub name: String,
    /// Particle mass (kg).
    pub mass: f64,
    /// Charge (C); 0 for neutrals.
    pub charge: f64,
    /// VHS reference diameter (m).
    pub diameter: f64,
    /// VHS viscosity-temperature exponent ω.
    pub omega: f64,
    /// VHS reference temperature (K).
    pub t_ref: f64,
    /// Scaling factor: real particles represented by one simulation
    /// particle (paper Table I).
    pub weight: f64,
}

impl Species {
    /// Whether PIC must push this species in the electric field.
    #[inline]
    pub fn is_charged(&self) -> bool {
        self.charge != 0.0
    }

    /// Hydrogen atom with the given scaling factor.
    pub fn hydrogen(weight: f64) -> Self {
        Species {
            name: "H".into(),
            mass: MASS_H,
            charge: 0.0,
            diameter: 2.33e-10,
            omega: 0.75,
            t_ref: 273.0,
            weight,
        }
    }

    /// Hydrogen ion with the given scaling factor.
    pub fn hydrogen_ion(weight: f64) -> Self {
        Species {
            name: "H+".into(),
            mass: MASS_H - MASS_E,
            charge: QE,
            diameter: 2.33e-10,
            omega: 0.75,
            t_ref: 273.0,
            weight,
        }
    }

    /// Most probable thermal speed at temperature `t` (m/s).
    pub fn thermal_speed(&self, t: f64) -> f64 {
        (2.0 * KB * t / self.mass).sqrt()
    }

    /// This species' VHS law with its constants computed once; a
    /// collision pass takes it once and evaluates it per candidate.
    pub fn vhs(&self) -> Vhs {
        let d = self.diameter;
        Vhs {
            sigma_ref: std::f64::consts::PI * d * d,
            g_ref: (2.0 * KB * self.t_ref / self.mass).sqrt(),
            exponent: 2.0 * self.omega - 1.0,
        }
    }
}

/// The VHS total collision cross-section against a partner of the
/// same species (Bird 1994, eq. 4.63): σ(g) = σ_ref · (g_ref / g)^(2ω − 1),
/// with the thermal speed at T_ref as the reference relative speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vhs {
    /// π d² (m²).
    pub sigma_ref: f64,
    /// Reference relative speed (m/s).
    pub g_ref: f64,
    /// 2ω − 1.
    pub exponent: f64,
}

impl Vhs {
    /// σ(g) in m²; `sigma_ref` for `g <= 0`.
    #[inline]
    pub fn cross_section(&self, g: f64) -> f64 {
        if g <= 0.0 {
            return self.sigma_ref;
        }
        self.sigma_ref * (self.g_ref / g).powf(self.exponent)
    }

    /// The NTC acceptance test of this law, its constant computed once:
    /// `accepts(x, g²)` is whether `x < σ(g)·g` for a pair at squared
    /// relative speed `g²` (`x = U·(σg)_max` decides a candidate; `x =
    /// (σg)_max` asks whether the pair exceeds the bound). σ(g)·g is
    /// `K·(g²)^((1−e)/2)` with `K = σ_ref·g_ref^e`, `e = 2ω − 1`. At
    /// ω = ¾, the value of every species here, `(σg)⁴ = σ_ref⁴·g_ref²·g²`
    /// and the test is `x⁴ < K⁴·g²`: no root and no power, so only an
    /// accepted pair takes `√g²`. Any other ω takes one `powf` of `g²`.
    pub fn acceptance(&self) -> impl Fn(f64, f64) -> bool + Copy + Send + Sync {
        let quartic = self.exponent == 0.5;
        let s2 = self.sigma_ref * self.sigma_ref;
        let k4 = s2 * s2 * (self.g_ref * self.g_ref);
        let k = self.sigma_ref * self.g_ref.powf(self.exponent);
        let power = 0.5 - 0.5 * self.exponent;
        move |x: f64, g2: f64| {
            if quartic {
                let x2 = x * x;
                x2 * x2 < k4 * g2
            } else {
                x < k * g2.powf(power)
            }
        }
    }
}

/// Indexed registry of all species in a simulation. Species ids are
/// `u8` (stored per particle).
#[derive(Debug, Clone, Default)]
pub struct SpeciesTable {
    list: Vec<Species>,
}

impl SpeciesTable {
    pub fn new() -> Self {
        SpeciesTable { list: Vec::new() }
    }

    /// The paper's two-species hydrogen plasma, with the given scaling
    /// factors for H and H⁺. Returns `(table, h_id, hplus_id)`.
    pub fn hydrogen_plasma(weight_h: f64, weight_hplus: f64) -> (Self, u8, u8) {
        let mut t = SpeciesTable::new();
        let h = t.add(Species::hydrogen(weight_h));
        let hp = t.add(Species::hydrogen_ion(weight_hplus));
        (t, h, hp)
    }

    /// Register a species; returns its id.
    pub fn add(&mut self, s: Species) -> u8 {
        assert!(self.list.len() < u8::MAX as usize);
        self.list.push(s);
        (self.list.len() - 1) as u8
    }

    /// Species by id.
    #[inline]
    pub fn get(&self, id: u8) -> &Species {
        &self.list[id as usize]
    }

    /// Number of registered species.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Iterate `(id, species)`.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &Species)> {
        self.list.iter().enumerate().map(|(i, s)| (i as u8, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydrogen_plasma_registry() {
        let (t, h, hp) = SpeciesTable::hydrogen_plasma(1e12, 6000.0);
        assert_eq!(t.len(), 2);
        assert!(!t.get(h).is_charged());
        assert!(t.get(hp).is_charged());
        assert_eq!(t.get(h).weight, 1e12);
        assert_eq!(t.get(hp).weight, 6000.0);
        assert!(t.get(hp).mass < t.get(h).mass);
    }

    #[test]
    fn thermal_speed_scales_with_sqrt_t() {
        let h = Species::hydrogen(1.0);
        let v300 = h.thermal_speed(300.0);
        let v1200 = h.thermal_speed(1200.0);
        assert!((v1200 / v300 - 2.0).abs() < 1e-12);
        // hydrogen at 300 K: ~2.2 km/s most probable speed
        assert!(v300 > 2000.0 && v300 < 2500.0, "{v300}");
    }

    #[test]
    fn vhs_falls_with_speed() {
        let vhs = Species::hydrogen(1.0).vhs();
        let slow = vhs.cross_section(100.0);
        let fast = vhs.cross_section(10000.0);
        assert!(slow > fast);
        assert!(fast > 0.0);
    }

    /// The VHS law as `Species` evaluated it per call before its
    /// constants moved into [`Vhs`] — the oracle the new one is held to.
    fn old_vhs_law(s: &Species, g: f64) -> f64 {
        let d = s.diameter;
        let sigma_ref = std::f64::consts::PI * d * d;
        if g <= 0.0 {
            return sigma_ref;
        }
        let g_ref = (2.0 * KB * s.t_ref / s.mass).sqrt();
        sigma_ref * (g_ref / g).powf(2.0 * s.omega - 1.0)
    }

    /// Bitwise, on 10⁶ seeded speeds in (0, 10⁵] m/s (half uniform, half
    /// log-uniform from 1 mm/s) and the edges, for ω = 0.75, 0.5
    /// (exponent 0) and 0.81.
    #[test]
    fn vhs_matches_the_old_law_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        let mut speeds: Vec<f64> = (0..1_000_000)
            .map(|k| {
                let u = 1.0 - rng.gen::<f64>(); // (0, 1]
                if k % 2 == 0 {
                    u * 1e5
                } else {
                    1e-3 * 1e8f64.powf(u)
                }
            })
            .collect();
        speeds.extend([0.0, -1.0, f64::from_bits(1), f64::MAX, f64::INFINITY]);
        for omega in [0.75, 0.5, 0.81] {
            let s = Species {
                omega,
                ..Species::hydrogen(1.0)
            };
            let vhs = s.vhs();
            for &g in &speeds {
                let (new, old) = (vhs.cross_section(g), old_vhs_law(&s, g));
                assert_eq!(new.to_bits(), old.to_bits(), "ω = {omega}, g = {g:e}");
            }
        }
    }

    proptest::proptest! {
        /// The g² test decides a candidate as `U·(σg)_max < σ(g)·g` does,
        /// for ω ∈ {0.5, 0.75, 0.81}, wherever the two sides are more than
        /// 1e-12 apart relative to σ(g)·g (within that band the roundings
        /// of `√`, `powf` and the fourth power may disagree). `g` is
        /// log-uniform over 1 mm/s – 100 km/s and `(σg)_max` over 10⁻³ –
        /// 10³ times σg at `g_ref`.
        #[test]
        fn the_g2_test_decides_like_the_vhs_law(
            log_g in -3.0f64..5.0,
            u in 0.0f64..1.0,
            log_bound in -3.0f64..3.0,
        ) {
            let g = 10f64.powf(log_g);
            for omega in [0.5, 0.75, 0.81] {
                let vhs = Species { omega, ..Species::hydrogen(1.0) }.vhs();
                let accepts = vhs.acceptance();
                let sigma_g = vhs.cross_section(g) * g;
                let bound = 10f64.powf(log_bound) * vhs.cross_section(vhs.g_ref) * vhs.g_ref;
                let x = u * bound;
                if (x - sigma_g).abs() > 1e-12 * sigma_g {
                    proptest::prop_assert!(
                        accepts(x, g * g) == (x < sigma_g),
                        "ω = {omega}, g = {g:e}: x {x:e}, σg {sigma_g:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let (t, _, _) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let ids: Vec<u8> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
