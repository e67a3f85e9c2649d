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

    /// VHS total collision cross-section at relative speed `g` (m²)
    /// against a partner of the same species (Bird 1994, eq. 4.63).
    pub fn vhs_cross_section(&self, g: f64) -> f64 {
        let d = self.diameter;
        let sigma_ref = std::f64::consts::PI * d * d;
        if g <= 0.0 {
            return sigma_ref;
        }
        // σ(g) = σ_ref * (g_ref / g)^(2ω - 1); using the thermal speed
        // at T_ref as the reference relative speed.
        let g_ref = (2.0 * KB * self.t_ref / self.mass).sqrt();
        sigma_ref * (g_ref / g).powf(2.0 * self.omega - 1.0)
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
    fn vhs_cross_section_decreases_with_speed() {
        let h = Species::hydrogen(1.0);
        let slow = h.vhs_cross_section(100.0);
        let fast = h.vhs_cross_section(10000.0);
        assert!(slow > fast);
        assert!(fast > 0.0);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let (t, _, _) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        let ids: Vec<u8> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
