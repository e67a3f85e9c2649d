//! Integration tests of the full coupled DSMC/PIC pipeline across
//! crates: mesh generation → injection → movement → collisions →
//! chemistry → deposition → Poisson → push, over many steps.

use coupled::{Dataset, RankEngine};
use particles::QE;

fn sim() -> RankEngine {
    let mut cfg = Dataset::D1.config(0.03);
    cfg.seed = 99;
    RankEngine::new(cfg)
}

#[test]
fn long_run_stays_physical() {
    let mut st = sim();
    for _ in 0..40 {
        let rec = st.dsmc_step();
        // Poisson must converge every substep at these sizes
        assert_eq!(rec.poisson_iters.len(), st.config.pic_per_dsmc);
    }
    // every particle inside the domain and consistent with its cell
    let (lo, hi) = st.nm.coarse.bbox();
    for p in st.particles.iter() {
        assert!(p.pos.x >= lo.x - 1e-12 && p.pos.x <= hi.x + 1e-12);
        assert!(p.pos.z >= lo.z - 1e-12 && p.pos.z <= hi.z + 1e-12);
        assert!(st.nm.coarse.contains(p.cell as usize, p.pos, 1e-5));
        // velocities bounded: nothing should exceed a few times the
        // 10 km/s drift after thermalisation
        assert!(p.vel.norm() < 3e5, "runaway particle: {:?}", p.vel);
    }
}

#[test]
fn charge_deposited_matches_ion_population() {
    let mut st = sim();
    for _ in 0..20 {
        st.dsmc_step();
    }
    let node_charge = pic::deposit_charge(&st.nm, &st.particles, &st.species);
    let total: f64 = node_charge.iter().sum();
    let n_ions = st
        .particles
        .species
        .iter()
        .filter(|&&s| s == st.hp_id)
        .count();
    let expect = n_ions as f64 * QE * st.species.get(st.hp_id).weight;
    assert!(
        (total - expect).abs() <= 1e-9 * expect.abs().max(1e-30),
        "deposited {total} vs expected {expect}"
    );
}

#[test]
fn mass_balance_injection_vs_outflow() {
    let mut st = sim();
    let mut injected = 0usize;
    let mut exited = 0usize;
    for _ in 0..60 {
        let rec = st.dsmc_step();
        injected += rec.injected_cells.len();
        exited += rec.exited;
    }
    // conservation: injected = resident + exited (chemistry conserves
    // particle count: dissociation/recombination convert species 1:1)
    assert_eq!(injected, st.particles.len() + exited);
}

#[test]
fn plume_advances_downstream_over_time() {
    let mut st = sim();
    let mut front_at = Vec::new();
    for step in 1..=30 {
        st.dsmc_step();
        if step % 10 == 0 {
            let front = st.particles.pz.iter().copied().fold(0.0f64, f64::max);
            front_at.push(front);
        }
    }
    assert!(
        front_at.windows(2).all(|w| w[1] >= w[0] * 0.9),
        "plume front must advance: {front_at:?}"
    );
    assert!(front_at[0] > 0.0);
}

#[test]
fn electric_field_pushes_ions_outward_from_charge() {
    // After enough steps a positive space charge builds where ions
    // concentrate; the resulting field must be finite and the
    // potential positive somewhere inside.
    let mut st = sim();
    for _ in 0..25 {
        st.dsmc_step();
    }
    let phi = st.poisson.phi();
    let max_phi = phi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let n_ions = st
        .particles
        .species
        .iter()
        .filter(|&&s| s == st.hp_id)
        .count();
    if n_ions > 0 {
        assert!(
            max_phi > 0.0,
            "positive space charge must raise the potential"
        );
    }
    assert!(phi.iter().all(|v| v.is_finite()));
}
