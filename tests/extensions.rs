//! Integration tests for the extension features: cross-species
//! MEX/CEX collisions, the constant magnetic field, the auto-tuner
//! and VTK export — all driven through the public coupled API.

use coupled::{Dataset, MachineProfile, RankEngine, RunConfig};
use mesh::Vec3;

#[test]
fn cross_collisions_preserve_population_and_charge() {
    let mut cfg = Dataset::D1.config(0.03);
    cfg.cross_collisions = true;
    cfg.seed = 77;
    // dense enough for neutral-ion encounters
    cfg.density_hplus = 3e11;
    let mut st = RankEngine::new(cfg);
    let mut injected = 0usize;
    let mut exited = 0usize;
    for _ in 0..10 {
        let rec = st.dsmc_step();
        injected += rec.injected_cells.len();
        exited += rec.exited;
    }
    // CEX swaps identities pairwise and MEX only scatters: the
    // inject/exit balance must hold exactly, as without the feature
    assert_eq!(injected, st.particles.len() + exited);
    for p in st.particles.iter() {
        assert!(st.nm.coarse.contains(p.cell as usize, p.pos, 1e-5));
    }
    // ... and a cross pass over the grown plume leaves the ion count as
    // it found it, even one 1,000 steps long, in which swapped
    // partners are drawn again many times
    let ions = |st: &RankEngine| {
        st.particles
            .species
            .iter()
            .filter(|&&s| s == st.hp_id)
            .count()
    };
    let (before, population) = (ions(&st), st.particles.len());
    let cross = st.cross;
    let (h, hp) = (st.h_id, st.hp_id);
    let mut index = particles::CellIndex::default();
    let slot = |s| [h, hp].iter().position(|&id| id == s);
    index.build(&st.particles, st.nm.coarse.num_cells(), 2, slot, &st.lanes);
    let stats = cross.collide(
        &st.nm.coarse,
        &mut st.particles,
        &st.species,
        st.h_id,
        st.hp_id,
        &mut index,
        1000.0 * st.config.dt_dsmc,
        dsmc::collision_key(77, 10, 0),
        &st.lanes,
    );
    assert!(stats.cex > 100, "premise: many swaps, {stats:?}");
    assert_eq!((ions(&st), st.particles.len()), (before, population));
}

#[test]
fn cross_collisions_change_the_flow() {
    // sized for an unoptimised build: at this ion density 3 steps of
    // the 0.02-scale plume already give 19-33 events with the feature
    // and 0 without, on each of seeds 1-6 and 12
    let run = |cross: bool| {
        let mut cfg = Dataset::D1.config(0.02);
        cfg.cross_collisions = cross;
        cfg.seed = 12;
        // dense enough for neutral-ion encounters
        cfg.density_hplus = 3e12;
        let mut st = RankEngine::new(cfg);
        let mut colls = 0usize;
        for _ in 0..3 {
            colls += st.dsmc_step().collisions;
        }
        colls
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with > without,
        "cross collisions must add events: {with} !> {without}"
    );
}

#[test]
fn magnetic_field_bends_ion_trajectories() {
    // strong axial B: ions gyrate, acquiring perpendicular velocity
    // correlations; at minimum the run must stay stable and bounded
    let mut cfg = Dataset::D1.config(0.03);
    cfg.b_field = Vec3::new(0.0, 0.0, 0.5);
    cfg.seed = 3;
    let mut st = RankEngine::new(cfg);
    for _ in 0..20 {
        st.dsmc_step();
    }
    for p in st.particles.iter() {
        assert!(p.vel.norm().is_finite());
        assert!(
            p.vel.norm() < 3e5,
            "B field must not pump energy: {:?}",
            p.vel
        );
        assert!(st.nm.coarse.contains(p.cell as usize, p.pos, 1e-5));
    }
}

#[test]
fn magnetic_field_preserves_ion_speed_in_pure_rotation() {
    // with E≈0 (no ions deposited -> no field) the Boris rotation is
    // energy-conserving: compare speeds before/after one PIC kick
    let nm = {
        let spec = mesh::NozzleSpec {
            nd: 4,
            nz: 4,
            ..mesh::NozzleSpec::default()
        };
        let coarse = spec.generate();
        mesh::NestedMesh::from_coarse(coarse, move |c, n| spec.classify(c, n))
    };
    let (table, _h, hp) = particles::SpeciesTable::hydrogen_plasma(1.0, 1.0);
    let mut buf = particles::ParticleBuffer::new();
    buf.push(particles::Particle {
        pos: nm.coarse.centroids[0],
        vel: Vec3::new(2e4, 0.0, 0.0),
        cell: 0,
        species: hp,
        id: 0,
    });
    let ef = pic::ElectricField::zeros(&nm.fine);
    let b = Vec3::new(0.0, 0.0, 0.3);
    let v0 = buf.vel(0).norm();
    pic::accelerate_charged(&nm, &mut buf, &table, &ef, b, 1e-8);
    assert!((buf.vel(0).norm() - v0).abs() < 1e-9 * v0);
    assert!(buf.vel(0).y.abs() > 0.0, "rotation must occur");
}

#[test]
fn autotuner_prefers_some_rebalancing_on_skewed_plume() {
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.03)
        .ranks(6)
        .seed(9)
        .build()
        .expect("valid test config");
    let report = coupled::tune_balancer(
        &run,
        MachineProfile::tianhe2(),
        20,
        &[5, 1000], // rebalance often vs effectively never
        &[1.5],
    );
    assert_eq!(report.points.len(), 2);
    let often = report.points.iter().find(|p| p.t_interval == 5).unwrap();
    let never = report.points.iter().find(|p| p.t_interval == 1000).unwrap();
    assert!(often.rebalances > 0);
    assert_eq!(never.rebalances, 0);
    assert!(
        often.total_time < never.total_time,
        "rebalancing must pay off on the filling plume: {} !< {}",
        often.total_time,
        never.total_time
    );
}

#[test]
fn vtk_export_of_simulation_fields() {
    let mut st = RankEngine::new(Dataset::D1.config(0.02));
    for _ in 0..5 {
        st.dsmc_step();
    }
    let (neutral, _) = st.counts_per_cell();
    let field: Vec<f64> = neutral.iter().map(|&c| c as f64).collect();
    let s = mesh::vtk::to_vtk_string(
        &st.nm.coarse,
        &[mesh::CellField {
            name: "count",
            values: &field,
        }],
    );
    assert!(s.contains("SCALARS count double 1"));
    // one value per cell after the lookup table line
    let data: Vec<&str> = s
        .lines()
        .skip_while(|l| !l.starts_with("LOOKUP_TABLE"))
        .skip(1)
        .collect();
    assert_eq!(data.len(), st.nm.num_coarse());
}
