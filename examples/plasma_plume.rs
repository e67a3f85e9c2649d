//! Plasma-plume simulation — the paper's headline workload: the
//! unsteady plume of hydrogen atoms (H) and ions (H⁺) induced by a
//! pulsed vacuum arc, expanding through the 3D cylindrical nozzle
//! with collisions, wall interactions and dissociation/recombination
//! chemistry.
//!
//! ```bash
//! cargo run --release --example plasma_plume
//! ```

use coupled::diag::{ascii_contour, rz_slice};
use coupled::prelude::*;
use coupled::RankEngine;

fn main() {
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.1)
        .build()
        .expect("valid plume config");
    let config = run.sim;
    let steps = 80usize;
    let mut sim = RankEngine::new(config.clone());

    println!(
        "simulating {} DSMC steps x {} PIC substeps (dt_DSMC = {:.2e} s) ...",
        steps, config.pic_per_dsmc, config.dt_dsmc
    );
    let mut history = Vec::new();
    let mut total_diss = 0usize;
    let mut total_rec = 0usize;
    for step in 1..=steps {
        let rec = sim.dsmc_step();
        total_diss += rec.reactions.dissociations;
        total_rec += rec.reactions.recombinations;
        if step % 10 == 0 {
            let (n, c) = sim.counts_per_cell();
            history.push((
                step,
                n.iter().sum::<u64>(),
                c.iter().sum::<u64>(),
                rec.collisions,
            ));
        }
    }

    println!("\n  step |  H atoms | H+ ions | collisions/step");
    for (step, n, c, coll) in &history {
        println!("  {step:>4} | {n:>8} | {c:>7} | {coll:>6}");
    }
    println!("\nchemistry: {total_diss} dissociations, {total_rec} recombinations");

    // density contours like the paper's Fig. 8
    let (neutral, charged) = sim.counts_per_cell();
    let w_h = sim.species.get(sim.h_id).weight;
    let w_i = sim.species.get(sim.hp_id).weight;
    let mesh = &sim.nm.coarse;
    let nh: Vec<f64> = neutral
        .iter()
        .zip(&mesh.volumes)
        .map(|(&c, &v)| c as f64 * w_h / v)
        .collect();
    let ni: Vec<f64> = charged
        .iter()
        .zip(&mesh.volumes)
        .map(|(&c, &v)| c as f64 * w_i / v)
        .collect();

    let spec = config.nozzle;
    println!("\nH density contour (rows = radius from axis, cols = z):");
    println!(
        "{}",
        ascii_contour(&rz_slice(mesh, &nh, spec.radius, spec.length, 5, 20))
    );
    println!("H+ density contour:");
    println!(
        "{}",
        ascii_contour(&rz_slice(mesh, &ni, spec.radius, spec.length, 5, 20))
    );
    println!("('9' = peak density, '.' = vacuum; the plume expands from the inlet at left)");

    // ParaView-ready export of both density fields
    std::fs::create_dir_all("results").ok();
    mesh::write_vtk(
        "results/plume.vtk",
        mesh,
        &[
            mesh::CellField {
                name: "n_H",
                values: &nh,
            },
            mesh::CellField {
                name: "n_Hplus",
                values: &ni,
            },
        ],
    )
    .expect("write VTK");
    println!(
        "
wrote results/plume.vtk (open with ParaView)"
    );
}
