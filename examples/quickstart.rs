//! Quickstart: build the dual nozzle grids, run the coupled DSMC/PIC
//! solver for a handful of timesteps, and print what happened.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use coupled::prelude::*;
use coupled::RankEngine;

fn main() {
    // Dataset 1 is the paper's validation case; scale 0.05 keeps this
    // example under a second. The builder is the canonical entry point
    // for every configuration — its `sim` field is the physics setup.
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.05)
        .build()
        .expect("valid quickstart config");
    let config = run.sim;
    println!(
        "nozzle: radius {:.1} mm, length {:.1} mm, {} coarse cells",
        config.nozzle.radius * 1e3,
        config.nozzle.length * 1e3,
        config.nozzle.nd * config.nozzle.nd * config.nozzle.nz, // upper bound
    );

    let mut sim = RankEngine::new(config);
    println!(
        "grids: {} coarse (DSMC) cells, {} fine (PIC) cells, {} fine nodes",
        sim.nm.num_coarse(),
        sim.nm.num_fine(),
        sim.nm.fine.num_nodes()
    );

    for step in 1..=30 {
        let rec = sim.dsmc_step();
        if step % 5 == 0 {
            println!(
                "step {step:>3}: {:>6} particles (+{:>3} injected, -{:>3} exited), \
                 {:>3} collisions, {:>2} reactions, poisson iters {:?}",
                rec.population,
                rec.injected_cells.len(),
                rec.exited,
                rec.collisions,
                rec.reactions.dissociations + rec.reactions.recombinations,
                rec.poisson_iters,
            );
        }
    }

    // final H density along the nozzle axis
    let (neutral, charged) = sim.counts_per_cell();
    let w = sim.species.get(sim.h_id).weight;
    let density: Vec<f64> = neutral
        .iter()
        .zip(&sim.nm.coarse.volumes)
        .map(|(&c, &v)| c as f64 * w / v)
        .collect();
    let profile =
        coupled::diag::axis_profile(&sim.nm.coarse, &density, sim.config.nozzle.length, 10);
    println!("\nH number density on the axis:");
    for (z, n) in profile {
        println!("  z = {:>5.2} mm   n_H = {n:.3e} 1/m^3", z * 1e3);
    }
    println!(
        "\ntotals: {} neutrals, {} ions",
        neutral.iter().sum::<u64>(),
        charged.iter().sum::<u64>()
    );
}
